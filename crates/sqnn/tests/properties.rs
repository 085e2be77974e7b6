//! Property-based invariants of the network models' trace emission.

use gpu_sim::{
    AutotuneTable, Device, GpuConfig, JitterModel, KernelDesc, KernelKind, TraceProfile,
};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use sqnn::models::{
    cnn_reference, conv_s2s, conv_s2s_with, ds2, ds2_softmax, ds2_with, gnmt, gnmt_with, seq2seq,
    seq2seq_with, transformer_base, transformer_with,
};
use sqnn::{IterationShape, Network};

fn small_models() -> Vec<Network> {
    vec![
        gnmt_with(300, 64),
        ds2_with(29, 64),
        transformer_with(300, 64, 4, 2),
        conv_s2s_with(300, 64, 2),
        seq2seq_with(300, 64, 2),
    ]
}

/// Every network of the zoo at its paper configuration.
fn zoo() -> Vec<Network> {
    vec![
        gnmt(),
        ds2(),
        ds2_softmax(),
        transformer_base(),
        conv_s2s(),
        seq2seq(),
        cnn_reference(),
    ]
}

/// Equal profiles, with the total and every per-kernel time equal to the
/// bit (`==` on floats would also accept `0.0` against `-0.0`).
fn same_bits(ran: &TraceProfile, traced: &TraceProfile, what: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(ran, traced, "{}", what);
    prop_assert_eq!(
        ran.total_time_s().to_bits(),
        traced.total_time_s().to_bits(),
        "{}: total",
        what
    );
    for ((name, a), b) in ran.by_kernel().iter().zip(traced.by_kernel().values()) {
        prop_assert_eq!(a.time_s.to_bits(), b.time_s.to_bits(), "{}: {}", what, name);
    }
    Ok(())
}

fn trace(net: &Network, shape: IterationShape) -> Vec<KernelDesc> {
    let cfg = GpuConfig::vega_fe();
    let mut tuner = AutotuneTable::new();
    net.iteration_trace(&shape, &cfg, &mut tuner)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pricing_kernels_as_emitted_equals_running_the_trace(
        batch in 1u32..64,
        src_len in 1u32..200,
        dst_len in 1u32..200,
        seed in 0u64..1000,
    ) {
        let shape = IterationShape::with_lengths(batch, src_len, dst_len);
        let cfg = GpuConfig::vega_fe();
        let devices = [
            Device::new(cfg.clone()),
            Device::with_jitter(cfg, JitterModel::new(0.02, seed)),
        ];
        for device in &devices {
            for net in zoo() {
                for training in [true, false] {
                    let what = format!("{} training={training} jitter={:?}", net.name(), device.jitter());
                    let (mut ran_tuner, mut traced_tuner) = (AutotuneTable::new(), AutotuneTable::new());
                    let (ran, trace) = if training {
                        (
                            net.iteration_profile(&shape, device, &mut ran_tuner),
                            net.iteration_trace(&shape, device.config(), &mut traced_tuner),
                        )
                    } else {
                        (
                            net.inference_profile(&shape, device, &mut ran_tuner),
                            net.inference_trace(&shape, device.config(), &mut traced_tuner),
                        )
                    };
                    same_bits(&ran, &device.run_trace(&trace), &what)?;
                    prop_assert_eq!(
                        ran_tuner.tuning_cost_s().to_bits(),
                        traced_tuner.tuning_cost_s().to_bits(),
                        "{}: tuning cost",
                        what
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn traces_are_deterministic(batch in 1u32..16, sl in 1u32..64) {
        for net in small_models() {
            let shape = IterationShape::new(batch, sl);
            prop_assert_eq!(trace(&net, shape), trace(&net, shape), "{}", net.name());
        }
    }

    #[test]
    fn runtime_grows_with_sl_modulo_tile_sawtooth(batch in 1u32..16, sl in 2u32..64) {
        // Tiled-kernel libraries produce sawtooth runtime-vs-size curves:
        // crossing a tile boundary can switch to a more efficient variant
        // and *briefly* lower runtime (real GPUs do this too). Adjacent
        // SLs may therefore dip a few percent; over a +8 stride the trend
        // must be strictly upward.
        let device = Device::new(GpuConfig::vega_fe());
        for net in small_models() {
            let t = |s: u32| {
                device
                    .run_trace(&trace(&net, IterationShape::new(batch, s)))
                    .total_time_s()
            };
            let (short, long) = (t(sl - 1), t(sl));
            prop_assert!(
                long >= short * 0.95,
                "{} dips more than 5% at SL {sl}",
                net.name()
            );
            prop_assert!(
                t(sl + 8) > long,
                "{} not increasing over a +8 stride at SL {sl}",
                net.name()
            );
        }
    }

    #[test]
    fn every_trace_ends_with_optimizer_kernels(batch in 1u32..8, sl in 1u32..32) {
        for net in small_models() {
            let t = trace(&net, IterationShape::new(batch, sl));
            let opt_count = t.iter().filter(|k| k.kind() == KernelKind::Optimizer).count();
            let param_layers = net.layers().filter(|l| l.param_count() > 0).count();
            prop_assert_eq!(opt_count, param_layers, "{}", net.name());
            // Optimizer kernels come last.
            let first_opt = t
                .iter()
                .position(|k| k.kind() == KernelKind::Optimizer)
                .expect("all models have parameters");
            prop_assert!(t[first_opt..].iter().all(|k| k.kind() == KernelKind::Optimizer));
        }
    }

    #[test]
    fn inference_is_a_strict_prefix_of_training_work(batch in 1u32..8, sl in 1u32..32) {
        let cfg = GpuConfig::vega_fe();
        for net in small_models() {
            let mut tuner = AutotuneTable::new();
            let shape = IterationShape::new(batch, sl);
            let fwd = net.inference_trace(&shape, &cfg, &mut tuner);
            let full = net.iteration_trace(&shape, &cfg, &mut tuner);
            prop_assert!(fwd.len() < full.len(), "{}", net.name());
            prop_assert_eq!(&full[..fwd.len()], &fwd[..], "{}", net.name());
        }
    }

    #[test]
    fn backward_work_is_one_to_three_times_forward(sl in 4u32..64) {
        let cfg = GpuConfig::vega_fe();
        for net in small_models() {
            let mut tuner = AutotuneTable::new();
            let shape = IterationShape::new(8, sl);
            let fwd: f64 = net
                .inference_trace(&shape, &cfg, &mut tuner)
                .iter()
                .map(|k| k.flops())
                .sum();
            let full: f64 = net
                .iteration_trace(&shape, &cfg, &mut tuner)
                .iter()
                .map(|k| k.flops())
                .sum();
            let bwd_ratio = (full - fwd) / fwd;
            prop_assert!(
                (0.9..3.2).contains(&bwd_ratio),
                "{}: backward/forward = {bwd_ratio}",
                net.name()
            );
        }
    }

    #[test]
    fn cnn_traces_ignore_sequence_length(batch in 1u32..8, sl_a in 1u32..400, sl_b in 1u32..400) {
        let net = cnn_reference();
        prop_assert_eq!(
            trace(&net, IterationShape::new(batch, sl_a)),
            trace(&net, IterationShape::new(batch, sl_b))
        );
    }

    #[test]
    fn all_kernels_are_well_formed(sl in 1u32..48) {
        for net in small_models() {
            for k in trace(&net, IterationShape::new(4, sl)) {
                prop_assert!(k.flops() >= 0.0);
                prop_assert!(k.read_bytes() >= 0.0 && k.write_bytes() >= 0.0);
                prop_assert!(k.footprint_bytes() <= k.read_bytes() + k.write_bytes() + 1e-9);
                prop_assert!((0.0..=1.0).contains(&k.l1_locality()));
                prop_assert!((0.0..=1.0).contains(&k.l2_locality()));
                prop_assert!(k.efficiency() > 0.0 && k.efficiency() <= 1.0);
                prop_assert!(k.workgroups() >= 1.0);
                prop_assert!(!k.name().is_empty());
            }
        }
    }
}
