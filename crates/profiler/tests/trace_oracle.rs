//! Pinned per-shape simulation results.
//!
//! Each row was recorded from the trace-then-run simulator (build the
//! whole kernel trace, then execute it). Any faster simulation path must
//! reproduce them bit for bit: launch count, distinct kernels, the total
//! time's bits and the autotune table's tuning cost.

use gpu_sim::{AutotuneTable, Device, GpuConfig, JitterModel};
use sqnn::models::{ds2, gnmt};
use sqnn::{IterationShape, Network};
use sqnn_data::{BatchPolicy, Corpus, EpochPlan};
use sqnn_profiler::{PhaseModel, Profiler};

/// `(model, src_len, jittered, launches, unique kernels, total_time_s bits,
/// tuning_cost_s bits)` at batch 64. `src_len` 0 is a hand-built shape
/// whose target length is 20.
type Row = (&'static str, u32, bool, u64, usize, u64, u64);

#[rustfmt::skip]
const ORACLE: &[Row] = &[
    ("gnmt", 1, false, 225, 28, 4581844882316826225, 4580188009920964624),
    ("gnmt", 1, true, 225, 28, 4581825697116429503, 4580188009920964624),
    ("gnmt", 20, false, 2106, 30, 4595295113898001629, 4594342457715022952),
    ("gnmt", 20, true, 2106, 30, 4595284279915361689, 4594342457715022952),
    ("gnmt", 60, false, 6066, 30, 4602368958066146372, 4601346558748625925),
    ("gnmt", 60, true, 6066, 30, 4602376936620906831, 4601346558748625925),
    ("gnmt", 120, false, 12006, 29, 4606736263269549430, 4605860791982181554),
    ("gnmt", 120, true, 12006, 29, 4606732031951219110, 4605860791982181554),
    ("gnmt", 0, false, 1206, 33, 4592175701246911610, 4594346791284505226),
    ("gnmt", 0, true, 1206, 33, 4592184653423351633, 4594346791284505226),
    ("ds2", 1, false, 139, 26, 4574198635426797740, 4569476923771300960),
    ("ds2", 1, true, 139, 26, 4574205100363114169, 4569476923771300960),
    ("ds2", 20, false, 1089, 28, 4589276838215248906, 4581763315547186555),
    ("ds2", 20, true, 1089, 28, 4589276381474331088, 4581763315547186555),
    ("ds2", 60, false, 3089, 27, 4595839281867777321, 4589303325287549359),
    ("ds2", 60, true, 3089, 27, 4595851823743837492, 4589303325287549359),
    ("ds2", 120, false, 6089, 26, 4600289331070215772, 4593888664752755455),
    ("ds2", 120, true, 6089, 26, 4600289521287241836, 4593888664752755455),
    ("ds2", 0, false, 89, 20, 4571000518165418076, 4553893403062499266),
    ("ds2", 0, true, 89, 20, 4570988199581358893, 4553893403062499266),
];

fn device(jittered: bool) -> Device {
    if jittered {
        Device::with_jitter(GpuConfig::vega_fe(), JitterModel::new(0.02, 7))
    } else {
        Device::new(GpuConfig::vega_fe())
    }
}

fn shape(src_len: u32) -> IterationShape {
    match src_len {
        0 => IterationShape {
            src_len: 0,
            ..IterationShape::new(64, 20)
        },
        sl => IterationShape::new(64, sl),
    }
}

/// Tuning cost of a fresh autotune table after simulating `src_len`.
/// Real sequence lengths go through a one-batch epoch, which shares the
/// per-iteration path; the hand-built zero-length shape cannot come from
/// a corpus, so it is tuned through trace emission.
fn tuning_cost_bits(net: &Network, src_len: u32, device: &Device) -> u64 {
    if src_len == 0 {
        let mut tuner = AutotuneTable::new();
        net.iteration_trace(&shape(0), device.config(), &mut tuner);
        return tuner.tuning_cost_s().to_bits();
    }
    let corpus = Corpus::from_lengths("oracle", vec![src_len; 64], net.vocab_size());
    let plan = EpochPlan::new(&corpus, BatchPolicy::sorted_first_epoch(64), 0).unwrap();
    let epoch = Profiler::new()
        .with_phases(PhaseModel::disabled())
        .profile_epoch(net, &plan, device)
        .unwrap();
    assert_eq!(epoch.iteration_count(), 1);
    epoch.autotune_s().to_bits()
}

fn measure(model: &'static str, src_len: u32, jittered: bool) -> Row {
    let net = match model {
        "gnmt" => gnmt(),
        "ds2" => ds2(),
        other => panic!("no oracle model {other}"),
    };
    let device = device(jittered);
    let it = Profiler::new()
        .with_kernel_detail()
        .profile_iteration(&net, &shape(src_len), &device);
    let detail = it.trace.as_ref().expect("kernel detail was requested");
    assert_eq!(detail.launches(), it.launches);
    assert_eq!(detail.total_time_s().to_bits(), it.time_s.to_bits());
    (
        model,
        src_len,
        jittered,
        it.launches,
        detail.unique_kernel_count(),
        it.time_s.to_bits(),
        tuning_cost_bits(&net, src_len, &device),
    )
}

#[test]
fn per_shape_profiles_match_the_pinned_oracle() {
    let mut got = Vec::new();
    for model in ["gnmt", "ds2"] {
        for src_len in [1, 20, 60, 120, 0] {
            for jittered in [false, true] {
                got.push(measure(model, src_len, jittered));
            }
        }
    }
    let rendered: Vec<String> = got.iter().map(|r| format!("{r:?},")).collect();
    assert_eq!(
        got.as_slice(),
        ORACLE,
        "pinned rows differ; measured:\n{}",
        rendered.join("\n")
    );
}

/// `(model, src_len, [(kernel name, invocations)])` at batch 64, each
/// list in name order. The kernel names appear in the Fig. 5/6/8
/// artifacts, so they are pinned as well as the numbers above.
type NameRow = (&'static str, u32, &'static [(&'static str, u64)]);

#[rustfmt::skip]
const NAME_ORACLE: &[NameRow] = &[
    ("gnmt", 1, &[("concat_v2", 1), ("ew_bias_add_v2", 1), ("ew_dropout_bwd_v1", 4), ("ew_dropout_v1", 4), ("ew_lstm_gates_bwd_v2", 17), ("ew_lstm_gates_v2", 17), ("ew_softmax_bwd_v1", 1), ("ew_softmax_ce_grad_v2", 1), ("ew_state_update_v1", 17), ("ew_tanh_bwd_v1", 1), ("ew_tanh_v1", 1), ("gather_rows", 2), ("gemm_bnn_16x16x16", 2), ("gemm_bnt_16x16x16", 2), ("gemm_nn_128x64x16", 1), ("gemm_nn_16x16x16", 2), ("gemm_nn_32x32x16", 34), ("gemm_nt_16x16x16", 1), ("gemm_nt_32x32x16", 36), ("gemm_tn_128x128x16", 35), ("gemm_tn_128x64x16", 1), ("gemm_tn_64x64x16", 1), ("opt_sgd_momentum", 20), ("reduce_bias_grad_1p", 18), ("reduce_ce_loss_1p", 1), ("scatter_add_rows", 2), ("softmax_2pass", 1), ("softmax_w1k", 1)]),
    ("gnmt", 20, &[("concat_v2", 1), ("ew_bias_add_v4", 1), ("ew_dropout_bwd_v2", 4), ("ew_dropout_v2", 4), ("ew_lstm_gates_bwd_v2", 340), ("ew_lstm_gates_v2", 340), ("ew_softmax_bwd_v1", 20), ("ew_softmax_ce_grad_v4", 1), ("ew_state_update_v1", 340), ("ew_tanh_bwd_v1", 20), ("ew_tanh_v1", 20), ("gather_rows", 2), ("gemm_bnn_16x16x16", 40), ("gemm_bnt_16x16x16", 40), ("gemm_nn_128x128x16", 18), ("gemm_nn_16x16x16", 40), ("gemm_nn_32x32x16", 340), ("gemm_nt_128x64x16", 2), ("gemm_nt_16x16x16", 20), ("gemm_nt_32x32x16", 360), ("gemm_nt_64x64x16", 16), ("gemm_tn_128x128x16", 35), ("gemm_tn_128x64x16", 20), ("gemm_tn_64x64x16", 20), ("opt_sgd_momentum", 20), ("reduce_bias_grad_1p", 18), ("reduce_ce_loss_1p", 1), ("scatter_add_rows", 2), ("softmax_2pass", 1), ("softmax_w1k", 20)]),
    ("gnmt", 60, &[("concat_v2", 1), ("ew_bias_add_v4", 1), ("ew_dropout_bwd_v2", 4), ("ew_dropout_v2", 4), ("ew_lstm_gates_bwd_v2", 1020), ("ew_lstm_gates_v2", 1020), ("ew_softmax_bwd_v1", 60), ("ew_softmax_ce_grad_v4", 1), ("ew_state_update_v1", 1020), ("ew_tanh_bwd_v1", 60), ("ew_tanh_v1", 60), ("gather_rows", 2), ("gemm_bnn_16x16x16", 120), ("gemm_bnt_16x16x16", 120), ("gemm_nn_128x128x16", 18), ("gemm_nn_16x16x16", 120), ("gemm_nn_32x32x16", 1020), ("gemm_nt_128x128x16", 2), ("gemm_nt_128x64x16", 16), ("gemm_nt_16x16x16", 60), ("gemm_nt_32x32x16", 1080), ("gemm_tn_128x128x16", 35), ("gemm_tn_128x64x16", 60), ("gemm_tn_64x64x16", 60), ("opt_sgd_momentum", 20), ("reduce_bias_grad_1p", 18), ("reduce_ce_loss_1p", 1), ("scatter_add_rows", 2), ("softmax_2pass", 1), ("softmax_w1k", 60)]),
    ("gnmt", 120, &[("concat_v2", 1), ("ew_bias_add_v4", 1), ("ew_dropout_bwd_v4", 4), ("ew_dropout_v4", 4), ("ew_lstm_gates_bwd_v2", 2040), ("ew_lstm_gates_v2", 2040), ("ew_softmax_bwd_v1", 120), ("ew_softmax_ce_grad_v4", 1), ("ew_state_update_v1", 2040), ("ew_tanh_bwd_v1", 120), ("ew_tanh_v1", 120), ("gather_rows", 2), ("gemm_bnn_16x16x16", 240), ("gemm_bnt_16x16x16", 240), ("gemm_nn_128x128x16", 18), ("gemm_nn_16x16x16", 240), ("gemm_nn_32x32x16", 2040), ("gemm_nt_128x128x16", 18), ("gemm_nt_16x16x16", 120), ("gemm_nt_32x32x16", 2160), ("gemm_tn_128x128x16", 35), ("gemm_tn_128x64x16", 120), ("gemm_tn_64x64x16", 120), ("opt_sgd_momentum", 20), ("reduce_bias_grad_2p", 18), ("reduce_ce_loss_2p", 1), ("scatter_add_rows", 2), ("softmax_2pass", 1), ("softmax_w1k", 120)]),
    ("ds2", 1, &[("bnorm_bwd", 1), ("bnorm_fwd", 1), ("concat_v2", 5), ("conv_gemm_igemm_bwdd_128x64x16", 2), ("conv_gemm_igemm_bwdw_16x16x16", 1), ("conv_gemm_igemm_bwdw_32x32x16", 1), ("conv_gemm_igemm_fwd_32x32x16", 2), ("ew_bias_add_v1", 3), ("ew_ctc_grad_v1", 1), ("ew_gru_gates_bwd_v1", 10), ("ew_gru_gates_v1", 10), ("ew_hardtanh_bwd_v1", 2), ("ew_hardtanh_v1", 2), ("ew_state_update_v1", 10), ("gemm_nn_16x16x16", 1), ("gemm_nn_32x32x16", 20), ("gemm_nt_16x16x16", 11), ("gemm_nt_32x32x16", 10), ("gemm_tn_128x64x16", 20), ("gemm_tn_16x16x16", 1), ("opt_sgd_momentum", 9), ("reduce_bias_grad_1p", 12), ("reduce_bias_grad_2p", 1), ("reduce_ctc_alpha_1p", 1), ("reduce_ctc_beta_1p", 1), ("softmax_w1k", 1)]),
    ("ds2", 20, &[("bnorm_bwd", 1), ("bnorm_fwd", 1), ("concat_v2", 5), ("conv_gemm_igemm_bwdd_128x128x16", 2), ("conv_gemm_igemm_bwdw_16x16x16", 1), ("conv_gemm_igemm_bwdw_32x32x16", 1), ("conv_gemm_igemm_fwd_32x32x16", 2), ("ew_bias_add_v1", 1), ("ew_bias_add_v2", 2), ("ew_ctc_grad_v1", 1), ("ew_gru_gates_bwd_v1", 200), ("ew_gru_gates_v1", 200), ("ew_hardtanh_bwd_v2", 2), ("ew_hardtanh_v2", 2), ("ew_state_update_v1", 200), ("gemm_nn_128x64x16", 10), ("gemm_nn_16x16x16", 1), ("gemm_nn_32x32x16", 200), ("gemm_nt_16x16x16", 200), ("gemm_nt_64x64x16", 11), ("gemm_tn_128x64x16", 20), ("gemm_tn_16x16x16", 1), ("opt_sgd_momentum", 9), ("reduce_bias_grad_1p", 11), ("reduce_bias_grad_2p", 2), ("reduce_ctc_alpha_1p", 1), ("reduce_ctc_beta_1p", 1), ("softmax_w1k", 1)]),
    ("ds2", 60, &[("bnorm_bwd", 1), ("bnorm_fwd", 1), ("concat_v2", 5), ("conv_gemm_igemm_bwdd_128x128x16", 2), ("conv_gemm_igemm_bwdw_16x16x16", 1), ("conv_gemm_igemm_bwdw_32x32x16", 1), ("conv_gemm_igemm_fwd_32x32x16", 2), ("ew_bias_add_v1", 1), ("ew_bias_add_v4", 2), ("ew_ctc_grad_v1", 1), ("ew_gru_gates_bwd_v1", 600), ("ew_gru_gates_v1", 600), ("ew_hardtanh_bwd_v4", 2), ("ew_hardtanh_v4", 2), ("ew_state_update_v1", 600), ("gemm_nn_128x128x16", 10), ("gemm_nn_32x32x16", 601), ("gemm_nt_128x128x16", 11), ("gemm_nt_16x16x16", 600), ("gemm_tn_128x64x16", 20), ("gemm_tn_16x16x16", 1), ("opt_sgd_momentum", 9), ("reduce_bias_grad_1p", 11), ("reduce_bias_grad_2p", 2), ("reduce_ctc_alpha_1p", 1), ("reduce_ctc_beta_1p", 1), ("softmax_w1k", 1)]),
    ("ds2", 120, &[("bnorm_bwd", 1), ("bnorm_fwd", 1), ("concat_v2", 5), ("conv_gemm_igemm_bwdd_128x128x16", 2), ("conv_gemm_igemm_bwdw_16x16x16", 1), ("conv_gemm_igemm_bwdw_32x32x16", 1), ("conv_gemm_igemm_fwd_32x32x16", 2), ("ew_bias_add_v1", 1), ("ew_bias_add_v4", 2), ("ew_ctc_grad_v1", 1), ("ew_gru_gates_bwd_v1", 1200), ("ew_gru_gates_v1", 1200), ("ew_hardtanh_bwd_v4", 2), ("ew_hardtanh_v4", 2), ("ew_state_update_v1", 1200), ("gemm_nn_128x128x16", 10), ("gemm_nn_32x32x16", 1201), ("gemm_nt_128x128x16", 11), ("gemm_nt_16x16x16", 1200), ("gemm_tn_128x64x16", 20), ("gemm_tn_32x32x16", 1), ("opt_sgd_momentum", 9), ("reduce_bias_grad_2p", 13), ("reduce_ctc_alpha_1p", 1), ("reduce_ctc_beta_1p", 1), ("softmax_w1k", 1)]),
];

fn kernel_names(model: &'static str, src_len: u32) -> Vec<(String, u64)> {
    let net = match model {
        "gnmt" => gnmt(),
        "ds2" => ds2(),
        other => panic!("no oracle model {other}"),
    };
    let it = Profiler::new().with_kernel_detail().profile_iteration(
        &net,
        &shape(src_len),
        &device(false),
    );
    let detail = it.trace.as_ref().expect("kernel detail was requested");
    detail
        .by_kernel()
        .iter()
        .map(|(name, agg)| (name.clone(), agg.invocations))
        .collect()
}

#[test]
fn kernel_names_and_invocations_match_the_pinned_oracle() {
    let mut got = Vec::new();
    for model in ["gnmt", "ds2"] {
        for src_len in [1, 20, 60, 120] {
            got.push((model, src_len, kernel_names(model, src_len)));
        }
    }
    let pinned: Vec<_> = NAME_ORACLE
        .iter()
        .map(|&(model, src_len, kernels)| {
            let kernels: Vec<(String, u64)> =
                kernels.iter().map(|&(n, c)| (n.to_owned(), c)).collect();
            (model, src_len, kernels)
        })
        .collect();
    let rendered: Vec<String> = got
        .iter()
        .map(|(model, src_len, kernels)| {
            let list: Vec<String> = kernels
                .iter()
                .map(|(n, c)| format!("({n:?}, {c})"))
                .collect();
            format!("(\"{model}\", {src_len}, &[{}]),", list.join(", "))
        })
        .collect();
    assert_eq!(
        got,
        pinned,
        "pinned kernel names differ; measured:\n{}",
        rendered.join("\n")
    );
}
