//! The paper's load-bearing claims, checked end to end at test scale.

use seqpoint::prelude::*;
use seqpoint::seqpoint_core::stats::coefficient_of_variation_pct;
use seqpoint::sqnn_profiler::parallel::{profile_seq_lens_parallel, profiling_cost};

fn gnmt_setup() -> (Network, EpochPlan) {
    let corpus = Corpus::iwslt15_like(4_000, 17);
    let plan = EpochPlan::new(&corpus, BatchPolicy::bucketed(64, 16), 17).unwrap();
    (gnmt(), plan)
}

/// Section III: SQNN iterations are heterogeneous; CNN iterations are not.
#[test]
fn claim_sqnn_iterations_are_heterogeneous() {
    let (net, plan) = gnmt_setup();
    let device = Device::new(GpuConfig::vega_fe());
    let profile = Profiler::new().profile_epoch(&net, &plan, &device).unwrap();
    let times: Vec<f64> = profile.iterations().iter().map(|i| i.time_s).collect();
    assert!(coefficient_of_variation_pct(&times) > 20.0);

    let cnn = cnn_reference();
    let fixed = Corpus::fixed_length("img", 224, 640);
    let cnn_plan = EpochPlan::new(&fixed, BatchPolicy::shuffled(64), 17).unwrap();
    let cnn_profile = Profiler::new()
        .profile_epoch(&cnn, &cnn_plan, &device)
        .unwrap();
    let cnn_times: Vec<f64> = cnn_profile.iterations().iter().map(|i| i.time_s).collect();
    assert!(coefficient_of_variation_pct(&cnn_times) < 0.01);
}

/// Key observations 4–5: same SL ⇒ same behaviour; the dataset's unique
/// SLs bound the representative set.
#[test]
fn claim_same_sl_same_behaviour() {
    let (net, plan) = gnmt_setup();
    let device = Device::new(GpuConfig::vega_fe());
    let profile = Profiler::new().profile_epoch(&net, &plan, &device).unwrap();
    use std::collections::HashMap;
    let mut by_sl: HashMap<(u32, u32), f64> = HashMap::new();
    for it in profile.iterations() {
        let prev = by_sl.insert((it.seq_len, it.samples), it.time_s);
        if let Some(prev) = prev {
            assert_eq!(prev, it.time_s, "SL {} behaved differently", it.seq_len);
        }
    }
}

/// Section V: the SeqPoint count is small and weights cover the epoch.
#[test]
fn claim_few_seqpoints_cover_the_epoch() {
    let (net, plan) = gnmt_setup();
    let device = Device::new(GpuConfig::vega_fe());
    let profile = Profiler::new().profile_epoch(&net, &plan, &device).unwrap();
    let analysis = SeqPointPipeline::new()
        .run(&profile.to_epoch_log())
        .unwrap();
    assert!(analysis.seqpoints().len() <= 16);
    assert_eq!(
        analysis.seqpoints().total_weight() as usize,
        plan.iterations()
    );
    assert!(analysis.self_error_pct() <= 1.0);
}

/// Section VI-F: SeqPoints are independent iterations; parallel profiling
/// gives identical results and wall time equal to the slowest point.
#[test]
fn claim_seqpoints_profile_in_parallel() {
    let (net, plan) = gnmt_setup();
    let device = Device::new(GpuConfig::vega_fe());
    let profiler = Profiler::new();
    let profile = profiler.profile_epoch(&net, &plan, &device).unwrap();
    let analysis = SeqPointPipeline::new()
        .run(&profile.to_epoch_log())
        .unwrap();
    let sls = analysis.seqpoints().seq_lens();

    let serial = profiler.profile_seq_lens(&net, 64, &sls, &device);
    let parallel = profile_seq_lens_parallel(&profiler, &net, 64, &sls, &device).unwrap();
    assert_eq!(serial, parallel);

    let cost = profiling_cost(&parallel);
    let epoch = profile.total_time_s();
    assert!(epoch / cost.serial_s > 5.0);
    assert!(cost.parallel_s < cost.serial_s);
}

/// Key observation 6: vocabulary size matters and must not be scaled.
#[test]
fn claim_vocabulary_affects_iteration_time() {
    let device = Device::new(GpuConfig::vega_fe());
    let profiler = Profiler::new();
    let full = seqpoint::sqnn::models::gnmt_with(36_549, 1024);
    let scaled = seqpoint::sqnn::models::gnmt_with(4_000, 1024);
    let t_full = profiler
        .profile_seq_lens(&full, 64, &[40], &device)
        .remove(0)
        .time_s;
    let t_scaled = profiler
        .profile_seq_lens(&scaled, 64, &[40], &device)
        .remove(0)
        .time_s;
    assert!(
        t_full > t_scaled * 1.1,
        "full-vocab iteration {t_full} should clearly exceed scaled {t_scaled}"
    );
}

/// Table I: the classifier GEMM dimensions match the paper exactly.
#[test]
fn claim_table1_gemm_dimensions() {
    use seqpoint::gpu_sim::AutotuneTable;
    let device = Device::new(GpuConfig::vega_fe());
    let mut tuner = AutotuneTable::new();
    let trace = gnmt().iteration_trace(&IterationShape::new(64, 94), device.config(), &mut tuner);
    let expected = 2.0 * 36_549.0 * 1024.0 * 6016.0;
    assert!(trace.iter().any(|k| (k.flops() - expected).abs() < 1.0));
    let trace = ds2().iteration_trace(&IterationShape::new(64, 402), device.config(), &mut tuner);
    let expected = 2.0 * 29.0 * 1600.0 * 25_728.0;
    assert!(trace.iter().any(|k| (k.flops() - expected).abs() < 1.0));
}
