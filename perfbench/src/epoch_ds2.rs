//! epoch-ds2: offline profiling plus identification, what `seqpoint
//! simulate | seqpoint identify` runs, on a LibriSpeech-100-like corpus
//! in its sorted first epoch at batch 64. One thread, one warm memo and
//! autotune table, no graph, shards or I/O: sqnn and gpu-sim simulation
//! is nearly the whole job.

use std::time::Instant;

use seqpoint_core::{SeqPointAnalysis, SeqPointConfig, SeqPointPipeline};
use sqnn_data::{BatchPolicy, Corpus, EpochPlan};

use crate::jobs::{self, TIMED, WARMUP};
use crate::layers::{set_up, unique_shapes, Retimer, Rig, Tuner};
use crate::report::{self, LayerTally, TimedPass};
use crate::trace::{self, Tracer};
use crate::{host, job_count, ms_since, overhead_pct, stats, time_s, Args, Run};

const BATCH: u32 = 64;
/// Jobs per second of `--seconds`.
const JOBS_PER_S: f64 = 1.2;
const MIN_JOBS: usize = 6;
const WARMUP_JOBS: usize = 1;

/// A finished job: the selection and the plan's iteration count.
#[derive(Debug, Clone, PartialEq)]
struct Done {
    analysis: SeqPointAnalysis,
    iterations: u64,
}

/// One job: plan, profile the whole epoch, identify SeqPoints. Spans go
/// to `tracer` when it is on.
fn run_job(rig: &Rig, seed: u64, tracer: &Tracer, job: u64) -> Result<(Done, EpochPlan), String> {
    tracer.span("job", job, || {
        let plan = tracer
            .span("sqnn_data.plan", job, || {
                let corpus = Corpus::librispeech100_like(seed);
                EpochPlan::new(&corpus, BatchPolicy::sorted_first_epoch(BATCH), seed)
            })
            .map_err(|e| e.to_string())?;
        let profile = tracer
            .span("sqnn_profiler.epoch", job, || {
                rig.profiler.profile_epoch(&rig.network, &plan, &rig.device)
            })
            .map_err(|e| e.to_string())?;
        let log = profile.to_epoch_log();
        let analysis = tracer
            .span("seqpoint_core.select", job, || {
                SeqPointPipeline::new().run(&log)
            })
            .map_err(|e| e.to_string())?;
        let iterations = plan.iterations() as u64;
        Ok((
            Done {
                analysis,
                iterations,
            },
            plan,
        ))
    })
}

/// Weights cover every iteration once, and the self error meets the
/// configured threshold.
fn check(done: &Done) -> bool {
    done.analysis.seqpoints().total_weight() == done.iterations
        && done.analysis.self_error_pct() <= SeqPointConfig::default().error_threshold_pct
}

pub fn run(args: &Args) -> Result<Run, String> {
    let seeds = jobs::seeds(
        args.seed,
        TIMED,
        job_count(args.seconds, JOBS_PER_S, MIN_JOBS),
    );
    let quiet = Tracer::new(false);
    let rig = set_up("ds2")?;
    for seed in jobs::seeds(args.seed, WARMUP, WARMUP_JOBS) {
        run_job(&rig, seed, &quiet, 0)?;
    }

    // Set-up is timed before every job and each timed job is followed
    // by its untimed verification, as in stream-gnmt. In a traced run the
    // verification is traced, and its shapes are re-timed twice to check
    // the kernel counts.
    let tracer = Tracer::new(args.trace);
    let mut retimer = Retimer::new(Tuner::Warm);
    let mut quiet_retimer = Retimer::new(Tuner::Warm);
    let mut setup = Vec::with_capacity(seeds.len());
    let mut pass = TimedPass::new();
    let mut timed: Vec<Result<Done, String>> = Vec::with_capacity(seeds.len());
    let mut traced_ms = Vec::with_capacity(seeds.len());
    let mut tally = LayerTally::default();
    let mut correct = true;
    for (job, &seed) in seeds.iter().enumerate() {
        let job = job as u64;
        let (fresh, took) = time_s(|| set_up("ds2"));
        setup.push(took);
        let fresh = fresh?;
        let done = pass.time(|| run_job(&fresh, seed, &quiet, job).map(|(done, _)| done));
        let start = Instant::now();
        let again = run_job(&rig, seed, &tracer, job);
        traced_ms.push(ms_since(start));
        correct &= again.as_ref().map(|(d, _)| d) == done.as_ref();
        if let (true, Ok((_, plan))) = (args.trace, &again) {
            let shapes = unique_shapes(plan);
            let kernels = retimer.retime(&rig.network, &rig.device, &shapes, &tracer, job);
            correct &=
                kernels == quiet_retimer.retime(&rig.network, &rig.device, &shapes, &quiet, job);
            tally.shapes += shapes.len() as u64;
        }
        timed.push(done);
    }

    let spans = tracer.spans();
    if args.trace {
        tally.shapes_retimed = retimer.shapes;
        tally.kernels = retimer.kernels;
        tally.jobs = seeds.len() as u64;
        tally.computed_jobs = tally.jobs;
        tally.plans = tally.jobs;
        tally.plan_ms = trace::total_ms(&spans, "sqnn_data.plan");
        tally.epoch_ms = trace::total_ms(&spans, "sqnn_profiler.epoch");
        tally.select_ms = trace::total_ms(&spans, "seqpoint_core.select");
        tally.trace_ms = trace::total_ms(&spans, "sqnn.trace");
        tally.run_ms = trace::total_ms(&spans, "gpu_sim.run");
        tally.overhead_pct = overhead_pct(&traced_ms, &pass.job_ms);
    }

    let failed = timed
        .iter()
        .filter(|r| !r.as_ref().is_ok_and(check))
        .count() as u64;
    let done: Vec<&Done> = timed.iter().filter_map(|r| r.as_ref().ok()).collect();
    pass.iterations = done.iter().map(|d| d.iterations).sum();
    pass.ok = seeds.len() as u64 - failed;
    let points: usize = done.iter().map(|d| d.analysis.seqpoints().len()).sum();
    let error_pct = done
        .iter()
        .map(|d| d.analysis.self_error_pct())
        .sum::<f64>()
        / done.len().max(1) as f64;
    tally.selection_error_pct = error_pct;
    let end_to_end = report::end_to_end(
        stats::median(&setup),
        &pass,
        points as f64 / pass.iterations.max(1) as f64,
        host::peak_rss_mb(std::process::id()),
    );
    Ok(Run {
        correct,
        attempted: seeds.len() as u64,
        failed,
        end_to_end,
        tally,
        child_cpu_s: 0.0,
        spans,
        pass,
    })
}
