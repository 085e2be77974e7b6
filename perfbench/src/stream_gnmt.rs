//! stream-gnmt: in-process streamed selection, what `seqpoint stream`
//! runs, on a 60,000-sentence IWSLT15-like corpus. Early stop leaves
//! about 94 % of the epoch to replay, so on-demand replay simulation
//! and the stream graph dominate; there is no checkpoint I/O and no
//! wire traffic.

use std::time::Instant;

use seqpoint_core::stream::{StreamConfig, StreamingAnalysis};
use seqpoint_core::SeqPointConfig;
use sqnn_data::{BatchPolicy, Corpus, EpochPlan};
use sqnn_profiler::stream::{
    profile_epoch_streaming, profile_epoch_streaming_with, stream_fingerprint, StreamOptions,
    StreamOutcome, ThreadExecutor,
};
use sqnn_profiler::StatKind;

use crate::jobs::{self, TIMED, WARMUP};
use crate::layers::{set_up, unique_shapes, Probe, Retimer, Rig, Tuner};
use crate::report::{self, LayerTally, TimedPass};
use crate::trace::{self, Tracer};
use crate::{host, job_count, ms_since, overhead_pct, stats, time_s, Args, Run};

const SAMPLES: usize = 60_000;
const BATCH: u32 = 16;
const SHARDS: usize = 2;
const ROUND_LEN: usize = 32;
/// Jobs per second of `--seconds`.
const JOBS_PER_S: f64 = 2.8;
const MIN_JOBS: usize = 8;
const WARMUP_JOBS: usize = 1;
/// Jobs `0, CHECK_EVERY, 2·CHECK_EVERY, …` are re-run on one shard.
const CHECK_EVERY: usize = 16;

/// Early-stop thresholds shared with serve-gnmt: window 128, quant 8.
pub fn stream_config() -> StreamConfig {
    StreamConfig {
        saturation_window: 128,
        unseen_threshold: 0.05,
        quantization: 8,
        pipeline: SeqPointConfig::default(),
    }
}

fn options(shards: usize) -> StreamOptions {
    StreamOptions {
        shards,
        round_len: ROUND_LEN,
        stat: StatKind::Runtime,
        stream: stream_config(),
    }
}

fn plan(seed: u64, tracer: &Tracer, job: u64) -> Result<EpochPlan, String> {
    tracer
        .span("sqnn_data.plan", job, || {
            let corpus = Corpus::iwslt15_like(SAMPLES, seed);
            EpochPlan::new(&corpus, BatchPolicy::shuffled(BATCH), seed)
        })
        .map_err(|e| e.to_string())
}

type Selection = Result<StreamingAnalysis, String>;

/// One job exactly as `seqpoint stream` runs it.
fn run_plain(rig: &Rig, seed: u64, shards: usize) -> Selection {
    let plan = plan(seed, &Tracer::new(false), 0)?;
    profile_epoch_streaming(
        &rig.profiler,
        &rig.network,
        &plan,
        &rig.device,
        &options(shards),
    )
    .map(|p| p.selection)
    .map_err(|e| e.to_string())
}

/// Deterministic work counts of one probed job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Counts {
    rounds_executed: u64,
    rounds_merged: u64,
    replay_misses: u64,
    shapes: u64,
    kernels: u64,
}

/// One job through the same graph with the probe executor in place;
/// spans go to `tracer` when it is on. Shapes are re-timed afterwards,
/// outside the job and its latency.
fn run_probed(
    rig: &Rig,
    seed: u64,
    tracer: &Tracer,
    retimer: &mut Retimer,
    job: u64,
) -> Result<(StreamingAnalysis, Counts, f64), String> {
    let opts = options(SHARDS);
    let start = Instant::now();
    let (plan, outcome, rounds_executed, replay_misses) = tracer.span("job", job, || {
        let plan = plan(seed, tracer, job)?;
        let (outcome, rounds, misses) = tracer.span("sqnn_profiler.graph", job, || {
            let executor = ThreadExecutor::new(
                &rig.profiler,
                &rig.network,
                rig.device.clone(),
                opts.stat,
                opts.shards,
            );
            let mut probe = Probe::new(executor, tracer, job);
            let fingerprint = stream_fingerprint(&rig.network, &plan, &rig.device, &opts);
            let outcome =
                profile_epoch_streaming_with(&mut probe, &plan, &opts, fingerprint, None, None);
            (outcome, probe.rounds, probe.replay_misses)
        });
        Ok::<_, String>((plan, outcome, rounds, misses))
    })?;
    let job_ms = ms_since(start);
    let selection = match outcome.map_err(|e| e.to_string())? {
        StreamOutcome::Complete(profile) => profile.selection,
        StreamOutcome::Paused(_) => return Err("run paused without a pause budget".to_owned()),
    };
    let shapes = unique_shapes(&plan);
    let kernels = retimer.retime(&rig.network, &rig.device, &shapes, tracer, job);
    let counts = Counts {
        rounds_executed,
        rounds_merged: u64::from(selection.rounds()),
        replay_misses,
        shapes: shapes.len() as u64,
        kernels,
    };
    Ok((selection, counts, job_ms))
}

/// The sharded == unsharded contract: same stop, same SeqPoints and
/// weights, statistics within 1e-9.
fn matches_one_shard(sharded: &StreamingAnalysis, single: &StreamingAnalysis) -> bool {
    let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
    let (a, b) = (sharded.seqpoints().points(), single.seqpoints().points());
    sharded.iterations_measured() == single.iterations_measured()
        && sharded.iterations_total() == single.iterations_total()
        && sharded.stopped_at() == single.stopped_at()
        && a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.seq_len == y.seq_len && x.weight == y.weight && close(x.stat, y.stat))
        && close(
            sharded.analysis().self_error_pct(),
            single.analysis().self_error_pct(),
        )
}

pub fn run(args: &Args) -> Result<Run, String> {
    let seeds = jobs::seeds(
        args.seed,
        TIMED,
        job_count(args.seconds, JOBS_PER_S, MIN_JOBS),
    );
    let rig = set_up("gnmt")?;
    for seed in jobs::seeds(args.seed, WARMUP, WARMUP_JOBS) {
        run_plain(&rig, seed, SHARDS)?;
    }

    // Set-up is timed before every job, with the caches the previous
    // job left behind, as a process meets it once; the median is
    // steadier than one microsecond-scale sample. Each timed job is
    // followed by its untimed verification, so the timed jobs sample
    // the host across the whole run.
    let quiet = Tracer::new(false);
    let tracer = Tracer::new(args.trace);
    let mut quiet_retimer = Retimer::new(Tuner::ColdPerShape);
    let mut retimer = Retimer::new(Tuner::ColdPerShape);
    let mut setup = Vec::with_capacity(seeds.len());
    let mut pass = TimedPass::new();
    let mut timed: Vec<Selection> = Vec::with_capacity(seeds.len());
    let mut traced_ms = Vec::with_capacity(seeds.len());
    let mut tally = LayerTally::default();
    let mut correct = true;
    for (job, &seed) in seeds.iter().enumerate() {
        let (fresh, took) = time_s(|| set_up("gnmt"));
        setup.push(took);
        let fresh = fresh?;
        if args.trace {
            // The untraced job goes through the probe too, so it yields
            // the counts its traced verification must repeat.
            let job = job as u64;
            let (selection, counts, job_ms) =
                run_probed(&fresh, seed, &quiet, &mut quiet_retimer, job)?;
            pass.job_ms.push(job_ms);
            let (again, traced_counts, traced_job_ms) =
                run_probed(&rig, seed, &tracer, &mut retimer, job)?;
            traced_ms.push(traced_job_ms);
            correct &= traced_counts == counts && again == selection;
            tally.rounds_executed += counts.rounds_executed;
            tally.rounds_merged += counts.rounds_merged;
            tally.replay_misses += counts.replay_misses;
            tally.shapes += counts.shapes;
            timed.push(Ok(selection));
        } else {
            let selection = pass.time(|| run_plain(&fresh, seed, SHARDS));
            correct &= run_plain(&rig, seed, SHARDS) == selection;
            timed.push(selection);
        }
    }

    let spans = tracer.spans();
    if args.trace {
        let own = trace::self_times(&spans);
        tally.shapes_retimed = retimer.shapes;
        tally.kernels = retimer.kernels;
        tally.jobs = seeds.len() as u64;
        tally.computed_jobs = tally.jobs;
        tally.plans = tally.jobs;
        tally.plan_ms = trace::total_ms(&spans, "sqnn_data.plan");
        tally.trace_ms = trace::total_ms(&spans, "sqnn.trace");
        tally.run_ms = trace::total_ms(&spans, "gpu_sim.run");
        tally.fold_ms = trace::total_ms(&spans, "sqnn_profiler.fold");
        tally.replay_ms = trace::total_ms(&spans, "sqnn_profiler.replay");
        tally.graph_other_ms = trace::self_ms(&spans, &own, "sqnn_profiler.graph");
        tally.overhead_pct = overhead_pct(&traced_ms, &pass.job_ms);
    }

    // Output checks on a fixed subset: the 2-shard selection must equal
    // a 1-shard re-run.
    let mut failed = 0;
    for (job, result) in timed.iter().enumerate() {
        let ok = match result {
            Ok(selection) if job % CHECK_EVERY == 0 => run_plain(&rig, seeds[job], 1)
                .is_ok_and(|single| matches_one_shard(selection, &single)),
            Ok(_) => true,
            Err(_) => false,
        };
        failed += u64::from(!ok);
    }

    let done: Vec<&StreamingAnalysis> = timed.iter().filter_map(|r| r.as_ref().ok()).collect();
    pass.iterations = done.iter().map(|s| s.iterations_total()).sum();
    pass.ok = seeds.len() as u64 - failed;
    let measured: u64 = done.iter().map(|s| s.iterations_measured()).sum();
    let error_pct = done
        .iter()
        .map(|s| s.analysis().self_error_pct())
        .sum::<f64>()
        / done.len().max(1) as f64;
    tally.selection_error_pct = error_pct;
    let end_to_end = report::end_to_end(
        stats::median(&setup),
        &pass,
        measured as f64 / pass.iterations.max(1) as f64,
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
