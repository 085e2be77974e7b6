//! Metric assembly and the one-line JSON result.

use std::fmt::Write as _;
use std::time::Instant;

use crate::{host, ms_since, stats};

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

fn metric(name: &'static str, unit: &'static str, value: f64) -> Metric {
    Metric { name, unit, value }
}

/// What one run prints last.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    /// Every determinism guard held.
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Outcome {
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

/// The timed pass of a run: one closed-loop client, one job at a time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TimedPass {
    /// Per-job host wall time, job start to result.
    pub job_ms: Vec<f64>,
    /// Machine-wide steal time that fell inside the jobs, summed over
    /// the CPUs.
    pub steal_s: f64,
    /// CPUs the steal time is summed over.
    pub cpus: usize,
    /// Training iterations the jobs' selections cover.
    pub iterations: u64,
    /// Jobs that completed and passed their output checks.
    pub ok: u64,
}

impl TimedPass {
    pub fn new() -> Self {
        TimedPass {
            cpus: host::cpus(),
            ..TimedPass::default()
        }
    }

    /// Run one job, recording its wall time and the steal inside it.
    pub fn time<T>(&mut self, job: impl FnOnce() -> T) -> T {
        let steal = host::steal_s();
        let start = Instant::now();
        let done = job();
        self.job_ms.push(ms_since(start));
        self.steal_s += host::steal_s() - steal;
        done
    }

    /// The share of each CPU's time the hypervisor took during the jobs.
    pub fn steal_share(&self) -> f64 {
        let wall_s = self.job_ms.iter().sum::<f64>() / 1e3;
        if self.cpus == 0 || wall_s == 0.0 {
            0.0
        } else {
            self.steal_s / (self.cpus as f64 * wall_s)
        }
    }

    /// Per-job times with the pass's steal share taken out: a job that
    /// waited a share `f` of its wall time for a stolen CPU would have
    /// taken `1 − f` of it on an unshared host.
    pub fn own_ms(&self) -> Vec<f64> {
        let own = 1.0 - self.steal_share();
        self.job_ms.iter().map(|ms| ms * own).collect()
    }
}

/// The end-to-end metrics of a timed run (`--trace 0`). Job times are
/// [`TimedPass::own_ms`]. Set-up is too short for a steal reading of
/// its own and stays as measured.
pub fn end_to_end(
    setup_s: f64,
    pass: &TimedPass,
    measured_frac: f64,
    peak_rss_mb: f64,
) -> Vec<Metric> {
    let job_ms = pass.own_ms();
    vec![
        metric("setup_s", "s", setup_s),
        metric(
            "iters_per_s",
            "1/s",
            pass.iterations as f64 * 1e3 / job_ms.iter().sum::<f64>(),
        ),
        metric("job_ms.p50", "ms", stats::median(&job_ms)),
        metric("job_ms.p90", "ms", stats::tail_or_median(&job_ms, 0.9)),
        metric(
            "ok_rate",
            "ratio",
            pass.ok as f64 / pass.job_ms.len() as f64,
        ),
        metric("peak_rss_mb", "MB", peak_rss_mb),
        metric("measured_frac", "ratio", measured_frac),
    ]
}

/// Raw totals of a traced run, before division by their bases.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LayerTally {
    /// Jobs submitted or run in the traced pass.
    pub jobs: u64,
    /// Of those, jobs whose selection was computed (not a cache answer).
    pub computed_jobs: u64,
    /// Plans built (`Corpus::*_like` + `EpochPlan::new`).
    pub plans: u64,
    pub plan_ms: f64,
    /// Unique `(seq_len, samples)` shapes per computed job, summed.
    pub shapes: u64,
    /// Distinct shapes re-timed outside the jobs, each once.
    pub shapes_retimed: u64,
    pub trace_ms: f64,
    pub kernels: u64,
    pub run_ms: f64,
    pub epoch_ms: f64,
    pub fold_ms: f64,
    pub rounds_executed: u64,
    pub rounds_merged: u64,
    pub replay_ms: f64,
    pub replay_misses: u64,
    pub graph_other_ms: f64,
    pub select_ms: f64,
    /// Mean over jobs of the selections' self error.
    pub selection_error_pct: f64,
    pub submit_ms: f64,
    pub result_wait_ms: f64,
    pub service: ServiceDelta,
    pub steal_s: f64,
    pub cpu_s: f64,
    pub overhead_pct: f64,
}

/// Deltas of the daemon's own counters over the traced pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ServiceDelta {
    pub worker_bytes: f64,
    pub worker_messages: f64,
    pub client_bytes: f64,
    pub rounds: f64,
    pub fold_ms: f64,
    pub sink_ms: f64,
    pub queue_wait_ms: f64,
    pub cache_hits: f64,
    pub cache_misses: f64,
}

fn per(total: f64, base: u64) -> f64 {
    if base == 0 {
        0.0
    } else {
        total / base as f64
    }
}

/// The per-layer metrics of a traced run (`--trace 1`). Client-side
/// service figures are per submitted job; work done by the profiler or
/// the daemon is per computed job, since a cache answer does none.
pub fn per_layer(t: &LayerTally) -> Vec<Metric> {
    let computed = t.computed_jobs;
    let s = &t.service;
    vec![
        metric("sqnn_data.plan_ms", "ms/job", per(t.plan_ms, t.plans)),
        metric(
            "sqnn.trace_ms_per_shape",
            "ms",
            per(t.trace_ms, t.shapes_retimed),
        ),
        metric(
            "sqnn.kernels_per_shape",
            "count",
            per(t.kernels as f64, t.shapes_retimed),
        ),
        metric(
            "gpu_sim.run_ms_per_shape",
            "ms",
            per(t.run_ms, t.shapes_retimed),
        ),
        metric(
            "sqnn_profiler.unique_shapes",
            "count/job",
            per(t.shapes as f64, computed),
        ),
        metric(
            "sqnn_profiler.epoch_ms",
            "ms/job",
            per(t.epoch_ms, computed),
        ),
        metric("sqnn_profiler.fold_ms", "ms/job", per(t.fold_ms, computed)),
        metric(
            "sqnn_profiler.rounds_executed",
            "count/job",
            per(t.rounds_executed as f64, computed),
        ),
        metric(
            "sqnn_profiler.replay_ms",
            "ms/job",
            per(t.replay_ms, computed),
        ),
        metric(
            "sqnn_profiler.replay_misses",
            "count/job",
            per(t.replay_misses as f64, computed),
        ),
        metric(
            "sqnn_profiler.round_yield",
            "ratio",
            per(t.rounds_merged as f64, t.rounds_executed),
        ),
        metric(
            "sqnn_profiler.graph_other_ms",
            "ms/job",
            per(t.graph_other_ms, computed),
        ),
        metric(
            "seqpoint_core.select_ms",
            "ms/job",
            per(t.select_ms, computed),
        ),
        metric(
            "seqpoint_core.selection_error_pct",
            "%",
            t.selection_error_pct,
        ),
        metric(
            "seqpoint_service.submit_ms",
            "ms/job",
            per(t.submit_ms, t.jobs),
        ),
        metric(
            "seqpoint_service.result_wait_ms",
            "ms/job",
            per(t.result_wait_ms, t.jobs),
        ),
        metric(
            "seqpoint_service.worker_bytes",
            "B/job",
            per(s.worker_bytes, computed),
        ),
        metric(
            "seqpoint_service.worker_messages",
            "count/job",
            per(s.worker_messages, computed),
        ),
        metric(
            "seqpoint_service.client_bytes",
            "B/job",
            per(s.client_bytes, t.jobs),
        ),
        metric(
            "seqpoint_service.rounds",
            "count/job",
            per(s.rounds, computed),
        ),
        metric(
            "seqpoint_service.fold_ms",
            "ms/job",
            per(s.fold_ms, computed),
        ),
        metric(
            "seqpoint_service.sink_ms",
            "ms/job",
            per(s.sink_ms, computed),
        ),
        metric(
            "seqpoint_service.queue_wait_ms",
            "ms/job",
            per(s.queue_wait_ms, t.jobs),
        ),
        metric("seqpoint_service.cache_hits", "count/run", s.cache_hits),
        metric("seqpoint_service.cache_misses", "count/run", s.cache_misses),
        metric("host.steal_s", "s/run", t.steal_s),
        metric("host.cpu_s", "s/run", t.cpu_s),
        metric("trace.overhead_pct", "%", t.overhead_pct),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn value(metrics: &[Metric], name: &str) -> f64 {
        metrics.iter().find(|m| m.name == name).unwrap().value
    }

    #[test]
    fn each_ratio_divides_by_its_base() {
        // Distinct powers of two per base make a wrong base visible.
        let tally = LayerTally {
            jobs: 8,
            computed_jobs: 4,
            plans: 2,
            plan_ms: 64.0,
            shapes: 16,
            shapes_retimed: 16,
            trace_ms: 64.0,
            kernels: 64,
            run_ms: 64.0,
            epoch_ms: 64.0,
            fold_ms: 64.0,
            rounds_executed: 32,
            rounds_merged: 24,
            replay_ms: 64.0,
            replay_misses: 64,
            graph_other_ms: 64.0,
            select_ms: 64.0,
            selection_error_pct: 0.25,
            submit_ms: 64.0,
            result_wait_ms: 64.0,
            service: ServiceDelta {
                worker_bytes: 64.0,
                worker_messages: 64.0,
                client_bytes: 64.0,
                rounds: 64.0,
                fold_ms: 64.0,
                sink_ms: 64.0,
                queue_wait_ms: 64.0,
                cache_hits: 2.0,
                cache_misses: 6.0,
            },
            steal_s: 0.5,
            cpu_s: 9.0,
            overhead_pct: 1.5,
        };
        let m = per_layer(&tally);
        // Per plan built.
        assert_eq!(value(&m, "sqnn_data.plan_ms"), 32.0);
        // Per shape re-timed.
        for name in [
            "sqnn.trace_ms_per_shape",
            "sqnn.kernels_per_shape",
            "gpu_sim.run_ms_per_shape",
        ] {
            assert_eq!(value(&m, name), 4.0, "{name}");
        }
        // Per computed job.
        assert_eq!(value(&m, "sqnn_profiler.unique_shapes"), 4.0);
        assert_eq!(value(&m, "sqnn_profiler.rounds_executed"), 8.0);
        for name in [
            "sqnn_profiler.epoch_ms",
            "sqnn_profiler.fold_ms",
            "sqnn_profiler.replay_ms",
            "sqnn_profiler.replay_misses",
            "sqnn_profiler.graph_other_ms",
            "seqpoint_core.select_ms",
            "seqpoint_service.worker_bytes",
            "seqpoint_service.worker_messages",
            "seqpoint_service.rounds",
            "seqpoint_service.fold_ms",
            "seqpoint_service.sink_ms",
        ] {
            assert_eq!(value(&m, name), 16.0, "{name}");
        }
        // Per submitted job.
        for name in [
            "seqpoint_service.submit_ms",
            "seqpoint_service.result_wait_ms",
            "seqpoint_service.client_bytes",
            "seqpoint_service.queue_wait_ms",
        ] {
            assert_eq!(value(&m, name), 8.0, "{name}");
        }
        // Rounds merged per round executed.
        assert_eq!(value(&m, "sqnn_profiler.round_yield"), 0.75);
        // Per run.
        assert_eq!(value(&m, "seqpoint_core.selection_error_pct"), 0.25);
        assert_eq!(value(&m, "seqpoint_service.cache_hits"), 2.0);
        assert_eq!(value(&m, "seqpoint_service.cache_misses"), 6.0);
        assert_eq!(value(&m, "host.cpu_s"), 9.0);
        // An unexercised layer reads zero, not NaN.
        let empty = per_layer(&LayerTally::default());
        assert!(empty.iter().all(|m| m.value == 0.0));
    }

    #[test]
    fn end_to_end_reports_every_metric_once() {
        let pass = TimedPass {
            job_ms: (1..=120).map(f64::from).collect(),
            steal_s: 0.0,
            cpus: 2,
            iterations: 3630,
            ok: 120,
        };
        let m = end_to_end(0.25, &pass, 0.125, 64.0);
        // 3630 iterations over 7.26 s of jobs.
        assert_eq!(value(&m, "iters_per_s"), 500.0);
        assert_eq!(value(&m, "job_ms.p50"), 60.5);
        assert_eq!(value(&m, "job_ms.p90"), 108.0);
        assert_eq!(value(&m, "ok_rate"), 1.0);
        let json = Outcome {
            correct: true,
            attempted: 120,
            failed: 0,
            metrics: m,
        }
        .to_json();
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 120, \"failed\": 0, "));
        assert!(json.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        assert!(json.ends_with("}}"));
    }

    #[test]
    fn steal_is_taken_out_of_job_times() {
        // 7.26 s of jobs on 2 CPUs, of which 1.452 CPU-seconds were
        // stolen: a tenth of each CPU's time.
        let pass = TimedPass {
            job_ms: (1..=120).map(f64::from).collect(),
            steal_s: 1.452,
            cpus: 2,
            iterations: 3630,
            ok: 120,
        };
        assert!((pass.steal_share() - 0.1).abs() < 1e-12);
        let m = end_to_end(0.25, &pass, 0.125, 64.0);
        let close = |name: &str, want: f64| {
            let got = value(&m, name);
            assert!((got - want).abs() < 1e-9, "{name}: {got} != {want}");
        };
        close("setup_s", 0.25);
        close("iters_per_s", 500.0 / 0.9);
        close("job_ms.p50", 60.5 * 0.9);
        close("job_ms.p90", 108.0 * 0.9);
        close("ok_rate", 1.0);
        close("measured_frac", 0.125);
        // A pass without jobs has no steal share.
        assert_eq!(TimedPass::default().steal_share(), 0.0);
    }
}
