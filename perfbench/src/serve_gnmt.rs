//! serve-gnmt: streamed selections on a 3,000-sentence corpus, submitted
//! by one closed-loop client through `seqpoint_service::Client` to a
//! `seqpoint serve --jobs 1 --placement subprocess --workers 2` daemon
//! with a fresh state directory. Small epochs are mostly measured, so
//! the time goes to the round-by-round fold on workers, worker wire
//! traffic, per-round checkpoint writes and queue admission; every
//! fourth submission repeats an earlier spec and is answered from the
//! result cache instead.

use std::collections::HashMap;
use std::fs::File;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use seqpoint_core::protocol::{JobSpec, Request, Response};
use seqpoint_service::client::{Client, ClientOptions};
use seqpoint_service::{spec, Endpoint};
use sqnn::IterationShape;
use sqnn_data::{BatchPolicy, Corpus, EpochPlan};
use sqnn_profiler::stream::{
    profile_epoch_streaming_with, stream_fingerprint, RoundExecutor, ShardChunk, ShardReport,
    StreamOutcome, ThreadExecutor,
};
use sqnn_profiler::{IterationProfile, ProfileError, Profiler};

use crate::jobs::{self, Submission, WARMUP};
use crate::layers::{set_up, unique_shapes, Probe, Retimer, Tuner};
use crate::report::{self, LayerTally, ServiceDelta, TimedPass};
use crate::stream_gnmt::stream_config;
use crate::trace::{self, Tracer};
use crate::{host, job_count, overhead_pct, stats, Args, Run};

const SAMPLES: u64 = 3_000;
const BATCH: u32 = 16;
const SHARDS: u32 = 2;
const ROUND_LEN: u32 = 32;
const WORKERS: usize = 2;
/// Submissions per second of `--seconds`.
const JOBS_PER_S: f64 = 24.0;
/// At least 100 submissions, so p90 has ten jobs beyond it.
const MIN_JOBS: usize = 100;
const WARMUP_JOBS: usize = 20;
const SETUP_REPS: usize = 3;
/// The identity the submitting client announces, which keys the
/// daemon's per-client traffic counters.
const CLIENT: &str = "perfbench";
const IO_TIMEOUT: Duration = Duration::from_secs(60);
const START_TIMEOUT: Duration = Duration::from_secs(30);

fn job_spec(seed: u64) -> JobSpec {
    JobSpec {
        model: "gnmt".to_owned(),
        dataset: "iwslt15".to_owned(),
        samples: SAMPLES,
        config: 1,
        seed,
        batch: BATCH,
        shards: SHARDS,
        round_len: ROUND_LEN,
        stream: stream_config(),
        ..JobSpec::default()
    }
}

/// A running `seqpoint serve` and its subprocess workers.
struct Daemon {
    child: Option<Child>,
    socket: PathBuf,
    state: PathBuf,
    workers: Vec<u32>,
}

impl Daemon {
    /// Start a daemon on a fresh state directory and wait until it
    /// answers a ping with its workers connected. Returns the daemon and
    /// the seconds that took.
    fn start(args: &Args, tag: &str) -> Result<(Daemon, f64), String> {
        let dir = args.work_dir.join(format!("serve-{}-{tag}", args.seed));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let log = File::create(dir.join("serve.log")).map_err(|e| e.to_string())?;
        let socket = dir.join("s.sock");
        let state = dir.join("state");
        let start = Instant::now();
        let child = Command::new(&args.seqpoint)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--state-dir")
            .arg(&state)
            .args(["--jobs", "1", "--placement", "subprocess", "--workers"])
            .arg(WORKERS.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("starting {}: {e}", args.seqpoint.display()))?;
        let mut daemon = Daemon {
            child: Some(child),
            socket,
            state,
            workers: Vec::new(),
        };
        let mut client =
            Client::connect_ready(&daemon.socket, START_TIMEOUT).map_err(|e| e.to_string())?;
        loop {
            if let Response::Pong {
                workers,
                fleet_idle,
                ..
            } = client.request(&Request::Ping).map_err(|e| e.to_string())?
            {
                if workers.len() == WORKERS && fleet_idle.len() == WORKERS {
                    daemon.workers = workers
                        .iter()
                        .filter_map(|&p| u32::try_from(p).ok())
                        .collect();
                    break;
                }
            }
            if start.elapsed() > START_TIMEOUT {
                return Err("daemon workers did not connect".to_owned());
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        Ok((daemon, start.elapsed().as_secs_f64()))
    }

    fn pids(&self) -> Vec<u32> {
        self.child
            .iter()
            .map(Child::id)
            .chain(self.workers.iter().copied())
            .collect()
    }

    fn metrics(&self) -> Result<String, String> {
        let mut client = Client::connect(&self.socket).map_err(|e| e.to_string())?;
        match client
            .request(&Request::Metrics)
            .map_err(|e| e.to_string())?
        {
            Response::Metrics { text } => Ok(text),
            other => Err(format!("unexpected metrics reply: {other:?}")),
        }
    }

    /// Drain the daemon, wait until it and its workers have exited, and
    /// delete its state directory (its log stays for diagnosis).
    fn shutdown(mut self) -> Result<(), String> {
        let mut client = Client::connect(&self.socket).map_err(|e| e.to_string())?;
        client
            .request(&Request::Shutdown)
            .map_err(|e| e.to_string())?;
        let deadline = Instant::now() + START_TIMEOUT;
        if let Some(mut child) = self.child.take() {
            loop {
                match child.try_wait() {
                    Ok(Some(_)) => break,
                    Ok(None) if Instant::now() < deadline => {
                        std::thread::sleep(Duration::from_millis(5))
                    }
                    _ => {
                        let _ = child.kill();
                        let _ = child.wait();
                        return Err("daemon did not drain in time".to_owned());
                    }
                }
            }
        }
        self.wait_workers(deadline)?;
        std::fs::remove_dir_all(&self.state)
            .map_err(|e| format!("removing {}: {e}", self.state.display()))
    }

    fn wait_workers(&self, deadline: Instant) -> Result<(), String> {
        while self.workers.iter().any(|&pid| host::alive(pid)) {
            if Instant::now() > deadline {
                return Err("daemon workers outlived the daemon".to_owned());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
            let _ = self.wait_workers(Instant::now() + START_TIMEOUT);
        }
    }
}

/// Sum of every sample of `name` whose labels contain `label`.
fn series(text: &str, name: &str, label: &str) -> f64 {
    text.lines()
        .filter(|line| !line.starts_with('#'))
        .filter_map(|line| {
            let (key, value) = line.rsplit_once(' ')?;
            let (metric, labels) = key.split_at(key.find('{').unwrap_or(key.len()));
            (metric == name && labels.contains(label)).then(|| value.parse::<f64>().ok())?
        })
        .sum()
}

fn service_delta(before: &str, after: &str) -> ServiceDelta {
    let d = |name: &str, label: &str| series(after, name, label) - series(before, name, label);
    let client = format!("client=\"{CLIENT}\"");
    ServiceDelta {
        worker_bytes: d("seqpoint_worker_bytes_in_total", "")
            + d("seqpoint_worker_bytes_out_total", ""),
        worker_messages: d("seqpoint_worker_messages_in_total", "")
            + d("seqpoint_worker_messages_out_total", ""),
        client_bytes: d("seqpoint_client_bytes_in_total", &client)
            + d("seqpoint_client_bytes_out_total", &client),
        rounds: d("seqpoint_rounds_total", ""),
        fold_ms: d("seqpoint_stage_wall_ms_total", "stage=\"fold\""),
        sink_ms: d("seqpoint_stage_wall_ms_total", "stage=\"sink\""),
        queue_wait_ms: d("seqpoint_queue_wait_ms_total", ""),
        cache_hits: d("seqpoint_cache_hits_total", ""),
        cache_misses: d("seqpoint_cache_misses_total", ""),
    }
}

/// A served answer, or why there is none.
type Served = Result<String, String>;

/// One closed-loop pass over `list`: submit, wait for the result, run
/// `between` on the job untimed, then the next. Returns the pass's
/// timing and the served text.
fn submit_pass(
    daemon: &Daemon,
    list: &[Submission],
    tracer: &Tracer,
    mut between: impl FnMut(usize) -> Result<(), String>,
) -> Result<(TimedPass, Vec<Served>), String> {
    let options = ClientOptions::default()
        .with_client(CLIENT)
        .with_io_timeout(Some(IO_TIMEOUT));
    let mut client =
        Client::open(&Endpoint::unix(&daemon.socket), &options).map_err(|e| e.to_string())?;
    let mut pass = TimedPass::new();
    let mut served = Vec::with_capacity(list.len());
    for (job, submission) in list.iter().enumerate() {
        let job = job as u64;
        let text = pass.time(|| {
            tracer.span("job", job, || {
                let id = tracer.span("seqpoint_service.submit", job, || {
                    client.submit(None, job_spec(submission.seed))
                })?;
                tracer.span("seqpoint_service.result_wait", job, || {
                    client.wait_result(&id)
                })
            })
        });
        served.push(text.map_err(|e| e.to_string()));
        between(job as usize)?;
    }
    Ok((pass, served))
}

/// Every shape profile the verification pass has simulated.
type Memo = HashMap<(u32, u32), IterationProfile>;

/// Records what `inner` simulates into the verification pass's memo.
/// Each job's executor starts from that memo, as the daemon's workers
/// keep theirs across jobs; a shape's profile does not depend on the
/// job it came from, so the answers are those of a cold executor.
struct Remember<'m, E> {
    inner: E,
    memo: &'m mut Memo,
}

impl<E: RoundExecutor> RoundExecutor for Remember<'_, E> {
    fn execute_round(&mut self, chunks: &[ShardChunk]) -> Result<Vec<ShardReport>, ProfileError> {
        let reports = self.inner.execute_round(chunks)?;
        for profile in reports.iter().flat_map(|r| &r.shapes) {
            self.memo
                .insert((profile.seq_len, profile.samples), profile.clone());
        }
        Ok(reports)
    }

    fn profile_shape(&mut self, shape: IterationShape) -> Result<IterationProfile, ProfileError> {
        let profile = self.inner.profile_shape(shape)?;
        self.memo
            .insert((profile.seq_len, profile.samples), profile.clone());
        Ok(profile)
    }

    fn seed_shapes(&mut self, shapes: &[IterationProfile]) {
        self.inner.seed_shapes(shapes);
    }
}

/// The untimed in-process answer for one spec: the text `seqpoint
/// stream` would print, the rounds the graph executed, and the plan.
fn expected(seed: u64, memo: &mut Memo) -> Result<(String, u64, EpochPlan), String> {
    let spec = job_spec(seed);
    let job = spec::resolve(&spec).map_err(|e| e.to_string())?;
    let profiler = Profiler::new();
    let mut executor = ThreadExecutor::new(
        &profiler,
        &job.network,
        job.device.clone(),
        job.options.stat,
        job.options.shards,
    );
    executor.seed_shapes(&memo.values().cloned().collect::<Vec<_>>());
    let quiet = Tracer::new(false);
    let mut probe = Probe::new(
        Remember {
            inner: executor,
            memo,
        },
        &quiet,
        0,
    );
    let fingerprint = stream_fingerprint(&job.network, &job.plan, &job.device, &job.options);
    let profile = match profile_epoch_streaming_with(
        &mut probe,
        &job.plan,
        &job.options,
        fingerprint,
        None,
        None,
    )
    .map_err(|e| e.to_string())?
    {
        StreamOutcome::Complete(profile) => profile,
        StreamOutcome::Paused(_) => return Err("run paused without a pause budget".to_owned()),
    };
    let text = spec::render_streamed(&spec.model, &spec.dataset, spec.config, &profile);
    Ok((text, probe.rounds, job.plan))
}

/// `(self error %, iterations measured, iterations total)` of a
/// rendered selection.
fn parse_selection(text: &str) -> Option<(f64, u64, u64)> {
    let field = |key: &str| {
        text.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(','))
            .and_then(|v| v.parse::<u64>().ok())
    };
    let error = text
        .lines()
        .find_map(|l| l.split_once("self error ")?.1.strip_suffix('%'))
        .and_then(|v| v.parse::<f64>().ok())?;
    Some((
        error,
        field("iterations_measured")?,
        field("iterations_total")?,
    ))
}

/// Mean self error and `(measured, total)` over a pass's texts.
fn accuracy(texts: &[&str]) -> (f64, u64, u64) {
    let parsed: Vec<(f64, u64, u64)> = texts.iter().filter_map(|t| parse_selection(t)).collect();
    let error = parsed.iter().map(|p| p.0).sum::<f64>() / parsed.len().max(1) as f64;
    (
        error,
        parsed.iter().map(|p| p.1).sum(),
        parsed.iter().map(|p| p.2).sum(),
    )
}

pub fn run(args: &Args) -> Result<Run, String> {
    let list = jobs::serve_list(args.seed, job_count(args.seconds, JOBS_PER_S, MIN_JOBS));
    let warmup: Vec<Submission> = jobs::seeds(args.seed, WARMUP, WARMUP_JOBS)
        .into_iter()
        .map(|seed| Submission {
            seed,
            repeat_of: None,
        })
        .collect();
    let quiet = Tracer::new(false);

    // Set-up is daemon start until it answers with its workers
    // connected; start a few daemons and keep the last.
    let mut starts = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        let (daemon, took) = Daemon::start(args, &format!("setup{rep}"))?;
        starts.push(took);
        if rep + 1 < SETUP_REPS {
            daemon.shutdown()?;
        } else {
            kept = Some(daemon);
        }
    }
    let daemon = kept.ok_or("no daemon started")?;
    let setup_s = stats::median(&starts);
    submit_pass(&daemon, &warmup, &quiet, |_| Ok(()))?;
    // The verification pass: each distinct spec computed in process,
    // untimed, right after its timed submission, so the timed jobs
    // sample the host across the whole run.
    let mut answers: Vec<Option<(String, u64, EpochPlan)>> = vec![None; list.len()];
    let mut memo = Memo::new();
    let (mut pass, served) = submit_pass(&daemon, &list, &quiet, |job| {
        if list[job].repeat_of.is_none() {
            answers[job] = Some(expected(list[job].seed, &mut memo)?);
        }
        Ok(())
    })?;
    let peak_rss_mb: f64 = daemon.pids().into_iter().map(host::peak_rss_mb).sum();
    let mut child_cpu_s: f64 = daemon.pids().into_iter().map(host::cpu_s).sum();
    daemon.shutdown()?;

    let original = |job: usize| list[job].repeat_of.unwrap_or(job);
    let expected_text = |job: usize| {
        answers[original(job)]
            .as_ref()
            .map_or("", |answer| answer.0.as_str())
    };

    // Output checks on every job: fresh answers equal the in-process
    // rendering, cache answers equal the first answer for their spec.
    let mut failed = 0;
    for (job, text) in served.iter().enumerate() {
        let ok = match (text, list[job].repeat_of) {
            (Ok(text), None) => text == expected_text(job),
            (Ok(text), Some(first)) => served[first].as_ref().is_ok_and(|f| f == text),
            (Err(_), _) => false,
        };
        failed += u64::from(!ok);
    }

    let served_texts: Vec<&str> = served.iter().filter_map(|r| r.as_deref().ok()).collect();
    let verified_texts: Vec<&str> = (0..list.len()).map(expected_text).collect();
    let (error_pct, measured, total) = accuracy(&served_texts);
    let mut correct = (error_pct, measured, total) == accuracy(&verified_texts);

    let mut tally = LayerTally::default();
    let mut spans = Vec::new();
    if args.trace {
        // A second daemon, so the traced pass meets an empty cache too.
        // Between jobs, the plan and shapes of each computed spec are
        // re-timed in process.
        let tracer = Tracer::new(true);
        let rig = set_up("gnmt")?;
        let mut retimer = Retimer::new(Tuner::ColdPerShape);
        let mut predicted_rounds = 0;
        let (traced_daemon, _) = Daemon::start(args, "traced")?;
        submit_pass(&traced_daemon, &warmup, &quiet, |_| Ok(()))?;
        let before = traced_daemon.metrics()?;
        let (traced, traced_served) = submit_pass(&traced_daemon, &list, &tracer, |job| {
            let Some((_, rounds, plan)) = &answers[job] else {
                return Ok(());
            };
            let seed = list[job].seed;
            tracer
                .span("sqnn_data.plan", job as u64, || {
                    let corpus = Corpus::iwslt15_like(SAMPLES as usize, seed);
                    EpochPlan::new(&corpus, BatchPolicy::shuffled(BATCH), seed)
                })
                .map_err(|e| e.to_string())?;
            let shapes = unique_shapes(plan);
            retimer.retime(&rig.network, &rig.device, &shapes, &tracer, job as u64);
            tally.shapes += shapes.len() as u64;
            tally.plans += 1;
            predicted_rounds += rounds;
            Ok(())
        })?;
        let after = traced_daemon.metrics()?;
        child_cpu_s += traced_daemon
            .pids()
            .into_iter()
            .map(host::cpu_s)
            .sum::<f64>();
        traced_daemon.shutdown()?;
        correct &= traced_served == served;

        spans = tracer.spans();
        tally.shapes_retimed = retimer.shapes;
        tally.kernels = retimer.kernels;
        tally.jobs = list.len() as u64;
        tally.computed_jobs = tally.plans;
        tally.plan_ms = trace::total_ms(&spans, "sqnn_data.plan");
        tally.trace_ms = trace::total_ms(&spans, "sqnn.trace");
        tally.run_ms = trace::total_ms(&spans, "gpu_sim.run");
        tally.submit_ms = trace::total_ms(&spans, "seqpoint_service.submit");
        tally.result_wait_ms = trace::total_ms(&spans, "seqpoint_service.result_wait");
        tally.service = service_delta(&before, &after);
        // The daemon's own counts must match what the job list and the
        // in-process graph predict.
        correct &= tally.service.cache_hits == (tally.jobs - tally.computed_jobs) as f64
            && tally.service.cache_misses == tally.computed_jobs as f64
            && tally.service.rounds == predicted_rounds as f64;
        // The passes run minutes apart, so each loses its own steal.
        tally.overhead_pct = overhead_pct(&traced.own_ms(), &pass.own_ms());
    }

    tally.selection_error_pct = error_pct;
    pass.iterations = total;
    pass.ok = list.len() as u64 - failed;
    let end_to_end = report::end_to_end(
        setup_s,
        &pass,
        measured as f64 / total.max(1) as f64,
        peak_rss_mb,
    );
    Ok(Run {
        correct,
        attempted: list.len() as u64,
        failed,
        end_to_end,
        tally,
        child_cpu_s,
        spans,
        pass,
    })
}
