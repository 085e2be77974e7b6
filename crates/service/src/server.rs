//! The `seqpoint serve` daemon: socket accept loop (Unix and optional
//! token-gated TCP), bounded job queue, runner pool, worker
//! supervision, terminal-job retention, and graceful drain.
//!
//! # Lifecycle
//!
//! * Startup scans the state directory and **recovers** every persisted
//!   job: finished jobs reload their rendered output, unfinished ones
//!   re-enter the queue and resume from their per-round checkpoints.
//!   The retention bound ([`ServeConfig::retain_jobs`]) is applied to
//!   recovered terminal jobs too.
//! * Clients connect — over the Unix socket or, authenticated by a
//!   `Hello` token handshake, over TCP — and speak
//!   [`Request`]/[`Response`] NDJSON; workers announce
//!   [`Request::WorkerHello`] and their connection moves into the
//!   [`WorkerPool`].
//! * `job_slots` runner threads pop the queue and assemble the
//!   streaming operator graph ([`sqnn_profiler::pipeline::StreamGraph`])
//!   with the metrics registry attached as its per-stage meter, with a
//!   checkpoint written **every round** — so at most one round of work
//!   can ever be lost.
//! * SIGTERM (or a [`Request::Shutdown`] line) **drains**: in-flight
//!   jobs pause at the next round boundary and checkpoint, queued jobs
//!   stay persisted, workers are released, and the process exits;
//!   restarting with the same `--state-dir` finishes everything with
//!   bit-identical results.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpListener;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant, SystemTime};

use seqpoint_core::protocol::{
    decode_frame, encode_frame, JobClass, JobSpec, JobState, Request, Response, PROTOCOL_VERSION,
};
use sqnn_profiler::pipeline::StreamGraph;
use sqnn_profiler::stream::{
    stream_fingerprint, CheckpointOptions, RoundExecutor, StreamOutcome, ThreadExecutor,
};
use sqnn_profiler::{ProfileError, Profiler};

use crate::cache::{Admission, CacheKey, ResultCache};
use crate::executor::{SubprocessExecutor, ThrottledExecutor, WorkerPool};
use crate::metrics::{ConnMetrics, MetricsRegistry, RenderGauges};
use crate::sched::Scheduler;
use crate::spec::{render_streamed, resolve, ResolvedJob};
use crate::sync::{CondvarExt, LockExt};
use crate::transport::{token_matches, Listener, Stream};
use crate::ServiceError;

/// Process-wide SIGTERM/SIGINT latch. A handler may only do
/// async-signal-safe work; storing a relaxed atomic flag qualifies, and
/// the accept loop polls it.
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub static TERM: AtomicBool = AtomicBool::new(false);

    extern "C" fn on_term(_signum: i32) {
        TERM.store(true, Ordering::Relaxed);
    }

    #[cfg(unix)]
    pub fn install() {
        // No `libc` crate in the offline workspace; declare the two
        // symbols we need. `signal(2)` with a plain flag-setting handler
        // is bulletproof for this use.
        extern "C" {
            fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        }
        const SIGINT: i32 = 2;
        const SIGTERM: i32 = 15;
        unsafe {
            signal(SIGTERM, on_term);
            signal(SIGINT, on_term);
        }
    }

    #[cfg(not(unix))]
    pub fn install() {}
}

/// Where a job's rounds execute.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Placement {
    /// In-process scoped threads
    /// ([`sqnn_profiler::stream::ThreadExecutor`]).
    Threads,
    /// `seqpoint worker` subprocesses connected over the socket, shard
    /// state exchanged as checkpoints — the single-machine proof of
    /// multi-node placement.
    Subprocess {
        /// Worker processes to spawn and supervise.
        workers: usize,
    },
}

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Unix socket path to listen on (created, removed on drain).
    pub socket: PathBuf,
    /// Additional TCP listener (`host:port`; port 0 picks an ephemeral
    /// port, written to `<state_dir>/serve.tcp` for scripts to read).
    /// Requires `token`: every TCP connection must authenticate.
    pub tcp: Option<String>,
    /// Shared-secret token TCP connections must present in their
    /// `Hello`/handshake (constant-time compared). Mandatory when `tcp`
    /// is set; ignored for Unix-socket connections, which filesystem
    /// permissions already gate.
    pub token: Option<String>,
    /// Directory for job specs, checkpoints, and results.
    pub state_dir: PathBuf,
    /// Concurrent jobs (runner threads).
    pub job_slots: usize,
    /// Bounded queue capacity; submissions beyond it are rejected
    /// (backpressure).
    pub queue_cap: usize,
    /// While a client blocks in `Result { wait: true }`, emit a
    /// heartbeat `Status` frame this often so the client's read timeout
    /// measures *connection* liveness, not job duration — a healthy
    /// multi-hour job never trips a waiting client's timeout.
    pub wait_heartbeat: Duration,
    /// Keep at most this many terminal (done/failed/cancelled) jobs;
    /// older ones are garbage-collected — in-memory entry, spec, and
    /// result/error files — oldest-finished first. `None` retains
    /// everything (the pre-retention behavior); recovery applies the
    /// same bound before serving.
    pub retain_jobs: Option<usize>,
    /// Evict terminal jobs older than this, age measured from the
    /// moment the job turned terminal (recovery rebuilds the age from
    /// the result/error file's mtime). Composes with `retain_jobs`:
    /// whichever bound trips first evicts. `None` retains indefinitely.
    pub retain_for: Option<Duration>,
    /// Shard placement for every job.
    pub placement: Placement,
    /// Binary to spawn for subprocess workers (defaults to the current
    /// executable, which is the `seqpoint` binary under `serve`).
    pub worker_exe: Option<PathBuf>,
    /// Weighted-fair queueing across [`JobClass`]es with round-robin
    /// service among clients (see [`crate::sched`]). With one client
    /// and one class this degenerates to FIFO, so it is on by default;
    /// `false` restores strict global FIFO.
    pub fair: bool,
    /// At most this many non-terminal jobs per client identity;
    /// submissions beyond it are rejected (admission error) instead of
    /// queueing unboundedly. `None` is unlimited.
    pub client_quota: Option<usize>,
    /// Optional plaintext metrics scrape endpoint (`host:port`; port 0
    /// picks an ephemeral port, written to `<state_dir>/serve.metrics`
    /// for scripts to read). Serves the registry's Prometheus-style
    /// text exposition to any `GET` request. **Unauthenticated** —
    /// bind it to loopback or a trusted network only.
    pub metrics_addr: Option<String>,
}

impl ServeConfig {
    /// A thread-placement server with 2 job slots and a 16-job queue,
    /// Unix socket only, unbounded retention.
    pub fn new(socket: impl Into<PathBuf>, state_dir: impl Into<PathBuf>) -> Self {
        ServeConfig {
            socket: socket.into(),
            tcp: None,
            token: None,
            state_dir: state_dir.into(),
            job_slots: 2,
            queue_cap: 16,
            wait_heartbeat: Duration::from_secs(15),
            retain_jobs: None,
            retain_for: None,
            placement: Placement::Threads,
            worker_exe: None,
            fair: true,
            client_quota: None,
            metrics_addr: None,
        }
    }
}

struct JobEntry {
    spec: JobSpec,
    state: JobState,
    detail: String,
    output: Option<String>,
    reason: Option<String>,
    cancel: Arc<AtomicBool>,
    attempts: u32,
    /// Consecutive executor (worker-loss) failures — NOT ordinary
    /// scheduling attempts, so max_rounds preemptions never eat into
    /// the retry budget.
    executor_failures: u32,
    /// Monotonic completion order stamp (0 = not terminal yet); the
    /// retention GC evicts the lowest stamps first.
    finish_seq: u64,
    /// When the job turned terminal (`None` until then); the TTL bound
    /// ([`ServeConfig::retain_for`]) measures age from here. Recovery
    /// seeds it from the result/error file's mtime.
    finished_at: Option<SystemTime>,
    /// Clients currently blocked in a `Result { wait: true }` on this
    /// job. The retention GC never evicts a job someone is waiting on —
    /// otherwise a burst of completions could delete a result between
    /// the job finishing and its waiter waking, turning success into
    /// `unknown job`.
    waiters: u32,
    /// Scheduling class (copied out of the spec at admission).
    class: JobClass,
    /// Submitting client identity (copied out of the spec).
    client: String,
    /// The result-cache key, when the spec resolved. `None` means the
    /// job is uncacheable (it will fail at run time with the real
    /// resolution error).
    key: Option<CacheKey>,
    /// Single-flight: the primary job this entry is a follower of. A
    /// follower is never scheduled; it is settled when its primary
    /// reaches a terminal state (or promoted if the primary cancels).
    follows: Option<String>,
    /// Single-flight: follower jobs settled by this entry's outcome.
    followers: Vec<String>,
    /// Whether this job was (or will be) answered from the result cache
    /// rather than its own profiling run.
    cache_hit: bool,
}

impl JobEntry {
    fn new(spec: JobSpec, state: JobState, detail: impl Into<String>) -> Self {
        let class = spec.class;
        let client = spec.client.clone();
        JobEntry {
            spec,
            state,
            detail: detail.into(),
            output: None,
            reason: None,
            cancel: Arc::new(AtomicBool::new(false)),
            attempts: 0,
            executor_failures: 0,
            finish_seq: 0,
            finished_at: None,
            waiters: 0,
            class,
            client,
            key: None,
            follows: None,
            followers: Vec::new(),
            cache_hit: false,
        }
    }
}

struct Shared {
    config: ServeConfig,
    jobs: Mutex<HashMap<String, JobEntry>>,
    jobs_cv: Condvar,
    sched: Scheduler,
    cache: ResultCache,
    draining: AtomicBool,
    next_job: AtomicU64,
    /// Source of [`JobEntry::finish_seq`] stamps (terminal-order clock).
    finish_counter: AtomicU64,
    pool: WorkerPool,
    worker_pids: Mutex<Vec<u64>>,
    metrics: Arc<MetricsRegistry>,
}

impl Shared {
    fn is_draining(&self) -> bool {
        self.draining.load(Ordering::Relaxed) || sig::TERM.load(Ordering::Relaxed)
    }

    fn start_drain(&self) {
        self.draining.store(true, Ordering::Relaxed);
        self.sched.notify_all();
        self.jobs_cv.notify_all();
        self.pool.drain();
    }

    /// The result-cache key of a resolved job: the stream fingerprint
    /// plus the two semantic fields it does not pin down on its own
    /// (shard count — part of the rendered output — and corpus seed,
    /// which the fingerprint only sees through the shuffled batch
    /// order).
    fn cache_key(resolved: &ResolvedJob, spec: &JobSpec) -> CacheKey {
        CacheKey {
            fingerprint: stream_fingerprint(
                &resolved.network,
                &resolved.plan,
                &resolved.device,
                &resolved.options,
            ),
            shards: resolved.options.shards as u32,
            seed: spec.seed,
        }
    }

    fn spec_path(&self, id: &str) -> PathBuf {
        self.config.state_dir.join(format!("{id}.spec.json"))
    }

    fn ckpt_path(&self, id: &str) -> PathBuf {
        self.config.state_dir.join(format!("{id}.ckpt.json"))
    }

    fn result_path(&self, id: &str) -> PathBuf {
        self.config.state_dir.join(format!("{id}.result.txt"))
    }

    fn error_path(&self, id: &str) -> PathBuf {
        self.config.state_dir.join(format!("{id}.error.txt"))
    }

    fn set_state(&self, id: &str, state: JobState, detail: impl Into<String>) {
        let mut jobs = self.jobs.lock_recover();
        if let Some(entry) = jobs.get_mut(id) {
            entry.state = state;
            entry.detail = detail.into();
        }
        if state.is_terminal() {
            self.stamp_terminal(&mut jobs, id);
        }
        drop(jobs);
        self.jobs_cv.notify_all();
    }

    /// Stamp a job that just reached a terminal state with its
    /// completion-order sequence number, settle its single-flight
    /// followers, then apply the retention bound. Must run under the
    /// `jobs` lock (the caller passes the guard's map) — the single
    /// funnel every terminal transition goes through.
    fn stamp_terminal(&self, jobs: &mut HashMap<String, JobEntry>, id: &str) {
        let newly_terminal = match jobs.get_mut(id) {
            Some(entry) if entry.state.is_terminal() && entry.finish_seq == 0 => {
                entry.finish_seq = self.finish_counter.fetch_add(1, Ordering::Relaxed) + 1;
                entry.finished_at = Some(SystemTime::now());
                match entry.state {
                    JobState::Done => self.metrics.job_completed(),
                    JobState::Failed => self.metrics.job_failed(),
                    JobState::Cancelled => self.metrics.job_cancelled(),
                    _ => {}
                }
                true
            }
            _ => false,
        };
        if newly_terminal {
            self.settle_followers(jobs, id);
        }
        self.gc_terminal(jobs);
    }

    /// Settle the single-flight followers of a primary that just turned
    /// terminal: `Done` fans the result out to every follower
    /// (byte-identical, persisted like a real result), `Failed`
    /// propagates the failure, and `Cancelled` promotes the oldest
    /// follower into a scheduled primary so the group still gets its
    /// one profiling run. Runs under the `jobs` lock.
    fn settle_followers(&self, jobs: &mut HashMap<String, JobEntry>, id: &str) {
        let (state, key, output, reason, mut followers) = {
            let Some(entry) = jobs.get_mut(id) else {
                return;
            };
            (
                entry.state,
                entry.key,
                entry.output.clone(),
                entry.reason.clone(),
                std::mem::take(&mut entry.followers),
            )
        };
        match state {
            JobState::Done => {
                if let Some(key) = key {
                    self.cache.complete(key, id);
                }
                let output = output.unwrap_or_default();
                for fid in followers {
                    let _ = write_atomic(&self.result_path(&fid), &output);
                    if let Some(f) = jobs.get_mut(&fid) {
                        f.state = JobState::Done;
                        f.detail = format!("done (served by job `{id}`)");
                        f.output = Some(output.clone());
                        f.follows = None;
                        if f.finish_seq == 0 {
                            f.finish_seq = self.finish_counter.fetch_add(1, Ordering::Relaxed) + 1;
                            f.finished_at = Some(SystemTime::now());
                            self.metrics.job_completed();
                        }
                    }
                }
            }
            JobState::Failed => {
                if let Some(key) = key {
                    self.cache.abandon(key, id);
                }
                let reason = format!("primary job `{id}` failed: {}", reason.unwrap_or_default());
                for fid in followers {
                    let _ = write_atomic(&self.error_path(&fid), &reason);
                    if let Some(f) = jobs.get_mut(&fid) {
                        f.state = JobState::Failed;
                        f.detail = "failed with its single-flight primary".to_owned();
                        f.reason = Some(reason.clone());
                        f.follows = None;
                        if f.finish_seq == 0 {
                            f.finish_seq = self.finish_counter.fetch_add(1, Ordering::Relaxed) + 1;
                            f.finished_at = Some(SystemTime::now());
                            self.metrics.job_failed();
                        }
                    }
                }
            }
            JobState::Cancelled => {
                // Oldest follower (sorted id order is deterministic)
                // takes over; any follower cancelled meanwhile is gone
                // from the list already, but stay defensive.
                followers.sort();
                followers.retain(|fid| jobs.get(fid).is_some_and(|f| !f.state.is_terminal()));
                let Some(new_primary) = followers.first().cloned() else {
                    if let Some(key) = key {
                        self.cache.abandon(key, id);
                    }
                    return;
                };
                followers.remove(0);
                // Filtered as live just above, but if the entry vanished
                // anyway, give the cache slot back instead of panicking
                // mid-settle with the jobs lock held.
                let Some(f) = jobs.get_mut(&new_primary) else {
                    if let Some(key) = key {
                        self.cache.abandon(key, id);
                    }
                    return;
                };
                f.follows = None;
                f.followers = followers.clone();
                f.cache_hit = false;
                f.detail = format!("promoted to primary (job `{id}` cancelled)");
                let (class, client) = (f.class, f.client.clone());
                if let Some(key) = key {
                    self.cache.promote(key, id, &new_primary);
                }
                for fid in &followers {
                    if let Some(f) = jobs.get_mut(fid) {
                        f.follows = Some(new_primary.clone());
                        f.detail = format!("single-flight: attached to job `{new_primary}`");
                    }
                }
                // jobs → sched lock order, as everywhere.
                self.sched.requeue(&new_primary, class, &client);
            }
            _ => {}
        }
    }

    /// Evict terminal jobs past either retention bound — beyond the
    /// `retain_jobs` count cap (oldest-finished first) or older than
    /// the `retain_for` TTL; whichever bound trips first evicts. The
    /// in-memory entry (with its rendered output) and every persisted
    /// file go together, so neither the map nor the state dir grows
    /// without bound under sustained traffic. Non-terminal jobs are
    /// never touched.
    fn gc_terminal(&self, jobs: &mut HashMap<String, JobEntry>) {
        let cap = self.config.retain_jobs;
        let ttl = self.config.retain_for;
        if cap.is_none() && ttl.is_none() {
            return;
        }
        let now = SystemTime::now();
        let expired = |e: &JobEntry| {
            ttl.is_some_and(|ttl| {
                e.finished_at
                    .and_then(|at| now.duration_since(at).ok())
                    .is_some_and(|age| age >= ttl)
            })
        };
        // Every terminal job counts toward the bounds, but a job someone
        // is blocked waiting on is never the victim — the next-oldest
        // waiter-free job is evicted instead, so a completion burst
        // cannot delete a result between a job finishing and its waiter
        // waking to read it.
        let mut terminal: Vec<(u64, String, bool, bool)> = jobs
            .iter()
            .filter(|(_, e)| e.state.is_terminal())
            .map(|(id, e)| (e.finish_seq, id.clone(), e.waiters > 0, expired(e)))
            .collect();
        terminal.sort();
        // Evictions still owed to the count cap; any eviction (cap or
        // TTL) shrinks the terminal set, so both pay it down.
        let mut over_cap = cap.map_or(0, |cap| terminal.len().saturating_sub(cap));
        for (_, id, waited_on, expired) in terminal {
            if over_cap == 0 && !expired {
                continue;
            }
            if waited_on {
                continue;
            }
            if let Some(entry) = jobs.remove(&id) {
                // A retained-result mapping goes with the entry that
                // held the output.
                if entry.state == JobState::Done {
                    if let Some(key) = entry.key {
                        self.cache.evict(key, &id);
                    }
                }
            }
            let _ = std::fs::remove_file(self.spec_path(&id));
            let _ = std::fs::remove_file(self.result_path(&id));
            let _ = std::fs::remove_file(self.error_path(&id));
            let _ = std::fs::remove_file(self.ckpt_path(&id));
            over_cap = over_cap.saturating_sub(1);
        }
    }
}

/// Atomic write (`<path>.tmp` + rename), so a crash never leaves a torn
/// spec/result file for recovery to trip on.
fn write_atomic(path: &Path, contents: &str) -> Result<(), ServiceError> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    std::fs::write(&tmp, contents)
        .map_err(|e| ServiceError::io(format!("writing {}", tmp.display()), &e))?;
    std::fs::rename(&tmp, path)
        .map_err(|e| ServiceError::io(format!("renaming {}", path.display()), &e))?;
    Ok(())
}

fn valid_job_id(id: &str) -> bool {
    !id.is_empty()
        && id.len() <= 64
        && id
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '-' || c == '_')
}

/// Scan the state directory and rebuild the job table: done/failed jobs
/// reload their outcome, everything else re-enters the queue (resuming
/// from its checkpoint when one exists). Stale `*.tmp` siblings from a
/// writer killed between write and rename are swept first, and a job
/// whose spec no longer parses is surfaced as Failed rather than
/// silently vanishing. Returns the recovered-unfinished job ids, sorted
/// for a deterministic queue order.
fn recover(shared: &Shared) -> Result<Vec<String>, ServiceError> {
    let dir = std::fs::read_dir(&shared.config.state_dir)
        .map_err(|e| ServiceError::io("reading state dir", &e))?;
    let mut queued = Vec::new();
    let mut max_auto = 0u64;
    // Terminal recovered jobs, with the mtime of the file that made them
    // terminal: the best completion-order evidence a restart has, so the
    // retention GC still evicts oldest-first across restarts.
    let mut terminal: Vec<(SystemTime, String)> = Vec::new();
    let mut jobs = shared.jobs.lock_recover();
    for entry in dir.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        // Atomic-write leftovers (spec/result/error/checkpoint temps)
        // are dead weight, possibly torn; nothing may ever read them.
        if name.contains(".tmp") {
            let _ = std::fs::remove_file(entry.path());
            continue;
        }
        let Some(id) = name.strip_suffix(".spec.json") else {
            continue;
        };
        if let Some(n) = id.strip_prefix("job-").and_then(|n| n.parse::<u64>().ok()) {
            max_auto = max_auto.max(n);
        }
        let spec = match std::fs::read_to_string(entry.path())
            .map_err(|e| e.to_string())
            .and_then(|text| decode_frame::<JobSpec>(&text).map_err(|e| e.to_string()))
        {
            Ok(spec) => spec,
            Err(reason) => {
                // The client was told `Submitted`; it must be able to
                // learn the job's fate, not get `unknown job` forever.
                eprintln!("seqpoint serve: job `{id}` spec unreadable at recovery: {reason}");
                let mut failed = JobEntry::new(
                    JobSpec::default(),
                    JobState::Failed,
                    "recovered with an unreadable spec",
                );
                failed.reason = Some(format!("spec unreadable at recovery: {reason}"));
                jobs.insert(id.to_owned(), failed);
                terminal.push((SystemTime::UNIX_EPOCH, id.to_owned()));
                continue;
            }
        };
        let file_mtime = |path: PathBuf| {
            std::fs::metadata(path)
                .and_then(|m| m.modified())
                .unwrap_or(SystemTime::UNIX_EPOCH)
        };
        if let Ok(output) = std::fs::read_to_string(shared.result_path(id)) {
            let mut done = JobEntry::new(spec, JobState::Done, "recovered finished job");
            done.output = Some(output);
            jobs.insert(id.to_owned(), done);
            terminal.push((file_mtime(shared.result_path(id)), id.to_owned()));
        } else if let Ok(reason) = std::fs::read_to_string(shared.error_path(id)) {
            let mut failed = JobEntry::new(spec, JobState::Failed, "recovered failed job");
            failed.reason = Some(reason);
            jobs.insert(id.to_owned(), failed);
            terminal.push((file_mtime(shared.error_path(id)), id.to_owned()));
        } else {
            jobs.insert(
                id.to_owned(),
                JobEntry::new(spec, JobState::Queued, "recovered; waiting for a slot"),
            );
            queued.push(id.to_owned());
        }
    }
    // Seed completion-order stamps from the observed mtimes (ties break
    // on id for determinism), then apply the retention bound exactly as
    // a running server would — a restart must not resurrect jobs the
    // bound would have evicted, nor exceed it with recovered ones.
    terminal.sort();
    for (seq, (mtime, id)) in terminal.iter().enumerate() {
        if let Some(entry) = jobs.get_mut(id) {
            entry.finish_seq = seq as u64 + 1;
            entry.finished_at = Some(*mtime);
        }
    }
    shared
        .finish_counter
        .store(terminal.len() as u64, Ordering::Relaxed);
    // Rebuild the result cache and single-flight groups (before the GC,
    // which needs the keys to keep the cache index consistent under
    // eviction). Sorted-id iteration keeps recovery deterministic.
    let mut ids: Vec<String> = jobs.keys().cloned().collect();
    ids.sort();
    for id in &ids {
        let Some(entry) = jobs.get_mut(id) else {
            continue;
        };
        if entry.spec.model.is_empty() {
            continue; // unreadable-spec placeholder
        }
        entry.key = resolve(&entry.spec)
            .ok()
            .map(|r| Shared::cache_key(&r, &entry.spec));
    }
    for id in &ids {
        let Some(entry) = jobs.get(id) else { continue };
        if entry.state == JobState::Done {
            if let Some(key) = entry.key {
                shared.cache.register_ready(key, id);
            }
        }
    }
    // Unfinished jobs sharing a key collapse back into one primary plus
    // followers; a key whose result is already retained settles its
    // recovered duplicates outright. This is what makes a waiter that
    // was attached to an in-flight job at SIGTERM receive the resumed
    // run's result instead of triggering a second profiling run.
    queued.sort();
    let mut requeue_ids = Vec::new();
    let mut primaries: HashMap<CacheKey, String> = HashMap::new();
    for id in &queued {
        let Some(key) = jobs.get(id).and_then(|e| e.key) else {
            requeue_ids.push(id.clone());
            continue;
        };
        if let Some(done) = shared.cache.lookup_ready(key) {
            if let Some(output) = jobs.get(&done).and_then(|p| p.output.clone()) {
                let _ = write_atomic(&shared.result_path(id), &output);
                if let Some(entry) = jobs.get_mut(id) {
                    entry.state = JobState::Done;
                    entry.detail = format!("recovered: served from cache (job `{done}`)");
                    entry.output = Some(output);
                    entry.cache_hit = true;
                    entry.finish_seq = shared.finish_counter.fetch_add(1, Ordering::Relaxed) + 1;
                    entry.finished_at = Some(SystemTime::now());
                }
                continue;
            }
        }
        if let Some(primary) = primaries.get(&key) {
            let primary = primary.clone();
            if let Some(entry) = jobs.get_mut(id) {
                entry.follows = Some(primary.clone());
                entry.cache_hit = true;
                entry.detail = format!("single-flight: attached to job `{primary}`");
            }
            if let Some(p) = jobs.get_mut(&primary) {
                p.followers.push(id.clone());
            }
        } else {
            primaries.insert(key, id.clone());
            shared.cache.register_inflight(key, id);
            requeue_ids.push(id.clone());
        }
    }
    shared.gc_terminal(&mut jobs);
    drop(jobs);
    shared.next_job.store(max_auto + 1, Ordering::Relaxed);
    Ok(requeue_ids)
}

fn submit(
    shared: &Shared,
    requested: Option<String>,
    spec: JobSpec,
    conn_client: &Option<String>,
) -> Response {
    if shared.is_draining() {
        return Response::Error {
            reason: "server is draining".to_owned(),
        };
    }
    let mut spec = spec.normalize();
    // The connection's identity (TCP `Hello` handshake, or a Unix-socket
    // `Hello` with a client tag) is authoritative: a peer that announced
    // itself as `alice` cannot submit jobs accounted to `bob`.
    if let Some(client) = conn_client {
        spec.client = client.clone();
    }
    if spec.model.is_empty() || spec.dataset.is_empty() {
        return Response::Rejected {
            reason: "spec needs model and dataset".to_owned(),
        };
    }
    let client = spec.client.clone();
    let id = match requested {
        Some(id) => {
            if !valid_job_id(&id) {
                return Response::Rejected {
                    reason: "job ids are 1-64 chars of [A-Za-z0-9_-]".to_owned(),
                };
            }
            // A client-chosen `job-<n>` must not collide with a later
            // auto-assigned id, so bump the counter past it.
            if let Some(n) = id.strip_prefix("job-").and_then(|n| n.parse::<u64>().ok()) {
                shared
                    .next_job
                    .fetch_max(n.saturating_add(1), Ordering::Relaxed);
            }
            id
        }
        None => format!("job-{}", shared.next_job.fetch_add(1, Ordering::Relaxed)),
    };
    // Resolve the spec outside every lock to derive the result-cache
    // key. A spec that does not resolve is admitted uncached and fails
    // at run time with the real resolution error, exactly as before.
    let key = resolve(&spec).ok().map(|r| Shared::cache_key(&r, &spec));
    // Persist the spec to a connection-unique temp file *before* taking
    // any lock: the slow filesystem write must not stall runners and
    // status queries behind the mutexes.
    static SPEC_TMP: AtomicU64 = AtomicU64::new(0);
    let spec_path = shared.spec_path(&id);
    let tmp = shared.config.state_dir.join(format!(
        "{id}.spec.json.tmp-{}",
        SPEC_TMP.fetch_add(1, Ordering::Relaxed)
    ));
    if let Err(e) = std::fs::write(&tmp, encode_frame(&spec)) {
        return Response::Error {
            reason: format!("persisting spec: {e}"),
        };
    }
    // Duplicate check, quota check, cache admission, capacity check,
    // rename-into-place, and insertion are one critical section (jobs →
    // sched/cache lock order, as everywhere): two racing submissions of
    // the same id or key must not both pass the checks. Rename is a
    // metadata operation, cheap enough to hold locks over.
    let mut jobs = shared.jobs.lock_recover();
    if jobs.contains_key(&id) {
        drop(jobs);
        let _ = std::fs::remove_file(&tmp);
        return Response::Rejected {
            reason: format!("job `{id}` already exists"),
        };
    }
    // Per-client admission quota, checked before the cache: a client at
    // its in-flight bound is rejected even for would-be cache hits, so
    // a quota cannot be laundered through duplicate submissions.
    if let Some(quota) = shared.config.client_quota {
        let open = jobs
            .values()
            .filter(|e| e.client == spec.client && !e.state.is_terminal())
            .count();
        if open >= quota {
            drop(jobs);
            let _ = std::fs::remove_file(&tmp);
            return Response::Rejected {
                reason: format!(
                    "client `{}` has {open} job(s) in flight (quota {quota}); retry later",
                    spec.client
                ),
            };
        }
    }
    let persist = |jobs: std::sync::MutexGuard<'_, HashMap<String, JobEntry>>,
                   e: std::io::Error|
     -> Response {
        drop(jobs);
        let _ = std::fs::remove_file(&tmp);
        Response::Error {
            reason: format!("persisting spec: {e}"),
        }
    };
    let admission = match key {
        Some(key) => shared.cache.admit(key, &id),
        None => Admission::Miss,
    };
    if let Admission::Ready(primary) = &admission {
        // Retained result: answer immediately, byte-identical, without
        // a profiling run.
        if let Some(output) = jobs.get(primary.as_str()).and_then(|p| p.output.clone()) {
            if let Err(e) = std::fs::rename(&tmp, &spec_path) {
                return persist(jobs, e);
            }
            let _ = write_atomic(&shared.result_path(&id), &output);
            let mut entry = JobEntry::new(
                spec,
                JobState::Done,
                format!("served from cache (job `{primary}`)"),
            );
            entry.key = key;
            entry.cache_hit = true;
            entry.output = Some(output);
            jobs.insert(id.clone(), entry);
            shared.stamp_terminal(&mut jobs, &id);
            drop(jobs);
            shared.metrics.cache_hit();
            shared.metrics.job_submitted(&client);
            shared.jobs_cv.notify_all();
            return Response::Submitted { job: id };
        }
        // The entry the index pointed at lost its output (evicted out
        // from under the cache): heal by taking over as the in-flight
        // primary and profiling fresh. A Ready admission implies a key;
        // if it is somehow absent, skip the healing and just reprofile.
        if let Some(key) = key {
            shared.cache.evict(key, primary);
            shared.cache.register_inflight(key, &id);
        }
    } else if let Admission::InFlight(primary) = &admission {
        if jobs
            .get(primary.as_str())
            .is_some_and(|p| !p.state.is_terminal())
        {
            // Single-flight: attach as a follower of the queued/running
            // primary. Never scheduled — settled by the primary's
            // outcome.
            if let Err(e) = std::fs::rename(&tmp, &spec_path) {
                return persist(jobs, e);
            }
            let mut entry = JobEntry::new(
                spec,
                JobState::Queued,
                format!("single-flight: attached to job `{primary}`"),
            );
            entry.key = key;
            entry.cache_hit = true;
            entry.follows = Some(primary.clone());
            let primary = primary.clone();
            jobs.insert(id.clone(), entry);
            // Checked non-terminal at the top of this branch and the
            // lock has been held since, so the primary is still there.
            if let Some(p) = jobs.get_mut(&primary) {
                p.followers.push(id.clone());
            }
            drop(jobs);
            shared.metrics.cache_follower();
            shared.metrics.job_submitted(&client);
            shared.jobs_cv.notify_all();
            return Response::Submitted { job: id };
        }
        // Stale in-flight record (its primary is gone): take over. An
        // InFlight admission implies a key; nothing to fix up if not.
        if let Some(key) = key {
            shared.cache.promote(key, primary, &id);
        }
    }
    // Miss (or a healed stale hit): schedule a real profiling run.
    if !shared.sched.push(&id, spec.class, &spec.client) {
        if let Some(key) = key {
            shared.cache.abandon(key, &id);
        }
        drop(jobs);
        let _ = std::fs::remove_file(&tmp);
        return Response::Rejected {
            reason: format!("queue full (cap {}); retry later", shared.config.queue_cap),
        };
    }
    if let Err(e) = std::fs::rename(&tmp, &spec_path) {
        shared.sched.remove(&id);
        if let Some(key) = key {
            shared.cache.abandon(key, &id);
        }
        return persist(jobs, e);
    }
    let mut entry = JobEntry::new(spec, JobState::Queued, "queued");
    entry.key = key;
    jobs.insert(id.clone(), entry);
    drop(jobs);
    shared.metrics.cache_miss();
    shared.metrics.job_submitted(&client);
    Response::Submitted { job: id }
}

fn cancel(shared: &Shared, id: &str) -> Response {
    let mut jobs = shared.jobs.lock_recover();
    let Some(entry) = jobs.get_mut(id) else {
        return Response::Error {
            reason: format!("unknown job `{id}`"),
        };
    };
    match entry.state {
        JobState::Done | JobState::Failed | JobState::Cancelled => Response::Error {
            reason: format!("job `{id}` is already {}", entry.state.label()),
        },
        JobState::Running => {
            // Cooperative: the runner pauses at the next round boundary
            // and finalizes the cancellation.
            entry.cancel.store(true, Ordering::Relaxed);
            entry.detail = "cancellation requested".to_owned();
            Response::Cancelled { job: id.to_owned() }
        }
        JobState::Queued | JobState::Paused => {
            entry.state = JobState::Cancelled;
            entry.detail = "cancelled before running".to_owned();
            entry.cancel.store(true, Ordering::Relaxed);
            // A follower detaches from its primary before settlement so
            // the primary's outcome no longer touches it; a primary's
            // own followers are settled (promoted) by stamp_terminal.
            if let Some(primary) = entry.follows.take() {
                if let Some(p) = jobs.get_mut(&primary) {
                    p.followers.retain(|f| f != id);
                }
            } else {
                shared.sched.remove(id);
            }
            shared.stamp_terminal(&mut jobs, id);
            drop(jobs);
            let _ = std::fs::remove_file(shared.spec_path(id));
            let _ = std::fs::remove_file(shared.ckpt_path(id));
            shared.jobs_cv.notify_all();
            Response::Cancelled { job: id.to_owned() }
        }
    }
}

fn status(shared: &Shared, id: &str) -> Response {
    let jobs = shared.jobs.lock_recover();
    match jobs.get(id) {
        None => Response::Error {
            reason: format!("unknown job `{id}`"),
        },
        Some(entry) => Response::Status {
            job: id.to_owned(),
            state: entry.state,
            detail: entry.detail.clone(),
            cache_hit: entry.cache_hit,
        },
    }
}

/// The terminal response for a job, or `None` while it is still in
/// flight. Caller holds the jobs lock.
fn terminal_response(jobs: &HashMap<String, JobEntry>, id: &str) -> Option<Response> {
    match jobs.get(id) {
        None => Some(Response::Error {
            reason: format!("unknown job `{id}`"),
        }),
        Some(entry) => match entry.state {
            JobState::Done => Some(Response::Result {
                job: id.to_owned(),
                output: entry.output.clone().unwrap_or_default(),
            }),
            JobState::Failed => Some(Response::Failed {
                job: id.to_owned(),
                reason: entry.reason.clone().unwrap_or_default(),
            }),
            JobState::Cancelled => Some(Response::Cancelled { job: id.to_owned() }),
            _ => None,
        },
    }
}

/// Non-blocking result fetch (`Result { wait: false }`).
fn result(shared: &Shared, id: &str) -> Response {
    let jobs = shared.jobs.lock_recover();
    match terminal_response(&jobs, id) {
        Some(response) => response,
        None => {
            let state = jobs.get(id).map(|e| e.state).unwrap_or(JobState::Queued);
            Response::Error {
                reason: format!("job `{id}` is {} (use wait)", state.label()),
            }
        }
    }
}

/// Blocking result fetch (`Result { wait: true }`): wait until the job
/// is terminal, writing the final response — and, while waiting, a
/// heartbeat `Status` frame every [`ServeConfig::wait_heartbeat`] so
/// the client's read timeout bounds connection liveness rather than job
/// duration (waiting clients skip `Status` frames).
///
/// # Errors
///
/// The write failure when the client goes away mid-wait (the caller
/// closes the connection).
fn result_wait(
    shared: &Shared,
    stream: &mut Stream,
    metrics: &ConnMetrics,
    id: &str,
) -> std::io::Result<()> {
    let mut last_beat = std::time::Instant::now();
    let mut jobs = shared.jobs.lock_recover();
    loop {
        if let Some(response) = terminal_response(&jobs, id) {
            drop(jobs);
            return respond(stream, metrics, &response);
        }
        if shared.is_draining() {
            drop(jobs);
            return respond(
                stream,
                metrics,
                &Response::Error {
                    reason: "server is draining; job state is checkpointed".to_owned(),
                },
            );
        }
        if last_beat.elapsed() >= shared.config.wait_heartbeat {
            // Stay registered as a waiter across the unlocked write:
            // the GC must not treat the heartbeat window as "nobody is
            // waiting" and evict the job right as it finishes.
            let beat = jobs.get_mut(id).map(|entry| {
                entry.waiters += 1;
                Response::Status {
                    job: id.to_owned(),
                    state: entry.state,
                    detail: entry.detail.clone(),
                    cache_hit: entry.cache_hit,
                }
            });
            drop(jobs);
            let written = match &beat {
                Some(beat) => respond(stream, metrics, beat),
                None => Ok(()),
            };
            last_beat = std::time::Instant::now();
            jobs = shared.jobs.lock_recover();
            if beat.is_some() {
                if let Some(entry) = jobs.get_mut(id) {
                    entry.waiters = entry.waiters.saturating_sub(1);
                }
            }
            written?;
            continue;
        }
        // Registered under the lock for the duration of the wait, so
        // the retention GC cannot evict the job in the gap between it
        // finishing and this waiter waking to read the result.
        if let Some(entry) = jobs.get_mut(id) {
            entry.waiters += 1;
        }
        let (guard, _) = shared
            .jobs_cv
            .wait_timeout_recover(jobs, Duration::from_millis(250));
        jobs = guard;
        if let Some(entry) = jobs.get_mut(id) {
            entry.waiters = entry.waiters.saturating_sub(1);
        }
    }
}

/// Run one job to completion, pause, cancellation, or failure.
fn run_job(shared: &Arc<Shared>, id: &str) {
    let (spec, cancel, attempt) = {
        let mut jobs = shared.jobs.lock_recover();
        let Some(entry) = jobs.get_mut(id) else {
            return;
        };
        if entry.state != JobState::Queued && entry.state != JobState::Paused {
            return; // cancelled while queued
        }
        if entry.follows.is_some() {
            return; // single-flight follower; settled by its primary
        }
        entry.state = JobState::Running;
        entry.detail = "resolving workload".to_owned();
        entry.attempts = entry.attempts.saturating_add(1);
        (entry.spec.clone(), entry.cancel.clone(), entry.attempts)
    };
    shared.jobs_cv.notify_all();

    let fail = |message: String| {
        let _ = write_atomic(&shared.error_path(id), &message);
        let mut jobs = shared.jobs.lock_recover();
        if let Some(entry) = jobs.get_mut(id) {
            entry.state = JobState::Failed;
            entry.detail = "failed".to_owned();
            entry.reason = Some(message);
        }
        shared.stamp_terminal(&mut jobs, id);
        drop(jobs);
        shared.jobs_cv.notify_all();
    };

    let resolved = match resolve(&spec) {
        Ok(resolved) => resolved,
        Err(e) => return fail(e.to_string()),
    };
    let interrupted = || shared.is_draining() || cancel.load(Ordering::Relaxed);
    let policy = CheckpointOptions {
        path: shared.ckpt_path(id),
        every_rounds: 1,
        max_rounds: spec.max_rounds,
    };
    let fingerprint = stream_fingerprint(
        &resolved.network,
        &resolved.plan,
        &resolved.device,
        &resolved.options,
    );
    shared.set_state(
        id,
        JobState::Running,
        format!(
            "running ({} iterations, attempt {attempt})",
            resolved.plan.iterations()
        ),
    );

    let run = |executor: &mut dyn RoundExecutor| {
        // One canonical operator-graph assembly per attempt, with the
        // shared registry attached as the per-stage meter: source/fold/
        // merge/gate/sink/replay items, wall time, and channel backpressure
        // land in the `stage`-labeled scrape families, and each fold
        // sample counts one round.
        let assemble = |executor: &mut dyn RoundExecutor| {
            StreamGraph::new(executor, &resolved.plan, &resolved.options, fingerprint)
                .with_checkpoint(&policy)
                .with_interrupt(&interrupted)
                .with_meter(shared.metrics.as_ref())
                .run()
        };
        if spec.throttle_ms > 0 {
            let mut throttled = ThrottledExecutor::new(executor, spec.throttle_ms, &interrupted);
            assemble(&mut throttled)
        } else {
            assemble(executor)
        }
    };
    let profiler = Profiler::new();
    let outcome = match &shared.config.placement {
        Placement::Threads => {
            let mut executor = ThreadExecutor::new(
                &profiler,
                &resolved.network,
                resolved.device.clone(),
                resolved.options.stat,
                resolved.options.shards,
            );
            run(&mut executor)
        }
        Placement::Subprocess { .. } => {
            let mut executor = SubprocessExecutor::new(
                &shared.pool,
                id,
                spec.model.clone(),
                spec.config,
                resolved.options.stat.label(),
            );
            run(&mut executor)
        }
    };

    match outcome {
        Ok(StreamOutcome::Complete(profile)) => {
            if cancel.load(Ordering::Relaxed) {
                return finalize_cancel(shared, id);
            }
            let output = render_streamed(&spec.model, &spec.dataset, spec.config, &profile);
            if let Err(e) = write_atomic(&shared.result_path(id), &output) {
                return fail(format!("persisting result: {e}"));
            }
            // The checkpoint is redundant once the result exists (a
            // restart reloads Done from the result file), so reclaim it
            // instead of letting the state dir grow per finished job.
            let _ = std::fs::remove_file(shared.ckpt_path(id));
            let mut jobs = shared.jobs.lock_recover();
            if let Some(entry) = jobs.get_mut(id) {
                entry.state = JobState::Done;
                entry.detail = "done".to_owned();
                entry.output = Some(output);
            }
            shared.stamp_terminal(&mut jobs, id);
            drop(jobs);
            shared.jobs_cv.notify_all();
        }
        Ok(StreamOutcome::Paused(pause)) => {
            if cancel.load(Ordering::Relaxed) {
                return finalize_cancel(shared, id);
            }
            if shared.is_draining() {
                shared.set_state(
                    id,
                    JobState::Paused,
                    format!(
                        "drained at {}/{} iterations; resumes on restart",
                        pause.iterations_consumed, pause.iterations_total
                    ),
                );
            } else {
                // Preemption budget (max_rounds): yield the slot and
                // requeue, round-robin fairness across jobs. A clean
                // pause is forward progress, so the worker-loss retry
                // budget resets.
                {
                    let mut jobs = shared.jobs.lock_recover();
                    if let Some(entry) = jobs.get_mut(id) {
                        entry.executor_failures = 0;
                    }
                }
                shared.set_state(
                    id,
                    JobState::Paused,
                    format!(
                        "preempted at {}/{} iterations; requeued",
                        pause.iterations_consumed, pause.iterations_total
                    ),
                );
                requeue(shared, id);
            }
        }
        Err(ProfileError::Executor { message }) => {
            // Budget counts consecutive worker losses only — a job that
            // was preempted by max_rounds many times keeps its full
            // retry allowance.
            let failures = {
                let mut jobs = shared.jobs.lock_recover();
                match jobs.get_mut(id) {
                    Some(entry) => {
                        entry.executor_failures = entry.executor_failures.saturating_add(1);
                        entry.executor_failures
                    }
                    None => 1,
                }
            };
            if shared.is_draining() {
                shared.set_state(id, JobState::Paused, "drained; resumes on restart");
            } else if failures <= 5 {
                // The round was lost with a worker; the per-round
                // checkpoint still holds everything before it. Requeue:
                // the next attempt reassigns the job to the (respawned)
                // workers from that checkpoint.
                shared.set_state(
                    id,
                    JobState::Paused,
                    format!("worker lost ({message}); retrying from last checkpoint"),
                );
                requeue(shared, id);
            } else {
                fail(format!(
                    "executor failed {failures} consecutive times: {message}"
                ));
            }
        }
        Err(e) => fail(e.to_string()),
    }
}

fn finalize_cancel(shared: &Shared, id: &str) {
    let _ = std::fs::remove_file(shared.spec_path(id));
    let _ = std::fs::remove_file(shared.ckpt_path(id));
    shared.set_state(id, JobState::Cancelled, "cancelled");
}

fn requeue(shared: &Shared, id: &str) {
    let (class, client) = {
        let jobs = shared.jobs.lock_recover();
        match jobs.get(id) {
            Some(entry) => (entry.class, entry.client.clone()),
            None => return,
        }
    };
    shared.sched.requeue(id, class, &client);
}

fn runner_loop(shared: Arc<Shared>) {
    loop {
        if shared.is_draining() {
            return;
        }
        let Some(id) = shared.sched.pop_timeout(Duration::from_millis(200)) else {
            continue;
        };
        // A panic inside a job (a poisoned lock, a shard-thread panic)
        // must cost that job, not the runner slot: an unwinding runner
        // thread would silently halve the daemon's capacity and leave
        // the job stuck in Running with waiters blocked forever.
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| run_job(&shared, &id)));
        if outcome.is_err() {
            eprintln!("seqpoint serve: job `{id}` panicked; marking it failed");
            let _ = write_atomic(&shared.error_path(&id), "internal panic while running");
            shared.set_state(&id, JobState::Failed, "internal panic while running");
        }
    }
}

fn respond(stream: &mut Stream, metrics: &ConnMetrics, response: &Response) -> std::io::Result<()> {
    let mut line = encode_frame(response);
    line.push('\n');
    metrics.record_out(line.len() as u64);
    stream.write_all(line.as_bytes())
}

/// How long an unauthenticated TCP connection gets to deliver its
/// `Hello` line before the server reclaims the handler thread.
const AUTH_DEADLINE: Duration = Duration::from_secs(10);

/// Longest `Hello` line an unauthenticated connection may send — ample
/// for any real handshake, small enough that a peer streaming garbage
/// without newlines cannot grow the read buffer unboundedly.
const AUTH_LINE_CAP: u64 = 8 * 1024;

/// The auth gate on a just-accepted TCP connection: the **first** line
/// must be a valid `Hello` with the right version and token, read under
/// [`AUTH_DEADLINE`] and capped at [`AUTH_LINE_CAP`] bytes. Anything
/// else — garbage, a blank line, a non-`Hello` frame, a wrong token —
/// gets at most one error line and the connection is closed, before any
/// job state is touched. Returns the reader back on success, plus the
/// client identity the `Hello` announced (if any).
fn authenticate(
    shared: &Shared,
    stream: &mut Stream,
    reader: BufReader<Stream>,
    metrics: &ConnMetrics,
) -> Option<(BufReader<Stream>, Option<String>)> {
    if stream.set_read_timeout(Some(AUTH_DEADLINE)).is_err() {
        return None;
    }
    let mut limited = reader.take(AUTH_LINE_CAP);
    let mut line = String::new();
    match limited.read_line(&mut line) {
        // Silent, vanished, over-long, or empty: nothing is owed.
        Ok(0) | Err(_) => return None,
        Ok(_) => {}
    }
    let reader = limited.into_inner();
    // Counted pre-identity, under the anonymous client `""`: client
    // attribution starts once the Hello below actually authenticates,
    // so an unauthenticated peer cannot mint per-client label series.
    metrics.record_in(line.len() as u64);
    let refuse = |stream: &mut Stream, reason: &str| {
        let _ = respond(
            stream,
            metrics,
            &Response::Error {
                reason: reason.to_owned(),
            },
        );
        None
    };
    let Ok(Request::Hello {
        version,
        token,
        client,
    }) = decode_frame::<Request>(&line)
    else {
        return refuse(stream, "authentication required");
    };
    if version != PROTOCOL_VERSION {
        return refuse(
            stream,
            &format!(
                "protocol version mismatch: server speaks {PROTOCOL_VERSION}, \
                 client sent {version}"
            ),
        );
    }
    let presented = token.as_deref().unwrap_or("");
    let expected = shared.config.token.as_deref().unwrap_or("");
    if expected.is_empty() || !token_matches(expected, presented) {
        return refuse(stream, "invalid or missing token");
    }
    // Authenticated: lift the handshake deadline (clients legitimately
    // idle between requests) and welcome the peer.
    if stream.set_read_timeout(None).is_err() {
        return None;
    }
    if respond(
        stream,
        metrics,
        &Response::Welcome {
            version: PROTOCOL_VERSION,
        },
    )
    .is_err()
    {
        return None;
    }
    if let Some(client) = &client {
        metrics.set_client(client);
    }
    Some((reader, client))
}

fn handle_connection(shared: Arc<Shared>, mut stream: Stream, requires_auth: bool) {
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    // Wire accounting for this connection; dropping the handle (every
    // return path) counts the connection closed.
    let conn_metrics = shared.metrics.conn_opened();
    let mut reader = BufReader::new(read_half);
    // The identity this connection submits jobs under: set by the TCP
    // auth handshake, or by any `Hello` with a client tag (Unix-socket
    // clients use `submit --client`).
    let mut conn_client: Option<String> = None;
    if requires_auth {
        match authenticate(&shared, &mut stream, reader, &conn_metrics) {
            Some((r, client)) => {
                reader = r;
                conn_client = client;
            }
            None => return,
        }
    }
    let mut line = String::new();
    loop {
        line.clear();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        conn_metrics.record_in(line.len() as u64);
        let request = match decode_frame::<Request>(&line) {
            Ok(request) => request,
            Err(e) => {
                let _ = respond(
                    &mut stream,
                    &conn_metrics,
                    &Response::Error {
                        reason: format!("bad request: {e}"),
                    },
                );
                continue;
            }
        };
        let response = match request {
            // A Hello on an already-authenticated (or Unix) connection:
            // version check, adopt the announced identity, welcome.
            Request::Hello {
                version, client, ..
            } => {
                if version != PROTOCOL_VERSION {
                    let _ = respond(
                        &mut stream,
                        &conn_metrics,
                        &Response::Error {
                            reason: format!(
                                "protocol version mismatch: server speaks {PROTOCOL_VERSION}, \
                                 client sent {version}"
                            ),
                        },
                    );
                    return;
                }
                if let Some(client) = client {
                    conn_metrics.set_client(&client);
                    conn_client = Some(client);
                }
                Response::Welcome {
                    version: PROTOCOL_VERSION,
                }
            }
            Request::Register { pid } | Request::WorkerHello { pid } => {
                // Hand the connection to the fleet pool; nothing else
                // arrives on it from the worker until it is leased, so
                // the handler's read buffer is empty and can be dropped.
                if !shared.pool.register(stream, pid) {
                    // draining: dropping the stream tells the worker to
                    // exit.
                }
                return;
            }
            Request::Ping => {
                let queued = shared.sched.len() as u64;
                let running = {
                    let jobs = shared.jobs.lock_recover();
                    jobs.values()
                        .filter(|e| e.state == JobState::Running)
                        .count() as u64
                };
                let (cache_hits, cache_entries) = shared.cache.stats();
                let (fleet_leases, fleet_reclaimed) = shared.pool.fleet_stats();
                Response::Pong {
                    version: PROTOCOL_VERSION,
                    queued,
                    running,
                    workers: shared.worker_pids.lock_recover().clone(),
                    cache_hits,
                    cache_entries,
                    fleet_idle: shared.pool.idle_pids(),
                    fleet_leases,
                    fleet_reclaimed,
                }
            }
            Request::Metrics => Response::Metrics {
                text: metrics_text(&shared),
            },
            Request::Submit { job, spec } => submit(&shared, job, spec, &conn_client),
            Request::Status { job } => status(&shared, &job),
            Request::Result { job, wait } => {
                if wait {
                    // Streams its own heartbeat + final frames.
                    if result_wait(&shared, &mut stream, &conn_metrics, &job).is_err() {
                        return;
                    }
                    continue;
                }
                result(&shared, &job)
            }
            Request::Cancel { job } => cancel(&shared, &job),
            Request::Shutdown => {
                let _ = respond(&mut stream, &conn_metrics, &Response::ShuttingDown);
                shared.start_drain();
                return;
            }
        };
        if respond(&mut stream, &conn_metrics, &response).is_err() {
            return;
        }
    }
}

/// Render the live metrics exposition: sample the point-in-time gauges
/// owned by other subsystems (running jobs, cache entries, idle fleet)
/// and hand them to the registry's renderer — so the wire frame, the
/// `submit --stats` view, and the scrape endpoint all serve the
/// identical text.
fn metrics_text(shared: &Shared) -> String {
    let jobs_running = {
        let jobs = shared.jobs.lock_recover();
        jobs.values()
            .filter(|e| e.state == JobState::Running)
            .count() as u64
    };
    let (_, cache_entries) = shared.cache.stats();
    let fleet_idle = shared.pool.idle_pids().len() as u64;
    shared.metrics.render(&RenderGauges {
        jobs_running,
        cache_entries,
        fleet_idle,
    })
}

/// Accept loop for the plaintext metrics endpoint: one short-lived
/// connection per scrape, polled nonblocking so a drain is noticed
/// within one poll interval, exactly like the RPC accept loop.
fn metrics_scrape_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    while !shared.is_draining() {
        match listener.accept() {
            Ok((stream, _)) => {
                // A failed scrape (slow peer, vanished peer) costs that
                // scrape only.
                let _ = serve_scrape(shared, stream);
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::Interrupted =>
            {
                std::thread::sleep(Duration::from_millis(15));
            }
            Err(e) => {
                eprintln!("seqpoint serve: metrics accept failed: {e}");
                std::thread::sleep(Duration::from_millis(15));
            }
        }
    }
}

/// Answer one scrape connection: any request whose first line is a
/// `GET` gets the full text exposition as an HTTP/1.0 response;
/// anything else is refused with a 400. Hand-rolled on purpose — the
/// daemon takes no HTTP dependency for a protocol this small.
fn serve_scrape(shared: &Shared, mut stream: std::net::TcpStream) -> std::io::Result<()> {
    // The accepted socket must block (with a bound) so one slow or
    // silent scraper cannot wedge the endpoint thread forever.
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(Duration::from_secs(2)))?;
    stream.set_write_timeout(Some(Duration::from_secs(2)))?;
    let mut line = String::new();
    let mut limited = BufReader::new(stream.try_clone()?).take(AUTH_LINE_CAP);
    let _ = limited.read_line(&mut line);
    let (status, body) = if line.starts_with("GET ") {
        ("200 OK", metrics_text(shared))
    } else {
        (
            "400 Bad Request",
            "seqpoint metrics endpoint: send `GET / HTTP/1.0`\n".to_owned(),
        )
    };
    let head = format!(
        "HTTP/1.0 {status}\r\nContent-Type: text/plain; charset=utf-8\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())
}

/// Spawn-and-respawn supervision of one subprocess worker slot. The
/// worker population stays at the configured size until drain; a killed
/// worker (the chaos-test case) is replaced within ~100 ms.
fn supervise_worker(shared: Arc<Shared>) {
    let exe = shared
        .config
        .worker_exe
        .clone()
        .or_else(|| std::env::current_exe().ok());
    let Some(exe) = exe else {
        eprintln!("seqpoint serve: cannot locate worker executable");
        return;
    };
    while !shared.is_draining() {
        let child = Command::new(&exe)
            .arg("worker")
            .arg("--socket")
            .arg(&shared.config.socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn();
        let mut child = match child {
            Ok(child) => child,
            Err(e) => {
                eprintln!("seqpoint serve: spawning worker failed: {e}");
                std::thread::sleep(Duration::from_millis(500));
                continue;
            }
        };
        let pid = u64::from(child.id());
        shared.worker_pids.lock_recover().push(pid);
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) => {
                    if shared.is_draining() {
                        let _ = child.kill();
                        let _ = child.wait();
                        break;
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
                Err(_) => break,
            }
        }
        shared.worker_pids.lock_recover().retain(|p| *p != pid);
        if !shared.is_draining() {
            std::thread::sleep(Duration::from_millis(100));
        }
    }
}

/// Run the daemon until a drain (SIGTERM, SIGINT, or a
/// [`Request::Shutdown`] line). In-flight jobs are checkpointed before
/// this returns; re-invoking with the same configuration resumes them.
///
/// # Errors
///
/// [`ServiceError::Usage`] for a degenerate configuration;
/// [`ServiceError::Io`] when the state dir or socket cannot be set up.
pub fn serve(config: ServeConfig) -> Result<(), ServiceError> {
    if config.job_slots == 0 || config.queue_cap == 0 {
        return Err(ServiceError::Usage(
            "job_slots and queue_cap must be positive".to_owned(),
        ));
    }
    // `Subprocess { workers: 0 }` is legitimate now: it means "spawn no
    // local workers; externally started `seqpoint worker --connect`
    // processes will register over the socket" — the multi-node shape.
    if config.wait_heartbeat.is_zero() {
        return Err(ServiceError::Usage(
            "wait_heartbeat must be positive (a zero interval would spin)".to_owned(),
        ));
    }
    if config.retain_jobs == Some(0) {
        return Err(ServiceError::Usage(
            "retain_jobs must keep at least 1 terminal job (a waiting client \
             must be able to read the result it just produced)"
                .to_owned(),
        ));
    }
    if config.retain_for == Some(Duration::ZERO) {
        return Err(ServiceError::Usage(
            "retain_for must be a positive duration (use None to retain \
             terminal jobs indefinitely)"
                .to_owned(),
        ));
    }
    if config.client_quota == Some(0) {
        return Err(ServiceError::Usage(
            "client quota must admit at least 1 job per client".to_owned(),
        ));
    }
    if config.tcp.is_some() && config.token.as_deref().is_none_or(str::is_empty) {
        return Err(ServiceError::Usage(
            "a TCP listener requires a token (--token-file): every TCP \
             connection must authenticate"
                .to_owned(),
        ));
    }
    std::fs::create_dir_all(&config.state_dir)
        .map_err(|e| ServiceError::io("creating state dir", &e))?;
    // Two daemons must never share a state dir (they would race on the
    // same checkpoint/result files and job ids), regardless of which
    // sockets they listen on. A pidfile in the state dir is the claim:
    // refuse when its owner is still alive, replace it when stale.
    let pidfile = config.state_dir.join("serve.pid");
    if let Ok(text) = std::fs::read_to_string(&pidfile) {
        let owner = text.trim().parse::<u32>().ok();
        let alive = owner.is_some_and(|pid| {
            pid != std::process::id() && Path::new(&format!("/proc/{pid}")).exists()
        });
        if alive {
            return Err(ServiceError::Usage(format!(
                "state dir {} is owned by a live server (pid {})",
                config.state_dir.display(),
                owner.unwrap_or(0)
            )));
        }
    }
    write_atomic(&pidfile, &std::process::id().to_string())?;
    // A crash never removed the published TCP address; clear it before
    // binding so nothing can discover a stale (possibly reused) port.
    // Rewritten below once the new listener is actually bound. Same for
    // the published metrics address.
    let _ = std::fs::remove_file(config.state_dir.join("serve.tcp"));
    let _ = std::fs::remove_file(config.state_dir.join("serve.metrics"));
    // A stale socket file from a previous (killed) server blocks bind —
    // but a *live* server must not be hijacked either. Probe first; only
    // a dead socket (connection refused / not found) is removed.
    if config.socket.exists() {
        if UnixStream::connect(&config.socket).is_ok() {
            return Err(ServiceError::Usage(format!(
                "a server is already listening on {}",
                config.socket.display()
            )));
        }
        let _ = std::fs::remove_file(&config.socket);
    }
    let unix_listener = UnixListener::bind(&config.socket)
        .map_err(|e| ServiceError::io(format!("binding {}", config.socket.display()), &e))?;
    let mut listeners = vec![Listener::Unix(unix_listener)];
    let mut tcp_bound = None;
    if let Some(addr) = &config.tcp {
        let tcp = TcpListener::bind(addr.as_str())
            .map_err(|e| ServiceError::io(format!("binding tcp {addr}"), &e))?;
        let listener = Listener::Tcp(tcp);
        // Publish the *actual* bound address (`:0` requests an ephemeral
        // port) so scripts and remote workers can find it.
        if let Some(local) = listener.tcp_addr() {
            write_atomic(&config.state_dir.join("serve.tcp"), &local.to_string())?;
            tcp_bound = Some(local);
        }
        listeners.push(listener);
    }
    for listener in &listeners {
        listener
            .set_nonblocking(true)
            .map_err(|e| ServiceError::io("setting nonblocking", &e))?;
    }
    // The optional metrics scrape endpoint gets its own TCP listener —
    // plaintext, read-only — with the actual bound address published
    // like the RPC one, so scripts can discover an ephemeral port.
    let mut metrics_listener = None;
    let mut metrics_bound = None;
    if let Some(addr) = &config.metrics_addr {
        let listener = TcpListener::bind(addr.as_str())
            .map_err(|e| ServiceError::io(format!("binding metrics {addr}"), &e))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| ServiceError::io("setting nonblocking", &e))?;
        let local = listener
            .local_addr()
            .map_err(|e| ServiceError::io("reading metrics listener address", &e))?;
        write_atomic(&config.state_dir.join("serve.metrics"), &local.to_string())?;
        metrics_bound = Some(local);
        metrics_listener = Some(listener);
    }
    sig::TERM.store(false, Ordering::Relaxed);
    sig::install();

    let metrics = MetricsRegistry::new();
    let sched = Scheduler::new(config.fair, config.queue_cap);
    sched.attach_metrics(Arc::clone(&metrics));
    let pool = WorkerPool::new();
    pool.attach_metrics(Arc::clone(&metrics));
    let shared = Arc::new(Shared {
        config,
        jobs: Mutex::new(HashMap::new()),
        jobs_cv: Condvar::new(),
        sched,
        cache: ResultCache::new(),
        draining: AtomicBool::new(false),
        next_job: AtomicU64::new(1),
        finish_counter: AtomicU64::new(0),
        pool,
        worker_pids: Mutex::new(Vec::new()),
        metrics,
    });

    // Recovery: reload finished jobs, requeue unfinished primaries
    // (with their recovered class/client identity).
    let recovered = recover(&shared)?;
    for id in &recovered {
        requeue(&shared, id);
    }
    let tcp_note = match tcp_bound {
        Some(addr) => format!(" + tcp {addr} (token auth)"),
        None => String::new(),
    };
    let metrics_note = match metrics_bound {
        Some(addr) => format!(" + metrics {addr}"),
        None => String::new(),
    };
    eprintln!(
        "seqpoint serve: listening on {}{tcp_note}{metrics_note} \
         ({} job slot(s), queue cap {}, {} recovered)",
        shared.config.socket.display(),
        shared.config.job_slots,
        shared.config.queue_cap,
        recovered.len()
    );

    let mut supervisors = Vec::new();
    if let Placement::Subprocess { workers } = shared.config.placement {
        for _ in 0..workers {
            let shared = shared.clone();
            supervisors.push(std::thread::spawn(move || supervise_worker(shared)));
        }
    }
    let mut runners = Vec::new();
    for _ in 0..shared.config.job_slots {
        let shared = shared.clone();
        runners.push(std::thread::spawn(move || runner_loop(shared)));
    }
    let mut scraper = None;
    if let Some(listener) = metrics_listener {
        let shared = shared.clone();
        scraper = Some(std::thread::spawn(move || {
            metrics_scrape_loop(&shared, &listener);
        }));
    }

    // Accept loop: every listener nonblocking, polled in turn, so
    // SIGTERM is noticed promptly regardless of EINTR semantics and one
    // transport cannot starve the other.
    let mut last_ttl_sweep = Instant::now();
    loop {
        if shared.is_draining() {
            break;
        }
        let mut accepted_any = false;
        for listener in &listeners {
            match listener.accept() {
                Ok(stream) => {
                    accepted_any = true;
                    let requires_auth = listener.requires_auth();
                    let shared = shared.clone();
                    std::thread::spawn(move || handle_connection(shared, stream, requires_auth));
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => {
                    eprintln!("seqpoint serve: accept failed: {e}");
                }
            }
        }
        // The TTL bound fires by clock, not by event, so the accept
        // loop doubles as its sweeper: a terminal job is evicted within
        // about a second of its age crossing `retain_for` even when no
        // new completion triggers the GC.
        if shared.config.retain_for.is_some() && last_ttl_sweep.elapsed() >= Duration::from_secs(1)
        {
            last_ttl_sweep = Instant::now();
            let mut jobs = shared.jobs.lock_recover();
            shared.gc_terminal(&mut jobs);
        }
        if !accepted_any {
            std::thread::sleep(Duration::from_millis(15));
        }
    }

    // Drain: checkpoint in-flight jobs (runners pause at the next round
    // boundary), release workers, persist everything.
    shared.start_drain();
    eprintln!("seqpoint serve: draining (in-flight jobs checkpoint and resume on restart)");
    for runner in runners {
        let _ = runner.join();
    }
    for supervisor in supervisors {
        let _ = supervisor.join();
    }
    if let Some(scraper) = scraper {
        let _ = scraper.join();
    }
    let _ = std::fs::remove_file(&shared.config.socket);
    let _ = std::fs::remove_file(shared.config.state_dir.join("serve.pid"));
    let _ = std::fs::remove_file(shared.config.state_dir.join("serve.tcp"));
    let _ = std::fs::remove_file(shared.config.state_dir.join("serve.metrics"));
    let paused = {
        let jobs = shared.jobs.lock_recover();
        jobs.values().filter(|e| !e.state.is_terminal()).count()
    };
    eprintln!("seqpoint serve: drained ({paused} unfinished job(s) checkpointed)");
    Ok(())
}
