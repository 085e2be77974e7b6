//! Subprocess shard placement: an elastic fleet of registered
//! `seqpoint worker` connections and a [`RoundExecutor`] that ships
//! shard chunks to them.
//!
//! Workers connect to the server socket (Unix or TCP), announce
//! [`seqpoint_core::protocol::Request::Register`] (or the legacy
//! `WorkerHello`), and join the shared pool. They are **leased
//! per-round** to whichever job the scheduler picked: at lease time the
//! pool probes the connection's liveness and sends a
//! [`WorkerTask::Lease`] frame naming the holder, then the executor's
//! [`WorkerTask`] round frames follow, answered by [`WorkerReply`]
//! frames. Per-shard round results travel as serialized
//! `OnlineSlTracker` state and `Vec<IterationProfile>` payloads in the
//! checkpoint interchange format (round-trip-exact floats), so a
//! subprocess round merges bit-identically to an in-process one.
//!
//! Failure model: a worker that dies mid-round poisons the whole round —
//! the executor closes every connection it had acquired (their reply
//! streams can no longer be trusted to stay in sync) and reports
//! [`ProfileError::Executor`]. The job runner then re-queues the job,
//! which resumes from its last per-round checkpoint; the supervisor
//! respawns the worker in the background. Nothing measured before the
//! lost round is repeated, and the selection is unchanged — the
//! "reassign from the last shard checkpoint" story the kill-a-worker
//! test pins end to end.

use std::io::{BufRead, BufReader, Read, Write};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

use seqpoint_core::online::OnlineSlTracker;
use seqpoint_core::protocol::{decode_frame, encode_frame, WorkerReply, WorkerTask};
use sqnn::IterationShape;
use sqnn_profiler::stream::{RoundExecutor, ShardChunk, ShardReport};
use sqnn_profiler::{IterationProfile, ProfileError};

use crate::metrics::MetricsRegistry;
use crate::sync::{CondvarExt, LockExt};
use crate::transport::Stream;

/// One registered worker connection (the server side of a `seqpoint
/// worker` socket — Unix or TCP; the pool does not care which).
pub struct WorkerConn {
    writer: Stream,
    reader: BufReader<Stream>,
    /// The worker's process id, as announced in its hello.
    pub pid: u64,
    /// Registry snapshot taken at registration time; `None` in library
    /// tests, where worker wire traffic is simply not recorded.
    metrics: Option<Arc<MetricsRegistry>>,
}

impl WorkerConn {
    fn send(&mut self, task: &WorkerTask) -> std::io::Result<()> {
        let mut line = encode_frame(task);
        line.push('\n');
        if let Some(metrics) = &self.metrics {
            metrics.worker_out(line.len() as u64);
        }
        self.writer.write_all(line.as_bytes())
    }

    fn recv(&mut self) -> std::io::Result<WorkerReply> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "worker closed the connection",
            ));
        }
        if let Some(metrics) = &self.metrics {
            metrics.worker_in(n as u64);
        }
        decode_frame(&line)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Whether the worker behind this pooled connection is still there.
    /// An idle worker never sends unsolicited bytes and its reader
    /// buffer is empty between rounds, so a nonblocking 1-byte read
    /// distinguishes the cases exactly: `WouldBlock` means alive and
    /// idle; EOF, stray bytes, or any other error mean the connection
    /// is dead or desynced and must be reclaimed, not leased.
    fn is_alive(&mut self) -> bool {
        if self.writer.set_nonblocking(true).is_err() {
            return false;
        }
        let mut probe = [0u8; 1];
        let verdict = match self.writer.read(&mut probe) {
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => true,
            Ok(_) | Err(_) => false,
        };
        verdict && self.writer.set_nonblocking(false).is_ok()
    }
}

struct PoolInner {
    idle: Vec<WorkerConn>,
    draining: bool,
    /// Per-round leases granted over the pool's lifetime.
    leases: u64,
    /// Connections found dead at lease time (or unable to take the
    /// lease frame) and reclaimed from the pool.
    reclaimed: u64,
}

/// A blocking pool of registered worker connections, shared by every
/// concurrent job under subprocess placement.
pub struct WorkerPool {
    inner: Mutex<PoolInner>,
    cv: Condvar,
    /// Attached by the daemon after construction; absent in library
    /// tests, where fleet metrics are simply not recorded.
    metrics: OnceLock<Arc<MetricsRegistry>>,
}

impl Default for WorkerPool {
    fn default() -> Self {
        WorkerPool::new()
    }
}

/// Upper bound on waiting for one shard-chunk reply. Replies normally
/// arrive in well under a minute; the bound exists so a worker host
/// that vanishes *silently* (power loss, network partition — no FIN or
/// RST ever arrives, unlike a local SIGKILL) cannot wedge a runner slot
/// and the daemon's drain forever. Hitting it poisons the round like
/// any other worker loss: the job retries from its last checkpoint.
const ROUND_RECV_TIMEOUT: Duration = Duration::from_secs(600);

impl WorkerPool {
    /// An empty pool.
    pub fn new() -> Self {
        WorkerPool {
            inner: Mutex::new(PoolInner {
                idle: Vec::new(),
                draining: false,
                leases: 0,
                reclaimed: 0,
            }),
            cv: Condvar::new(),
            metrics: OnceLock::new(),
        }
    }

    /// Attach the daemon's metrics registry: from here on the pool
    /// records lease/reclaim events and worker wire traffic. First
    /// call wins.
    pub fn attach_metrics(&self, metrics: Arc<MetricsRegistry>) {
        let _ = self.metrics.set(metrics);
    }

    /// Register a connection that announced itself as a worker. Returns
    /// `false` (and closes the connection) when the pool is draining.
    pub fn register(&self, stream: Stream, pid: u64) -> bool {
        // The server only reads from a worker connection while a round
        // reply is owed, so a permanent receive timeout is purely a
        // liveness bound (see [`ROUND_RECV_TIMEOUT`]); idle pooled
        // connections are never read.
        let _ = stream.set_read_timeout(Some(ROUND_RECV_TIMEOUT));
        let reader = match stream.try_clone() {
            Ok(clone) => BufReader::new(clone),
            Err(_) => return false,
        };
        let mut inner = self.inner.lock_recover();
        if inner.draining {
            return false;
        }
        inner.idle.push(WorkerConn {
            writer: stream,
            reader,
            pid,
            metrics: self.metrics.get().cloned(),
        });
        self.cv.notify_all();
        true
    }

    /// Lease up to `want` idle workers to `job` for one round, blocking
    /// until at least one is available. Every candidate is liveness-
    /// probed first and sent a [`WorkerTask::Lease`] frame; a
    /// connection that fails either is **reclaimed** (dropped and
    /// counted) instead of handed to the executor — so a worker that
    /// was SIGKILLed while idle in the pool costs nothing, and one
    /// killed mid-round costs the holding job at most that round.
    /// Returns `None` when draining or after `timeout` with no live
    /// worker (lost pool).
    pub fn lease(&self, want: usize, timeout: Duration, job: &str) -> Option<Vec<WorkerConn>> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.inner.lock_recover();
        loop {
            if inner.draining {
                return None;
            }
            if !inner.idle.is_empty() {
                let take = want.clamp(1, inner.idle.len());
                let candidates: Vec<WorkerConn> = inner.idle.drain(..take).collect();
                let mut leased = Vec::new();
                for mut conn in candidates {
                    let lease = WorkerTask::Lease {
                        job: job.to_owned(),
                    };
                    if conn.is_alive() && conn.send(&lease).is_ok() {
                        leased.push(conn);
                    } else {
                        // Dead registration: drop the connection. The
                        // supervisor (or the remote operator) brings a
                        // replacement; nothing here blocks on it.
                        inner.reclaimed += 1;
                        if let Some(metrics) = self.metrics.get() {
                            metrics.fleet_reclaimed(1);
                        }
                    }
                }
                if !leased.is_empty() {
                    inner.leases += leased.len() as u64;
                    if let Some(metrics) = self.metrics.get() {
                        metrics.fleet_leased(leased.len() as u64);
                    }
                    return Some(leased);
                }
                // Every candidate was dead; retry immediately — more
                // registrations may be idle or arriving.
                continue;
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self.cv.wait_timeout_recover(inner, deadline - now);
            inner = guard;
        }
    }

    /// `(leases granted, connections reclaimed dead)` over the pool's
    /// lifetime, for `Ping` accounting.
    pub fn fleet_stats(&self) -> (u64, u64) {
        let inner = self.inner.lock_recover();
        (inner.leases, inner.reclaimed)
    }

    /// Return healthy connections to the pool (dropped when draining).
    pub fn release(&self, conns: Vec<WorkerConn>) {
        let mut inner = self.inner.lock_recover();
        if !inner.draining {
            inner.idle.extend(conns);
            self.cv.notify_all();
        }
    }

    /// Pids of the currently idle workers (busy ones are with their
    /// executor).
    pub fn idle_pids(&self) -> Vec<u64> {
        let inner = self.inner.lock_recover();
        inner.idle.iter().map(|c| c.pid).collect()
    }

    /// Stop handing out workers and close every idle connection; workers
    /// observe EOF and exit.
    pub fn drain(&self) {
        let mut inner = self.inner.lock_recover();
        inner.draining = true;
        inner.idle.clear();
        self.cv.notify_all();
    }
}

fn executor_error(message: impl Into<String>) -> ProfileError {
    ProfileError::Executor {
        message: message.into(),
    }
}

/// A [`RoundExecutor`] that places shard chunks on pooled `seqpoint
/// worker` subprocesses, exchanging checkpoint-format shard state over
/// the socket.
///
/// In the operator graph (`sqnn_profiler::pipeline`) this executor *is*
/// the `ShardFold` stage's placement: workers are leased when the fold
/// runs a round and released when its reports are collected, so the
/// scheduler's per-round lease points sit exactly at the fold stage
/// boundary — never across a merge, gate, or checkpoint write. A
/// replay-phase miss batch is one lease of one worker, which answers
/// its `Profile` frames one at a time.
pub struct SubprocessExecutor<'p> {
    pool: &'p WorkerPool,
    job: String,
    model: String,
    config: u32,
    stat: &'static str,
    acquire_timeout: Duration,
}

impl<'p> SubprocessExecutor<'p> {
    /// An executor for one job's rounds; `job` names the lease holder
    /// in the [`WorkerTask::Lease`] frames sent to leased workers.
    pub fn new(
        pool: &'p WorkerPool,
        job: impl Into<String>,
        model: impl Into<String>,
        config: u32,
        stat: &'static str,
    ) -> Self {
        SubprocessExecutor {
            pool,
            job: job.into(),
            model: model.into(),
            config,
            stat,
            acquire_timeout: Duration::from_secs(30),
        }
    }

    /// Lower the acquire timeout (tests).
    pub fn with_acquire_timeout(mut self, timeout: Duration) -> Self {
        self.acquire_timeout = timeout;
        self
    }

    fn acquire(&self, want: usize) -> Result<Vec<WorkerConn>, ProfileError> {
        self.pool
            .lease(want, self.acquire_timeout, &self.job)
            .ok_or_else(|| executor_error("no workers available (pool drained or lost)"))
    }
}

impl RoundExecutor for SubprocessExecutor<'_> {
    fn execute_round(&mut self, chunks: &[ShardChunk]) -> Result<Vec<ShardReport>, ProfileError> {
        if chunks.is_empty() {
            return Ok(Vec::new());
        }
        let mut conns = self.acquire(chunks.len())?;
        if conns.is_empty() {
            return Err(executor_error("no workers acquired for the round"));
        }
        let workers = conns.len();
        // Deal chunk i to worker i % workers, then collect each worker's
        // replies FIFO. A single failure abandons the round and every
        // acquired connection: replies still in flight would desync any
        // reuse, and dropping the sockets lets dead workers be respawned
        // and live ones exit/reconnect... (live ones are closed too —
        // the supervisor keeps the worker population at target).
        let result = (|| -> Result<Vec<ShardReport>, ProfileError> {
            for (i, chunk) in chunks.iter().enumerate() {
                let task = WorkerTask::Round {
                    model: self.model.clone(),
                    config: self.config,
                    stat: self.stat.to_owned(),
                    shard: chunk.shard as u32,
                    batches: chunk
                        .batches
                        .iter()
                        .map(|b| (b.seq_len, b.samples))
                        .collect(),
                };
                conns
                    .get_mut(i % workers)
                    .ok_or_else(|| executor_error("worker connection vanished mid-round"))?
                    .send(&task)
                    .map_err(|e| executor_error(format!("sending round task: {e}")))?;
            }
            let mut reports: Vec<Option<ShardReport>> = (0..chunks.len()).map(|_| None).collect();
            for (i, _) in chunks.iter().enumerate() {
                let reply = conns
                    .get_mut(i % workers)
                    .ok_or_else(|| executor_error("worker connection vanished mid-round"))?
                    .recv()
                    .map_err(|e| executor_error(format!("collecting round reply: {e}")))?;
                let WorkerReply::Round {
                    shard,
                    tracker,
                    chunk_time_s,
                    shapes,
                } = reply
                else {
                    if let WorkerReply::Error { reason } = reply {
                        return Err(executor_error(format!("worker rejected task: {reason}")));
                    }
                    return Err(executor_error("unexpected reply to a round task"));
                };
                let tracker: OnlineSlTracker = serde::json::from_str(&tracker)
                    .map_err(|e| executor_error(format!("bad tracker payload: {e}")))?;
                tracker
                    .validate()
                    .map_err(|reason| executor_error(format!("inconsistent tracker: {reason}")))?;
                let shapes: Vec<IterationProfile> = serde::json::from_str(&shapes)
                    .map_err(|e| executor_error(format!("bad shapes payload: {e}")))?;
                let slot = reports
                    .get_mut(shard as usize)
                    .ok_or_else(|| executor_error(format!("reply for unknown shard {shard}")))?;
                if slot.is_some() {
                    return Err(executor_error(format!("duplicate reply for shard {shard}")));
                }
                *slot = Some(ShardReport {
                    tracker,
                    chunk_time_s,
                    shapes,
                });
            }
            reports
                .into_iter()
                .enumerate()
                .map(|(shard, report)| {
                    report.ok_or_else(|| executor_error(format!("no reply for shard {shard}")))
                })
                .collect()
        })();
        match result {
            Ok(reports) => {
                self.pool.release(conns);
                Ok(reports)
            }
            Err(e) => {
                drop(conns); // close all: the round is poisoned
                Err(e)
            }
        }
    }

    fn profile_shape(&mut self, shape: IterationShape) -> Result<IterationProfile, ProfileError> {
        self.profile_shapes(&[shape])?
            .pop()
            .ok_or_else(|| executor_error("no profile reply"))
    }

    fn profile_shapes(
        &mut self,
        shapes: &[IterationShape],
    ) -> Result<Vec<IterationProfile>, ProfileError> {
        if shapes.is_empty() {
            return Ok(Vec::new());
        }
        // One worker simulates the whole batch, one frame in flight at
        // a time, so the batch costs one lease instead of one per shape.
        // Replay simulation stays serial on the daemon's fleet: a batch
        // split over several workers waits for the slowest of them, and
        // its run time swings with whatever else the host runs. One
        // failure poisons the batch and its connection, exactly as in
        // `execute_round`.
        let mut conns = self.acquire(1)?;
        let result = (|| -> Result<Vec<IterationProfile>, ProfileError> {
            let conn = conns
                .first_mut()
                .ok_or_else(|| executor_error("no worker acquired for the profile batch"))?;
            shapes
                .iter()
                .map(|shape| {
                    let task = WorkerTask::Profile {
                        model: self.model.clone(),
                        config: self.config,
                        seq_len: shape.src_len,
                        samples: shape.batch,
                    };
                    conn.send(&task)
                        .map_err(|e| executor_error(format!("sending profile task: {e}")))?;
                    match conn
                        .recv()
                        .map_err(|e| executor_error(format!("collecting profile reply: {e}")))?
                    {
                        WorkerReply::Profile { profile } => serde::json::from_str(&profile)
                            .map_err(|e| executor_error(format!("bad profile payload: {e}"))),
                        WorkerReply::Error { reason } => {
                            Err(executor_error(format!("worker rejected task: {reason}")))
                        }
                        WorkerReply::Round { .. } => Err(executor_error("unexpected round reply")),
                    }
                })
                .collect()
        })();
        match result {
            Ok(profiles) => {
                self.pool.release(conns);
                Ok(profiles)
            }
            Err(e) => {
                drop(conns);
                Err(e)
            }
        }
    }
}

/// A pacing wrapper: sleeps `throttle_ms` before every round (checking
/// the interrupt flag so drains stay responsive), then delegates. Used
/// for [`seqpoint_core::protocol::JobSpec::throttle_ms`].
pub struct ThrottledExecutor<'e> {
    inner: &'e mut dyn RoundExecutor,
    throttle: Duration,
    interrupted: &'e dyn Fn() -> bool,
}

impl<'e> ThrottledExecutor<'e> {
    /// Wrap `inner`, sleeping `throttle_ms` before each round unless
    /// `interrupted` reports true.
    pub fn new(
        inner: &'e mut dyn RoundExecutor,
        throttle_ms: u64,
        interrupted: &'e dyn Fn() -> bool,
    ) -> Self {
        ThrottledExecutor {
            inner,
            throttle: Duration::from_millis(throttle_ms),
            interrupted,
        }
    }
}

impl RoundExecutor for ThrottledExecutor<'_> {
    fn execute_round(&mut self, chunks: &[ShardChunk]) -> Result<Vec<ShardReport>, ProfileError> {
        let mut remaining = self.throttle;
        let slice = Duration::from_millis(20);
        while !remaining.is_zero() && !(self.interrupted)() {
            let nap = remaining.min(slice);
            std::thread::sleep(nap);
            remaining -= nap;
        }
        self.inner.execute_round(chunks)
    }

    fn profile_shape(&mut self, shape: IterationShape) -> Result<IterationProfile, ProfileError> {
        self.inner.profile_shape(shape)
    }

    fn profile_shapes(
        &mut self,
        shapes: &[IterationShape],
    ) -> Result<Vec<IterationProfile>, ProfileError> {
        self.inner.profile_shapes(shapes)
    }

    fn seed_shapes(&mut self, shapes: &[IterationProfile]) {
        self.inner.seed_shapes(shapes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    /// A stand-in `seqpoint worker` that answers `Profile` frames FIFO
    /// with a profile naming the shape, rejecting `seq_len == reject`.
    /// Returns how many frames it answered once the server hangs up.
    fn fake_worker(stream: UnixStream, reject: u32) -> std::thread::JoinHandle<usize> {
        std::thread::spawn(move || {
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            let mut answered = 0;
            let mut line = String::new();
            while reader.read_line(&mut line).unwrap_or(0) > 0 {
                let task: WorkerTask = decode_frame(&line).unwrap();
                line.clear();
                let WorkerTask::Profile {
                    seq_len, samples, ..
                } = task
                else {
                    continue; // the lease frame is not answered
                };
                let reply = if seq_len == reject {
                    WorkerReply::Error {
                        reason: "rejected".to_owned(),
                    }
                } else {
                    let profile = IterationProfile {
                        seq_len,
                        samples,
                        time_s: f64::from(seq_len),
                        counters: Default::default(),
                        energy_j: 0.0,
                        launches: 0,
                        trace: None,
                    };
                    WorkerReply::Profile {
                        profile: serde::json::to_string(&profile).unwrap(),
                    }
                };
                let mut frame = encode_frame(&reply);
                frame.push('\n');
                if writer.write_all(frame.as_bytes()).is_err() {
                    break;
                }
                answered += 1;
            }
            answered
        })
    }

    fn fleet(rejects: &[u32]) -> (WorkerPool, Vec<std::thread::JoinHandle<usize>>) {
        let pool = WorkerPool::new();
        let workers = rejects
            .iter()
            .zip(1..)
            .map(|(&reject, pid)| {
                let (server, worker) = UnixStream::pair().unwrap();
                assert!(pool.register(Stream::from(server), pid));
                fake_worker(worker, reject)
            })
            .collect();
        (pool, workers)
    }

    #[test]
    fn a_profile_batch_is_one_lease_answered_in_input_order() {
        let shapes: Vec<IterationShape> = [(16, 10), (16, 40), (8, 20), (16, 30)]
            .iter()
            .map(|&(batch, seq_len)| IterationShape::new(batch, seq_len))
            .collect();
        let expected: Vec<(u32, u32)> = shapes.iter().map(|s| (s.src_len, s.batch)).collect();

        // Two workers registered: the batch leases one of them once, it
        // answers every shape, and the answers come back in input order.
        let (pool, workers) = fleet(&[0, 0]);
        let profiles = SubprocessExecutor::new(&pool, "job", "gnmt", 1, "runtime")
            .profile_shapes(&shapes)
            .unwrap();
        let answered: Vec<(u32, u32)> = profiles.iter().map(|p| (p.seq_len, p.samples)).collect();
        assert_eq!(answered, expected);
        assert_eq!(pool.fleet_stats(), (1, 0), "one lease per batch");
        assert_eq!(
            pool.idle_pids().len(),
            2,
            "a good batch releases its worker"
        );
        pool.drain();
        let mut per_worker: Vec<usize> = workers.into_iter().map(|w| w.join().unwrap()).collect();
        per_worker.sort_unstable();
        assert_eq!(per_worker, vec![0, shapes.len()]);

        // One rejected shape poisons the batch and its connection.
        let (pool, workers) = fleet(&[40]);
        let err = SubprocessExecutor::new(&pool, "job", "gnmt", 1, "runtime")
            .profile_shapes(&shapes)
            .unwrap_err();
        assert!(
            matches!(&err, ProfileError::Executor { message } if message.contains("rejected")),
            "{err:?}"
        );
        assert!(
            pool.idle_pids().is_empty(),
            "a poisoned batch closes its worker"
        );
        for worker in workers {
            worker.join().unwrap();
        }
    }

    #[test]
    fn acquire_times_out_on_an_empty_pool() {
        let pool = WorkerPool::new();
        let t0 = Instant::now();
        assert!(pool.lease(2, Duration::from_millis(50), "job").is_none());
        assert!(t0.elapsed() >= Duration::from_millis(50));
    }

    #[test]
    fn drained_pool_rejects_registration_and_acquire() {
        let pool = WorkerPool::new();
        pool.drain();
        assert!(pool.lease(1, Duration::from_millis(10), "job").is_none());
        let (a, _b) = std::os::unix::net::UnixStream::pair().unwrap();
        assert!(!pool.register(Stream::from(a), 1));
        assert!(pool.idle_pids().is_empty());
    }

    #[test]
    fn register_lease_release_cycle() {
        let pool = WorkerPool::new();
        let (a, _keep_a) = std::os::unix::net::UnixStream::pair().unwrap();
        let (b, _keep_b) = std::os::unix::net::UnixStream::pair().unwrap();
        assert!(pool.register(Stream::from(a), 11));
        assert!(pool.register(Stream::from(b), 22));
        assert_eq!(pool.idle_pids(), vec![11, 22]);
        let conns = pool.lease(5, Duration::from_millis(10), "job").unwrap();
        assert_eq!(conns.len(), 2, "lease caps at availability");
        assert!(pool.idle_pids().is_empty());
        pool.release(conns);
        assert_eq!(pool.idle_pids().len(), 2);
        assert_eq!(pool.fleet_stats(), (2, 0));
    }

    #[test]
    fn dead_registrations_are_reclaimed_at_lease_time() {
        let pool = WorkerPool::new();
        let metrics = MetricsRegistry::new();
        pool.attach_metrics(Arc::clone(&metrics));
        let (dead, hangup) = std::os::unix::net::UnixStream::pair().unwrap();
        let (live, _keep_live) = std::os::unix::net::UnixStream::pair().unwrap();
        assert!(pool.register(Stream::from(dead), 11));
        assert!(pool.register(Stream::from(live), 22));
        drop(hangup); // pid 11's peer vanishes (SIGKILL while idle)
        let conns = pool.lease(2, Duration::from_millis(50), "job").unwrap();
        assert_eq!(conns.len(), 1, "dead connection is not leased");
        assert_eq!(conns[0].pid, 22);
        let (leases, reclaimed) = pool.fleet_stats();
        assert_eq!(leases, 1);
        assert_eq!(reclaimed, 1);
        let text = metrics.render(&Default::default());
        assert!(text.contains("seqpoint_fleet_leases_total 1\n"), "{text}");
        assert!(text.contains("seqpoint_fleet_reclaims_total 1\n"), "{text}");
    }

    #[test]
    fn leased_worker_receives_the_lease_frame() {
        let pool = WorkerPool::new();
        let (server_side, worker_side) = std::os::unix::net::UnixStream::pair().unwrap();
        assert!(pool.register(Stream::from(server_side), 7));
        let conns = pool.lease(1, Duration::from_millis(50), "job-42").unwrap();
        let mut reader = BufReader::new(worker_side);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let task: WorkerTask = decode_frame(&line).unwrap();
        assert_eq!(
            task,
            WorkerTask::Lease {
                job: "job-42".to_owned()
            }
        );
        pool.release(conns);
    }
}
