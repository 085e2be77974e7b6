//! End-to-end service tests through the real `seqpoint` binary with
//! **subprocess** worker placement — the single-machine proof of the
//! multi-node story:
//!
//! * shard chunks execute in separate `seqpoint worker` processes,
//!   exchanging checkpoint-format shard state over the socket;
//! * killing a worker mid-job loses at most one round: the job is
//!   reassigned from its last per-round checkpoint, the supervisor
//!   respawns the worker, and the final selection is byte-identical to
//!   the offline `seqpoint stream` run;
//! * concurrent jobs are served correctly side by side;
//! * the same story holds over **TCP with token auth**: externally
//!   started `seqpoint worker --connect` processes serve rounds for a
//!   job submitted over `submit --connect`, a SIGKILLed TCP worker
//!   costs at most one round, and the result is byte-identical to the
//!   offline run.

#![cfg(unix)]

use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::time::{Duration, Instant};

use seqpoint_core::protocol::{Request, Response};
use seqpoint_service::client::Client;

fn bin() -> &'static str {
    env!("CARGO_BIN_EXE_seqpoint")
}

/// A scratch dir removed on drop; kills the server first.
struct Harness {
    dir: PathBuf,
    server: Option<Child>,
}

impl Harness {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("seqpoint-e2e-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Harness { dir, server: None }
    }

    fn socket(&self) -> PathBuf {
        self.dir.join("sock")
    }

    fn state(&self) -> PathBuf {
        self.dir.join("state")
    }

    /// Start `seqpoint serve` and wait until it answers pings.
    fn start_server(&mut self, extra: &[&str]) {
        assert!(self.server.is_none());
        let child = Command::new(bin())
            .arg("serve")
            .arg("--socket")
            .arg(self.socket())
            .arg("--state-dir")
            .arg(self.state())
            .args(extra)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawning serve");
        self.server = Some(child);
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let ping = self.submit(&["--ping"]);
            if ping.status.success() {
                return;
            }
            assert!(Instant::now() < deadline, "server never came up");
            std::thread::sleep(Duration::from_millis(50));
        }
    }

    fn submit(&self, args: &[&str]) -> Output {
        Command::new(bin())
            .arg("submit")
            .arg("--socket")
            .arg(self.socket())
            .args(args)
            .output()
            .expect("running submit")
    }

    fn token_file(&self) -> PathBuf {
        self.dir.join("token")
    }

    /// Write the shared secret the TCP tests hand to serve/submit/worker.
    fn write_token(&self) -> PathBuf {
        let path = self.token_file();
        std::fs::write(&path, "e2e-tcp-secret\n").unwrap();
        path
    }

    /// The daemon's published TCP address (waits for `serve.tcp`).
    fn tcp_addr(&self) -> String {
        let path = self.state().join("serve.tcp");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Ok(addr) = std::fs::read_to_string(&path) {
                if !addr.trim().is_empty() {
                    return addr.trim().to_owned();
                }
            }
            assert!(Instant::now() < deadline, "serve.tcp never appeared");
            std::thread::sleep(Duration::from_millis(25));
        }
    }

    /// `seqpoint submit --connect <tcp> --token-file <token> …`.
    fn submit_tcp(&self, addr: &str, args: &[&str]) -> Output {
        Command::new(bin())
            .arg("submit")
            .arg("--connect")
            .arg(addr)
            .arg("--token-file")
            .arg(self.token_file())
            .args(args)
            .output()
            .expect("running submit over tcp")
    }

    fn shutdown_and_join(&mut self) {
        let _ = self.submit(&["--shutdown"]);
        if let Some(mut child) = self.server.take() {
            let deadline = Instant::now() + Duration::from_secs(20);
            loop {
                match child.try_wait().expect("waiting for serve") {
                    Some(status) => {
                        assert!(status.success(), "serve exited with {status}");
                        break;
                    }
                    None => {
                        assert!(Instant::now() < deadline, "serve never drained");
                        std::thread::sleep(Duration::from_millis(50));
                    }
                }
            }
        }
    }
}

impl Drop for Harness {
    fn drop(&mut self) {
        if let Some(mut child) = self.server.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn stdout_of(output: &Output) -> String {
    assert!(
        output.status.success(),
        "command failed: {}\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout.clone()).unwrap()
}

/// The offline `seqpoint stream` output for the given spec flags.
fn offline_stream(spec: &[&str]) -> String {
    let output = Command::new(bin())
        .arg("stream")
        .args(spec)
        .output()
        .expect("running stream");
    stdout_of(&output)
}

fn worker_pids(harness: &Harness) -> Vec<u64> {
    let pong = stdout_of(&harness.submit(&["--ping"]));
    let workers = pong
        .trim()
        .split(',')
        .find_map(|field| field.strip_prefix("workers="))
        .unwrap_or("");
    workers
        .split_whitespace()
        .map(|pid| pid.parse().unwrap())
        .collect()
}

/// The daemon's live metrics exposition, over its Unix socket.
fn metrics_of(harness: &Harness) -> String {
    let mut client = Client::connect(&harness.socket()).unwrap();
    match client.request(&Request::Metrics).unwrap() {
        Response::Metrics { text } => text,
        other => panic!("unexpected {other:?}"),
    }
}

/// The value of one unlabelled series of an exposition.
fn metric(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("series {series} not in exposition:\n{text}"))
        .trim()
        .parse()
        .unwrap()
}

fn job_state(harness: &Harness, job: &str) -> String {
    let line = stdout_of(&harness.submit(&["--status", job]));
    line.trim().split(',').nth(1).unwrap_or("").to_owned()
}

/// Spec used by the chaos test: paced with a per-round throttle so the
/// job takes seconds, never early-stops, and is therefore guaranteed to
/// be mid-run when the worker dies.
const CHAOS_SPEC: &[&str] = &[
    "--model",
    "gnmt",
    "--dataset",
    "iwslt15",
    "--samples",
    "4000",
    "--batch",
    "16",
    "--shards",
    "3",
    "--round",
    "16",
    "--window",
    "99999999",
    "--quant",
    "8",
    "--seed",
    "20",
];

#[test]
fn killing_a_worker_mid_round_reassigns_the_job_from_its_checkpoint() {
    let mut harness = Harness::new("killworker");
    harness.start_server(&["--jobs", "1", "--placement", "subprocess", "--workers", "2"]);

    // Offline reference (thread placement, no service) for the same spec.
    let reference = offline_stream(CHAOS_SPEC);

    // Submit detached, throttled to ~150 ms/round (≈ 16 rounds → several
    // seconds of runtime).
    let mut submit_args = CHAOS_SPEC.to_vec();
    submit_args.extend(["--throttle-ms", "150", "--job", "chaos", "--detach"]);
    let line = stdout_of(&harness.submit(&submit_args));
    assert_eq!(line.trim(), "submitted,chaos");

    // Let it get going, then SIGKILL one of the two workers.
    std::thread::sleep(Duration::from_millis(700));
    assert_eq!(job_state(&harness, "chaos"), "running");
    let pids = worker_pids(&harness);
    assert_eq!(pids.len(), 2, "expected two live workers, got {pids:?}");
    let victim = pids[0];
    let killed = Command::new("sh")
        .arg("-c")
        .arg(format!("kill -9 {victim}"))
        .status()
        .unwrap();
    assert!(killed.success());
    // The job must still be in flight at this point for the kill to
    // prove anything.
    assert_ne!(job_state(&harness, "chaos"), "done");

    // The dead worker's connection is still pooled, so the very next
    // round trips over it: the executor poisons the round, the runner
    // requeues the job, and it resumes from the last per-round
    // checkpoint on the respawned worker population — completing with
    // the exact offline selection.
    let result = stdout_of(&harness.submit(&["--result", "chaos"]));
    assert_eq!(result, reference, "post-kill selection diverged");

    // Supervision: the worker population recovers to its target size.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let pids = worker_pids(&harness);
        if pids.len() == 2 && !pids.contains(&victim) {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "worker population never recovered: {pids:?}"
        );
        std::thread::sleep(Duration::from_millis(100));
    }

    // Every round went through the fleet pool: leases and worker wire
    // traffic moved, and the workers of the last round are idle again.
    let text = metrics_of(&harness);
    for series in [
        "seqpoint_fleet_leases_total",
        "seqpoint_worker_messages_in_total",
        "seqpoint_worker_messages_out_total",
        "seqpoint_worker_bytes_in_total",
        "seqpoint_worker_bytes_out_total",
    ] {
        assert!(metric(&text, series) > 0.0, "{series} did not move");
    }
    assert!(metric(&text, "seqpoint_fleet_idle") >= 1.0, "{text}");

    harness.shutdown_and_join();
}

#[test]
fn concurrent_submissions_serve_distinct_correct_results() {
    let mut harness = Harness::new("concurrent");
    harness.start_server(&["--jobs", "2", "--placement", "subprocess", "--workers", "2"]);

    let spec_a: &[&str] = &[
        "--model",
        "gnmt",
        "--dataset",
        "iwslt15",
        "--samples",
        "6000",
        "--batch",
        "16",
        "--shards",
        "3",
        "--round",
        "32",
        "--window",
        "128",
        "--quant",
        "8",
        "--seed",
        "20",
    ];
    let spec_b: &[&str] = &[
        "--model",
        "gnmt",
        "--dataset",
        "iwslt15",
        "--samples",
        "5000",
        "--batch",
        "16",
        "--shards",
        "3",
        "--round",
        "32",
        "--window",
        "128",
        "--quant",
        "8",
        "--seed",
        "21",
    ];
    let ref_a = offline_stream(spec_a);
    let ref_b = offline_stream(spec_b);

    // Submit both without waiting, then collect both results.
    let mut detach_a = spec_a.to_vec();
    detach_a.extend(["--job", "a", "--detach"]);
    let mut detach_b = spec_b.to_vec();
    detach_b.extend(["--job", "b", "--detach"]);
    stdout_of(&harness.submit(&detach_a));
    stdout_of(&harness.submit(&detach_b));

    let out_a = stdout_of(&harness.submit(&["--result", "a"]));
    let out_b = stdout_of(&harness.submit(&["--result", "b"]));
    assert_eq!(out_a, ref_a);
    assert_eq!(out_b, ref_b);
    assert_ne!(out_a, out_b);

    harness.shutdown_and_join();
}

#[test]
fn killing_a_tcp_worker_mid_round_costs_at_most_one_round() {
    let mut harness = Harness::new("killtcpworker");
    let token = harness.write_token();
    // `--workers 0`: the daemon spawns no local workers — every round is
    // served by the externally started TCP workers below, exactly the
    // multi-node topology (workers on another machine are the same
    // command with a remote host).
    harness.start_server(&[
        "--jobs",
        "1",
        "--placement",
        "subprocess",
        "--workers",
        "0",
        "--tcp",
        "127.0.0.1:0",
        "--token-file",
        token.to_str().unwrap(),
    ]);
    let addr = harness.tcp_addr();

    let mut workers: Vec<Child> = (0..2)
        .map(|_| {
            Command::new(bin())
                .arg("worker")
                .arg("--connect")
                .arg(&addr)
                .arg("--token-file")
                .arg(&token)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawning tcp worker")
        })
        .collect();

    let reference = offline_stream(CHAOS_SPEC);

    // Submit over TCP, throttled so the kill lands mid-run.
    let mut submit_args = CHAOS_SPEC.to_vec();
    submit_args.extend(["--throttle-ms", "150", "--job", "tcp-chaos", "--detach"]);
    let line = stdout_of(&harness.submit_tcp(&addr, &submit_args));
    assert_eq!(line.trim(), "submitted,tcp-chaos");

    std::thread::sleep(Duration::from_millis(700));
    let status = stdout_of(&harness.submit_tcp(&addr, &["--status", "tcp-chaos"]));
    assert!(status.contains(",running,"), "not mid-run: {status}");

    // SIGKILL one of the two TCP workers. The poisoned round is retried
    // from the last per-round checkpoint on the surviving worker — at
    // most one round of work is repeated, none is lost, and the
    // selection is unchanged.
    let victim = workers.remove(0);
    let victim_pid = victim.id();
    let killed = Command::new("sh")
        .arg("-c")
        .arg(format!("kill -9 {victim_pid}"))
        .status()
        .unwrap();
    assert!(killed.success());
    {
        let mut victim = victim;
        let _ = victim.wait();
    }
    let status = stdout_of(&harness.submit_tcp(&addr, &["--status", "tcp-chaos"]));
    assert!(
        !status.contains(",done,"),
        "job finished before the kill; chaos untested: {status}"
    );

    let result = stdout_of(&harness.submit_tcp(&addr, &["--result", "tcp-chaos"]));
    assert_eq!(result, reference, "post-kill TCP selection diverged");

    // An unauthenticated client is still locked out while all this runs.
    let unauthenticated = Command::new(bin())
        .arg("submit")
        .arg("--connect")
        .arg(&addr)
        .arg("--ping")
        .output()
        .unwrap();
    assert!(!unauthenticated.status.success());

    harness.shutdown_and_join();
    for mut worker in workers {
        // Drain closed the pooled connections; the survivor exits on its
        // own. Reap it (kill first in case the drain raced).
        let _ = worker.kill();
        let _ = worker.wait();
    }
}

#[test]
fn worker_subcommand_fails_cleanly_without_a_server() {
    let missing = std::env::temp_dir().join(format!("seqpoint-e2e-nosock-{}", std::process::id()));
    let output = Command::new(bin())
        .arg("worker")
        .arg("--socket")
        .arg(&missing)
        .output()
        .unwrap();
    assert!(!output.status.success());
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(stderr.contains("connecting"), "unhelpful error: {stderr}");
}
