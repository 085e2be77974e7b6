//! End-to-end service tests under thread placement (no subprocesses
//! needed): the full status/result/cancel vocabulary, concurrent jobs,
//! queue backpressure, and drain → restart → resume — all against an
//! in-process `serve()` on a temp socket.

use std::path::PathBuf;
use std::time::Duration;

use seqpoint_core::protocol::{JobSpec, JobState, Request, Response};
use seqpoint_core::stream::StreamConfig;
use seqpoint_service::client::Client;
use seqpoint_service::spec::{render_streamed, resolve};
use seqpoint_service::{serve, ServeConfig};
use sqnn_profiler::stream::profile_epoch_streaming;
use sqnn_profiler::Profiler;

/// A unique scratch dir (sockets + state) removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("seqpoint-svc-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Scratch(dir)
    }

    fn socket(&self) -> PathBuf {
        self.0.join("sock")
    }

    fn state(&self) -> PathBuf {
        self.0.join("state")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The standard quick-scale job of the smoke tests.
fn quick_spec(samples: u64, seed: u64) -> JobSpec {
    JobSpec {
        model: "gnmt".to_owned(),
        dataset: "iwslt15".to_owned(),
        samples,
        seed,
        batch: 16,
        shards: 3,
        round_len: 32,
        stream: StreamConfig {
            saturation_window: 128,
            unseen_threshold: 0.05,
            quantization: 8,
            ..StreamConfig::default()
        },
        ..JobSpec::default()
    }
}

/// What `seqpoint stream` would print for this spec — computed offline.
fn offline_reference(spec: &JobSpec) -> String {
    let resolved = resolve(spec).unwrap();
    let streamed = profile_epoch_streaming(
        &Profiler::new(),
        &resolved.network,
        &resolved.plan,
        &resolved.device,
        &resolved.options,
    )
    .unwrap();
    render_streamed(&spec.model, &spec.dataset, spec.config, &streamed)
}

fn start_server(config: ServeConfig) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        serve(config).expect("serve failed");
    })
}

fn shutdown(socket: &std::path::Path) {
    if let Ok(mut client) = Client::connect(socket) {
        let _ = client.request(&Request::Shutdown);
    }
}

const INTERACTIVE_DEPTH: &str = "seqpoint_queue_depth{class=\"interactive\"}";

/// The live metrics exposition, over the protocol.
fn fetch_metrics(client: &mut Client) -> String {
    match client.request(&Request::Metrics).unwrap() {
        Response::Metrics { text } => text,
        other => panic!("unexpected {other:?}"),
    }
}

/// The value of one series: `series` is the full sample name including
/// any label set (`seqpoint_queue_depth{class="interactive"}`).
fn metric(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("series {series} not in exposition:\n{text}"))
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn concurrent_jobs_match_offline_stream_byte_for_byte() {
    let scratch = Scratch::new("concurrent");
    let config = ServeConfig {
        job_slots: 2,
        queue_cap: 8,
        ..ServeConfig::new(scratch.socket(), scratch.state())
    };
    let handle = start_server(config);
    let socket = scratch.socket();
    let mut client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();

    // Two different corpora, submitted concurrently.
    let spec_a = quick_spec(6_000, 20);
    let spec_b = quick_spec(5_000, 21);
    let id_a = client
        .submit(Some("alpha".to_owned()), spec_a.clone())
        .unwrap();
    let id_b = client.submit(None, spec_b.clone()).unwrap();
    assert_eq!(id_a, "alpha");
    assert_eq!(id_b, "job-1");

    // Each served result is byte-identical to the offline run.
    let waiter = {
        let socket = socket.clone();
        let id_b = id_b.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&socket).unwrap();
            client.wait_result(&id_b).unwrap()
        })
    };
    let out_a = client.wait_result(&id_a).unwrap();
    let out_b = waiter.join().unwrap();
    assert_eq!(out_a, offline_reference(&spec_a));
    assert_eq!(out_b, offline_reference(&spec_b));
    assert_ne!(out_a, out_b);

    // Status vocabulary on a terminal job.
    match client
        .request(&Request::Status { job: id_a.clone() })
        .unwrap()
    {
        Response::Status { state, .. } => assert_eq!(state, JobState::Done),
        other => panic!("unexpected {other:?}"),
    }
    // Unknown jobs error politely.
    assert!(matches!(
        client
            .request(&Request::Status {
                job: "nope".to_owned()
            })
            .unwrap(),
        Response::Error { .. }
    ));
    // Non-wait result on a done job returns immediately.
    match client
        .request(&Request::Result {
            job: id_a,
            wait: false,
        })
        .unwrap()
    {
        Response::Result { output, .. } => assert_eq!(output, out_a),
        other => panic!("unexpected {other:?}"),
    }

    shutdown(&socket);
    handle.join().unwrap();
}

#[test]
fn backpressure_rejects_when_the_queue_is_full() {
    let scratch = Scratch::new("backpressure");
    let config = ServeConfig {
        job_slots: 1,
        queue_cap: 1,
        ..ServeConfig::new(scratch.socket(), scratch.state())
    };
    let handle = start_server(config);
    let socket = scratch.socket();
    let mut client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();

    // A slow job occupies the single slot...
    let slow = JobSpec {
        throttle_ms: 100,
        ..quick_spec(6_000, 20)
    };
    client.submit(Some("slow".to_owned()), slow).unwrap();
    // Give the runner a moment to claim it so the next submit queues.
    std::thread::sleep(Duration::from_millis(300));
    // ... one job fits the queue ...
    client
        .submit(Some("queued".to_owned()), quick_spec(3_000, 5))
        .unwrap();
    // ... and the next is rejected with backpressure, not an error.
    let rejected = client.request(&Request::Submit {
        job: Some("overflow".to_owned()),
        spec: quick_spec(3_000, 6),
    });
    match rejected.unwrap() {
        Response::Rejected { reason } => assert!(reason.contains("queue full"), "{reason}"),
        other => panic!("expected backpressure, got {other:?}"),
    }
    // Duplicate ids are rejected too.
    assert!(matches!(
        client
            .request(&Request::Submit {
                job: Some("queued".to_owned()),
                spec: quick_spec(3_000, 7),
            })
            .unwrap(),
        Response::Rejected { .. }
    ));

    shutdown(&socket);
    handle.join().unwrap();
}

#[test]
fn cancel_queued_and_running_jobs() {
    let scratch = Scratch::new("cancel");
    let config = ServeConfig {
        job_slots: 1,
        queue_cap: 8,
        ..ServeConfig::new(scratch.socket(), scratch.state())
    };
    let handle = start_server(config);
    let socket = scratch.socket();
    let mut client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();

    // A throttled job holds the slot; the second job sits queued.
    let running = JobSpec {
        throttle_ms: 150,
        ..quick_spec(6_000, 20)
    };
    client.submit(Some("running".to_owned()), running).unwrap();
    client
        .submit(Some("waiting".to_owned()), quick_spec(3_000, 5))
        .unwrap();
    // "waiting" cannot leave the queue while "running" holds the only
    // slot (and "running" may not have left it yet either).
    let queued = fetch_metrics(&mut client);
    assert!(metric(&queued, INTERACTIVE_DEPTH) >= 1.0, "{queued}");

    // Cancel the queued job: immediate.
    assert!(matches!(
        client
            .request(&Request::Cancel {
                job: "waiting".to_owned()
            })
            .unwrap(),
        Response::Cancelled { .. }
    ));
    match client
        .request(&Request::Status {
            job: "waiting".to_owned(),
        })
        .unwrap()
    {
        Response::Status { state, .. } => assert_eq!(state, JobState::Cancelled),
        other => panic!("unexpected {other:?}"),
    }

    // Cancel the running job: cooperative, lands within a few rounds.
    std::thread::sleep(Duration::from_millis(200));
    let running = fetch_metrics(&mut client);
    assert_eq!(metric(&running, "seqpoint_jobs_running"), 1.0);
    assert_eq!(metric(&running, INTERACTIVE_DEPTH), 0.0);
    assert_eq!(metric(&running, "seqpoint_jobs_cancelled_total"), 1.0);
    assert!(matches!(
        client
            .request(&Request::Cancel {
                job: "running".to_owned()
            })
            .unwrap(),
        Response::Cancelled { .. } | Response::Error { .. }
    ));
    let deadline = std::time::Instant::now() + Duration::from_secs(30);
    loop {
        match client
            .request(&Request::Status {
                job: "running".to_owned(),
            })
            .unwrap()
        {
            Response::Status { state, .. } if state.is_terminal() => {
                // Normally Cancelled; Done only if the job finished in
                // the race window before the flag was checked.
                assert!(
                    state == JobState::Cancelled || state == JobState::Done,
                    "unexpected terminal state {state:?}"
                );
                break;
            }
            Response::Status { .. } => std::thread::sleep(Duration::from_millis(100)),
            other => panic!("unexpected {other:?}"),
        }
        assert!(std::time::Instant::now() < deadline, "cancel never landed");
    }
    let settled = fetch_metrics(&mut client);
    assert_eq!(metric(&settled, "seqpoint_jobs_running"), 0.0);

    shutdown(&socket);
    handle.join().unwrap();
}

#[test]
fn drain_checkpoints_and_restart_resumes_identically() {
    let scratch = Scratch::new("drain");
    let socket = scratch.socket();
    let spec = JobSpec {
        // Never early-stops and paced at 80 ms/round: the drain lands
        // mid-run deterministically, rounds before the last one starts.
        throttle_ms: 80,
        stream: StreamConfig {
            saturation_window: u64::MAX,
            ..StreamConfig::default()
        },
        ..quick_spec(4_000, 20)
    };
    let reference = offline_reference(&spec);

    // First server: submit, let it run a little, then drain via the
    // protocol (the SIGTERM path is exercised by scripts/smoke_service.sh
    // against the real binary).
    let handle = start_server(ServeConfig {
        job_slots: 1,
        ..ServeConfig::new(&socket, scratch.state())
    });
    let mut client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();
    client.submit(Some("longjob".to_owned()), spec).unwrap();
    std::thread::sleep(Duration::from_millis(400));
    let _ = client.request(&Request::Shutdown);
    handle.join().unwrap();

    // The drain checkpointed the in-flight job.
    assert!(scratch.state().join("longjob.ckpt.json").exists());
    assert!(scratch.state().join("longjob.spec.json").exists());
    assert!(!scratch.state().join("longjob.result.txt").exists());

    // Second server: recovery requeues the job; it resumes from the
    // checkpoint and completes byte-identically to the offline run.
    let handle = start_server(ServeConfig {
        job_slots: 1,
        ..ServeConfig::new(&socket, scratch.state())
    });
    let mut client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();
    let output = client.wait_result("longjob").unwrap();
    assert_eq!(output, reference);

    shutdown(&socket);
    handle.join().unwrap();
}

#[test]
fn client_chosen_job_n_ids_do_not_collide_with_auto_ids() {
    let scratch = Scratch::new("autoid");
    let handle = start_server(ServeConfig::new(scratch.socket(), scratch.state()));
    let socket = scratch.socket();
    let mut client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();

    // Claim `job-3` explicitly; the auto counter must skip past it.
    client
        .submit(Some("job-3".to_owned()), quick_spec(3_000, 1))
        .unwrap();
    let auto = client.submit(None, quick_spec(3_000, 2)).unwrap();
    assert_eq!(auto, "job-4", "auto id must not collide with job-3");
    assert!(client.wait_result("job-3").is_ok());
    assert!(client.wait_result(&auto).is_ok());

    shutdown(&socket);
    handle.join().unwrap();
}

#[test]
fn max_rounds_preemption_requeues_until_complete() {
    let scratch = Scratch::new("preempt");
    let config = ServeConfig {
        job_slots: 1,
        ..ServeConfig::new(scratch.socket(), scratch.state())
    };
    let handle = start_server(config);
    let socket = scratch.socket();
    let mut client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();

    // A 2-round preemption budget forces many pause/requeue cycles —
    // which must not eat the worker-loss retry allowance, and must end
    // in the exact offline selection.
    let spec = JobSpec {
        max_rounds: Some(2),
        ..quick_spec(6_000, 20)
    };
    let reference = offline_reference(&quick_spec(6_000, 20));
    let id = client.submit(Some("yielding".to_owned()), spec).unwrap();
    let output = client.wait_result(&id).unwrap();
    assert_eq!(output, reference);

    shutdown(&socket);
    handle.join().unwrap();
}

#[test]
fn second_server_on_a_live_socket_is_refused() {
    let scratch = Scratch::new("hijack");
    let handle = start_server(ServeConfig::new(scratch.socket(), scratch.state()));
    let socket = scratch.socket();
    let _client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();

    // A second daemon on the same socket must refuse, not hijack the
    // live server's socket (and its state dir's checkpoint files).
    let err = serve(ServeConfig::new(scratch.socket(), scratch.state())).unwrap_err();
    assert!(
        err.to_string().contains("already listening"),
        "unexpected error: {err}"
    );

    // The first server is unharmed.
    let mut client = Client::connect(&socket).unwrap();
    let id = client.submit(None, quick_spec(3_000, 9)).unwrap();
    assert!(client.wait_result(&id).is_ok());

    shutdown(&socket);
    handle.join().unwrap();
}

#[test]
fn bad_specs_fail_the_job_not_the_server() {
    let scratch = Scratch::new("badspec");
    let handle = start_server(ServeConfig::new(scratch.socket(), scratch.state()));
    let socket = scratch.socket();
    let mut client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();

    let bad = JobSpec {
        model: "not-a-model".to_owned(),
        ..quick_spec(1_000, 1)
    };
    let id = client.submit(None, bad).unwrap();
    let err = client.wait_result(&id).unwrap_err();
    assert!(err.to_string().contains("unknown model"), "{err}");

    assert_eq!(
        metric(&fetch_metrics(&mut client), "seqpoint_jobs_failed_total"),
        1.0
    );

    // The server is still healthy.
    let good = client.submit(None, quick_spec(3_000, 5)).unwrap();
    assert!(client.wait_result(&good).is_ok());

    shutdown(&socket);
    handle.join().unwrap();
}
