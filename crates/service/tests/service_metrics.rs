//! End-to-end tests of the metrics surface: counter monotonicity
//! across a served job, exact byte accounting against a transcript the
//! test records itself, the plaintext scrape endpoint, and the
//! registry restarting zeroed with the daemon.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::time::Duration;

use seqpoint_core::protocol::{encode_frame, JobSpec, Request, Response, PROTOCOL_VERSION};
use seqpoint_core::stream::StreamConfig;
use seqpoint_service::client::Client;
use seqpoint_service::{serve, ServeConfig};

/// A unique scratch dir (sockets + state) removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("seqpoint-met-{}-{tag}", std::process::id()));
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

/// Fetch the live exposition over the protocol.
fn fetch_metrics(client: &mut Client) -> String {
    match client.request(&Request::Metrics).unwrap() {
        Response::Metrics { text } => text,
        other => panic!("unexpected {other:?}"),
    }
}

/// The value of one series: `series` is the full sample name including
/// any label set (`seqpoint_queue_depth{class="interactive"}`).
fn metric(text: &str, series: &str) -> u64 {
    sample(text, series).parse().unwrap()
}

/// A fractional-millisecond series (the stage wall-time family).
fn metric_ms(text: &str, series: &str) -> f64 {
    sample(text, series).parse().unwrap()
}

fn sample<'t>(text: &'t str, series: &str) -> &'t str {
    for line in text.lines() {
        if line.starts_with('#') {
            continue;
        }
        if let Some(rest) = line.strip_prefix(series) {
            if let Some(value) = rest.strip_prefix(' ') {
                return value.trim();
            }
        }
    }
    panic!("series {series} not in exposition:\n{text}");
}

#[test]
fn counters_are_monotone_across_a_served_job() {
    let scratch = Scratch::new("monotone");
    let handle = start_server(ServeConfig::new(scratch.socket(), scratch.state()));
    let socket = scratch.socket();
    let mut client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();

    let before = fetch_metrics(&mut client);
    let id = client.submit(None, quick_spec(3_000, 5)).unwrap();
    client.wait_result(&id).unwrap();
    let after = fetch_metrics(&mut client);

    // The job shows up in every layer it crossed: admission, cache,
    // scheduler, executor, terminal accounting.
    assert_eq!(
        metric(&after, "seqpoint_jobs_submitted_total"),
        metric(&before, "seqpoint_jobs_submitted_total") + 1
    );
    assert_eq!(
        metric(&after, "seqpoint_jobs_completed_total"),
        metric(&before, "seqpoint_jobs_completed_total") + 1
    );
    assert_eq!(
        metric(&after, "seqpoint_cache_misses_total"),
        metric(&before, "seqpoint_cache_misses_total") + 1
    );
    assert_eq!(
        metric(
            &after,
            "seqpoint_queue_dequeued_total{class=\"interactive\"}"
        ),
        metric(
            &before,
            "seqpoint_queue_dequeued_total{class=\"interactive\"}"
        ) + 1
    );
    assert!(metric(&after, "seqpoint_rounds_total") > metric(&before, "seqpoint_rounds_total"));
    assert!(metric(&after, "seqpoint_items_total") > metric(&before, "seqpoint_items_total"));

    // The job ran through the operator graph with the registry attached
    // as its per-stage meter, so every pipeline stage shows traffic.
    for stage in ["source", "fold", "merge", "gate"] {
        let series = format!("seqpoint_stage_items_in_total{{stage=\"{stage}\"}}");
        assert!(
            metric(&after, &series) > metric(&before, &series),
            "{series} did not move across a served job"
        );
    }
    // Stage wall time is recorded at microsecond resolution, so even a
    // small served job's fold adds a fractional, non-zero amount.
    assert!(
        metric_ms(&after, "seqpoint_stage_wall_ms_total{stage=\"fold\"}")
            > metric_ms(&before, "seqpoint_stage_wall_ms_total{stage=\"fold\"}")
    );

    // Counters never move backwards, whatever else the daemon did.
    let final_view = fetch_metrics(&mut client);
    for series in [
        "seqpoint_connections_opened_total",
        "seqpoint_messages_in_total",
        "seqpoint_messages_out_total",
        "seqpoint_bytes_in_total",
        "seqpoint_bytes_out_total",
        "seqpoint_jobs_submitted_total",
        "seqpoint_jobs_completed_total",
        "seqpoint_rounds_total",
        "seqpoint_round_wall_ms_total",
        "seqpoint_items_total",
        "seqpoint_cache_misses_total",
    ] {
        assert!(
            metric(&final_view, series) >= metric(&after, series),
            "{series} went backwards"
        );
    }

    shutdown(&socket);
    handle.join().unwrap();
}

#[test]
fn byte_counts_match_a_recorded_transcript() {
    let scratch = Scratch::new("transcript");
    let handle = start_server(ServeConfig::new(scratch.socket(), scratch.state()));
    let socket = scratch.socket();
    // Wait for readiness with a throwaway connection, then speak raw
    // NDJSON so the test can record the exact bytes on the wire.
    drop(Client::connect_ready(&socket, Duration::from_secs(10)).unwrap());

    let mut stream = UnixStream::connect(&socket).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut sent = 0u64; // request bytes after identity was announced
    let mut received = 0u64; // response bytes after identity was announced
    let exchange = |stream: &mut UnixStream,
                    reader: &mut BufReader<UnixStream>,
                    request: &Request|
     -> (String, u64, u64) {
        let line = format!("{}\n", encode_frame(request));
        stream.write_all(line.as_bytes()).unwrap();
        let mut response = String::new();
        reader.read_line(&mut response).unwrap();
        (response.clone(), line.len() as u64, response.len() as u64)
    };

    // The Hello itself arrives before the identity is known, so its
    // bytes land only in the global/per-connection series — but its
    // Welcome response is sent *after* and is attributed.
    let hello = Request::Hello {
        version: PROTOCOL_VERSION,
        token: None,
        client: Some("transcript".to_owned()),
    };
    let (welcome, _, welcome_len) = exchange(&mut stream, &mut reader, &hello);
    assert!(welcome.contains("Welcome"), "{welcome}");
    received += welcome_len;

    let (pong, ping_len, pong_len) = exchange(&mut stream, &mut reader, &Request::Ping);
    assert!(pong.contains("Pong"), "{pong}");
    sent += ping_len;
    received += pong_len;

    let (error, status_len, error_len) = exchange(
        &mut stream,
        &mut reader,
        &Request::Status {
            job: "nope".to_owned(),
        },
    );
    assert!(error.contains("Error"), "{error}");
    sent += status_len;
    received += error_len;

    // The Metrics request line is counted before the registry renders,
    // so it is part of the expected inbound bytes; the Metrics response
    // is rendered first and sent after, so it is not part of outbound.
    let metrics_line = format!("{}\n", encode_frame(&Request::Metrics));
    sent += metrics_line.len() as u64;
    stream.write_all(metrics_line.as_bytes()).unwrap();
    let mut response = String::new();
    reader.read_line(&mut response).unwrap();
    let text = match seqpoint_core::protocol::decode_frame::<Response>(&response).unwrap() {
        Response::Metrics { text } => text,
        other => panic!("unexpected {other:?}"),
    };

    let series = |name: &str| format!("{name}{{client=\"transcript\"}}");
    assert_eq!(
        metric(&text, &series("seqpoint_client_bytes_in_total")),
        sent
    );
    assert_eq!(
        metric(&text, &series("seqpoint_client_bytes_out_total")),
        received
    );
    // Frames after the identity was announced: Ping, Status, Metrics in;
    // Welcome, Pong, Error out.
    assert_eq!(
        metric(&text, &series("seqpoint_client_messages_in_total")),
        3
    );
    assert_eq!(
        metric(&text, &series("seqpoint_client_messages_out_total")),
        3
    );

    drop(stream);
    shutdown(&socket);
    handle.join().unwrap();
}

#[test]
fn scrape_endpoint_serves_get_and_rejects_garbage() {
    let scratch = Scratch::new("scrape");
    let config = ServeConfig {
        metrics_addr: Some("127.0.0.1:0".to_owned()),
        ..ServeConfig::new(scratch.socket(), scratch.state())
    };
    let handle = start_server(config);
    let socket = scratch.socket();
    let mut client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();

    // The ephemeral port is published for scripts (and this test).
    let addr = std::fs::read_to_string(scratch.state().join("serve.metrics")).unwrap();
    let addr = addr.trim().to_owned();

    let scrape = |request: &str| -> String {
        let mut conn = TcpStream::connect(&addr).unwrap();
        conn.write_all(request.as_bytes()).unwrap();
        let mut response = String::new();
        conn.read_to_string(&mut response).unwrap();
        response
    };

    let ok = scrape("GET / HTTP/1.0\r\n\r\n");
    assert!(ok.starts_with("HTTP/1.0 200 OK\r\n"), "{ok}");
    assert!(ok.contains("Content-Type: text/plain"), "{ok}");
    for name in [
        "seqpoint_uptime_seconds",
        "seqpoint_connections_opened_total",
        "seqpoint_jobs_submitted_total",
        "seqpoint_rounds_total",
        "seqpoint_cache_misses_total",
        "seqpoint_fleet_idle",
        "seqpoint_stage_items_in_total{stage=\"source\"}",
    ] {
        assert!(ok.contains(name), "scrape is missing {name}:\n{ok}");
    }

    // Anything that is not a GET gets a 400 and a hint, not a hang or
    // a crash — and the daemon keeps serving afterwards.
    let bad = scrape("POTATO / HTTP/1.0\r\n\r\n");
    assert!(bad.starts_with("HTTP/1.0 400 Bad Request\r\n"), "{bad}");
    let empty = scrape("\r\n");
    assert!(empty.starts_with("HTTP/1.0 400 Bad Request\r\n"), "{empty}");
    let again = scrape("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n");
    assert!(again.starts_with("HTTP/1.0 200 OK\r\n"), "{again}");

    // The protocol surface agrees with the scrape surface.
    let wire = fetch_metrics(&mut client);
    assert!(wire.contains("seqpoint_uptime_seconds"));

    shutdown(&socket);
    handle.join().unwrap();
    assert!(
        !scratch.state().join("serve.metrics").exists(),
        "drain must remove the published metrics address"
    );
}

#[test]
fn stale_metrics_address_from_a_crash_is_cleared_at_startup() {
    let scratch = Scratch::new("stalemet");
    std::fs::create_dir_all(scratch.state()).unwrap();
    let stale_path = scratch.state().join("serve.metrics");

    // A daemon killed with SIGKILL leaves its published metrics address
    // behind. A restart without a metrics endpoint must clear it before
    // serving, or scripts would keep discovering a dead (possibly
    // reused) port — the same hazard `serve.tcp` already guards.
    std::fs::write(&stale_path, "127.0.0.1:1\n").unwrap();
    let handle = start_server(ServeConfig::new(scratch.socket(), scratch.state()));
    let socket = scratch.socket();
    drop(Client::connect_ready(&socket, Duration::from_secs(10)).unwrap());
    assert!(
        !stale_path.exists(),
        "stale serve.metrics survived a metrics-less restart"
    );
    shutdown(&socket);
    handle.join().unwrap();

    // With a metrics endpoint configured, the stale address is replaced
    // by the freshly bound one — and that one actually answers.
    std::fs::write(&stale_path, "127.0.0.1:1\n").unwrap();
    let handle = start_server(ServeConfig {
        metrics_addr: Some("127.0.0.1:0".to_owned()),
        ..ServeConfig::new(scratch.socket(), scratch.state())
    });
    drop(Client::connect_ready(&socket, Duration::from_secs(10)).unwrap());
    let published = std::fs::read_to_string(&stale_path).unwrap();
    let published = published.trim();
    assert_ne!(published, "127.0.0.1:1", "stale address was republished");
    let mut conn = TcpStream::connect(published).unwrap();
    conn.write_all(b"GET / HTTP/1.0\r\n\r\n").unwrap();
    let mut response = String::new();
    conn.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.0 200 OK\r\n"), "{response}");

    shutdown(&socket);
    handle.join().unwrap();
}

#[test]
fn registry_restarts_zeroed_with_the_daemon() {
    let scratch = Scratch::new("restart");
    let socket = scratch.socket();

    // First daemon lifetime: serve one job to completion.
    let handle = start_server(ServeConfig::new(&socket, scratch.state()));
    let mut client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();
    let id = client.submit(None, quick_spec(3_000, 5)).unwrap();
    client.wait_result(&id).unwrap();
    let first = fetch_metrics(&mut client);
    assert_eq!(metric(&first, "seqpoint_jobs_completed_total"), 1);
    assert!(metric(&first, "seqpoint_rounds_total") > 0);
    let _ = client.request(&Request::Shutdown);
    handle.join().unwrap();

    // Second lifetime over the same state dir: jobs are recovered, the
    // registry is not — counters are per-daemon-lifetime by design.
    let handle = start_server(ServeConfig::new(&socket, scratch.state()));
    let mut client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();
    let second = fetch_metrics(&mut client);
    assert_eq!(metric(&second, "seqpoint_jobs_submitted_total"), 0);
    assert_eq!(metric(&second, "seqpoint_jobs_completed_total"), 0);
    assert_eq!(metric(&second, "seqpoint_rounds_total"), 0);
    assert_eq!(metric(&second, "seqpoint_items_total"), 0);
    // The recovered result is still served — from the rebuilt cache,
    // which counts in the *new* lifetime.
    let dup = client.submit(None, quick_spec(3_000, 5)).unwrap();
    client.wait_result(&dup).unwrap();
    let after = fetch_metrics(&mut client);
    assert_eq!(metric(&after, "seqpoint_cache_hits_total"), 1);
    assert_eq!(metric(&after, "seqpoint_jobs_submitted_total"), 1);

    shutdown(&socket);
    handle.join().unwrap();
}
