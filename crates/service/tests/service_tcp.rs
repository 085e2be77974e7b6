//! Loopback end-to-end tests of the TCP transport: token auth gating,
//! concurrent TCP clients, TCP-vs-Unix-vs-offline byte-identity,
//! terminal-job retention, and the client-side timeout/connect_ready
//! regressions — all against an in-process `serve()`.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::time::{Duration, Instant};

use seqpoint_core::protocol::{
    decode_frame, encode_frame, JobSpec, Request, Response, PROTOCOL_VERSION,
};
use seqpoint_core::stream::StreamConfig;
use seqpoint_service::client::{Client, ClientOptions};
use seqpoint_service::spec::{render_streamed, resolve};
use seqpoint_service::{serve, Endpoint, ServeConfig, ServiceError};
use sqnn_profiler::stream::profile_epoch_streaming;
use sqnn_profiler::Profiler;

/// A unique scratch dir (sockets + state) removed on drop.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("seqpoint-tcp-{}-{tag}", std::process::id()));
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

    /// Poll the daemon's published TCP address file until it appears.
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
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const TOKEN: &str = "tcp-suite-s3cret";

fn tcp_config(scratch: &Scratch) -> ServeConfig {
    ServeConfig {
        tcp: Some("127.0.0.1:0".to_owned()),
        token: Some(TOKEN.to_owned()),
        ..ServeConfig::new(scratch.socket(), scratch.state())
    }
}

fn tcp_options() -> ClientOptions {
    ClientOptions::default().with_token(TOKEN)
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

/// Write one raw frame line and read one raw response line on a bare
/// TCP stream (bypassing `Client`'s handshake).
fn raw_roundtrip(stream: &mut TcpStream, request: &Request) -> Response {
    let mut line = encode_frame(request);
    line.push('\n');
    stream.write_all(line.as_bytes()).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = String::new();
    let n = reader.read_line(&mut reply).unwrap();
    assert!(n > 0, "server closed before replying");
    decode_frame(&reply).unwrap()
}

/// The live metrics exposition, over the protocol.
fn fetch_metrics(client: &mut Client) -> String {
    match client.request(&Request::Metrics).unwrap() {
        Response::Metrics { text } => text,
        other => panic!("unexpected {other:?}"),
    }
}

/// The value of one series: `series` is the full sample name including
/// any label set (`seqpoint_client_bytes_in_total{client=""}`).
fn metric(text: &str, series: &str) -> f64 {
    text.lines()
        .find_map(|line| line.strip_prefix(series)?.strip_prefix(' '))
        .unwrap_or_else(|| panic!("series {series} not in exposition:\n{text}"))
        .trim()
        .parse()
        .unwrap()
}

#[test]
fn tcp_served_jobs_match_unix_and_offline_byte_for_byte() {
    let scratch = Scratch::new("identity");
    let config = ServeConfig {
        job_slots: 2,
        queue_cap: 8,
        ..tcp_config(&scratch)
    };
    let handle = start_server(config);
    let endpoint = Endpoint::tcp(scratch.tcp_addr());

    // Two concurrent TCP clients, two different corpora.
    let spec_a = quick_spec(6_000, 20);
    let spec_b = quick_spec(5_000, 21);
    let mut client =
        Client::open_ready(&endpoint, &tcp_options(), Duration::from_secs(10)).unwrap();
    client
        .submit(Some("tcp-a".to_owned()), spec_a.clone())
        .unwrap();
    let waiter = {
        let endpoint = endpoint.clone();
        let spec_b = spec_b.clone();
        std::thread::spawn(move || {
            let mut other = Client::open(&endpoint, &tcp_options()).unwrap();
            other.submit(Some("tcp-b".to_owned()), spec_b).unwrap();
            other.wait_result("tcp-b").unwrap()
        })
    };
    let out_a = client.wait_result("tcp-a").unwrap();
    let out_b = waiter.join().unwrap();
    assert_eq!(out_a, offline_reference(&spec_a));
    assert_eq!(out_b, offline_reference(&spec_b));
    assert_ne!(out_a, out_b);

    // The same result read back over the Unix socket is the same bytes:
    // one job store, two transports.
    let mut unix = Client::connect(&scratch.socket()).unwrap();
    assert_eq!(unix.wait_result("tcp-a").unwrap(), out_a);

    // And a fresh submission of spec_a over Unix renders identically.
    let id = unix.submit(None, spec_a).unwrap();
    assert_eq!(unix.wait_result(&id).unwrap(), out_a);

    shutdown(&scratch.socket());
    handle.join().unwrap();
}

#[test]
fn unauthenticated_tcp_connections_are_rejected_before_any_job_state() {
    let scratch = Scratch::new("auth");
    let handle = start_server(tcp_config(&scratch));
    let addr = scratch.tcp_addr();
    let endpoint = Endpoint::tcp(addr.clone());
    // Wait until the daemon answers authenticated pings.
    let mut good = Client::open_ready(&endpoint, &tcp_options(), Duration::from_secs(10)).unwrap();

    // 1. A frame before any handshake: one error line, then EOF — and
    //    the submit must not have created a job.
    let mut bare = TcpStream::connect(addr.as_str()).unwrap();
    let reply = raw_roundtrip(
        &mut bare,
        &Request::Submit {
            job: Some("intruder".to_owned()),
            spec: quick_spec(1_000, 1),
        },
    );
    match reply {
        Response::Error { reason } => assert!(reason.contains("authentication"), "{reason}"),
        other => panic!("expected an auth error, got {other:?}"),
    }
    let mut rest = Vec::new();
    bare.read_to_end(&mut rest).unwrap();
    assert!(
        rest.is_empty(),
        "connection must close after the error line"
    );

    // 2. A wrong token in the handshake is refused the same way.
    let mut wrong = TcpStream::connect(addr.as_str()).unwrap();
    let reply = raw_roundtrip(
        &mut wrong,
        &Request::Hello {
            version: PROTOCOL_VERSION,
            token: Some("not-the-token".to_owned()),
            client: None,
        },
    );
    assert!(matches!(reply, Response::Error { .. }), "{reply:?}");

    // 3. A missing token through the real client surfaces as Auth.
    let no_token = Client::open(&endpoint, &ClientOptions::default().with_io_timeout(None));
    assert!(matches!(no_token, Err(ServiceError::Auth(_))));

    // 4. A protocol version mismatch is refused before auth succeeds.
    let mut stale = TcpStream::connect(addr.as_str()).unwrap();
    let reply = raw_roundtrip(
        &mut stale,
        &Request::Hello {
            version: PROTOCOL_VERSION + 1,
            token: Some(TOKEN.to_owned()),
            client: None,
        },
    );
    match reply {
        Response::Error { reason } => assert!(reason.contains("version"), "{reason}"),
        other => panic!("expected a version error, got {other:?}"),
    }

    // No job state was touched by any of it.
    match good.request(&Request::Ping).unwrap() {
        Response::Pong {
            queued, running, ..
        } => {
            assert_eq!(queued, 0);
            assert_eq!(running, 0);
        }
        other => panic!("unexpected {other:?}"),
    }
    assert!(matches!(
        good.request(&Request::Status {
            job: "intruder".to_owned()
        })
        .unwrap(),
        Response::Error { .. }
    ));

    // The refused peers' frames count under the anonymous client, and
    // no client label series was minted for any of them. The first
    // peer saw EOF, so its connection has been counted closed; `good`
    // is still open.
    let text = fetch_metrics(&mut good);
    let anon = "seqpoint_client_bytes_in_total{client=\"\"}";
    assert!(metric(&text, anon) > 0.0, "{text}");
    assert!(
        text.lines()
            .filter(|line| line.contains("{client="))
            .all(|line| line.contains("{client=\"\"}")),
        "{text}"
    );
    assert!(metric(&text, "seqpoint_connections_closed_total") >= 1.0);
    assert!(metric(&text, "seqpoint_connections_open") >= 1.0);

    shutdown(&scratch.socket());
    handle.join().unwrap();
}

#[test]
fn serve_refuses_tcp_without_a_token_and_zero_retention() {
    let scratch = Scratch::new("badconfig");
    let tokenless = ServeConfig {
        tcp: Some("127.0.0.1:0".to_owned()),
        ..ServeConfig::new(scratch.socket(), scratch.state())
    };
    let err = serve(tokenless).unwrap_err();
    assert!(err.to_string().contains("token"), "{err}");

    let zero_retention = ServeConfig {
        retain_jobs: Some(0),
        ..ServeConfig::new(scratch.socket(), scratch.state())
    };
    let err = serve(zero_retention).unwrap_err();
    assert!(err.to_string().contains("retain"), "{err}");

    let zero_ttl = ServeConfig {
        retain_for: Some(Duration::ZERO),
        ..ServeConfig::new(scratch.socket(), scratch.state())
    };
    let err = serve(zero_ttl).unwrap_err();
    assert!(err.to_string().contains("retain_for"), "{err}");
}

#[test]
fn terminal_job_retention_evicts_oldest_first_and_survives_restart() {
    let scratch = Scratch::new("retention");
    let config = ServeConfig {
        job_slots: 1,
        retain_jobs: Some(2),
        ..ServeConfig::new(scratch.socket(), scratch.state())
    };
    let handle = start_server(config);
    let socket = scratch.socket();
    let mut client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();

    // Four sequential jobs; with a bound of 2 the first two must be
    // gone — map entry, spec file, and result file alike.
    for (i, seed) in [1u64, 2, 3, 4].iter().enumerate() {
        let id = format!("ret-{i}");
        client
            .submit(Some(id.clone()), quick_spec(2_000, *seed))
            .unwrap();
        client.wait_result(&id).unwrap();
    }
    for gone in ["ret-0", "ret-1"] {
        assert!(
            matches!(
                client
                    .request(&Request::Status {
                        job: gone.to_owned()
                    })
                    .unwrap(),
                Response::Error { .. }
            ),
            "{gone} should have been evicted"
        );
        assert!(!scratch.state().join(format!("{gone}.spec.json")).exists());
        assert!(!scratch.state().join(format!("{gone}.result.txt")).exists());
    }
    for kept in ["ret-2", "ret-3"] {
        assert!(client.wait_result(kept).is_ok(), "{kept} should survive");
        assert!(scratch.state().join(format!("{kept}.result.txt")).exists());
    }

    shutdown(&socket);
    handle.join().unwrap();

    // Recovery applies the (tighter) bound too: restart retaining 1 and
    // only the newest job survives.
    let handle = start_server(ServeConfig {
        job_slots: 1,
        retain_jobs: Some(1),
        ..ServeConfig::new(scratch.socket(), scratch.state())
    });
    let mut client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();
    assert!(client.wait_result("ret-3").is_ok());
    assert!(matches!(
        client
            .request(&Request::Status {
                job: "ret-2".to_owned()
            })
            .unwrap(),
        Response::Error { .. }
    ));
    assert!(!scratch.state().join("ret-2.result.txt").exists());

    shutdown(&socket);
    handle.join().unwrap();
}

#[test]
fn terminal_job_ttl_evicts_aged_jobs_without_new_traffic() {
    let scratch = Scratch::new("ttl");
    let config = ServeConfig {
        job_slots: 1,
        retain_for: Some(Duration::from_secs(1)),
        ..ServeConfig::new(scratch.socket(), scratch.state())
    };
    let handle = start_server(config);
    let socket = scratch.socket();
    let mut client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();

    // Two sequential jobs; both exist the moment they finish (the TTL
    // has not elapsed yet), proving the bound is age-based rather than
    // evict-on-completion.
    for (i, seed) in [1u64, 2].iter().enumerate() {
        let id = format!("ttl-{i}");
        client
            .submit(Some(id.clone()), quick_spec(2_000, *seed))
            .unwrap();
        client.wait_result(&id).unwrap();
    }
    assert!(client.wait_result("ttl-0").is_ok());
    assert!(client.wait_result("ttl-1").is_ok());

    // With no further submissions, the accept loop's periodic sweep
    // must evict both once they age past the TTL — map entries and
    // state files alike.
    let deadline = Instant::now() + Duration::from_secs(15);
    loop {
        let evicted = ["ttl-0", "ttl-1"].iter().all(|id| {
            matches!(
                client
                    .request(&Request::Status {
                        job: (*id).to_owned()
                    })
                    .unwrap(),
                Response::Error { .. }
            )
        });
        if evicted {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "TTL-expired jobs were never evicted"
        );
        std::thread::sleep(Duration::from_millis(100));
    }
    for gone in ["ttl-0", "ttl-1"] {
        assert!(!scratch.state().join(format!("{gone}.spec.json")).exists());
        assert!(!scratch.state().join(format!("{gone}.result.txt")).exists());
    }
    // Eviction took the TTL to elapse, so the daemon is at least that old.
    assert!(metric(&fetch_metrics(&mut client), "seqpoint_uptime_seconds") >= 1.0);

    shutdown(&socket);
    handle.join().unwrap();
}

#[test]
fn requests_time_out_against_a_server_that_accepts_but_never_replies() {
    // TCP flavor: the handshake read hits the timeout instead of
    // hanging `Client::open` forever.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let hold = std::thread::spawn(move || {
        // Accept and hold the connections open without ever replying.
        let mut held = Vec::new();
        let deadline = Instant::now() + Duration::from_secs(10);
        listener.set_nonblocking(true).unwrap();
        while Instant::now() < deadline && held.len() < 2 {
            if let Ok((conn, _)) = listener.accept() {
                held.push(conn);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        std::thread::sleep(Duration::from_millis(1_500));
        drop(held);
    });
    let options = tcp_options().with_io_timeout(Some(Duration::from_millis(300)));
    let t0 = Instant::now();
    let err = Client::open(&Endpoint::tcp(addr.clone()), &options).unwrap_err();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "client hung on a wedged TCP server"
    );
    assert!(matches!(err, ServiceError::Io { .. }), "{err:?}");

    // Unix flavor: connect succeeds (no handshake), the request itself
    // times out.
    let dir = std::env::temp_dir().join(format!("seqpoint-wedged-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("wedged.sock");
    let unix_listener = std::os::unix::net::UnixListener::bind(&sock).unwrap();
    let hold_unix = std::thread::spawn(move || {
        let conn = unix_listener.accept().map(|(c, _)| c);
        std::thread::sleep(Duration::from_millis(1_500));
        drop(conn);
    });
    let options = ClientOptions::default().with_io_timeout(Some(Duration::from_millis(300)));
    let mut client = Client::open(&Endpoint::unix(&sock), &options).unwrap();
    let t0 = Instant::now();
    let err = client.request(&Request::Ping).unwrap_err();
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "client hung on a wedged Unix server"
    );
    assert!(matches!(err, ServiceError::Io { .. }), "{err:?}");

    hold.join().unwrap();
    hold_unix.join().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn connect_ready_reports_the_last_error_and_respects_its_deadline() {
    // Nothing listens here: every attempt fails fast with a connect
    // error that the final timeout message must carry.
    let missing = std::env::temp_dir().join(format!(
        "seqpoint-nosock-{}-connect-ready",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&missing);
    let t0 = Instant::now();
    let err = Client::connect_ready(&missing, Duration::from_millis(300)).unwrap_err();
    let elapsed = t0.elapsed();
    assert!(
        elapsed < Duration::from_secs(3),
        "connect_ready overshot its deadline: {elapsed:?}"
    );
    let message = err.to_string();
    assert!(
        message.contains("last error"),
        "timeout must surface the underlying failure: {message}"
    );
    assert!(
        message.contains("connecting to"),
        "the real connect error is missing: {message}"
    );

    // A refused token fails immediately (no point retrying credentials).
    let scratch = Scratch::new("readyauth");
    let handle = start_server(tcp_config(&scratch));
    let endpoint = Endpoint::tcp(scratch.tcp_addr());
    let _warm = Client::open_ready(&endpoint, &tcp_options(), Duration::from_secs(10)).unwrap();
    let t0 = Instant::now();
    let err = Client::open_ready(
        &endpoint,
        &ClientOptions::default().with_token("wrong"),
        Duration::from_secs(30),
    )
    .unwrap_err();
    assert!(matches!(err, ServiceError::Auth(_)), "{err:?}");
    assert!(
        t0.elapsed() < Duration::from_secs(5),
        "a bad token must not be retried for the whole deadline"
    );

    shutdown(&scratch.socket());
    handle.join().unwrap();
}

#[test]
fn wait_result_outlives_its_read_timeout_via_server_heartbeats() {
    let scratch = Scratch::new("heartbeat");
    let config = ServeConfig {
        job_slots: 1,
        wait_heartbeat: Duration::from_millis(200),
        ..ServeConfig::new(scratch.socket(), scratch.state())
    };
    let handle = start_server(config);
    let socket = scratch.socket();

    // Client patience far below the job's duration: only the server's
    // heartbeat Status frames keep the blocking wait alive, so the
    // io_timeout measures connection liveness, not job length.
    let options = ClientOptions::default().with_io_timeout(Some(Duration::from_millis(800)));
    let mut client =
        Client::open_ready(&Endpoint::unix(&socket), &options, Duration::from_secs(10)).unwrap();
    let spec = JobSpec {
        throttle_ms: 400, // several seconds of runtime, several beats
        ..quick_spec(4_000, 20)
    };
    let reference = offline_reference(&spec);
    let id = client.submit(Some("slowpoke".to_owned()), spec).unwrap();
    let output = client.wait_result(&id).unwrap();
    assert_eq!(output, reference);

    shutdown(&socket);
    handle.join().unwrap();
}

#[test]
fn resilient_worker_outlives_its_retry_window_and_exits_cleanly_on_drain() {
    use seqpoint_service::worker::run_worker_resilient;

    // A fake daemon: welcome the worker, keep the registered session
    // open well past the worker's retry window, then close it and stop
    // answering — the worker must treat the close as a drain (it served
    // a session, so the window restarts from the close, not from the
    // session's beginning) and exit Ok instead of erroring out.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    let retry_window = Duration::from_millis(400);
    let session_len = Duration::from_millis(1_200); // ≫ retry_window
    let server = std::thread::spawn(move || {
        let (conn, _) = listener.accept().unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut writer = conn;
        let mut line = String::new();
        reader.read_line(&mut line).unwrap(); // Hello
        let mut welcome = encode_frame(&Response::Welcome {
            version: PROTOCOL_VERSION,
        });
        welcome.push('\n');
        writer.write_all(welcome.as_bytes()).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap(); // Register
        assert!(line.contains("Register"), "{line}");
        std::thread::sleep(session_len);
        drop(writer); // close; further connects are refused once the
        drop(reader); // listener is dropped with this thread
    });

    let t0 = Instant::now();
    let outcome = run_worker_resilient(
        &Endpoint::tcp(addr),
        Some("irrelevant"),
        retry_window,
        Some(Duration::from_secs(2)),
    );
    assert!(
        outcome.is_ok(),
        "a drained worker must exit cleanly: {outcome:?}"
    );
    assert!(
        t0.elapsed() >= session_len,
        "worker gave up while its session was still live"
    );
    server.join().unwrap();

    // And with no server at all, the window bounds the failure.
    let t0 = Instant::now();
    let err = run_worker_resilient(
        &Endpoint::tcp("127.0.0.1:9".to_owned()),
        Some("irrelevant"),
        Duration::from_millis(300),
        Some(Duration::from_millis(500)),
    )
    .unwrap_err();
    assert!(matches!(err, ServiceError::Io { .. }), "{err:?}");
    assert!(
        t0.elapsed() < Duration::from_secs(10),
        "never-reachable server must fail within the window"
    );
}
