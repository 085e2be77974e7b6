//! Multi-tenant scheduler + result-cache tests against an in-process
//! `serve()`: cache-key semantics (scheduling metadata must hit, any
//! semantic corpus/config change must miss), single-flight duplicate
//! submissions, per-client quotas, promotion after a cancelled primary,
//! and restart recovery of cached results and in-flight groups.

use std::path::PathBuf;
use std::time::Duration;

use seqpoint_core::protocol::{JobClass, JobSpec, JobState, Request, Response};
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
        let dir = std::env::temp_dir().join(format!("seqpoint-sched-{}-{tag}", std::process::id()));
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

/// `(state, detail, cache_hit)` of a job, via the protocol.
fn probe(client: &mut Client, job: &str) -> (JobState, String, bool) {
    match client
        .request(&Request::Status {
            job: job.to_owned(),
        })
        .unwrap()
    {
        Response::Status {
            state,
            detail,
            cache_hit,
            ..
        } => (state, detail, cache_hit),
        other => panic!("unexpected {other:?}"),
    }
}

/// `(cache_hits, cache_entries)` from a `Ping`.
fn cache_counters(client: &mut Client) -> (u64, u64) {
    match client.request(&Request::Ping).unwrap() {
        Response::Pong {
            cache_hits,
            cache_entries,
            ..
        } => (cache_hits, cache_entries),
        other => panic!("unexpected {other:?}"),
    }
}

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
fn scheduling_metadata_hits_the_cache_but_semantic_changes_miss() {
    let scratch = Scratch::new("keys");
    let handle = start_server(ServeConfig {
        job_slots: 2,
        queue_cap: 16,
        ..ServeConfig::new(scratch.socket(), scratch.state())
    });
    let socket = scratch.socket();
    let mut client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();

    let base = quick_spec(4_000, 20);
    let reference = offline_reference(&base);
    let first = client
        .submit(Some("seed-run".to_owned()), base.clone())
        .unwrap();
    assert_eq!(client.wait_result(&first).unwrap(), reference);
    let (_, _, hit) = probe(&mut client, &first);
    assert!(!hit, "the first flight is never a cache hit");
    assert_eq!(cache_counters(&mut client), (0, 1));

    // Scheduling metadata is NOT part of the experiment's identity:
    // each of these must be answered from the cache, byte-identically,
    // without a new profiling run.
    let metadata_variants: Vec<(&str, JobSpec)> = vec![
        (
            "throttled",
            JobSpec {
                throttle_ms: 250,
                ..base.clone()
            },
        ),
        (
            "preemptable",
            JobSpec {
                max_rounds: Some(1),
                ..base.clone()
            },
        ),
        (
            "batch-class",
            JobSpec {
                class: JobClass::Batch,
                ..base.clone()
            },
        ),
        (
            "other-tenant",
            JobSpec {
                client: "someone-else".to_owned(),
                ..base.clone()
            },
        ),
    ];
    let mut expected_hits = 0;
    for (id, spec) in metadata_variants {
        let job = client.submit(Some(id.to_owned()), spec).unwrap();
        // Served from the retained result: terminal instantly, marked
        // as a hit, byte-identical output.
        let (state, detail, hit) = probe(&mut client, &job);
        assert_eq!(state, JobState::Done, "`{job}` should be served instantly");
        assert!(hit, "`{job}` must be a cache hit ({detail})");
        assert!(detail.contains("cache"), "{detail}");
        assert_eq!(client.wait_result(&job).unwrap(), reference, "{job}");
        expected_hits += 1;
        assert_eq!(cache_counters(&mut client), (expected_hits, 1));
    }
    // The registry agrees with the Pong counters.
    let cached = fetch_metrics(&mut client);
    assert_eq!(metric(&cached, "seqpoint_cache_entries"), 1.0);
    assert_eq!(
        metric(&cached, "seqpoint_cache_hits_total"),
        expected_hits as f64
    );
    assert_eq!(metric(&cached, "seqpoint_cache_misses_total"), 1.0);

    // Semantic changes ARE part of the identity: every one must miss
    // and run its own profiling.
    let semantic_variants: Vec<(&str, JobSpec)> = vec![
        (
            "more-samples",
            JobSpec {
                samples: 4_500,
                ..base.clone()
            },
        ),
        (
            "other-seed",
            JobSpec {
                seed: 21,
                ..base.clone()
            },
        ),
        (
            "resharded",
            JobSpec {
                shards: 2,
                ..base.clone()
            },
        ),
        (
            "longer-rounds",
            JobSpec {
                round_len: 48,
                ..base.clone()
            },
        ),
        (
            "stricter-stop",
            JobSpec {
                stream: StreamConfig {
                    saturation_window: 256,
                    ..base.stream
                },
                ..base.clone()
            },
        ),
    ];
    for (id, spec) in semantic_variants {
        let job = client.submit(Some(id.to_owned()), spec).unwrap();
        let output = client.wait_result(&job).unwrap();
        let (_, detail, hit) = probe(&mut client, &job);
        assert!(!hit, "`{job}` must NOT hit the cache ({detail})");
        // Sanity: the semantic change actually changed the experiment
        // (or at least ran fresh — resharding can render differently).
        let _ = output;
        let (hits, _) = cache_counters(&mut client);
        assert_eq!(hits, expected_hits, "`{job}` must not add a hit");
    }

    shutdown(&socket);
    handle.join().unwrap();
}

#[test]
fn duplicate_inflight_submissions_collapse_to_one_run() {
    let scratch = Scratch::new("singleflight");
    let handle = start_server(ServeConfig {
        job_slots: 2,
        queue_cap: 16,
        ..ServeConfig::new(scratch.socket(), scratch.state())
    });
    let socket = scratch.socket();
    let mut client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();

    // Throttled so the primary is still running when the duplicates
    // arrive.
    let spec = JobSpec {
        throttle_ms: 120,
        ..quick_spec(4_000, 20)
    };
    let reference = offline_reference(&quick_spec(4_000, 20));
    let primary = client
        .submit(Some("dup-a".to_owned()), spec.clone())
        .unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let follower = client
        .submit(Some("dup-b".to_owned()), spec.clone())
        .unwrap();

    // The duplicate attached instead of queueing its own run.
    let (state, detail, hit) = probe(&mut client, &follower);
    assert!(hit, "duplicate must be a single-flight hit ({detail})");
    if state == JobState::Queued {
        assert!(detail.contains(&primary), "{detail}");
    }

    // Both settle with byte-identical output...
    let waiter = {
        let socket = socket.clone();
        let follower = follower.clone();
        std::thread::spawn(move || {
            let mut client = Client::connect(&socket).unwrap();
            client.wait_result(&follower).unwrap()
        })
    };
    let out_primary = client.wait_result(&primary).unwrap();
    let out_follower = waiter.join().unwrap();
    assert_eq!(out_primary, reference);
    assert_eq!(out_follower, reference);

    // ...and the accounting shows exactly one profiling run: one hit,
    // one retained entry, and the follower's result file on disk for
    // recovery.
    assert_eq!(cache_counters(&mut client), (1, 1));
    assert_eq!(
        metric(
            &fetch_metrics(&mut client),
            "seqpoint_cache_followers_total"
        ),
        1.0
    );
    assert!(scratch.state().join("dup-b.result.txt").exists());

    shutdown(&socket);
    handle.join().unwrap();
}

#[test]
fn cancelled_primary_promotes_its_follower() {
    let scratch = Scratch::new("promote");
    let handle = start_server(ServeConfig {
        job_slots: 1,
        queue_cap: 16,
        ..ServeConfig::new(scratch.socket(), scratch.state())
    });
    let socket = scratch.socket();
    let mut client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();

    let spec = JobSpec {
        throttle_ms: 120,
        ..quick_spec(4_000, 20)
    };
    let reference = offline_reference(&quick_spec(4_000, 20));
    let primary = client.submit(Some("pma".to_owned()), spec.clone()).unwrap();
    std::thread::sleep(Duration::from_millis(200));
    let follower = client.submit(Some("pmb".to_owned()), spec.clone()).unwrap();

    // Cancel the running primary: the follower must be promoted to a
    // real run, not cancelled alongside it (nor stranded forever).
    assert!(matches!(
        client
            .request(&Request::Cancel {
                job: primary.clone()
            })
            .unwrap(),
        Response::Cancelled { .. } | Response::Error { .. }
    ));
    let output = client.wait_result(&follower).unwrap();
    assert_eq!(output, reference, "promoted follower must finish the run");
    let (_, detail, _) = probe(&mut client, &follower);
    assert!(
        detail.contains("promoted") || detail == "done",
        "unexpected detail: {detail}"
    );

    shutdown(&socket);
    handle.join().unwrap();
}

#[test]
fn per_client_quota_rejects_the_flooding_tenant_only() {
    let scratch = Scratch::new("quota");
    let handle = start_server(ServeConfig {
        job_slots: 1,
        queue_cap: 16,
        client_quota: Some(1),
        ..ServeConfig::new(scratch.socket(), scratch.state())
    });
    let socket = scratch.socket();
    let mut client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();

    // Alice's slow job occupies her whole quota...
    let slow = JobSpec {
        throttle_ms: 150,
        client: "alice".to_owned(),
        ..quick_spec(4_000, 20)
    };
    client.submit(Some("alice-1".to_owned()), slow).unwrap();
    // ...so her second submission is rejected — even as a would-be
    // duplicate (a quota must not be laundered through the cache)...
    let rejected = client
        .request(&Request::Submit {
            job: Some("alice-2".to_owned()),
            spec: JobSpec {
                throttle_ms: 150,
                client: "alice".to_owned(),
                ..quick_spec(4_000, 20)
            },
        })
        .unwrap();
    match rejected {
        Response::Rejected { reason } => {
            assert!(reason.contains("quota"), "{reason}");
            assert!(reason.contains("alice"), "{reason}");
        }
        other => panic!("expected a quota rejection, got {other:?}"),
    }
    // ...while Bob is admitted untouched.
    let bob = client
        .submit(
            Some("bob-1".to_owned()),
            JobSpec {
                client: "bob".to_owned(),
                ..quick_spec(3_000, 5)
            },
        )
        .unwrap();
    assert!(client.wait_result(&bob).is_ok());
    // Bob waited in the queue behind Alice's paced job.
    assert!(
        metric(
            &fetch_metrics(&mut client),
            "seqpoint_queue_wait_ms_total{class=\"interactive\"}"
        ) > 0.0
    );
    // Once Alice's job settles, her next submission is admitted again.
    assert!(client.wait_result("alice-1").is_ok());
    let again = client.submit(
        Some("alice-3".to_owned()),
        JobSpec {
            client: "alice".to_owned(),
            ..quick_spec(3_000, 6)
        },
    );
    assert!(again.is_ok(), "{again:?}");

    shutdown(&socket);
    handle.join().unwrap();
}

#[test]
fn cached_results_survive_a_restart() {
    let scratch = Scratch::new("cacherestart");
    let socket = scratch.socket();
    let spec = quick_spec(4_000, 20);
    let reference = offline_reference(&spec);

    let handle = start_server(ServeConfig::new(&socket, scratch.state()));
    let mut client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();
    let first = client
        .submit(Some("warm".to_owned()), spec.clone())
        .unwrap();
    assert_eq!(client.wait_result(&first).unwrap(), reference);
    let _ = client.request(&Request::Shutdown);
    handle.join().unwrap();

    // A restarted server rebuilds the cache index from its recovered
    // results: the duplicate is served instantly, no profiling run.
    let handle = start_server(ServeConfig::new(&socket, scratch.state()));
    let mut client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();
    assert_eq!(cache_counters(&mut client), (0, 1), "recovered entry");
    let dup = client.submit(Some("warm-dup".to_owned()), spec).unwrap();
    let (state, _, hit) = probe(&mut client, &dup);
    assert_eq!(state, JobState::Done, "must be served instantly");
    assert!(hit);
    assert_eq!(client.wait_result(&dup).unwrap(), reference);
    assert_eq!(cache_counters(&mut client), (1, 1));

    shutdown(&socket);
    handle.join().unwrap();
}

#[test]
fn follower_attached_at_drain_gets_the_resumed_jobs_result() {
    let scratch = Scratch::new("drainfollow");
    let socket = scratch.socket();
    // Paced and never early-stopping, so the drain lands mid-run, rounds
    // before the last one starts, with the follower still attached.
    let spec = JobSpec {
        throttle_ms: 80,
        stream: StreamConfig {
            saturation_window: u64::MAX,
            ..StreamConfig::default()
        },
        ..quick_spec(3_000, 20)
    };
    let reference = offline_reference(&spec);

    let handle = start_server(ServeConfig {
        job_slots: 1,
        ..ServeConfig::new(&socket, scratch.state())
    });
    let mut client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();
    let primary = client
        .submit(Some("dr-a".to_owned()), spec.clone())
        .unwrap();
    std::thread::sleep(Duration::from_millis(300));
    let follower = client
        .submit(Some("dr-b".to_owned()), spec.clone())
        .unwrap();
    let (_, detail, hit) = probe(&mut client, &follower);
    assert!(hit, "{detail}");
    let _ = client.request(&Request::Shutdown);
    handle.join().unwrap();

    // Only the primary ran: it checkpointed; the follower never got a
    // checkpoint of its own.
    assert!(scratch.state().join("dr-a.ckpt.json").exists());
    assert!(!scratch.state().join("dr-b.ckpt.json").exists());

    // After restart, the group is rebuilt: one resumed run serves both
    // jobs the byte-identical selection.
    let handle = start_server(ServeConfig {
        job_slots: 1,
        ..ServeConfig::new(&socket, scratch.state())
    });
    let mut client = Client::connect_ready(&socket, Duration::from_secs(10)).unwrap();
    assert_eq!(client.wait_result(&follower).unwrap(), reference);
    assert_eq!(client.wait_result(&primary).unwrap(), reference);

    shutdown(&socket);
    handle.join().unwrap();
}
