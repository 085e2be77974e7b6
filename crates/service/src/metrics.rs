//! Lock-light metrics registry for the profiling service.
//!
//! One [`MetricsRegistry`] lives in the server's shared state and is
//! threaded through every subsystem: the connection loop counts
//! messages and bytes per direction and per client (traffic before an
//! identity is announced counts under `client=""`), the scheduler
//! tracks queue depth and wait time per fairness class, the cache
//! admission path counts hits, misses, and followers, the worker pool
//! counts leases and reclaims plus worker wire traffic, and the
//! operator graph reports items and wall time per pipeline stage (one
//! fold sample per completed round). Each fact has one series;
//! daemon-wide totals and rates are left to whoever reads them.
//!
//! Design constraints, in order:
//!
//! 1. **Hot-path cost ~zero.** Every per-message / per-round update is
//!    a handful of `Relaxed` atomic adds — no locks, no allocation, no
//!    clock reads.
//! 2. **One leaf lock.** The only mutex guards the per-client map and
//!    is taken at client-identity resolution, job submission, and
//!    render time — never per message. It is registered after every
//!    other service lock in `analysis/lock_order.toml`, so holding any
//!    of them while touching a counter is legal, and nothing may be
//!    acquired while holding it.
//! 3. **No drift.** [`CATALOG`] is the single source of truth for
//!    metric names; [`MetricsRegistry::render`] iterates it, a unit
//!    test asserts every catalog entry produces a sample, and another
//!    asserts every entry is documented in `docs/metrics.md`.
//!
//! The rendered form is Prometheus-style text exposition; the same
//! string is served by the `Request::Metrics` protocol frame, the
//! `seqpoint submit --stats` view, and the optional
//! `serve --metrics-addr` scrape endpoint.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use seqpoint_core::protocol::JobClass;
use sqnn_profiler::pipeline::{StageId, StageMeter, StageSample};

use crate::sync::LockExt;

/// Exposition type of a metric family.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonically non-decreasing count since daemon start.
    Counter,
    /// Point-in-time value that can go up and down.
    Gauge,
}

impl MetricKind {
    /// The Prometheus `# TYPE` keyword.
    pub fn keyword(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
        }
    }
}

/// One documented entry of the metric catalog.
#[derive(Clone, Copy, Debug)]
pub struct MetricDef {
    /// Exposition name (all names share the `seqpoint_` prefix).
    pub name: &'static str,
    /// Counter or gauge.
    pub kind: MetricKind,
    /// Comma-separated label names; empty for unlabeled families.
    pub labels: &'static str,
    /// One-line meaning, emitted verbatim as the `# HELP` text.
    pub help: &'static str,
}

const fn counter(name: &'static str, labels: &'static str, help: &'static str) -> MetricDef {
    MetricDef {
        name,
        kind: MetricKind::Counter,
        labels,
        help,
    }
}

const fn gauge(name: &'static str, labels: &'static str, help: &'static str) -> MetricDef {
    MetricDef {
        name,
        kind: MetricKind::Gauge,
        labels,
        help,
    }
}

/// Every metric family the registry exports, in exposition order.
///
/// `docs/metrics.md` documents exactly this list; a test fails when a
/// name is added here without a matching row there (or vice versa).
pub const CATALOG: &[MetricDef] = &[
    gauge(
        "seqpoint_uptime_seconds",
        "",
        "Seconds since this daemon process started.",
    ),
    counter(
        "seqpoint_connections_opened_total",
        "",
        "Client connections accepted (Unix socket and TCP).",
    ),
    counter(
        "seqpoint_connections_closed_total",
        "",
        "Client connections that have ended.",
    ),
    gauge(
        "seqpoint_connections_open",
        "",
        "Client connections currently open.",
    ),
    counter(
        "seqpoint_client_messages_in_total",
        "client",
        "Protocol frames received, by announced client identity.",
    ),
    counter(
        "seqpoint_client_messages_out_total",
        "client",
        "Protocol frames sent, by announced client identity.",
    ),
    counter(
        "seqpoint_client_bytes_in_total",
        "client",
        "Wire bytes received, by announced client identity.",
    ),
    counter(
        "seqpoint_client_bytes_out_total",
        "client",
        "Wire bytes sent, by announced client identity.",
    ),
    counter(
        "seqpoint_client_jobs_submitted_total",
        "client",
        "Jobs accepted into the queue, by announced client identity.",
    ),
    counter(
        "seqpoint_jobs_completed_total",
        "",
        "Jobs that reached the Done state.",
    ),
    counter(
        "seqpoint_jobs_failed_total",
        "",
        "Jobs that reached the Failed state.",
    ),
    counter(
        "seqpoint_jobs_cancelled_total",
        "",
        "Jobs that reached the Cancelled state.",
    ),
    gauge(
        "seqpoint_jobs_running",
        "",
        "Jobs executing rounds right now (sampled at render time).",
    ),
    counter(
        "seqpoint_rounds_total",
        "",
        "Profiling rounds completed across all jobs.",
    ),
    counter(
        "seqpoint_stage_items_in_total",
        "stage",
        "Items consumed per streaming-pipeline stage (operator-graph runs).",
    ),
    counter(
        "seqpoint_stage_items_out_total",
        "stage",
        "Items produced per streaming-pipeline stage (operator-graph runs).",
    ),
    counter(
        "seqpoint_stage_wall_ms_total",
        "stage",
        "Wall milliseconds (microsecond resolution) spent per streaming-pipeline stage.",
    ),
    gauge(
        "seqpoint_queue_depth",
        "class",
        "Jobs waiting in the scheduler queue, per fairness class.",
    ),
    counter(
        "seqpoint_queue_wait_ms_total",
        "class",
        "Cumulative milliseconds jobs waited in queue, per class.",
    ),
    counter(
        "seqpoint_queue_dequeued_total",
        "class",
        "Jobs dispatched from the queue to a runner, per class.",
    ),
    counter(
        "seqpoint_cache_hits_total",
        "",
        "Submissions answered from a retained result (Admission::Ready).",
    ),
    counter(
        "seqpoint_cache_misses_total",
        "",
        "Submissions that had to run as a cache primary.",
    ),
    counter(
        "seqpoint_cache_followers_total",
        "",
        "Submissions attached to an in-flight primary (single-flight).",
    ),
    gauge(
        "seqpoint_cache_entries",
        "",
        "Retained ready results in the cache (sampled at render time).",
    ),
    counter(
        "seqpoint_fleet_leases_total",
        "",
        "Worker leases granted to rounds by the fleet pool.",
    ),
    counter(
        "seqpoint_fleet_reclaims_total",
        "",
        "Dead worker connections reclaimed by the fleet pool.",
    ),
    gauge(
        "seqpoint_fleet_idle",
        "",
        "Idle workers in the fleet pool (sampled at render time).",
    ),
    counter(
        "seqpoint_worker_messages_in_total",
        "",
        "Round replies received from leased workers.",
    ),
    counter(
        "seqpoint_worker_messages_out_total",
        "",
        "Round tasks sent to leased workers.",
    ),
    counter(
        "seqpoint_worker_bytes_in_total",
        "",
        "Wire bytes received from leased workers.",
    ),
    counter(
        "seqpoint_worker_bytes_out_total",
        "",
        "Wire bytes sent to leased workers.",
    ),
];

/// Directional message/byte counters shared by the per-client and
/// worker scopes.
#[derive(Debug, Default)]
struct WireCounters {
    messages_in: AtomicU64,
    messages_out: AtomicU64,
    bytes_in: AtomicU64,
    bytes_out: AtomicU64,
}

impl WireCounters {
    fn record_in(&self, bytes: u64) {
        self.messages_in.fetch_add(1, Ordering::Relaxed);
        self.bytes_in.fetch_add(bytes, Ordering::Relaxed);
    }

    fn record_out(&self, bytes: u64) {
        self.messages_out.fetch_add(1, Ordering::Relaxed);
        self.bytes_out.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Per-fairness-class queue counters, updated by the scheduler.
#[derive(Debug, Default)]
pub struct ClassCounters {
    queue_depth: AtomicU64,
    queue_wait_ms_total: AtomicU64,
    dequeued_total: AtomicU64,
}

impl ClassCounters {
    /// A job entered this class's queue.
    pub fn enqueued(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// A job left the queue for a runner after waiting `wait_ms`.
    pub fn dequeued(&self, wait_ms: u64) {
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
        self.queue_wait_ms_total
            .fetch_add(wait_ms, Ordering::Relaxed);
        self.dequeued_total.fetch_add(1, Ordering::Relaxed);
    }

    /// A queued job was removed without dispatch (cancel, drain).
    pub fn removed(&self) {
        let _ = self
            .queue_depth
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some(v.saturating_sub(1))
            });
    }
}

/// Per-pipeline-stage accumulation, fed by the [`StageMeter`] hook the
/// round runner attaches at operator construction.
#[derive(Debug, Default)]
struct StageCounters {
    items_in: AtomicU64,
    items_out: AtomicU64,
    /// Recorded in microseconds; exported in (fractional) milliseconds.
    wall_us: AtomicU64,
}

/// Per-client accumulation (wire traffic + job submissions).
#[derive(Debug, Default)]
struct ClientScope {
    wire: WireCounters,
    jobs_submitted: AtomicU64,
}

/// Point-in-time values sampled from the other subsystems immediately
/// before rendering (never while holding any metrics lock).
#[derive(Clone, Copy, Debug, Default)]
pub struct RenderGauges {
    /// Jobs currently executing rounds.
    pub jobs_running: u64,
    /// Retained ready results in the cache.
    pub cache_entries: u64,
    /// Idle workers in the fleet pool.
    pub fleet_idle: u64,
}

/// The service-wide metrics registry. See the module docs for the
/// design; construct one per daemon with [`MetricsRegistry::new`] and
/// share it via `Arc`.
#[derive(Debug)]
pub struct MetricsRegistry {
    start: Instant,
    connections_opened: AtomicU64,
    connections_closed: AtomicU64,
    /// The `client=""` scope: traffic before (or without) an announced
    /// identity. Also registered in `clients`; kept here so counting it
    /// never takes the lock.
    anonymous: Arc<ClientScope>,
    worker_wire: WireCounters,
    jobs_completed: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_cancelled: AtomicU64,
    rounds_total: AtomicU64,
    stages: [StageCounters; StageId::ALL.len()],
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    cache_followers: AtomicU64,
    fleet_leases: AtomicU64,
    fleet_reclaims: AtomicU64,
    interactive: ClassCounters,
    batch: ClassCounters,
    clients: Mutex<HashMap<String, Arc<ClientScope>>>,
}

impl MetricsRegistry {
    /// A fresh registry with all counters at zero. Metrics are
    /// in-memory only and deliberately do **not** survive a daemon
    /// restart.
    pub fn new() -> Arc<MetricsRegistry> {
        let anonymous = Arc::new(ClientScope::default());
        Arc::new(MetricsRegistry {
            start: Instant::now(),
            connections_opened: AtomicU64::new(0),
            connections_closed: AtomicU64::new(0),
            anonymous: Arc::clone(&anonymous),
            worker_wire: WireCounters::default(),
            jobs_completed: AtomicU64::new(0),
            jobs_failed: AtomicU64::new(0),
            jobs_cancelled: AtomicU64::new(0),
            rounds_total: AtomicU64::new(0),
            stages: Default::default(),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            cache_followers: AtomicU64::new(0),
            fleet_leases: AtomicU64::new(0),
            fleet_reclaims: AtomicU64::new(0),
            interactive: ClassCounters::default(),
            batch: ClassCounters::default(),
            clients: Mutex::new(HashMap::from([(String::new(), anonymous)])),
        })
    }

    /// Count a new client connection; the returned handle counts its
    /// wire traffic and counts the connection closed on drop.
    pub fn conn_opened(self: &Arc<MetricsRegistry>) -> ConnMetrics {
        self.connections_opened.fetch_add(1, Ordering::Relaxed);
        ConnMetrics {
            registry: Arc::clone(self),
            client: OnceLock::new(),
        }
    }

    /// The per-class counter block the scheduler updates.
    pub fn class(&self, class: JobClass) -> &ClassCounters {
        match class {
            JobClass::Interactive => &self.interactive,
            JobClass::Batch => &self.batch,
        }
    }

    /// A job was accepted into the queue, attributed to `client`.
    pub fn job_submitted(&self, client: &str) {
        self.client_scope(client)
            .jobs_submitted
            .fetch_add(1, Ordering::Relaxed);
    }

    /// A job reached the Done state.
    pub fn job_completed(&self) {
        self.jobs_completed.fetch_add(1, Ordering::Relaxed);
    }

    /// A job reached the Failed state.
    pub fn job_failed(&self) {
        self.jobs_failed.fetch_add(1, Ordering::Relaxed);
    }

    /// A job reached the Cancelled state.
    pub fn job_cancelled(&self) {
        self.jobs_cancelled.fetch_add(1, Ordering::Relaxed);
    }

    /// A submission was answered from a retained cached result.
    pub fn cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    /// A submission missed the cache and runs as a primary.
    pub fn cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    /// A submission attached to an in-flight primary.
    pub fn cache_follower(&self) {
        self.cache_followers.fetch_add(1, Ordering::Relaxed);
    }

    /// The fleet pool granted `n` worker leases.
    pub fn fleet_leased(&self, n: u64) {
        self.fleet_leases.fetch_add(n, Ordering::Relaxed);
    }

    /// The fleet pool reclaimed `n` dead worker connections.
    pub fn fleet_reclaimed(&self, n: u64) {
        self.fleet_reclaims.fetch_add(n, Ordering::Relaxed);
    }

    /// A reply of `bytes` arrived from a leased worker.
    pub fn worker_in(&self, bytes: u64) {
        self.worker_wire.record_in(bytes);
    }

    /// A task of `bytes` was sent to a leased worker.
    pub fn worker_out(&self, bytes: u64) {
        self.worker_wire.record_out(bytes);
    }

    fn client_scope(&self, name: &str) -> Arc<ClientScope> {
        let mut clients = self.clients.lock_recover();
        match clients.get(name) {
            Some(scope) => Arc::clone(scope),
            None => {
                let scope = Arc::new(ClientScope::default());
                clients.insert(name.to_owned(), Arc::clone(&scope));
                scope
            }
        }
    }

    /// Render the full Prometheus-style text exposition. `gauges`
    /// carries the point-in-time values owned by other subsystems;
    /// sample them **before** calling (this method takes the registry
    /// lock briefly and must stay a lock-order leaf).
    pub fn render(&self, gauges: &RenderGauges) -> String {
        // Snapshot the client map once, in stable order, then render
        // without the lock.
        let mut clients: Vec<(String, Arc<ClientScope>)> = self
            .clients
            .lock_recover()
            .iter()
            .map(|(k, v)| (k.clone(), Arc::clone(v)))
            .collect();
        clients.sort_by(|a, b| a.0.cmp(&b.0));
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        let mut out = String::new();
        for def in CATALOG {
            let _ = writeln!(out, "# HELP {} {}", def.name, def.help);
            let _ = writeln!(out, "# TYPE {} {}", def.name, def.kind.keyword());
            let plain = |out: &mut String, v: u64| {
                let _ = writeln!(out, "{} {v}", def.name);
            };
            let by_class = |out: &mut String, pick: fn(&ClassCounters) -> &AtomicU64| {
                for class in [JobClass::Interactive, JobClass::Batch] {
                    let _ = writeln!(
                        out,
                        "{}{{class=\"{}\"}} {}",
                        def.name,
                        class.label(),
                        load(pick(self.class(class)))
                    );
                }
            };
            let by_client = |out: &mut String, pick: fn(&ClientScope) -> &AtomicU64| {
                for (name, scope) in &clients {
                    let _ = writeln!(
                        out,
                        "{}{{client=\"{}\"}} {}",
                        def.name,
                        escape_label(name),
                        load(pick(scope))
                    );
                }
            };
            let by_stage = |out: &mut String, value: fn(&StageCounters) -> String| {
                for (stage, slot) in StageId::ALL.iter().zip(&self.stages) {
                    let _ = writeln!(
                        out,
                        "{}{{stage=\"{}\"}} {}",
                        def.name,
                        stage.label(),
                        value(slot)
                    );
                }
            };
            match def.name {
                "seqpoint_uptime_seconds" => plain(&mut out, self.start.elapsed().as_secs()),
                "seqpoint_connections_opened_total" => {
                    plain(&mut out, load(&self.connections_opened));
                }
                "seqpoint_connections_closed_total" => {
                    plain(&mut out, load(&self.connections_closed));
                }
                "seqpoint_connections_open" => plain(
                    &mut out,
                    load(&self.connections_opened).saturating_sub(load(&self.connections_closed)),
                ),
                "seqpoint_client_messages_in_total" => {
                    by_client(&mut out, |s| &s.wire.messages_in);
                }
                "seqpoint_client_messages_out_total" => {
                    by_client(&mut out, |s| &s.wire.messages_out);
                }
                "seqpoint_client_bytes_in_total" => by_client(&mut out, |s| &s.wire.bytes_in),
                "seqpoint_client_bytes_out_total" => by_client(&mut out, |s| &s.wire.bytes_out),
                "seqpoint_client_jobs_submitted_total" => {
                    by_client(&mut out, |s| &s.jobs_submitted);
                }
                "seqpoint_jobs_completed_total" => plain(&mut out, load(&self.jobs_completed)),
                "seqpoint_jobs_failed_total" => plain(&mut out, load(&self.jobs_failed)),
                "seqpoint_jobs_cancelled_total" => plain(&mut out, load(&self.jobs_cancelled)),
                "seqpoint_jobs_running" => plain(&mut out, gauges.jobs_running),
                "seqpoint_rounds_total" => plain(&mut out, load(&self.rounds_total)),
                "seqpoint_stage_items_in_total" => {
                    by_stage(&mut out, |s| s.items_in.load(Ordering::Relaxed).to_string());
                }
                "seqpoint_stage_items_out_total" => {
                    by_stage(&mut out, |s| {
                        s.items_out.load(Ordering::Relaxed).to_string()
                    });
                }
                "seqpoint_stage_wall_ms_total" => {
                    by_stage(&mut out, |s| {
                        (s.wall_us.load(Ordering::Relaxed) as f64 / 1000.0).to_string()
                    });
                }
                "seqpoint_queue_depth" => by_class(&mut out, |c| &c.queue_depth),
                "seqpoint_queue_wait_ms_total" => by_class(&mut out, |c| &c.queue_wait_ms_total),
                "seqpoint_queue_dequeued_total" => by_class(&mut out, |c| &c.dequeued_total),
                "seqpoint_cache_hits_total" => plain(&mut out, load(&self.cache_hits)),
                "seqpoint_cache_misses_total" => plain(&mut out, load(&self.cache_misses)),
                "seqpoint_cache_followers_total" => plain(&mut out, load(&self.cache_followers)),
                "seqpoint_cache_entries" => plain(&mut out, gauges.cache_entries),
                "seqpoint_fleet_leases_total" => plain(&mut out, load(&self.fleet_leases)),
                "seqpoint_fleet_reclaims_total" => plain(&mut out, load(&self.fleet_reclaims)),
                "seqpoint_fleet_idle" => plain(&mut out, gauges.fleet_idle),
                "seqpoint_worker_messages_in_total" => {
                    plain(&mut out, load(&self.worker_wire.messages_in));
                }
                "seqpoint_worker_messages_out_total" => {
                    plain(&mut out, load(&self.worker_wire.messages_out));
                }
                "seqpoint_worker_bytes_in_total" => {
                    plain(&mut out, load(&self.worker_wire.bytes_in));
                }
                "seqpoint_worker_bytes_out_total" => {
                    plain(&mut out, load(&self.worker_wire.bytes_out));
                }
                // Unreachable while the catalog and this match agree;
                // the `render_covers_every_catalog_entry` test pins it.
                _ => {}
            }
        }
        out
    }
}

/// The registry doubles as the streaming pipeline's per-stage meter:
/// `run_job` attaches it at operator construction, so every served
/// job's source/fold/merge/gate/sink/replay work lands in the `stage`-labeled
/// families — atomic adds only, preserving the hot-path-cost rule. A
/// fold sample that produced reports is one completed round.
impl StageMeter for MetricsRegistry {
    fn record(&self, stage: StageId, sample: StageSample) {
        if let Some(slot) = self.stages.get(stage.index()) {
            slot.items_in.fetch_add(sample.items_in, Ordering::Relaxed);
            slot.items_out
                .fetch_add(sample.items_out, Ordering::Relaxed);
            slot.wall_us.fetch_add(sample.wall_us, Ordering::Relaxed);
        }
        if matches!(stage, StageId::Fold) && sample.items_out > 0 {
            self.rounds_total.fetch_add(1, Ordering::Relaxed);
        }
    }
}

/// Escape a label value for the text exposition (`\`, `"`, newline).
fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            other => out.push(other),
        }
    }
    out
}

/// Wire-accounting handle for one client connection. Created by
/// [`MetricsRegistry::conn_opened`]; dropping it counts the connection
/// closed.
#[derive(Debug)]
pub struct ConnMetrics {
    registry: Arc<MetricsRegistry>,
    client: OnceLock<Arc<ClientScope>>,
}

impl ConnMetrics {
    /// Attribute this connection's traffic from here on to the
    /// announced client identity; until then it counts under
    /// `client=""`. First call wins.
    pub fn set_client(&self, name: &str) {
        if self.client.get().is_none() {
            let _ = self.client.set(self.registry.client_scope(name));
        }
    }

    fn scope(&self) -> &ClientScope {
        self.client.get().unwrap_or(&self.registry.anonymous)
    }

    /// One protocol frame of `bytes` arrived on this connection.
    pub fn record_in(&self, bytes: u64) {
        self.scope().wire.record_in(bytes);
    }

    /// One protocol frame of `bytes` was sent on this connection.
    pub fn record_out(&self, bytes: u64) {
        self.scope().wire.record_out(bytes);
    }
}

impl Drop for ConnMetrics {
    fn drop(&mut self) {
        self.registry
            .connections_closed
            .fetch_add(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_registry() -> Arc<MetricsRegistry> {
        let registry = MetricsRegistry::new();
        let conn = registry.conn_opened();
        conn.record_in(64);
        conn.set_client("tester");
        conn.record_in(100);
        conn.record_out(500);
        registry.job_submitted("tester");
        registry.job_completed();
        registry.job_failed();
        registry.job_cancelled();
        registry.cache_hit();
        registry.cache_miss();
        registry.cache_follower();
        registry.fleet_leased(3);
        registry.fleet_reclaimed(1);
        registry.worker_in(40);
        registry.worker_out(80);
        registry.class(JobClass::Interactive).enqueued();
        registry.class(JobClass::Interactive).dequeued(7);
        registry.class(JobClass::Batch).enqueued();
        registry.class(JobClass::Batch).removed();
        registry.record(
            StageId::Fold,
            StageSample {
                items_in: 64,
                items_out: 3,
                wall_us: 9_000,
            },
        );
        drop(conn);
        registry
    }

    /// Stage samples accumulate into the `stage`-labeled families, and
    /// every stage renders a series even before it has recorded work.
    #[test]
    fn stage_samples_land_in_labeled_families() {
        let registry = MetricsRegistry::new();
        registry.record(
            StageId::Merge,
            StageSample {
                items_in: 4,
                items_out: 1,
                wall_us: 2_250,
            },
        );
        registry.record(
            StageId::Merge,
            StageSample {
                items_in: 4,
                items_out: 1,
                wall_us: 1_000,
            },
        );
        let text = registry.render(&RenderGauges::default());
        assert!(text.contains("seqpoint_stage_items_in_total{stage=\"merge\"} 8"));
        assert!(text.contains("seqpoint_stage_items_out_total{stage=\"merge\"} 2"));
        // Wall time is kept in microseconds and exported as fractional
        // milliseconds, so sub-millisecond stage work is not lost.
        assert!(text.contains("seqpoint_stage_wall_ms_total{stage=\"merge\"} 3.25\n"));
        // Idle stages still expose their series at zero.
        assert!(text.contains("seqpoint_stage_items_in_total{stage=\"sink\"} 0"));
        assert!(text.contains("seqpoint_stage_wall_ms_total{stage=\"replay\"} 0\n"));
    }

    /// Every catalog entry must produce at least one sample line when
    /// every scope has data — i.e. the render match can't silently
    /// drop a documented metric.
    #[test]
    fn render_covers_every_catalog_entry() {
        let registry = sample_registry();
        let text = registry.render(&RenderGauges {
            jobs_running: 2,
            cache_entries: 5,
            fleet_idle: 1,
        });
        for def in CATALOG {
            let has_sample = text.lines().any(|l| {
                l.strip_prefix(def.name)
                    .is_some_and(|rest| rest.starts_with(' ') || rest.starts_with('{'))
            });
            assert!(has_sample, "no sample rendered for {}", def.name);
            assert!(
                text.contains(&format!("# TYPE {} {}", def.name, def.kind.keyword())),
                "no TYPE line for {}",
                def.name
            );
        }
    }

    /// Catalog names are unique and uniformly prefixed.
    #[test]
    fn catalog_names_are_unique_and_prefixed() {
        let mut seen = std::collections::HashSet::new();
        for def in CATALOG {
            assert!(def.name.starts_with("seqpoint_"), "{}", def.name);
            assert!(seen.insert(def.name), "duplicate catalog name {}", def.name);
            assert!(!def.help.is_empty(), "{} has no help text", def.name);
        }
    }

    /// `docs/metrics.md` documents exactly the catalog: every exported
    /// name appears in the doc, and every `seqpoint_`-prefixed name
    /// the doc mentions exists in the catalog. An undocumented counter
    /// (or a stale doc row) fails here.
    #[test]
    fn docs_metrics_md_matches_the_catalog() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/metrics.md");
        let doc =
            std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
        for def in CATALOG {
            assert!(
                doc.contains(def.name),
                "{} is exported but not documented in docs/metrics.md",
                def.name
            );
        }
        let known: std::collections::HashSet<&str> = CATALOG.iter().map(|d| d.name).collect();
        for token in doc.split(|c: char| !(c.is_ascii_alphanumeric() || c == '_')) {
            if let Some(rest) = token.strip_prefix("seqpoint_") {
                // Skip non-metric identifiers (binary name etc.): a
                // metric token is exactly a catalog-style name.
                if rest.is_empty() {
                    continue;
                }
                assert!(
                    known.contains(token),
                    "docs/metrics.md mentions unknown metric `{token}`"
                );
            }
        }
    }

    #[test]
    fn conn_drop_counts_the_connection_closed() {
        let registry = MetricsRegistry::new();
        let conn = registry.conn_opened();
        conn.record_in(10);
        let live = registry.render(&RenderGauges::default());
        assert!(live.contains("seqpoint_connections_open 1\n"));
        assert!(live.contains("seqpoint_connections_closed_total 0\n"));
        drop(conn);
        let gone = registry.render(&RenderGauges::default());
        assert!(gone.contains("seqpoint_connections_opened_total 1\n"));
        assert!(gone.contains("seqpoint_connections_closed_total 1\n"));
        assert!(gone.contains("seqpoint_connections_open 0\n"));
    }

    #[test]
    fn client_attribution_starts_at_set_client() {
        let registry = MetricsRegistry::new();
        let conn = registry.conn_opened();
        conn.record_in(100); // pre-identity: the anonymous client
        conn.set_client("c1");
        conn.record_in(11);
        conn.record_out(22);
        let text = registry.render(&RenderGauges::default());
        assert!(text.contains("seqpoint_client_bytes_in_total{client=\"c1\"} 11\n"));
        assert!(text.contains("seqpoint_client_bytes_out_total{client=\"c1\"} 22\n"));
        assert!(text.contains("seqpoint_client_bytes_in_total{client=\"\"} 100\n"));
        assert!(text.contains("seqpoint_client_messages_in_total{client=\"\"} 1\n"));
        assert!(text.contains("seqpoint_client_bytes_out_total{client=\"\"} 0\n"));
    }

    /// A fold sample that produced reports is one completed round; a
    /// failed fold and other stages count none.
    #[test]
    fn each_fold_sample_with_reports_counts_one_round() {
        let registry = MetricsRegistry::new();
        let fold = StageSample {
            items_in: 6,
            items_out: 3,
            wall_us: 500,
        };
        for _ in 0..3 {
            registry.record(StageId::Fold, fold);
        }
        registry.record(
            StageId::Fold,
            StageSample {
                items_out: 0,
                ..fold
            },
        );
        registry.record(StageId::Merge, fold);
        let text = registry.render(&RenderGauges::default());
        assert!(text.contains("seqpoint_rounds_total 3\n"), "{text}");
    }

    #[test]
    fn label_values_are_escaped() {
        assert_eq!(escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }
}
