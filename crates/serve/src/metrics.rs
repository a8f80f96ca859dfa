//! Server metrics, backed by the unified [`sibia_obs`] registry.
//!
//! Every instrument here is registered in one [`Registry`] under the
//! `serve.*` naming convention (DESIGN.md §8), so the `metrics` response
//! can serve a canonical name-sorted snapshot alongside the stable
//! hand-shaped summary the dashboards already parse. The hot path is
//! unchanged from the pre-registry implementation: recording an
//! observation is a handful of relaxed atomic RMWs, never a lock.
//!
//! Request latency is recorded twice — once end-to-end
//! (`serve.latency.total_us`) and once split into the three phases a slow
//! request can hide in:
//!
//! * `queue_wait` — admission to worker pickup (0 for inline requests);
//! * `compute` — executing the simulation/encode work;
//! * `serialize` — rendering and writing the response line.
//!
//! The three phase histograms see exactly one observation per request, so
//! their counts equal the total histogram's count and their `total_us`
//! sums are bounded by (and within scheduling noise of) the total's — an
//! invariant the integration tests assert.

use std::sync::Arc;
use std::time::Duration;

use sibia_obs::json::Json;
use sibia_obs::metrics::{Counter, Gauge, Histogram, Registry};
use sibia_store::StoreStats;

use crate::protocol::ErrorCode;

/// The serve latency histogram type (the power-of-two-bucket scheme now
/// lives in [`sibia_obs::metrics::Histogram`]; this alias keeps the
/// original `serve::metrics::LatencyHistogram` name working).
pub type LatencyHistogram = Histogram;

/// Request kinds, in metrics order.
const KINDS: [&str; 10] = [
    "ping", "version", "encode", "simulate", "lookup", "sweep", "metrics", "trace", "spans",
    "stats",
];
/// Error codes, in metrics order (mirrors [`ErrorCode`]).
const CODES: [&str; 7] = [
    "bad_request",
    "unknown_arch",
    "unknown_network",
    "overloaded",
    "deadline_exceeded",
    "shutting_down",
    "internal",
];

fn code_index(code: ErrorCode) -> usize {
    match code {
        ErrorCode::BadRequest => 0,
        ErrorCode::UnknownArch => 1,
        ErrorCode::UnknownNetwork => 2,
        ErrorCode::Overloaded => 3,
        ErrorCode::DeadlineExceeded => 4,
        ErrorCode::ShuttingDown => 5,
        ErrorCode::Internal => 6,
    }
}

/// Where one request's time went. All phases default to zero so inline
/// requests (`ping`, `metrics`, `trace`) only fill what they measured.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Admission → worker pickup.
    pub queue_wait: Duration,
    /// Executing the work itself.
    pub compute: Duration,
    /// Rendering + writing the response line.
    pub serialize: Duration,
}

/// A point-in-time reading of the levels the server owns outside this
/// struct — queue occupancy and cache statistics — taken by whoever holds
/// them (the `metrics` serializer or the telemetry pre-tick hook) and
/// published into the registry gauges via [`ServeMetrics::set_gauges`].
#[derive(Debug, Clone, Copy, Default)]
pub struct GaugeSample {
    pub queue_depth: usize,
    pub queue_capacity: usize,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_entries: usize,
}

/// All server counters, held as `Arc` handles into one registry.
#[derive(Debug)]
pub struct ServeMetrics {
    registry: Arc<Registry>,
    ok_by_kind: [Arc<Counter>; KINDS.len()],
    err_by_code: [Arc<Counter>; CODES.len()],
    connections: Arc<Counter>,
    latency: Arc<Histogram>,
    queue_wait: Arc<Histogram>,
    compute: Arc<Histogram>,
    serialize: Arc<Histogram>,
    queue_depth: Arc<Gauge>,
    queue_capacity: Arc<Gauge>,
    cache_hits: Arc<Gauge>,
    cache_misses: Arc<Gauge>,
    cache_entries: Arc<Gauge>,
    store_hits: Arc<Gauge>,
    store_misses: Arc<Gauge>,
    store_puts: Arc<Gauge>,
    store_log_bytes: Arc<Gauge>,
    store_compactions: Arc<Gauge>,
    store_entries: Arc<Gauge>,
}

impl Default for ServeMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServeMetrics {
    /// Fresh counters in a fresh registry (each server instance owns its
    /// own, so side-by-side test servers never share counts).
    pub fn new() -> Self {
        Self::in_registry(Arc::new(Registry::new()))
    }

    /// Registers this server's instruments in `registry`. Names follow the
    /// `serve.<component>.<metric>[_<unit>]` convention; asking an existing
    /// registry for the same names attaches to the same counters.
    pub fn in_registry(registry: Arc<Registry>) -> Self {
        let ok_by_kind =
            std::array::from_fn(|i| registry.counter(&format!("serve.requests.ok.{}", KINDS[i])));
        let err_by_code =
            std::array::from_fn(|i| registry.counter(&format!("serve.requests.err.{}", CODES[i])));
        Self {
            ok_by_kind,
            err_by_code,
            // Counted by the reactor, which registers its `net.*`
            // instruments in this same registry.
            connections: registry.counter("net.connections.accepted"),
            latency: registry.histogram("serve.latency.total_us"),
            queue_wait: registry.histogram("serve.latency.queue_wait_us"),
            compute: registry.histogram("serve.latency.compute_us"),
            serialize: registry.histogram("serve.latency.serialize_us"),
            queue_depth: registry.gauge("serve.queue.depth"),
            queue_capacity: registry.gauge("serve.queue.capacity"),
            cache_hits: registry.gauge("serve.cache.hits"),
            cache_misses: registry.gauge("serve.cache.misses"),
            cache_entries: registry.gauge("serve.cache.entries"),
            // The persistent-store gauges use the bare `store.*` prefix:
            // they describe the store subsystem, which outlives any one
            // server (the same names appear in `sibia-cli store stats`).
            store_hits: registry.gauge("store.hits"),
            store_misses: registry.gauge("store.misses"),
            store_puts: registry.gauge("store.puts"),
            store_log_bytes: registry.gauge("store.log_bytes"),
            store_compactions: registry.gauge("store.compactions"),
            store_entries: registry.gauge("store.entries"),
            registry,
        }
    }

    /// The backing registry.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Records a completed request: its kind label, outcome, end-to-end
    /// latency, and per-phase split. Every request lands in all four
    /// histograms exactly once.
    pub fn request(
        &self,
        kind: &str,
        outcome: Result<(), ErrorCode>,
        latency: Duration,
        phases: PhaseTimings,
    ) {
        match outcome {
            Ok(()) => {
                if let Some(i) = KINDS.iter().position(|k| *k == kind) {
                    self.ok_by_kind[i].inc();
                }
            }
            Err(code) => {
                self.err_by_code[code_index(code)].inc();
            }
        }
        self.latency.record(latency);
        self.queue_wait.record(phases.queue_wait);
        self.compute.record(phases.compute);
        self.serialize.record(phases.serialize);
    }

    /// Total successful requests.
    pub fn ok_total(&self) -> u64 {
        self.ok_by_kind.iter().map(|c| c.get()).sum()
    }

    /// Total errored requests.
    pub fn err_total(&self) -> u64 {
        self.err_by_code.iter().map(|c| c.get()).sum()
    }

    /// Errors recorded under one code.
    pub fn errors(&self, code: ErrorCode) -> u64 {
        self.err_by_code[code_index(code)].get()
    }

    /// The end-to-end latency histogram.
    pub fn latency(&self) -> &Histogram {
        &self.latency
    }

    /// The (queue-wait, compute, serialize) phase histograms.
    pub fn phases(&self) -> (&Histogram, &Histogram, &Histogram) {
        (&self.queue_wait, &self.compute, &self.serialize)
    }

    /// Publishes the caller-owned state (queue depth, cache and store
    /// statistics) into the registry gauges without serializing anything.
    /// The telemetry sampler's pre-tick hook calls this so pull-style
    /// gauges are fresh at every sample, not only after a `metrics`
    /// request happens to serialize them.
    pub fn set_gauges(&self, levels: &GaugeSample, store: Option<&StoreStats>) {
        self.queue_depth.set(levels.queue_depth as i64);
        self.queue_capacity.set(levels.queue_capacity as i64);
        self.cache_hits.set(levels.cache_hits as i64);
        self.cache_misses.set(levels.cache_misses as i64);
        self.cache_entries.set(levels.cache_entries as i64);
        if let Some(s) = store {
            self.store_hits.set(s.hits as i64);
            self.store_misses.set(s.misses as i64);
            self.store_puts.set(s.puts as i64);
            self.store_log_bytes.set(s.log_bytes as i64);
            self.store_compactions.set(s.compactions as i64);
            self.store_entries.set(s.entries as i64);
        }
    }

    fn histogram_json(h: &Histogram) -> Json {
        // The compact summary plus the exact microsecond sum, which lets
        // clients check the phase-summation invariant without bucket error.
        let mut j = h.summary_json();
        if let Json::Object(members) = &mut j {
            members.push(("total_us".to_owned(), Json::from(h.total_us())));
        }
        j
    }

    /// Serializes the counters plus caller-supplied gauges (queue depth,
    /// cache statistics, and — when a store is configured — persistent-store
    /// statistics, which live outside this struct). The gauges are also
    /// published into the registry so the appended canonical snapshot
    /// carries them. `store: None` (no `--store-dir`) serializes the
    /// `store` member as `null`, which distinguishes "no store" from "store
    /// with zero traffic". `dropped_spans` is the total spans evicted from
    /// the server's bounded trace buffers — nonzero means `trace` / `spans`
    /// responses are silently incomplete, so it surfaces here rather than
    /// staying an internal counter.
    pub fn to_json(
        &self,
        levels: &GaugeSample,
        dropped_spans: u64,
        store: Option<&StoreStats>,
    ) -> Json {
        self.set_gauges(levels, store);
        let lookups = levels.cache_hits + levels.cache_misses;
        let hit_rate = if lookups == 0 {
            0.0
        } else {
            levels.cache_hits as f64 / lookups as f64
        };
        Json::obj(vec![
            (
                "requests",
                Json::obj(vec![
                    (
                        "ok_by_kind",
                        Json::Object(
                            KINDS
                                .iter()
                                .zip(&self.ok_by_kind)
                                .map(|(k, c)| ((*k).to_owned(), Json::from(c.get())))
                                .collect(),
                        ),
                    ),
                    (
                        "errors_by_code",
                        Json::Object(
                            CODES
                                .iter()
                                .zip(&self.err_by_code)
                                .map(|(k, c)| ((*k).to_owned(), Json::from(c.get())))
                                .collect(),
                        ),
                    ),
                    ("ok_total", Json::from(self.ok_total())),
                    ("error_total", Json::from(self.err_total())),
                ]),
            ),
            ("connections", Json::from(self.connections.get())),
            (
                "queue",
                Json::obj(vec![
                    ("depth", Json::from(levels.queue_depth)),
                    ("capacity", Json::from(levels.queue_capacity)),
                ]),
            ),
            (
                "cache",
                Json::obj(vec![
                    ("hits", Json::from(levels.cache_hits)),
                    ("misses", Json::from(levels.cache_misses)),
                    ("hit_rate", Json::from(hit_rate)),
                    ("entries", Json::from(levels.cache_entries)),
                ]),
            ),
            ("store", store.map_or(Json::Null, StoreStats::to_json)),
            ("dropped_spans", Json::from(dropped_spans)),
            ("latency_ms", Self::histogram_json(&self.latency)),
            (
                "phases_ms",
                Json::obj(vec![
                    ("queue_wait", Self::histogram_json(&self.queue_wait)),
                    ("compute", Self::histogram_json(&self.compute)),
                    ("serialize", Self::histogram_json(&self.serialize)),
                ]),
            ),
            ("registry", self.registry.snapshot()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = LatencyHistogram::new();
        assert_eq!(h.quantile_ms(0.5), 0.0);
        // 99 fast samples (~100 µs) and one slow (~50 ms).
        for _ in 0..99 {
            h.record(Duration::from_micros(100));
        }
        h.record(Duration::from_millis(50));
        assert_eq!(h.count(), 100);
        let p50 = h.quantile_ms(0.5);
        let p99 = h.quantile_ms(0.99);
        let p100 = h.quantile_ms(1.0);
        // p50 lands in the [64, 128) µs bucket → upper bound 0.128 ms.
        assert!((0.1..0.3).contains(&p50), "p50 {p50}");
        assert!(p99 <= p50 * 2.0, "p99 {p99} is still a fast sample");
        // The slow sample is rank 100: [32768, 65536) µs → 65.536 ms.
        assert!((50.0..132.0).contains(&p100), "p100 {p100}");
        assert!(h.mean_ms() > 0.4 && h.mean_ms() < 1.0, "{}", h.mean_ms());
    }

    #[test]
    fn counters_split_by_kind_and_code() {
        let m = ServeMetrics::new();
        let phases = PhaseTimings {
            queue_wait: Duration::from_micros(10),
            compute: Duration::from_micros(1900),
            serialize: Duration::from_micros(80),
        };
        m.request("simulate", Ok(()), Duration::from_millis(2), phases);
        m.request("simulate", Ok(()), Duration::from_millis(2), phases);
        m.request(
            "encode",
            Ok(()),
            Duration::from_micros(30),
            PhaseTimings::default(),
        );
        m.request(
            "sweep",
            Err(ErrorCode::Overloaded),
            Duration::from_micros(5),
            PhaseTimings::default(),
        );
        assert_eq!(m.ok_total(), 3);
        assert_eq!(m.err_total(), 1);
        assert_eq!(m.errors(ErrorCode::Overloaded), 1);
        let j = m.to_json(
            &GaugeSample {
                queue_depth: 2,
                queue_capacity: 64,
                cache_hits: 30,
                cache_misses: 10,
                cache_entries: 12,
            },
            0,
            None,
        );
        assert_eq!(
            j.get("requests")
                .unwrap()
                .get("ok_by_kind")
                .unwrap()
                .get("simulate"),
            Some(&Json::Int(2))
        );
        assert_eq!(
            j.get("requests")
                .unwrap()
                .get("errors_by_code")
                .unwrap()
                .get("overloaded"),
            Some(&Json::Int(1))
        );
        assert_eq!(j.get("queue").unwrap().get("depth"), Some(&Json::Int(2)));
        assert_eq!(
            j.get("cache").unwrap().get("hit_rate"),
            Some(&Json::Float(0.75))
        );
        assert_eq!(
            j.get("latency_ms").unwrap().get("count"),
            Some(&Json::Int(4))
        );
    }

    #[test]
    fn phase_histograms_see_every_request_and_sum_below_total() {
        let m = ServeMetrics::new();
        for i in 0..10u64 {
            m.request(
                "simulate",
                Ok(()),
                Duration::from_micros(1000 + i),
                PhaseTimings {
                    queue_wait: Duration::from_micros(100),
                    compute: Duration::from_micros(800 + i),
                    serialize: Duration::from_micros(50),
                },
            );
        }
        let (qw, cp, sz) = m.phases();
        assert_eq!(qw.count(), m.latency().count());
        assert_eq!(cp.count(), m.latency().count());
        assert_eq!(sz.count(), m.latency().count());
        let phase_sum = qw.total_us() + cp.total_us() + sz.total_us();
        assert!(phase_sum <= m.latency().total_us());
        // The exact sums surface in the metrics response for clients to
        // make the same check.
        let j = m.to_json(
            &GaugeSample {
                queue_capacity: 64,
                ..GaugeSample::default()
            },
            0,
            None,
        );
        let total_us = j
            .get("latency_ms")
            .unwrap()
            .get("total_us")
            .and_then(Json::as_u64)
            .unwrap();
        let phases = j.get("phases_ms").unwrap();
        let sum: u64 = ["queue_wait", "compute", "serialize"]
            .iter()
            .map(|p| {
                phases
                    .get(p)
                    .unwrap()
                    .get("total_us")
                    .and_then(Json::as_u64)
                    .unwrap()
            })
            .sum();
        assert_eq!(sum, phase_sum);
        assert!(sum <= total_us);
    }

    #[test]
    fn registry_snapshot_rides_along_in_the_response() {
        let m = ServeMetrics::new();
        m.request(
            "ping",
            Ok(()),
            Duration::from_micros(5),
            PhaseTimings::default(),
        );
        let levels = GaugeSample {
            queue_depth: 1,
            queue_capacity: 8,
            cache_hits: 3,
            cache_misses: 1,
            cache_entries: 2,
        };
        let j = m.to_json(&levels, 5, None);
        let registry = j.get("registry").expect("registry snapshot");
        let counters = registry.get("counters").unwrap();
        assert_eq!(
            counters.get("serve.requests.ok.ping"),
            Some(&Json::Int(1)),
            "registry names follow serve.<component>.<metric>"
        );
        let gauges = registry.get("gauges").unwrap();
        assert_eq!(gauges.get("serve.cache.hits"), Some(&Json::Int(3)));
        assert_eq!(gauges.get("serve.queue.capacity"), Some(&Json::Int(8)));
        // Canonical: two snapshots of the same state are byte-identical.
        assert_eq!(
            m.to_json(&levels, 5, None).to_string(),
            m.to_json(&levels, 5, None).to_string()
        );
    }
}
