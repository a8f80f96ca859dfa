//! Unified metrics: counters, gauges, power-of-two histograms, and the
//! [`Registry`] that names and deduplicates them.
//!
//! ## Naming convention
//!
//! Metric names are lowercase, dot-separated paths of the form
//! `<subsystem>.<component>.<metric>[_<unit>]` — e.g.
//! `serve.latency.total_us`, `sim.cache.hits`,
//! `sim.engine.worker.0.busy_us`. The registry deduplicates by exact name:
//! asking twice for the same name returns the same instrument, so every
//! subsystem can hold its own `Arc` handle to a shared counter without any
//! coordination beyond the name.
//!
//! ## Hot-path cost
//!
//! Every instrument is `AtomicU64`-based: recording an observation is one
//! to three relaxed atomic RMWs and never takes a lock or allocates. The
//! registry's `Mutex` is only touched at registration and snapshot time.
//!
//! ## Histogram scheme
//!
//! [`Histogram`] keeps the power-of-two microsecond bucket scheme the serve
//! daemon's latency histogram introduced (bucket `i` covers
//! `[2^i, 2^(i+1))` µs, 48 buckets, bucket 0 also catching sub-microsecond
//! samples): a reported quantile is the *upper bound* of its bucket — at
//! most 2× the true value — while the whole structure is 64 counters. The
//! saturating top bucket reports the exact observed maximum instead of its
//! (meaningless) nominal upper edge.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use crate::json::Json;

/// A monotonically increasing event counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// A zeroed counter.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins signed gauge.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// A zeroed gauge.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds a (possibly negative) delta.
    pub fn add(&self, delta: i64) {
        self.0.fetch_add(delta, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Power-of-two-microsecond histogram (`bucket i` covers `[2^i, 2^(i+1))`
/// µs; bucket 0 also catches sub-microsecond samples).
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; Self::BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Bucket count: 2^47 µs ≈ 4.5 years caps the top bucket.
    pub const BUCKETS: usize = 48;

    /// An empty histogram.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_of(us: u64) -> usize {
        (63 - u64::leading_zeros(us.max(1)) as usize).min(Self::BUCKETS - 1)
    }

    /// Records one observation, in microseconds.
    pub fn record_us(&self, us: u64) {
        self.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Records one latency observation.
    pub fn record(&self, latency: Duration) {
        self.record_us(latency.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observations in microseconds (exact, unlike quantiles).
    pub fn total_us(&self) -> u64 {
        self.total_us.load(Ordering::Relaxed)
    }

    /// Largest observation in microseconds (0 when empty).
    pub fn max_us(&self) -> u64 {
        self.max_us.load(Ordering::Relaxed)
    }

    /// The `q`-quantile (`0 < q <= 1`) in microseconds, as the upper bound
    /// of the bucket holding the rank-`ceil(q*n)` observation, or `None`
    /// when the histogram holds fewer than two observations (an empty or
    /// single-observation histogram has no meaningful quantile spread —
    /// reporting the lone bucket's upper edge as "p999" is garbage). The
    /// saturating top bucket reports the exact observed maximum (its
    /// nominal upper edge would not be an upper bound at all).
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        self.snapshot().quantile_us(q)
    }

    /// A point-in-time copy of every bucket plus the count/sum/max, the
    /// unit the time-series sampler diffs window-over-window.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count(),
            total_us: self.total_us(),
            max_us: self.max_us(),
        }
    }

    /// Compact JSON summary (`count`, `mean`, `p50`, `p99`, `p999`, `max`
    /// in ms). Quantiles are `null` when the histogram holds fewer than two
    /// observations (see [`Self::quantile_us`]).
    pub fn summary_json(&self) -> Json {
        self.snapshot().summary_json()
    }
}

/// A point-in-time copy of a [`Histogram`]: the same bucket scheme as
/// plain data, diffable window-over-window by the time-series sampler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket observation counts.
    pub buckets: [u64; Histogram::BUCKETS],
    /// Total observations.
    pub count: u64,
    /// Exact sum of observations in microseconds.
    pub total_us: u64,
    /// Largest observation in microseconds (0 when empty).
    pub max_us: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self {
            buckets: [0; Histogram::BUCKETS],
            count: 0,
            total_us: 0,
            max_us: 0,
        }
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (what "no previous window" diffs against).
    pub fn empty() -> Self {
        Self::default()
    }

    /// The observations recorded between `prev` and `self`, per bucket.
    ///
    /// Reset-aware: if `self` counts *less* than `prev` (the source process
    /// restarted between scrapes), the delta is `self` itself — everything
    /// the restarted process has seen — rather than a nonsense saturated
    /// difference. `max_us` is carried from `self` (a window max is not
    /// derivable from cumulative snapshots; the cumulative max is still an
    /// upper bound for every window).
    pub fn delta_since(&self, prev: &HistogramSnapshot) -> HistogramSnapshot {
        if self.count < prev.count {
            return self.clone();
        }
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].saturating_sub(prev.buckets[i])),
            count: self.count - prev.count,
            total_us: self.total_us.saturating_sub(prev.total_us),
            max_us: self.max_us,
        }
    }

    /// Mean in microseconds, or `None` when empty.
    pub fn mean_us(&self) -> Option<f64> {
        (self.count > 0).then(|| self.total_us as f64 / self.count as f64)
    }

    /// The `q`-quantile in microseconds, or `None` when fewer than two
    /// observations are held (same contract as [`Histogram::quantile_us`]).
    pub fn quantile_us(&self, q: f64) -> Option<u64> {
        if self.count < 2 {
            return None;
        }
        let n = self.count;
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                return Some(if i == Histogram::BUCKETS - 1 {
                    self.max_us
                } else {
                    1u64 << (i + 1)
                });
            }
        }
        Some(self.max_us)
    }

    /// Compact JSON summary; quantiles are `null` below two observations.
    pub fn summary_json(&self) -> Json {
        let q = |q: f64| {
            self.quantile_us(q)
                .map_or(Json::Null, |us| Json::from(us as f64 / 1e3))
        };
        Json::obj(vec![
            ("count", Json::from(self.count)),
            (
                "mean",
                self.mean_us().map_or(Json::Null, |us| Json::from(us / 1e3)),
            ),
            ("p50", q(0.5)),
            ("p99", q(0.99)),
            ("p999", q(0.999)),
            ("max", Json::from(self.max_us as f64 / 1e3)),
        ])
    }
}

/// Named, deduplicated instruments with a canonical snapshot serialization.
#[derive(Debug, Default)]
pub struct Registry {
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    gauges: Mutex<BTreeMap<String, Arc<Gauge>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The counter registered under `name`, creating it on first use. The
    /// same name always returns the same instrument.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut map = self.counters.lock().expect("registry lock");
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(Counter::new())),
        )
    }

    /// The gauge registered under `name`, creating it on first use.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut map = self.gauges.lock().expect("registry lock");
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(Gauge::new())),
        )
    }

    /// The histogram registered under `name`, creating it on first use.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut map = self.histograms.lock().expect("registry lock");
        Arc::clone(
            map.entry(name.to_owned())
                .or_insert_with(|| Arc::new(Histogram::new())),
        )
    }

    /// Every registered counter's `(name, value)`, name-sorted. The
    /// time-series sampler's iteration surface (handles stay inside).
    pub fn counter_values(&self) -> Vec<(String, u64)> {
        self.counters
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, c)| (k.clone(), c.get()))
            .collect()
    }

    /// Every registered gauge's `(name, value)`, name-sorted.
    pub fn gauge_values(&self) -> Vec<(String, i64)> {
        self.gauges
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, g)| (k.clone(), g.get()))
            .collect()
    }

    /// Every registered histogram's `(name, snapshot)`, name-sorted.
    pub fn histogram_snapshots(&self) -> Vec<(String, HistogramSnapshot)> {
        self.histograms
            .lock()
            .expect("registry lock")
            .iter()
            .map(|(k, h)| (k.clone(), h.snapshot()))
            .collect()
    }

    /// Canonical snapshot: every instrument, name-sorted (the `BTreeMap`
    /// order), counters/gauges as numbers and histograms as compact
    /// summaries. Two snapshots of identical state serialize to identical
    /// bytes.
    pub fn snapshot(&self) -> Json {
        let counters = Json::Object(
            self.counters
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, c)| (k.clone(), Json::from(c.get())))
                .collect(),
        );
        let gauges = Json::Object(
            self.gauges
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, g)| (k.clone(), Json::Int(g.get())))
                .collect(),
        );
        let histograms = Json::Object(
            self.histograms
                .lock()
                .expect("registry lock")
                .iter()
                .map(|(k, h)| (k.clone(), h.summary_json()))
                .collect(),
        );
        Json::obj(vec![
            ("counters", counters),
            ("gauges", gauges),
            ("histograms_ms", histograms),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_accumulate() {
        let r = Registry::new();
        let c = r.counter("test.hits");
        c.inc();
        c.add(4);
        assert_eq!(r.counter("test.hits").get(), 5, "same name, same counter");
        let g = r.gauge("test.depth");
        g.set(7);
        g.add(-3);
        assert_eq!(r.gauge("test.depth").get(), 4);
    }

    #[test]
    fn histogram_empty_single_and_saturating() {
        let h = Histogram::new();
        // Empty: no mean, no division by zero.
        assert_eq!(h.count(), 0);
        assert_eq!(h.snapshot().mean_us(), None);

        // Two observations in one bucket: every quantile reports that
        // bucket's upper bound ([64, 128) µs → 128 µs), the mean is exact.
        h.record(Duration::from_micros(100));
        h.record(Duration::from_micros(110));
        for q in [0.001, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile_us(q), Some(128), "q={q}");
        }
        assert_eq!(h.snapshot().mean_us(), Some(105.0));
        assert_eq!(h.max_us(), 110);

        // Saturating top bucket: the nominal upper edge of bucket 47 would
        // *under*-report a larger sample; the observed max must win.
        let h = Histogram::new();
        let big_us = (1u64 << 50) + 12345;
        h.record(Duration::from_micros(big_us));
        h.record(Duration::from_micros(big_us - 1));
        assert_eq!(h.quantile_us(1.0), Some(big_us));
        assert_eq!(h.quantile_us(0.5), Some(big_us));
    }

    #[test]
    fn histogram_quantile_rank_boundaries() {
        let h = Histogram::new();
        // 2 samples in bucket [1,2) µs, 2 in [1024, 2048) µs.
        h.record_us(1);
        h.record_us(1);
        h.record_us(1500);
        h.record_us(1600);
        // Rank math: q=0.5 → rank 2 → still the fast bucket (upper bound
        // 2 µs); q=0.75 → rank 3 → slow bucket (2048 µs).
        assert_eq!(h.quantile_us(0.5), Some(2));
        assert_eq!(h.quantile_us(0.75), Some(2048));
        assert_eq!(h.quantile_us(1.0), Some(2048));
        assert_eq!(h.total_us(), 1 + 1 + 1500 + 1600);
    }

    #[test]
    fn typed_quantiles_are_none_on_empty_and_single_observation() {
        let h = Histogram::new();
        // Empty: every typed quantile (and the summary's p50/p99/p999) is
        // None/null, not a bucket edge.
        assert_eq!(h.quantile_us(0.5), None);
        assert_eq!(h.quantile_us(0.999), None);
        assert_eq!(h.quantile_us(0.99), None);
        let s = h.summary_json();
        for q in ["p50", "p99", "p999", "mean"] {
            assert_eq!(s.get(q), Some(&Json::Null), "{q} must be null when empty");
        }

        // Single observation: still None — one sample has no quantile
        // spread, and "p999 = 0.128 ms" from a lone 100 µs sample is
        // bucket-edge garbage.
        h.record(Duration::from_micros(100));
        assert_eq!(h.quantile_us(0.999), None);
        let s = h.summary_json();
        assert_eq!(s.get("p999"), Some(&Json::Null));
        assert_eq!(s.get("count"), Some(&Json::Int(1)));
        assert!(s.get("mean").unwrap().as_f64().is_some(), "mean is defined");

        // Two observations: quantiles become real bucket upper bounds.
        h.record(Duration::from_micros(3000));
        assert_eq!(h.quantile_us(0.5), Some(128));
        assert_eq!(h.quantile_us(0.999), Some(4096));
    }

    #[test]
    fn snapshot_delta_windows_and_reset_awareness() {
        let h = Histogram::new();
        h.record_us(100);
        h.record_us(100);
        let w0 = h.snapshot();
        // Empty window (no new observations): delta has no quantiles.
        let empty = h.snapshot().delta_since(&w0);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.quantile_us(0.5), None);
        assert_eq!(empty.summary_json().get("p50"), Some(&Json::Null));

        // Single-observation window: typed None too (extends the empty/
        // single-observation rule from the cumulative histogram to windows).
        h.record_us(5000);
        let single = h.snapshot().delta_since(&w0);
        assert_eq!(single.count, 1);
        assert_eq!(single.quantile_us(0.999), None);

        // A real window only sees its own observations, not w0's.
        h.record_us(6000);
        let win = h.snapshot().delta_since(&w0);
        assert_eq!(win.count, 2);
        assert_eq!(win.total_us, 11_000);
        assert_eq!(win.quantile_us(0.5), Some(8192), "both in [4096,8192) µs");

        // Counter reset (process restart mid-scrape): the new process's
        // smaller cumulative snapshot *is* the delta.
        let fresh = Histogram::new();
        fresh.record_us(42);
        let after_restart = fresh.snapshot().delta_since(&h.snapshot());
        assert_eq!(after_restart.count, 1);
        assert_eq!(after_restart.total_us, 42);
    }

    #[test]
    fn registry_iteration_matches_snapshot() {
        let r = Registry::new();
        r.counter("a.c").add(3);
        r.gauge("b.g").set(-7);
        r.histogram("c.h").record_us(10);
        assert_eq!(r.counter_values(), vec![("a.c".to_owned(), 3)]);
        assert_eq!(r.gauge_values(), vec![("b.g".to_owned(), -7)]);
        let hists = r.histogram_snapshots();
        assert_eq!(hists.len(), 1);
        assert_eq!(hists[0].0, "c.h");
        assert_eq!(hists[0].1.count, 1);
    }

    #[test]
    fn snapshot_is_canonical_and_parses() {
        let r = Registry::new();
        r.counter("b.second").add(2);
        r.counter("a.first").inc();
        r.gauge("z.depth").set(-3);
        r.histogram("lat.total_us").record(Duration::from_millis(5));
        let s1 = r.snapshot().to_string();
        let s2 = r.snapshot().to_string();
        assert_eq!(s1, s2, "snapshots of identical state are byte-identical");
        let back = Json::parse(&s1).expect("snapshot parses");
        assert_eq!(
            back.get("counters").unwrap().get("a.first"),
            Some(&Json::Int(1))
        );
        assert_eq!(
            back.get("gauges").unwrap().get("z.depth"),
            Some(&Json::Int(-3))
        );
        assert!(back
            .get("histograms_ms")
            .unwrap()
            .get("lat.total_us")
            .unwrap()
            .get("p99")
            .is_some());
        // Name-sorted: "a.first" serializes before "b.second".
        let a = s1.find("a.first").unwrap();
        let b = s1.find("b.second").unwrap();
        assert!(a < b);
    }
}
