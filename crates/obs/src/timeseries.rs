//! Ring-buffer time series over the metrics registry, and the background
//! sampler that fills them.
//!
//! The [`Registry`](crate::Registry)'s instruments are cumulative: a
//! counter answers "how many ever", a histogram "all observations since
//! start". A [`Telemetry`] store turns them into *time-resolved* views by
//! ticking over its source registries (a [`Sampler`] thread does this on
//! an interval; the serve daemon's `stats` verb also forces a tick so a
//! scrape is never stale):
//!
//! * every **counter** value lands in a fixed-capacity [`TimeSeries`]
//!   ring, from which [`TimeSeries::rate_per_s`] computes a reset-aware
//!   rate over the retained window;
//! * every **gauge** lands in a ring, giving latest/min/max level views;
//! * every **histogram** is snapshotted and diffed against the previous
//!   snapshot ([`HistogramSnapshot::delta_since`]), yielding per-window
//!   bucket deltas whose quantiles describe *recent* latency rather than
//!   the run-lifetime aggregate.
//!
//! Samples carry their own `at_us` timestamps (µs since the store's
//! epoch), so rates stay correct under uneven tick spacing — a forced
//! `stats`-verb tick between background ticks shortens one window and
//! lengthens none.
//!
//! Everything is bounded: rings evict their oldest sample, and a
//! [`Telemetry`] tracks at most the instruments its sources hold. Source
//! registries are expected to use disjoint name sets (they do: `serve.*`
//! / `net.*` / `store.*` live in the daemon's registry, `sim.*` / `sbr.*`
//! / `fleet.*` in the process-global one); a name collision resolves as
//! last-source-wins per tick.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::json::Json;
use crate::metrics::{HistogramSnapshot, Registry};

/// Default per-series ring capacity (at the default 500 ms tick: one
/// minute of history).
pub const DEFAULT_RING_CAPACITY: usize = 120;

/// One timestamped observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sample {
    /// Microseconds since the owning store's epoch.
    pub at_us: u64,
    /// The sampled value (counters and gauges both fit f64 exactly up to
    /// 2^53 — far beyond any run's counts).
    pub value: f64,
}

/// A fixed-capacity ring of timestamped samples, oldest-evicted.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    cap: usize,
    samples: VecDeque<Sample>,
}

impl TimeSeries {
    /// An empty series retaining at most `capacity` (≥ 2) samples.
    pub fn new(capacity: usize) -> Self {
        Self {
            cap: capacity.max(2),
            samples: VecDeque::new(),
        }
    }

    /// Maximum retained samples.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Currently retained samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples are retained.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Appends a sample, evicting the oldest when full.
    pub fn push(&mut self, at_us: u64, value: f64) {
        if self.samples.len() >= self.cap {
            self.samples.pop_front();
        }
        self.samples.push_back(Sample { at_us, value });
    }

    /// The newest sample.
    pub fn latest(&self) -> Option<Sample> {
        self.samples.back().copied()
    }

    /// All retained samples, oldest first.
    pub fn samples(&self) -> impl Iterator<Item = &Sample> {
        self.samples.iter()
    }

    /// Smallest retained value.
    pub fn min(&self) -> Option<f64> {
        self.samples.iter().map(|s| s.value).reduce(f64::min)
    }

    /// Largest retained value.
    pub fn max(&self) -> Option<f64> {
        self.samples.iter().map(|s| s.value).reduce(f64::max)
    }

    /// The per-second rate of a *cumulative counter* over the retained
    /// window: summed sample-to-sample increases divided by the window's
    /// elapsed time.
    ///
    /// Reset-aware: a sample *below* its predecessor means the source
    /// process restarted, and the sample's value (everything counted since
    /// the restart) is the increase. `None` with fewer than two samples or
    /// a zero-length window (two ticks in the same microsecond — there is
    /// no rate in zero time).
    pub fn rate_per_s(&self) -> Option<f64> {
        let first = self.samples.front()?;
        let last = self.samples.back()?;
        let elapsed_us = last.at_us.saturating_sub(first.at_us);
        if self.samples.len() < 2 || elapsed_us == 0 {
            return None;
        }
        let mut increase = 0.0;
        for pair in self
            .samples
            .iter()
            .zip(self.samples.iter().skip(1))
            .map(|(a, b)| (a.value, b.value))
        {
            increase += if pair.1 >= pair.0 {
                pair.1 - pair.0
            } else {
                pair.1
            };
        }
        Some(increase / (elapsed_us as f64 / 1e6))
    }
}

/// Where a [`Telemetry`] store reads instruments from: an owned registry
/// (the serve daemon's) or the process-global one.
pub enum SamplerSource {
    /// A shared, reference-counted registry.
    Shared(Arc<Registry>),
    /// A `'static` registry (e.g. [`crate::registry()`]).
    Static(&'static Registry),
}

impl SamplerSource {
    fn registry(&self) -> &Registry {
        match self {
            SamplerSource::Shared(r) => r,
            SamplerSource::Static(r) => r,
        }
    }
}

/// Per-histogram tracking state: the previous cumulative snapshot (what
/// the next window diffs against), the latest cumulative, and the ring of
/// completed windows.
#[derive(Debug, Default)]
struct HistTrack {
    prev: HistogramSnapshot,
    cumulative: HistogramSnapshot,
    windows: VecDeque<(u64, HistogramSnapshot)>,
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, TimeSeries>,
    gauges: BTreeMap<String, TimeSeries>,
    hists: BTreeMap<String, HistTrack>,
    ticks: u64,
    last_at_us: u64,
}

/// The time-series store: tick it ([`Telemetry::sample`]) and it pulls
/// every instrument from its sources into bounded rings. See the module
/// docs for the sampling model.
pub struct Telemetry {
    epoch: Instant,
    ring_capacity: usize,
    sources: Vec<SamplerSource>,
    /// Runs before each tick — the place to refresh pull-style gauges
    /// (queue depth, cache hit counts) that are only pushed on demand.
    hook: Mutex<Option<Box<dyn Fn() + Send + Sync>>>,
    inner: Mutex<Inner>,
}

impl Telemetry {
    /// A store over `sources` with the default ring capacity.
    pub fn new(sources: Vec<SamplerSource>) -> Self {
        Self::with_capacity(sources, DEFAULT_RING_CAPACITY)
    }

    /// A store retaining at most `ring_capacity` samples (and histogram
    /// windows) per instrument.
    pub fn with_capacity(sources: Vec<SamplerSource>, ring_capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            ring_capacity: ring_capacity.max(2),
            sources,
            hook: Mutex::new(None),
            inner: Mutex::new(Inner::default()),
        }
    }

    /// Installs the pre-tick hook (replacing any previous one).
    pub fn set_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        *self.hook.lock().expect("telemetry hook lock") = Some(Box::new(hook));
    }

    /// Ticks once: runs the hook, then samples every instrument of every
    /// source. Returns the tick's `at_us` timestamp.
    pub fn sample(&self) -> u64 {
        if let Some(hook) = &*self.hook.lock().expect("telemetry hook lock") {
            hook();
        }
        let at_us = self.epoch.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let mut inner = self.inner.lock().expect("telemetry lock");
        inner.ticks += 1;
        inner.last_at_us = at_us;
        let cap = self.ring_capacity;
        for source in &self.sources {
            let registry = source.registry();
            for (name, value) in registry.counter_values() {
                inner
                    .counters
                    .entry(name)
                    .or_insert_with(|| TimeSeries::new(cap))
                    .push(at_us, value as f64);
            }
            for (name, value) in registry.gauge_values() {
                inner
                    .gauges
                    .entry(name)
                    .or_insert_with(|| TimeSeries::new(cap))
                    .push(at_us, value as f64);
            }
            for (name, snap) in registry.histogram_snapshots() {
                let track = inner.hists.entry(name).or_default();
                let window = snap.delta_since(&track.prev);
                if track.windows.len() >= cap {
                    track.windows.pop_front();
                }
                track.windows.push_back((at_us, window));
                track.prev = snap.clone();
                track.cumulative = snap;
            }
        }
        at_us
    }

    /// Ticks taken so far.
    pub fn ticks(&self) -> u64 {
        self.inner.lock().expect("telemetry lock").ticks
    }

    /// A copy of the counter ring under `name`, if sampled.
    pub fn counter_series(&self, name: &str) -> Option<TimeSeries> {
        self.inner
            .lock()
            .expect("telemetry lock")
            .counters
            .get(name)
            .cloned()
    }

    /// A copy of the gauge ring under `name`, if sampled.
    pub fn gauge_series(&self, name: &str) -> Option<TimeSeries> {
        self.inner
            .lock()
            .expect("telemetry lock")
            .gauges
            .get(name)
            .cloned()
    }

    /// The retained `(at_us, window)` histogram deltas under `name`,
    /// oldest first.
    pub fn histogram_windows(&self, name: &str) -> Vec<(u64, HistogramSnapshot)> {
        self.inner
            .lock()
            .expect("telemetry lock")
            .hists
            .get(name)
            .map(|t| t.windows.iter().cloned().collect())
            .unwrap_or_default()
    }

    /// Canonical JSON view of the latest state: cumulative value + windowed
    /// rate for counters, latest/min/max levels for gauges, cumulative and
    /// latest-window summaries for histograms. Name-sorted (`BTreeMap`
    /// order), so two serializations of identical state are byte-identical.
    pub fn stats_json(&self) -> Json {
        fn hist_json(s: &HistogramSnapshot) -> Json {
            let q = |q: f64| {
                s.quantile_us(q)
                    .map_or(Json::Null, |us| Json::from(us as f64 / 1e3))
            };
            Json::obj(vec![
                ("count", Json::from(s.count)),
                ("total_us", Json::from(s.total_us)),
                ("p50_ms", q(0.5)),
                ("p99_ms", q(0.99)),
                ("p999_ms", q(0.999)),
                ("max_ms", Json::from(s.max_us as f64 / 1e3)),
            ])
        }
        let inner = self.inner.lock().expect("telemetry lock");
        let counters = Json::Object(
            inner
                .counters
                .iter()
                .map(|(name, series)| {
                    let value = series.latest().map_or(0.0, |s| s.value) as u64;
                    (
                        name.clone(),
                        Json::obj(vec![
                            ("value", Json::from(value)),
                            (
                                "rate_per_s",
                                series.rate_per_s().map_or(Json::Null, Json::from),
                            ),
                        ]),
                    )
                })
                .collect(),
        );
        let gauges = Json::Object(
            inner
                .gauges
                .iter()
                .map(|(name, series)| {
                    (
                        name.clone(),
                        Json::obj(vec![
                            (
                                "value",
                                Json::Int(series.latest().map_or(0.0, |s| s.value) as i64),
                            ),
                            ("min", series.min().map_or(Json::Null, Json::from)),
                            ("max", series.max().map_or(Json::Null, Json::from)),
                        ]),
                    )
                })
                .collect(),
        );
        let histograms = Json::Object(
            inner
                .hists
                .iter()
                .map(|(name, track)| {
                    let window = track
                        .windows
                        .back()
                        .map(|(_, w)| w.clone())
                        .unwrap_or_default();
                    (
                        name.clone(),
                        Json::obj(vec![
                            ("cumulative", hist_json(&track.cumulative)),
                            ("window", hist_json(&window)),
                        ]),
                    )
                })
                .collect(),
        );
        Json::obj(vec![
            ("at_us", Json::from(inner.last_at_us)),
            ("ticks", Json::from(inner.ticks)),
            ("counters", counters),
            ("gauges", gauges),
            ("histograms", histograms),
        ])
    }
}

/// Renders a `stats` JSON document (the [`Telemetry::stats_json`] shape,
/// local or fetched from a daemon's `stats` verb) as Prometheus-style text
/// exposition: counters and gauges as single samples, histograms as
/// summaries with `quantile` labels (ms), `_sum` in µs. Metric names are
/// the dotted registry names with non-alphanumerics mapped to `_` and a
/// `sibia_` prefix.
pub fn prometheus_from_stats(stats: &Json) -> String {
    fn sanitize(name: &str) -> String {
        let mut out = String::with_capacity(name.len() + 6);
        out.push_str("sibia_");
        for c in name.chars() {
            out.push(if c.is_ascii_alphanumeric() { c } else { '_' });
        }
        out
    }
    fn number(v: &Json) -> Option<f64> {
        v.as_f64()
    }
    let mut out = String::new();
    if let Some(members) = stats.get("counters").and_then(Json::as_object) {
        for (name, entry) in members {
            let Some(value) = entry.get("value").and_then(number) else {
                continue;
            };
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} counter\n{n} {value}\n"));
        }
    }
    if let Some(members) = stats.get("gauges").and_then(Json::as_object) {
        for (name, entry) in members {
            let Some(value) = entry.get("value").and_then(number) else {
                continue;
            };
            let n = sanitize(name);
            out.push_str(&format!("# TYPE {n} gauge\n{n} {value}\n"));
        }
    }
    if let Some(members) = stats.get("histograms").and_then(Json::as_object) {
        for (name, entry) in members {
            let Some(cumulative) = entry.get("cumulative") else {
                continue;
            };
            let n = format!("{}_ms", sanitize(name));
            out.push_str(&format!("# TYPE {n} summary\n"));
            for (label, key) in [("0.5", "p50_ms"), ("0.99", "p99_ms"), ("0.999", "p999_ms")] {
                if let Some(q) = cumulative.get(key).and_then(number) {
                    out.push_str(&format!("{n}{{quantile=\"{label}\"}} {q}\n"));
                }
            }
            if let Some(sum) = cumulative.get("total_us").and_then(number) {
                out.push_str(&format!("{n}_sum {}\n", sum / 1e3));
            }
            if let Some(count) = cumulative.get("count").and_then(number) {
                out.push_str(&format!("{n}_count {count}\n"));
            }
        }
    }
    out
}

/// A background thread ticking a [`Telemetry`] store on an interval.
/// Stopped explicitly ([`Sampler::stop`]) or on drop; the stop request
/// wakes the thread immediately (condvar, not a sleep).
pub struct Sampler {
    stop: Arc<(Mutex<bool>, Condvar)>,
    handle: Option<JoinHandle<()>>,
}

impl Sampler {
    /// Starts sampling `telemetry` every `interval` (first tick
    /// immediately).
    pub fn start(telemetry: Arc<Telemetry>, interval: Duration) -> Self {
        let stop = Arc::new((Mutex::new(false), Condvar::new()));
        let thread_stop = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("sibia-sampler".to_owned())
            .spawn(move || {
                let (flag, cv) = &*thread_stop;
                loop {
                    telemetry.sample();
                    let guard = flag.lock().expect("sampler stop lock");
                    let (guard, _timeout) = cv
                        .wait_timeout_while(guard, interval, |stopped| !*stopped)
                        .expect("sampler stop lock");
                    if *guard {
                        return;
                    }
                }
            })
            .expect("spawn sampler thread");
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the thread and joins it.
    pub fn stop(mut self) {
        self.halt();
    }

    fn halt(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        let (flag, cv) = &*self.stop;
        *flag.lock().expect("sampler stop lock") = true;
        cv.notify_all();
        let _ = handle.join();
    }
}

impl Drop for Sampler {
    fn drop(&mut self) {
        self.halt();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_wraps_and_keeps_newest() {
        let mut s = TimeSeries::new(4);
        for i in 0..10u64 {
            s.push(i * 1_000_000, i as f64);
        }
        assert_eq!(s.len(), 4);
        assert_eq!(s.capacity(), 4);
        let kept: Vec<f64> = s.samples().map(|x| x.value).collect();
        assert_eq!(kept, vec![6.0, 7.0, 8.0, 9.0], "oldest evicted first");
        assert_eq!(s.latest().unwrap().value, 9.0);
        assert_eq!(s.min(), Some(6.0));
        assert_eq!(s.max(), Some(9.0));
        // Rate over the retained window only: +1 per second over 3 s.
        assert_eq!(s.rate_per_s(), Some(1.0));
    }

    #[test]
    fn rate_is_reset_aware() {
        let mut s = TimeSeries::new(8);
        // A counter climbing to 20, then its process restarts (drops to 5),
        // then climbs to 8: increases are 10 + 10 + 5 + 3 = 28 over 4 s.
        for (t, v) in [(0u64, 0.0), (1, 10.0), (2, 20.0), (3, 5.0), (4, 8.0)] {
            s.push(t * 1_000_000, v);
        }
        assert_eq!(s.rate_per_s(), Some(7.0));
    }

    #[test]
    fn rate_needs_two_samples_and_nonzero_elapsed() {
        let mut s = TimeSeries::new(4);
        assert_eq!(s.rate_per_s(), None, "empty");
        s.push(1_000, 5.0);
        assert_eq!(s.rate_per_s(), None, "single sample");
        // Zero-length window: a second sample in the same microsecond.
        s.push(1_000, 9.0);
        assert_eq!(s.rate_per_s(), None, "zero elapsed");
        s.push(501_000, 9.0);
        assert_eq!(s.rate_per_s(), Some(8.0), "4 over 0.5 s");
    }

    #[test]
    fn telemetry_samples_all_instrument_kinds() {
        let registry = Arc::new(Registry::new());
        registry.counter("t.hits").add(3);
        registry.gauge("t.depth").set(7);
        registry.histogram("t.lat_us").record_us(100);

        let telemetry =
            Telemetry::with_capacity(vec![SamplerSource::Shared(Arc::clone(&registry))], 8);
        let hook_runs = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let hook_runs2 = Arc::clone(&hook_runs);
        telemetry.set_hook(move || {
            hook_runs2.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });

        telemetry.sample();
        registry.counter("t.hits").add(5);
        registry.histogram("t.lat_us").record_us(200);
        registry.histogram("t.lat_us").record_us(300);
        telemetry.sample();

        assert_eq!(hook_runs.load(std::sync::atomic::Ordering::Relaxed), 2);
        assert_eq!(telemetry.ticks(), 2);
        let hits = telemetry.counter_series("t.hits").unwrap();
        assert_eq!(hits.len(), 2);
        assert_eq!(hits.latest().unwrap().value, 8.0);
        assert_eq!(
            telemetry
                .gauge_series("t.depth")
                .unwrap()
                .latest()
                .unwrap()
                .value,
            7.0
        );
        // The second histogram window holds exactly the two new samples.
        let windows = telemetry.histogram_windows("t.lat_us");
        assert_eq!(windows.len(), 2);
        assert_eq!(windows[0].1.count, 1);
        assert_eq!(windows[1].1.count, 2);
        assert_eq!(windows[1].1.total_us, 500);

        let stats = telemetry.stats_json();
        assert_eq!(
            stats
                .get("counters")
                .unwrap()
                .get("t.hits")
                .unwrap()
                .get("value"),
            Some(&Json::Int(8))
        );
        assert_eq!(
            stats
                .get("histograms")
                .unwrap()
                .get("t.lat_us")
                .unwrap()
                .get("cumulative")
                .unwrap()
                .get("count"),
            Some(&Json::Int(3))
        );
        // Canonical: same state serializes to the same bytes.
        assert_eq!(stats.to_string(), telemetry.stats_json().to_string());

        let prom = prometheus_from_stats(&telemetry.stats_json());
        assert!(prom.contains("# TYPE sibia_t_hits counter\nsibia_t_hits 8\n"));
        assert!(prom.contains("# TYPE sibia_t_depth gauge\nsibia_t_depth 7\n"));
        assert!(prom.contains("sibia_t_lat_us_ms_count 3\n"));
    }

    #[test]
    fn sampler_thread_ticks_and_stops_promptly() {
        let registry = Arc::new(Registry::new());
        registry.counter("s.ticked").inc();
        let telemetry = Arc::new(Telemetry::new(vec![SamplerSource::Shared(registry)]));
        let sampler = Sampler::start(Arc::clone(&telemetry), Duration::from_millis(5));
        let deadline = Instant::now() + Duration::from_secs(5);
        while telemetry.ticks() < 3 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert!(telemetry.ticks() >= 3, "sampler ticks on its interval");
        let stop_started = Instant::now();
        sampler.stop();
        assert!(
            stop_started.elapsed() < Duration::from_secs(2),
            "stop joins promptly (condvar wake, not a sleep)"
        );
    }
}
