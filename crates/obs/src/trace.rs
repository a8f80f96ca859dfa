//! Hierarchical span tracing with Chrome `trace_event` export.
//!
//! A [`Tracer`] records completed spans — name, monotonic start/duration
//! timestamps, thread id, parent span, and `key=value` attributes — into a
//! lock-striped in-memory ring buffer (one mutex-guarded deque per stripe,
//! striped by thread id, so concurrent workers rarely contend). Completed
//! traces export through [`Tracer::export_chrome`] as Chrome `trace_event`
//! **JSONL**: one complete-event (`"ph":"X"`) JSON object per line,
//! loadable in Perfetto (whose JSON tokenizer accepts a bare event
//! sequence) and trivially convertible to the `chrome://tracing` array
//! form.
//!
//! ## Cost model
//!
//! Tracing is **disabled by default**. A disabled [`Tracer::span`] call is
//! one relaxed atomic load and returns an inert guard — no heap
//! allocation, no thread-local access, no timestamps (the no-allocation
//! property is pinned by `tests/noalloc.rs` with a counting global
//! allocator). Enabled spans pay two `Instant` reads, one shard lock, and
//! the allocations for the name/attribute strings.
//!
//! ## Hierarchy and threads
//!
//! Parentage is thread-scoped: each thread keeps a stack of its open
//! spans, and a new span's parent is the top of that stack. Guards may be
//! ended out of order (the stack removes by id, wherever it sits); spans
//! on different threads record concurrently and carry their own thread
//! ids. A guard moved to — and dropped on — another thread records
//! correctly but does not parent later spans of its origin thread. A
//! worker thread nests its spans under a span of the thread that spawned
//! it by adopting that span's id ([`Tracer::adopt_parent`]).
//!
//! When the buffer is full the **oldest** span of the stripe is evicted
//! and counted in [`Tracer::dropped`] — recent history wins, memory stays
//! bounded.

use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use crate::json::Json;

/// Buffer stripes; thread ids map onto stripes round-robin.
const SHARDS: usize = 16;

/// Default total span capacity of a tracer.
const DEFAULT_CAPACITY: usize = 65_536;

/// Globally unique span ids (shared across tracers so a thread's span
/// stack can interleave spans of several tracers without collisions).
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Small dense thread ids (stable per thread for the process lifetime).
static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn current_tid() -> u64 {
    TID.with(|t| *t)
}

/// One completed span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Process-unique span id.
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Parent span id in *another process* (a propagated trace context):
    /// the caller's span id, meaningful only to a merger that knows which
    /// process it came from (see `fleet`'s merged-trace export).
    pub remote_parent: Option<u64>,
    /// Span name (e.g. `sim.layer`).
    pub name: String,
    /// Dense thread id of the recording thread.
    pub tid: u64,
    /// Start, µs since the tracer's epoch.
    pub start_us: u64,
    /// Duration in µs.
    pub dur_us: u64,
    /// `key=value` attributes, insertion order.
    pub attrs: Vec<(String, String)>,
}

impl SpanRecord {
    /// End timestamp, µs since the tracer's epoch.
    pub fn end_us(&self) -> u64 {
        self.start_us + self.dur_us
    }

    /// Attribute lookup by key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attrs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// The span as one Chrome `trace_event` complete event (`"ph":"X"`).
    /// Span id/parent ride along in `args` (the chrome format has no
    /// first-class span ids for complete events).
    pub fn to_chrome_json(&self) -> Json {
        self.to_chrome_json_pid(1)
    }

    /// [`Self::to_chrome_json`] under an explicit process id — the merged
    /// multi-process export gives each backend its own `pid` lane.
    pub fn to_chrome_json_pid(&self, pid: u64) -> Json {
        let mut args: Vec<(String, Json)> = vec![("id".to_owned(), Json::from(self.id))];
        if let Some(p) = self.parent {
            args.push(("parent".to_owned(), Json::from(p)));
        }
        if let Some(rp) = self.remote_parent {
            args.push(("remote_parent".to_owned(), Json::from(rp)));
        }
        for (k, v) in &self.attrs {
            args.push((k.clone(), Json::Str(v.clone())));
        }
        Json::obj(vec![
            ("name", Json::from(self.name.as_str())),
            ("cat", Json::from("sibia")),
            ("ph", Json::from("X")),
            ("pid", Json::from(pid)),
            ("tid", Json::from(self.tid)),
            ("ts", Json::from(self.start_us)),
            ("dur", Json::from(self.dur_us)),
            ("args", Json::Object(args)),
        ])
    }
}

/// The span recorder. See the module docs for the cost model.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    shard_capacity: usize,
    shards: [Mutex<VecDeque<SpanRecord>>; SHARDS],
    dropped: AtomicU64,
}

impl Tracer {
    /// A disabled tracer with the default buffer capacity.
    pub fn new() -> Self {
        Self::with_capacity(DEFAULT_CAPACITY)
    }

    /// A disabled tracer buffering at most `capacity` (≥ `SHARDS`) spans
    /// in total; the oldest span of a full stripe is evicted on overflow.
    fn with_capacity(capacity: usize) -> Self {
        Self {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            shard_capacity: capacity.div_ceil(SHARDS).max(1),
            shards: std::array::from_fn(|_| Mutex::new(VecDeque::new())),
            dropped: AtomicU64::new(0),
        }
    }

    /// Starts recording spans.
    pub fn enable(&self) {
        self.enabled.store(true, Ordering::Relaxed);
    }

    /// Stops recording spans (already-buffered spans are kept).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Relaxed);
    }

    /// Whether spans are currently recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Spans evicted because their stripe was full.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Opens a span. The returned guard records the span when dropped (or
    /// via [`SpanGuard::end`]); on a disabled tracer this is one atomic
    /// load and an inert, allocation-free guard.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        if !self.is_enabled() {
            return SpanGuard { inner: None };
        }
        let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied();
            s.push(id);
            parent
        });
        SpanGuard {
            inner: Some(SpanInner {
                tracer: self,
                id,
                parent,
                remote_parent: None,
                name: name.to_owned(),
                tid: current_tid(),
                start: Instant::now(),
                attrs: Vec::new(),
            }),
        }
    }

    /// Makes `parent`, a span open on another thread (its
    /// [`SpanGuard::id`]), the parent of the spans this thread opens until
    /// the returned guard drops. Parent stacks are per thread, so this is
    /// how a worker thread keeps its spans under the span that spawned it.
    /// `None`, the id of an inert guard, adopts nothing.
    pub fn adopt_parent(&self, parent: Option<u64>) -> AdoptedParent {
        if let Some(id) = parent {
            STACK.with(|s| s.borrow_mut().push(id));
        }
        AdoptedParent { id: parent }
    }

    fn push(&self, record: SpanRecord) {
        let shard = &self.shards[(record.tid as usize) % SHARDS];
        let mut buf = shard.lock().expect("tracer shard lock");
        if buf.len() >= self.shard_capacity {
            buf.pop_front();
            self.dropped.fetch_add(1, Ordering::Relaxed);
        }
        buf.push_back(record);
    }

    /// All buffered spans, sorted by start time (ties by id).
    pub fn records(&self) -> Vec<SpanRecord> {
        let mut all: Vec<SpanRecord> = Vec::new();
        for shard in &self.shards {
            all.extend(shard.lock().expect("tracer shard lock").iter().cloned());
        }
        all.sort_by_key(|r| (r.start_us, r.id));
        all
    }

    /// Discards all buffered spans (the dropped counter is kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("tracer shard lock").clear();
        }
    }

    /// Chrome `trace_event` JSONL: one complete-event JSON object per
    /// line, start-time order. Every line independently parses as JSON.
    pub fn export_chrome(&self) -> String {
        let mut out = String::new();
        for r in self.records() {
            out.push_str(&r.to_chrome_json().to_string());
            out.push('\n');
        }
        out
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

struct SpanInner<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: Option<u64>,
    remote_parent: Option<u64>,
    name: String,
    tid: u64,
    start: Instant,
    attrs: Vec<(String, String)>,
}

/// An open span; recorded into the tracer when dropped or ended.
pub struct SpanGuard<'a> {
    inner: Option<SpanInner<'a>>,
}

impl SpanGuard<'_> {
    /// The span id, when recording.
    pub fn id(&self) -> Option<u64> {
        self.inner.as_ref().map(|i| i.id)
    }

    /// Attaches a `key=value` attribute. No-op (and no allocation) on an
    /// inert guard.
    pub fn attr(&mut self, key: &str, value: impl std::fmt::Display) {
        if let Some(inner) = &mut self.inner {
            inner.attrs.push((key.to_owned(), value.to_string()));
        }
    }

    /// Marks this span as the child of a span in *another process* (a
    /// propagated trace context). No-op on an inert guard.
    pub fn set_remote_parent(&mut self, remote: u64) {
        if let Some(inner) = &mut self.inner {
            inner.remote_parent = Some(remote);
        }
    }

    /// Ends the span now (equivalent to dropping the guard).
    pub fn end(self) {}
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(inner) = self.inner.take() else {
            return;
        };
        let dur_us = inner.start.elapsed().as_micros().min(u128::from(u64::MAX)) as u64;
        let start_us = inner
            .start
            .checked_duration_since(inner.tracer.epoch)
            .map_or(0, |d| d.as_micros().min(u128::from(u64::MAX)) as u64);
        // Out-of-order ends are fine: remove this id wherever it sits in
        // the current thread's stack (absent if the guard crossed threads).
        STACK.with(|s| s.borrow_mut().retain(|&id| id != inner.id));
        inner.tracer.push(SpanRecord {
            id: inner.id,
            parent: inner.parent,
            remote_parent: inner.remote_parent,
            name: inner.name,
            tid: inner.tid,
            start_us,
            dur_us,
            attrs: inner.attrs,
        });
    }
}

/// A parent adopted from another thread ([`Tracer::adopt_parent`]); this
/// thread's later spans stop nesting under it when the guard drops.
#[must_use = "the parent is adopted only while the guard lives"]
pub struct AdoptedParent {
    id: Option<u64>,
}

impl Drop for AdoptedParent {
    fn drop(&mut self) {
        if let Some(id) = self.id {
            STACK.with(|s| s.borrow_mut().retain(|&open| open != id));
        }
    }
}

/// The spans of one trace among `records`: each span whose `trace_id`
/// attribute is `trace_id`, and each span whose parent chain reaches one
/// (parent ids are always lower than child ids, so the walk terminates).
/// Input order is kept. This is how a served request's spans, and a fleet
/// sweep's spans in every process, are told apart from the rest.
pub fn select_trace<'a>(records: &'a [SpanRecord], trace_id: &str) -> Vec<&'a SpanRecord> {
    let by_id: HashMap<u64, &SpanRecord> = records.iter().map(|r| (r.id, r)).collect();
    records
        .iter()
        .filter(|r| {
            let mut cur = Some(*r);
            while let Some(s) = cur {
                if s.attr("trace_id") == Some(trace_id) {
                    return true;
                }
                cur = s.parent.and_then(|p| by_id.get(&p).copied());
            }
            false
        })
        .collect()
}

static GLOBAL_TRACER: OnceLock<Tracer> = OnceLock::new();

/// The process-wide tracer: the one tracer every span of the stack records
/// into (simulation, served requests, the store, the fleet coordinator).
/// Disabled by default; front-ends (`sibia-cli --trace-out`, `serve
/// --trace`) enable it.
pub fn tracer() -> &'static Tracer {
    GLOBAL_TRACER.get_or_init(Tracer::new)
}

static GLOBAL_REGISTRY: OnceLock<crate::metrics::Registry> = OnceLock::new();

/// The process-wide metrics registry (always on — its instruments are
/// plain atomics).
pub fn registry() -> &'static crate::metrics::Registry {
    GLOBAL_REGISTRY.get_or_init(crate::metrics::Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nested_spans_record_parentage() {
        let t = Tracer::new();
        t.enable();
        {
            let mut outer = t.span("outer");
            outer.attr("k", "v");
            {
                let inner = t.span("inner");
                assert!(inner.id().is_some());
            }
        }
        let records = t.records();
        assert_eq!(records.len(), 2);
        let outer = records.iter().find(|r| r.name == "outer").unwrap();
        let inner = records.iter().find(|r| r.name == "inner").unwrap();
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(outer.parent, None);
        assert_eq!(outer.attr("k"), Some("v"));
        assert_eq!(outer.tid, inner.tid);
        // The inner span completed first and within the outer's window.
        assert!(inner.start_us >= outer.start_us);
    }

    #[test]
    fn out_of_order_end_is_handled() {
        let t = Tracer::new();
        t.enable();
        let a = t.span("a");
        let b = t.span("b");
        let c = t.span("c");
        // End the *middle* span first, then the oldest, then the newest.
        drop(b);
        drop(a);
        drop(c);
        let records = t.records();
        assert_eq!(records.len(), 3);
        let ida = records.iter().find(|r| r.name == "a").unwrap().id;
        let idb = records.iter().find(|r| r.name == "b").unwrap().id;
        assert_eq!(
            records.iter().find(|r| r.name == "b").unwrap().parent,
            Some(ida)
        );
        assert_eq!(
            records.iter().find(|r| r.name == "c").unwrap().parent,
            Some(idb),
            "parent captured at open time survives out-of-order ends"
        );
        // A fresh span must not inherit any of the closed ids as parent.
        let d = t.span("d");
        drop(d);
        assert_eq!(
            t.records().iter().find(|r| r.name == "d").unwrap().parent,
            None
        );
    }

    #[test]
    fn cross_thread_spans_carry_their_own_tids() {
        let t = Tracer::new();
        t.enable();
        std::thread::scope(|scope| {
            for i in 0..4 {
                let t = &t;
                scope.spawn(move || {
                    let mut outer = t.span("worker");
                    outer.attr("i", i);
                    let _inner = t.span("cell");
                });
            }
        });
        let records = t.records();
        assert_eq!(records.len(), 8);
        let mut tids: Vec<u64> = records
            .iter()
            .filter(|r| r.name == "worker")
            .map(|r| r.tid)
            .collect();
        tids.sort_unstable();
        tids.dedup();
        assert_eq!(tids.len(), 4, "each thread records under its own tid");
        for cell in records.iter().filter(|r| r.name == "cell") {
            let parent = records.iter().find(|r| Some(r.id) == cell.parent).unwrap();
            assert_eq!(parent.tid, cell.tid, "parentage never crosses threads");
        }
    }

    #[test]
    fn an_adopted_parent_nests_another_threads_spans() {
        let t = Tracer::new();
        t.enable();
        let outer = t.span("grid");
        let outer_id = outer.id();
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let adopted = t.adopt_parent(outer_id);
                drop(t.span("cell"));
                drop(adopted);
                drop(t.span("after"));
            });
        });
        drop(outer);
        let records = t.records();
        let parent_of = |name: &str| records.iter().find(|r| r.name == name).unwrap().parent;
        assert_eq!(parent_of("cell"), outer_id);
        assert_eq!(parent_of("after"), None, "the adoption ends with its guard");
    }

    #[test]
    fn full_buffer_evicts_oldest_and_counts_drops() {
        let t = Tracer::with_capacity(SHARDS); // one span per stripe
        t.enable();
        for i in 0..5 {
            let mut g = t.span("s");
            g.attr("i", i);
        }
        // All five spans landed on this thread's single stripe.
        let records = t.records();
        assert_eq!(records.len(), 1, "stripe capacity is one");
        assert_eq!(records[0].attr("i"), Some("4"), "newest span survives");
        assert_eq!(t.dropped(), 4);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new();
        let mut g = t.span("ghost");
        g.attr("k", "v");
        assert_eq!(g.id(), None);
        drop(g);
        let mut remote = t.span("ghost2");
        remote.set_remote_parent(5);
        drop(remote);
        assert!(t.records().is_empty());
    }

    #[test]
    fn chrome_export_is_one_json_object_per_line() {
        let t = Tracer::new();
        t.enable();
        {
            let mut g = t.span("alpha");
            g.attr("layer", "conv1");
            let _inner = t.span("beta");
        }
        {
            let mut g = t.span("gamma");
            g.attr("trace_id", "t1");
            g.set_remote_parent(42);
        }
        let jsonl = t.export_chrome();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 3);
        for line in &lines {
            let v = Json::parse(line).expect("each line parses independently");
            assert_eq!(v.get("ph"), Some(&Json::from("X")));
            assert!(v.get("ts").is_some() && v.get("dur").is_some());
            assert_eq!(v.to_string(), **line, "canonical round trip");
        }
    }

    #[test]
    fn select_trace_keeps_the_tagged_spans_and_their_descendants() {
        let t = Tracer::new();
        t.enable();
        {
            let mut request = t.span("request");
            request.attr("trace_id", "t1");
            let _cell = t.span("cell");
            let _layer = t.span("layer");
        }
        {
            let mut other = t.span("other");
            other.attr("trace_id", "t2");
            let _child = t.span("other.child");
        }
        drop(t.span("untagged"));
        let records = t.records();
        let names = |id: &str| -> Vec<String> {
            select_trace(&records, id)
                .iter()
                .map(|r| r.name.clone())
                .collect()
        };
        assert_eq!(names("t1"), ["request", "cell", "layer"]);
        assert_eq!(names("t2"), ["other", "other.child"]);
        assert!(names("t3").is_empty());
    }
}
