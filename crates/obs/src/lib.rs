//! # sibia-obs — observability substrate for the Sibia stack
//!
//! Dependency-free (std-only) building blocks shared by the simulator and
//! the serve daemon:
//!
//! | module | what it provides |
//! |---|---|
//! | [`trace`] | hierarchical span tracer: lock-striped bounded buffer, Chrome `trace_event` JSONL export |
//! | [`metrics`] | unified registry of counters / gauges / power-of-two latency histograms with canonical JSON snapshots |
//! | [`timeseries`] | ring-buffer time series over the registry: reset-aware counter rates, gauge levels, windowed histogram deltas, a background sampler, Prometheus-style exposition |
//! | [`context`] | cross-process trace context (`trace_id` + parent span id) propagated through request envelopes |
//! | [`json`] | the stack's canonical JSON value, parser, and serializer (re-exported as `sibia_serve::Json`) |
//!
//! This crate sits at the **bottom** of the dependency graph — everything
//! may depend on it, it depends on nothing — so the simulator, the serve
//! daemon, the CLI, and the benches all record into one tracer and one
//! registry and agree byte-for-byte on serialization.
//!
//! ## Global instances
//!
//! [`tracer()`] is the process-wide tracer, **disabled by default**: a
//! span call on the disabled tracer is a single relaxed atomic load and
//! allocates nothing (pinned by a counting-allocator test), so library
//! code instruments unconditionally and front-ends opt in. [`registry()`]
//! is the process-wide metrics registry; its instruments are plain
//! atomics and are always live.
//!
//! ```
//! let mut span = sibia_obs::tracer().span("example.step"); // inert: tracing is off
//! span.attr("layer", "conv1");
//! drop(span);
//! assert!(sibia_obs::tracer().records().is_empty());
//!
//! sibia_obs::registry()
//!     .counter("example.requests")
//!     .inc();
//! ```

pub mod context;
pub mod json;
pub mod metrics;
pub mod timeseries;
pub mod trace;

pub use context::TraceContext;
pub use json::{Json, JsonError};
pub use metrics::{Counter, Gauge, Histogram, HistogramSnapshot, Registry};
pub use timeseries::{Sampler, SamplerSource, Telemetry, TimeSeries};
pub use trace::{registry, tracer, AdoptedParent, SpanGuard, SpanRecord, Tracer};
