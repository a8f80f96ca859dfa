//! The daemon's front end: the epoll reactor.
//!
//! Glue between the protocol-agnostic [`sibia_net`] reactor and the serve
//! daemon: one `ReactorHandler` implements [`FrameHandler`] on the reactor
//! thread, answering cheap requests (`ping`, `version`, `lookup`,
//! `metrics`, `spans`, `stats`) inline and admitting work requests into
//! the bounded [`JobQueue`](crate::queue::JobQueue) the worker pool
//! drains. Workers finish jobs themselves ([`finish_job`]): write the
//! response line, record metrics, then hand the line to the reactor
//! through the frame's [`Completer`] — which is what lets pipelined
//! responses on one connection complete out of request order. Every line,
//! inline or queued, comes from `protocol::response_line`.
//!
//! ## Backpressure (all typed, in-protocol)
//!
//! A work request is rejected `overloaded` when any of these budgets is
//! full, checked in order:
//!
//! 1. its connection already has `pipeline_depth` requests in flight;
//! 2. its connection has more than [`WRITE_BUDGET_BYTES`] of unread
//!    response bytes queued (a client that pipelines but never reads);
//! 3. the shared job queue is at capacity.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sibia_net::{Completer, FrameCx, FrameHandler, FrameOutcome, Reactor, ReactorConfig};
use sibia_obs::json::Json;

use crate::metrics::PhaseTimings;
use crate::protocol::{
    parse_request, response_line, Answer, Envelope, ErrorCode, Request, ServeError,
};
use crate::queue::PushError;
use crate::server::{Job, ServeConfig, Shared, MAX_LINE_BYTES, SPANS_DEFAULT_LIMIT};

/// Server-assigned trace-id sequence (`t1`, `t2`, …). Process-wide like
/// the tracer the ids select spans from, so daemons sharing a process
/// never assign the same id.
static TRACE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Per-connection write budget. A work request arriving while more than
/// this many response bytes are queued unread is rejected with a typed
/// `overloaded` error.
const WRITE_BUDGET_BYTES: usize = 1 << 20;

/// Everything a worker needs to finish one reactor-admitted request after
/// computing its outcome.
pub(crate) struct ReactorJob {
    completer: Completer,
    id: Option<Json>,
    trace_id: String,
    kind: &'static str,
    received: Instant,
}

impl ReactorJob {
    /// A clone of the connection's completer, for progress frames
    /// (non-final completions) during streamed sweeps.
    pub(crate) fn completer(&self) -> Completer {
        self.completer.clone()
    }

    /// The `trace_id` the response envelope will carry.
    pub(crate) fn trace_id(&self) -> &str {
        &self.trace_id
    }
}

/// Binds and starts the reactor serving `shared`'s protocol. The reactor's
/// `net.*` instruments register in the daemon's unified metrics registry.
pub(crate) fn start(config: &ServeConfig, shared: Arc<Shared>) -> std::io::Result<Reactor> {
    let reactor_config = ReactorConfig {
        host: config.host.clone(),
        port: config.port,
        max_frame_bytes: MAX_LINE_BYTES,
        max_connections: 16_384,
        // The handler rejects work past `WRITE_BUDGET_BYTES`; the hard cap
        // only guards against a client that pipelines inline requests
        // forever without ever reading.
        hard_write_cap: WRITE_BUDGET_BYTES * 8,
    };
    let handler = Arc::new(ReactorHandler {
        shared: Arc::clone(&shared),
        pipeline_depth: config.pipeline_depth.max(1),
    });
    Reactor::start(reactor_config, handler, shared.metrics.registry())
}

/// The NDJSON protocol, spoken frame-at-a-time on the reactor thread.
struct ReactorHandler {
    shared: Arc<Shared>,
    pipeline_depth: usize,
}

impl ReactorHandler {
    /// Finishes a request entirely on the reactor thread: write, record,
    /// and return the response line as an inline reply.
    fn reply_now(
        &self,
        id: Option<&Json>,
        trace_id: &str,
        kind: &'static str,
        received: Instant,
        mut phases: PhaseTimings,
        outcome: Result<Answer, ServeError>,
    ) -> FrameOutcome {
        let outcome_code = outcome.as_ref().map(|_| ()).map_err(|e| e.code);
        let serialize_start = Instant::now();
        let line = response_line(id, trace_id, &outcome);
        phases.serialize = serialize_start.elapsed();
        self.shared
            .metrics
            .request(kind, outcome_code, received.elapsed(), phases);
        FrameOutcome::Reply(line)
    }

    /// Typed rejection without touching the queue.
    fn reject(
        &self,
        id: Option<&Json>,
        trace_id: &str,
        kind: &'static str,
        received: Instant,
        error: ServeError,
    ) -> FrameOutcome {
        self.reply_now(
            id,
            trace_id,
            kind,
            received,
            PhaseTimings::default(),
            Err(error),
        )
    }
}

impl FrameHandler for ReactorHandler {
    fn on_frame(&self, cx: &FrameCx, frame: &[u8]) -> FrameOutcome {
        let received = Instant::now();
        let Ok(line) = std::str::from_utf8(frame) else {
            // Invalid UTF-8 is a framing violation, not a request.
            return FrameOutcome::Close;
        };
        if line.trim().is_empty() {
            return FrameOutcome::Ignore;
        }
        let mut trace_id = format!("t{}", TRACE_SEQ.fetch_add(1, Ordering::Relaxed) + 1);
        let envelope = match parse_request(line) {
            Ok(envelope) => envelope,
            Err(e) => return self.reject(None, &trace_id, "invalid", received, e),
        };
        let id = envelope.id.clone();
        let kind = envelope.request.kind();
        // A propagated trace context's id supersedes the server-assigned
        // one: the response echoes the caller's id, and the request's spans
        // become pullable under it via `spans`.
        if let Some(ctx) = &envelope.trace {
            trace_id = ctx.trace_id.clone();
        }

        // Inline requests are answered on the reactor thread so the daemon
        // stays observable while the worker pool is saturated; they bypass
        // the pipeline budgets the same way they bypass the job queue.
        let inline = |handler: &dyn Fn() -> Json| {
            let mut phases = PhaseTimings::default();
            let compute_start = Instant::now();
            let result = Answer::Doc(handler());
            phases.compute = compute_start.elapsed();
            self.reply_now(id.as_ref(), &trace_id, kind, received, phases, Ok(result))
        };
        match &envelope.request {
            Request::Ping => return inline(&|| Json::obj(vec![("pong", Json::Bool(true))])),
            Request::Version => return inline(&|| self.shared.version_json()),
            Request::Metrics => return inline(&|| self.shared.metrics_json()),
            Request::Spans { limit, trace_id } => {
                let limit = limit.unwrap_or(SPANS_DEFAULT_LIMIT);
                let filter = trace_id.clone();
                return inline(&|| self.shared.spans_json(limit, filter.as_deref()));
            }
            Request::Stats => return inline(&|| self.shared.stats_json()),
            Request::Lookup {
                arch,
                network,
                seed,
                sample_cap,
            } => {
                // Inline like the other store/metadata verbs (a store probe
                // is one read, no simulation), but fallible — unknown
                // arch/network come back as typed errors — so it calls
                // `reply_now` directly instead of the infallible helper.
                // The stored cell stays typed until the line is written.
                let mut phases = PhaseTimings::default();
                let compute_start = Instant::now();
                let outcome = self
                    .shared
                    .lookup(arch, network, *seed, *sample_cap)
                    .map(Answer::Lookup);
                phases.compute = compute_start.elapsed();
                return self.reply_now(id.as_ref(), &trace_id, kind, received, phases, outcome);
            }
            _ => {}
        }

        // Work request: per-connection budgets first, then queue admission.
        if cx.inflight >= self.pipeline_depth {
            return self.reject(
                id.as_ref(),
                &trace_id,
                kind,
                received,
                ServeError::new(
                    ErrorCode::Overloaded,
                    format!(
                        "pipeline depth {} reached on this connection; read responses before sending more",
                        self.pipeline_depth
                    ),
                ),
            );
        }
        if cx.buffered_write_bytes > WRITE_BUDGET_BYTES {
            return self.reject(
                id.as_ref(),
                &trace_id,
                kind,
                received,
                ServeError::new(
                    ErrorCode::Overloaded,
                    format!(
                        "write budget exceeded ({} bytes queued unread); drain responses first",
                        cx.buffered_write_bytes
                    ),
                ),
            );
        }
        submit(self, cx, envelope, id, trace_id, kind, received)
    }
}

/// Queue admission: `Pending` on success (the worker completes it), typed
/// rejection on a full or closed queue.
fn submit(
    handler: &ReactorHandler,
    cx: &FrameCx,
    envelope: Envelope,
    id: Option<Json>,
    trace_id: String,
    kind: &'static str,
    received: Instant,
) -> FrameOutcome {
    let shared = &handler.shared;
    let deadline = envelope
        .timeout_ms
        .map(|ms| received + Duration::from_millis(ms));
    let job = Job {
        envelope,
        queued_at: Instant::now(),
        deadline,
        reply: ReactorJob {
            completer: cx.completer.clone(),
            id,
            trace_id,
            kind,
            received,
        },
    };
    match shared.queue.try_push(job) {
        Ok(()) => FrameOutcome::Pending,
        Err(PushError::Full(job)) => {
            let rj = job.reply;
            handler.reject(
                rj.id.as_ref(),
                &rj.trace_id,
                kind,
                received,
                ServeError::new(
                    ErrorCode::Overloaded,
                    format!(
                        "job queue full ({} pending); retry with backoff",
                        shared.queue.capacity()
                    ),
                ),
            )
        }
        Err(PushError::Closed(job)) => {
            let rj = job.reply;
            handler.reject(
                rj.id.as_ref(),
                &rj.trace_id,
                kind,
                received,
                ServeError::new(ErrorCode::ShuttingDown, "server is draining"),
            )
        }
    }
}

/// Worker-side completion of a reactor job: write the response line (the
/// `serialize` phase: the envelope and the result's text, straight from
/// the typed result), record metrics, then deliver the bytes to the
/// reactor for flushing. Runs on a worker thread, never on the reactor.
pub(crate) fn finish_job(
    shared: &Shared,
    rj: ReactorJob,
    outcome: Result<Answer, ServeError>,
    queue_wait: Duration,
    compute: Duration,
) {
    let mut phases = PhaseTimings {
        queue_wait,
        compute,
        ..PhaseTimings::default()
    };
    let outcome_code = outcome.as_ref().map(|_| ()).map_err(|e| e.code);
    let serialize_start = Instant::now();
    let line = response_line(rj.id.as_ref(), &rj.trace_id, &outcome);
    phases.serialize = serialize_start.elapsed();
    shared
        .metrics
        .request(rj.kind, outcome_code, rj.received.elapsed(), phases);
    rj.completer.complete(line);
}
