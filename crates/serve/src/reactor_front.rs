//! The daemon's front end: the epoll reactor.
//!
//! Glue between the protocol-agnostic [`sibia_net`] reactor and the serve
//! daemon: one `ReactorHandler` implements [`FrameHandler`] on the reactor
//! thread, answering cheap requests (`ping`, `version`, `lookup`,
//! `metrics`, `trace`, `spans`, `stats`) inline and admitting work
//! requests into the bounded [`JobQueue`](crate::queue::JobQueue) the
//! worker pool drains. Workers finish jobs themselves ([`finish_job`]):
//! serialize, record metrics and the `serve.request` span, then hand the
//! complete response line to the reactor through the frame's
//! [`Completer`] — which is what lets pipelined responses on one
//! connection complete out of request order.
//!
//! ## Backpressure (all typed, in-protocol)
//!
//! A work request is rejected `overloaded` when any of these budgets is
//! full, checked in order:
//!
//! 1. its connection already has `pipeline_depth` requests in flight;
//! 2. its connection has more than `write_budget_bytes` of unread
//!    response bytes queued (a client that pipelines but never reads);
//! 3. the shared job queue is at capacity.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sibia_net::{Completer, FrameCx, FrameHandler, FrameOutcome, Reactor, ReactorConfig};
use sibia_obs::json::Json;

use crate::metrics::PhaseTimings;
use crate::protocol::{
    error_response, ok_response, parse_request, Envelope, ErrorCode, Request, ServeError,
};
use crate::queue::PushError;
use crate::server::{
    record_request, Job, ServeConfig, Shared, MAX_LINE_BYTES, SPANS_DEFAULT_LIMIT,
    TRACE_DEFAULT_LIMIT,
};

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
}

/// Binds and starts the reactor serving `shared`'s protocol. The reactor's
/// `net.*` instruments register in the daemon's unified metrics registry,
/// and connection-lifetime spans land in the shared tracer.
pub(crate) fn start(config: &ServeConfig, shared: Arc<Shared>) -> std::io::Result<Reactor> {
    let reactor_config = ReactorConfig {
        host: config.host.clone(),
        port: config.port,
        max_frame_bytes: MAX_LINE_BYTES,
        max_connections: 16_384,
        // The handler rejects work past `write_budget_bytes`; the hard cap
        // only guards against a client that pipelines inline requests
        // forever without ever reading.
        hard_write_cap: (config.write_budget_bytes.max(1 << 20)) * 8,
    };
    let handler = Arc::new(ReactorHandler {
        shared: Arc::clone(&shared),
        pipeline_depth: config.pipeline_depth.max(1),
        write_budget_bytes: config.write_budget_bytes.max(1),
    });
    let registry = Arc::clone(shared.metrics.registry());
    let tracer = Arc::clone(&shared.tracer);
    Reactor::start(reactor_config, handler, &registry, Some(tracer))
}

/// The NDJSON protocol, spoken frame-at-a-time on the reactor thread.
struct ReactorHandler {
    shared: Arc<Shared>,
    pipeline_depth: usize,
    write_budget_bytes: usize,
}

impl ReactorHandler {
    /// Finishes a request entirely on the reactor thread: serialize,
    /// record, and return the response line as an inline reply.
    fn reply_now(
        &self,
        id: Option<&Json>,
        trace_id: String,
        kind: &'static str,
        received: Instant,
        mut phases: PhaseTimings,
        outcome: &Result<Json, ServeError>,
    ) -> FrameOutcome {
        let serialize_start = Instant::now();
        let line = serialize_response(id, &trace_id, outcome);
        phases.serialize = serialize_start.elapsed();
        let outcome_code = outcome.as_ref().map(|_| ()).map_err(|e| e.code);
        record_request(
            &self.shared,
            kind,
            outcome_code,
            received,
            received.elapsed(),
            phases,
            trace_id,
        );
        FrameOutcome::Reply(line)
    }

    /// Typed rejection without touching the queue.
    fn reject(
        &self,
        id: Option<&Json>,
        trace_id: String,
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
            &Err(error),
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
        let mut trace_id = format!(
            "t{}",
            self.shared.trace_seq.fetch_add(1, Ordering::Relaxed) + 1
        );
        let envelope = match parse_request(line) {
            Ok(envelope) => envelope,
            Err(e) => return self.reject(None, trace_id, "invalid", received, e),
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
            let result = handler();
            phases.compute = compute_start.elapsed();
            self.reply_now(
                id.as_ref(),
                trace_id.clone(),
                kind,
                received,
                phases,
                &Ok(result),
            )
        };
        match &envelope.request {
            Request::Ping => return inline(&|| Json::obj(vec![("pong", Json::Bool(true))])),
            Request::Version => return inline(&|| self.shared.version_json()),
            Request::Metrics => return inline(&|| self.shared.metrics_json()),
            Request::Trace { limit } => {
                let limit = limit.unwrap_or(TRACE_DEFAULT_LIMIT);
                return inline(&|| self.shared.trace_json(limit));
            }
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
                let mut phases = PhaseTimings::default();
                let compute_start = Instant::now();
                let outcome = self.shared.lookup_json(arch, network, *seed, *sample_cap);
                phases.compute = compute_start.elapsed();
                return self.reply_now(
                    id.as_ref(),
                    trace_id.clone(),
                    kind,
                    received,
                    phases,
                    &outcome,
                );
            }
            _ => {}
        }

        // Work request: per-connection budgets first, then queue admission.
        if cx.inflight >= self.pipeline_depth {
            return self.reject(
                id.as_ref(),
                trace_id,
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
        if cx.buffered_write_bytes > self.write_budget_bytes {
            return self.reject(
                id.as_ref(),
                trace_id,
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
                rj.trace_id,
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
                rj.trace_id,
                kind,
                received,
                ServeError::new(ErrorCode::ShuttingDown, "server is draining"),
            )
        }
    }
}

/// Worker-side completion of a reactor job: serialize the response line,
/// record metrics and the request span, then deliver the bytes to the
/// reactor for flushing. Runs on a worker thread, never on the reactor.
pub(crate) fn finish_job(
    shared: &Shared,
    rj: ReactorJob,
    outcome: Result<Json, ServeError>,
    queue_wait: Duration,
    compute: Duration,
) {
    let mut phases = PhaseTimings {
        queue_wait,
        compute,
        ..PhaseTimings::default()
    };
    let serialize_start = Instant::now();
    let line = serialize_response(rj.id.as_ref(), &rj.trace_id, &outcome);
    phases.serialize = serialize_start.elapsed();
    let outcome_code = outcome.as_ref().map(|_| ()).map_err(|e| e.code);
    record_request(
        shared,
        rj.kind,
        outcome_code,
        rj.received,
        rj.received.elapsed(),
        phases,
        rj.trace_id,
    );
    rj.completer.complete(line);
}

/// One complete response line, trailing `\n` included.
fn serialize_response(
    id: Option<&Json>,
    trace_id: &str,
    outcome: &Result<Json, ServeError>,
) -> Vec<u8> {
    let response = match outcome {
        Ok(result) => ok_response(id, Some(trace_id), result.clone()),
        Err(e) => error_response(id, Some(trace_id), e),
    };
    let mut line = response.to_string().into_bytes();
    line.push(b'\n');
    line
}
