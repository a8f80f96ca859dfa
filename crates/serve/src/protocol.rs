//! The serve wire protocol: request parsing and canonical response
//! serialization.
//!
//! ## Grammar
//!
//! The transport is **newline-delimited JSON** over TCP: every request is
//! one JSON object on one line and every response is one JSON object on
//! one line. Requests **pipeline**: a connection's responses may return
//! out of request order, so clients must correlate by the `id` they
//! supplied, which the server echoes verbatim in the response envelope.
//!
//! ```text
//! request  = { "kind": KIND, ["id": any], ["timeout_ms": int],
//!              ["trace": { "trace_id": string, ["parent_span": int] }], ...params }
//! KIND     = "ping" | "version" | "encode" | "simulate" | "lookup" | "sweep"
//!          | "metrics" | "trace" | "spans" | "stats"
//! response = { ["id": any], "ok": true,  ["trace_id": string], "result": object }
//!          | { ["id": any], "ok": false, ["trace_id": string], "error": { "code": CODE, "message": string } }
//! CODE     = "bad_request" | "unknown_arch" | "unknown_network"
//!          | "overloaded" | "deadline_exceeded" | "shutting_down" | "internal"
//! ```
//!
//! `trace_id` is a per-request identifier, echoed in the response
//! **envelope** (never inside `result`, which stays byte-identical to the
//! library serialization) and attached to the request's span in the
//! server's trace buffer, so a slow response can be looked up with a
//! `trace` request. Server-assigned (`t1`, `t2`, …) unless the request
//! carried a `trace` context (revision 4), in which case the propagated
//! `trace_id` is adopted — the cross-process handshake that lets a fleet
//! coordinator stitch coordinator/backend/sim spans into one merged trace
//! (see [`sibia_obs::context::TraceContext`] for the envelope rules). The
//! context rides the envelope only: results stay byte-identical whether or
//! not a request is traced.
//!
//! Per kind:
//!
//! * `version` — no params; returns `crate_version` (this server's cargo
//!   package version) and `protocol_revision` ([`PROTOCOL_REVISION`]), so a
//!   client can gate on compatibility — e.g. store-backed warm restarts
//!   (revision ≥ 2) — before relying on them. Answered inline, never
//!   queued, so it works even when the job queue is saturated.
//! * `encode` — `values: [int]`, `bits: int (2..=16, default 7)`, optional
//!   `gsbr_width: int (2..=8)`; returns SBR / conventional / GSBR
//!   slice-sparsity statistics of the payload.
//! * `simulate` — `arch: string`, `network: string`, `seed: int`, optional
//!   `sample_cap: int`; returns one canonical [`NetworkResult`].
//! * `lookup` — same params as `simulate` (revision 5); a **store-only**
//!   probe that never computes: returns `{ "found": true, "result": … }`
//!   when this daemon's `sibia-store` already holds the cell (the `result`
//!   byte-identical to what `simulate` would serve), `{ "found": false }`
//!   otherwise — including when the daemon runs without a store. Answered
//!   inline, never queued, and never consults *its own* peers, so peer
//!   warm-start chains cannot recurse.
//! * `sweep` — `archs: [string]`, `networks: [string]`, `seeds: [int]`,
//!   optional `sample_cap: int`, optional `stream: bool` (revision 6);
//!   returns the full grid in row-major (arch, network, seed) order,
//!   exactly as [`sibia_sim::ParallelEngine`] produces it. With
//!   `"stream": true` the server interleaves **progress
//!   frames** before the final response: each is one line of the form
//!   `{ ["id": any], "progress": { "done": int, "total": int,
//!   "cell": "arch/network/seed" } }` — distinguished from the final
//!   response by the *absence* of an `"ok"` key — emitted as cells
//!   complete (at-most-once per cell, order unspecified under parallel
//!   engines). The final response line is byte-identical to the
//!   non-streamed reply: progress rides the connection, never the result.
//! * `metrics` — no params; returns the server's counters (including
//!   `dropped_spans`, the spans evicted from the bounded trace buffers).
//! * `trace` — optional `limit: int` (default 32); returns the most recent
//!   completed request spans as Chrome `trace_event` objects, newest first.
//! * `spans` — optional `limit: int` (default 4096), optional
//!   `trace_id: string`; returns buffered spans from the process-global
//!   tracer (the detailed `serve.request` → `sim.*` hierarchy recorded when
//!   the daemon runs with `--trace`) as Chrome `trace_event` objects in
//!   start order, plus the tracer's dropped-span count. With `trace_id`,
//!   only spans belonging to that propagated trace (a request span carrying
//!   the id, or any descendant of one) are returned — what a fleet
//!   coordinator pulls per sweep to build the merged trace.
//! * `stats` — no params; forces a telemetry tick and returns the
//!   time-series view (counter rates, gauge levels, windowed histogram
//!   quantiles — see `sibia_obs::timeseries`). Answered inline, so a
//!   saturated daemon still reports its own saturation.
//!
//! ## Determinism guarantee
//!
//! `simulate` and `sweep` responses are serialized with
//! [`network_result_to_json`] / [`grid_to_json`], which are pure functions
//! of the simulation result; combined with the engine's seed-derived RNG
//! streams this makes a served response **byte-identical** to serializing
//! the direct library call's result, regardless of server thread counts,
//! cache state, or request interleaving.

use sibia_obs::json::Json;
use sibia_obs::TraceContext;
use sibia_sbr::{gsbr::GenSlices, kernels, Precision};
use sibia_sim::cache::DMU_INDEX_BITS;
use sibia_sim::ArchSpec;

// The canonical result serializers moved down into `sibia_sim::jsonio` so
// the persistent store can share them; re-exported here unchanged for
// protocol consumers.
pub use sibia_sim::jsonio::{grid_to_json, network_result_to_json};

/// Protocol revision, echoed by the `version` request. Bump when the wire
/// grammar changes in a way a client must gate on (revision 2 added the
/// `version` request itself and the store-backed warm-restart semantics;
/// revision 3 added the `front` field to `version` and, on the reactor
/// front, out-of-request-order pipelined responses correlated by `id`;
/// revision 4 added the optional `trace` context on request envelopes and
/// the `spans` / `stats` verbs; revision 5 added the `lookup` verb — a
/// store-only probe backends use to answer from a peer's warm store
/// before simulating; revision 6 added the optional `tile` scheduling
/// hint on `simulate` / `sweep` and the opt-in `"stream": true` sweep
/// mode, under which progress frames — lines without an `"ok"` key —
/// interleave before the byte-identical final response; revision 7 removed
/// the `front` field from `version`, since the reactor is the only front
/// end and responses may always return out of request order; revision 8
/// removed the `tile` hint from `simulate` / `sweep` — it never changed a
/// result, and a request that still sends it parses as if it had not).
pub const PROTOCOL_REVISION: u64 = 8;

/// Typed protocol error codes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not a valid request object.
    BadRequest,
    /// `arch` named no known architecture.
    UnknownArch,
    /// `network` named no known zoo network.
    UnknownNetwork,
    /// The job queue was full; the request was rejected at admission.
    Overloaded,
    /// The request's deadline passed before a worker picked it up.
    DeadlineExceeded,
    /// The server is draining for shutdown.
    ShuttingDown,
    /// A server-side failure (worker died).
    Internal,
}

impl ErrorCode {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::UnknownArch => "unknown_arch",
            ErrorCode::UnknownNetwork => "unknown_network",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A typed protocol error with a human-readable message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// The typed code.
    pub code: ErrorCode,
    /// Details for the client log.
    pub message: String,
}

impl ServeError {
    /// Builds an error.
    pub fn new(code: ErrorCode, message: impl Into<String>) -> Self {
        Self {
            code,
            message: message.into(),
        }
    }
}

/// One parsed request body (the work to do).
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness probe, answered inline.
    Ping,
    /// Crate version + protocol revision, answered inline.
    Version,
    /// Slice statistics of a payload.
    Encode {
        /// The quantized values to decompose.
        values: Vec<i32>,
        /// Precision in bits.
        bits: u8,
        /// Optional generalized-SBR slice width to report alongside.
        gsbr_width: Option<u8>,
    },
    /// One simulation cell.
    Simulate {
        /// Architecture name (see [`arch_by_name`]).
        arch: String,
        /// Zoo network name.
        network: String,
        /// Synthesis seed.
        seed: u64,
        /// Per-tensor statistics sample cap (default 32768, the library
        /// default).
        sample_cap: Option<usize>,
    },
    /// A store-only probe for one cell (revision 5): answers from this
    /// daemon's persistent store or reports `found: false`, never
    /// computing and never consulting peers. Answered inline.
    Lookup {
        /// Architecture name (see [`arch_by_name`]).
        arch: String,
        /// Zoo network name.
        network: String,
        /// Synthesis seed.
        seed: u64,
        /// Sample cap the prospective `simulate` would use — part of the
        /// store key's configuration fingerprint, so it must match.
        sample_cap: Option<usize>,
    },
    /// A full (arch × network × seed) grid.
    Sweep {
        /// Architecture names.
        archs: Vec<String>,
        /// Zoo network names.
        networks: Vec<String>,
        /// Seeds.
        seeds: Vec<u64>,
        /// Per-tensor statistics sample cap.
        sample_cap: Option<usize>,
        /// Interleave per-cell progress frames before the final response
        /// (revision 6).
        stream: bool,
    },
    /// The server's counters, answered inline.
    Metrics,
    /// The most recent completed request spans, answered inline.
    Trace {
        /// Maximum spans to return (default 32).
        limit: Option<usize>,
    },
    /// Buffered global-tracer spans (the `--trace` hierarchy), answered
    /// inline.
    Spans {
        /// Maximum spans to return (default 4096).
        limit: Option<usize>,
        /// Only spans of this propagated trace (and their descendants).
        trace_id: Option<String>,
    },
    /// The time-series telemetry view, answered inline.
    Stats,
}

impl Request {
    /// The request kind's wire name (used as the metrics label).
    pub fn kind(&self) -> &'static str {
        match self {
            Request::Ping => "ping",
            Request::Version => "version",
            Request::Encode { .. } => "encode",
            Request::Simulate { .. } => "simulate",
            Request::Lookup { .. } => "lookup",
            Request::Sweep { .. } => "sweep",
            Request::Metrics => "metrics",
            Request::Trace { .. } => "trace",
            Request::Spans { .. } => "spans",
            Request::Stats => "stats",
        }
    }
}

/// A parsed request envelope: the body plus per-request metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Envelope {
    /// Echoed back verbatim in the response, if present.
    pub id: Option<Json>,
    /// Per-request deadline in milliseconds from receipt.
    pub timeout_ms: Option<u64>,
    /// Propagated trace context (revision 4): the server adopts its
    /// `trace_id` and records the request span as a child of
    /// `parent_span`. Envelope metadata only — never touches `result`.
    pub trace: Option<TraceContext>,
    /// The work.
    pub request: Request,
}

/// The CLI/protocol architecture registry.
pub const ARCH_NAMES: [&str; 6] = [
    "bitfusion",
    "hnpu",
    "no-sbr",
    "input-skip",
    "sibia",
    "output-skip",
];

/// Resolves a protocol architecture name (the same names `sibia-cli`
/// accepts).
pub fn arch_by_name(name: &str) -> Option<ArchSpec> {
    Some(match name {
        "bitfusion" | "bit-fusion" => ArchSpec::bit_fusion(),
        "hnpu" => ArchSpec::hnpu(),
        "sibia" | "hybrid" => ArchSpec::sibia_hybrid(),
        "input-skip" => ArchSpec::sibia_input_skip(),
        "no-sbr" => ArchSpec::sibia_no_sbr(),
        "output-skip" => ArchSpec::sibia_output_skip(4),
        _ => return None,
    })
}

fn field_u64(v: &Json, key: &str) -> Result<Option<u64>, ServeError> {
    match v.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(x) => x.as_u64().map(Some).ok_or_else(|| {
            ServeError::new(
                ErrorCode::BadRequest,
                format!("'{key}' must be a non-negative integer"),
            )
        }),
    }
}

fn field_str_vec(v: &Json, key: &str) -> Result<Vec<String>, ServeError> {
    let arr = v.get(key).and_then(Json::as_array).ok_or_else(|| {
        ServeError::new(ErrorCode::BadRequest, format!("'{key}' must be an array"))
    })?;
    arr.iter()
        .map(|x| {
            x.as_str().map(str::to_owned).ok_or_else(|| {
                ServeError::new(ErrorCode::BadRequest, format!("'{key}' must hold strings"))
            })
        })
        .collect()
}

/// Parses one request line into an envelope.
pub fn parse_request(line: &str) -> Result<Envelope, ServeError> {
    let v = Json::parse(line)
        .map_err(|e| ServeError::new(ErrorCode::BadRequest, format!("invalid json: {e}")))?;
    if !matches!(v, Json::Object(_)) {
        return Err(ServeError::new(
            ErrorCode::BadRequest,
            "request must be a json object",
        ));
    }
    let id = v.get("id").cloned();
    let timeout_ms = field_u64(&v, "timeout_ms")?;
    let trace = match v.get("trace") {
        None | Some(Json::Null) => None,
        Some(t) => Some(
            TraceContext::from_json(t).map_err(|e| ServeError::new(ErrorCode::BadRequest, e))?,
        ),
    };
    let kind = v
        .get("kind")
        .and_then(Json::as_str)
        .ok_or_else(|| ServeError::new(ErrorCode::BadRequest, "missing 'kind'"))?;
    let request = match kind {
        "ping" => Request::Ping,
        "version" => Request::Version,
        "metrics" => Request::Metrics,
        "trace" => Request::Trace {
            limit: field_u64(&v, "limit")?.map(|n| n as usize),
        },
        "spans" => Request::Spans {
            limit: field_u64(&v, "limit")?.map(|n| n as usize),
            trace_id: match v.get("trace_id") {
                None | Some(Json::Null) => None,
                Some(t) => Some(
                    t.as_str()
                        .ok_or_else(|| {
                            ServeError::new(ErrorCode::BadRequest, "'trace_id' must be a string")
                        })?
                        .to_owned(),
                ),
            },
        },
        "stats" => Request::Stats,
        "encode" => {
            let raw = v.get("values").and_then(Json::as_array).ok_or_else(|| {
                ServeError::new(ErrorCode::BadRequest, "'values' must be an array")
            })?;
            let values: Vec<i32> = raw
                .iter()
                .map(|x| {
                    x.as_i64()
                        .and_then(|n| i32::try_from(n).ok())
                        .ok_or_else(|| {
                            ServeError::new(
                                ErrorCode::BadRequest,
                                "'values' must hold i32 integers",
                            )
                        })
                })
                .collect::<Result<_, _>>()?;
            let bits = field_u64(&v, "bits")?.unwrap_or(7);
            if !(2..=16).contains(&bits) {
                return Err(ServeError::new(
                    ErrorCode::BadRequest,
                    "'bits' must be in [2, 16]",
                ));
            }
            let gsbr_width = field_u64(&v, "gsbr_width")?;
            if let Some(w) = gsbr_width {
                if !(2..=8).contains(&w) {
                    return Err(ServeError::new(
                        ErrorCode::BadRequest,
                        "'gsbr_width' must be in [2, 8]",
                    ));
                }
            }
            Request::Encode {
                values,
                bits: bits as u8,
                gsbr_width: gsbr_width.map(|w| w as u8),
            }
        }
        "simulate" => Request::Simulate {
            arch: v
                .get("arch")
                .and_then(Json::as_str)
                .ok_or_else(|| ServeError::new(ErrorCode::BadRequest, "missing 'arch'"))?
                .to_owned(),
            network: v
                .get("network")
                .and_then(Json::as_str)
                .ok_or_else(|| ServeError::new(ErrorCode::BadRequest, "missing 'network'"))?
                .to_owned(),
            seed: field_u64(&v, "seed")?.unwrap_or(1),
            sample_cap: field_u64(&v, "sample_cap")?.map(|c| c as usize),
        },
        "lookup" => Request::Lookup {
            arch: v
                .get("arch")
                .and_then(Json::as_str)
                .ok_or_else(|| ServeError::new(ErrorCode::BadRequest, "missing 'arch'"))?
                .to_owned(),
            network: v
                .get("network")
                .and_then(Json::as_str)
                .ok_or_else(|| ServeError::new(ErrorCode::BadRequest, "missing 'network'"))?
                .to_owned(),
            seed: field_u64(&v, "seed")?.unwrap_or(1),
            sample_cap: field_u64(&v, "sample_cap")?.map(|c| c as usize),
        },
        "sweep" => {
            let archs = field_str_vec(&v, "archs")?;
            let networks = field_str_vec(&v, "networks")?;
            let seeds = match v.get("seeds") {
                None | Some(Json::Null) => vec![1],
                Some(s) => s
                    .as_array()
                    .ok_or_else(|| {
                        ServeError::new(ErrorCode::BadRequest, "'seeds' must be an array")
                    })?
                    .iter()
                    .map(|x| {
                        x.as_u64().ok_or_else(|| {
                            ServeError::new(ErrorCode::BadRequest, "'seeds' must hold integers")
                        })
                    })
                    .collect::<Result<_, _>>()?,
            };
            if archs.is_empty() || networks.is_empty() || seeds.is_empty() {
                return Err(ServeError::new(
                    ErrorCode::BadRequest,
                    "'archs', 'networks', and 'seeds' must be non-empty",
                ));
            }
            let stream = match v.get("stream") {
                None | Some(Json::Null) => false,
                Some(s) => s.as_bool().ok_or_else(|| {
                    ServeError::new(ErrorCode::BadRequest, "'stream' must be a boolean")
                })?,
            };
            Request::Sweep {
                archs,
                networks,
                seeds,
                sample_cap: field_u64(&v, "sample_cap")?.map(|c| c as usize),
                stream,
            }
        }
        other => {
            return Err(ServeError::new(
                ErrorCode::BadRequest,
                format!("unknown kind '{other}'"),
            ))
        }
    };
    Ok(Envelope {
        id,
        timeout_ms,
        trace,
        request,
    })
}

/// Builds a success response line (without the trailing newline).
/// `trace_id` goes in the envelope only — `result` stays the byte-identical
/// library serialization.
pub fn ok_response(id: Option<&Json>, trace_id: Option<&str>, result: Json) -> Json {
    let mut members = Vec::with_capacity(4);
    if let Some(id) = id {
        members.push(("id".to_owned(), id.clone()));
    }
    members.push(("ok".to_owned(), Json::Bool(true)));
    if let Some(t) = trace_id {
        members.push(("trace_id".to_owned(), Json::from(t)));
    }
    members.push(("result".to_owned(), result));
    Json::Object(members)
}

/// Builds a progress frame (revision 6, without the trailing newline):
/// emitted between a streamed sweep's request and its final response, one
/// line per completed cell. Carries no `"ok"` key — that absence is how a
/// client tells a frame from the final response.
pub fn progress_frame(id: Option<&Json>, done: usize, total: usize, cell: &str) -> Json {
    let mut members = Vec::with_capacity(2);
    if let Some(id) = id {
        members.push(("id".to_owned(), id.clone()));
    }
    members.push((
        "progress".to_owned(),
        Json::obj(vec![
            ("done", Json::from(done)),
            ("total", Json::from(total)),
            ("cell", Json::from(cell)),
        ]),
    ));
    Json::Object(members)
}

/// Builds an error response line (without the trailing newline).
pub fn error_response(id: Option<&Json>, trace_id: Option<&str>, error: &ServeError) -> Json {
    let mut members = Vec::with_capacity(4);
    if let Some(id) = id {
        members.push(("id".to_owned(), id.clone()));
    }
    members.push(("ok".to_owned(), Json::Bool(false)));
    if let Some(t) = trace_id {
        members.push(("trace_id".to_owned(), Json::from(t)));
    }
    members.push((
        "error".to_owned(),
        Json::obj(vec![
            ("code", Json::from(error.code.as_str())),
            ("message", Json::from(error.message.as_str())),
        ]),
    ));
    Json::Object(members)
}

/// Parses a response object into `Ok(result)` / `Err(ServeError)`.
///
/// Unknown error codes map to [`ErrorCode::Internal`] with the original
/// spelling preserved in the message.
pub fn parse_response(v: &Json) -> Result<Json, ServeError> {
    match v.get("ok").and_then(Json::as_bool) {
        Some(true) => v
            .get("result")
            .cloned()
            .ok_or_else(|| ServeError::new(ErrorCode::Internal, "ok response without result")),
        Some(false) => {
            let err = v.get("error");
            let code_str = err
                .and_then(|e| e.get("code"))
                .and_then(Json::as_str)
                .unwrap_or("internal");
            let message = err
                .and_then(|e| e.get("message"))
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_owned();
            let code = match code_str {
                "bad_request" => ErrorCode::BadRequest,
                "unknown_arch" => ErrorCode::UnknownArch,
                "unknown_network" => ErrorCode::UnknownNetwork,
                "overloaded" => ErrorCode::Overloaded,
                "deadline_exceeded" => ErrorCode::DeadlineExceeded,
                "shutting_down" => ErrorCode::ShuttingDown,
                _ => ErrorCode::Internal,
            };
            Err(if code == ErrorCode::Internal && code_str != "internal" {
                ServeError::new(code, format!("{code_str}: {message}"))
            } else {
                ServeError::new(code, message)
            })
        }
        None => Err(ServeError::new(
            ErrorCode::Internal,
            "response missing 'ok'",
        )),
    }
}

fn plane_stats_json(planes: &[Vec<i8>]) -> Json {
    let ops = kernels::active();
    Json::Array(
        planes
            .iter()
            .map(|p| {
                let c = ops.plane_counts(p, DMU_INDEX_BITS);
                Json::obj(vec![
                    ("len", Json::from(c.len)),
                    ("zero_slices", Json::from(c.zero_digits)),
                    ("subwords", Json::from(c.subwords)),
                    ("zero_subwords", Json::from(c.zero_subwords)),
                    ("rle_entries", Json::from(c.rle_entries)),
                ])
            })
            .collect(),
    )
}

/// Slice statistics for an `encode` payload: SBR and conventional
/// decompositions at `bits`, plus optional generalized-SBR zero-digit
/// counts at `gsbr_width`.
///
/// # Errors
///
/// `bad_request` when a value is outside the symmetric range of `bits`.
pub fn encode_stats(values: &[i32], bits: u8, gsbr_width: Option<u8>) -> Result<Json, ServeError> {
    let precision = Precision::new(bits);
    if let Some(&v) = values.iter().find(|&&v| !precision.contains(v)) {
        return Err(ServeError::new(
            ErrorCode::BadRequest,
            format!("value {v} outside the symmetric {bits}-bit range"),
        ));
    }
    let sbr_planes = sibia_sbr::sbr::planes(values, precision);
    let conv_planes = sibia_sbr::conv::planes(values, precision);
    let mut members = vec![
        ("values", Json::from(values.len())),
        ("bits", Json::from(u64::from(bits))),
        (
            "full_zero_values",
            Json::from(values.iter().filter(|&&v| v == 0).count()),
        ),
        ("sbr", plane_stats_json(&sbr_planes)),
        ("conventional", plane_stats_json(&conv_planes)),
    ];
    if let Some(width) = gsbr_width {
        let k = GenSlices::slice_count(precision, width);
        let mut zero_digits = vec![0usize; k];
        for &v in values {
            for (order, &d) in GenSlices::encode(v, precision, width)
                .digits()
                .iter()
                .enumerate()
            {
                if d == 0 {
                    zero_digits[order] += 1;
                }
            }
        }
        members.push((
            "gsbr",
            Json::obj(vec![
                ("width", Json::from(u64::from(width))),
                ("orders", Json::from(k)),
                (
                    "zero_digits",
                    Json::Array(zero_digits.into_iter().map(Json::from).collect()),
                ),
            ]),
        ));
    }
    Ok(Json::obj(members))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibia_nn::zoo;

    #[test]
    fn parses_all_request_kinds() {
        let e = parse_request("{\"kind\":\"ping\",\"id\":7}").unwrap();
        assert_eq!(e.request, Request::Ping);
        assert_eq!(e.id, Some(Json::Int(7)));

        let e = parse_request("{\"kind\":\"version\"}").unwrap();
        assert_eq!(e.request, Request::Version);
        assert_eq!(e.request.kind(), "version");

        let e = parse_request("{\"kind\":\"encode\",\"values\":[0,-3,5],\"bits\":7}").unwrap();
        assert_eq!(
            e.request,
            Request::Encode {
                values: vec![0, -3, 5],
                bits: 7,
                gsbr_width: None
            }
        );

        let e = parse_request(
            "{\"kind\":\"simulate\",\"arch\":\"sibia\",\"network\":\"dgcnn\",\"seed\":3}",
        )
        .unwrap();
        assert_eq!(e.request.kind(), "simulate");

        let e = parse_request(
            "{\"kind\":\"sweep\",\"archs\":[\"sibia\"],\"networks\":[\"dgcnn\"],\"seeds\":[1,2],\
             \"timeout_ms\":500}",
        )
        .unwrap();
        assert_eq!(e.timeout_ms, Some(500));
        assert_eq!(e.request.kind(), "sweep");
        // The revision-6 stream flag defaults off.
        match e.request {
            Request::Sweep { stream, .. } => assert!(!stream),
            other => panic!("expected sweep, got {other:?}"),
        }

        let e = parse_request(
            "{\"kind\":\"sweep\",\"archs\":[\"sibia\"],\"networks\":[\"dgcnn\"],\
             \"seeds\":[1],\"stream\":true}",
        )
        .unwrap();
        match e.request {
            Request::Sweep { stream, .. } => assert!(stream),
            other => panic!("expected sweep, got {other:?}"),
        }

        // Revision 8 removed `tile`: a pre-revision-8 client's hint is
        // ignored like any unknown field, so the line parses equal to the
        // same line without it.
        for (hinted, plain) in [
            (
                "{\"kind\":\"sweep\",\"archs\":[\"sibia\"],\"networks\":[\"dgcnn\"],\
                 \"seeds\":[1],\"tile\":7,\"stream\":true}",
                "{\"kind\":\"sweep\",\"archs\":[\"sibia\"],\"networks\":[\"dgcnn\"],\
                 \"seeds\":[1],\"stream\":true}",
            ),
            (
                "{\"kind\":\"simulate\",\"arch\":\"sibia\",\"network\":\"dgcnn\",\"tile\":16}",
                "{\"kind\":\"simulate\",\"arch\":\"sibia\",\"network\":\"dgcnn\"}",
            ),
        ] {
            assert_eq!(
                parse_request(hinted).unwrap(),
                parse_request(plain).unwrap(),
                "{hinted}"
            );
        }

        let e = parse_request("{\"kind\":\"trace\",\"limit\":5}").unwrap();
        assert_eq!(e.request, Request::Trace { limit: Some(5) });
        let e = parse_request("{\"kind\":\"trace\"}").unwrap();
        assert_eq!(e.request, Request::Trace { limit: None });

        let e = parse_request("{\"kind\":\"spans\",\"limit\":9,\"trace_id\":\"fs1\"}").unwrap();
        assert_eq!(
            e.request,
            Request::Spans {
                limit: Some(9),
                trace_id: Some("fs1".to_owned())
            }
        );
        let e = parse_request("{\"kind\":\"stats\"}").unwrap();
        assert_eq!(e.request, Request::Stats);
        assert_eq!(e.request.kind(), "stats");
    }

    #[test]
    fn trace_context_rides_the_envelope() {
        let e = parse_request(
            "{\"kind\":\"simulate\",\"arch\":\"sibia\",\"network\":\"dgcnn\",\
             \"trace\":{\"trace_id\":\"fs7\",\"parent_span\":31}}",
        )
        .unwrap();
        let ctx = e.trace.expect("context parsed");
        assert_eq!(ctx.trace_id, "fs7");
        assert_eq!(ctx.parent_span, Some(31));

        // Absent and null are both "no context".
        assert_eq!(parse_request("{\"kind\":\"ping\"}").unwrap().trace, None);
        assert_eq!(
            parse_request("{\"kind\":\"ping\",\"trace\":null}")
                .unwrap()
                .trace,
            None
        );

        // Malformed contexts are typed bad_request, not silently dropped.
        for bad in [
            "{\"kind\":\"ping\",\"trace\":7}",
            "{\"kind\":\"ping\",\"trace\":{}}",
            "{\"kind\":\"ping\",\"trace\":{\"trace_id\":\"\"}}",
            "{\"kind\":\"ping\",\"trace\":{\"trace_id\":\"t\",\"parent_span\":-2}}",
        ] {
            assert_eq!(
                parse_request(bad).unwrap_err().code,
                ErrorCode::BadRequest,
                "{bad}"
            );
        }
    }

    #[test]
    fn rejects_malformed_requests_with_bad_request() {
        for bad in [
            "not json",
            "[1,2]",
            "{\"kind\":\"nope\"}",
            "{\"id\":1}",
            "{\"kind\":\"encode\",\"values\":\"x\"}",
            "{\"kind\":\"encode\",\"values\":[1],\"bits\":40}",
            "{\"kind\":\"simulate\",\"network\":\"dgcnn\"}",
            "{\"kind\":\"sweep\",\"archs\":[],\"networks\":[\"dgcnn\"]}",
            "{\"kind\":\"simulate\",\"arch\":\"sibia\",\"network\":\"dgcnn\",\"seed\":-1}",
            "{\"kind\":\"sweep\",\"archs\":[\"sibia\"],\"networks\":[\"dgcnn\"],\"stream\":3}",
        ] {
            let err = parse_request(bad).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest, "{bad}");
        }
    }

    #[test]
    fn response_round_trip() {
        let id = Json::Str("r1".to_owned());
        let ok = ok_response(Some(&id), None, Json::obj(vec![("x", Json::Int(1))]));
        assert_eq!(
            ok.to_string(),
            "{\"id\":\"r1\",\"ok\":true,\"result\":{\"x\":1}}"
        );
        assert_eq!(
            parse_response(&ok).unwrap(),
            Json::obj(vec![("x", Json::Int(1))])
        );

        // trace_id rides in the envelope, between "ok" and "result", and
        // never perturbs the result payload.
        let traced = ok_response(Some(&id), Some("t42"), Json::obj(vec![("x", Json::Int(1))]));
        assert_eq!(
            traced.to_string(),
            "{\"id\":\"r1\",\"ok\":true,\"trace_id\":\"t42\",\"result\":{\"x\":1}}"
        );
        assert_eq!(
            parse_response(&traced).unwrap(),
            parse_response(&ok).unwrap()
        );

        let err = error_response(
            None,
            None,
            &ServeError::new(ErrorCode::Overloaded, "queue full"),
        );
        assert_eq!(
            err.to_string(),
            "{\"ok\":false,\"error\":{\"code\":\"overloaded\",\"message\":\"queue full\"}}"
        );
        let back = parse_response(&err).unwrap_err();
        assert_eq!(back.code, ErrorCode::Overloaded);
        assert_eq!(back.message, "queue full");
    }

    #[test]
    fn progress_frames_have_no_ok_key() {
        let id = Json::Int(4);
        let f = progress_frame(Some(&id), 3, 12, "sibia/dgcnn/1");
        assert_eq!(
            f.to_string(),
            "{\"id\":4,\"progress\":{\"done\":3,\"total\":12,\"cell\":\"sibia/dgcnn/1\"}}"
        );
        assert!(f.get("ok").is_none());
        let bare = progress_frame(None, 1, 2, "c");
        assert_eq!(
            bare.to_string(),
            "{\"progress\":{\"done\":1,\"total\":2,\"cell\":\"c\"}}"
        );
    }

    #[test]
    fn arch_registry_matches_cli_names() {
        for name in ARCH_NAMES {
            assert!(arch_by_name(name).is_some(), "{name}");
        }
        assert!(arch_by_name("gpu").is_none());
    }

    #[test]
    fn encode_stats_counts_zero_slices() {
        // -3 in SBR is [-3, 0]: one zero slice in the high plane.
        let r = encode_stats(&[-3], 7, Some(3)).unwrap();
        let sbr = r.get("sbr").and_then(Json::as_array).unwrap();
        assert_eq!(sbr.len(), 2);
        assert_eq!(sbr[1].get("zero_slices"), Some(&Json::Int(1)));
        assert_eq!(sbr[0].get("zero_slices"), Some(&Json::Int(0)));
        assert!(r.get("gsbr").is_some());
        assert!(encode_stats(&[1000], 7, None).is_err());
    }

    #[test]
    fn encode_rejects_i32_min_as_bad_request() {
        // The parser accepts any i32, and `i32::MIN` has no symmetric
        // counterpart at any precision.
        let e =
            parse_request("{\"kind\":\"encode\",\"values\":[-2147483648,3],\"bits\":16}").unwrap();
        let Request::Encode { values, bits, .. } = e.request else {
            panic!("not an encode request: {:?}", e.request);
        };
        assert_eq!(values, [i32::MIN, 3]);
        let err = encode_stats(&values, bits, Some(3)).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("-2147483648"), "{}", err.message);
    }

    /// One fixed `encode` input: near-zero values of both signs and the
    /// 7-bit extremes; 64 zeros, i.e. 16 zero sub-words in every plane, so
    /// the DMU's 4-bit RLE index saturates and flushes a padding entry; a
    /// non-zero sub-word; 60 zeros, one sub-word short of saturating; then
    /// a strided tail. The two runs pin the saturation point exactly.
    fn pinned_encode_values() -> Vec<i32> {
        let mut values = vec![-63, -8, -7, -1, 0, 1, 7, 8, 63, 21, -21, 5];
        values.extend([0; 64]);
        values.extend([3, -3, 9, -9]);
        values.extend([0; 60]);
        values.extend((-15..=15).map(|v| v * 4 % 63));
        values
    }

    #[test]
    fn encode_stats_text_is_pinned() {
        // The full reply text, so any drift in a plane count or in the
        // member order of `encode` shows here. The benchmark cannot catch
        // such a drift: it checks daemon replies against this same function.
        let plane = |zero_slices: u32, zero_subwords: u32, rle_entries: u32| {
            format!(
                "{{\"len\":171,\"zero_slices\":{zero_slices},\"subwords\":43,\
                 \"zero_subwords\":{zero_subwords},\"rle_entries\":{rle_entries}}}"
            )
        };
        let bits7 = format!(
            "{{\"values\":171,\"bits\":7,\"full_zero_values\":126,\
             \"sbr\":[{},{}],\"conventional\":[{},{}],\
             \"gsbr\":{{\"width\":3,\"orders\":3,\"zero_digits\":[158,136,143]}}}}",
            plane(142, 31, 13),
            plane(135, 31, 13),
            plane(132, 31, 13),
            plane(135, 32, 12),
        );
        let bits16 = format!(
            "{{\"values\":171,\"bits\":16,\"full_zero_values\":126,\
             \"sbr\":[{},{},{},{},{}],\"conventional\":[{},{},{},{}],\
             \"gsbr\":{{\"width\":3,\"orders\":8,\
             \"zero_digits\":[158,136,143,171,171,171,171,171]}}}}",
            plane(142, 31, 13),
            plane(135, 31, 13),
            plane(171, 43, 2),
            plane(171, 43, 2),
            plane(171, 43, 2),
            plane(132, 31, 13),
            plane(135, 32, 12),
            plane(149, 36, 8),
            plane(149, 36, 8),
        );
        for (bits, expected) in [(7u8, bits7), (16, bits16)] {
            let text = encode_stats(&pinned_encode_values(), bits, Some(3))
                .unwrap()
                .to_string();
            assert_eq!(text, expected, "bits {bits}");
        }
    }

    #[test]
    fn network_result_serialization_is_deterministic() {
        use sibia_sim::Simulator;
        let sim = Simulator::new(3);
        let net = zoo::dgcnn();
        let a = network_result_to_json(&sim.simulate_network(&ArchSpec::sibia_hybrid(), &net));
        let b = network_result_to_json(&sim.simulate_network(&ArchSpec::sibia_hybrid(), &net));
        assert_eq!(a.to_string(), b.to_string());
        // And a parse → serialize round trip preserves every byte.
        let reparsed = Json::parse(&a.to_string()).unwrap();
        assert_eq!(reparsed.to_string(), a.to_string());
    }
}
