//! Blocking NDJSON client for the serve daemon.
//!
//! One [`Client`] owns one TCP connection. The serial path is
//! [`Client::call`]: write a request line, read the matching response line.
//! The split [`Client::send`] / [`Client::recv`] pair pipelines instead:
//! several requests go out back-to-back, responses may arrive out of
//! request order (in whatever order the server completes them), and each
//! is matched to its request by the client-assigned `id` the server
//! echoes. A response whose id was never sent (or already answered)
//! surfaces as a typed [`ClientError::IdMismatch`] instead of silently
//! pairing the wrong response with a call.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::protocol::{parse_response, wire_line, ErrorCode, ServeError};
use sibia_obs::json::Json;

/// What a request can fail with, from the caller's point of view.
#[derive(Debug)]
pub enum ClientError {
    /// The connection broke (or could not be established).
    Io(std::io::Error),
    /// The server answered, but not with valid protocol (bad JSON, missing
    /// fields).
    Protocol(String),
    /// The response carried an id this client never sent, or one already
    /// answered — the stream is desynced and the connection should be
    /// abandoned.
    IdMismatch {
        /// The id the response carried (`None`: absent or not an integer).
        got: Option<i64>,
        /// Ids sent but not yet answered when the mismatch arrived.
        outstanding: Vec<i64>,
    },
    /// The server's admission queue rejected the request. The connection is
    /// still good and the server is healthy — the right reaction is to back
    /// off and retry the *same* backend, which is why this is split out from
    /// [`ClientError::Server`]: retry policies must not treat it as a fault.
    Overloaded(String),
    /// The server answered with a well-formed error response.
    Server(ServeError),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "io error: {e}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::IdMismatch { got, outstanding } => write!(
                f,
                "response id {got:?} matches none of the {} outstanding request ids",
                outstanding.len()
            ),
            ClientError::Overloaded(msg) => write!(f, "server overloaded: {msg}"),
            ClientError::Server(e) => {
                write!(f, "server error [{}]: {}", e.code.as_str(), e.message)
            }
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

impl ClientError {
    /// The server-side error code, if this is a server-reported error.
    pub fn server_code(&self) -> Option<ErrorCode> {
        match self {
            ClientError::Server(e) => Some(e.code),
            ClientError::Overloaded(_) => Some(ErrorCode::Overloaded),
            _ => None,
        }
    }
}

/// Streamed-sweep progress callback: `(done, total, cell)` per finished
/// cell, where `cell` is the `arch/network/seed` identity.
pub type ProgressFn<'a> = &'a mut dyn FnMut(u64, u64, &str);

/// A blocking connection to a serve daemon.
///
/// Holds exactly **one** file descriptor: writes go through `&TcpStream`
/// on the reader's underlying stream instead of a `try_clone` dup, so a
/// 10k-connection load generator costs 10k fds, not 20k.
pub struct Client {
    reader: BufReader<TcpStream>,
    next_id: i64,
    /// Ids sent ([`Client::send`]) whose responses have not yet been
    /// received ([`Client::recv`]), in send order.
    outstanding: Vec<i64>,
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("next_id", &self.next_id)
            .field("outstanding", &self.outstanding.len())
            .finish()
    }
}

impl Client {
    /// Default connect timeout for [`Client::connect`].
    pub const DEFAULT_CONNECT_TIMEOUT: Duration = Duration::from_secs(10);
    /// Default read/write timeout for [`Client::connect`] — generous enough
    /// for a cold full-grid sweep, but no longer "hang forever".
    pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(120);

    /// Connects to `addr` (e.g. `"127.0.0.1:7878"`) with the default
    /// timeouts ([`Self::DEFAULT_CONNECT_TIMEOUT`], [`Self::DEFAULT_IO_TIMEOUT`]).
    pub fn connect<A: ToSocketAddrs>(addr: A) -> Result<Self, ClientError> {
        Self::with_timeouts(
            addr,
            Some(Self::DEFAULT_CONNECT_TIMEOUT),
            Some(Self::DEFAULT_IO_TIMEOUT),
            Some(Self::DEFAULT_IO_TIMEOUT),
        )
    }

    /// Connects with explicit timeouts (`None` means "block forever").
    ///
    /// The connect timeout is applied per resolved address: if `addr`
    /// resolves to several socket addresses, each is tried in turn and the
    /// last error is returned when all fail.
    pub fn with_timeouts<A: ToSocketAddrs>(
        addr: A,
        connect: Option<Duration>,
        read: Option<Duration>,
        write: Option<Duration>,
    ) -> Result<Self, ClientError> {
        let stream = match connect {
            None => TcpStream::connect(addr)?,
            Some(limit) => {
                let mut last_err: Option<std::io::Error> = None;
                let mut stream = None;
                for sock_addr in addr.to_socket_addrs()? {
                    match TcpStream::connect_timeout(&sock_addr, limit) {
                        Ok(s) => {
                            stream = Some(s);
                            break;
                        }
                        Err(e) => last_err = Some(e),
                    }
                }
                match stream {
                    Some(s) => s,
                    None => {
                        return Err(ClientError::Io(last_err.unwrap_or_else(|| {
                            std::io::Error::new(
                                std::io::ErrorKind::InvalidInput,
                                "address resolved to no socket addresses",
                            )
                        })))
                    }
                }
            }
        };
        stream.set_read_timeout(read)?;
        stream.set_write_timeout(write)?;
        Self::from_stream(stream)
    }

    /// Wraps an already-connected stream.
    pub fn from_stream(stream: TcpStream) -> Result<Self, ClientError> {
        stream.set_nodelay(true).ok();
        Ok(Self {
            reader: BufReader::new(stream),
            next_id: 0,
            outstanding: Vec::new(),
        })
    }

    /// Sets (or clears) the read timeout used while waiting for a response.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> Result<(), ClientError> {
        self.reader.get_ref().set_read_timeout(timeout)?;
        Ok(())
    }

    /// Sends one raw request object (must contain `"kind"`; `"id"` is
    /// assigned here) and returns the server's `result` payload.
    ///
    /// The serial path: [`Client::send`] followed by [`Client::recv`],
    /// insisting the response is this request's. Don't mix it into an
    /// active pipeline — with other requests outstanding, whichever of
    /// them completes first would surface here as
    /// [`ClientError::IdMismatch`].
    pub fn call(&mut self, request: Json) -> Result<Json, ClientError> {
        let id = self.send(request)?;
        let (got, outcome) = self.recv()?;
        if got != id {
            return Err(ClientError::IdMismatch {
                got: Some(got),
                outstanding: self.outstanding.clone(),
            });
        }
        outcome
    }

    /// Pipelining: writes one request line without waiting for its
    /// response, returning the assigned id. Pair with [`Client::recv`];
    /// pipelined responses may arrive out of request order.
    pub fn send(&mut self, mut request: Json) -> Result<i64, ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        if let Json::Object(fields) = &mut request {
            fields.retain(|(k, _)| k != "id");
            fields.insert(0, ("id".to_string(), Json::Int(id)));
        } else {
            return Err(ClientError::Protocol(
                "request must be a JSON object".into(),
            ));
        }
        let mut writer = self.reader.get_ref();
        writer.write_all(&wire_line(&request))?;
        writer.flush()?;
        self.outstanding.push(id);
        Ok(id)
    }

    /// Reads the next response line and correlates it to an outstanding
    /// [`Client::send`] by id. Returns the id plus that request's outcome.
    ///
    /// The outer `Result` is the connection's health (IO failure, garbage
    /// framing, [`ClientError::IdMismatch`] desync); the inner one is the
    /// per-request outcome, so one rejected request does not read as a
    /// broken connection.
    #[allow(clippy::type_complexity)]
    pub fn recv(&mut self) -> Result<(i64, Result<Json, ClientError>), ClientError> {
        let parsed = self.read_json_line()?;
        let got = match parsed.get("id") {
            Some(&Json::Int(got)) => got,
            _ => {
                return Err(ClientError::IdMismatch {
                    got: None,
                    outstanding: self.outstanding.clone(),
                })
            }
        };
        let Some(pos) = self.outstanding.iter().position(|&id| id == got) else {
            return Err(ClientError::IdMismatch {
                got: Some(got),
                outstanding: self.outstanding.clone(),
            });
        };
        self.outstanding.remove(pos);
        let outcome = parse_response(parsed).map_err(|e| match e.code {
            ErrorCode::Overloaded => ClientError::Overloaded(e.message),
            _ => ClientError::Server(e),
        });
        Ok((got, outcome))
    }

    /// Reads and parses one NDJSON line off the connection, without
    /// interpreting it as a response — streamed sweeps interleave progress
    /// frames (no `"ok"` key) with the final id-correlated response.
    fn read_json_line(&mut self) -> Result<Json, ClientError> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line)?;
        if n == 0 {
            return Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        Json::parse(line.trim_end())
            .map_err(|e| ClientError::Protocol(format!("unparseable response: {e}")))
    }

    /// How many sent requests are still awaiting their response.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Round-trip liveness check.
    pub fn ping(&mut self) -> Result<Json, ClientError> {
        self.call(Json::obj(vec![("kind", Json::from("ping"))]))
    }

    /// The server's crate version and protocol revision.
    pub fn version(&mut self) -> Result<Json, ClientError> {
        self.call(Json::obj(vec![("kind", Json::from("version"))]))
    }

    /// Slice statistics for `values` at `bits` (optionally also GSBR at
    /// `gsbr_width`).
    pub fn encode(
        &mut self,
        values: &[i32],
        bits: u8,
        gsbr_width: Option<u8>,
    ) -> Result<Json, ClientError> {
        let mut fields = vec![
            ("kind", Json::from("encode")),
            (
                "values",
                Json::Array(values.iter().map(|&v| Json::Int(v as i64)).collect()),
            ),
            ("bits", Json::from(bits as i64)),
        ];
        if let Some(w) = gsbr_width {
            fields.push(("gsbr_width", Json::from(w as i64)));
        }
        self.call(Json::obj(fields))
    }

    /// Simulates one (arch, network, seed) cell.
    pub fn simulate(
        &mut self,
        arch: &str,
        network: &str,
        seed: u64,
        sample_cap: Option<usize>,
    ) -> Result<Json, ClientError> {
        let mut fields = vec![
            ("kind", Json::from("simulate")),
            ("arch", Json::from(arch)),
            ("network", Json::from(network)),
            ("seed", Json::from(seed)),
        ];
        if let Some(cap) = sample_cap {
            fields.push(("sample_cap", Json::from(cap)));
        }
        self.call(Json::obj(fields))
    }

    /// Probes the server's persistent store for one (arch, network, seed)
    /// cell (protocol revision 5). Answers `{ "found": true, "result": … }`
    /// on a store hit (byte-identical to what `simulate` would serve) or
    /// `{ "found": false }`; the server never computes for this verb.
    pub fn lookup(
        &mut self,
        arch: &str,
        network: &str,
        seed: u64,
        sample_cap: Option<usize>,
    ) -> Result<Json, ClientError> {
        let mut fields = vec![
            ("kind", Json::from("lookup")),
            ("arch", Json::from(arch)),
            ("network", Json::from(network)),
            ("seed", Json::from(seed)),
        ];
        if let Some(cap) = sample_cap {
            fields.push(("sample_cap", Json::from(cap)));
        }
        self.call(Json::obj(fields))
    }

    /// A handle that can abort this connection's in-flight call from
    /// another thread (see [`CancelHandle`]). Duplicates the descriptor,
    /// so only take one while a call is actually worth cancelling — e.g. a
    /// fleet coordinator hedging a straggling dispatch.
    pub fn cancel_handle(&self) -> std::io::Result<CancelHandle> {
        Ok(CancelHandle {
            stream: self.reader.get_ref().try_clone()?,
        })
    }

    /// Simulates a full (archs × networks × seeds) grid.
    pub fn sweep(
        &mut self,
        archs: &[&str],
        networks: &[&str],
        seeds: &[u64],
        sample_cap: Option<usize>,
    ) -> Result<Json, ClientError> {
        self.sweep_with(archs, networks, seeds, sample_cap, None)
    }

    /// [`Client::sweep`] with an optional progress callback (revision 6).
    ///
    /// Passing a callback opts the request into `"stream": true`: the
    /// server interleaves progress frames (lines **without** an `"ok"`
    /// key) before the final response, and each is surfaced as
    /// `on_progress(done, total, cell)` without touching the pipeline's
    /// id bookkeeping. The returned final document is byte-identical to a
    /// non-streamed sweep of the same grid. Don't mix a streamed sweep
    /// into an active pipeline — like [`Client::call`], it insists the
    /// next real response is its own.
    pub fn sweep_with(
        &mut self,
        archs: &[&str],
        networks: &[&str],
        seeds: &[u64],
        sample_cap: Option<usize>,
        mut on_progress: Option<ProgressFn<'_>>,
    ) -> Result<Json, ClientError> {
        let mut fields = vec![
            ("kind", Json::from("sweep")),
            (
                "archs",
                Json::Array(archs.iter().map(|&a| Json::from(a)).collect()),
            ),
            (
                "networks",
                Json::Array(networks.iter().map(|&n| Json::from(n)).collect()),
            ),
            (
                "seeds",
                Json::Array(seeds.iter().map(|&s| Json::from(s)).collect()),
            ),
        ];
        if let Some(cap) = sample_cap {
            fields.push(("sample_cap", Json::from(cap)));
        }
        if on_progress.is_some() {
            fields.push(("stream", Json::Bool(true)));
        }
        let id = self.send(Json::obj(fields))?;
        loop {
            // Progress frames must be intercepted *before* id correlation:
            // they carry the request id but no "ok", and recv() would
            // retire the id and then choke on the missing key.
            let parsed = self.read_json_line()?;
            if parsed.get("ok").is_none() {
                if let Some(progress) = parsed.get("progress") {
                    if let Some(cb) = on_progress.as_deref_mut() {
                        let field = |key: &str| match progress.get(key) {
                            Some(&Json::Int(v)) if v >= 0 => v as u64,
                            _ => 0,
                        };
                        let cell = match progress.get("cell") {
                            Some(Json::Str(s)) => s.as_str(),
                            _ => "",
                        };
                        cb(field("done"), field("total"), cell);
                    }
                    continue;
                }
                return Err(ClientError::Protocol(
                    "response carries neither 'ok' nor 'progress'".into(),
                ));
            }
            let got = match parsed.get("id") {
                Some(&Json::Int(got)) => got,
                _ => {
                    return Err(ClientError::IdMismatch {
                        got: None,
                        outstanding: self.outstanding.clone(),
                    })
                }
            };
            let Some(pos) = self.outstanding.iter().position(|&i| i == got) else {
                return Err(ClientError::IdMismatch {
                    got: Some(got),
                    outstanding: self.outstanding.clone(),
                });
            };
            self.outstanding.remove(pos);
            if got != id {
                return Err(ClientError::IdMismatch {
                    got: Some(got),
                    outstanding: self.outstanding.clone(),
                });
            }
            return parse_response(parsed).map_err(|e| match e.code {
                ErrorCode::Overloaded => ClientError::Overloaded(e.message),
                _ => ClientError::Server(e),
            });
        }
    }

    /// The server's metrics snapshot.
    pub fn metrics(&mut self) -> Result<Json, ClientError> {
        self.call(Json::obj(vec![("kind", Json::from("metrics"))]))
    }

    /// The newest `limit` spans of the server's process tracer (server
    /// default when `None`), in start order so parents precede children,
    /// optionally restricted to one trace id — a response's echoed
    /// `trace_id` selects that request's span and its descendants. Empty
    /// unless the daemon runs with tracing enabled.
    pub fn spans(
        &mut self,
        limit: Option<usize>,
        trace_id: Option<&str>,
    ) -> Result<Json, ClientError> {
        let mut fields = vec![("kind", Json::from("spans"))];
        if let Some(n) = limit {
            fields.push(("limit", Json::from(n)));
        }
        if let Some(tid) = trace_id {
            fields.push(("trace_id", Json::from(tid)));
        }
        self.call(Json::obj(fields))
    }

    /// A fresh time-series telemetry sample: counter rates, gauge levels,
    /// and windowed histogram quantiles.
    pub fn stats(&mut self) -> Result<Json, ClientError> {
        self.call(Json::obj(vec![("kind", Json::from("stats"))]))
    }
}

/// Aborts a [`Client`]'s in-flight call from another thread by shutting
/// the socket down: the blocked read returns an error immediately and the
/// connection is dead afterwards — the caller must discard the client
/// rather than reuse it. This is how a fleet coordinator cancels the
/// losing copy of a hedged dispatch: the server may well finish the work
/// (and warm its store), but nobody waits for the bytes.
#[derive(Debug)]
pub struct CancelHandle {
    stream: TcpStream,
}

impl CancelHandle {
    /// Shuts the connection down in both directions; idempotent and
    /// infallible from the caller's point of view (an already-dead socket
    /// is exactly the state being asked for).
    pub fn cancel(&self) {
        let _ = self.stream.shutdown(std::net::Shutdown::Both);
    }
}
