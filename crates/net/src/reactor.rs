//! The single-thread epoll reactor.
//!
//! ## Event loop
//!
//! ```text
//!                    ┌───────────────────────────────────────────┐
//!                    │            reactor thread                 │
//!   listener ──ET──▶ │ accept loop ─▶ slab slot (gen-tagged)     │
//!   conn fds ──ET──▶ │ read ─▶ ReadBuf ─▶ frames ─▶ handler ──┐  │
//!   eventfd  ──ET──▶ │ drain completions ─▶ WriteBuf ─▶ flush │  │
//!                    └────────────────────────────────────▲────┼──┘
//!                                                         │    │ Pending
//!                       Completer::complete (any thread) ─┘◀───┘
//! ```
//!
//! One thread owns every socket. All fds are registered **edge-triggered**
//! (`EPOLLET`), so each readiness edge is serviced to exhaustion: reads
//! loop until `EWOULDBLOCK`, writes flush until the socket pushes back.
//! Frames are split incrementally in a reused [`ReadBuf`]; responses queue
//! in a reused [`WriteBuf`]. The handler runs **on the reactor thread** and
//! must not block — it either answers inline ([`FrameOutcome::Reply`]) or
//! hands the work to another thread and returns [`FrameOutcome::Pending`],
//! completing later through the [`Completer`] (which wakes the reactor via
//! `eventfd`). Completions may arrive in any order — that is what makes
//! pipelining real — and are matched to their connection by a
//! generation-tagged token, so a completion for a connection that died and
//! whose slot was reused is dropped, never misdelivered.
//!
//! ## Backpressure
//!
//! The reactor never buffers unboundedly: the handler sees the
//! connection's in-flight count and queued write bytes in [`FrameCx`] and
//! is expected to reject new work (with its protocol's typed error) when
//! its budgets fill. As a last resort — a client that keeps streaming
//! requests while never reading responses past
//! [`ReactorConfig::hard_write_cap`] — the connection is closed outright.
//!
//! ## Shutdown
//!
//! [`Reactor::shutdown`] stops accepting, stops *reading* (no new frames
//! admitted), waits for every in-flight completion to arrive and flush,
//! then closes the remaining connections and joins the thread.

use std::io::ErrorKind;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use sibia_obs::metrics::{Counter, Gauge, Histogram, Registry};

use crate::buffer::{FillOutcome, ReadBuf, WriteBuf};
use crate::sys::{
    Epoll, EpollEvent, EventFd, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP,
};

/// Reactor tuning knobs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReactorConfig {
    /// Bind host.
    pub host: String,
    /// Bind port (0 = ephemeral; see [`Reactor::addr`]).
    pub port: u16,
    /// A frame longer than this closes the connection (framing violation).
    pub max_frame_bytes: usize,
    /// Open connections beyond this are accepted and immediately closed.
    pub max_connections: usize,
    /// Queued-response bytes past which a connection is force-closed. The
    /// handler should start rejecting (typed, in-protocol) long before;
    /// this guards against clients that never read their responses.
    pub hard_write_cap: usize,
}

impl Default for ReactorConfig {
    fn default() -> Self {
        Self {
            host: "127.0.0.1".to_owned(),
            port: 0,
            max_frame_bytes: 16 << 20,
            max_connections: 16_384,
            hard_write_cap: 64 << 20,
        }
    }
}

/// What the handler wants done with one frame.
#[derive(Debug)]
pub enum FrameOutcome {
    /// Queue these bytes (a complete response line, `\n` included) now.
    Reply(Vec<u8>),
    /// The handler dispatched the work elsewhere and kept the frame's
    /// [`Completer`]; the response arrives via [`Completer::complete`].
    Pending,
    /// Nothing to send (e.g. a blank keep-alive line).
    Ignore,
    /// Protocol violation: flush what is queued, then close.
    Close,
}

/// Per-frame context handed to the handler: the completion handle plus the
/// connection's live backpressure state.
pub struct FrameCx {
    /// Completes this frame from any thread (only meaningful when the
    /// handler returns [`FrameOutcome::Pending`]).
    pub completer: Completer,
    /// Frames admitted as `Pending` whose completions have not yet
    /// arrived, this frame excluded.
    pub inflight: usize,
    /// Response bytes queued on this connection awaiting socket space.
    pub buffered_write_bytes: usize,
}

/// The application protocol, invoked on the reactor thread for every
/// complete frame. Implementations must not block.
pub trait FrameHandler: Send + Sync + 'static {
    /// One complete frame (line, delimiter stripped). Raw bytes: UTF-8
    /// validation is the protocol's business.
    fn on_frame(&self, cx: &FrameCx, frame: &[u8]) -> FrameOutcome;
}

/// Slot index ↔ epoll/completion token packing: low 32 bits slot, high 32
/// the slot's generation (bumped every close, so a token can never address
/// a later occupant of its slot).
fn pack(slot: usize, gen: u32) -> u64 {
    ((gen as u64) << 32) | slot as u64
}

fn unpack(token: u64) -> (usize, u32) {
    ((token & 0xffff_ffff) as usize, (token >> 32) as u32)
}

const TOKEN_LISTENER: u64 = u64::MAX;
const TOKEN_WAKER: u64 = u64::MAX - 1;

/// A queued completion: response bytes for a generation-tagged connection,
/// plus whether they finish the request. Final completions retire one
/// in-flight request; non-final ones (progress frames) only append bytes —
/// the request stays in flight until its final line arrives.
type Completion = (u64, Vec<u8>, bool);

struct CompletionQueue {
    queue: Mutex<Vec<Completion>>,
    waker: EventFd,
}

/// Cheap, clonable, thread-safe handle that delivers one frame's response
/// back to the reactor.
#[derive(Clone)]
pub struct Completer {
    shared: Arc<CompletionQueue>,
    token: u64,
}

impl std::fmt::Debug for Completer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Completer")
            .field("token", &self.token)
            .finish()
    }
}

impl Completer {
    /// Queues `bytes` (a complete response line, `\n` included) for the
    /// originating connection and wakes the reactor. Never blocks beyond a
    /// short mutex push. If the connection has since closed, the bytes are
    /// dropped and counted as `net.completions.stale`.
    pub fn complete(&self, bytes: Vec<u8>) {
        self.push(bytes, true);
    }

    /// Queues `bytes` (one complete progress line, `\n` included) for the
    /// originating connection *without* retiring the request: the frame's
    /// in-flight slot stays held until [`Completer::complete`] delivers the
    /// final response. Same staleness rule as `complete` — a closed
    /// connection drops the bytes as `net.completions.stale`.
    pub fn progress(&self, bytes: Vec<u8>) {
        self.push(bytes, false);
    }

    fn push(&self, bytes: Vec<u8>, is_final: bool) {
        self.shared
            .queue
            .lock()
            .expect("completion queue lock")
            .push((self.token, bytes, is_final));
        self.shared.waker.wake();
    }
}

/// `net.*` instruments, registered in the caller's registry.
struct NetMetrics {
    accepted: Arc<Counter>,
    refused: Arc<Counter>,
    open: Arc<Gauge>,
    frames: Arc<Counter>,
    replies: Arc<Counter>,
    completions: Arc<Counter>,
    stale: Arc<Counter>,
    bytes_read: Arc<Counter>,
    bytes_written: Arc<Counter>,
    wakeups: Arc<Counter>,
    polls: Arc<Counter>,
    broken: Arc<Counter>,
    tick: Arc<Histogram>,
    /// Time spent blocked in `epoll_wait` per poll — the reactor's idle
    /// side. Together with `tick` (the dispatch side) a telemetry sampler
    /// can derive reactor utilisation per scrape window.
    wait: Arc<Histogram>,
}

impl NetMetrics {
    fn new(registry: &Registry) -> Self {
        Self {
            accepted: registry.counter("net.connections.accepted"),
            refused: registry.counter("net.connections.refused"),
            open: registry.gauge("net.connections.open"),
            frames: registry.counter("net.frames.read"),
            replies: registry.counter("net.replies.written"),
            completions: registry.counter("net.completions.delivered"),
            stale: registry.counter("net.completions.stale"),
            bytes_read: registry.counter("net.bytes.read"),
            bytes_written: registry.counter("net.bytes.written"),
            wakeups: registry.counter("net.wakeups"),
            polls: registry.counter("net.polls"),
            broken: registry.counter("net.connections.broken"),
            tick: registry.histogram("net.reactor.tick_us"),
            wait: registry.histogram("net.reactor.wait_us"),
        }
    }
}

struct Conn {
    stream: TcpStream,
    rbuf: ReadBuf,
    wbuf: WriteBuf,
    gen: u32,
    inflight: usize,
    /// Peer sent EOF: no more reads, but queued work still completes.
    peer_closed: bool,
    /// Framing/IO violation or handler-requested close: stop reading,
    /// flush, then close.
    closing: bool,
}

struct Shared {
    completions: Arc<CompletionQueue>,
    shutdown: AtomicBool,
}

/// A running reactor. Dropping the handle does **not** stop it; call
/// [`Reactor::shutdown`].
pub struct Reactor {
    addr: SocketAddr,
    shared: Arc<Shared>,
    thread: JoinHandle<()>,
}

impl std::fmt::Debug for Reactor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Reactor").field("addr", &self.addr).finish()
    }
}

#[cfg(unix)]
fn raw_fd(s: &impl std::os::unix::io::AsRawFd) -> i32 {
    s.as_raw_fd()
}

#[cfg(not(unix))]
fn raw_fd<T>(_s: &T) -> i32 {
    -1
}

impl Reactor {
    /// Binds, registers the listener and wakeup fd, spawns the reactor
    /// thread, and returns. `net.*` instruments land in `registry`.
    pub fn start(
        config: ReactorConfig,
        handler: Arc<dyn FrameHandler>,
        registry: &Registry,
    ) -> std::io::Result<Self> {
        let listener = TcpListener::bind((config.host.as_str(), config.port))?;
        // At thousands of simultaneous connects, std's default backlog of
        // 128 overflows before the loop can accept; widen it to somaxconn.
        crate::sys::widen_listen_backlog(&listener, 4096);
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let epoll = Epoll::new()?;
        let waker = EventFd::new()?;
        epoll.add(raw_fd(&listener), EPOLLIN | EPOLLET, TOKEN_LISTENER)?;
        epoll.add(waker.raw_fd(), EPOLLIN | EPOLLET, TOKEN_WAKER)?;
        let shared = Arc::new(Shared {
            completions: Arc::new(CompletionQueue {
                queue: Mutex::new(Vec::new()),
                waker,
            }),
            shutdown: AtomicBool::new(false),
        });
        let metrics = NetMetrics::new(registry);
        let thread = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("sibia-net-reactor".to_owned())
                .spawn(move || {
                    EventLoop {
                        config,
                        handler,
                        epoll,
                        listener,
                        conns: Vec::new(),
                        gens: Vec::new(),
                        free: Vec::new(),
                        open: 0,
                        shared,
                        metrics,
                        draining: false,
                    }
                    .run();
                })?
        };
        Ok(Self {
            addr,
            shared,
            thread,
        })
    }

    /// The bound address (useful with `port: 0`).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Graceful drain: stop accepting and reading, deliver every in-flight
    /// completion, flush, close, and join the reactor thread.
    pub fn shutdown(self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.completions.waker.wake();
        let _ = self.thread.join();
    }
}

struct EventLoop {
    config: ReactorConfig,
    handler: Arc<dyn FrameHandler>,
    epoll: Epoll,
    listener: TcpListener,
    /// Connection slab; a slot is `None` when free.
    conns: Vec<Option<Conn>>,
    /// Per-slot generation, parallel to `conns`; bumped at close so stale
    /// tokens never resolve to a slot's next occupant.
    gens: Vec<u32>,
    free: Vec<usize>,
    open: usize,
    shared: Arc<Shared>,
    metrics: NetMetrics,
    draining: bool,
}

impl EventLoop {
    fn run(mut self) {
        let mut events = vec![EpollEvent::default(); 1024];
        loop {
            let wait_start = Instant::now();
            let n = match self.epoll.wait(&mut events, 100) {
                Ok(n) => n,
                Err(_) => return,
            };
            self.metrics.wait.record(wait_start.elapsed());
            let tick_start = Instant::now();
            self.metrics.polls.inc();
            for ev in events.iter().take(n) {
                // Copy out of the (possibly packed) event before use.
                let (bits, token) = (ev.events, ev.data);
                match token {
                    TOKEN_LISTENER => self.accept_ready(),
                    TOKEN_WAKER => {
                        self.metrics.wakeups.inc();
                        self.shared.completions.waker.drain();
                    }
                    _ => self.conn_event(token, bits),
                }
            }
            self.deliver_completions();
            if !self.draining && self.shared.shutdown.load(Ordering::SeqCst) {
                self.begin_drain();
            }
            if self.draining {
                self.reap_drained();
            }
            self.metrics.tick.record(tick_start.elapsed());
            if self.draining && self.open == 0 {
                return;
            }
        }
    }

    fn accept_ready(&mut self) {
        if self.draining {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _peer)) => self.admit(stream),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                // Transient accept errors (ECONNABORTED, fd-limit burst):
                // drop this edge; the next connection re-arms it.
                Err(_) => return,
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if self.open >= self.config.max_connections {
            self.metrics.refused.inc();
            return; // dropping the stream closes it
        }
        if stream.set_nonblocking(true).is_err() {
            return;
        }
        stream.set_nodelay(true).ok();
        let slot = self.free.pop().unwrap_or_else(|| {
            self.conns.push(None);
            self.gens.push(0);
            self.conns.len() - 1
        });
        let gen = self.gens[slot];
        if self
            .epoll
            .add(
                raw_fd(&stream),
                EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET,
                pack(slot, gen),
            )
            .is_err()
        {
            self.free.push(slot);
            return;
        }
        self.conns[slot] = Some(Conn {
            stream,
            rbuf: ReadBuf::new(),
            wbuf: WriteBuf::new(),
            gen,
            inflight: 0,
            peer_closed: false,
            closing: false,
        });
        self.open += 1;
        self.metrics.accepted.inc();
        self.metrics.open.set(self.open as i64);
    }

    fn conn_event(&mut self, token: u64, bits: u32) {
        let (slot, gen) = unpack(token);
        match self.conns.get_mut(slot).and_then(Option::as_mut) {
            Some(conn) if conn.gen == gen => {}
            _ => return, // stale event for a closed/recycled slot
        }
        if bits & (EPOLLERR | EPOLLHUP) != 0 {
            self.metrics.broken.inc();
            self.close_conn(slot);
            return;
        }
        if bits & EPOLLOUT != 0 {
            self.flush_conn(slot);
        }
        if bits & (EPOLLIN | EPOLLRDHUP) != 0 {
            self.read_conn(slot);
        }
    }

    /// Reads to exhaustion (edge-triggered contract), processing complete
    /// frames after every chunk so buffered input stays bounded by one
    /// frame plus one read chunk.
    fn read_conn(&mut self, slot: usize) {
        loop {
            let conn = match self.conns.get_mut(slot).and_then(Option::as_mut) {
                Some(c) if !c.closing && !c.peer_closed && !self.draining => c,
                _ => return,
            };
            match conn.rbuf.fill(&mut conn.stream) {
                Ok(FillOutcome::Read(n)) => {
                    self.metrics.bytes_read.add(n as u64);
                    self.process_frames(slot);
                    if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                        if conn.rbuf.pending() > self.config.max_frame_bytes {
                            self.metrics.broken.inc();
                            self.close_conn(slot);
                            return;
                        }
                    }
                }
                Ok(FillOutcome::WouldBlock) => {
                    self.process_frames(slot);
                    return;
                }
                Ok(FillOutcome::Eof) => {
                    self.process_frames(slot);
                    if let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) {
                        conn.peer_closed = true;
                        if conn.inflight == 0 && conn.wbuf.pending() == 0 {
                            self.close_conn(slot);
                        }
                    }
                    return;
                }
                Err(_) => {
                    self.metrics.broken.inc();
                    self.close_conn(slot);
                    return;
                }
            }
        }
    }

    fn process_frames(&mut self, slot: usize) {
        loop {
            let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
                return;
            };
            if conn.closing {
                return;
            }
            let Some(range) = conn.rbuf.next_frame() else {
                return;
            };
            self.metrics.frames.inc();
            let cx = FrameCx {
                completer: Completer {
                    shared: Arc::clone(&self.shared.completions),
                    token: pack(slot, conn.gen),
                },
                inflight: conn.inflight,
                buffered_write_bytes: conn.wbuf.pending(),
            };
            let outcome = self.handler.on_frame(&cx, conn.rbuf.frame(range));
            let conn = self.conns[slot].as_mut().expect("conn present above");
            match outcome {
                FrameOutcome::Reply(bytes) => {
                    conn.wbuf.append(&bytes);
                    self.metrics.replies.inc();
                    if conn.wbuf.pending() > self.config.hard_write_cap {
                        self.metrics.broken.inc();
                        self.close_conn(slot);
                        return;
                    }
                    self.flush_conn(slot);
                }
                FrameOutcome::Pending => conn.inflight += 1,
                FrameOutcome::Ignore => {}
                FrameOutcome::Close => {
                    conn.closing = true;
                    conn.rbuf.clear();
                    self.flush_conn(slot);
                    return;
                }
            }
        }
    }

    /// Flushes queued bytes; closes on write error, or cleanly once a
    /// closing/draining/EOF'd connection has nothing left to say.
    fn flush_conn(&mut self, slot: usize) {
        let Some(conn) = self.conns.get_mut(slot).and_then(Option::as_mut) else {
            return;
        };
        let before = conn.wbuf.pending();
        match conn.wbuf.flush(&mut conn.stream) {
            Ok(drained) => {
                let written = (before - conn.wbuf.pending()) as u64;
                self.metrics.bytes_written.add(written);
                if drained
                    && conn.inflight == 0
                    && (conn.closing || conn.peer_closed || self.draining)
                {
                    self.close_conn(slot);
                }
            }
            Err(_) => {
                self.metrics.broken.inc();
                self.close_conn(slot);
            }
        }
    }

    fn deliver_completions(&mut self) {
        let batch = {
            let mut queue = self
                .shared
                .completions
                .queue
                .lock()
                .expect("completion queue lock");
            std::mem::take(&mut *queue)
        };
        for (token, bytes, is_final) in batch {
            let (slot, gen) = unpack(token);
            let conn = match self.conns.get_mut(slot).and_then(Option::as_mut) {
                Some(c) if c.gen == gen => c,
                _ => {
                    self.metrics.stale.inc();
                    continue;
                }
            };
            // Progress frames only append bytes; the request stays in
            // flight (and holds its pipeline slot) until the final line.
            if is_final {
                conn.inflight = conn.inflight.saturating_sub(1);
                self.metrics.completions.inc();
                self.metrics.replies.inc();
            }
            conn.wbuf.append(&bytes);
            if conn.wbuf.pending() > self.config.hard_write_cap {
                self.metrics.broken.inc();
                self.close_conn(slot);
                continue;
            }
            self.flush_conn(slot);
        }
    }

    fn begin_drain(&mut self) {
        self.draining = true;
        let _ = self.epoll.delete(raw_fd(&self.listener));
    }

    /// During drain: close every connection with nothing left in flight
    /// and nothing left to flush (flush_conn finishes the rest as
    /// completions land).
    fn reap_drained(&mut self) {
        for slot in 0..self.conns.len() {
            let done = match &self.conns[slot] {
                Some(c) => c.inflight == 0 && c.wbuf.pending() == 0,
                None => false,
            };
            if done {
                self.close_conn(slot);
            }
        }
    }

    fn close_conn(&mut self, slot: usize) {
        let Some(conn) = self.conns[slot].take() else {
            return;
        };
        let _ = self.epoll.delete(raw_fd(&conn.stream));
        // Bump the generation so completions addressed to this connection
        // are recognized as stale, then recycle the slot.
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push(slot);
        self.open -= 1;
        self.metrics.open.set(self.open as i64);
    }
}
