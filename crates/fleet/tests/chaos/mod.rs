//! Deterministic chaos tooling for the fleet test suites.
//!
//! Two pieces:
//!
//! * [`ChaosPlan`] — a SynthRng-derived schedule of kill/stall/heal/join
//!   events. Same seed, same plan, bit for bit: the failover suite replays
//!   a plan against live backends and pins the sweep output byte-identical
//!   to the direct grid, so "chaos" never means "flaky".
//! * [`SlowProxy`] — a line-forwarding TCP proxy with a settable
//!   per-request delay, standing between the coordinator and one backend.
//!   The delay is pure sleep, which is exactly what a straggler looks
//!   like from the outside: the backend is healthy and correct, just
//!   late. Stall events flip the delay up and heal events drop it to zero.
//!
//! A module of the test tree, not of the library: `tests/failover.rs` (which
//! also holds the plans' own tests) and `tests/hedge_spans.rs` include it
//! with `mod chaos;`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use sibia_nn::rng::SynthRng;

/// What one chaos event does to the fleet under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosAction {
    /// Hard-kill backend `i` (the suite shuts the server down mid-sweep).
    Kill(usize),
    /// Join the spare backend into the sweep.
    Join,
    /// Set backend `i`'s proxy delay (per request).
    Stall(usize, Duration),
    /// Drop backend `i`'s proxy delay back to zero.
    Heal(usize),
}

/// One scheduled action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChaosEvent {
    /// When, measured from sweep start.
    pub at: Duration,
    /// What.
    pub action: ChaosAction,
}

/// A deterministic, seed-derived chaos schedule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosPlan {
    /// Events in firing order.
    pub events: Vec<ChaosEvent>,
}

impl ChaosPlan {
    /// Derives a plan from `seed` for a fleet of `backends` backends over
    /// roughly `horizon` of sweep time. Always contains at least one kill
    /// and one join (the membership paths under test), plus 1–3 stall
    /// events with matching heals; the victims, delays, and times are all
    /// SynthRng picks, so two runs with one seed agree exactly.
    pub fn generate(seed: u64, backends: usize, horizon: Duration) -> Self {
        assert!(backends >= 2, "chaos needs at least two backends");
        let mut rng = SynthRng::for_stream(seed, 0xC4A0);
        let h = horizon.as_millis().max(10) as u64;
        // Times land in [h/8, h): never at zero (the sweep must actually
        // start first) and never past the nominal horizon.
        let at = |rng: &mut SynthRng| Duration::from_millis(h / 8 + rng.next_u64() % (h - h / 8));
        let kill_victim = (rng.next_u64() % backends as u64) as usize;
        let mut events = vec![
            ChaosEvent {
                at: at(&mut rng),
                action: ChaosAction::Kill(kill_victim),
            },
            ChaosEvent {
                at: at(&mut rng),
                action: ChaosAction::Join,
            },
        ];
        let stalls = 1 + (rng.next_u64() % 3) as usize;
        for _ in 0..stalls {
            // Stall a backend other than the kill victim, so the stalled
            // path and the dead path stay distinguishable in the stats.
            let victim = (rng.next_u64() % backends as u64) as usize;
            let victim = if victim == kill_victim {
                (victim + 1) % backends
            } else {
                victim
            };
            let delay = Duration::from_millis(50 + rng.next_u64() % 200);
            let start = at(&mut rng);
            events.push(ChaosEvent {
                at: start,
                action: ChaosAction::Stall(victim, delay),
            });
            events.push(ChaosEvent {
                at: start + Duration::from_millis(50 + rng.next_u64() % (h / 2)),
                action: ChaosAction::Heal(victim),
            });
        }
        events.sort_by_key(|e| e.at);
        Self { events }
    }
}

/// A blocking line proxy with a settable per-request delay.
///
/// One thread accepts; each connection gets a forwarding thread that
/// reads a request line from the client, sleeps the current delay, relays
/// it upstream, and relays the response line back. Fleet dispatch keeps one
/// request in flight per connection, so line-at-a-time forwarding preserves
/// the framing exactly. A cancelled
/// client (socket shutdown) surfaces as a read/write error and tears the
/// pair down, which is precisely how hedge cancellation is supposed to
/// look from the backend's side of the proxy.
#[derive(Debug)]
pub struct SlowProxy {
    addr: SocketAddr,
    delay_ms: Arc<AtomicU64>,
    shutdown: Arc<AtomicBool>,
    accept_thread: Option<JoinHandle<()>>,
}

impl SlowProxy {
    /// Starts a proxy on an ephemeral local port forwarding to `upstream`,
    /// with zero initial delay.
    pub fn start(upstream: SocketAddr) -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        // Poll accept so shutdown is prompt without an extra wake-up dance.
        listener.set_nonblocking(true)?;
        let delay_ms = Arc::new(AtomicU64::new(0));
        let shutdown = Arc::new(AtomicBool::new(false));
        let accept_thread = {
            let delay_ms = Arc::clone(&delay_ms);
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                while !shutdown.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((client, _)) => {
                            let delay_ms = Arc::clone(&delay_ms);
                            let shutdown = Arc::clone(&shutdown);
                            std::thread::spawn(move || {
                                forward(client, upstream, &delay_ms, &shutdown);
                            });
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(5));
                        }
                        Err(_) => break,
                    }
                }
            })
        };
        Ok(Self {
            addr,
            delay_ms,
            shutdown,
            accept_thread: Some(accept_thread),
        })
    }

    /// Where clients should connect.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Sets the per-request delay (applied before relaying upstream).
    pub fn set_delay(&self, delay: Duration) {
        self.delay_ms.store(
            delay.as_millis().min(u128::from(u64::MAX)) as u64,
            Ordering::SeqCst,
        );
    }

    /// Stops accepting. Existing forwarding threads notice on their next
    /// request boundary (or when either side hangs up).
    pub fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for SlowProxy {
    fn drop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

fn forward(client: TcpStream, upstream: SocketAddr, delay_ms: &AtomicU64, shutdown: &AtomicBool) {
    let Ok(server) = TcpStream::connect_timeout(&upstream, Duration::from_secs(5)) else {
        return;
    };
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    let mut client_reader = BufReader::new(match client.try_clone() {
        Ok(c) => c,
        Err(_) => return,
    });
    let mut server_reader = BufReader::new(match server.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut request = String::new();
    let mut response = String::new();
    while !shutdown.load(Ordering::SeqCst) {
        request.clear();
        match client_reader.read_line(&mut request) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        // The straggler's whole pathology, in one line.
        let delay = delay_ms.load(Ordering::SeqCst);
        if delay > 0 {
            std::thread::sleep(Duration::from_millis(delay));
        }
        if (&server).write_all(request.as_bytes()).is_err() {
            return;
        }
        response.clear();
        match server_reader.read_line(&mut response) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
        if (&client).write_all(response.as_bytes()).is_err() {
            return;
        }
    }
}
