//! End-to-end reactor tests over real sockets with an echo protocol:
//! inline replies, out-of-order pending completions, framing-violation
//! closes, graceful drain, and stale-completion isolation.
#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::{Arc, Mutex};
use std::time::Duration;

use sibia_net::{Completer, FrameCx, FrameHandler, FrameOutcome, Reactor, ReactorConfig};
use sibia_obs::metrics::Registry;

/// Echo protocol: `defer:<payload>` parks the completer for the test to
/// resolve (in whatever order it likes); `async:<payload>` echoes from a
/// short-lived thread; `close` asks for a close; anything else echoes
/// inline.
struct Echo {
    parked: Mutex<Vec<(Completer, Vec<u8>)>>,
}

impl Echo {
    fn new() -> Self {
        Self {
            parked: Mutex::new(Vec::new()),
        }
    }

    /// Completes every parked frame, most recently parked first.
    fn release_parked_reversed(&self) {
        let mut parked = self.parked.lock().unwrap();
        while let Some((completer, mut payload)) = parked.pop() {
            payload.push(b'\n');
            completer.complete(payload);
        }
    }
}

impl FrameHandler for Echo {
    fn on_frame(&self, cx: &FrameCx, frame: &[u8]) -> FrameOutcome {
        if frame.is_empty() {
            return FrameOutcome::Ignore;
        }
        if frame == b"close" {
            return FrameOutcome::Close;
        }
        if let Some(payload) = frame.strip_prefix(b"defer:") {
            self.parked
                .lock()
                .unwrap()
                .push((cx.completer.clone(), payload.to_vec()));
            return FrameOutcome::Pending;
        }
        if let Some(payload) = frame.strip_prefix(b"async:") {
            let completer = cx.completer.clone();
            let mut payload = payload.to_vec();
            std::thread::spawn(move || {
                payload.push(b'\n');
                completer.complete(payload);
            });
            return FrameOutcome::Pending;
        }
        let mut reply = frame.to_vec();
        reply.push(b'\n');
        FrameOutcome::Reply(reply)
    }
}

fn start_echo(config: ReactorConfig) -> (Reactor, Arc<Echo>, Arc<Registry>) {
    let handler = Arc::new(Echo::new());
    let registry = Arc::new(Registry::new());
    let reactor =
        Reactor::start(config, Arc::clone(&handler) as _, &registry).expect("reactor starts");
    (reactor, handler, registry)
}

fn connect(reactor: &Reactor) -> (BufReader<TcpStream>, TcpStream) {
    let stream = TcpStream::connect(reactor.addr()).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    stream.set_nodelay(true).unwrap();
    let reader = BufReader::new(stream.try_clone().unwrap());
    (reader, stream)
}

fn read_line(reader: &mut BufReader<TcpStream>) -> String {
    let mut line = String::new();
    reader.read_line(&mut line).expect("read line");
    line.trim_end().to_owned()
}

#[test]
fn inline_echo_round_trips() {
    let (reactor, _handler, _registry) = start_echo(ReactorConfig::default());
    let (mut reader, mut writer) = connect(&reactor);
    for i in 0..100 {
        writeln!(writer, "hello {i}").unwrap();
        assert_eq!(read_line(&mut reader), format!("hello {i}"));
    }
    reactor.shutdown();
}

#[test]
fn pipelined_requests_complete_out_of_order() {
    let (reactor, handler, registry) = start_echo(ReactorConfig::default());
    let (mut reader, mut writer) = connect(&reactor);
    // Pipeline: three deferred requests plus one inline, written in one
    // burst without reading.
    writer
        .write_all(b"defer:a\ndefer:b\ndefer:c\ninline\n")
        .unwrap();
    // The inline echo overtakes all deferred work.
    assert_eq!(read_line(&mut reader), "inline");
    // Wait until every deferred frame is parked, then release newest
    // first: responses must arrive in completion order (c, b, a), not
    // request order.
    while handler.parked.lock().unwrap().len() < 3 {
        std::thread::sleep(Duration::from_millis(5));
    }
    handler.release_parked_reversed();
    assert_eq!(read_line(&mut reader), "c");
    assert_eq!(read_line(&mut reader), "b");
    assert_eq!(read_line(&mut reader), "a");
    reactor.shutdown();
    assert_eq!(registry.counter("net.completions.delivered").get(), 3);
    assert_eq!(registry.counter("net.completions.stale").get(), 0);
}

#[test]
fn oversized_frame_closes_the_connection() {
    let (reactor, _handler, registry) = start_echo(ReactorConfig {
        max_frame_bytes: 1024,
        ..ReactorConfig::default()
    });
    let (mut reader, mut writer) = connect(&reactor);
    writeln!(writer, "still fine").unwrap();
    assert_eq!(read_line(&mut reader), "still fine");
    // A 1 MiB line with no newline: the reactor must cut the connection
    // instead of buffering it.
    let junk = vec![b'x'; 1 << 20];
    let _ = writer.write_all(&junk); // may fail midway once the server closes
    let mut rest = Vec::new();
    // The server cuts the connection with bytes still unread, so the
    // client sees either a clean EOF or a reset — never a reply.
    match reader.read_to_end(&mut rest) {
        Ok(_) => assert!(rest.is_empty(), "no reply to an oversized frame"),
        Err(e) => assert!(
            matches!(
                e.kind(),
                std::io::ErrorKind::ConnectionReset | std::io::ErrorKind::BrokenPipe
            ),
            "unexpected read error: {e}"
        ),
    }
    reactor.shutdown();
    assert!(registry.counter("net.connections.broken").get() >= 1);
}

#[test]
fn handler_close_flushes_then_disconnects() {
    let (reactor, _handler, _registry) = start_echo(ReactorConfig::default());
    let (mut reader, mut writer) = connect(&reactor);
    writer.write_all(b"last\nclose\nignored\n").unwrap();
    assert_eq!(read_line(&mut reader), "last");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).expect("clean close");
    assert!(rest.is_empty(), "frames after close are never processed");
    reactor.shutdown();
}

#[test]
fn many_concurrent_connections_echo_concurrently() {
    let (reactor, _handler, registry) = start_echo(ReactorConfig::default());
    let addr = reactor.addr();
    let mut threads = Vec::new();
    for t in 0..16 {
        threads.push(std::thread::spawn(move || {
            let mut conns: Vec<(BufReader<TcpStream>, TcpStream)> = (0..25)
                .map(|_| {
                    let stream = TcpStream::connect(addr).unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(30)))
                        .unwrap();
                    (BufReader::new(stream.try_clone().unwrap()), stream)
                })
                .collect();
            // Interleave: write to every connection, then read every reply.
            for round in 0..4 {
                for (i, (_, writer)) in conns.iter_mut().enumerate() {
                    writeln!(writer, "t{t} c{i} r{round}").unwrap();
                }
                for (i, (reader, _)) in conns.iter_mut().enumerate() {
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    assert_eq!(line.trim_end(), format!("t{t} c{i} r{round}"));
                }
            }
        }));
    }
    for thread in threads {
        thread.join().unwrap();
    }
    reactor.shutdown();
    assert_eq!(registry.counter("net.connections.accepted").get(), 400);
    assert_eq!(registry.counter("net.frames.read").get(), 400 * 4);
    assert_eq!(registry.gauge("net.connections.open").get(), 0);
}

#[test]
fn graceful_drain_completes_in_flight_work() {
    let (reactor, handler, _registry) = start_echo(ReactorConfig::default());
    let (mut reader, mut writer) = connect(&reactor);
    writer.write_all(b"defer:survivor\n").unwrap();
    while handler.parked.lock().unwrap().is_empty() {
        std::thread::sleep(Duration::from_millis(5));
    }
    let addr = reactor.addr();
    // Shutdown blocks until the deferred frame completes; drive it from
    // another thread and release the completion while it waits.
    let drain = std::thread::spawn(move || reactor.shutdown());
    std::thread::sleep(Duration::from_millis(50));
    handler.release_parked_reversed();
    drain.join().unwrap();
    // The in-flight response arrived before the close...
    assert_eq!(read_line(&mut reader), "survivor");
    let mut rest = Vec::new();
    reader.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty());
    // ...and the listener is gone.
    assert!(
        TcpStream::connect(addr).is_err(),
        "listener closed on drain"
    );
}

#[test]
fn stale_completions_never_reach_a_reused_slot() {
    let (reactor, handler, registry) = start_echo(ReactorConfig {
        max_frame_bytes: 64,
        ..ReactorConfig::default()
    });
    // Park a completion, then get its connection force-closed while the
    // work is still in flight (an oversized frame breaks the connection
    // immediately, unlike a polite FIN, which would wait for the
    // completion).
    let (_reader, mut writer) = connect(&reactor);
    writer.write_all(b"defer:ghost\n").unwrap();
    while handler.parked.lock().unwrap().is_empty() {
        std::thread::sleep(Duration::from_millis(5));
    }
    writer.write_all(&[b'x'; 1024]).unwrap();
    // Wait for the reactor to cut the connection (slot freed, gen bumped).
    while registry.gauge("net.connections.open").get() != 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    // A new connection reuses the slot; the stale completion must not
    // leak into its stream.
    let (mut reader, mut writer) = connect(&reactor);
    writeln!(writer, "fresh").unwrap();
    assert_eq!(read_line(&mut reader), "fresh");
    handler.release_parked_reversed();
    while registry.counter("net.completions.stale").get() == 0 {
        std::thread::sleep(Duration::from_millis(5));
    }
    writeln!(writer, "still clean").unwrap();
    assert_eq!(
        read_line(&mut reader),
        "still clean",
        "the ghost bytes must never appear on the reused slot"
    );
    assert_eq!(registry.counter("net.completions.stale").get(), 1);
    reactor.shutdown();
}
