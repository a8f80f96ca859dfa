//! The daemon under many pipelined connections, through the wire.
//!
//! The load generator spreads the connections over at most 32 threads.
//! Each thread opens its connections and pings each once, so the daemon has
//! accepted every one of them (connect alone only proves the kernel's
//! handshake from the listen backlog). After a barrier every connection is loaded at once:
//! each thread keeps all of its connections pipelined and times every
//! request from send to receive. A typed server error (such as
//! `overloaded` backpressure) is an answer. A failed connect, broken
//! framing, an id mismatch or EOF is a protocol error.
//!
//! The tier-1 test is the serve smoke at 8 and 1,000 connections against
//! `ServeConfig::default()`, which is what `sibia-cli serve` runs. The
//! ignored test is the telemetry-overhead gate, a timing test that is only
//! meaningful in release.
#![cfg(target_os = "linux")]

use std::collections::HashMap;
use std::sync::Barrier;
use std::time::{Duration, Instant};

use sibia_obs::json::Json;
use sibia_serve::server::{ServeConfig, Server};
use sibia_serve::{Client, ClientError};

/// The shape of one measured leg.
struct Leg {
    connections: usize,
    requests: usize,
    pipeline: usize,
    threads: usize,
    sample_cap: usize,
}

/// Per-shard tallies; `latencies` holds the answered-ok requests.
#[derive(Default)]
struct Tally {
    ok: u64,
    server_errors: u64,
    protocol_errors: u64,
    latencies: Vec<Duration>,
}

impl Tally {
    fn absorb(&mut self, other: Tally) {
        self.ok += other.ok;
        self.server_errors += other.server_errors;
        self.protocol_errors += other.protocol_errors;
        self.latencies.extend(other.latencies);
    }
}

/// The request mix, varied per (connection, request) so the shared cache
/// sees both hits and misses: mostly pings (serving overhead), with an
/// encode and a small simulate in every connection's stream.
fn request_json(conn: usize, r: usize, sample_cap: usize) -> Json {
    const ARCHS: [&str; 5] = ["sibia", "bitfusion", "hnpu", "no-sbr", "input-skip"];
    match r % 6 {
        0 => Json::obj(vec![
            ("kind", Json::from("simulate")),
            ("arch", Json::from(ARCHS[conn % ARCHS.len()])),
            ("network", Json::from("dgcnn")),
            ("seed", Json::from((conn % 3) as u64 + 1)),
            ("sample_cap", Json::from(sample_cap)),
        ]),
        3 => Json::obj(vec![
            ("kind", Json::from("encode")),
            (
                "values",
                Json::Array(
                    (0..128)
                        .map(|i| Json::Int(((i * 37 + conn) % 127) as i64 - 63))
                        .collect(),
                ),
            ),
            ("bits", Json::from(7u64)),
            ("gsbr_width", Json::from(3u64)),
        ]),
        _ => Json::obj(vec![("kind", Json::from("ping"))]),
    }
}

/// Connects like a real load generator: a refused or timed-out connect is
/// retried with backoff before it counts as a failure.
fn connect_with_retry(addr: &str) -> Result<Client, ClientError> {
    let mut delay = Duration::from_millis(100);
    for _ in 0..4 {
        match Client::connect(addr) {
            Ok(client) => return Ok(client),
            Err(_) => {
                std::thread::sleep(delay);
                delay *= 2;
            }
        }
    }
    Client::connect(addr)
}

/// Drives one shard of connections: opens and pings them all, waits at
/// `barrier`, then pipelines `leg.requests` on every connection at once,
/// at most `leg.pipeline` deep.
fn drive_shard(addr: &str, conns: std::ops::Range<usize>, leg: &Leg, barrier: &Barrier) -> Tally {
    struct ConnState {
        client: Client,
        conn: usize,
        next_request: usize,
        sent_at: HashMap<i64, Instant>,
    }
    let requests = leg.requests;
    let mut tally = Tally::default();
    let mut states: Vec<ConnState> = Vec::new();
    for conn in conns {
        // Each thread pings before its next connect, so at most one
        // connection per thread sits unaccepted: the backlog cannot
        // overflow at any connection count.
        let connected = connect_with_retry(addr).and_then(|mut client| {
            let _ = client.set_read_timeout(Some(Duration::from_secs(300)));
            client.ping().map(|_| client)
        });
        match connected {
            Ok(client) => states.push(ConnState {
                client,
                conn,
                next_request: 0,
                sent_at: HashMap::new(),
            }),
            Err(_) => tally.protocol_errors += requests as u64,
        }
    }
    barrier.wait();

    // Round-robin over the shard: top every connection's window up to the
    // pipeline depth, then collect one response from each connection with
    // work outstanding, until every request is answered.
    let mut live = states.len();
    while live > 0 {
        live = 0;
        for state in &mut states {
            while state.next_request < requests && state.client.outstanding() < leg.pipeline {
                let request = request_json(state.conn, state.next_request, leg.sample_cap);
                match state.client.send(request) {
                    Ok(id) => {
                        state.sent_at.insert(id, Instant::now());
                        state.next_request += 1;
                    }
                    Err(_) => {
                        // The connection is gone: every request on it that
                        // is unanswered counts as a protocol error.
                        tally.protocol_errors +=
                            (requests - state.next_request + state.sent_at.len()) as u64;
                        state.next_request = requests;
                        state.sent_at.clear();
                        break;
                    }
                }
            }
            if state.sent_at.is_empty() {
                continue;
            }
            live += 1;
            match state.client.recv() {
                Ok((id, outcome)) => match (state.sent_at.remove(&id), outcome) {
                    (Some(sent), Ok(_)) => {
                        tally.ok += 1;
                        tally.latencies.push(sent.elapsed());
                    }
                    (Some(_), Err(ClientError::Server(_) | ClientError::Overloaded(_))) => {
                        tally.server_errors += 1
                    }
                    // recv() already matched the id against its own
                    // outstanding set; count a stray one rather than trust it.
                    _ => tally.protocol_errors += 1,
                },
                Err(_) => {
                    tally.protocol_errors +=
                        (requests - state.next_request + state.sent_at.len()) as u64;
                    state.next_request = requests;
                    state.sent_at.clear();
                }
            }
        }
    }
    tally
}

/// Runs one leg against `addr` and returns its tally, latencies sorted.
fn run_leg(addr: &str, leg: &Leg) -> Tally {
    let threads = leg.threads.min(leg.connections);
    let barrier = Barrier::new(threads);
    let mut tally = Tally::default();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                // The first `rem` threads take one extra connection.
                let per = leg.connections / threads;
                let rem = leg.connections % threads;
                let lo = t * per + t.min(rem);
                let hi = lo + per + usize::from(t < rem);
                let barrier = &barrier;
                scope.spawn(move || drive_shard(addr, lo..hi, leg, barrier))
            })
            .collect();
        for h in handles {
            tally.absorb(h.join().expect("load thread"));
        }
    });
    tally.latencies.sort_unstable();
    tally
}

/// Nearest-rank quantile of a sorted list: the rank-`ceil(q*n)` sample
/// (zero for an empty list).
fn quantile(sorted: &[Duration], q: f64) -> Duration {
    if sorted.is_empty() {
        return Duration::ZERO;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The serve smoke: 8 then 1,000 connections, 5 requests each, 8 deep.
/// Every request is answered (ok or a typed server error) with no protocol
/// error and a p99 under a deliberately generous 30 s: this is a
/// correctness check on shared hardware, not a performance assertion. Then
/// the daemon's own telemetry must agree with itself.
#[test]
fn a_thousand_pipelined_connections_get_every_answer() {
    const REQUESTS: usize = 5;
    const P99_BOUND: Duration = Duration::from_secs(30);
    let server = Server::start(ServeConfig::default()).expect("bind ephemeral port");
    let addr = server.addr().to_string();
    for connections in [8, 1000] {
        let tally = run_leg(
            &addr,
            &Leg {
                connections,
                requests: REQUESTS,
                pipeline: 8,
                threads: 32,
                sample_cap: 256,
            },
        );
        assert_eq!(
            tally.protocol_errors, 0,
            "{connections} connections: protocol errors"
        );
        assert_eq!(
            tally.ok + tally.server_errors,
            (connections * REQUESTS) as u64,
            "{connections} connections: every request answered"
        );
        let p99 = quantile(&tally.latencies, 0.99);
        assert!(
            p99 <= P99_BOUND,
            "{connections} connections: p99 {p99:?} over {P99_BOUND:?}"
        );
    }

    // Every phase histogram saw every request, their exact-µs sum never
    // exceeds the total, and the trace buffer holds spans.
    let mut probe = Client::connect(&addr).expect("probe connect");
    probe
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let metrics = probe.metrics().expect("metrics");
    let at = |path: &[&str]| {
        path.iter()
            .try_fold(&metrics, |v, k| v.get(k))
            .and_then(Json::as_u64)
            .unwrap_or(0)
    };
    let total_count = at(&["latency_ms", "count"]);
    let mut phase_sum_us = 0;
    for phase in ["queue_wait", "compute", "serialize"] {
        assert_eq!(
            at(&["phases_ms", phase, "count"]),
            total_count,
            "phase {phase} must see every request"
        );
        phase_sum_us += at(&["phases_ms", phase, "total_us"]);
    }
    assert!(phase_sum_us <= at(&["latency_ms", "total_us"]));
    let trace = probe.trace(Some(8)).expect("trace");
    assert!(
        trace
            .get("spans")
            .and_then(Json::as_array)
            .is_some_and(|s| !s.is_empty()),
        "trace buffer empty after a full load run"
    );
    server.shutdown();
}

/// The telemetry-overhead gate: with hierarchy tracing on, the leg's p50
/// stays within 5% (plus 0.25 ms of timer slack) of the untraced p50.
///
/// One leg's p50 swings several-fold between runs on a shared host, so
/// each side's p50 is the median over 200 legs, each on a fresh daemon,
/// alternating which side runs first. The process-global tracer stays on
/// once a traced daemon enables it, so it is turned off and emptied after
/// every traced leg.
#[test]
#[ignore = "timing gate: run in release (`cargo test --release -p sibia-serve --test load -- --ignored`)"]
fn tracing_keeps_the_median_latency_within_bound() {
    const PAIRS: usize = 200;
    const RELATIVE_BOUND: f64 = 1.05;
    const ABSOLUTE_SLACK_MS: f64 = 0.25;
    let mut p50s: [Vec<Duration>; 2] = [Vec::new(), Vec::new()];
    for pair in 0..PAIRS {
        for trace in [pair % 2 == 1, pair % 2 == 0] {
            let server = Server::start(ServeConfig {
                trace,
                queue_capacity: 128,
                pipeline_depth: 64,
                ..ServeConfig::default()
            })
            .expect("bind ephemeral port");
            let tally = run_leg(
                &server.addr().to_string(),
                &Leg {
                    connections: 32,
                    requests: 6,
                    pipeline: 4,
                    threads: 16,
                    sample_cap: 256,
                },
            );
            server.shutdown();
            if trace {
                sibia_obs::tracer().disable();
                sibia_obs::tracer().clear();
            }
            assert_eq!(tally.protocol_errors, 0, "protocol errors (trace {trace})");
            p50s[usize::from(trace)].push(quantile(&tally.latencies, 0.5));
        }
    }
    let [off, on] = p50s.map(|mut legs| {
        legs.sort_unstable();
        quantile(&legs, 0.5).as_secs_f64() * 1e3
    });
    let bound = off * RELATIVE_BOUND + ABSOLUTE_SLACK_MS;
    println!("median leg p50 over {PAIRS} pairs: off {off:.3}ms  on {on:.3}ms  bound {bound:.3}ms");
    assert!(
        on <= bound,
        "traced p50 {on:.3}ms exceeds {bound:.3}ms (untraced {off:.3}ms + 5% + {ABSOLUTE_SLACK_MS}ms)"
    );
}
