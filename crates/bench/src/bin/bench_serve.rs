//! Load generator for the serve daemon.
//!
//! Sweeps connection counts against one daemon, drives a pipelined mixed
//! ping/encode/simulate workload through every connection, and reports
//! throughput plus *exact* client-side latency percentiles (every request
//! is individually timed; no histogram rounding) as one JSON leg per
//! connection count.
//!
//! ```text
//! bench_serve [--addr HOST:PORT]
//!             [--connections N[,N...]] [--requests N] [--pipeline D]
//!             [--sample-cap N] [--threads T] [--out PATH] [--p99-bound-ms MS]
//!             [--telemetry]
//! ```
//!
//! `--telemetry` switches to a paired overhead measurement: the same leg
//! runs twice on fresh in-process daemons — span tracing off, then on —
//! and the run fails if the traced p50 exceeds the baseline by more than
//! 5% (plus a small absolute slack for sub-millisecond timer jitter).
//!
//! Without `--addr` an in-process daemon is started on an ephemeral port (queue sized to the offered load so the bench measures
//! service time, not admission rejections). The driver multiplexes the
//! connections over `--threads` OS threads: each thread owns a shard of
//! connections, pipelines `--pipeline` requests deep on every one
//! ([`Client::send`]/[`Client::recv`] with id correlation), so all
//! connections have requests in flight simultaneously. Typed server errors
//! (e.g. `overloaded`) are counted but tolerated; **protocol** errors —
//! malformed responses, broken framing, id mismatches — fail the run with
//! a non-zero exit, as does a `--p99-bound-ms` breach on any leg.

use std::collections::HashMap;
use std::process::ExitCode;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use sibia_serve::server::{ServeConfig, Server};
use sibia_serve::Json;
use sibia_serve::{Client, ClientError};

struct Args {
    addr: Option<String>,
    connections: Vec<usize>,
    requests: usize,
    pipeline: usize,
    sample_cap: usize,
    threads: usize,
    out: String,
    p99_bound_ms: Option<f64>,
    telemetry: bool,
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let connections = match flag_value(&args, "--connections") {
        None => vec![100, 1000, 5000],
        Some(list) => {
            let mut parsed = Vec::new();
            for part in list.split(',') {
                parsed.push(
                    part.trim()
                        .parse::<usize>()
                        .map_err(|_| format!("--connections: bad count '{part}'"))?,
                );
            }
            parsed
        }
    };
    let numeric = |flag: &str, default: usize| -> Result<usize, String> {
        match flag_value(&args, flag) {
            None => Ok(default),
            Some(v) => v
                .parse::<usize>()
                .map_err(|_| format!("{flag}: invalid value '{v}'")),
        }
    };
    Ok(Args {
        addr: flag_value(&args, "--addr"),
        connections,
        requests: numeric("--requests", 6)?.max(1),
        pipeline: numeric("--pipeline", 8)?.max(1),
        sample_cap: numeric("--sample-cap", 256)?.max(1),
        threads: numeric("--threads", 32)?.max(1),
        out: flag_value(&args, "--out").unwrap_or_else(|| "BENCH_serve.json".to_owned()),
        p99_bound_ms: match flag_value(&args, "--p99-bound-ms") {
            None => None,
            Some(v) => Some(
                v.parse::<f64>()
                    .map_err(|_| format!("--p99-bound-ms: invalid value '{v}'"))?,
            ),
        },
        telemetry: args.iter().any(|a| a == "--telemetry"),
    })
}

/// Per-shard tallies.
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
/// encode and a small simulate mixed into every connection's stream.
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

/// Connects like a real load-generator client: a 5k-connection storm can
/// overflow the daemon's listen backlog, so refused or timed-out connects
/// are retried with backoff before being counted as failures.
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

/// Drives one shard of connections: opens them all, then pipelines
/// `requests` deep (bounded by `pipeline`) on every connection
/// simultaneously, timing each request send-to-receive.
fn drive_shard(
    addr: &str,
    conns: std::ops::Range<usize>,
    requests: usize,
    pipeline: usize,
    sample_cap: usize,
    barrier: &Barrier,
) -> Tally {
    let mut tally = Tally::default();
    struct ConnState {
        client: Client,
        conn: usize,
        next_request: usize,
        sent_at: HashMap<i64, Instant>,
    }
    let mut states: Vec<ConnState> = Vec::new();
    for conn in conns.clone() {
        // One unmeasured ping per connection before the barrier proves the
        // daemon *accepted* it (connect() only proves the kernel completed
        // the handshake, which it happily does from the listen backlog).
        // Because each driver thread pings before its next connect, at most
        // `threads` connections sit unaccepted at any instant — the backlog
        // cannot overflow, at any connection count.
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
    // Everyone connects before anyone sends: the measured window is all
    // connections live and loaded.
    barrier.wait();

    // Round-robin over the shard: top every connection's window up to the
    // pipeline depth, then collect one response per connection with work
    // outstanding, until all requests are answered.
    let mut live = states.len();
    while live > 0 {
        live = 0;
        for state in &mut states {
            while state.next_request < requests && state.client.outstanding() < pipeline {
                let request = request_json(state.conn, state.next_request, sample_cap);
                match state.client.send(request) {
                    Ok(id) => {
                        state.sent_at.insert(id, Instant::now());
                        state.next_request += 1;
                    }
                    Err(_) => {
                        // Connection is gone: every unanswered request on it
                        // counts as a protocol error.
                        tally.protocol_errors +=
                            (requests - state.next_request) as u64 + state.sent_at.len() as u64;
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
                Ok((id, outcome)) => {
                    match state.sent_at.remove(&id) {
                        Some(sent) => match outcome {
                            Ok(_) => {
                                tally.ok += 1;
                                tally.latencies.push(sent.elapsed());
                            }
                            Err(ClientError::Server(_) | ClientError::Overloaded(_)) => {
                                tally.server_errors += 1
                            }
                            Err(_) => tally.protocol_errors += 1,
                        },
                        // recv() already validated the id against its own
                        // outstanding set, so this cannot happen; count it
                        // rather than trust it.
                        None => tally.protocol_errors += 1,
                    }
                }
                Err(_) => {
                    tally.protocol_errors +=
                        (requests - state.next_request) as u64 + state.sent_at.len() as u64;
                    state.next_request = requests;
                    state.sent_at.clear();
                }
            }
        }
    }
    tally
}

/// Exact quantile from a sorted latency list: the rank-`ceil(q*n)` sample.
fn quantile_ms(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e3
}

/// Pulls the server's `metrics` and `trace` views and cross-checks them.
/// Returns the server-side phase summary (for the report) and the number of
/// consistency violations found.
fn check_observability(probe: &mut Client) -> (Json, u64) {
    let _ = probe.set_read_timeout(Some(Duration::from_secs(30)));
    let mut errors = 0u64;
    let metrics = match probe.metrics() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("bench_serve: post-run metrics failed: {e}");
            return (Json::Null, 1);
        }
    };
    let total_count = metrics
        .get("latency_ms")
        .and_then(|l| l.get("count"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let total_us = metrics
        .get("latency_ms")
        .and_then(|l| l.get("total_us"))
        .and_then(Json::as_u64)
        .unwrap_or(0);
    let mut phase_sum_us = 0u64;
    for phase in ["queue_wait", "compute", "serialize"] {
        let h = metrics.get("phases_ms").and_then(|p| p.get(phase));
        let count = h
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
        if count != total_count {
            eprintln!("bench_serve: phase {phase} saw {count} requests, total saw {total_count}");
            errors += 1;
        }
        phase_sum_us += h
            .and_then(|h| h.get("total_us"))
            .and_then(Json::as_u64)
            .unwrap_or(0);
    }
    if phase_sum_us > total_us {
        eprintln!("bench_serve: phase sum {phase_sum_us}µs exceeds total {total_us}µs");
        errors += 1;
    }
    match probe.trace(Some(8)) {
        Ok(trace) => {
            let spans = trace
                .get("spans")
                .and_then(Json::as_array)
                .map_or(0, |s| s.len());
            if spans == 0 {
                eprintln!("bench_serve: trace buffer empty after a full load run");
                errors += 1;
            }
        }
        Err(e) => {
            eprintln!("bench_serve: post-run trace failed: {e}");
            errors += 1;
        }
    }
    println!(
        "  server phases: sum {:.1}ms of {:.1}ms total across {total_count} requests",
        phase_sum_us as f64 / 1e3,
        total_us as f64 / 1e3
    );
    (
        metrics.get("phases_ms").cloned().unwrap_or(Json::Null),
        errors,
    )
}

struct LegResult {
    json: Json,
    protocol_errors: u64,
    p50_ms: f64,
    p99_ms: f64,
}

/// One measured leg: `connections` concurrent pipelined connections against
/// `addr`, multiplexed over the driver thread pool. `label` only tags the
/// progress lines.
fn run_leg(addr: &str, label: &str, connections: usize, args: &Args) -> LegResult {
    let threads = args.threads.min(connections);
    println!(
        "bench_serve: [{label}] {connections} connections x {} requests (pipeline {}, {threads} driver threads)",
        args.requests, args.pipeline
    );
    let barrier = Arc::new(Barrier::new(threads));
    let started = Instant::now();
    let handles: Vec<_> = (0..threads)
        .map(|t| {
            // Spread connections over threads; the first `rem` threads take
            // one extra.
            let per = connections / threads;
            let rem = connections % threads;
            let lo = t * per + t.min(rem);
            let hi = lo + per + usize::from(t < rem);
            let addr = addr.to_owned();
            let barrier = Arc::clone(&barrier);
            let (requests, pipeline, sample_cap) = (args.requests, args.pipeline, args.sample_cap);
            std::thread::spawn(move || {
                drive_shard(&addr, lo..hi, requests, pipeline, sample_cap, &barrier)
            })
        })
        .collect();
    let mut tally = Tally::default();
    for h in handles {
        tally.absorb(h.join().expect("driver thread"));
    }
    let wall_s = started.elapsed().as_secs_f64();
    tally.latencies.sort_unstable();

    let throughput = tally.ok as f64 / wall_s;
    let p50 = quantile_ms(&tally.latencies, 0.5);
    let p99 = quantile_ms(&tally.latencies, 0.99);
    let p999 = quantile_ms(&tally.latencies, 0.999);
    let max = tally
        .latencies
        .last()
        .map_or(0.0, |d| d.as_secs_f64() * 1e3);
    let mean = if tally.latencies.is_empty() {
        0.0
    } else {
        tally
            .latencies
            .iter()
            .map(Duration::as_secs_f64)
            .sum::<f64>()
            / tally.latencies.len() as f64
            * 1e3
    };

    println!(
        "  ok {}  server_errors {}  protocol_errors {}",
        tally.ok, tally.server_errors, tally.protocol_errors
    );
    println!("  wall {wall_s:.2}s  throughput {throughput:.0} req/s");
    println!(
        "  latency ms: mean {mean:.2}  p50 {p50:.2}  p99 {p99:.2}  p999 {p999:.2}  max {max:.2}"
    );

    LegResult {
        json: Json::obj(vec![
            ("connections", Json::from(connections)),
            ("requests_per_connection", Json::from(args.requests)),
            ("pipeline_depth", Json::from(args.pipeline)),
            ("sample_cap", Json::from(args.sample_cap)),
            ("ok", Json::from(tally.ok)),
            ("server_errors", Json::from(tally.server_errors)),
            ("protocol_errors", Json::from(tally.protocol_errors)),
            ("wall_s", Json::from(wall_s)),
            ("throughput_rps", Json::from(throughput)),
            (
                "latency_ms",
                Json::obj(vec![
                    ("mean", Json::from(mean)),
                    ("p50", Json::from(p50)),
                    ("p99", Json::from(p99)),
                    ("p999", Json::from(p999)),
                    ("max", Json::from(max)),
                ]),
            ),
        ]),
        protocol_errors: tally.protocol_errors,
        p50_ms: p50,
        p99_ms: p99,
    }
}

/// `--telemetry`: paired overhead measurement. The same leg runs twice on
/// fresh in-process daemons — hierarchy tracing off, then on, **in that
/// order**: the process-global tracer is sticky once a traced server has
/// enabled it, so the clean baseline must come first. Fails the run when
/// the traced p50 exceeds the untraced p50 by more than 5%, with a small
/// absolute slack so sub-millisecond medians don't fail on timer jitter.
fn telemetry_mode(args: &Args) -> ExitCode {
    const RELATIVE_BOUND: f64 = 1.05;
    const ABSOLUTE_SLACK_MS: f64 = 0.25;
    if args.addr.is_some() {
        eprintln!("bench_serve: --telemetry needs in-process daemons (drop --addr)");
        return ExitCode::FAILURE;
    }
    let connections = args.connections.iter().copied().max().unwrap_or(100);
    let mut legs: Vec<(&str, Json)> = Vec::new();
    let mut p50s: Vec<f64> = Vec::new();
    let mut protocol_errors = 0u64;
    for (label, trace) in [("telemetry-off", false), ("telemetry-on", true)] {
        let server = Server::start(ServeConfig {
            trace,
            queue_capacity: (connections * args.pipeline).max(64),
            pipeline_depth: args.pipeline.max(64),
            ..ServeConfig::default()
        })
        .expect("bind ephemeral port");
        let addr = server.addr().to_string();
        let leg = run_leg(&addr, label, connections, args);
        protocol_errors += leg.protocol_errors;
        p50s.push(leg.p50_ms);
        legs.push((label, leg.json));
        server.shutdown();
        println!("  [{label}] in-process daemon drained");
    }
    let (off, on) = (p50s[0], p50s[1]);
    let bound = off * RELATIVE_BOUND + ABSOLUTE_SLACK_MS;
    println!("bench_serve: telemetry p50 off {off:.3}ms  on {on:.3}ms  (bound {bound:.3}ms)");

    let report = Json::obj(vec![
        ("benchmark", Json::from("serve_telemetry_overhead")),
        ("legs", Json::obj(legs)),
        (
            "overhead",
            Json::obj(vec![
                ("p50_off_ms", Json::from(off)),
                ("p50_on_ms", Json::from(on)),
                ("bound_ms", Json::from(bound)),
            ]),
        ),
    ]);
    std::fs::write(&args.out, format!("{report}\n")).expect("write bench report");
    println!("  wrote {}", args.out);

    if protocol_errors > 0 {
        eprintln!("bench_serve: {protocol_errors} protocol errors");
        return ExitCode::FAILURE;
    }
    if on > bound {
        eprintln!(
            "bench_serve: telemetry-on p50 {on:.3}ms exceeds {bound:.3}ms \
             (off {off:.3}ms + 5% + {ABSOLUTE_SLACK_MS}ms slack)"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("bench_serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    if args.telemetry {
        return telemetry_mode(&args);
    }

    let max_conns = args.connections.iter().copied().max().unwrap_or(100);
    let mut legs: Vec<Json> = Vec::new();
    let mut protocol_errors = 0u64;
    let mut bound_breaches = 0u64;

    // An external daemon, or one in-process daemon for every leg.
    let (server, addr) = match &args.addr {
        Some(addr) => (None, addr.clone()),
        None => {
            let server = Server::start(ServeConfig {
                // Size admission to the offered load so the bench measures
                // service time, not queue rejections.
                queue_capacity: (max_conns * args.pipeline).max(64),
                pipeline_depth: args.pipeline.max(64),
                ..ServeConfig::default()
            })
            .expect("bind ephemeral port");
            let addr = server.addr().to_string();
            (Some(server), addr)
        }
    };

    for &connections in &args.connections {
        let leg = run_leg(&addr, "serve", connections, &args);
        protocol_errors += leg.protocol_errors;
        if let Some(bound) = args.p99_bound_ms {
            if leg.p99_ms > bound {
                eprintln!(
                    "bench_serve: {connections}-connection p99 {:.2}ms exceeds bound {bound}ms",
                    leg.p99_ms
                );
                bound_breaches += 1;
            }
        }
        legs.push(leg.json);
    }
    // Post-run observability check: the phase histograms must be internally
    // consistent (every phase saw every request; their exact-µs sum never
    // exceeds the total), and the trace buffer must hold spans. An
    // inconsistency is a server bug, so it fails the run like a protocol
    // error would.
    let (_phases, consistency_errors) = match Client::connect(&addr) {
        Ok(mut probe) => check_observability(&mut probe),
        Err(e) => {
            eprintln!("bench_serve: post-run probe connect failed: {e}");
            (Json::Null, 1)
        }
    };
    protocol_errors += consistency_errors;
    if let Some(server) = server {
        server.shutdown();
        println!("  in-process daemon drained");
    }

    let report = Json::obj(vec![
        ("benchmark", Json::from("serve_load")),
        ("legs", Json::Array(legs)),
    ]);
    std::fs::write(&args.out, format!("{report}\n")).expect("write bench report");
    println!("  wrote {}", args.out);

    if protocol_errors > 0 {
        eprintln!("bench_serve: {protocol_errors} protocol errors");
        return ExitCode::FAILURE;
    }
    if bound_breaches > 0 {
        eprintln!("bench_serve: {bound_breaches} legs breached the p99 bound");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
