//! Scaling + control-plane benchmark for the fleet coordinator.
//!
//! Four legs, all byte-checked against the same merged document:
//!
//! 1. **Scaling** — the sweep over 1, 2, and 4 in-process daemons
//!    (reported, not gated: on a single-core host the speedup is mostly
//!    cache warmth, which is exactly why the gate below is shaped the way
//!    it is).
//! 2. **Straggler (gated)** — 4 backends, one behind a 500 ms-per-request
//!    [`sibia_fleet::SlowProxy`], one connection per backend. The sweep
//!    runs twice on the same topology: *static* (stealing and hedging
//!    off — the seed coordinator's behaviour) and *dynamic* (control
//!    plane on). The gate is `static_wall / dynamic_wall >= 3` — a pure
//!    scheduling win, immune to cache warmth, that only gets easier to
//!    clear on a loaded machine (the straggler's stall is a sleep, so
//!    static wall grows with load at least as fast as dynamic).
//! 3. **Peer lookup** — a cold daemon with a warm peer must serve the
//!    sweep from `lookup` hits instead of recomputing.
//!
//! ```text
//! bench_fleet [--archs A[,A...]] [--networks N[,N...]] [--seeds N]
//!             [--sample-cap N] [--connections N] [--stall-ms N]
//!             [--min-straggler-speedup X]
//! ```
//!
//! Any failed sweep, byte mismatch, missed gate, or zero peer-lookup hit
//! count fails the run with a non-zero exit code, so the bench doubles as
//! a determinism and control-plane gate. Results land in
//! `BENCH_fleet.json`.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use sibia_fleet::{Fleet, FleetConfig, SlowProxy, SweepStats};
use sibia_serve::server::{ServeConfig, Server};
use sibia_serve::Client;
use sibia_serve::Json;

struct Args {
    archs: Vec<String>,
    networks: Vec<String>,
    seeds: u64,
    sample_cap: usize,
    connections: usize,
    stall_ms: u64,
    min_straggler_speedup: f64,
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn parse_list(raw: Option<String>, default: &[&str]) -> Vec<String> {
    match raw {
        Some(s) => s.split(',').map(str::to_owned).collect(),
        None => default.iter().map(|s| s.to_string()).collect(),
    }
}

fn parse_args() -> Args {
    let args: Vec<String> = std::env::args().skip(1).collect();
    Args {
        archs: parse_list(flag_value(&args, "--archs"), &["sibia", "bitfusion"]),
        networks: parse_list(flag_value(&args, "--networks"), &["dgcnn"]),
        seeds: flag_value(&args, "--seeds")
            .and_then(|v| v.parse().ok())
            .unwrap_or(8),
        sample_cap: flag_value(&args, "--sample-cap")
            .and_then(|v| v.parse().ok())
            .unwrap_or(2048),
        connections: flag_value(&args, "--connections")
            .and_then(|v| v.parse().ok())
            .unwrap_or(4),
        stall_ms: flag_value(&args, "--stall-ms")
            .and_then(|v| v.parse().ok())
            .unwrap_or(500),
        min_straggler_speedup: flag_value(&args, "--min-straggler-speedup")
            .and_then(|v| v.parse().ok())
            .unwrap_or(3.0),
    }
}

/// Exact quantile from a sorted latency list: the rank-`ceil(q*n)` sample.
fn quantile_ms(sorted: &[Duration], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1].as_secs_f64() * 1e3
}

fn sorted_quantiles(stats: &SweepStats) -> (f64, f64) {
    let mut latencies = stats.cell_latencies.clone();
    latencies.sort_unstable();
    (quantile_ms(&latencies, 0.5), quantile_ms(&latencies, 0.99))
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("sibia-bench-fleet-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn main() -> ExitCode {
    let args = parse_args();

    // Four identical daemons; each configuration uses a prefix of them.
    let servers: Vec<Server> = (0..4)
        .map(|_| {
            Server::start(ServeConfig {
                workers: 4,
                engine_threads: 1,
                ..ServeConfig::default()
            })
            .expect("bind ephemeral port")
        })
        .collect();
    let endpoints: Vec<String> = servers.iter().map(|s| s.addr().to_string()).collect();
    let seeds: Vec<u64> = (1..=args.seeds).collect();
    let cells = args.archs.len() * args.networks.len() * seeds.len();

    println!(
        "bench_fleet: {} archs x {} networks x {} seeds = {cells} cells (sample_cap {})",
        args.archs.len(),
        args.networks.len(),
        seeds.len(),
        args.sample_cap
    );

    let mut failed = false;
    let mut baseline: Option<(String, f64)> = None;
    let mut runs: Vec<Json> = Vec::new();
    let sweep = |config: FleetConfig| -> Option<(String, f64, SweepStats)> {
        let fleet = Fleet::new(config).ok()?;
        let started = Instant::now();
        let (json, stats) = fleet
            .sweep_with_stats(&args.archs, &args.networks, &seeds, Some(args.sample_cap))
            .map_err(|e| eprintln!("bench_fleet: sweep failed: {e}"))
            .ok()?;
        Some((json.to_string(), started.elapsed().as_secs_f64(), stats))
    };

    // Leg 1: scaling over backend-count prefixes (reported, not gated).
    for n in [1usize, 2, 4] {
        let mut config = FleetConfig::new(endpoints[..n].to_vec());
        config.connections_per_backend = args.connections;
        let Some((bytes, wall_s, stats)) = sweep(config) else {
            eprintln!("bench_fleet: {n}-backend sweep failed");
            failed = true;
            continue;
        };
        let speedup = match &baseline {
            None => {
                baseline = Some((bytes.clone(), wall_s));
                1.0
            }
            Some((expected, base_wall)) => {
                if *expected != bytes {
                    eprintln!("bench_fleet: {n}-backend merge is NOT byte-identical to 1-backend");
                    failed = true;
                }
                base_wall / wall_s
            }
        };
        let (p50, p99) = sorted_quantiles(&stats);
        println!(
            "  {n} backend(s): wall {wall_s:.2}s  speedup x{speedup:.2}  cell p50 {p50:.1}ms \
             p99 {p99:.1}ms  attempts {}  retries {}  failovers {}  steals {}  hedges {}",
            stats.attempts, stats.retries, stats.failovers, stats.steals, stats.hedges
        );
        runs.push(Json::obj(vec![
            ("backends", Json::from(n)),
            ("wall_s", Json::from(wall_s)),
            ("speedup_vs_1", Json::from(speedup)),
            ("cells_per_s", Json::from(cells as f64 / wall_s)),
            ("cell_p50_ms", Json::from(p50)),
            ("cell_p99_ms", Json::from(p99)),
            ("attempts", Json::from(stats.attempts)),
            ("retries", Json::from(stats.retries)),
            ("failovers", Json::from(stats.failovers)),
            ("steals", Json::from(stats.steals)),
            ("hedges", Json::from(stats.hedges)),
            (
                "per_backend_cells",
                Json::Array(
                    stats
                        .per_backend_cells
                        .iter()
                        .map(|&c| Json::from(c))
                        .collect(),
                ),
            ),
        ]));
    }
    let expected_bytes = baseline
        .as_ref()
        .map(|(b, _)| b.clone())
        .unwrap_or_default();

    // Leg 2 (gated): the straggler pair — same 4-backend topology with
    // backend 0 behind a per-request stall, static schedule vs dynamic.
    let proxy = SlowProxy::start(servers[0].addr()).expect("start straggler proxy");
    proxy.set_delay(Duration::from_millis(args.stall_ms));
    let straggler_endpoints: Vec<String> = std::iter::once(proxy.addr().to_string())
        .chain(endpoints[1..].iter().cloned())
        .collect();
    let straggler_config = |dynamic: bool| {
        let mut config = FleetConfig::new(straggler_endpoints.clone());
        config.connections_per_backend = 1;
        config.steal = dynamic;
        config.hedge.enabled = dynamic;
        config
    };
    let straggler = match (
        sweep(straggler_config(false)),
        sweep(straggler_config(true)),
    ) {
        (Some(st), Some(dy)) => Some((st, dy)),
        _ => {
            eprintln!("bench_fleet: straggler leg failed to sweep");
            failed = true;
            None
        }
    };
    let mut straggler_json = Json::Null;
    if let Some(((static_bytes, static_wall, static_stats), (dyn_bytes, dyn_wall, dyn_stats))) =
        straggler
    {
        for (name, bytes) in [("static", &static_bytes), ("dynamic", &dyn_bytes)] {
            if *bytes != expected_bytes {
                eprintln!("bench_fleet: straggler {name} merge is NOT byte-identical");
                failed = true;
            }
        }
        let dynamic_speedup = static_wall / dyn_wall;
        let gate_ok = dynamic_speedup >= args.min_straggler_speedup;
        println!(
            "  straggler ({} ms stall): static wall {static_wall:.2}s  dynamic wall {dyn_wall:.2}s \
             speedup x{dynamic_speedup:.2} (gate >= x{:.1}: {})  steals {}  hedges {}  \
             hedge_wins {}  hedge_duplicates {}",
            args.stall_ms,
            args.min_straggler_speedup,
            if gate_ok { "PASS" } else { "FAIL" },
            dyn_stats.steals,
            dyn_stats.hedges,
            dyn_stats.hedge_wins,
            dyn_stats.hedge_duplicates,
        );
        if !gate_ok {
            eprintln!(
                "bench_fleet: straggler gate FAILED: dynamic speedup x{dynamic_speedup:.2} < \
                 x{:.1}",
                args.min_straggler_speedup
            );
            failed = true;
        }
        straggler_json = Json::obj(vec![
            ("stall_ms", Json::from(args.stall_ms)),
            ("static_wall_s", Json::from(static_wall)),
            ("dynamic_wall_s", Json::from(dyn_wall)),
            ("dynamic_speedup", Json::from(dynamic_speedup)),
            ("gate_min_speedup", Json::from(args.min_straggler_speedup)),
            ("gate_ok", Json::Bool(gate_ok)),
            ("static_failovers", Json::from(static_stats.failovers)),
            ("steals", Json::from(dyn_stats.steals)),
            ("hedges", Json::from(dyn_stats.hedges)),
            ("hedge_wins", Json::from(dyn_stats.hedge_wins)),
            ("hedge_duplicates", Json::from(dyn_stats.hedge_duplicates)),
            (
                "per_backend_stolen",
                Json::Array(
                    dyn_stats
                        .per_backend_stolen
                        .iter()
                        .map(|&c| Json::from(c))
                        .collect(),
                ),
            ),
        ]);
    }
    proxy.stop();

    // Leg 3: peer lookup — a cold daemon with a warm peer serves the sweep
    // from `lookup` hits instead of recomputing.
    let warm_dir = temp_dir("warm");
    let cold_dir = temp_dir("cold");
    let warm = Server::start(ServeConfig {
        workers: 4,
        engine_threads: 1,
        store_dir: Some(warm_dir.clone()),
        ..ServeConfig::default()
    })
    .expect("bind warm daemon");
    // Populate the warm store with the whole grid.
    let warm_fleet = Fleet::new(FleetConfig::new(vec![warm.addr().to_string()])).expect("fleet");
    if let Err(e) = warm_fleet.sweep(&args.archs, &args.networks, &seeds, Some(args.sample_cap)) {
        eprintln!("bench_fleet: warm-up sweep failed: {e}");
        failed = true;
    }
    let cold = Server::start(ServeConfig {
        workers: 4,
        engine_threads: 1,
        store_dir: Some(cold_dir.clone()),
        peers: vec![warm.addr().to_string()],
        ..ServeConfig::default()
    })
    .expect("bind cold daemon");
    let mut peer_json = Json::Null;
    match sweep(FleetConfig::new(vec![cold.addr().to_string()])) {
        Some((bytes, wall_s, _)) => {
            if bytes != expected_bytes {
                eprintln!("bench_fleet: peer-lookup merge is NOT byte-identical");
                failed = true;
            }
            let peer_hits = Client::connect(cold.addr())
                .ok()
                .and_then(|mut c| c.metrics().ok())
                .and_then(|m| {
                    m.get("registry")?
                        .get("counters")?
                        .get("serve.peer.hits")?
                        .as_u64()
                })
                .unwrap_or(0);
            println!(
                "  peer lookup: wall {wall_s:.2}s  peer hits {peer_hits}/{cells} \
                 (cold daemon answered from its warm peer's store)"
            );
            if peer_hits == 0 {
                eprintln!("bench_fleet: peer lookup produced zero hits");
                failed = true;
            }
            peer_json = Json::obj(vec![
                ("wall_s", Json::from(wall_s)),
                ("lookup_hits", Json::from(peer_hits)),
                ("cells", Json::from(cells)),
            ]);
        }
        None => {
            eprintln!("bench_fleet: peer-lookup sweep failed");
            failed = true;
        }
    }
    warm.shutdown();
    cold.shutdown();
    let _ = std::fs::remove_dir_all(&warm_dir);
    let _ = std::fs::remove_dir_all(&cold_dir);

    let report = Json::obj(vec![
        ("benchmark", Json::from("fleet_scaling")),
        (
            "archs",
            Json::Array(args.archs.iter().map(|a| Json::from(a.as_str())).collect()),
        ),
        (
            "networks",
            Json::Array(
                args.networks
                    .iter()
                    .map(|n| Json::from(n.as_str()))
                    .collect(),
            ),
        ),
        ("seeds", Json::from(seeds.len())),
        ("cells", Json::from(cells)),
        ("sample_cap", Json::from(args.sample_cap)),
        ("connections_per_backend", Json::from(args.connections)),
        ("byte_identical", Json::Bool(!failed)),
        ("runs", Json::Array(runs)),
        ("straggler", straggler_json),
        ("peer_lookup", peer_json),
    ]);
    std::fs::write("BENCH_fleet.json", format!("{report}\n")).expect("write BENCH_fleet.json");
    println!("  wrote BENCH_fleet.json");

    for s in servers {
        s.shutdown();
    }
    if failed {
        eprintln!("bench_fleet: FAILED");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
