//! `sibia-cli` — command-line front-end to the Sibia reproduction.
//!
//! ```text
//! sibia-cli networks                      list benchmark networks
//! sibia-cli encode -25 [--bits 7]         show slice decompositions
//! sibia-cli sparsity <network>            slice-sparsity report
//! sibia-cli simulate <network> [--arch A] run the performance simulator
//! sibia-cli compare <network>             all architectures side by side
//! sibia-cli serve [--port P] [--trace]    NDJSON simulation daemon
//! sibia-cli fleet sweep --endpoints ...   shard a sweep across daemons
//! sibia-cli top --endpoints ...           live fleet telemetry view
//! sibia-cli metrics-export --endpoint ... Prometheus-style stats scrape
//! sibia-cli store <stats|verify|compact>  inspect the persistent store
//! sibia-cli trace-check <path>            validate a --trace-out profile
//! ```
//!
//! `fleet sweep` dispatches a (archs × networks × seeds) grid across the
//! given `sibia-serve` backends with retry/failover and prints the merged
//! canonical document on stdout — byte-identical to `--local`, which runs
//! the same grid in-process (the diff baseline the CI smoke step uses).
//! With `--endpoints` and `--trace-out` together it also pulls each
//! backend's hierarchy spans (the `spans` verb, filtered by the sweep's
//! propagated trace id) and writes one *merged* Chrome trace: coordinator
//! and every backend in their own `pid` lanes, with the coordinator's
//! `fleet.dispatch` spans as cross-process ancestors of the backends'
//! `serve.request` / `sim.*` spans. Backends must run `serve --trace` for
//! their lanes to be populated.
//!
//! `simulate` and `compare` accept `--trace-out <path>`: the run executes
//! with span tracing enabled and writes a Chrome `trace_event` JSONL
//! profile (open it at `ui.perfetto.dev` or `chrome://tracing`).
//!
//! `simulate` and `serve` accept `--store-dir <dir>`: results persist in a
//! crash-safe on-disk store (DESIGN.md §9) and later runs over the same
//! `(network, seed, arch, config)` coordinates are served from disk.
//!
//! Flag parsing is strict: an unknown flag, a flag without its value, or a
//! value that does not parse is an error — exit code is nonzero and the
//! usage text is printed. Nothing silently falls back to a default.

use std::env;
use std::process::ExitCode;
use std::str::FromStr;

use sibia::nn::zoo;
use sibia::prelude::*;
use sibia::sbr::conv::MsbSlices;
use sibia::sbr::stats::SparsityReport;
// One registry for CLI and daemon: the protocol module owns the arch names.
use sibia::serve::protocol::arch_by_name;
use sibia::serve::server::{ServeConfig, Server};
use sibia::store::Store;

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Every occurrence of a repeatable `--flag VALUE` (e.g. `--join`).
fn flag_values(args: &[String], flag: &str) -> Vec<String> {
    args.iter()
        .enumerate()
        .filter(|(_, a)| *a == flag)
        .filter_map(|(i, _)| args.get(i + 1).cloned())
        .collect()
}

/// Typed `--flag VALUE` lookup: absent is `Ok(None)`; a missing or
/// malformed value is an `Err` that the caller turns into a nonzero exit
/// plus the usage text. (The old parser swallowed parse failures with
/// `.ok()` and fell back to the default, so `--seed abc` exited 0 having
/// quietly simulated seed 1.)
fn parse_flag<T: FromStr>(args: &[String], flag: &str) -> Result<Option<T>, String> {
    let Some(i) = args.iter().position(|a| a == flag) else {
        return Ok(None);
    };
    let Some(raw) = args.get(i + 1) else {
        return Err(format!("{flag} needs a value"));
    };
    raw.parse()
        .map(Some)
        .map_err(|_| format!("{flag}: invalid value '{raw}'"))
}

/// Rejects any `--flag` token the command does not define. Unknown flags
/// used to be ignored outright, so a typo like `--sede 7` exited 0.
fn check_flags(args: &[String], allowed: &[&str]) -> Result<(), String> {
    for a in args {
        if a.starts_with("--") && !allowed.contains(&a.as_str()) {
            return Err(format!("unknown flag {a}"));
        }
    }
    Ok(())
}

/// Error exit shared by every bad-input path: message, then usage, then a
/// nonzero code.
fn fail(cmd: &str, msg: &str) -> ExitCode {
    eprintln!("{cmd}: {msg}");
    usage()
}

// Turns span tracing on when `--trace-out PATH` is present and returns the
// path; the run then records sim.network/sim.layer spans as a side effect.
fn trace_out(args: &[String]) -> Option<String> {
    let path = flag_value(args, "--trace-out")?;
    sibia::obs::tracer().enable();
    Some(path)
}

fn write_trace(path: &str) -> ExitCode {
    let tracer = sibia::obs::tracer();
    tracer.disable();
    let spans = tracer.records().len();
    match std::fs::write(path, tracer.export_chrome()) {
        Ok(()) => {
            eprintln!("wrote {spans} spans to {path} (open at ui.perfetto.dev)");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace-out: cannot write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Merged fleet trace export: pulls every backend's hierarchy spans for
/// the just-finished sweep (the `spans` verb, filtered by the propagated
/// trace id) and writes coordinator + backends as one Chrome JSONL
/// profile — one event per line, each process in its own `pid` lane.
fn write_merged_trace(fleet: &sibia::fleet::Fleet, path: &str) -> ExitCode {
    sibia::obs::tracer().disable();
    let Some(trace_id) = fleet.last_trace_id() else {
        eprintln!("trace-out: no sweep ran, nothing to export");
        return ExitCode::FAILURE;
    };
    let merged = fleet.merged_chrome_trace(&trace_id);
    let events = merged
        .get("events")
        .and_then(sibia::obs::Json::as_array)
        .unwrap_or(&[]);
    let mut out = String::new();
    for event in events {
        out.push_str(&event.to_string());
        out.push('\n');
    }
    match std::fs::write(path, out) {
        Ok(()) => {
            eprintln!(
                "wrote merged fleet trace ({} events, trace id {trace_id}) to {path} \
                 (open at ui.perfetto.dev)",
                events.len()
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("trace-out: cannot write {path}: {e}");
            ExitCode::FAILURE
        }
    }
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sibia-cli <command>\n\
         \n\
         commands:\n\
         \x20 networks                           list benchmark networks\n\
         \x20 encode <value> [--bits N]          show slice decompositions of a value\n\
         \x20 sparsity <network>                 slice-sparsity report (seeded synthesis)\n\
         \x20 simulate <network> [--arch A] [--seed S] [--store-dir DIR] [--trace-out PATH]\n\
         \x20                                    run the cycle/energy simulator\n\
         \x20 compare <network> [--seed S] [--trace-out PATH]\n\
         \x20                                    all architectures side by side\n\
         \x20 serve [--host H] [--port P] [--threads N] [--queue Q] [--cache-entries C]\n\
         \x20       [--store-dir DIR] [--peers H:P[,H:P...]] [--trace]\n\
         \x20                                    newline-delimited-JSON simulation daemon\n\
         \x20                                    (Linux only; pipelined requests may be\n\
         \x20                                    answered out of order, matched by id;\n\
         \x20                                    --trace: record hierarchy spans for the\n\
         \x20                                    spans verb / merged fleet traces)\n\
         \x20 fleet sweep (--endpoints H:P[,H:P...] | --local) --networks N[,N...]\n\
         \x20       [--archs A[,A...]] [--seeds S[,S...]] [--sample-cap N] [--timeout-ms T]\n\
         \x20       [--retries R] [--connections C] [--trace-out PATH]\n\
         \x20       [--join MS:H:P]... [--leave MS:H:P]... [--no-steal] [--no-hedge]\n\
         \x20       [--hedge-ms N] [--status-out PATH]\n\
         \x20                                    shard a sweep across serve daemons\n\
         \x20                                    (--endpoints + --trace-out: pull backend\n\
         \x20                                    spans and write one merged fleet trace;\n\
         \x20                                    --join/--leave fire membership events MS\n\
         \x20                                    milliseconds into the sweep; --status-out\n\
         \x20                                    publishes a live roster snapshot for\n\
         \x20                                    `top --fleet-status`)\n\
         \x20 sweep --endpoint H:P --networks N[,N...] [--archs A[,A...]] [--seeds S[,S...]]\n\
         \x20       [--sample-cap N] [--stream]\n\
         \x20                                    one sweep against one daemon\n\
         \x20                                    (--stream: per-cell progress frames on\n\
         \x20                                    stderr; the final document on stdout is\n\
         \x20                                    byte-identical to a non-streamed sweep)\n\
         \x20 top --endpoints H:P[,H:P...] [--interval-ms T] [--iterations N]\n\
         \x20     [--fleet-status PATH]\n\
         \x20                                    live fleet telemetry table (stats verb;\n\
         \x20                                    --fleet-status adds the coordinator's\n\
         \x20                                    member/stolen/hedged columns)\n\
         \x20 metrics-export --endpoint H:P      one Prometheus-style text scrape\n\
         \x20 store <stats|verify|compact> --store-dir DIR\n\
         \x20                                    inspect / check / rewrite the result store\n\
         \x20 trace-check <path> [--network NAME] [--min-pids N] [--chain A,B,C]\n\
         \x20                                    validate a --trace-out (or merged fleet)\n\
         \x20                                    Chrome trace profile\n\
         \n\
         architectures: bitfusion, hnpu, no-sbr, input-skip, sibia, output-skip\n\
         --trace-out writes a Chrome trace_event JSONL profile (Perfetto-loadable)\n\
         --store-dir persists results in a crash-safe store (DESIGN.md \u{a7}9)"
    );
    ExitCode::FAILURE
}

/// `store stats|verify|compact --store-dir DIR`.
///
/// `verify` is read-only: it checksum-scans the log and exits nonzero on
/// the first corrupt record *without* repairing (open-time recovery is what
/// truncates torn tails — `stats` and `compact` open the store and
/// therefore repair as a side effect).
fn store_command(args: &[String]) -> ExitCode {
    let Some(action) = args.get(1) else {
        return fail("store", "need an action: stats | verify | compact");
    };
    if let Err(e) = check_flags(args, &["--store-dir"]) {
        return fail("store", &e);
    }
    let Some(dir) = flag_value(args, "--store-dir") else {
        return fail("store", "need --store-dir DIR");
    };
    let dir = std::path::PathBuf::from(dir);
    match action.as_str() {
        "stats" => match Store::open(&dir) {
            Ok(store) => {
                println!("{}", store.stats().to_json());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("store stats: cannot open {}: {e}", dir.display());
                ExitCode::FAILURE
            }
        },
        "verify" => match Store::verify_dir(&dir) {
            Ok(records) => {
                println!("store verify: ok ({records} records)");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("store verify: {}: {e}", dir.display());
                ExitCode::FAILURE
            }
        },
        "compact" => match Store::open(&dir) {
            Ok(store) => {
                let before = store.stats().log_bytes;
                if let Err(e) = store.compact() {
                    eprintln!("store compact: {e}");
                    return ExitCode::FAILURE;
                }
                let after = store.stats();
                println!(
                    "store compact: {} entries, {before} -> {} bytes",
                    after.entries, after.log_bytes
                );
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("store compact: cannot open {}: {e}", dir.display());
                ExitCode::FAILURE
            }
        },
        other => fail("store", &format!("unknown action '{other}'")),
    }
}

/// The grid flags `fleet sweep` and `sweep` share, checked against the
/// zoo and the arch table before anything is dialed.
struct GridArgs {
    archs: Vec<String>,
    networks: Vec<String>,
    seeds: Vec<u64>,
    sample_cap: Option<usize>,
}

/// Parses `--networks N[,...]` (required), `--archs A[,...]` (default
/// `sibia`), `--seeds S[,...]` (default `1`) and `--sample-cap N`.
fn grid_args(args: &[String]) -> Result<GridArgs, String> {
    let networks_raw = flag_value(args, "--networks").ok_or("need --networks N[,N...]")?;
    let networks: Vec<String> = networks_raw.split(',').map(str::to_owned).collect();
    if let Some(n) = networks.iter().find(|n| zoo::by_name(n).is_none()) {
        return Err(format!("unknown network {n}"));
    }
    let archs: Vec<String> = flag_value(args, "--archs")
        .map(|raw| raw.split(',').map(str::to_owned).collect())
        .unwrap_or_else(|| vec!["sibia".to_owned()]);
    if let Some(a) = archs.iter().find(|a| arch_by_name(a).is_none()) {
        return Err(format!("unknown architecture {a}"));
    }
    let seeds = match flag_value(args, "--seeds") {
        None => vec![1],
        Some(raw) => {
            let parsed: Result<Vec<u64>, _> = raw.split(',').map(str::parse).collect();
            match parsed {
                Ok(s) if !s.is_empty() => s,
                _ => return Err(format!("--seeds: invalid value '{raw}'")),
            }
        }
    };
    let sample_cap = parse_flag::<usize>(args, "--sample-cap")?;
    Ok(GridArgs {
        archs,
        networks,
        seeds,
        sample_cap,
    })
}

/// `fleet sweep (--endpoints H:P[,...] | --local) --networks N[,...] ...`
///
/// Exactly one of `--endpoints` / `--local` must be given: the first
/// shards the grid across live daemons, the second runs the identical
/// grid in-process and prints the identical bytes — so
/// `diff <(… --local …) <(… --endpoints … )` is the determinism check.
fn fleet_command(args: &[String]) -> ExitCode {
    use sibia::fleet::{Fleet, FleetConfig, MembershipAction, PlannedEvent};

    match args.get(1).map(String::as_str) {
        Some("sweep") => {}
        Some(other) => return fail("fleet", &format!("unknown action '{other}'")),
        None => return fail("fleet", "need an action: sweep"),
    }
    if let Err(e) = check_flags(
        args,
        &[
            "--endpoints",
            "--local",
            "--archs",
            "--networks",
            "--seeds",
            "--sample-cap",
            "--timeout-ms",
            "--retries",
            "--connections",
            "--trace-out",
            "--join",
            "--leave",
            "--no-steal",
            "--no-hedge",
            "--hedge-ms",
            "--status-out",
        ],
    ) {
        return fail("fleet", &e);
    }
    let endpoints = flag_value(args, "--endpoints");
    let local = args.iter().any(|a| a == "--local");
    if endpoints.is_some() == local {
        return fail("fleet", "need exactly one of --endpoints or --local");
    }
    let GridArgs {
        archs,
        networks,
        seeds,
        sample_cap,
    } = match grid_args(args) {
        Ok(grid) => grid,
        Err(e) => return fail("fleet", &e),
    };
    let trace_path = trace_out(args);

    if local {
        // The in-process baseline: the same grid through the same engine
        // semantics the daemons use, written by the daemons' result writer.
        let specs: Vec<ArchSpec> = archs.iter().map(|a| arch_by_name(a).unwrap()).collect();
        let nets: Vec<Network> = networks.iter().map(|n| zoo::by_name(n).unwrap()).collect();
        let mut sim = Simulator::new(seeds[0]);
        if let Some(cap) = sample_cap {
            sim.sample_cap = cap.max(1);
        }
        let grid = ParallelEngine::new().run(GridRequest::new(sim, &specs, &nets, &seeds));
        let mut doc = String::new();
        sibia::sim::write_grid(&grid, &mut doc);
        println!("{doc}");
        return match trace_path {
            Some(path) => write_trace(&path),
            None => ExitCode::SUCCESS,
        };
    }

    let endpoint_list: Vec<String> = endpoints
        .expect("checked above")
        .split(',')
        .map(str::to_owned)
        .collect();
    let mut config = FleetConfig::new(endpoint_list);
    match parse_flag::<u64>(args, "--timeout-ms") {
        Ok(Some(ms)) => config.request_timeout = std::time::Duration::from_millis(ms),
        Ok(None) => {}
        Err(e) => return fail("fleet", &e),
    }
    match parse_flag::<u32>(args, "--retries") {
        Ok(Some(r)) => config.max_attempts_per_backend = r.max(1),
        Ok(None) => {}
        Err(e) => return fail("fleet", &e),
    }
    match parse_flag::<usize>(args, "--connections") {
        Ok(Some(c)) => config.connections_per_backend = c.max(1),
        Ok(None) => {}
        Err(e) => return fail("fleet", &e),
    }
    config.steal = !args.iter().any(|a| a == "--no-steal");
    config.hedge.enabled = !args.iter().any(|a| a == "--no-hedge");
    match parse_flag::<u64>(args, "--hedge-ms") {
        // A fixed deadline instead of the windowed-p99 estimate:
        // min_completions 0 switches the monitor to fixed-deadline mode.
        Ok(Some(ms)) => {
            config.hedge.min_deadline = std::time::Duration::from_millis(ms.max(1));
            config.hedge.min_completions = 0;
        }
        Ok(None) => {}
        Err(e) => return fail("fleet", &e),
    }
    config.status_path = flag_value(args, "--status-out").map(std::path::PathBuf::from);
    // `--join MS:H:P` / `--leave MS:H:P`: membership events fired that many
    // milliseconds into the sweep (both repeatable).
    for (flag, build) in [
        ("--join", MembershipAction::Join as fn(String) -> _),
        ("--leave", MembershipAction::Leave as fn(String) -> _),
    ] {
        for raw in flag_values(args, flag) {
            let Some((ms, endpoint)) = raw
                .split_once(':')
                .and_then(|(ms, ep)| Some((ms.parse::<u64>().ok()?, ep)))
                .filter(|(_, ep)| !ep.is_empty())
            else {
                return fail("fleet", &format!("{flag}: need MS:HOST:PORT, got '{raw}'"));
            };
            config.membership_plan.push(PlannedEvent {
                at: std::time::Duration::from_millis(ms),
                action: build(endpoint.to_owned()),
            });
        }
    }
    let fleet = match Fleet::new(config) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("fleet: {e}");
            return ExitCode::FAILURE;
        }
    };
    match fleet.sweep_with_stats(&archs, &networks, &seeds, sample_cap) {
        Ok((json, stats)) => {
            println!("{json}");
            eprintln!(
                "fleet: {} cells over {} backends  attempts {}  retries {}  failovers {}  \
                 steals {}  hedges {} (won {})  joins {}  leaves {}  resharded {}  \
                 per-backend {:?}",
                stats.cells,
                stats.backends,
                stats.attempts,
                stats.retries,
                stats.failovers,
                stats.steals,
                stats.hedges,
                stats.hedge_wins,
                stats.joins,
                stats.leaves,
                stats.resharded_cells,
                stats.per_backend_cells
            );
            match trace_path {
                Some(path) => write_merged_trace(&fleet, &path),
                None => ExitCode::SUCCESS,
            }
        }
        Err(e) => {
            eprintln!("fleet: sweep failed: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `sweep --endpoint H:P --networks N[,...] [--archs A[,...]] [--seeds S[,...]]
///        [--sample-cap N] [--stream]`
///
/// One sweep against one running daemon over the NDJSON protocol — the
/// thin-client counterpart of `fleet sweep` (no sharding, no failover).
/// `--stream` opts into revision-6 progress frames: each completed cell is
/// reported on **stderr** as `progress: done/total arch/network/seed`
/// while the final canonical document still lands on stdout, byte-identical
/// to a non-streamed sweep of the same grid.
fn sweep_command(args: &[String]) -> ExitCode {
    use sibia::serve::Client;

    if let Err(e) = check_flags(
        args,
        &[
            "--endpoint",
            "--networks",
            "--archs",
            "--seeds",
            "--sample-cap",
            "--stream",
        ],
    ) {
        return fail("sweep", &e);
    }
    let Some(endpoint) = flag_value(args, "--endpoint") else {
        return fail("sweep", "need --endpoint H:P");
    };
    let GridArgs {
        archs,
        networks,
        seeds,
        sample_cap,
    } = match grid_args(args) {
        Ok(grid) => grid,
        Err(e) => return fail("sweep", &e),
    };
    let stream = args.iter().any(|a| a == "--stream");

    let mut client = match Client::connect(endpoint.as_str()) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("sweep: cannot connect to {endpoint}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let arch_refs: Vec<&str> = archs.iter().map(String::as_str).collect();
    let net_refs: Vec<&str> = networks.iter().map(String::as_str).collect();
    let mut on_progress = |done: u64, total: u64, cell: &str| {
        eprintln!("progress: {done}/{total} {cell}");
    };
    let progress: Option<sibia::serve::ProgressFn<'_>> =
        if stream { Some(&mut on_progress) } else { None };
    match client.sweep_with(&arch_refs, &net_refs, &seeds, sample_cap, progress) {
        Ok(doc) => {
            println!("{doc}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("sweep: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The coordinator-side columns for one endpoint, read from a
/// `--status-out` snapshot: membership state plus stolen/hedged cell
/// counts. All dashes when no snapshot (or no row for this endpoint) is
/// available — `top` must keep working against a fleet with no sweep
/// running.
fn fleet_status_columns(status: Option<&sibia::obs::Json>, endpoint: &str) -> String {
    let member = status
        .and_then(|s| s.get("members")?.as_array())
        .and_then(|members| {
            members
                .iter()
                .find(|m| m.get("endpoint").and_then(|e| e.as_str()) == Some(endpoint))
        });
    let field = |key: &str| -> String {
        member
            .and_then(|m| m.get(key))
            .and_then(|v| v.as_u64())
            .map_or("-".to_owned(), |v| v.to_string())
    };
    let state = member
        .and_then(|m| m.get("state"))
        .and_then(|s| s.as_str())
        .unwrap_or("-");
    format!("{state:>9} {:>7} {:>7}", field("stolen"), field("hedged"))
}

/// The sweep-progress header line for `top`, from a `--status-out`
/// snapshot's `progress` object: cells done / total plus the most recently
/// completed cell. `None` when no snapshot (or an old-format one) is
/// around, so `top` degrades to the plain per-endpoint table.
fn fleet_progress_line(status: Option<&sibia::obs::Json>) -> Option<String> {
    let status = status?;
    let progress = status.get("progress")?;
    let done = progress.get("done")?.as_u64()?;
    let total = progress.get("total")?.as_u64()?;
    let cell = progress.get("cell").and_then(|c| c.as_str()).unwrap_or("");
    let trace = status
        .get("trace_id")
        .and_then(|t| t.as_str())
        .unwrap_or("-");
    let last = if cell.is_empty() {
        String::new()
    } else {
        format!(", last {cell}")
    };
    Some(format!("sweep {trace}: {done}/{total} cells done{last}"))
}

/// One rendered `top` table row. An unreachable endpoint becomes an error
/// row instead of tearing down the whole view — in a fleet, one dead
/// backend is exactly when you want the others still on screen.
fn top_row(endpoint: &str) -> String {
    use sibia::obs::Json;
    use sibia::serve::Client;

    let stats = Client::with_timeouts(
        endpoint,
        Some(std::time::Duration::from_secs(2)),
        Some(std::time::Duration::from_secs(5)),
        Some(std::time::Duration::from_secs(5)),
    )
    .and_then(|mut c| c.stats());
    let stats = match stats {
        Ok(s) => s,
        Err(e) => return format!("{endpoint:<22} unreachable: {e}"),
    };
    let counter_rate = |name: &str| -> Option<f64> {
        stats
            .get("counters")?
            .get(name)?
            .get("rate_per_s")?
            .as_f64()
    };
    let gauge =
        |name: &str| -> Option<f64> { stats.get("gauges")?.get(name)?.get("value")?.as_f64() };
    let window_q = |key: &str| -> Option<f64> {
        stats
            .get("histograms")?
            .get("serve.latency.total_us")?
            .get("window")?
            .get(key)?
            .as_f64()
    };
    // ok/s across every request kind; absent series mean "no ticks yet".
    let ok_rate: Option<f64> = stats
        .get("counters")
        .and_then(Json::as_object)
        .map(|members| {
            members
                .iter()
                .filter(|(name, _)| name.starts_with("serve.requests.ok."))
                .filter_map(|(_, entry)| entry.get("rate_per_s").and_then(Json::as_f64))
                .sum()
        });
    let queue = match (gauge("serve.queue.depth"), gauge("serve.queue.capacity")) {
        (Some(d), Some(c)) => format!("{d:.0}/{c:.0}"),
        _ => "-".to_owned(),
    };
    let cache = match (gauge("serve.cache.hits"), gauge("serve.cache.misses")) {
        (Some(h), Some(m)) if h + m > 0.0 => format!("{:.1}", h * 100.0 / (h + m)),
        _ => "-".to_owned(),
    };
    let busy = match (
        counter_rate("serve.worker.busy_us"),
        counter_rate("serve.worker.idle_us"),
    ) {
        (Some(b), Some(i)) if b + i > 0.0 => format!("{:.1}", b * 100.0 / (b + i)),
        _ => "-".to_owned(),
    };
    let fmt = |v: Option<f64>| v.map_or("-".to_owned(), |x| format!("{x:.1}"));
    format!(
        "{endpoint:<22} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7} {:>6}",
        fmt(ok_rate),
        fmt(counter_rate("sim.engine.cells")),
        queue,
        fmt(window_q("p50_ms")),
        fmt(window_q("p99_ms")),
        fmt(window_q("p999_ms")),
        cache,
        busy,
    )
}

/// `top --endpoints H:P[,...] [--interval-ms T] [--iterations N]`
///
/// Polls every endpoint's `stats` verb and renders one refreshing
/// in-terminal table: request and simulation rates, queue pressure,
/// windowed latency quantiles, cache hit rate, worker utilisation.
/// `--iterations 0` (the default) runs until interrupted;
/// `--iterations 1` is a plain one-shot scrape for scripts (no screen
/// clearing, so the output is pipe-friendly).
fn top_command(args: &[String]) -> ExitCode {
    if let Err(e) = check_flags(
        args,
        &[
            "--endpoints",
            "--interval-ms",
            "--iterations",
            "--fleet-status",
        ],
    ) {
        return fail("top", &e);
    }
    let Some(raw) = flag_value(args, "--endpoints") else {
        return fail("top", "need --endpoints H:P[,H:P...]");
    };
    let endpoints: Vec<String> = raw.split(',').map(str::to_owned).collect();
    let interval = match parse_flag::<u64>(args, "--interval-ms") {
        Ok(ms) => std::time::Duration::from_millis(ms.unwrap_or(1000).max(100)),
        Err(e) => return fail("top", &e),
    };
    let iterations = match parse_flag::<u64>(args, "--iterations") {
        Ok(n) => n.unwrap_or(0),
        Err(e) => return fail("top", &e),
    };
    let status_path = flag_value(args, "--fleet-status");

    let mut frame = 0u64;
    loop {
        frame += 1;
        // Scrape before clearing so the screen never sits empty while a
        // slow endpoint times out. The status snapshot is re-read every
        // frame: the coordinator rewrites it atomically during a sweep.
        let status: Option<sibia::obs::Json> = status_path
            .as_deref()
            .and_then(|p| std::fs::read_to_string(p).ok())
            .and_then(|raw| sibia::obs::Json::parse(&raw).ok());
        let rows: Vec<String> = endpoints
            .iter()
            .map(|ep| {
                let mut row = top_row(ep);
                if status_path.is_some() {
                    row.push(' ');
                    row.push_str(&fleet_status_columns(status.as_ref(), ep));
                }
                row
            })
            .collect();
        if iterations != 1 {
            print!("\x1b[2J\x1b[H"); // clear screen + home: refresh in place
        }
        println!(
            "sibia top — {} endpoint(s), every {}ms  (ctrl-c to quit)",
            endpoints.len(),
            interval.as_millis()
        );
        if let Some(line) = fleet_progress_line(status.as_ref()) {
            println!("{line}");
        }
        print!(
            "{:<22} {:>9} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7} {:>6}",
            "endpoint", "ok/s", "cells/s", "queue", "p50ms", "p99ms", "p999ms", "cache%", "busy%"
        );
        if status_path.is_some() {
            print!(" {:>9} {:>7} {:>7}", "member", "stolen", "hedged");
        }
        println!();
        for row in &rows {
            println!("{row}");
        }
        use std::io::Write as _;
        let _ = std::io::stdout().flush();
        if iterations != 0 && frame >= iterations {
            return ExitCode::SUCCESS;
        }
        std::thread::sleep(interval);
    }
}

/// `metrics-export --endpoint H:P` — one `stats` scrape rendered as
/// Prometheus-style exposition text on stdout, for cron-driven scrape
/// pipelines that want files instead of an HTTP pull.
fn metrics_export_command(args: &[String]) -> ExitCode {
    use sibia::serve::Client;

    if let Err(e) = check_flags(args, &["--endpoint"]) {
        return fail("metrics-export", &e);
    }
    let Some(endpoint) = flag_value(args, "--endpoint") else {
        return fail("metrics-export", "need --endpoint H:P");
    };
    match Client::with_timeouts(
        endpoint.as_str(),
        Some(std::time::Duration::from_secs(2)),
        Some(std::time::Duration::from_secs(5)),
        Some(std::time::Duration::from_secs(5)),
    )
    .and_then(|mut c| c.stats())
    {
        Ok(stats) => {
            print!("{}", sibia::obs::timeseries::prometheus_from_stats(&stats));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("metrics-export: {endpoint}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `trace-check <path> [--network NAME] [--min-pids N] [--chain A,B,C]`
///
/// Validates a Chrome trace_event JSONL profile — both the
/// single-process `--trace-out` form and the merged fleet form with
/// per-process `pid` lanes and `"ph":"M"` process-metadata events.
///
/// Fatal checks: every line parses and is either an "M" metadata event
/// or a timed "X" span; a parented span nests inside its parent's
/// interval **when both live in the same pid lane** (each process has
/// its own clock epoch, so cross-lane timestamps are not comparable and
/// cross-pid edges only contribute to `--chain`); `--min-pids N`
/// requires that many distinct span lanes; `--chain A,B,C` requires some
/// span named C whose ancestor walk passes through B and then A.
/// Warnings (reported, not fatal): unresolved parent ids and nonzero
/// `dropped_spans` counts — a ring-evicted parent is expected under
/// load, a broken edge is not.
fn trace_check_command(args: &[String]) -> ExitCode {
    use std::collections::{HashMap, HashSet};

    if let Err(e) = check_flags(args, &["--network", "--min-pids", "--chain"]) {
        return fail("trace-check", &e);
    }
    let Some(path) = args.get(1) else {
        return fail("trace-check", "need a trace file path");
    };
    let min_pids = match parse_flag::<usize>(args, "--min-pids") {
        Ok(n) => n,
        Err(e) => return fail("trace-check", &e),
    };
    let chain: Option<Vec<String>> =
        flag_value(args, "--chain").map(|raw| raw.split(',').map(str::to_owned).collect());
    if let Some(c) = &chain {
        if c.len() < 2 || c.iter().any(String::is_empty) {
            return fail(
                "trace-check",
                "--chain needs at least two comma-separated names",
            );
        }
    }
    let data = match std::fs::read_to_string(path) {
        Ok(d) => d,
        Err(e) => {
            eprintln!("trace-check: cannot read {path}: {e}");
            return ExitCode::FAILURE;
        }
    };

    struct Span {
        name: String,
        pid: u64,
        ts: u64,
        dur: u64,
        id: Option<u64>,
        parent: Option<u64>,
    }
    let mut spans: Vec<Span> = Vec::new();
    let mut layer_spans = 0usize;
    let mut dropped_total = 0u64;
    for (lineno, line) in data.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let event = match sibia::obs::Json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                eprintln!("trace-check: {path}:{}: invalid JSON: {e}", lineno + 1);
                return ExitCode::FAILURE;
            }
        };
        let name = event.get("name").and_then(|n| n.as_str());
        match event.get("ph").and_then(|p| p.as_str()) {
            // Process-metadata events announce a pid lane; they carry the
            // lane's dropped_spans count instead of timings.
            Some("M") => {
                dropped_total += event
                    .get("args")
                    .and_then(|a| a.get("dropped_spans"))
                    .and_then(|d| d.as_u64())
                    .unwrap_or(0);
                continue;
            }
            Some("X") => {}
            _ => {
                eprintln!(
                    "trace-check: {path}:{}: not a trace_event (need ph:\"X\" or ph:\"M\")",
                    lineno + 1
                );
                return ExitCode::FAILURE;
            }
        }
        let (Some(name), Some(ts), Some(dur)) = (
            name,
            event.get("ts").and_then(|t| t.as_u64()),
            event.get("dur").and_then(|d| d.as_u64()),
        ) else {
            eprintln!(
                "trace-check: {path}:{}: not a complete trace_event \
                 (need name, ph:\"X\", ts, dur)",
                lineno + 1
            );
            return ExitCode::FAILURE;
        };
        if name == "sim.layer" {
            layer_spans += 1;
        }
        let args_obj = event.get("args");
        spans.push(Span {
            name: name.to_owned(),
            pid: event.get("pid").and_then(|p| p.as_u64()).unwrap_or(0),
            ts,
            dur,
            id: args_obj.and_then(|a| a.get("id")).and_then(|v| v.as_u64()),
            parent: args_obj
                .and_then(|a| a.get("parent"))
                .and_then(|v| v.as_u64()),
        });
    }
    if spans.is_empty() {
        eprintln!("trace-check: {path} contains no spans");
        return ExitCode::FAILURE;
    }

    let by_id: HashMap<u64, usize> = spans
        .iter()
        .enumerate()
        .filter_map(|(i, s)| s.id.map(|id| (id, i)))
        .collect();
    // Nesting: a child must fit inside its parent's interval, with a few
    // µs of slack for independent duration truncation.
    const SLACK_US: i128 = 10;
    let mut unresolved = 0usize;
    for s in &spans {
        let Some(parent_id) = s.parent else { continue };
        let Some(&pi) = by_id.get(&parent_id) else {
            unresolved += 1;
            continue;
        };
        let p = &spans[pi];
        if p.pid != s.pid {
            continue; // cross-process edge: epochs differ, time is incomparable
        }
        let (cs, ce) = (s.ts as i128, (s.ts + s.dur) as i128);
        let (ps, pe) = (p.ts as i128, (p.ts + p.dur) as i128);
        if cs + SLACK_US < ps || ce > pe + SLACK_US {
            eprintln!(
                "trace-check: {path}: span '{}' [{cs}, {ce}]us escapes its \
                 parent '{}' [{ps}, {pe}]us (pid {})",
                s.name, p.name, s.pid
            );
            return ExitCode::FAILURE;
        }
    }

    let pids: HashSet<u64> = spans.iter().map(|s| s.pid).collect();
    if let Some(want) = min_pids {
        if pids.len() < want {
            eprintln!(
                "trace-check: {path} has spans in {} pid lane(s), expected at least {want}",
                pids.len()
            );
            return ExitCode::FAILURE;
        }
    }
    if let Some(chain) = &chain {
        let target = chain.last().expect("validated nonempty");
        let satisfied = spans.iter().filter(|s| &s.name == target).any(|leaf| {
            let mut need = chain.len() - 1; // next required ancestor: chain[need - 1]
            let mut cur = leaf.parent;
            let mut hops = 0usize;
            while need > 0 {
                let Some(pi) = cur.and_then(|id| by_id.get(&id)) else {
                    break;
                };
                hops += 1;
                if hops > spans.len() {
                    break; // malformed cyclic parent links
                }
                let p = &spans[*pi];
                if p.name == chain[need - 1] {
                    need -= 1;
                }
                cur = p.parent;
            }
            need == 0
        });
        if !satisfied {
            eprintln!(
                "trace-check: {path}: no span ancestry chain {} found",
                chain.join(" -> ")
            );
            return ExitCode::FAILURE;
        }
    }
    if let Some(name) = flag_value(args, "--network") {
        let Some(net) = zoo::by_name(&name) else {
            eprintln!("trace-check: unknown network {name}");
            return ExitCode::FAILURE;
        };
        if layer_spans < net.layers().len() {
            eprintln!(
                "trace-check: {path} has {layer_spans} sim.layer spans, \
                 expected at least {} for {name}",
                net.layers().len()
            );
            return ExitCode::FAILURE;
        }
    }
    if unresolved > 0 {
        eprintln!(
            "trace-check: warning: {unresolved} span(s) reference parents \
             absent from the file (ring eviction under load?)"
        );
    }
    if dropped_total > 0 {
        eprintln!(
            "trace-check: warning: {dropped_total} span(s) dropped at capture \
             time (tracer ring full); lanes may be incomplete"
        );
    }
    println!(
        "trace-check: {path} ok ({} spans, {layer_spans} sim.layer, {} pid lane(s))",
        spans.len(),
        pids.len()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    // Resolve the kernel tier up front so a bad `SIBIA_FORCE_KERNEL` is a
    // typed error exit before any command runs, never a silent fallback or
    // a mid-simulation panic.
    if let Err(e) = sibia::sbr::kernels::try_active() {
        eprintln!("sibia-cli: {}: {e}", sibia::sbr::kernels::FORCE_ENV);
        return ExitCode::FAILURE;
    }
    let args: Vec<String> = env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "networks" => {
            if let Err(e) = check_flags(&args, &[]) {
                return fail("networks", &e);
            }
            for name in zoo::NETWORK_NAMES {
                let net = zoo::by_name(name).expect("registered name");
                println!("{name:<14} {net}");
            }
            ExitCode::SUCCESS
        }
        "encode" => {
            if let Err(e) = check_flags(&args, &["--bits"]) {
                return fail("encode", &e);
            }
            let Some(value) = args.get(1).and_then(|v| v.parse::<i32>().ok()) else {
                return fail("encode", "need an integer value");
            };
            let bits = match parse_flag::<u8>(&args, "--bits") {
                Ok(b) => b.unwrap_or(7),
                Err(e) => return fail("encode", &e),
            };
            let p = Precision::new(bits);
            if !p.contains(value) {
                eprintln!("value {value} outside the symmetric {p} range");
                return ExitCode::FAILURE;
            }
            let sbr = SbrSlices::encode(value, p);
            println!("value {value} at {p}:");
            println!(
                "  signed bit-slices (SBR): {sbr}   zero slices: {}",
                sbr.zero_slices()
            );
            println!(
                "  conventional container:  {}",
                ConvSlices::encode(value, p)
            );
            println!("  MSB-aligned radix-8:     {}", MsbSlices::encode(value, p));
            ExitCode::SUCCESS
        }
        "sparsity" => {
            if let Err(e) = check_flags(&args, &[]) {
                return fail("sparsity", &e);
            }
            let Some(net) = args.get(1).and_then(|n| zoo::by_name(n)) else {
                return fail("sparsity", "unknown network (try `sibia-cli networks`)");
            };
            let mut src = SynthSource::new(1);
            println!("{net}\n");
            println!(
                "{:<20} {:>9} {:>9} {:>9}   {:>9} {:>9}",
                "layer (sampled)", "in full", "in conv", "in SBR", "w conv", "w SBR"
            );
            for layer in net.layers().iter().step_by(net.layers().len().div_ceil(12)) {
                let acts = src.activations(layer, 8192);
                let w = src.weights(layer, 8192);
                let ri = SparsityReport::analyze(acts.codes().data(), layer.input_precision());
                let rw = SparsityReport::analyze(w.codes().data(), layer.weight_precision());
                println!(
                    "{:<20} {:>8.1}% {:>8.1}% {:>8.1}%   {:>8.1}% {:>8.1}%",
                    layer.name(),
                    ri.full_bitwidth * 100.0,
                    ri.conventional.overall * 100.0,
                    ri.signed.overall * 100.0,
                    rw.conventional.overall * 100.0,
                    rw.signed.overall * 100.0,
                );
            }
            ExitCode::SUCCESS
        }
        "simulate" => {
            if let Err(e) = check_flags(&args, &["--arch", "--seed", "--store-dir", "--trace-out"])
            {
                return fail("simulate", &e);
            }
            let Some(net) = args.get(1).and_then(|n| zoo::by_name(n)) else {
                return fail("simulate", "unknown network (try `sibia-cli networks`)");
            };
            let arch = match flag_value(&args, "--arch") {
                Some(a) => match arch_by_name(&a) {
                    Some(spec) => spec,
                    None => return fail("simulate", &format!("unknown architecture {a}")),
                },
                None => ArchSpec::sibia_hybrid(),
            };
            let seed = match parse_flag::<u64>(&args, "--seed") {
                Ok(s) => s.unwrap_or(1),
                Err(e) => return fail("simulate", &e),
            };
            let store = match flag_value(&args, "--store-dir") {
                Some(dir) => match Store::open(&dir) {
                    Ok(s) => Some(s),
                    Err(e) => {
                        eprintln!("simulate: cannot open store at {dir}: {e}");
                        return ExitCode::FAILURE;
                    }
                },
                None => None,
            };
            let trace_path = trace_out(&args);
            let grid = ParallelEngine::with_threads(1).run(GridRequest {
                store: store.as_ref(),
                ..GridRequest::cell(&Simulator::new(seed), &arch, &net)
            });
            let r = grid.get(0, 0, 0);
            println!("{r}");
            if let Some(store) = &store {
                let stats = store.stats();
                eprintln!(
                    "store: {} ({} entries, {} bytes)",
                    if stats.hits > 0 { "hit" } else { "miss" },
                    stats.entries,
                    stats.log_bytes
                );
            }
            println!("\nbusiest layers:");
            let mut layers: Vec<_> = r.layers.iter().collect();
            layers.sort_by_key(|l| std::cmp::Reverse(l.cycles));
            for l in layers.iter().take(8) {
                println!(
                    "  {:<22} {:>12} cycles  work {:>5.1}%  {:?}",
                    l.name,
                    l.cycles,
                    l.work_fraction * 100.0,
                    l.skip_side
                );
            }
            match trace_path {
                Some(path) => write_trace(&path),
                None => ExitCode::SUCCESS,
            }
        }
        "compare" => {
            if let Err(e) = check_flags(&args, &["--seed", "--trace-out"]) {
                return fail("compare", &e);
            }
            let Some(net) = args.get(1).and_then(|n| zoo::by_name(n)) else {
                return fail("compare", "unknown network (try `sibia-cli networks`)");
            };
            let seed = match parse_flag::<u64>(&args, "--seed") {
                Ok(s) => s.unwrap_or(1),
                Err(e) => return fail("compare", &e),
            };
            let trace_path = trace_out(&args);
            let archs = [
                ArchSpec::bit_fusion(),
                ArchSpec::hnpu(),
                ArchSpec::sibia_no_sbr(),
                ArchSpec::sibia_input_skip(),
                ArchSpec::sibia_hybrid(),
            ];
            let sim = Simulator::new(seed);
            let grid = ParallelEngine::new().run(GridRequest::new(sim, &archs, &[net], &[seed]));
            let bf = grid.get(0, 0, 0);
            println!(
                "{:<18} {:>10} {:>10} {:>9} {:>9}",
                "architecture", "ms", "GOPS", "TOPS/W", "speedup"
            );
            for cell in grid.cells() {
                let r = &cell.result;
                println!(
                    "{:<18} {:>10.2} {:>10.1} {:>9.2} {:>8.2}x",
                    r.arch,
                    r.time_s() * 1e3,
                    r.throughput_gops(),
                    r.efficiency_tops_w(),
                    r.speedup_over(bf)
                );
            }
            match trace_path {
                Some(path) => write_trace(&path),
                None => ExitCode::SUCCESS,
            }
        }
        "serve" => {
            if let Err(e) = check_flags(
                &args,
                &[
                    "--host",
                    "--port",
                    "--threads",
                    "--queue",
                    "--cache-entries",
                    "--store-dir",
                    "--peers",
                    "--trace",
                ],
            ) {
                return fail("serve", &e);
            }
            let defaults = ServeConfig::default();
            let config = ServeConfig {
                port: match parse_flag::<u16>(&args, "--port") {
                    Ok(p) => p.unwrap_or(7878),
                    Err(e) => return fail("serve", &e),
                },
                host: flag_value(&args, "--host").unwrap_or_else(|| defaults.host.clone()),
                workers: match parse_flag::<usize>(&args, "--threads") {
                    Ok(w) => w.unwrap_or(defaults.workers),
                    Err(e) => return fail("serve", &e),
                },
                queue_capacity: match parse_flag::<usize>(&args, "--queue") {
                    Ok(q) => q.unwrap_or(defaults.queue_capacity),
                    Err(e) => return fail("serve", &e),
                },
                cache_capacity: match parse_flag::<usize>(&args, "--cache-entries") {
                    Ok(c) => c.unwrap_or(defaults.cache_capacity),
                    Err(e) => return fail("serve", &e),
                },
                engine_threads: defaults.engine_threads,
                store_dir: flag_value(&args, "--store-dir").map(std::path::PathBuf::from),
                peers: flag_value(&args, "--peers")
                    .map(|raw| raw.split(',').map(str::to_owned).collect())
                    .unwrap_or_default(),
                trace: args.iter().any(|a| a == "--trace"),
                ..defaults.clone()
            };
            let server = match Server::start(config) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("serve: bind failed: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!("sibia-serve listening on {}", server.addr());
            server.run_until_signalled();
            println!("shutdown complete");
            ExitCode::SUCCESS
        }
        "fleet" => fleet_command(&args),
        "sweep" => sweep_command(&args),
        "top" => top_command(&args),
        "metrics-export" => metrics_export_command(&args),
        "store" => store_command(&args),
        "trace-check" => trace_check_command(&args),
        other => fail("sibia-cli", &format!("unknown command '{other}'")),
    }
}
