//! `fleet_store`: ROADMAP's fleet sweep. [`BACKENDS`] in-process daemons
//! (one worker and one engine thread each, a persistent store each, the
//! rest default) behind a `Fleet` with one connection per backend.
//!
//! One operation is a round: the fig10/fig11 grid at a fresh seed swept
//! cold (every cell simulated and written to a store), then the same grid
//! swept warm (every cell read back from a store). It exercises the store
//! both ways plus dispatch and merge over TCP.

use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

use sibia::fleet::{Fleet, FleetConfig, SweepStats};
use sibia::obs::Json;
use sibia::serve::{ServeConfig, Server};

use crate::common::{
    counter, derived_seed, expected_digest, fig_archs, fig_nets, json_digest, ms, peak_rss_mb,
    ratio, Ctx, Run, ARCH_NAMES, GOLDEN_SEED, NET_NAMES,
};
use crate::daemon::DaemonStats;
use crate::fig_grid::GOLDEN;
use crate::layers;

pub const BACKENDS: usize = 2;
/// Set-up repetitions (fresh stores, daemons, fleet and a one-cell
/// warm-up sweep); `setup_s` is their median.
const SETUP_REPS: usize = 5;

/// Starts the backends on fresh stores under `dir` and the fleet over them,
/// and sweeps one cell at `seed` so connections are dialed and each store
/// has been written.
fn start(dir: &Path, seed: u64) -> Result<(Vec<Server>, Fleet), String> {
    let mut servers = Vec::new();
    for b in 0..BACKENDS {
        let config = ServeConfig {
            workers: 1,
            engine_threads: 1,
            store_dir: Some(dir.join(format!("store{b}"))),
            ..ServeConfig::default()
        };
        match Server::start(config) {
            Ok(server) => servers.push(server),
            Err(e) => {
                servers.into_iter().for_each(Server::shutdown);
                return Err(format!("backend {b}: {e}"));
            }
        }
    }
    let mut config = FleetConfig::new(servers.iter().map(|s| s.addr().to_string()).collect());
    config.connections_per_backend = 1;
    let ready = Fleet::new(config)
        .map_err(|e| format!("fleet: {e}"))
        .and_then(|fleet| {
            let cell = |name: &str| vec![name.to_owned()];
            fleet
                .sweep(&cell("sibia"), &cell("dgcnn"), &[seed], None)
                .map_err(|e| format!("warm-up sweep: {e}"))?;
            Ok(fleet)
        });
    match ready {
        Ok(fleet) => Ok((servers, fleet)),
        Err(e) => {
            servers.into_iter().for_each(Server::shutdown);
            Err(e)
        }
    }
}

/// One timed sweep and the daemons' counter deltas over it.
struct Sweep {
    wall: Duration,
    doc: Json,
    stats: SweepStats,
    daemons: DaemonStats,
}

fn sweep(fleet: &Fleet, addrs: &[SocketAddr], seed: u64) -> Result<Sweep, String> {
    let archs: Vec<String> = ARCH_NAMES.iter().map(|s| s.to_string()).collect();
    let nets: Vec<String> = NET_NAMES.iter().map(|s| s.to_string()).collect();
    let before = DaemonStats::read_all(addrs)?;
    let started = Instant::now();
    let (doc, stats) = fleet
        .sweep_with_stats(&archs, &nets, &[seed], None)
        .map_err(|e| format!("sweep at seed {seed}: {e}"))?;
    let wall = started.elapsed();
    Ok(Sweep {
        wall,
        doc,
        stats,
        daemons: DaemonStats::read_all(addrs)?.since(&before),
    })
}

pub fn run(ctx: &Ctx, run: &mut Run) -> Result<(), String> {
    run.load_threads = BACKENDS;
    let mut setups = Vec::new();
    let mut started: Option<(Vec<Server>, Fleet)> = None;
    for rep in 0..SETUP_REPS {
        if let Some((servers, _fleet)) = started.take() {
            servers.into_iter().for_each(Server::shutdown);
        }
        let t = Instant::now();
        let dir = ctx.work.path().join(format!("rep{rep}"));
        started = Some(start(&dir, derived_seed(ctx.seed, 1_000 + rep as u64))?);
        setups.push(t.elapsed().as_secs_f64());
    }
    run.read("setup_s", crate::stats::median(&setups), "s");
    let (servers, fleet) = started.expect("at least one set-up");
    let addrs: Vec<SocketAddr> = servers.iter().map(Server::addr).collect();

    let (mut rounds, mut cold_ms, mut warm_ms) = (Vec::new(), Vec::new(), Vec::new());
    let (mut cells, mut attempts, mut steals, mut hedges) = (0usize, 0u64, 0u64, 0u64);
    let (mut cold, mut warm) = (DaemonStats::default(), DaemonStats::default());
    let mut cell_ms = 0.0;
    let mut rss = 0.0;
    let mut outcome = Ok(());
    let first = DaemonStats::read_all(&addrs)?;
    let cells_before = counter("sim.engine.cells");
    let deadline = ctx.deadline();
    while rounds.is_empty() || Instant::now() < deadline {
        let r = rounds.len() as u64;
        // Round 0 sweeps the golden seed, the rest fresh seeds from `--seed`.
        let seed = if r == 0 {
            GOLDEN_SEED
        } else {
            derived_seed(ctx.seed, r)
        };
        let (c, w) =
            match sweep(&fleet, &addrs, seed).and_then(|c| Ok((c, sweep(&fleet, &addrs, seed)?))) {
                Ok(pair) => pair,
                Err(e) => {
                    run.op(false);
                    outcome = Err(e);
                    break;
                }
            };
        rounds.push(ms(c.wall + w.wall));
        cold_ms.push(ms(c.wall));
        warm_ms.push(ms(w.wall));
        for s in [&c, &w] {
            cells += s.stats.cells;
            attempts += s.stats.attempts;
            steals += s.stats.steals;
            hedges += s.stats.hedges;
            cell_ms += s.stats.cell_latencies.iter().map(|d| ms(*d)).sum::<f64>();
        }
        if r == 0 {
            // Resident memory after set-up and one round: a fixed amount of
            // work, however many rounds the window holds.
            rss = peak_rss_mb().unwrap_or(0.0);
        }
        cold = cold.plus(&c.daemons);
        warm = warm.plus(&w.daemons);

        // Output checks: the warm document is its cold twin, and round 0
        // matches the committed golden-seed grid.
        let twin = c.doc.to_string() == w.doc.to_string();
        run.op(twin);
        if !twin {
            run.check(
                &format!("round{r}.warm_equals_cold"),
                false,
                format!("seed {seed}"),
            );
        }
        if r == 0 {
            let digest = json_digest(&c.doc);
            let want = expected_digest(GOLDEN);
            run.check(
                "round0.golden_digest",
                want.as_deref() == Some(digest.as_str()),
                format!("seed {seed}: got {digest}, expected {want:?}"),
            );
        }
        let per_round = c.stats.cells as u64;
        run.check(
            &format!("round{r}.store.puts"),
            c.daemons.store_puts >= per_round,
            format!(
                "cold sweep stored {} of {per_round} cells",
                c.daemons.store_puts
            ),
        );
    }
    // A hedged duplicate may still be finishing on its backend.
    std::thread::sleep(Duration::from_millis(100));
    let total = DaemonStats::read_all(&addrs).map(|last| last.since(&first));
    let simulated = counter("sim.engine.cells") - cells_before;
    servers.into_iter().for_each(Server::shutdown);
    outcome?;
    let total = total?;

    // Telemetry against ground truth: every dispatch attempt reached a
    // backend once, which counted one cell and probed its store once.
    let probes = total.store_hits + total.store_misses;
    run.check(
        "telemetry.sim.engine.cells",
        simulated == attempts,
        format!("backends counted {simulated} cells, fleet made {attempts} attempts"),
    );
    run.check(
        "telemetry.store.probes",
        probes == attempts,
        format!("stores probed {probes} times, fleet made {attempts} attempts"),
    );

    if !ctx.trace {
        run.read("peak_rss_mb", rss, "MB");
        run.latencies("op", &rounds);
        run.read(
            "ops_per_s",
            rounds.len() as f64 / (rounds.iter().sum::<f64>() / 1e3),
            "1/s",
        );
    }
    run.latencies("fleet.cold", &cold_ms);
    run.latencies("fleet.warm", &warm_ms);

    let sweeps = 2 * rounds.len();
    run.check(
        "telemetry.fleet.attempts_per_cell",
        attempts >= cells as u64,
        format!("{attempts} attempts for {cells} cells"),
    );
    run.read(
        "fleet.attempts_per_cell",
        ratio(attempts as f64, cells as f64),
        "ratio",
    );
    run.read(
        "fleet.steals_per_sweep",
        ratio(steals as f64, sweeps as f64),
        "count",
    );
    run.read(
        "fleet.hedges_per_sweep",
        ratio(hedges as f64, sweeps as f64),
        "count",
    );
    let warm_cells = (cells / 2) as f64;
    run.read(
        "store.warm_hit_rate",
        ratio(warm.store_hits as f64, warm_cells),
        "ratio",
    );
    run.read(
        "store.log_bytes_per_put",
        ratio(cold.store_bytes as f64, cold.store_puts as f64),
        "bytes",
    );
    cold.plus(&warm).record(run, cell_ms);

    if ctx.trace {
        let nets = fig_nets();
        let rows: Vec<_> = nets.iter().map(|n| (n, GOLDEN_SEED)).collect();
        let spans = layers::walk(run, &fig_archs(), &rows);
        crate::write_trace(ctx, &spans);
    }
    Ok(())
}
