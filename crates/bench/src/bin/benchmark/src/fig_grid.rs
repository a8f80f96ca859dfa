//! `fig_grid`: the paper's fig10/fig11 sweep (5 architectures × 10
//! networks) through the parallel grid engine, one grid per operation.
//!
//! Synthesis, kernels, plane measurement, the cycle model and grid
//! scheduling do all the work; serve, net, fleet and store do none.

use std::hint::black_box;
use std::time::Instant;

use sibia::obs::tracer;
use sibia::sim::{grid_to_json, DecompCache, GridResult, ParallelEngine, Simulator};

use crate::common::{
    counter, derived_seed, engine_busy, expected_digest, fig_archs, fig_nets, json_digest, ms,
    peak_rss_mb, ratio, Ctx, Run, ARCH_NAMES, GOLDEN_SEED,
};
use crate::layers;

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: u64 = 3;

/// The digest every run checks its golden-seed grid against.
pub const GOLDEN: &str = "grid.seed1";

/// The golden-seed grid's digest, for `--bless`.
pub fn golden_digest() -> String {
    let grid = ParallelEngine::new().simulate_grid(
        &Simulator::new(GOLDEN_SEED),
        &fig_archs(),
        &fig_nets(),
        &[GOLDEN_SEED],
    );
    json_digest(&grid_to_json(&grid))
}

/// Every network's hybrid cell beats its Bit-fusion cell: the paper's
/// minimum claim, cheap enough to check on every grid.
fn hybrid_beats_bitfusion(grid: &GridResult, networks: usize) -> bool {
    let arch = |name| {
        ARCH_NAMES
            .iter()
            .position(|a| *a == name)
            .expect("fig arch")
    };
    let (bitfusion, hybrid) = (arch("bitfusion"), arch("sibia"));
    (0..networks).all(|n| {
        grid.get(hybrid, n, 0)
            .speedup_over(grid.get(bitfusion, n, 0))
            > 1.0
    })
}

pub fn run(ctx: &Ctx, run: &mut Run) {
    run.load_threads = ParallelEngine::new().threads();

    // Set-up: build the grid definition and the engine, then one discarded
    // cold grid (code paging, allocator arenas).
    let mut setups = Vec::new();
    let mut rss = 0.0;
    for rep in 0..SETUP_REPS {
        let started = Instant::now();
        let (archs, nets) = (fig_archs(), fig_nets());
        let engine = ParallelEngine::new();
        let seed = derived_seed(ctx.seed, 1_000 + rep);
        black_box(engine.simulate_grid(&Simulator::new(seed), &archs, &nets, &[seed]));
        setups.push(started.elapsed().as_secs_f64());
        if rep == 0 {
            // Resident memory of one grid in a fresh process: a fixed
            // amount of work, however many grids the window holds.
            rss = peak_rss_mb().unwrap_or(0.0);
        }
    }
    run.read("setup_s", crate::stats::median(&setups), "s");

    let (archs, nets) = (fig_archs(), fig_nets());
    let engine = ParallelEngine::new();
    let sim = Simulator::new(GOLDEN_SEED);
    let cells_before = counter("sim.engine.cells");
    let mut busy_us = 0u64;
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut golden = None;
    let mut last = None;
    let deadline = ctx.deadline();
    let mut i = 0u64;
    while i == 0 || Instant::now() < deadline {
        // Grid 0 is the golden seed, the rest fresh seeds from `--seed`.
        let seed = if i == 0 {
            GOLDEN_SEED
        } else {
            derived_seed(ctx.seed, i)
        };
        let busy_before = engine_busy();
        let started = Instant::now();
        let cache = DecompCache::new();
        let grid = engine.simulate_grid_cached(&sim, &archs, &nets, &[seed], &cache);
        walls.push(ms(started.elapsed()));
        busy_us += engine_busy() - busy_before;
        hits += cache.hits();
        misses += cache.misses();
        if ctx.trace {
            // The same grid again with the tracer on: the tracing overhead.
            tracer().enable();
            let started = Instant::now();
            black_box(engine.simulate_grid(&sim, &archs, &nets, &[seed]));
            traced_walls.push(ms(started.elapsed()));
            tracer().disable();
            tracer().clear();
        }
        // Grid 0 is checked against its digest below; the others by shape.
        if i == 0 {
            golden = Some(grid);
        } else {
            let shaped = grid.cells().len() == archs.len() * nets.len()
                && hybrid_beats_bitfusion(&grid, nets.len());
            run.op(shaped);
            if !shaped {
                run.check(&format!("grid{i}.shape"), false, format!("seed {seed}"));
            }
            last = Some((seed, grid));
        }
        i += 1;
    }
    let grids = i;
    let window_ms: f64 = walls.iter().sum();
    if !ctx.trace {
        run.read("peak_rss_mb", rss, "MB");
        run.latencies("op", &walls);
        run.read("ops_per_s", grids as f64 / (window_ms / 1e3), "1/s");
    }

    // Telemetry against ground truth: the engine counted every cell.
    let cells_per_grid = (archs.len() * nets.len()) as u64;
    let cells = counter("sim.engine.cells") - cells_before;
    let expected_cells = grids * (1 + u64::from(ctx.trace)) * cells_per_grid;
    run.check(
        "telemetry.sim.engine.cells",
        cells == expected_cells,
        format!("registry {cells}, computed {expected_cells}"),
    );
    // Busy share of the engine's thread time over the untraced grids: a
    // worker idles once the rows run out while another finishes its last.
    let thread_ms = window_ms * engine.threads().min(nets.len()) as f64;
    run.read(
        "sim.parallel.busy_ratio",
        ratio(busy_us as f64 / 1e3, thread_ms),
        "ratio",
    );
    run.read(
        "sim.cache.hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
        "ratio",
    );
    run.read(
        "grid.cells_per_s",
        (grids * cells_per_grid) as f64 / (window_ms / 1e3),
        "1/s",
    );

    // Output checks, outside the timed window.
    let golden = golden.expect("the window runs grid 0");
    let digest = json_digest(&grid_to_json(&golden));
    let want = expected_digest(GOLDEN);
    let ok = want.as_deref() == Some(digest.as_str());
    run.op(ok);
    run.check(
        "grid0.golden_digest",
        ok,
        format!("seed {GOLDEN_SEED}: got {digest}, expected {want:?}"),
    );
    if let Some((seed, grid)) = last {
        let again = engine.simulate_grid(&sim, &archs, &nets, &[seed]);
        run.check(
            "grid.last.deterministic",
            grid == again,
            format!("seed {seed} recomputed"),
        );
    }

    if ctx.trace {
        run.read(
            "obs.trace_overhead_pct",
            100.0 * (crate::stats::median(&traced_walls) / crate::stats::median(&walls) - 1.0),
            "%",
        );
        let seeds = [GOLDEN_SEED, derived_seed(ctx.seed, 1)];
        let rows: Vec<_> = seeds
            .iter()
            .flat_map(|&s| nets.iter().map(move |n| (n, s)))
            .collect();
        let spans = layers::walk(run, &archs, &rows);
        crate::write_trace(ctx, &spans);
    }
}
