//! End-to-end engine benchmark: the fig. 10 dense sweep run twice —
//! once as a serial, uncached per-cell walk on the scalar reference
//! kernels (the pre-optimization engine shape: no SIMD, no sharing) and
//! once as a single grid on the parallel worker pool with runtime-
//! dispatched kernels, row-batched decomposition, and a shared
//! decomposition cache. Asserts both produce identical results, then
//! writes the wall-clock comparison — including which kernel tier each
//! leg ran and the cache hit rate — to `BENCH_sim.json`.
//!
//! Methodology: one discarded warmup pass faults in code pages and
//! allocator arenas, then each engine is timed `RUNS` times and the best
//! time is reported (shared machines make single-shot timings noisy).

use std::time::Instant;

use sibia::prelude::*;
use sibia::sbr::kernels::{self, KernelTier};

const RUNS: usize = 2;

fn main() {
    let archs = [
        ArchSpec::bit_fusion(),
        ArchSpec::hnpu(),
        ArchSpec::sibia_no_sbr(),
        ArchSpec::sibia_input_skip(),
        ArchSpec::sibia_hybrid(),
    ];
    let nets = zoo::dense_benchmarks();
    let sim = Simulator::new(1);
    let cells = archs.len() * nets.len();
    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let tier = kernels::active().tier.name();

    println!(
        "bench_sim: fig10 dense sweep, {cells} cells, {threads} threads, \
         kernel tier {tier}, best of {RUNS}"
    );

    // Warmup (discarded).
    let _ = ParallelEngine::new().simulate_grid(&sim, &archs, &nets, &[1]);

    // Serial reference: one cell at a time, no shared cache, scalar
    // kernels — every cell re-synthesizes and re-decomposes its layers
    // exactly as the engine did before SWAR/SIMD kernels and the batched
    // grid existed. The thread override is scoped to this leg.
    kernels::set_thread_override(Some(KernelTier::Scalar)).expect("scalar is always supported");
    let mut serial = Vec::new();
    let mut serial_ms = f64::INFINITY;
    for run in 0..RUNS {
        let t = Instant::now();
        let mut out = Vec::with_capacity(cells);
        for arch in &archs {
            for net in &nets {
                out.push(sim.simulate_network(arch, net));
            }
        }
        let ms = t.elapsed().as_secs_f64() * 1e3;
        println!("  serial scalar uncached (run {run}): {ms:.1} ms");
        serial_ms = serial_ms.min(ms);
        serial = out;
    }
    kernels::set_thread_override(None).expect("clearing the override never fails");

    // Optimized engine: one grid over the worker pool, dispatched kernels,
    // caller-owned cache so the hit rate can be reported.
    let mut grid_ms = f64::INFINITY;
    let mut grid = None;
    let mut cache_stats = (0u64, 0u64);
    for run in 0..RUNS {
        let cache = DecompCache::new();
        let t = Instant::now();
        let g = ParallelEngine::new().simulate_grid_cached(&sim, &archs, &nets, &[1], &cache);
        let ms = t.elapsed().as_secs_f64() * 1e3;
        println!("  parallel grid ({tier})   (run {run}): {ms:.1} ms");
        grid_ms = grid_ms.min(ms);
        grid = Some(g);
        // Deterministic across runs: same grid, same fresh cache.
        cache_stats = (cache.hits(), cache.misses());
    }
    let grid = grid.expect("RUNS >= 1");
    let (hits, misses) = cache_stats;
    let hit_rate = if hits + misses > 0 {
        hits as f64 / (hits + misses) as f64
    } else {
        0.0
    };

    // The optimization must not change a single bit of any result.
    let mut it = serial.iter();
    for (ai, _) in archs.iter().enumerate() {
        for (ni, _) in nets.iter().enumerate() {
            assert_eq!(grid.get(ai, ni, 0), it.next().unwrap(), "cell ({ai},{ni})");
        }
    }
    println!("  results identical across engines");

    let speedup = serial_ms / grid_ms;
    println!("  speedup: {speedup:.2}x");

    let json = format!(
        "{{\n  \"benchmark\": \"fig10_dense_sweep\",\n  \"cells\": {cells},\n  \
         \"threads\": {threads},\n  \"serial_kernel_tier\": \"scalar\",\n  \
         \"kernel_tier\": \"{tier}\",\n  \"serial_ms\": {serial_ms:.1},\n  \
         \"grid_ms\": {grid_ms:.1},\n  \"speedup\": {speedup:.2},\n  \
         \"decomp_cache_hits\": {hits},\n  \"decomp_cache_misses\": {misses},\n  \
         \"decomp_cache_hit_rate\": {hit_rate:.3}\n}}\n"
    );
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    println!("  wrote BENCH_sim.json");
}
