//! Determinism of the parallel grid engine.
//!
//! The acceptance bar for `sim::parallel` is not "statistically close": a
//! grid simulated with any worker count must be **byte-identical** to
//! one-cell requests for each of its cells. That holds because (1) each layer's RNG
//! stream is derived from `(seed, layer_index)` rather than draw order, and
//! (2) the cycle model computes every float from cached integer counts with
//! a fixed division order, so neither scheduling nor cache hits can perturb
//! a result. `NetworkResult` contains `f64`s; `assert_eq!` on it therefore
//! checks bit-level float equality. Every grid here is one `GridRequest`.

use sibia_nn::network::{DensityClass, TaskDomain};
use sibia_nn::{Activation, Layer, Network};
use sibia_sim::{ArchSpec, DecompCache, GridCell, GridRequest, ParallelEngine, Simulator};

fn nets() -> Vec<Network> {
    vec![
        Network::new(
            "det-dense",
            TaskDomain::Vision2d,
            DensityClass::Dense,
            vec![
                Layer::conv2d("c1", 16, 24, 3, 1, 1, 12)
                    .with_activation(Activation::ELU_1)
                    .with_input_sparsity(0.15),
                Layer::conv2d("c2", 24, 24, 3, 1, 1, 12)
                    .with_activation(Activation::Gelu)
                    .with_input_sparsity(0.1),
                Layer::linear("fc", 24, 64, 10).with_activation(Activation::Identity),
            ],
        ),
        Network::new(
            "det-sparse",
            TaskDomain::Vision2d,
            DensityClass::Sparse,
            vec![
                Layer::conv2d("c1", 8, 16, 3, 1, 1, 16)
                    .with_activation(Activation::Relu)
                    .with_input_sparsity(0.5),
                Layer::conv2d("c2", 16, 16, 3, 1, 1, 16)
                    .with_activation(Activation::Relu)
                    .with_input_sparsity(0.6),
            ],
        ),
    ]
}

fn archs() -> Vec<ArchSpec> {
    vec![
        ArchSpec::bit_fusion(),
        ArchSpec::hnpu(),
        ArchSpec::sibia_no_sbr(),
        ArchSpec::sibia_hybrid(),
    ]
}

fn small_sim() -> Simulator {
    let mut sim = Simulator::new(0);
    sim.sample_cap = 4096;
    sim
}

#[test]
fn grid_is_bit_identical_to_serial_at_every_thread_count() {
    let sim = small_sim();
    let archs = archs();
    let nets = nets();
    let seeds = [1u64, 2, 42];

    // Serial reference: one-cell requests, no sharing, no pool.
    let mut serial = Vec::new();
    for arch in &archs {
        for net in &nets {
            for &seed in &seeds {
                let mut cell_sim = sim;
                cell_sim.seed = seed;
                serial.push(cell_sim.simulate_network(arch, net));
            }
        }
    }

    for threads in [1usize, 2, 8] {
        let grid =
            ParallelEngine::with_threads(threads).run(GridRequest::new(sim, &archs, &nets, &seeds));
        assert_eq!(grid.cells().len(), serial.len());
        for (cell, reference) in grid.cells().iter().zip(&serial) {
            // Full-struct equality: every cycle count, every f64 energy
            // term, every per-layer result, bit for bit.
            assert_eq!(
                &cell.result, reference,
                "threads={threads} arch={} net={} seed={}",
                cell.arch_index, cell.network_index, cell.seed
            );
        }
    }
}

#[test]
fn shared_cache_does_not_perturb_results() {
    // A one-arch request measures each layer under both representations, so
    // a request for an arch of the other representation over the same cache
    // is all decomposition hits, and neither differs from a fresh cache.
    let sim = small_sim();
    let cache = DecompCache::new();
    let net = &nets()[0];
    let layers = net.layers().len();
    let engine = ParallelEngine::with_threads(1);
    let shared = |arch: &ArchSpec| {
        engine.run(GridRequest {
            cache: Some(&cache),
            ..GridRequest::cell(&sim, arch, net)
        })
    };
    let sbr = ArchSpec::sibia_hybrid();
    assert_eq!(shared(&sbr).get(0, 0, 0), &sim.simulate_network(&sbr, net));
    assert_eq!(
        (cache.tensor_entries(), cache.decomp_entries()),
        (0, 2 * layers),
        "both representations' decompositions and no codes"
    );
    for arch in archs().iter().filter(|a| a.repr != sbr.repr) {
        let misses = cache.misses();
        let result = shared(arch);
        assert_eq!(cache.misses(), misses, "arch={} adds no miss", arch.name);
        assert_eq!(result.get(0, 0, 0), &sim.simulate_network(arch, net));
    }
}

#[test]
fn grid_rows_cache_decompositions_but_no_tensors() {
    // A row synthesizes each layer once, measures the codes under every
    // representation, and drops them: the cache keeps the decompositions
    // only.
    let sim = small_sim();
    let net = &nets()[0];
    let archs = [ArchSpec::hnpu(), ArchSpec::sibia_hybrid()];
    assert_ne!(archs[0].repr, archs[1].repr, "one arch per representation");
    let cache = DecompCache::new();
    ParallelEngine::with_threads(2).run(GridRequest {
        cache: Some(&cache),
        ..GridRequest::new(sim, &archs, std::slice::from_ref(net), &[1])
    });
    assert_eq!(cache.tensor_entries(), 0);
    assert_eq!(cache.decomp_entries(), 2 * net.layers().len());
}

#[test]
fn grid_over_a_prewarmed_cache_equals_the_cold_grid() {
    // A one-cell request leaves both representations' decompositions of its
    // (network, seed) row in the cache and no codes. A grid over that cache
    // recalls that row, synthesizes the rows it misses, and must match a
    // cold grid cell for cell.
    let sim = small_sim();
    let archs = archs();
    let nets = nets();
    let seeds = [1u64, 2];
    let cache = DecompCache::new();
    let mut warm_sim = sim;
    warm_sim.seed = seeds[0];
    let engine = ParallelEngine::with_threads(2);
    engine.run(GridRequest {
        cache: Some(&cache),
        ..GridRequest::cell(&warm_sim, &ArchSpec::sibia_hybrid(), &nets[0])
    });
    let layers = nets[0].layers().len();
    assert_eq!(
        (cache.tensor_entries(), cache.decomp_entries()),
        (0, 2 * layers)
    );
    let warm = engine.run(GridRequest {
        cache: Some(&cache),
        ..GridRequest::new(sim, &archs, &nets, &seeds)
    });
    let cold = engine.run(GridRequest::new(sim, &archs, &nets, &seeds));
    assert_eq!(warm.cells().len(), cold.cells().len());
    for (w, c) in warm.cells().iter().zip(cold.cells()) {
        assert_eq!(
            w, c,
            "arch={} net={} seed={}",
            c.arch_index, c.network_index, c.seed
        );
    }
    assert_eq!(cache.tensor_entries(), 0, "the grid added no tensors");
}

#[test]
fn zero_and_overflow_thread_counts_clamp_and_still_simulate() {
    // Regression: `with_threads(0)` used to panic; it now clamps to one
    // worker, and absurd counts clamp to `MAX_THREADS`, both producing the
    // exact same grid as any other worker count.
    let sim = small_sim();
    let archs = [ArchSpec::sibia_hybrid()];
    let nets = nets();
    let seeds = [9u64];
    let clamped = ParallelEngine::with_threads(0);
    assert_eq!(clamped.threads(), 1);
    assert_eq!(
        ParallelEngine::with_threads(usize::MAX).threads(),
        ParallelEngine::MAX_THREADS
    );
    let from_zero = clamped.run(GridRequest::new(sim, &archs, &nets, &seeds));
    let from_two =
        ParallelEngine::with_threads(2).run(GridRequest::new(sim, &archs, &nets, &seeds));
    assert_eq!(from_zero, from_two);
}

#[test]
fn shared_cache_grid_is_bit_identical_and_reuses_entries() {
    // The serve daemon's usage pattern: many grids against one long-lived,
    // bounded cache. Results must match the fresh-cache engine bit for bit,
    // and the second pass must be answered from the cache.
    let sim = small_sim();
    let archs = archs();
    let nets = nets();
    let seeds = [1u64, 2];
    let cache = DecompCache::with_capacity(256);
    let engine = ParallelEngine::with_threads(4);
    let shared = || {
        engine.run(GridRequest {
            cache: Some(&cache),
            ..GridRequest::new(sim, &archs, &nets, &seeds)
        })
    };
    let first = shared();
    let fresh = engine.run(GridRequest::new(sim, &archs, &nets, &seeds));
    assert_eq!(first, fresh);
    let misses_after_first = cache.misses();
    let second = shared();
    assert_eq!(second, fresh);
    assert_eq!(cache.misses(), misses_after_first, "second grid all hits");
    assert!(cache.hits() > 0);
}

#[test]
fn observed_store_backed_grid_sees_every_cell_and_round_trips() {
    // The serve daemon's streamed sweep: a store plus a per-cell observer.
    // The observer fires once per cell whether the cell simulates (cold)
    // or is read back from the store (warm), and neither changes a byte.
    use std::sync::atomic::{AtomicUsize, Ordering};

    let sim = small_sim();
    let archs = archs();
    let nets = nets();
    let seeds = [3u64];
    let cells = archs.len() * nets.len() * seeds.len();
    let dir = std::env::temp_dir().join(format!("sibia-parallel-observed-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = sibia_store::Store::open(&dir).unwrap();
    let engine = ParallelEngine::with_threads(3);
    let observed_run = || {
        let seen = AtomicUsize::new(0);
        let count = |_: &GridCell| {
            seen.fetch_add(1, Ordering::Relaxed);
        };
        let grid = engine.run(GridRequest {
            store: Some(&store),
            on_cell: Some(&count),
            ..GridRequest::new(sim, &archs, &nets, &seeds)
        });
        assert_eq!(seen.load(Ordering::Relaxed), cells, "one call per cell");
        grid
    };

    let cold = observed_run();
    let stats = store.stats();
    assert_eq!(
        (stats.hits, stats.puts),
        (0, cells as u64),
        "cold run writes back"
    );
    let warm = observed_run();
    assert_eq!(
        store.stats().hits,
        cells as u64,
        "warm run is all store hits"
    );
    assert_eq!(warm, cold);
    assert_eq!(
        cold,
        engine.run(GridRequest::new(sim, &archs, &nets, &seeds))
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn layer_order_does_not_change_layer_tensors() {
    // Per-layer RNG derivation: simulating a single layer in isolation
    // must reproduce the same result the layer gets inside a network walk.
    let sim = small_sim();
    let arch = ArchSpec::sibia_hybrid();
    let net = &nets()[0];
    let whole = sim.simulate_network(&arch, net);
    for (i, layer) in net.layers().iter().enumerate() {
        let cache = DecompCache::new();
        let decomp = sim.decompose_layer(layer, i, arch.repr, &cache);
        let alone = sim.simulate_layer_from(&arch, layer, &decomp, 1.0);
        assert_eq!(alone, whole.layers[i], "layer {i}");
    }
}

#[test]
fn a_one_worker_grid_runs_on_the_calling_thread() {
    // One row needs one worker: the engine runs it inline, so the row's
    // spans nest under the caller's open span (a serve request's, when a
    // fleet dispatches the row) and the worker's accounting still lands
    // under `sim.engine.worker.0`.
    const SEED: u64 = 9_001; // no other test here uses it
    let tracer = sibia_obs::tracer();
    let worker_cells = sibia_obs::registry().counter("sim.engine.worker.0.cells");
    let before = worker_cells.get();
    let archs = archs();
    let net = &nets()[0];
    tracer.enable();
    let caller = tracer.span("test.caller");
    let caller_id = caller.id().expect("an enabled tracer records");
    ParallelEngine::with_threads(4).run(GridRequest::new(
        small_sim(),
        &archs,
        std::slice::from_ref(net),
        &[SEED],
    ));
    drop(caller);
    tracer.disable();

    let seed = SEED.to_string();
    let records = tracer.records();
    let parent_of: std::collections::HashMap<u64, Option<u64>> =
        records.iter().map(|r| (r.id, r.parent)).collect();
    let row_spans: Vec<_> = records
        .iter()
        .filter(|r| r.name == "sim.network" && r.attr("seed") == Some(seed.as_str()))
        .collect();
    assert_eq!(row_spans.len(), archs.len());
    for span in row_spans {
        let mut ancestor = span.parent;
        while ancestor.is_some_and(|id| id != caller_id) {
            ancestor = ancestor.and_then(|id| parent_of.get(&id).copied().flatten());
        }
        assert_eq!(
            ancestor,
            Some(caller_id),
            "sim.network for {:?} must nest under the caller",
            span.attr("arch")
        );
    }
    assert!(worker_cells.get() >= before + archs.len() as u64);
}
