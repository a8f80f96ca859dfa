//! Deterministic parallel execution over (architecture × network × seed)
//! grids: the one way the engine simulates.
//!
//! A [`GridRequest`] is the grid plus the simulator settings, optionally
//! with layer scales, a caller-owned [`DecompCache`], a store and a
//! per-cell observer; [`ParallelEngine::run`] runs it over a scoped worker
//! pool built only on `std`. A single network is a one-cell request.
//!
//! * jobs are claimed from a shared atomic counter, so workers stay busy
//!   regardless of per-cell cost skew; a grid that needs only one worker
//!   runs it on the calling thread, so a single row (a fleet's unit of
//!   dispatch, or a one-cell request) spawns no thread and its spans nest
//!   under the caller's;
//! * a job is a **(network, seed) row** spanning every architecture: the
//!   worker makes one `Simulator::decompose_network` call for the slice
//!   representations its architectures need. A layer the cache misses is
//!   synthesized once, measured under every representation the cache lacks
//!   (needed or not) and its codes dropped before the next layer, so a
//!   worker holds one layer's codes at a time and the engine never touches
//!   the cache's tensor level;
//! * every worker writes each result into the cell's own slot, so the
//!   output order is the deterministic row-major (arch, network, seed)
//!   order no matter which worker ran which row.
//!
//! Because each layer's RNG stream is derived from `(seed, layer_index)`
//! (`sibia_nn::SynthSource::for_layer`) and the cycle model computes from
//! cached integer counts, a grid run on 1, 2, or 64 threads produces
//! byte-identical [`NetworkResult`]s to one-cell requests for each of its
//! cells (`tests/parallel.rs`).

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sibia_nn::Network;
use sibia_store::Store;

use crate::cache::DecompCache;
use crate::perf::{NetworkResult, Simulator};
use crate::spec::{ArchSpec, Repr};

/// One completed grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// Index into the request's `archs`.
    pub arch_index: usize,
    /// Index into the request's `networks`.
    pub network_index: usize,
    /// The seed this cell ran with.
    pub seed: u64,
    /// The simulation result.
    pub result: NetworkResult,
}

/// All cells of a simulated grid, in row-major (arch, network, seed) order.
#[derive(Debug, Clone, PartialEq)]
pub struct GridResult {
    cells: Vec<GridCell>,
    network_count: usize,
    seed_count: usize,
}

impl GridResult {
    /// The cells in row-major (arch, network, seed) order.
    pub fn cells(&self) -> &[GridCell] {
        &self.cells
    }

    /// The result of one cell.
    ///
    /// # Panics
    ///
    /// Panics if an index is out of range.
    pub fn get(
        &self,
        arch_index: usize,
        network_index: usize,
        seed_index: usize,
    ) -> &NetworkResult {
        assert!(network_index < self.network_count && seed_index < self.seed_count);
        let flat = (arch_index * self.network_count + network_index) * self.seed_count + seed_index;
        &self.cells[flat].result
    }

    /// The first cell's result, moved out: a one-cell request's answer
    /// without a copy.
    pub fn into_first(mut self) -> NetworkResult {
        self.cells.swap_remove(0).result
    }
}

/// One simulation request, run by [`ParallelEngine::run`]: every simulation
/// the engine runs is one. The optional parts change what a run costs and
/// what it leaves behind, never a result byte.
#[derive(Clone, Copy)]
pub struct GridRequest<'a> {
    /// Everything but the seed (sample cap, tech node, external memory,
    /// latency model); each cell runs with its grid seed.
    pub sim: Simulator,
    /// The grid's architectures (it is `archs × networks × seeds`).
    pub archs: &'a [ArchSpec],
    /// The grid's networks.
    pub networks: &'a [Network],
    /// The grid's seeds.
    pub seeds: &'a [u64],
    /// Layer workload scales: one slice per network, one scale per layer
    /// (1.0 leaves a layer unchanged). Output skipping shrinks the layers
    /// behind pruned outputs (token pruning). `None` runs every layer
    /// unscaled.
    pub scales: Option<&'a [&'a [f64]]>,
    /// The decomposition cache the rows share, so repeated requests over
    /// the same layers (the serve daemon's) skip synthesis. `None` uses a
    /// fresh cache for this run.
    pub cache: Option<&'a DecompCache>,
    /// Whole-cell read-through and write-back: a cell whose key
    /// ([`crate::stored::network_key`]) is stored skips simulation, and a
    /// computed cell is written back.
    pub store: Option<&'a Store>,
    /// Called from worker threads as each cell lands (in completion order,
    /// not grid order); it feeds a streamed sweep's progress frames.
    pub on_cell: Option<&'a (dyn Fn(&GridCell) + Sync)>,
}

impl<'a> GridRequest<'a> {
    /// The plain grid: unscaled, on a fresh cache, without a store or an
    /// observer.
    pub fn new(
        sim: Simulator,
        archs: &'a [ArchSpec],
        networks: &'a [Network],
        seeds: &'a [u64],
    ) -> Self {
        Self {
            sim,
            archs,
            networks,
            seeds,
            scales: None,
            cache: None,
            store: None,
            on_cell: None,
        }
    }

    /// The one-cell request: `arch` on `net` at `sim`'s seed.
    pub fn cell(sim: &'a Simulator, arch: &'a ArchSpec, net: &'a Network) -> Self {
        Self::new(
            *sim,
            std::slice::from_ref(arch),
            std::slice::from_ref(net),
            std::slice::from_ref(&sim.seed),
        )
    }
}

/// The scoped-thread worker pool.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelEngine {
    threads: usize,
}

impl ParallelEngine {
    /// An engine sized to the machine (`std::thread::available_parallelism`,
    /// falling back to 1).
    pub fn new() -> Self {
        Self::with_threads(
            std::thread::available_parallelism()
                .map(NonZeroUsize::get)
                .unwrap_or(1),
        )
    }

    /// Upper bound on the worker count: grids never profit from more
    /// workers than cells, and an absurd request (`usize::MAX` from a bad
    /// config division) must not try to spawn that many OS threads.
    pub const MAX_THREADS: usize = 1024;

    /// An engine with an explicit worker count, clamped into
    /// `[1, Self::MAX_THREADS]`. Zero (a common result of misconfigured
    /// `available_parallelism` arithmetic) means 1, not a panic or a
    /// spin — the worker count only ever changes wall-clock time, so
    /// clamping is always safe.
    pub fn with_threads(threads: usize) -> Self {
        Self {
            threads: threads.clamp(1, Self::MAX_THREADS),
        }
    }

    /// The worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs a plain grid on a fresh cache.
    ///
    /// Only the benchmark package calls this; it goes once that package
    /// moves to [`Self::run`] (ROADMAP item 10).
    pub fn simulate_grid(
        &self,
        sim: &Simulator,
        archs: &[ArchSpec],
        networks: &[Network],
        seeds: &[u64],
    ) -> GridResult {
        self.run(GridRequest::new(*sim, archs, networks, seeds))
    }

    /// Runs a plain grid against a caller-owned cache.
    ///
    /// Only the benchmark package calls this; it goes once that package
    /// moves to [`Self::run`] (ROADMAP item 10).
    pub fn simulate_grid_cached(
        &self,
        sim: &Simulator,
        archs: &[ArchSpec],
        networks: &[Network],
        seeds: &[u64],
        cache: &DecompCache,
    ) -> GridResult {
        self.run(GridRequest {
            cache: Some(cache),
            ..GridRequest::new(*sim, archs, networks, seeds)
        })
    }

    /// Simulates every cell of `request` and returns them in row-major
    /// (arch, network, seed) order. The worker count affects wall-clock
    /// time only, never the results; so do the request's cache, store and
    /// observer.
    ///
    /// # Panics
    ///
    /// Panics if `archs`, `networks`, or `seeds` is empty; if `scales` does
    /// not hold one slice per network with one scale per layer; and if
    /// `scales` and `store` are both set: the store key holds no scales,
    /// so a scaled result must never be read or written under it.
    pub fn run(&self, request: GridRequest<'_>) -> GridResult {
        let GridRequest {
            sim,
            archs,
            networks,
            seeds,
            scales,
            cache,
            store,
            on_cell,
        } = request;
        assert!(!archs.is_empty(), "need at least one architecture");
        assert!(!networks.is_empty(), "need at least one network");
        assert!(!seeds.is_empty(), "need at least one seed");
        if let Some(scales) = scales {
            assert!(
                store.is_none(),
                "a scaled request cannot use the store: its key holds no scales"
            );
            assert_eq!(scales.len(), networks.len(), "one scale slice per network");
        }
        let fresh = DecompCache::new();
        let cache = cache.unwrap_or(&fresh);
        let cell_count = archs.len() * networks.len() * seeds.len();
        // A job is a (network, seed) row across all architectures, so the
        // row's decompositions are computed once per representation and
        // consumed while still cache-resident.
        let rows = networks.len() * seeds.len();
        let next = AtomicUsize::new(0);
        let slots: Vec<Mutex<Option<GridCell>>> =
            (0..cell_count).map(|_| Mutex::new(None)).collect();

        let slot_of = |arch_index: usize, network_index: usize, seed_index: usize| {
            (arch_index * networks.len() + network_index) * seeds.len() + seed_index
        };
        let run_row = |row: usize| {
            let seed_index = row % seeds.len();
            let network_index = row / seeds.len();
            let net = &networks[network_index];
            let mut cell_sim = sim;
            cell_sim.seed = seeds[seed_index];
            // One `sim.cell` span per cell, store hits included.
            let cell_span = |arch: &ArchSpec| {
                let mut span = sibia_obs::tracer().span("sim.cell");
                span.attr("arch", &arch.name);
                span.attr("network", net.name());
                span.attr("seed", cell_sim.seed);
                span
            };
            let land = |arch_index: usize, result: NetworkResult| {
                let cell = GridCell {
                    arch_index,
                    network_index,
                    seed: cell_sim.seed,
                    result,
                };
                if let Some(observe) = on_cell {
                    observe(&cell);
                }
                *slots[slot_of(arch_index, network_index, seed_index)]
                    .lock()
                    .expect("slot lock") = Some(cell);
            };

            // Store fast path: a stored cell skips the row's decomposition
            // work entirely (its span covers only the slot write); only the
            // misses are computed below.
            let mut pending: Vec<usize> = Vec::with_capacity(archs.len());
            for (arch_index, arch) in archs.iter().enumerate() {
                let stored =
                    store.and_then(|store| crate::stored::try_stored(&cell_sim, arch, net, store));
                match stored {
                    Some(result) => {
                        let _span = cell_span(arch);
                        land(arch_index, result);
                    }
                    None => pending.push(arch_index),
                }
            }

            // One decomposition call for the representations the pending
            // architectures need: each layer is synthesized at most once.
            let mut reprs: Vec<Repr> = Vec::new();
            for &arch_index in &pending {
                if !reprs.contains(&archs[arch_index].repr) {
                    reprs.push(archs[arch_index].repr);
                }
            }
            let decomps = cell_sim.decompose_network(net, &reprs, cache);

            for &arch_index in &pending {
                let arch = &archs[arch_index];
                let _span = cell_span(arch);
                let repr_index = reprs
                    .iter()
                    .position(|&r| r == arch.repr)
                    .expect("repr decomposed above");
                let result = cell_sim.simulate_network_from_decomps(
                    arch,
                    net,
                    scales.map(|s| s[network_index]),
                    &decomps[repr_index],
                );
                if let Some(store) = store {
                    let key = crate::stored::network_key(&cell_sim, arch, net.name());
                    crate::stored::put_best_effort(store, &key, &result);
                }
                land(arch_index, result);
            }
        };

        let workers = self.threads.min(rows);
        let mut grid_span = sibia_obs::tracer().span("sim.grid");
        grid_span.attr("archs", archs.len());
        grid_span.attr("networks", networks.len());
        grid_span.attr("seeds", seeds.len());
        grid_span.attr("cells", cell_count);
        grid_span.attr("threads", workers);

        let run_worker = |worker_index: usize| {
            let started = Instant::now();
            let mut busy = Duration::ZERO;
            let mut cells_run = 0u64;
            loop {
                let row = next.fetch_add(1, Ordering::Relaxed);
                if row >= rows {
                    break;
                }
                let claimed = Instant::now();
                run_row(row);
                busy += claimed.elapsed();
                cells_run += archs.len() as u64;
            }
            // Per-worker accounting in the process-wide registry. There is
            // no work stealing to report — workers claim rows from a
            // shared counter — so busy vs idle time plus the claimed-cell
            // count captures the skew.
            let total = started.elapsed();
            let registry = sibia_obs::registry();
            // Aggregate cells-completed counter: the telemetry sampler
            // turns its deltas into a fleet-comparable cells/s rate
            // without summing per-worker series.
            registry.counter("sim.engine.cells").add(cells_run);
            let prefix = format!("sim.engine.worker.{worker_index}");
            registry.counter(&format!("{prefix}.cells")).add(cells_run);
            registry
                .counter(&format!("{prefix}.busy_us"))
                .add(busy.as_micros() as u64);
            registry
                .counter(&format!("{prefix}.idle_us"))
                .add(total.saturating_sub(busy).as_micros() as u64);
        };
        if workers == 1 {
            // A grid that needs one worker (one row, or a one-thread
            // engine) runs on the calling thread: it spawns nothing, and
            // its spans nest under the caller's open span.
            run_worker(0);
        } else {
            // Parent stacks are per thread: each worker adopts the grid
            // span, or its spans would open with no parent and fall out of
            // the caller's trace.
            let grid_id = grid_span.id();
            std::thread::scope(|scope| {
                for worker_index in 0..workers {
                    let run_worker = &run_worker;
                    scope.spawn(move || {
                        let _parent = sibia_obs::tracer().adopt_parent(grid_id);
                        run_worker(worker_index)
                    });
                }
            });
        }

        let cells = slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .expect("slot lock")
                    .expect("every job completed")
            })
            .collect();
        GridResult {
            cells,
            network_count: networks.len(),
            seed_count: seeds.len(),
        }
    }
}

impl Default for ParallelEngine {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibia_nn::network::{DensityClass, TaskDomain};
    use sibia_nn::{Activation, Layer};

    fn tiny_net(name: &str) -> Network {
        Network::new(
            name,
            TaskDomain::Vision2d,
            DensityClass::Dense,
            vec![Layer::conv2d("c1", 8, 8, 3, 1, 1, 8)
                .with_activation(Activation::Relu)
                .with_input_sparsity(0.4)],
        )
    }

    #[test]
    fn grid_is_complete_and_ordered() {
        let sim = Simulator::new(1);
        let archs = [ArchSpec::bit_fusion(), ArchSpec::sibia_hybrid()];
        let nets = [tiny_net("a"), tiny_net("b")];
        let seeds = [1, 2, 3];
        let grid =
            ParallelEngine::with_threads(4).run(GridRequest::new(sim, &archs, &nets, &seeds));
        assert_eq!(grid.cells().len(), 12);
        for (flat, cell) in grid.cells().iter().enumerate() {
            assert_eq!(cell.arch_index, flat / 6);
            assert_eq!(cell.network_index, (flat / 3) % 2);
            assert_eq!(cell.seed, seeds[flat % 3]);
            assert_eq!(cell.result.arch, archs[cell.arch_index].name);
        }
        assert_eq!(grid.get(1, 0, 2).arch, "Sibia (hybrid)");
    }

    #[test]
    fn extreme_worker_counts_clamp_instead_of_panicking() {
        assert_eq!(ParallelEngine::with_threads(0).threads(), 1);
        assert_eq!(ParallelEngine::with_threads(1).threads(), 1);
        assert_eq!(
            ParallelEngine::with_threads(usize::MAX).threads(),
            ParallelEngine::MAX_THREADS
        );
    }
}
