//! Deterministic parallel execution over (architecture × network × seed)
//! grids.
//!
//! Figure sweeps are embarrassingly parallel: every cell of the grid is an
//! independent `Simulator::simulate_network` call. This module fans the
//! cells out over a scoped worker pool built only on `std` (no external
//! thread-pool crate):
//!
//! * jobs are claimed from a shared atomic counter, so workers stay busy
//!   regardless of per-cell cost skew; a grid that needs only one worker
//!   runs it on the calling thread, so a single row (a fleet's unit of
//!   dispatch) spawns no thread and its spans nest under the caller's;
//! * a job is a **(network, seed) row** spanning every architecture, not a
//!   single cell: the worker makes one `Simulator::decompose_network` call
//!   for the distinct slice representations its architectures need. That
//!   call synthesizes each layer once, measures the codes under every one
//!   of those representations and drops them before the next layer, so a
//!   worker holds one layer's codes at a time. The same
//!   `Arc<LayerDecomp>`s then feed every architecture in the row
//!   (`Simulator::simulate_network_from_decomps`);
//! * every worker writes each result into the cell's own slot, so the
//!   output order is the deterministic row-major (arch, network, seed)
//!   order no matter which worker ran which row;
//! * all workers share one [`DecompCache`], but only its decomposition
//!   level: rows that repeat a layer (the Albert GLUE variants share
//!   identical layers) or later grids against a long-lived cache skip
//!   synthesis and measurement for every decomposition they find. Grids
//!   neither read nor fill the cache's tensor level, which serves only the
//!   single-network path.
//!
//! Determinism does not stop at ordering: because each layer's RNG stream
//! is derived from `(seed, layer_index)` (see `sibia_nn::SynthSource::
//! for_layer`) and the cycle model computes from cached integer counts, a
//! grid simulated with 1, 2, or 64 threads — or serially without this
//! module — produces byte-identical [`NetworkResult`]s. The determinism
//! test in `tests/parallel.rs` pins this.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sibia_nn::Network;

use crate::cache::DecompCache;
use crate::perf::{NetworkResult, Simulator};
use crate::spec::{ArchSpec, Repr};

/// One completed grid cell.
#[derive(Debug, Clone, PartialEq)]
pub struct GridCell {
    /// Index into the `archs` slice passed to
    /// [`ParallelEngine::simulate_grid`].
    pub arch_index: usize,
    /// Index into the `networks` slice.
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

    /// Simulates every (arch, network, seed) combination and returns the
    /// cells in row-major order. The worker count affects wall-clock time
    /// only, never the results.
    ///
    /// `sim` provides everything but the seed (sample cap, tech node,
    /// external memory, latency model); each cell runs with its grid seed.
    ///
    /// # Panics
    ///
    /// Panics if `archs`, `networks`, or `seeds` is empty.
    pub fn simulate_grid(
        &self,
        sim: &Simulator,
        archs: &[ArchSpec],
        networks: &[Network],
        seeds: &[u64],
    ) -> GridResult {
        self.simulate_grid_cached(sim, archs, networks, seeds, &DecompCache::new())
    }

    /// [`Self::simulate_grid`] against a caller-owned [`DecompCache`].
    /// Long-lived owners (the serve daemon) pass a shared, bounded cache so
    /// repeated grids over the same layers skip synthesis entirely; results
    /// are bit-identical to a fresh cache.
    ///
    /// # Panics
    ///
    /// Panics if `archs`, `networks`, or `seeds` is empty.
    pub fn simulate_grid_cached(
        &self,
        sim: &Simulator,
        archs: &[ArchSpec],
        networks: &[Network],
        seeds: &[u64],
        cache: &DecompCache,
    ) -> GridResult {
        self.simulate_grid_observed(sim, archs, networks, seeds, cache, None, None)
    }

    /// The fully-general entry point behind [`Self::simulate_grid_cached`]:
    /// optional store read-through plus an optional per-cell observer.
    ///
    /// With a store, a cell whose key is already stored skips simulation
    /// entirely and a missed cell simulates and writes back. Keys are the
    /// same `sim.network` keys single simulations use (see
    /// [`crate::stored::network_key`]), so a sweep warms later single
    /// requests and vice versa.
    ///
    /// The observer is invoked from worker threads the moment each cell's
    /// result lands in its slot (in completion order, not grid order). It
    /// feeds streamed progress frames (`sibia-serve` sweep streaming) and
    /// fleet status.
    ///
    /// Neither changes results: the returned grid is byte-identical to
    /// [`Self::simulate_grid_cached`] with or without them.
    ///
    /// # Panics
    ///
    /// Panics if `archs`, `networks`, or `seeds` is empty.
    #[allow(clippy::too_many_arguments)]
    pub fn simulate_grid_observed(
        &self,
        sim: &Simulator,
        archs: &[ArchSpec],
        networks: &[Network],
        seeds: &[u64],
        cache: &DecompCache,
        store: Option<&sibia_store::Store>,
        on_cell: Option<&(dyn Fn(&GridCell) + Sync)>,
    ) -> GridResult {
        assert!(!archs.is_empty(), "need at least one architecture");
        assert!(!networks.is_empty(), "need at least one network");
        assert!(!seeds.is_empty(), "need at least one seed");
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
            let mut cell_sim = *sim;
            cell_sim.seed = seeds[seed_index];

            // Store fast path: a stored cell skips the row's decomposition
            // work entirely; only the misses are computed below.
            let mut pending: Vec<usize> = Vec::with_capacity(archs.len());
            for (arch_index, arch) in archs.iter().enumerate() {
                let stored =
                    store.and_then(|store| crate::stored::try_stored(&cell_sim, arch, net, store));
                match stored {
                    Some(result) => {
                        // One `sim.cell` span per cell either way; a stored
                        // hit's span covers only the slot write.
                        let mut span = sibia_obs::tracer().span("sim.cell");
                        span.attr("arch", &arch.name);
                        span.attr("network", net.name());
                        span.attr("seed", cell_sim.seed);
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
                    }
                    None => pending.push(arch_index),
                }
            }

            // One decomposition call for the representations the pending
            // architectures need: each layer is synthesized once and measured
            // under all of them.
            let mut reprs: Vec<Repr> = Vec::new();
            for &arch_index in &pending {
                if !reprs.contains(&archs[arch_index].repr) {
                    reprs.push(archs[arch_index].repr);
                }
            }
            let decomps = cell_sim.decompose_network(net, &reprs, cache);

            for &arch_index in &pending {
                let arch = &archs[arch_index];
                let mut span = sibia_obs::tracer().span("sim.cell");
                span.attr("arch", &arch.name);
                span.attr("network", net.name());
                span.attr("seed", cell_sim.seed);
                let repr_index = reprs
                    .iter()
                    .position(|&r| r == arch.repr)
                    .expect("repr decomposed above");
                let row_decomps = &decomps[repr_index];
                let result = cell_sim.simulate_network_from_decomps(arch, net, None, row_decomps);
                if let Some(store) = store {
                    let key = crate::stored::network_key(&cell_sim, arch, net.name());
                    crate::stored::put_best_effort(store, &key, &result);
                }
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
        let grid = ParallelEngine::with_threads(4).simulate_grid(&sim, &archs, &nets, &seeds);
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
