//! # Sibia — signed bit-slice DNN accelerator (HPCA 2023) reproduction
//!
//! This crate is the public facade of a from-scratch reproduction of
//! *"Sibia: Signed Bit-slice Architecture for Dense DNN Acceleration with
//! Slice-level Sparsity Exploitation"* (Im et al., HPCA 2023).
//!
//! The paper's idea in one paragraph: decompose 2's-complement fixed-point
//! data into **signed 4-bit slices** (three magnitude bits plus the global
//! sign, with a borrow of 1 from the next-lower slice for negatives).
//! Near-zero values of *either* sign then have all-zero high-order slices —
//! so dense DNNs (GeLU/ELU/Leaky-ReLU activations, Gaussian weights) expose
//! massive slice-level sparsity without pruning — and the slice digits are
//! balanced in `[-7, 7]`, making low-bit output speculation accurate and
//! the MAC datapath a uniform signed 4b×4b unit.
//!
//! ## Quickstart
//!
//! ```
//! use sibia::prelude::*;
//!
//! // 1. The representation: -3 has a zero high slice under the SBR.
//! let s = SbrSlices::encode(-3, Precision::BITS7);
//! assert_eq!(s.digits(), &[-3, 0]);
//!
//! // 2. The accelerator: run a benchmark network and compare architectures.
//! let net = zoo::dgcnn();
//! let sibia = Accelerator::sibia().run_network(&net);
//! let bitfusion = Accelerator::bit_fusion().run_network(&net);
//! assert!(sibia.speedup_over(&bitfusion) > 1.5);
//! ```
//!
//! ## Crate map
//!
//! | module | contents |
//! |---|---|
//! | [`sbr`] | quantization + bit-slice representations |
//! | [`tensor`] | dense tensors and reference integer operators |
//! | [`nn`] | activations, layer descriptors, the benchmark model zoo |
//! | [`compress`] | RLE / hybrid zero compression |
//! | [`arch`] | hardware config, area/energy models, NoC, DSM |
//! | [`speculate`] | bit-slice output speculation |
//! | [`sim`] | functional PE datapath + cycle/energy simulators |
//! | [`serve`] | the std-only accelerator-as-a-service TCP daemon |
//! | [`fleet`] | sharded multi-backend sweep coordinator with failover |
//! | [`store`] | crash-safe persistent result store (warm restarts) |
//! | [`obs`] | span tracing, metrics registry, Chrome-trace export |

pub use sibia_arch as arch;
pub use sibia_compress as compress;
pub use sibia_fleet as fleet;
pub use sibia_nn as nn;
pub use sibia_obs as obs;
pub use sibia_sbr as sbr;
pub use sibia_serve as serve;
pub use sibia_sim as sim;
pub use sibia_speculate as speculate;
pub use sibia_store as store;
pub use sibia_tensor as tensor;

use sibia_nn::Network;
use sibia_sim::perf::{LatencyModel, NetworkResult, Simulator};
use sibia_sim::{ArchSpec, DecompCache};

/// Commonly used items, re-exported for `use sibia::prelude::*`.
pub mod prelude {
    pub use crate::Accelerator;
    pub use sibia_arch::config::CoreConfig;
    pub use sibia_compress::{CompressionMode, CompressionReport};
    pub use sibia_nn::zoo;
    pub use sibia_nn::{Activation, Layer, Network, SynthSource};
    pub use sibia_sbr::stats::SparsityReport;
    pub use sibia_sbr::{ConvSlices, Precision, Quantizer, SbrSlices};
    pub use sibia_sim::perf::NetworkResult;
    pub use sibia_sim::{ArchSpec, DecompCache, GridResult, ParallelEngine, PeSim, Simulator};
    pub use sibia_speculate::{PoolConfig, SliceRepr, Speculator};
}

/// A configured accelerator instance: an architecture specification bound to
/// a performance simulator.
///
/// # Example
///
/// ```
/// use sibia::Accelerator;
/// use sibia::nn::zoo;
///
/// let result = Accelerator::sibia().run_network(&zoo::alexnet());
/// assert!(result.throughput_gops() > 0.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Accelerator {
    spec: ArchSpec,
    simulator: Simulator,
}

impl Accelerator {
    /// The headline Sibia configuration: SBR, DSM-driven hybrid skipping,
    /// hybrid compression.
    pub fn sibia() -> Self {
        Self::from_spec(ArchSpec::sibia_hybrid())
    }

    /// Sibia restricted to input skipping.
    pub fn sibia_input_skip() -> Self {
        Self::from_spec(ArchSpec::sibia_input_skip())
    }

    /// Sibia with output speculation (`candidates` per pooling window /
    /// softmax row) on top of hybrid skipping.
    pub fn sibia_output_skip(candidates: usize) -> Self {
        Self::from_spec(ArchSpec::sibia_output_skip(candidates))
    }

    /// The revised Bit-fusion baseline core.
    pub fn bit_fusion() -> Self {
        Self::from_spec(ArchSpec::bit_fusion())
    }

    /// The revised HNPU baseline core.
    pub fn hnpu() -> Self {
        Self::from_spec(ArchSpec::hnpu())
    }

    /// Wraps an explicit architecture specification.
    pub fn from_spec(spec: ArchSpec) -> Self {
        Self {
            spec,
            simulator: Simulator::default(),
        }
    }

    /// Overrides the simulation seed (tensor synthesis is deterministic per
    /// seed).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.simulator.seed = seed;
        self
    }

    /// Overrides the per-tensor statistics sample cap.
    pub fn with_sample_cap(mut self, cap: usize) -> Self {
        self.simulator.sample_cap = cap.max(1);
        self
    }

    /// Switches latency accounting to `max(compute, memory)` per layer.
    pub fn with_memory_bound_latency(mut self) -> Self {
        self.simulator.latency_model = LatencyModel::MemoryBound;
        self
    }

    /// The architecture specification.
    pub fn spec(&self) -> &ArchSpec {
        &self.spec
    }

    /// The underlying simulator.
    pub fn simulator(&self) -> &Simulator {
        &self.simulator
    }

    /// Runs a network through the performance simulator.
    pub fn run_network(&self, network: &Network) -> NetworkResult {
        self.simulator.simulate_network(&self.spec, network)
    }

    /// [`Self::run_network`] with read-through/write-back against the
    /// persistent [`store`]: a previously stored result for this exact
    /// `(network, seed, arch, config)` is returned from disk without
    /// simulating; a miss simulates and writes back. Bit-identical either
    /// way (see `sibia_sim::stored`).
    pub fn run_network_stored(
        &self,
        network: &Network,
        store: &sibia_store::Store,
    ) -> NetworkResult {
        sibia_sim::simulate_network_stored(
            &self.simulator,
            &self.spec,
            network,
            &DecompCache::new(),
            store,
        )
    }

    /// Runs a network with per-layer workload scales (see
    /// [`Simulator::simulate_network_scaled`]).
    ///
    /// # Panics
    ///
    /// Panics if `scales.len()` differs from the layer count.
    pub fn run_network_scaled(&self, network: &Network, scales: &[f64]) -> NetworkResult {
        self.simulator
            .simulate_network_scaled(&self.spec, network, Some(scales))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibia_nn::zoo;

    #[test]
    fn facade_round_trip() {
        let acc = Accelerator::sibia().with_seed(1).with_sample_cap(4096);
        let r = acc.run_network(&zoo::alexnet());
        assert!(r.total_cycles() > 0);
        assert_eq!(r.arch, "Sibia (hybrid)");
    }

    #[test]
    fn deterministic_given_seed() {
        let net = zoo::alexnet();
        let a = Accelerator::sibia().with_seed(5).run_network(&net);
        let b = Accelerator::sibia().with_seed(5).run_network(&net);
        assert_eq!(a.total_cycles(), b.total_cycles());
    }

    #[test]
    fn memory_bound_latency_is_never_faster() {
        let net = zoo::alexnet();
        let fast = Accelerator::sibia().with_seed(2).run_network(&net);
        let bound = Accelerator::sibia()
            .with_seed(2)
            .with_memory_bound_latency()
            .run_network(&net);
        assert!(bound.total_cycles() >= fast.total_cycles());
    }
}
