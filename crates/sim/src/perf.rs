//! Cycle/energy performance simulator.
//!
//! For each layer the simulator (1) synthesizes distribution-calibrated
//! operand tensors, (2) decomposes them into the architecture's slice
//! representation, (3) measures per-order non-zero fractions at the
//! architecture's skip granularity, (4) converts the layer's MAC count into
//! cycles per slice-order pass scaled by those fractions (this is exactly
//! what the zero-skipping PE does: one cycle per non-skipped sub-word
//! feeding 16 MACs), and (5) accounts external-memory transfer time and the
//! event counts the energy model consumes.
//!
//! Event-count ratios (RF/SRAM accesses per MAC) are calibrated to the
//! paper's Fig. 14 energy breakdown and documented at the constants below.

use std::fmt;
use std::sync::Arc;

use sibia_arch::dsm::{DsmUnit, SkipSide};
use sibia_arch::energy::{EnergyBreakdown, EnergyModel, EventCounts};
use sibia_arch::extmem::HyperRam;
use sibia_arch::tech::TechNode;
use sibia_compress::rle::SUBWORD_BITS;
use sibia_compress::CompressionMode;
use sibia_nn::{Layer, Network, Reduction, SynthSource};

use crate::cache::{DecompCache, LayerDecomp, LayerTensors, OperandStats, DMU_INDEX_BITS};
use crate::parallel::{GridRequest, ParallelEngine};
use crate::spec::{ArchSpec, Repr, SkipGranularity, SkipPolicy};

/// RF accesses per executed MAC (operand staging + accumulator traffic),
/// calibrated to Fig. 14's 13.4 % RF energy share.
const RF_PER_MAC_NUM: u64 = 4;
const RF_PER_MAC_DEN: u64 = 5;
/// Executed MACs per 16-bit SRAM access, calibrated to Fig. 14's 37.8 %
/// SRAM energy share (buffers are touched for every sub-word of every
/// reuse pass).
const MACS_PER_SRAM_ACCESS: u64 = 3;
/// SRAM accesses per NoC flit-hop (only a fraction of buffer traffic
/// crosses the top-level NoC).
const SRAM_PER_NOC_HOP: u64 = 2;
/// External-memory burst size in bytes.
const DRAM_BURST_BYTES: u64 = 1024;

/// Simulation result for one layer.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerResult {
    /// Layer name.
    pub name: String,
    /// Precision-level MAC count.
    pub macs: u64,
    /// Slice-order passes (`k_i × k_w`).
    pub slice_pairs: usize,
    /// PE-array compute cycles.
    pub compute_cycles: u64,
    /// External-memory transfer cycles (overlapped with compute).
    pub memory_cycles: u64,
    /// Layer latency cycles: `max(compute, memory)` (double buffering).
    pub cycles: u64,
    /// Hardware events for the energy model.
    pub events: EventCounts,
    /// The skip side the DSM chose.
    pub skip_side: SkipSide,
    /// Stored-size ratio of the input tensor vs its fixed-point baseline.
    pub input_compression_ratio: f64,
    /// Executed fraction of slice-level work (1 = dense).
    pub work_fraction: f64,
}

/// Simulation result for a whole network on one architecture.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkResult {
    /// Architecture name.
    pub arch: String,
    /// Network name.
    pub network: String,
    /// Core clock in MHz.
    pub frequency_mhz: u32,
    /// Per-layer results in execution order.
    pub layers: Vec<LayerResult>,
    /// Energy breakdown over the whole run.
    pub energy: EnergyBreakdown,
}

impl NetworkResult {
    /// Total latency cycles.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|l| l.cycles).sum()
    }

    /// Total precision-level MACs.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(|l| l.macs).sum()
    }

    /// Wall-clock inference time in seconds.
    pub fn time_s(&self) -> f64 {
        self.total_cycles() as f64 / (self.frequency_mhz as f64 * 1e6)
    }

    /// Effective throughput in GOPS (2 ops per MAC at DNN precision).
    pub fn throughput_gops(&self) -> f64 {
        2.0 * self.total_macs() as f64 / self.time_s() / 1e9
    }

    /// Energy efficiency in TOPS/W.
    pub fn efficiency_tops_w(&self) -> f64 {
        2.0 * self.total_macs() as f64 / (self.energy.total_pj() * 1e-12) / 1e12
    }

    /// Average power in mW.
    pub fn power_mw(&self) -> f64 {
        self.energy.total_pj() * 1e-12 / self.time_s() * 1e3
    }

    /// Latency speedup of `self` over `baseline` on the same network.
    pub fn speedup_over(&self, baseline: &NetworkResult) -> f64 {
        baseline.total_cycles() as f64 / self.total_cycles() as f64
    }

    /// Energy-efficiency gain of `self` over `baseline`.
    pub fn efficiency_gain_over(&self, baseline: &NetworkResult) -> f64 {
        self.efficiency_tops_w() / baseline.efficiency_tops_w()
    }
}

impl fmt::Display for NetworkResult {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} on {}: {:.2} ms, {:.1} GOPS, {:.2} TOPS/W, {:.1} mW",
            self.arch,
            self.network,
            self.time_s() * 1e3,
            self.throughput_gops(),
            self.efficiency_tops_w(),
            self.power_mw()
        )
    }
}

/// How layer latency combines compute and external-memory time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum LatencyModel {
    /// Latency = compute cycles; memory transfers are fully hidden.
    /// This matches the paper's methodology ("the evaluation results report
    /// the performance of the MAC-based DNN operations"): RTL cycle counts
    /// of the cores, with HyperRAM traffic entering the *energy* account
    /// (Fig. 14's 19.7 % DRAM share) but not the reported speedups.
    #[default]
    ComputeOnly,
    /// Latency = max(compute, memory) per layer (double buffering) — an
    /// honesty ablation showing where HyperRAM would actually bound the
    /// workload.
    MemoryBound,
}

/// The performance simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Simulator {
    /// RNG seed for the synthetic tensor source.
    pub seed: u64,
    /// Maximum elements sampled per tensor for sparsity statistics.
    pub sample_cap: usize,
    /// Technology node for the energy model.
    pub tech: TechNode,
    /// External memory model.
    pub extmem: HyperRam,
    /// Latency composition.
    pub latency_model: LatencyModel,
}

impl Simulator {
    /// A simulator with the paper's 28 nm node and HyperRAM.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            sample_cap: 32_768,
            tech: TechNode::samsung_28nm(),
            extmem: HyperRam::cypress_64mbit(),
            latency_model: LatencyModel::ComputeOnly,
        }
    }

    /// Simulates a whole network: a one-cell [`GridRequest`] on a fresh
    /// cache, run on the calling thread.
    pub fn simulate_network(&self, arch: &ArchSpec, net: &Network) -> NetworkResult {
        ParallelEngine::with_threads(1)
            .run(GridRequest::cell(self, arch, net))
            .into_first()
    }

    /// [`Self::simulate_network`] with optional per-layer workload scales
    /// against a caller-owned cache.
    ///
    /// Only the benchmark package calls this; it goes once that package
    /// moves to [`GridRequest`] (ROADMAP item 10).
    ///
    /// # Panics
    ///
    /// Panics if `scales` is provided with a length different from the
    /// layer count.
    pub fn simulate_network_cached(
        &self,
        arch: &ArchSpec,
        net: &Network,
        scales: Option<&[f64]>,
        cache: &DecompCache,
    ) -> NetworkResult {
        ParallelEngine::with_threads(1)
            .run(GridRequest {
                scales: scales.as_ref().map(std::slice::from_ref),
                cache: Some(cache),
                ..GridRequest::cell(self, arch, net)
            })
            .into_first()
    }

    /// Decomposes (or recalls) every layer of `net` under each of `reprs`
    /// and returns one vector of per-layer decompositions per entry of
    /// `reprs` — the working set a grid row shares across its architecture
    /// variants.
    ///
    /// A layer that misses any of `reprs` is synthesized once. Its codes
    /// are measured and cached under every representation the cache lacks,
    /// needed or not, and dropped before the next layer: a later row for
    /// the same `(layer, seed)` under the other representation is then a
    /// decomposition hit. The cache's tensor level is neither read nor
    /// filled, so a whole-network walk holds one layer's codes at a time.
    pub(crate) fn decompose_network(
        &self,
        net: &Network,
        reprs: &[Repr],
        cache: &DecompCache,
    ) -> Vec<Vec<Arc<LayerDecomp>>> {
        let mut decomps: Vec<Vec<Arc<LayerDecomp>>> = reprs
            .iter()
            .map(|_| Vec::with_capacity(net.layers().len()))
            .collect();
        for (i, layer) in net.layers().iter().enumerate() {
            let mut codes = None;
            for (&repr, per_repr) in reprs.iter().zip(&mut decomps) {
                per_repr.push(
                    cache.decomp(layer, self.seed, i, self.sample_cap, repr, || {
                        let codes = codes.get_or_insert_with(|| self.synthesize(layer, i));
                        Self::measure(layer, codes, repr)
                    }),
                );
            }
            if let Some(codes) = &codes {
                for repr in [Repr::Sbr, Repr::Conventional] {
                    if !reprs.contains(&repr) {
                        cache.decomp(layer, self.seed, i, self.sample_cap, repr, || {
                            Self::measure(layer, codes, repr)
                        });
                    }
                }
            }
        }
        decomps
    }

    /// Simulates `arch` on `net` from pre-computed per-layer decompositions
    /// (see [`Self::decompose_network`]): the grid decomposes a (network,
    /// seed) row once under every representation its architectures need
    /// and feeds each architecture in the row from those statistics.
    ///
    /// # Panics
    ///
    /// Panics if `decomps` or `scales` length differs from the layer count.
    pub(crate) fn simulate_network_from_decomps(
        &self,
        arch: &ArchSpec,
        net: &Network,
        scales: Option<&[f64]>,
        decomps: &[Arc<LayerDecomp>],
    ) -> NetworkResult {
        assert_eq!(
            decomps.len(),
            net.layers().len(),
            "one decomposition per layer"
        );
        if let Some(s) = scales {
            assert_eq!(s.len(), net.layers().len(), "one scale per layer");
        }
        // Spans go to the process-wide tracer; with tracing disabled (the
        // default) each call is a single atomic load.
        let mut net_span = sibia_obs::tracer().span("sim.network");
        net_span.attr("arch", &arch.name);
        net_span.attr("network", net.name());
        net_span.attr("seed", self.seed);
        let layers: Vec<LayerResult> = net
            .layers()
            .iter()
            .zip(decomps)
            .enumerate()
            .map(|(i, (l, decomp))| {
                let mut span = sibia_obs::tracer().span("sim.layer");
                span.attr("layer", l.name());
                let scale = scales.map_or(1.0, |s| s[i]);
                let result = self.simulate_layer_from(arch, l, decomp, scale);
                span.attr("cycles", result.cycles);
                span.attr("skip_side", format!("{:?}", result.skip_side));
                result
            })
            .collect();
        let counts: EventCounts = layers.iter().map(|l| l.events).sum();
        let energy = EnergyModel::new(self.tech, arch.core.mac_kind).energy(&counts);
        NetworkResult {
            arch: arch.name.clone(),
            network: net.name().to_owned(),
            frequency_mhz: arch.core.frequency_mhz,
            layers,
            energy,
        }
    }

    /// Synthesizes (or recalls) the operand tensors of one layer through
    /// the cache's tensor level. The RNG stream is derived from
    /// `(self.seed, layer_index)`, so the result does not depend on which
    /// other layers have been synthesized.
    ///
    /// The engine never calls this. Outside tests only the benchmark
    /// package's per-layer walk does, and it goes with the tensor level once
    /// that walk moves to the engine's own stage spans (ROADMAP item 10).
    pub fn synthesize_layer(
        &self,
        layer: &Layer,
        layer_index: usize,
        cache: &DecompCache,
    ) -> Arc<LayerTensors> {
        cache.tensors(layer, self.seed, layer_index, self.sample_cap, || {
            self.synthesize(layer, layer_index)
        })
    }

    /// Measures (or recalls) the slice-decomposition statistics of one
    /// layer under `repr`. A miss synthesizes through
    /// [`Self::synthesize_layer`], so the layer's codes stay in the tensor
    /// level for the other representation.
    ///
    /// Like [`Self::synthesize_layer`], outside tests only the benchmark
    /// package's per-layer walk calls this (ROADMAP item 10).
    pub fn decompose_layer(
        &self,
        layer: &Layer,
        layer_index: usize,
        repr: Repr,
        cache: &DecompCache,
    ) -> Arc<LayerDecomp> {
        cache.decomp(layer, self.seed, layer_index, self.sample_cap, repr, || {
            Self::measure(
                layer,
                &self.synthesize_layer(layer, layer_index, cache),
                repr,
            )
        })
    }

    /// The operand codes of one layer, drawn from its own RNG stream.
    fn synthesize(&self, layer: &Layer, layer_index: usize) -> LayerTensors {
        let mut src = SynthSource::for_layer(self.seed, layer_index);
        let inputs = src.activations(layer, self.sample_cap);
        let weights = src.weights(layer, self.sample_cap);
        LayerTensors {
            input_codes: inputs.into_codes(),
            weight_codes: weights.into_codes(),
        }
    }

    /// The decomposition statistics of one layer's codes under `repr`.
    fn measure(layer: &Layer, tensors: &LayerTensors, repr: Repr) -> LayerDecomp {
        let (ki, kw) = match repr {
            Repr::Sbr => (
                layer.input_precision().sbr_slices(),
                layer.weight_precision().sbr_slices(),
            ),
            Repr::Conventional => (
                layer.input_precision().conv_slices(),
                layer.weight_precision().conv_slices(),
            ),
        };
        LayerDecomp {
            ki,
            kw,
            input: OperandStats::measure(&tensors.input_codes, layer.input_precision(), repr),
            weight: OperandStats::measure(&tensors.weight_codes, layer.weight_precision(), repr),
        }
    }

    /// Non-zero fraction per slice order at the architecture's skip
    /// granularity, derived from cached integer counts with exactly the
    /// divisions the direct scalar measurement performs.
    fn nz_fractions(op: &OperandStats, granularity: SkipGranularity) -> Vec<f64> {
        match granularity {
            SkipGranularity::Slice => op
                .planes
                .iter()
                .map(|p| 1.0 - p.zero_digits as f64 / p.len.max(1) as f64)
                .collect(),
            SkipGranularity::SubWord => op
                .planes
                .iter()
                .map(|p| 1.0 - p.zero_subword_fraction())
                .collect(),
            SkipGranularity::ValueSubword => {
                // A group is skippable only when all four *values* are
                // zero; every slice order sees the same fraction.
                let total = op.value_groups.max(1);
                vec![1.0 - op.zero_value_groups as f64 / total as f64; op.planes.len()]
            }
        }
    }

    /// Simulates one layer from its decomposition statistics.
    /// `workload_scale` multiplies the layer's MAC workload (1.0 =
    /// unscaled).
    ///
    /// # Panics
    ///
    /// Panics if `workload_scale` is not positive.
    pub fn simulate_layer_from(
        &self,
        arch: &ArchSpec,
        layer: &Layer,
        decomp: &LayerDecomp,
        workload_scale: f64,
    ) -> LayerResult {
        assert!(workload_scale > 0.0, "workload scale must be positive");
        let (ki, kw) = (decomp.ki, decomp.kw);
        let nz_input = Self::nz_fractions(&decomp.input, arch.granularity);
        let nz_weight = Self::nz_fractions(&decomp.weight, arch.granularity);

        // Skip-side decision.
        let skip_side = match arch.policy {
            SkipPolicy::None => SkipSide::None,
            SkipPolicy::InputOnly => SkipSide::Input,
            SkipPolicy::Hybrid => {
                DsmUnit::new()
                    .decide_from_sparsity(
                        decomp.input.subword_sparsity(),
                        decomp.weight.subword_sparsity(),
                    )
                    .side
            }
        };

        // Output speculation (max-pool / softmax reduction layers): the
        // non-pre-computed passes of insensitive outputs are skipped.
        let (pre_kept, output_skip_fraction) =
            match (arch.output_skip_candidates, layer.reduction()) {
                (Some(c), Some(Reduction::MaxPool { group })) => {
                    let c = c.min(group);
                    // Very large pools pre-compute I_H×W_H only; smaller
                    // pools need I_H×W_H + I_L×W_H for stable ranking
                    // (§III-F: VoteNet 64-to-1 vs DGCNN 40-to-1 / 16-to-1).
                    let kept = if group > 40 { (1, 1) } else { (ki, 1) };
                    (kept, (group - c) as f64 / group as f64)
                }
                (Some(c), Some(Reduction::Softmax { row_len })) => {
                    let c = c.min(row_len);
                    // Most attention rows are peaked enough to speculate on;
                    // the rest complete at full precision.
                    const DOMINANT_ROWS: f64 = 0.9;
                    (
                        (1, 1),
                        DOMINANT_ROWS * (row_len - c) as f64 / row_len as f64,
                    )
                }
                _ => ((0, 0), 0.0),
            };

        // Cycle accounting per slice-order pass.
        let slice_macs = (layer.macs() as f64 * workload_scale).max(1.0);
        let macs_per_cycle = (arch.core.total_macs() as f64 * arch.utilization).max(1.0);
        let mut compute_cycles = 0f64;
        let mut executed_macs = 0f64;
        #[allow(clippy::needless_range_loop)] // oi/ow are slice orders indexing several arrays
        for oi in 0..ki {
            #[allow(clippy::needless_range_loop)]
            for ow in 0..kw {
                // Hybrid skipping picks the sparser operand per slice-order
                // pass (§II-E): I_H×W_* passes skip the sparse input highs,
                // while dense-I_L passes fall back to weight skipping. The
                // Bi-NoC swaps the IBUF/WBUF roles between passes.
                //
                // Output speculation encodes insensitive outputs as zeroed
                // *input* slices (§II-D), so on a speculating layer the data
                // path is committed to input skipping and cannot combine
                // with weight skipping.
                let speculating = output_skip_fraction > 0.0;
                let mut factor = match (arch.policy, skip_side) {
                    _ if speculating => nz_input[oi],
                    (SkipPolicy::Hybrid, s) if s != SkipSide::None => {
                        nz_input[oi].min(nz_weight[ow])
                    }
                    (_, SkipSide::Input) => nz_input[oi],
                    (_, SkipSide::Weight) => nz_weight[ow],
                    (_, SkipSide::None) => 1.0,
                };
                let is_pre =
                    oi >= ki.saturating_sub(pre_kept.0) && ow >= kw.saturating_sub(pre_kept.1);
                if speculating && !is_pre {
                    factor *= 1.0 - output_skip_fraction;
                }
                compute_cycles += slice_macs * factor / macs_per_cycle;
                executed_macs += slice_macs * factor;
            }
        }
        let compute_cycles = compute_cycles.ceil() as u64;

        // External-memory traffic: compressed inputs/weights, raw outputs.
        let input_bits = (Self::stored_bits(&decomp.input, layer.kind().input_len(), arch) as f64
            * layer.dram_input_fraction()) as u64;
        let weight_bits = Self::stored_bits(&decomp.weight, layer.kind().weight_len(), arch);
        let output_bits =
            layer.kind().output_len() as u64 * u64::from(layer.input_precision().bits());
        let dram_bits = input_bits + weight_bits + output_bits;
        let memory_cycles = self.extmem.transfer_cycles(
            dram_bits.div_ceil(8),
            DRAM_BURST_BYTES,
            arch.core.frequency_mhz,
        );

        let cycles = match self.latency_model {
            LatencyModel::ComputeOnly => compute_cycles,
            LatencyModel::MemoryBound => compute_cycles.max(memory_cycles),
        };
        let mac_ops = executed_macs as u64;
        // IDXBUF traffic: one index access per fetched non-zero sub-word of
        // the skipped operand. HNPU pays this whenever skipping is on; the
        // Sibia DSM disables it on dense layers (SkipSide::None).
        let idx_accesses = if skip_side == SkipSide::None {
            0
        } else {
            mac_ops / 16
        };
        let events = EventCounts {
            mac_ops,
            rf_accesses: mac_ops * RF_PER_MAC_NUM / RF_PER_MAC_DEN,
            sram_accesses: mac_ops / MACS_PER_SRAM_ACCESS
                + layer.kind().output_len() as u64
                + idx_accesses,
            noc_flit_hops: mac_ops / MACS_PER_SRAM_ACCESS / SRAM_PER_NOC_HOP,
            dram_bits,
            cycles,
        };
        let baseline_input_bits =
            layer.kind().input_len() as u64 * u64::from(layer.input_precision().bits());
        LayerResult {
            name: layer.name().to_owned(),
            macs: (layer.macs() as f64 * workload_scale) as u64,
            slice_pairs: ki * kw,
            compute_cycles,
            memory_cycles,
            cycles,
            events,
            skip_side,
            input_compression_ratio: baseline_input_bits as f64 / input_bits.max(1) as f64,
            work_fraction: executed_macs / (slice_macs * (ki * kw) as f64),
        }
    }

    /// Stored size in bits of a tensor under the architecture's compression
    /// mode, extrapolated from the sampled planes to the full tensor. The
    /// RLE sizes come from the cached entry counts, which are bit-exact
    /// with `RleCodec::default().compress(..).size_bits()`.
    fn stored_bits(op: &OperandStats, full_len: usize, arch: &ArchSpec) -> u64 {
        let entry_bits = SUBWORD_BITS + usize::from(DMU_INDEX_BITS);
        let mut bits = 0f64;
        for plane in &op.planes {
            let raw = plane.subwords * SUBWORD_BITS;
            let rle = plane.rle_entries * entry_bits;
            let stored = match arch.compression {
                CompressionMode::None => raw,
                CompressionMode::Rle => rle,
                CompressionMode::Hybrid => rle.min(raw),
            };
            bits += stored as f64;
        }
        let scale = full_len as f64 / op.sampled.max(1) as f64;
        (bits * scale).ceil() as u64
    }
}

impl Default for Simulator {
    fn default() -> Self {
        Self::new(0xA11CE)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibia_nn::zoo;

    fn small_net() -> Network {
        use sibia_nn::network::{DensityClass, TaskDomain};
        use sibia_nn::Activation;
        Network::new(
            "tiny-elu",
            TaskDomain::Vision2d,
            DensityClass::Dense,
            vec![
                Layer::conv2d("c1", 16, 32, 3, 1, 1, 16)
                    .with_activation(Activation::ELU_1)
                    .with_input_sparsity(0.2),
                Layer::conv2d("c2", 32, 32, 3, 1, 1, 16)
                    .with_activation(Activation::ELU_1)
                    .with_input_sparsity(0.2),
            ],
        )
    }

    #[test]
    fn sibia_beats_hnpu_beats_bitfusion_on_dense_net() {
        let sim = Simulator::new(7);
        let net = small_net();
        let bf = sim.simulate_network(&ArchSpec::bit_fusion(), &net);
        let hnpu = sim.simulate_network(&ArchSpec::hnpu(), &net);
        let sibia = sim.simulate_network(&ArchSpec::sibia_hybrid(), &net);
        let s_hnpu = hnpu.speedup_over(&bf);
        let s_sibia = sibia.speedup_over(&bf);
        assert!(s_hnpu > 1.0, "hnpu {s_hnpu}");
        assert!(s_sibia > s_hnpu, "sibia {s_sibia} vs hnpu {s_hnpu}");
        // Dense (ELU) data: HNPU gains little, Sibia gains a lot.
        assert!(
            s_hnpu < 2.2,
            "hnpu should gain little on dense data: {s_hnpu}"
        );
        assert!(s_sibia > 1.8, "sibia {s_sibia}");
    }

    #[test]
    fn sibia_efficiency_beats_baselines() {
        let sim = Simulator::new(7);
        let net = small_net();
        let bf = sim.simulate_network(&ArchSpec::bit_fusion(), &net);
        let sibia = sim.simulate_network(&ArchSpec::sibia_hybrid(), &net);
        assert!(sibia.efficiency_gain_over(&bf) > 1.5);
    }

    #[test]
    fn hybrid_never_slower_than_input_skip() {
        let sim = Simulator::new(9);
        for net in [small_net(), zoo::alexnet()] {
            let input = sim.simulate_network(&ArchSpec::sibia_input_skip(), &net);
            let hybrid = sim.simulate_network(&ArchSpec::sibia_hybrid(), &net);
            // The DSM picks the better side, so hybrid ≥ input-skip within
            // sampling noise.
            assert!(
                hybrid.total_cycles() as f64 <= input.total_cycles() as f64 * 1.02,
                "{}: hybrid {} input {}",
                net.name(),
                hybrid.total_cycles(),
                input.total_cycles()
            );
        }
    }

    #[test]
    fn output_skipping_accelerates_pooling_networks() {
        let sim = Simulator::new(11);
        let net = zoo::dgcnn();
        let hybrid = sim.simulate_network(&ArchSpec::sibia_hybrid(), &net);
        let out4 = sim.simulate_network(&ArchSpec::sibia_output_skip(4), &net);
        let out16 = sim.simulate_network(&ArchSpec::sibia_output_skip(16), &net);
        assert!(out4.total_cycles() < hybrid.total_cycles());
        assert!(out4.total_cycles() <= out16.total_cycles());
    }

    #[test]
    fn workload_scales_shrink_layers() {
        let sim = Simulator::new(13);
        let net = small_net();
        let arch = ArchSpec::bit_fusion();
        let full = sim.simulate_network(&arch, &net);
        let scaled = ParallelEngine::with_threads(1).run(GridRequest {
            scales: Some(&[&[1.0, 0.25]]),
            ..GridRequest::cell(&sim, &arch, &net)
        });
        let scaled = scaled.get(0, 0, 0);
        assert!(scaled.total_cycles() < full.total_cycles());
        assert_eq!(scaled.layers[1].macs, full.layers[1].macs / 4);
    }

    #[test]
    fn utilization_ablation_slows_the_core() {
        let sim = Simulator::new(17);
        let net = small_net();
        let latched = sim.simulate_network(&ArchSpec::sibia_hybrid(), &net);
        let unlatched = sim.simulate_network(&ArchSpec::sibia_no_latching(), &net);
        assert!(unlatched.total_cycles() > latched.total_cycles());
    }

    #[test]
    fn compression_reduces_dram_bits() {
        let sim = Simulator::new(19);
        let net = small_net();
        let none = sim.simulate_network(&ArchSpec::bit_fusion(), &net);
        let hybrid = sim.simulate_network(&ArchSpec::sibia_hybrid(), &net);
        let dn: u64 = none.layers.iter().map(|l| l.events.dram_bits).sum();
        let dh: u64 = hybrid.layers.iter().map(|l| l.events.dram_bits).sum();
        assert!(dh < dn);
    }

    #[test]
    fn energy_breakdown_shape_matches_fig14() {
        // On a realistic conv workload, SRAM should carry a large share of
        // energy with DRAM a significant minority — the Fig. 14 shape.
        // (AlexNet would be FC-weight-DRAM-dominated; the paper's breakdown
        // is over its conv-heavy benchmark mix, so ResNet-18 is the
        // representative pick.)
        let sim = Simulator::new(23);
        let net = zoo::resnet18();
        let r = sim.simulate_network(&ArchSpec::sibia_hybrid(), &net);
        let (mac, rf, sram, _noc, dram, _ctl) = r.energy.fractions();
        assert!(sram > 0.2, "sram {sram}");
        assert!(mac > 0.1, "mac {mac}");
        assert!(rf > 0.04, "rf {rf}");
        assert!(dram > 0.02 && dram < 0.55, "dram {dram}");
    }

    #[test]
    fn multi_seed_variance_is_small() {
        // The synthetic methodology is stable across seeds: the cycle-count
        // coefficient of variation stays within a few percent.
        let archs = [ArchSpec::sibia_hybrid()];
        let nets = [small_net()];
        let grid = ParallelEngine::new().run(GridRequest::new(
            Simulator::new(0),
            &archs,
            &nets,
            &[1, 2, 3, 4, 5],
        ));
        let cycles: Vec<f64> = grid
            .cells()
            .iter()
            .map(|c| c.result.total_cycles() as f64)
            .collect();
        let mean = cycles.iter().sum::<f64>() / cycles.len() as f64;
        let var =
            cycles.iter().map(|c| (c - mean).powi(2)).sum::<f64>() / (cycles.len() as f64 - 1.0);
        let std = var.sqrt();
        assert!(mean > 0.0);
        // The tiny two-layer test net is the worst case; real benchmarks
        // average over many layers and land well below this.
        assert!(std / mean < 0.15, "cv = {}", std / mean);
    }

    #[test]
    fn throughput_is_positive_and_bounded() {
        let sim = Simulator::new(29);
        let net = small_net();
        let r = sim.simulate_network(&ArchSpec::sibia_hybrid(), &net);
        // Effective GOPS can exceed the per-pass rate thanks to skipping but
        // never the raw slice peak.
        assert!(r.throughput_gops() < 768.0 * 2.0);
        assert!(r.throughput_gops() > 10.0);
    }
}
