//! Architecture-control model: the RISC-V core's instruction stream
//! (paper §III-B and Fig. 4).
//!
//! The RISC-V core compiles each DNN layer into a stream of tile-level
//! commands — load a tile of inputs/weights into global memory over the
//! HyperRAM interface, arm the DSM on the first tile, set the skip mode the
//! DSM's interrupt reports, execute, store outputs — and the DMA double-
//! buffers transfers against execution. This module models exactly those
//! interactions: the instruction stream itself and the resulting
//! compute/transfer timeline. It is not an ISA simulator (DESIGN.md §10).

use std::fmt;

use sibia_arch::dsm::SkipSide;
use sibia_arch::extmem::HyperRam;
use sibia_nn::{Layer, Network};

/// One tile-level command issued by the control core.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Instr {
    /// DMA a tile of input activations into global memory.
    LoadInput {
        /// Layer index.
        layer: usize,
        /// Tile index within the layer.
        tile: usize,
        /// Transfer size.
        bytes: u64,
    },
    /// DMA a tile of weights into global memory.
    LoadWeights {
        /// Layer index.
        layer: usize,
        /// Tile index within the layer.
        tile: usize,
        /// Transfer size.
        bytes: u64,
    },
    /// Arm the DSM to count zero slices while the first tile streams in.
    ArmDsm {
        /// Layer index.
        layer: usize,
    },
    /// DSM interrupt servicing: commit the layer's skip mode.
    SetSkipMode {
        /// Layer index.
        layer: usize,
        /// Chosen side.
        side: SkipSide,
    },
    /// Dispatch one tile to the MPU.
    Execute {
        /// Layer index.
        layer: usize,
        /// Tile index within the layer.
        tile: usize,
    },
    /// DMA a tile of outputs back to external memory.
    StoreOutputs {
        /// Layer index.
        layer: usize,
        /// Tile index within the layer.
        tile: usize,
        /// Transfer size.
        bytes: u64,
    },
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::LoadInput { layer, tile, bytes } => {
                write!(f, "ld.in   L{layer} T{tile} {bytes}B")
            }
            Instr::LoadWeights { layer, tile, bytes } => {
                write!(f, "ld.w    L{layer} T{tile} {bytes}B")
            }
            Instr::ArmDsm { layer } => write!(f, "dsm.arm L{layer}"),
            Instr::SetSkipMode { layer, side } => write!(f, "dsm.set L{layer} {side}"),
            Instr::Execute { layer, tile } => write!(f, "exec    L{layer} T{tile}"),
            Instr::StoreOutputs { layer, tile, bytes } => {
                write!(f, "st.out  L{layer} T{tile} {bytes}B")
            }
        }
    }
}

/// A compiled layer: its instruction range and tiling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompiledLayer {
    /// Layer name.
    pub name: String,
    /// Number of tiles the working set was split into.
    pub tiles: usize,
    /// Bytes transferred per tile (in + weights + out).
    pub tile_bytes: u64,
}

/// A compiled network program.
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// The flat instruction stream.
    pub instrs: Vec<Instr>,
    /// Per-layer tiling summary.
    pub layers: Vec<CompiledLayer>,
}

impl Program {
    /// Total tile executions.
    pub fn total_tiles(&self) -> usize {
        self.layers.iter().map(|l| l.tiles).sum()
    }
}

/// The control-unit compiler.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ControlUnit {
    /// Global memory capacity available for double-buffered tiles, bytes.
    pub gmem_bytes: u64,
}

impl ControlUnit {
    /// The Sibia configuration: 2 DMU cores × 64 KiB, half reserved for the
    /// outgoing buffer of the double buffer.
    pub fn sibia() -> Self {
        Self {
            gmem_bytes: 64 * 1024,
        }
    }

    /// Working-set bytes of one layer (inputs + weights + outputs at their
    /// container precisions).
    fn working_set_bytes(layer: &Layer) -> u64 {
        let inputs = layer.kind().input_len() as u64
            * u64::from(layer.input_precision().conv_container_bits())
            / 8;
        let weights = layer.kind().weight_len() as u64
            * u64::from(layer.weight_precision().conv_container_bits())
            / 8;
        let outputs = layer.kind().output_len() as u64 * 2;
        ((inputs as f64 * layer.dram_input_fraction()) as u64) + weights + outputs
    }

    /// Compiles one layer into tile commands.
    pub fn compile_layer(&self, index: usize, layer: &Layer) -> (Vec<Instr>, CompiledLayer) {
        let ws = Self::working_set_bytes(layer).max(1);
        let tiles = ws.div_ceil(self.gmem_bytes).max(1) as usize;
        let tile_bytes = ws.div_ceil(tiles as u64);
        let mut instrs = Vec::with_capacity(tiles * 4 + 2);
        instrs.push(Instr::ArmDsm { layer: index });
        for t in 0..tiles {
            instrs.push(Instr::LoadInput {
                layer: index,
                tile: t,
                bytes: tile_bytes / 2,
            });
            instrs.push(Instr::LoadWeights {
                layer: index,
                tile: t,
                bytes: tile_bytes - tile_bytes / 2,
            });
            if t == 0 {
                // The DSM measured this tile while it streamed in; its
                // interrupt sets the mode before execution starts.
                instrs.push(Instr::SetSkipMode {
                    layer: index,
                    side: SkipSide::Input,
                });
            }
            instrs.push(Instr::Execute {
                layer: index,
                tile: t,
            });
            instrs.push(Instr::StoreOutputs {
                layer: index,
                tile: t,
                bytes: (layer.kind().output_len() as u64 * 2).div_ceil(tiles as u64),
            });
        }
        (
            instrs,
            CompiledLayer {
                name: layer.name().to_owned(),
                tiles,
                tile_bytes,
            },
        )
    }

    /// Compiles a whole network.
    pub fn compile(&self, net: &Network) -> Program {
        let mut instrs = Vec::new();
        let mut layers = Vec::with_capacity(net.layers().len());
        for (i, layer) in net.layers().iter().enumerate() {
            let (li, cl) = self.compile_layer(i, layer);
            instrs.extend(li);
            layers.push(cl);
        }
        Program { instrs, layers }
    }
}

impl Default for ControlUnit {
    fn default() -> Self {
        Self::sibia()
    }
}

/// Timeline of executing a [`Program`] with double-buffered DMA.
#[derive(Debug, Clone, PartialEq)]
pub struct Timeline {
    /// Per-layer `(compute_cycles, dma_cycles, total_cycles)`.
    pub layers: Vec<(u64, u64, u64)>,
}

impl Timeline {
    /// Total cycles of the run.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(|&(_, _, t)| t).sum()
    }

    /// Fraction of total time in which DMA was the bottleneck.
    pub fn dma_bound_fraction(&self) -> f64 {
        let bound: u64 = self
            .layers
            .iter()
            .filter(|&&(c, d, _)| d > c)
            .map(|&(_, _, t)| t)
            .sum();
        bound as f64 / self.total_cycles().max(1) as f64
    }
}

/// Executes a program's timing: per layer, the first tile's load is
/// exposed (pipeline fill), subsequent tiles double-buffer
/// (`max(compute, dma)` per tile), and the last store is exposed.
///
/// `compute_cycles_per_layer[i]` is layer `i`'s total execution cycle count
/// (e.g. from the analytic or cycle-accurate simulator).
///
/// # Panics
///
/// Panics if the compute-cycle slice length differs from the program's
/// layer count.
pub fn run_timeline(
    program: &Program,
    compute_cycles_per_layer: &[u64],
    extmem: &HyperRam,
    core_mhz: u32,
) -> Timeline {
    assert_eq!(
        compute_cycles_per_layer.len(),
        program.layers.len(),
        "one compute-cycle figure per layer"
    );
    let layers = program
        .layers
        .iter()
        .zip(compute_cycles_per_layer)
        .map(|(cl, &compute)| {
            let tile_dma = extmem.transfer_cycles(cl.tile_bytes, 1024, core_mhz);
            let dma_total = tile_dma * cl.tiles as u64;
            let compute_per_tile = compute / cl.tiles.max(1) as u64;
            // Fill + steady state + drain.
            let steady: u64 = (1..cl.tiles).map(|_| compute_per_tile.max(tile_dma)).sum();
            let total = tile_dma + steady + compute_per_tile;
            (compute, dma_total, total)
        })
        .collect();
    Timeline { layers }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibia_nn::zoo;

    #[test]
    fn compile_produces_expected_stream_shape() {
        let cu = ControlUnit::sibia();
        let layer = Layer::linear("l", 64, 256, 256);
        let (instrs, cl) = cu.compile_layer(0, &layer);
        assert!(cl.tiles >= 1);
        // One ArmDsm, one SetSkipMode, per tile: 2 loads + exec + store.
        assert_eq!(instrs.len(), 2 + cl.tiles * 4);
        assert!(matches!(instrs[0], Instr::ArmDsm { .. }));
        assert!(instrs
            .iter()
            .any(|i| matches!(i, Instr::SetSkipMode { .. })));
        // SetSkipMode precedes the first Execute.
        let set = instrs
            .iter()
            .position(|i| matches!(i, Instr::SetSkipMode { .. }))
            .unwrap();
        let exec = instrs
            .iter()
            .position(|i| matches!(i, Instr::Execute { .. }))
            .unwrap();
        assert!(set < exec);
    }

    #[test]
    fn big_layers_are_tiled_by_global_memory() {
        let cu = ControlUnit::sibia();
        let small = Layer::linear("s", 8, 64, 64);
        let big = Layer::linear("b", 128, 3072, 3072);
        let (_, cs) = cu.compile_layer(0, &small);
        let (_, cb) = cu.compile_layer(0, &big);
        assert_eq!(cs.tiles, 1);
        assert!(cb.tiles > 50, "got {}", cb.tiles);
        assert!(cb.tile_bytes <= cu.gmem_bytes);
    }

    #[test]
    fn network_program_covers_all_layers() {
        let net = zoo::alexnet();
        let p = ControlUnit::sibia().compile(&net);
        assert_eq!(p.layers.len(), net.layers().len());
        let execs = p
            .instrs
            .iter()
            .filter(|i| matches!(i, Instr::Execute { .. }))
            .count();
        assert_eq!(execs, p.total_tiles());
    }

    #[test]
    fn timeline_overlaps_dma_with_compute() {
        let net = zoo::alexnet();
        let p = ControlUnit::sibia().compile(&net);
        let hyper = HyperRam::cypress_64mbit();
        // Compute-heavy: per-layer compute far above DMA.
        let heavy: Vec<u64> = p
            .layers
            .iter()
            .map(|l| l.tiles as u64 * 1_000_000)
            .collect();
        let t = run_timeline(&p, &heavy, &hyper, 250);
        assert!(t.dma_bound_fraction() < 0.05, "{}", t.dma_bound_fraction());
        // Compute-light: DMA dominates.
        let light: Vec<u64> = p.layers.iter().map(|l| l.tiles as u64).collect();
        let t = run_timeline(&p, &light, &hyper, 250);
        assert!(t.dma_bound_fraction() > 0.9);
        // Total is at least the larger of the two components per layer.
        for &(c, d, total) in &t.layers {
            assert!(total >= c.max(d) / 2, "c={c} d={d} total={total}");
        }
    }

    #[test]
    fn instr_display_is_informative() {
        let i = Instr::Execute { layer: 3, tile: 7 };
        assert_eq!(i.to_string(), "exec    L3 T7");
    }
}
