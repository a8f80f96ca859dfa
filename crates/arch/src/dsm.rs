//! Dynamic sparsity monitoring unit (paper §II-E).
//!
//! While a layer's first tile streams from external memory into global
//! memory, the DSM counts zero input and weight bit-slices, then:
//!
//! * picks the more sparse operand for zero skipping (**hybrid skipping**),
//! * disables skipping entirely when both are below a threshold (saving the
//!   dynamic power of the skip units and IDXBUFs),
//! * decides per slice-order whether RLE compression is profitable
//!   (**hybrid compression**).

use std::fmt;

use sibia_sbr::subword::zero_subword_fraction;

/// Which operand the flexible zero-skipping PE skips.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SkipSide {
    /// Skip zero input sub-words (weights stream densely).
    Input,
    /// Skip zero weight sub-words (inputs stream densely; the Bi-NoC swaps
    /// the IBUF/WBUF roles).
    Weight,
    /// Skipping disabled: both operands too dense to pay for the index
    /// traffic and skip-unit power.
    None,
}

impl fmt::Display for SkipSide {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipSide::Input => write!(f, "input skipping"),
            SkipSide::Weight => write!(f, "weight skipping"),
            SkipSide::None => write!(f, "skipping disabled"),
        }
    }
}

/// The DSM's per-layer decision.
#[derive(Debug, Clone, PartialEq)]
pub struct SkipDecision {
    /// Chosen skip side.
    pub side: SkipSide,
    /// Measured zero-sub-word fraction per input slice order (LSB first).
    pub input_sparsity: Vec<f64>,
    /// Measured zero-sub-word fraction per weight slice order.
    pub weight_sparsity: Vec<f64>,
    /// Per input slice order: compress with RLE?
    pub compress_input: Vec<bool>,
    /// Per weight slice order: compress with RLE?
    pub compress_weight: Vec<bool>,
}

/// The dynamic sparsity monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DsmUnit {
    /// Below this mean zero-sub-word fraction on *both* operands, skipping
    /// is disabled.
    pub skip_threshold: f64,
    /// A slice plane is RLE-compressed only above this zero-sub-word
    /// fraction (the RLE break-even point: index bits / entry bits).
    pub compress_threshold: f64,
}

impl DsmUnit {
    /// Default thresholds: RLE with a 4-bit index over 16-bit sub-words
    /// breaks even at 4/20 = 20 % zero sub-words; skipping is worthwhile a
    /// little below that because it also saves MAC energy.
    pub fn new() -> Self {
        Self {
            skip_threshold: 0.10,
            compress_threshold: 0.20,
        }
    }

    /// Decides skipping and compression from sampled slice planes of the
    /// first tile of a layer (LSB-first plane order for both operands).
    pub fn decide(&self, input_planes: &[Vec<i8>], weight_planes: &[Vec<i8>]) -> SkipDecision {
        self.decide_from_sparsity(
            input_planes
                .iter()
                .map(|p| zero_subword_fraction(p))
                .collect(),
            weight_planes
                .iter()
                .map(|p| zero_subword_fraction(p))
                .collect(),
        )
    }

    /// Decides skipping and compression from already-measured per-order
    /// zero-sub-word fractions (LSB first). This is the entry point the
    /// performance simulator's decomposition cache uses: the fractions are
    /// computed once per `(layer, seed, repr)` and reused across
    /// architecture variants, so the decision must be a pure function of
    /// them.
    pub fn decide_from_sparsity(
        &self,
        input_sparsity: Vec<f64>,
        weight_sparsity: Vec<f64>,
    ) -> SkipDecision {
        let mean = |v: &[f64]| {
            if v.is_empty() {
                0.0
            } else {
                v.iter().sum::<f64>() / v.len() as f64
            }
        };
        let mi = mean(&input_sparsity);
        let mw = mean(&weight_sparsity);
        let side = if mi < self.skip_threshold && mw < self.skip_threshold {
            SkipSide::None
        } else if mw > mi {
            SkipSide::Weight
        } else {
            SkipSide::Input
        };
        let compress_input = input_sparsity
            .iter()
            .map(|&s| s > self.compress_threshold)
            .collect();
        let compress_weight = weight_sparsity
            .iter()
            .map(|&s| s > self.compress_threshold)
            .collect();
        SkipDecision {
            side,
            input_sparsity,
            weight_sparsity,
            compress_input,
            compress_weight,
        }
    }
}

impl Default for DsmUnit {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plane(zero_blocks: usize, dense_blocks: usize) -> Vec<i8> {
        let mut p = Vec::new();
        for _ in 0..zero_blocks {
            p.extend_from_slice(&[0, 0, 0, 0]);
        }
        for _ in 0..dense_blocks {
            p.extend_from_slice(&[1, -2, 3, -4]);
        }
        p
    }

    #[test]
    fn picks_the_sparser_side() {
        let dsm = DsmUnit::new();
        let d = dsm.decide(&[plane(8, 2)], &[plane(2, 8)]);
        assert_eq!(d.side, SkipSide::Input);
        let d = dsm.decide(&[plane(2, 8)], &[plane(8, 2)]);
        assert_eq!(d.side, SkipSide::Weight);
    }

    #[test]
    fn disables_skipping_when_both_dense() {
        let dsm = DsmUnit::new();
        let d = dsm.decide(&[plane(0, 10)], &[plane(0, 10)]);
        assert_eq!(d.side, SkipSide::None);
    }

    #[test]
    fn compression_is_per_plane() {
        let dsm = DsmUnit::new();
        // Low plane dense, high plane sparse — the hybrid-compression case.
        let d = dsm.decide(&[plane(0, 10), plane(9, 1)], &[plane(0, 10)]);
        assert_eq!(d.compress_input, vec![false, true]);
        assert_eq!(d.compress_weight, vec![false]);
    }

    #[test]
    fn ties_prefer_input_skipping() {
        // Input skipping is the paper's default data path; the DSM only
        // swaps when weights are strictly sparser.
        let dsm = DsmUnit::new();
        let d = dsm.decide(&[plane(5, 5)], &[plane(5, 5)]);
        assert_eq!(d.side, SkipSide::Input);
    }
}
