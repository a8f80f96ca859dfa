//! Slice-level sparsity statistics (paper Fig. 1 and Fig. 6).
//!
//! For a quantized tensor, three sparsity views matter:
//!
//! * **full bit-width** — fraction of exactly-zero values (all a non-slice
//!   architecture can skip),
//! * **conventional bit-slice** — fraction of zero radix-16 slices (what
//!   HNPU can skip),
//! * **signed bit-slice** — fraction of zero SBR digits (what Sibia can
//!   skip).
//!
//! Statistics are reported per slice order and overall, at both slice and
//! sub-word granularity.

use std::fmt;

use crate::conv;
use crate::precision::Precision;
use crate::sbr;
use crate::subword::zero_subword_fraction;

/// Sparsity of one decomposition of one tensor.
#[derive(Debug, Clone, PartialEq)]
pub struct SliceSparsity {
    /// Zero fraction of each slice plane, order 0 (LSB) first.
    pub per_order: Vec<f64>,
    /// Zero fraction over all slices of all orders.
    pub overall: f64,
    /// Zero *sub-word* fraction per order (skippable fraction).
    pub subword_per_order: Vec<f64>,
    /// Zero sub-word fraction over all orders.
    pub subword_overall: f64,
}

impl SliceSparsity {
    fn from_planes(planes: &[Vec<i8>]) -> Self {
        let per_order: Vec<f64> = planes.iter().map(|p| zero_fraction(p)).collect();
        let subword_per_order: Vec<f64> = planes.iter().map(|p| zero_subword_fraction(p)).collect();
        let overall = mean(&per_order);
        let subword_overall = mean(&subword_per_order);
        Self {
            per_order,
            overall,
            subword_per_order,
            subword_overall,
        }
    }

    /// Zero-slice fraction of the highest slice order.
    pub fn high_order(&self) -> f64 {
        *self.per_order.last().expect("at least one order")
    }
}

impl fmt::Display for SliceSparsity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "overall {:.1}% [", self.overall * 100.0)?;
        for (i, s) in self.per_order.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "o{i}: {:.1}%", s * 100.0)?;
        }
        write!(f, "]")
    }
}

/// The three sparsity views of one tensor (paper Fig. 6 bar groups).
#[derive(Debug, Clone, PartialEq)]
pub struct SparsityReport {
    /// Fraction of exactly-zero full bit-width values.
    pub full_bitwidth: f64,
    /// Conventional (radix-16 container) slice sparsity.
    pub conventional: SliceSparsity,
    /// Signed bit-slice (SBR) sparsity.
    pub signed: SliceSparsity,
}

impl SparsityReport {
    /// Analyzes a quantized tensor at `precision`.
    ///
    /// # Panics
    ///
    /// Panics if any value is outside the symmetric range of `precision`.
    pub fn analyze(values: &[i32], precision: Precision) -> Self {
        let conv_planes = conv::planes(values, precision);
        let sbr_planes = sbr::planes(values, precision);
        Self {
            full_bitwidth: zero_fraction_i32(values),
            conventional: SliceSparsity::from_planes(&conv_planes),
            signed: SliceSparsity::from_planes(&sbr_planes),
        }
    }

    /// Signed-slice sparsity gain over full bit-width sparsity
    /// (e.g. the paper's "5.1× higher than full bit-width data" for Albert).
    pub fn gain_over_full(&self) -> f64 {
        ratio(self.signed.overall, self.full_bitwidth)
    }

    /// Signed-slice sparsity gain over conventional slice sparsity
    /// (e.g. the paper's "1.8× higher than bit-slice data").
    pub fn gain_over_conventional(&self) -> f64 {
        ratio(self.signed.overall, self.conventional.overall)
    }
}

impl fmt::Display for SparsityReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "full bit-width zero: {:.1}%", self.full_bitwidth * 100.0)?;
        writeln!(f, "conventional slices: {}", self.conventional)?;
        write!(f, "signed slices:       {}", self.signed)
    }
}

/// Fraction of values that the paper's Fig. 1 "target range" covers:
/// how much of the tensor each scheme can turn into zero high-order slices.
///
/// Returns `(prior_art, sibia)` where prior art covers zero and positive
/// near-zero values only, and Sibia covers near-zero values of both signs.
/// "Near-zero" means the high-order slices (all but the LSB slice) are zero
/// after decomposition.
pub fn target_range_coverage(values: &[i32], precision: Precision) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let conv_cutoff = 16i32.pow((precision.conv_slices() - 1) as u32);
    let sbr_cutoff = 8i32.pow((precision.sbr_slices() - 1) as u32);
    let prior = values
        .iter()
        .filter(|&&v| v >= 0 && v < conv_cutoff)
        .count() as f64
        / n;
    let sibia = values.iter().filter(|&&v| v.abs() < sbr_cutoff).count() as f64 / n;
    (prior, sibia)
}

fn zero_fraction(plane: &[i8]) -> f64 {
    if plane.is_empty() {
        return 0.0;
    }
    crate::kernels::active().zero_digit_count(plane) as f64 / plane.len() as f64
}

fn zero_fraction_i32(values: &[i32]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.iter().filter(|&&v| v == 0).count() as f64 / values.len() as f64
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        if num == 0.0 {
            1.0
        } else {
            f64::INFINITY
        }
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A dense ELU-like tensor: many small negatives, some positives.
    fn elu_like() -> Vec<i32> {
        let mut v = Vec::new();
        for i in 0..1000i32 {
            // Small negative plateau (saturated ELU outputs).
            v.push(-(i % 4) - 1);
        }
        for i in 0..300i32 {
            v.push(i % 60); // positive activations
        }
        v
    }

    #[test]
    fn sbr_finds_sparsity_where_conventional_cannot() {
        let values = elu_like();
        let report = SparsityReport::analyze(&values, Precision::BITS7);
        // Hardly any exact zeros.
        assert!(report.full_bitwidth < 0.05);
        // SBR high-order slices of all the small negatives are zero
        // (1000 of 1300 values are small negatives, plus small positives).
        assert!(report.signed.high_order() > 0.75);
        // Conventional slices of negatives are all-ones → much lower.
        assert!(report.signed.overall > report.conventional.overall * 1.3);
        assert!(report.gain_over_conventional() > 1.3);
        assert!(report.gain_over_full() > 3.0);
    }

    #[test]
    fn all_zero_tensor_is_fully_sparse_everywhere() {
        let values = vec![0; 64];
        let report = SparsityReport::analyze(&values, Precision::BITS7);
        assert_eq!(report.full_bitwidth, 1.0);
        assert_eq!(report.signed.overall, 1.0);
        assert_eq!(report.conventional.overall, 1.0);
        assert_eq!(report.signed.subword_overall, 1.0);
    }

    #[test]
    fn target_range_matches_fig1_semantics() {
        // Symmetric small values: prior art only covers the positive half.
        let values: Vec<i32> = (-7..=7).collect();
        let (prior, sibia) = target_range_coverage(&values, Precision::BITS7);
        assert!((sibia - 1.0).abs() < 1e-12); // |v| < 8 for all
        assert!(prior < 0.6); // only 0..=7 of 15 values
    }

    #[test]
    fn empty_tensor_is_harmless() {
        let (p, s) = target_range_coverage(&[], Precision::BITS7);
        assert_eq!((p, s), (0.0, 0.0));
    }

    #[test]
    fn subword_sparsity_never_exceeds_slice_sparsity() {
        let values = elu_like();
        let report = SparsityReport::analyze(&values, Precision::BITS10);
        for (sw, sl) in report
            .signed
            .subword_per_order
            .iter()
            .zip(&report.signed.per_order)
        {
            assert!(sw <= &(sl + 1e-12));
        }
    }

    #[test]
    fn display_is_informative() {
        let report = SparsityReport::analyze(&[0, 1, -1, 5], Precision::BITS7);
        let s = report.to_string();
        assert!(s.contains("signed slices"));
        assert!(s.contains('%'));
    }
}
