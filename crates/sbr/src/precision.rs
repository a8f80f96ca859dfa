//! Bit-precision descriptors.
//!
//! Sibia's signed 4b×4b MAC units natively support precisions of the form
//! `N = 3k + 1` (4, 7, 10, 13, 16 bits): one global sign bit plus `k` groups
//! of three magnitude bits, each group becoming one signed 4-bit slice.
//! Conventional bit-slice architectures (Bit-fusion, HNPU) round data up to a
//! 4-bit-aligned container (4, 8, 12, 16 bits) and split it into radix-16
//! slices. [`Precision`] carries the *data* bit width and derives both views.

use std::fmt;

use crate::error::RangeError;

/// A 2's-complement fixed-point bit width in `[2, 19]`.
///
/// # Example
///
/// ```
/// use sibia_sbr::Precision;
/// let p = Precision::new(7);
/// assert_eq!(p.sbr_slices(), 2);          // 7 = 1 sign + 2×3 magnitude bits
/// assert_eq!(p.conv_container_bits(), 8); // Bit-fusion stores 7-bit data in 8 bits
/// assert_eq!(p.conv_slices(), 2);
/// assert_eq!(p.max_magnitude(), 63);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Precision(u8);

impl Precision {
    /// 4-bit precision (one SBR slice).
    pub const BITS4: Precision = Precision(4);
    /// 7-bit precision (two SBR slices) — the paper's headline DNN precision.
    pub const BITS7: Precision = Precision(7);
    /// 10-bit precision (three SBR slices).
    pub const BITS10: Precision = Precision(10);
    /// 13-bit precision (four SBR slices).
    pub const BITS13: Precision = Precision(13);
    /// 16-bit precision (five SBR slices).
    pub const BITS16: Precision = Precision(16);

    /// Creates a precision of exactly `bits` bits.
    ///
    /// # Panics
    ///
    /// Panics if `bits` is outside `[2, 19]`.
    pub fn new(bits: u8) -> Self {
        assert!(
            (2..=19).contains(&bits),
            "precision must be between 2 and 19 bits, got {bits}"
        );
        Precision(bits)
    }

    /// The data bit width.
    pub fn bits(&self) -> u8 {
        self.0
    }

    /// Largest magnitude representable under symmetric quantization:
    /// `2^(N-1) - 1`.
    pub fn max_magnitude(&self) -> i32 {
        (1 << (self.0 - 1)) - 1
    }

    /// Whether `value` lies in the symmetric range `[-max, max]`.
    pub fn contains(&self, value: i32) -> bool {
        value.unsigned_abs() <= self.max_magnitude().unsigned_abs()
    }

    /// Checks `value` against the symmetric range.
    ///
    /// # Errors
    ///
    /// Returns [`RangeError`] when `value` is outside `[-max, max]`.
    pub fn check(&self, value: i32) -> Result<i32, RangeError> {
        if self.contains(value) {
            Ok(value)
        } else {
            Err(RangeError::new(value, *self))
        }
    }

    /// Number of signed 4-bit slices in the SBR decomposition:
    /// `ceil((bits - 1) / 3)`.
    pub fn sbr_slices(&self) -> usize {
        (usize::from(self.0) - 1).div_ceil(3)
    }

    /// Bit width of the 4-bit-aligned container a conventional bit-slice
    /// architecture uses for this data: `ceil(bits / 4) * 4`.
    pub fn conv_container_bits(&self) -> u8 {
        self.0.div_ceil(4) * 4
    }

    /// Number of 4-bit slices in the conventional (radix-16) decomposition.
    pub fn conv_slices(&self) -> usize {
        usize::from(self.conv_container_bits()) / 4
    }

    /// Number of passes a slice architecture needs for an
    /// `input × weight` product at this precision pair: the product of the
    /// two slice counts.
    pub fn sbr_slice_pairs(&self, other: Precision) -> usize {
        self.sbr_slices() * other.sbr_slices()
    }

    /// Same as [`Self::sbr_slice_pairs`] for the conventional decomposition.
    pub fn conv_slice_pairs(&self, other: Precision) -> usize {
        self.conv_slices() * other.conv_slices()
    }
}

impl Default for Precision {
    /// Defaults to the paper's headline 7-bit DNN precision.
    fn default() -> Self {
        Precision::BITS7
    }
}

impl fmt::Display for Precision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-bit", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn native_precisions_have_expected_slice_counts() {
        assert_eq!(Precision::BITS4.sbr_slices(), 1);
        assert_eq!(Precision::BITS7.sbr_slices(), 2);
        assert_eq!(Precision::BITS10.sbr_slices(), 3);
        assert_eq!(Precision::BITS13.sbr_slices(), 4);
        assert_eq!(Precision::BITS16.sbr_slices(), 5);
    }

    #[test]
    fn conventional_containers_round_up_to_nibbles() {
        assert_eq!(Precision::BITS7.conv_container_bits(), 8);
        assert_eq!(Precision::BITS10.conv_container_bits(), 12);
        assert_eq!(Precision::BITS13.conv_container_bits(), 16);
        assert_eq!(Precision::new(8).conv_container_bits(), 8);
        assert_eq!(Precision::BITS7.conv_slices(), 2);
        assert_eq!(Precision::BITS13.conv_slices(), 4);
    }

    #[test]
    fn symmetric_range() {
        let p = Precision::BITS7;
        assert_eq!(p.max_magnitude(), 63);
        assert!(p.contains(63));
        assert!(p.contains(-63));
        assert!(!p.contains(-64)); // asymmetric code excluded
        assert!(!p.contains(64));
        assert!(p.check(64).is_err());
        assert_eq!(p.check(-12), Ok(-12));
    }

    #[test]
    fn every_precision_rejects_values_past_its_range() {
        // `i32::MIN` has no positive counterpart: `abs` wraps (or panics)
        // on it, so the check must compare unsigned magnitudes.
        for bits in 2..=19 {
            let p = Precision::new(bits);
            let max = p.max_magnitude();
            assert!(p.contains(max) && p.contains(-max), "{p}");
            for v in [i32::MIN, i32::MAX, max + 1, -(max + 1)] {
                assert!(!p.contains(v), "{p} accepted {v}");
                assert!(p.check(v).is_err(), "{p} checked {v}");
            }
        }
    }

    #[test]
    fn slice_pair_counts() {
        // 7-bit × 7-bit: 2×2 = 4 SBR passes; conventional 8-bit container also 4.
        assert_eq!(Precision::BITS7.sbr_slice_pairs(Precision::BITS7), 4);
        assert_eq!(Precision::BITS7.conv_slice_pairs(Precision::BITS7), 4);
        // 10-bit input × 7-bit weight: 3×2 = 6 vs conventional 12-bit: 3×2 = 6.
        assert_eq!(Precision::BITS10.sbr_slice_pairs(Precision::BITS7), 6);
        assert_eq!(Precision::BITS10.conv_slice_pairs(Precision::BITS7), 6);
    }

    #[test]
    #[should_panic(expected = "precision must be between")]
    fn rejects_too_wide() {
        let _ = Precision::new(20);
    }

    #[test]
    fn display_formats_bits() {
        assert_eq!(Precision::BITS10.to_string(), "10-bit");
    }
}
