//! Sub-word grouping for the flexible zero-skipping PE.
//!
//! To keep the zero-skipping unit coarse enough to be cheap, Sibia groups
//! four spatially adjacent 4-bit slices of the same order into one 16-bit
//! *sub-word* and skips / compresses at sub-word granularity: a sub-word is
//! skippable only when **all four** slices are zero (paper §II-D).

use std::fmt;

/// Four adjacent same-order slices handled as one 16-bit unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SubWord(pub [i8; 4]);

/// Number of 4-bit slices per sub-word.
pub const SUBWORD_LANES: usize = 4;

impl SubWord {
    /// Whether all four slices are zero (the sub-word can be skipped).
    #[inline]
    pub fn is_zero(&self) -> bool {
        self.0 == [0; 4]
    }

    /// The slices of the sub-word.
    #[inline]
    pub fn slices(&self) -> &[i8; 4] {
        &self.0
    }

    /// The packed 16-bit pattern as the hardware would store it
    /// (slice 0 in the low nibble).
    #[inline]
    pub fn packed(&self) -> u16 {
        self.0.iter().enumerate().fold(0u16, |acc, (i, &s)| {
            acc | (u16::from((s as u8) & 0xF) << (4 * i))
        })
    }
}

impl From<[i8; 4]> for SubWord {
    fn from(slices: [i8; 4]) -> Self {
        SubWord(slices)
    }
}

impl fmt::Display for SubWord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sw{:?}", self.0)
    }
}

/// Groups a slice plane into sub-words, zero-padding the final partial group.
///
/// # Example
///
/// ```
/// use sibia_sbr::subword::{to_subwords, SubWord};
/// let plane = [1i8, 0, 0, 0, 0, 0, 0, 0, 5];
/// let sw = to_subwords(&plane);
/// assert_eq!(sw.len(), 3);
/// assert!(!sw[0].is_zero());
/// assert!(sw[1].is_zero());
/// assert_eq!(sw[2], SubWord([5, 0, 0, 0]));
/// ```
pub fn to_subwords(plane: &[i8]) -> Vec<SubWord> {
    plane
        .chunks(SUBWORD_LANES)
        .map(|c| {
            let mut s = [0i8; 4];
            s[..c.len()].copy_from_slice(c);
            SubWord(s)
        })
        .collect()
}

/// Fraction of zero sub-words in a plane — the skippable fraction at
/// sub-word granularity (always ≤ the per-slice zero fraction).
///
/// Counts through the active kernel tier
/// ([`crate::kernels::KernelOps::zero_subword_count`]) rather than
/// materialising a `Vec<SubWord>`.
pub fn zero_subword_fraction(plane: &[i8]) -> f64 {
    if plane.is_empty() {
        return 0.0;
    }
    let groups = plane.len().div_ceil(SUBWORD_LANES);
    crate::kernels::active().zero_subword_count(plane) as f64 / groups as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_detection() {
        assert!(SubWord([0, 0, 0, 0]).is_zero());
        assert!(!SubWord([0, 0, -1, 0]).is_zero());
    }

    #[test]
    fn packing_uses_nibbles() {
        let sw = SubWord([1, -1, 0, 7]);
        // -1 → 0xF.
        assert_eq!(sw.packed(), 0x70F1);
    }

    #[test]
    fn grouping_pads_tail() {
        let sw = to_subwords(&[1, 2]);
        assert_eq!(sw, vec![SubWord([1, 2, 0, 0])]);
    }

    #[test]
    fn empty_plane_has_no_subwords() {
        assert!(to_subwords(&[]).is_empty());
        assert_eq!(zero_subword_fraction(&[]), 0.0);
    }

    #[test]
    fn subword_fraction_is_at_most_slice_fraction() {
        let plane = [0i8, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0];
        // 11/12 slices are zero but only 2/3 sub-words.
        let slice_frac = plane.iter().filter(|&&s| s == 0).count() as f64 / plane.len() as f64;
        let sw_frac = zero_subword_fraction(&plane);
        assert!(sw_frac <= slice_frac);
        assert!((sw_frac - 2.0 / 3.0).abs() < 1e-12);
    }
}
