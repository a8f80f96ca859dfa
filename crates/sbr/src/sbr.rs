//! The signed bit-slice representation (SBR) — the paper's core contribution.
//!
//! An `N`-bit 2's-complement value (`N = 3k + 1`) is decomposed into `k`
//! radix-8 **signed digits** `d_i ∈ [-7, 7]` such that
//! `x = Σ d_i · 8^i`. Each digit is stored as a 4-bit signed slice: the
//! paper's construction appends the global sign bit to the three magnitude
//! bits of each group and, for negative values, lets each slice *borrow* a
//! value of 1 from the next-lower slice (equivalently, the lower slice
//! *lends* `1000₂`). The borrow is only taken when the lower residue is
//! non-zero, which keeps every digit in `[-7, 7]` (the `1000₂` pattern never
//! appears) and leaves already-zero slices zero.
//!
//! The two benefits the paper builds on fall straight out of this digit set:
//!
//! * **Slice-level sparsity in dense data.** A small negative value such as
//!   `-3` (`1111101₂`) has conventional slices `[5, -1]` — no zeros — but SBR
//!   digits `[-3, 0]`: every high-order slice of a near-zero value is zero,
//!   regardless of sign.
//! * **Balanced slices.** Digits are symmetric around zero, so truncating to
//!   the high-order digits rounds *towards* the true value for positive and
//!   negative data alike, enabling accurate low-bit output speculation
//!   (paper Fig. 2).

use std::fmt;

use crate::error::RangeError;
use crate::precision::Precision;
use crate::MAX_SLICES;

/// The SBR decomposition of one fixed-point value.
///
/// Digits are stored least-significant first: `digits()[0]` is the LSB slice.
///
/// # Example
///
/// ```
/// use sibia_sbr::{Precision, SbrSlices};
///
/// // Paper Fig. 2: the high-order slice of -25 is -3 and of +25 is +3.
/// let neg = SbrSlices::encode(-25, Precision::BITS7);
/// let pos = SbrSlices::encode(25, Precision::BITS7);
/// assert_eq!(neg.digits(), &[-1, -3]);
/// assert_eq!(pos.digits(), &[1, 3]);
/// assert_eq!(neg.decode(), -25);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SbrSlices {
    digits: [i8; MAX_SLICES],
    len: u8,
    precision: Precision,
}

impl SbrSlices {
    /// Encodes `value` at `precision`.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside the symmetric range of `precision`
    /// (see [`Precision::max_magnitude`]); use [`Self::try_encode`] to handle
    /// that case. Linear symmetric quantization never produces such values.
    pub fn encode(value: i32, precision: Precision) -> Self {
        Self::try_encode(value, precision).expect("value outside symmetric range")
    }

    /// Encodes `value` at `precision`, checking the symmetric range.
    ///
    /// # Errors
    ///
    /// Returns [`RangeError`] if `value` is outside `[-max, max]` for the
    /// precision. In particular the asymmetric code `-2^(N-1)` is rejected:
    /// it cannot be expressed with digits in `[-7, 7]`.
    pub fn try_encode(value: i32, precision: Precision) -> Result<Self, RangeError> {
        precision.check(value)?;
        let len = precision.sbr_slices();
        debug_assert!(len <= MAX_SLICES);
        let mut digits = [0i8; MAX_SLICES];
        let mut r = value;
        for d in digits.iter_mut().take(len) {
            let mut digit = r.rem_euclid(8);
            // Borrow 1 from the lower slice only when this residue is
            // non-zero: a zero residue stays a zero slice, and no digit ever
            // becomes -8.
            if value < 0 && digit > 0 {
                digit -= 8;
            }
            *d = digit as i8;
            r = (r - digit) / 8;
        }
        debug_assert_eq!(r, 0, "greedy digit recurrence must terminate");
        Ok(Self {
            digits,
            len: len as u8,
            precision,
        })
    }

    /// The digits, least-significant first.
    pub fn digits(&self) -> &[i8] {
        &self.digits[..usize::from(self.len)]
    }

    /// The digit at slice order `order` (0 = LSB).
    ///
    /// # Panics
    ///
    /// Panics if `order >= self.num_slices()`.
    pub fn digit(&self, order: usize) -> i8 {
        self.digits()[order]
    }

    /// Number of slices.
    pub fn num_slices(&self) -> usize {
        usize::from(self.len)
    }

    /// The precision this value was encoded at.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Reconstructs the fixed-point value: `Σ d_i · 8^i`.
    pub fn decode(&self) -> i32 {
        self.digits()
            .iter()
            .rev()
            .fold(0i32, |acc, &d| acc * 8 + i32::from(d))
    }

    /// Reconstructs only the `n` highest-order slices, zeroing the rest —
    /// the quantity an output-speculating PE pre-computes.
    ///
    /// ```
    /// use sibia_sbr::{Precision, SbrSlices};
    /// let s = SbrSlices::encode(-25, Precision::BITS7);
    /// assert_eq!(s.decode_high(1), -24); // -3 × 8
    /// assert_eq!(s.decode_high(2), -25);
    /// ```
    pub fn decode_high(&self, n: usize) -> i32 {
        let len = self.num_slices();
        let keep = n.min(len);
        self.digits()
            .iter()
            .enumerate()
            .skip(len - keep)
            .map(|(i, &d)| i32::from(d) * 8i32.pow(i as u32))
            .sum()
    }

    /// Number of zero slices.
    pub fn zero_slices(&self) -> usize {
        self.digits().iter().filter(|&&d| d == 0).count()
    }

    /// Whether every slice is zero (i.e. the value is zero).
    pub fn is_zero(&self) -> bool {
        self.digits().iter().all(|&d| d == 0)
    }

    /// The 4-bit 2's-complement encoding of each slice as the hardware
    /// stores it, least-significant slice first.
    pub fn raw_nibbles(&self) -> impl Iterator<Item = u8> + '_ {
        self.digits().iter().map(|&d| (d as u8) & 0xF)
    }
}

impl fmt::Display for SbrSlices {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sbr[")?;
        for (i, d) in self.digits().iter().enumerate().rev() {
            write!(f, "{d}")?;
            if i != 0 {
                write!(f, ", ")?;
            }
        }
        write!(f, "]")
    }
}

/// Decomposes a whole tensor into per-order digit planes.
///
/// Plane `k` holds digit `k` (order `8^k`) of every element, in element
/// order. Planes are what the accelerator streams: sparsity, compression and
/// skipping all operate per plane.
///
/// Runs on the active [`crate::kernels`] tier; every tier is byte-identical
/// to encoding each value with [`SbrSlices::encode`].
///
/// # Panics
///
/// Panics if any value is outside the symmetric range of `precision`.
pub fn planes(values: &[i32], precision: Precision) -> Vec<Vec<i8>> {
    crate::kernels::active().sbr_planes(values, precision)
}

/// Rebuilds fixed-point values from per-order digit planes.
///
/// Inverse of [`planes`].
///
/// # Panics
///
/// Panics if planes are empty or have unequal lengths.
pub fn from_planes(planes: &[Vec<i8>]) -> Vec<i32> {
    let n = planes.first().expect("at least one plane").len();
    assert!(
        planes.iter().all(|p| p.len() == n),
        "planes must have equal lengths"
    );
    (0..n)
        .map(|i| {
            planes
                .iter()
                .rev()
                .fold(0i32, |acc, p| acc * 8 + i32::from(p[i]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_fig5_example() {
        // 1111101₂ = -3 decomposes into high slice 0000₂ and low slice 1101₂.
        let s = SbrSlices::encode(-3, Precision::BITS7);
        assert_eq!(s.digits(), &[-3, 0]);
        assert_eq!(s.decode(), -3);
        assert_eq!(s.zero_slices(), 1);
    }

    #[test]
    fn paper_fig2_balance_example() {
        let neg = SbrSlices::encode(-25, Precision::BITS7);
        let pos = SbrSlices::encode(25, Precision::BITS7);
        // High-order slices are ±3: balanced.
        assert_eq!(neg.digit(1), -3);
        assert_eq!(pos.digit(1), 3);
        // Speculative products of high slices are symmetric.
        assert_eq!(neg.digit(1) * pos.digit(1), -9);
        assert_eq!(pos.digit(1) * pos.digit(1), 9);
    }

    #[test]
    fn negative_multiples_of_eight_keep_zero_low_slice() {
        let s = SbrSlices::encode(-8, Precision::BITS7);
        assert_eq!(s.digits(), &[0, -1]);
        let s = SbrSlices::encode(-24, Precision::BITS7);
        assert_eq!(s.digits(), &[0, -3]);
    }

    #[test]
    fn digits_never_reach_minus_eight() {
        for v in -63..=63 {
            let s = SbrSlices::encode(v, Precision::BITS7);
            assert!(
                s.digits().iter().all(|&d| (-7..=7).contains(&d)),
                "value {v} produced digit outside [-7,7]: {s}"
            );
        }
    }

    #[test]
    fn round_trip_all_7bit() {
        for v in -63..=63 {
            assert_eq!(SbrSlices::encode(v, Precision::BITS7).decode(), v);
        }
    }

    #[test]
    fn round_trip_all_10bit() {
        for v in -511..=511 {
            assert_eq!(SbrSlices::encode(v, Precision::BITS10).decode(), v);
        }
    }

    #[test]
    fn round_trip_13bit_extremes() {
        for v in [-4095, -4094, -1, 0, 1, 4094, 4095] {
            assert_eq!(SbrSlices::encode(v, Precision::BITS13).decode(), v);
        }
    }

    #[test]
    fn rejects_asymmetric_minimum() {
        assert!(SbrSlices::try_encode(-64, Precision::BITS7).is_err());
        assert!(SbrSlices::try_encode(64, Precision::BITS7).is_err());
    }

    #[test]
    fn negative_near_zero_values_have_zero_high_slices() {
        // The paper's headline effect: ELU/GeLU outputs saturate to small
        // negatives whose conventional slices are all-ones but whose SBR high
        // slices are zero.
        for v in -7..0 {
            let s = SbrSlices::encode(v, Precision::BITS10);
            assert_eq!(s.digit(1), 0);
            assert_eq!(s.digit(2), 0);
        }
    }

    #[test]
    fn decode_high_truncates_low_orders() {
        let s = SbrSlices::encode(100, Precision::BITS10);
        // 100 = 1·64 + 4·8 + 4
        assert_eq!(s.digits(), &[4, 4, 1]);
        assert_eq!(s.decode_high(1), 64);
        assert_eq!(s.decode_high(2), 96);
        assert_eq!(s.decode_high(3), 100);
        assert_eq!(s.decode_high(9), 100); // clamped
    }

    #[test]
    fn speculation_error_is_bounded_by_dropped_orders() {
        for v in -511..=511 {
            let s = SbrSlices::encode(v, Precision::BITS10);
            // Dropping the low slice loses at most 7; dropping two loses at
            // most 7 + 56 = 63.
            assert!((v - s.decode_high(2)).abs() <= 7, "v={v}");
            assert!((v - s.decode_high(1)).abs() <= 63, "v={v}");
        }
    }

    #[test]
    fn planes_round_trip() {
        let values: Vec<i32> = (-63..=63).collect();
        let ps = planes(&values, Precision::BITS7);
        assert_eq!(ps.len(), 2);
        assert_eq!(from_planes(&ps), values);
    }

    #[test]
    fn raw_nibbles_match_twos_complement() {
        let s = SbrSlices::encode(-3, Precision::BITS7);
        let nibbles: Vec<u8> = s.raw_nibbles().collect();
        assert_eq!(nibbles, vec![0b1101, 0b0000]);
    }

    #[test]
    fn display_is_nonempty_and_high_first() {
        let s = SbrSlices::encode(-25, Precision::BITS7);
        assert_eq!(s.to_string(), "sbr[-3, -1]");
    }
}
