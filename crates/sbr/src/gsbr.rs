//! Generalized signed bit-slices: the SBR at arbitrary slice width.
//!
//! The paper's §II-C sketches the design space beyond 4-bit slices: a 3b×3b
//! signed MAC natively supports 3/5/7/9-bit precisions, a 5b×5b one
//! 5/9/13/17-bit. A signed slice of width `w` carries `w − 1` magnitude
//! bits, so digits are radix `2^(w-1)` in `[-(2^(w-1)−1), 2^(w-1)−1]` and
//! an `N`-bit precision is native when `N = (w−1)·k + 1`.
//!
//! [`crate::SbrSlices`] is the `w = 4` instance; this module provides the
//! parameterized form used by the slice-width ablation.

use std::fmt;

use crate::error::RangeError;
use crate::precision::Precision;

/// A signed-slice decomposition at slice width `w`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct GenSlices {
    digits: Vec<i16>,
    width: u8,
    precision: Precision,
}

impl GenSlices {
    /// Number of `w`-wide signed slices an `N`-bit precision needs:
    /// `ceil((N − 1) / (w − 1))`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `[2, 8]`.
    pub fn slice_count(precision: Precision, width: u8) -> usize {
        assert!((2..=8).contains(&width), "slice width must be in [2, 8]");
        (usize::from(precision.bits()) - 1).div_ceil(usize::from(width) - 1)
    }

    /// The smallest precision native to `width` that holds `bits`-bit data.
    pub fn native_precision(bits: u8, width: u8) -> Precision {
        let k = Self::slice_count(Precision::new(bits), width) as u8;
        Precision::new((width - 1) * k + 1)
    }

    /// Largest digit magnitude at `width`: `2^(w-1) − 1`.
    pub fn digit_max(width: u8) -> i16 {
        (1 << (width - 1)) - 1
    }

    /// Encodes `value` into signed `width`-bit slices.
    ///
    /// # Errors
    ///
    /// Returns [`RangeError`] if `value` is outside the symmetric range of
    /// `precision`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is outside `[2, 8]`.
    pub fn try_encode(value: i32, precision: Precision, width: u8) -> Result<Self, RangeError> {
        precision.check(value)?;
        let k = Self::slice_count(precision, width);
        let radix = 1i32 << (width - 1);
        let mut digits = Vec::with_capacity(k);
        let mut r = value;
        for _ in 0..k {
            let mut d = r.rem_euclid(radix);
            if value < 0 && d > 0 {
                d -= radix;
            }
            digits.push(d as i16);
            r = (r - d) / radix;
        }
        debug_assert_eq!(r, 0, "digit recurrence must terminate");
        Ok(Self {
            digits,
            width,
            precision,
        })
    }

    /// Encodes, panicking on out-of-range values.
    ///
    /// # Panics
    ///
    /// Panics if `value` is outside the symmetric range or `width` is
    /// outside `[2, 8]`.
    pub fn encode(value: i32, precision: Precision, width: u8) -> Self {
        Self::try_encode(value, precision, width).expect("value outside symmetric range")
    }

    /// The digits, least-significant first.
    pub fn digits(&self) -> &[i16] {
        &self.digits
    }

    /// Slice width in bits.
    pub fn width(&self) -> u8 {
        self.width
    }

    /// Reconstructs the value.
    pub fn decode(&self) -> i32 {
        let radix = 1i32 << (self.width - 1);
        self.digits
            .iter()
            .rev()
            .fold(0i32, |acc, &d| acc * radix + i32::from(d))
    }

    /// Number of zero slices.
    pub fn zero_slices(&self) -> usize {
        self.digits.iter().filter(|&&d| d == 0).count()
    }
}

impl fmt::Display for GenSlices {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "gsbr{}[", self.width)?;
        for (i, d) in self.digits.iter().enumerate().rev() {
            write!(f, "{d}")?;
            if i != 0 {
                write!(f, ", ")?;
            }
        }
        write!(f, "]")
    }
}

/// Slice-level MAC cost model for the width ablation: slice-order pass
/// count × per-pass MAC energy, with MAC energy scaling quadratically in
/// the operand width (array multiplier).
///
/// Returns `(passes, relative_energy)` for an `input_bits × weight_bits`
/// product at slice width `w`, normalized so `w = 4` at 7-bit × 7-bit is
/// 4 passes × 1.0.
pub fn width_cost(input_bits: u8, weight_bits: u8, width: u8) -> (usize, f64) {
    let ki = GenSlices::slice_count(Precision::new(input_bits), width);
    let kw = GenSlices::slice_count(Precision::new(weight_bits), width);
    let passes = ki * kw;
    let per_mac = f64::from(width) * f64::from(width) / 16.0;
    (passes, passes as f64 * per_mac)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn width4_matches_sbr_slices() {
        use crate::sbr::SbrSlices;
        for v in -511..=511 {
            let g = GenSlices::encode(v, Precision::BITS10, 4);
            let s = SbrSlices::encode(v, Precision::BITS10);
            let gd: Vec<i8> = g.digits().iter().map(|&d| d as i8).collect();
            assert_eq!(&gd[..], s.digits(), "v={v}");
        }
    }

    #[test]
    fn round_trip_all_widths() {
        for width in 2..=6u8 {
            for bits in [5u8, 7, 9, 13] {
                let p = Precision::new(bits);
                let m = p.max_magnitude();
                let step = (m / 300).max(1);
                let mut v = -m;
                while v <= m {
                    assert_eq!(
                        GenSlices::encode(v, p, width).decode(),
                        v,
                        "w={width} bits={bits} v={v}"
                    );
                    v += step;
                }
            }
        }
    }

    #[test]
    fn digits_stay_in_balanced_range() {
        for width in 2..=6u8 {
            let p = Precision::new(9);
            let m = p.max_magnitude();
            for v in (-m..=m).step_by(7) {
                let g = GenSlices::encode(v, p, width);
                let dm = GenSlices::digit_max(width);
                assert!(g.digits().iter().all(|d| d.abs() <= dm), "w={width} v={v}");
            }
        }
    }

    #[test]
    fn native_precisions_match_paper_examples() {
        // §II-C: 3b×3b signed supports 3, 5, 7, 9-bit; 5b×5b signed
        // supports 5, 9, 13, 17-bit.
        assert_eq!(GenSlices::slice_count(Precision::new(9), 3), 4);
        assert_eq!(GenSlices::native_precision(8, 3), Precision::new(9));
        assert_eq!(GenSlices::native_precision(12, 5), Precision::new(13));
        assert_eq!(GenSlices::native_precision(16, 5), Precision::new(17));
        assert_eq!(GenSlices::native_precision(7, 4), Precision::BITS7);
    }

    #[test]
    fn near_zero_negatives_zero_high_slices_at_any_width() {
        for width in 3..=5u8 {
            let g = GenSlices::encode(-3, Precision::new(9), width);
            assert!(g.digits().last().copied() == Some(0), "w={width}: {g}");
            assert!(g.zero_slices() >= g.digits().len() - 1);
        }
    }

    #[test]
    fn width_cost_prefers_4bit_at_7bit_precision() {
        // The paper's choice: at the 7-bit headline precision, w=4 gives
        // the best energy among 3/4/5 (2 slices vs 3, narrower than 5b).
        let (_, e3) = width_cost(7, 7, 3);
        let (p4, e4) = width_cost(7, 7, 4);
        let (_, e5) = width_cost(7, 7, 5);
        assert_eq!(p4, 4);
        assert!(e4 < e3, "4-bit {e4} vs 3-bit {e3}");
        assert!(e4 < e5, "4-bit {e4} vs 5-bit {e5}");
    }

    #[test]
    #[should_panic(expected = "slice width")]
    fn rejects_bad_width() {
        let _ = GenSlices::encode(0, Precision::BITS7, 9);
    }
}
