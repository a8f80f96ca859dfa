//! Speculative dot products over bit-slice representations.

use std::fmt;

use sibia_sbr::Precision;

/// Which slice decomposition the speculating PE operates on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SliceRepr {
    /// The paper's balanced signed bit-slices.
    Signed,
    /// The conventional MSB-aligned decomposition of prior output-skipping
    /// architectures (unbalanced).
    Conventional,
}

impl fmt::Display for SliceRepr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SliceRepr::Signed => write!(f, "signed bit-slice"),
            SliceRepr::Conventional => write!(f, "conventional bit-slice"),
        }
    }
}

/// A speculative dot-product engine keeping only the top slice orders of
/// each operand.
///
/// # Example
///
/// ```
/// use sibia_sbr::Precision;
/// use sibia_speculate::{SliceRepr, Speculator};
///
/// // Paper Fig. 2: with one high slice kept on each side, the signed
/// // representation speculates (-25)·25 + 25·25 as (-3)(3)+(3)(3) = 0 —
/// // matching the true 0 — while the conventional one gets
/// // (-4)(3)+(3)(3) = -3 (scaled by 64).
/// let p = Precision::BITS7;
/// let sbr = Speculator::new(SliceRepr::Signed, 1, 1);
/// let conv = Speculator::new(SliceRepr::Conventional, 1, 1);
/// assert_eq!(sbr.speculate_dot(&[-25, 25], &[25, 25], p, p), 0);
/// assert_eq!(conv.speculate_dot(&[-25, 25], &[25, 25], p, p), -3 * 64);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Speculator {
    repr: SliceRepr,
    input_kept: usize,
    weight_kept: usize,
}

impl Speculator {
    /// Creates a speculator keeping the top `input_kept` input slice orders
    /// and `weight_kept` weight slice orders.
    ///
    /// # Panics
    ///
    /// Panics if either kept count is zero.
    pub fn new(repr: SliceRepr, input_kept: usize, weight_kept: usize) -> Self {
        assert!(
            input_kept > 0 && weight_kept > 0,
            "must keep at least one slice"
        );
        Self {
            repr,
            input_kept,
            weight_kept,
        }
    }

    /// The representation.
    pub fn repr(&self) -> SliceRepr {
        self.repr
    }

    /// Kept input slice orders.
    pub fn input_kept(&self) -> usize {
        self.input_kept
    }

    /// Kept weight slice orders.
    pub fn weight_kept(&self) -> usize {
        self.weight_kept
    }

    /// High-order reconstruction of one value under this speculator's
    /// representation: what `decode_high(kept)` of the value's slices
    /// returns, without encoding them.
    ///
    /// Both decompositions are radix 8 with `len = precision.sbr_slices()`
    /// slices, so dropping all but the top `kept` clears the low
    /// `s = 3·(len − min(kept, len))` bits:
    ///
    /// * signed digits are the magnitude's digits with the value's sign, so
    ///   the high part is `sign(v)·((|v| >> s) << s)` — it rounds towards
    ///   zero;
    /// * conventional slices are the 2's-complement bit groups, so it is
    ///   `(v >> s) << s` — it rounds towards −∞.
    ///
    /// Keeping no slice gives 0.
    ///
    /// # Panics
    ///
    /// Panics if `v` is outside the symmetric range of `precision`.
    pub fn high_part(&self, v: i32, precision: Precision, kept: usize) -> i64 {
        precision.check(v).expect("value outside symmetric range");
        if kept == 0 {
            return 0;
        }
        let len = precision.sbr_slices();
        let shift = 3 * (len - kept.min(len));
        let high = match self.repr {
            SliceRepr::Signed => v.signum() * ((v.abs() >> shift) << shift),
            SliceRepr::Conventional => (v >> shift) << shift,
        };
        i64::from(high)
    }

    /// The speculative (pre-computed) dot product `Σ I_H · W_H`.
    ///
    /// # Panics
    ///
    /// Panics if the operand lengths differ or any value is out of range.
    pub fn speculate_dot(
        &self,
        inputs: &[i32],
        weights: &[i32],
        input_precision: Precision,
        weight_precision: Precision,
    ) -> i64 {
        assert_eq!(inputs.len(), weights.len(), "operand lengths must match");
        inputs
            .iter()
            .zip(weights)
            .map(|(&x, &w)| {
                self.high_part(x, input_precision, self.input_kept)
                    * self.high_part(w, weight_precision, self.weight_kept)
            })
            .sum()
    }

    /// The exact dot product (ground truth).
    pub fn exact_dot(inputs: &[i32], weights: &[i32]) -> i64 {
        assert_eq!(inputs.len(), weights.len(), "operand lengths must match");
        inputs
            .iter()
            .zip(weights)
            .map(|(&x, &w)| i64::from(x) * i64::from(w))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sibia_sbr::conv::MsbSlices;
    use sibia_sbr::SbrSlices;

    #[test]
    fn fig2_worked_example() {
        let p = Precision::BITS7;
        let sbr = Speculator::new(SliceRepr::Signed, 1, 1);
        let conv = Speculator::new(SliceRepr::Conventional, 1, 1);
        // Individual speculative products (in units of 64 = 8·8):
        assert_eq!(sbr.high_part(-25, p, 1), -24);
        assert_eq!(sbr.high_part(25, p, 1), 24);
        assert_eq!(conv.high_part(-25, p, 1), -32);
        assert_eq!(conv.high_part(25, p, 1), 24);
        // True result of -25·25 + 25·25 is 0.
        assert_eq!(Speculator::exact_dot(&[-25, 25], &[25, 25]), 0);
        assert_eq!(sbr.speculate_dot(&[-25, 25], &[25, 25], p, p), 0);
        assert_eq!(conv.speculate_dot(&[-25, 25], &[25, 25], p, p), -192);
    }

    #[test]
    fn signed_speculation_is_unbiased_conventional_is_not() {
        // The SBR's low slices are symmetric around zero, so speculation
        // error averages out; the conventional low slices are non-negative,
        // so every dropped term biases the speculative value the same way.
        // Bias — not per-sample noise — is what corrupts speculative
        // rankings.
        let p = Precision::BITS7;
        let sbr = Speculator::new(SliceRepr::Signed, 1, 1);
        let conv = Speculator::new(SliceRepr::Conventional, 1, 1);
        let mut sum_sbr = 0i64;
        let mut sum_conv = 0i64;
        let mut n = 0i64;
        for trial in 0..200 {
            let xs: Vec<i32> = (0..32)
                .map(|i| (((trial * 131 + i) * 37 + 11) % 127) - 63)
                .collect();
            let ws: Vec<i32> = (0..32)
                .map(|i| (((trial * 71 + i) * 53 + 29) % 127) - 63)
                .collect();
            let truth = Speculator::exact_dot(&xs, &ws);
            sum_sbr += sbr.speculate_dot(&xs, &ws, p, p) - truth;
            sum_conv += conv.speculate_dot(&xs, &ws, p, p) - truth;
            n += 32;
        }
        let bias_sbr = (sum_sbr as f64 / n as f64).abs();
        let bias_conv = (sum_conv as f64 / n as f64).abs();
        // Conventional per-term bias is ≈ E[xL]·E[wL] + cross terms ≈ 12;
        // SBR bias is near zero.
        assert!(bias_sbr < 2.0, "sbr bias {bias_sbr}");
        assert!(bias_conv > 6.0, "conv bias {bias_conv}");
        assert!(bias_sbr < bias_conv / 4.0);
    }

    #[test]
    fn signed_speculation_is_sign_symmetric() {
        let p = Precision::BITS10;
        let s = Speculator::new(SliceRepr::Signed, 2, 2);
        let xs: Vec<i32> = (0..64).map(|i| (i * 13 % 500) - 250).collect();
        let ws: Vec<i32> = (0..64).map(|i| (i * 7 % 500) - 250).collect();
        let neg_xs: Vec<i32> = xs.iter().map(|x| -x).collect();
        assert_eq!(
            s.speculate_dot(&xs, &ws, p, p),
            -s.speculate_dot(&neg_xs, &ws, p, p)
        );
    }

    #[test]
    fn keeping_all_slices_is_exact() {
        let p = Precision::BITS7;
        for repr in [SliceRepr::Signed, SliceRepr::Conventional] {
            let s = Speculator::new(repr, 2, 2);
            let xs = vec![-63, -1, 0, 17, 63];
            let ws = vec![5, -5, 63, -63, 1];
            assert_eq!(
                s.speculate_dot(&xs, &ws, p, p),
                Speculator::exact_dot(&xs, &ws)
            );
        }
    }

    #[test]
    fn high_part_matches_decode_high_exhaustively() {
        // Every value of every precision, every kept count up to one past
        // the slice count, against decoding the encoded slices.
        let sbr = Speculator::new(SliceRepr::Signed, 1, 1);
        let conv = Speculator::new(SliceRepr::Conventional, 1, 1);
        for bits in 2..=19 {
            let p = Precision::new(bits);
            let max = p.max_magnitude();
            let len = p.sbr_slices();
            for v in -max..=max {
                let signed = SbrSlices::encode(v, p);
                let msb = MsbSlices::encode(v, p);
                for kept in 1..=len + 1 {
                    assert_eq!(
                        sbr.high_part(v, p, kept),
                        i64::from(signed.decode_high(kept)),
                        "signed {v} at {bits} bits, {kept} kept"
                    );
                    assert_eq!(
                        conv.high_part(v, p, kept),
                        i64::from(msb.decode_high(kept)),
                        "conventional {v} at {bits} bits, {kept} kept"
                    );
                }
            }
        }
    }

    #[test]
    fn high_part_keeping_no_slice_is_zero() {
        for bits in [2, 4, 7, 13] {
            let p = Precision::new(bits);
            let max = p.max_magnitude();
            for repr in [SliceRepr::Signed, SliceRepr::Conventional] {
                let s = Speculator::new(repr, 1, 1);
                for v in -max..=max {
                    assert_eq!(s.high_part(v, p, 0), 0, "{repr:?} {v} at {bits} bits");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "value outside symmetric range")]
    fn high_part_rejects_max_plus_one_at_7_bits() {
        let p = Precision::BITS7;
        let _ = Speculator::new(SliceRepr::Signed, 1, 1).high_part(p.max_magnitude() + 1, p, 1);
    }

    #[test]
    #[should_panic(expected = "value outside symmetric range")]
    fn high_part_rejects_minus_max_minus_one_at_7_bits() {
        let p = Precision::BITS7;
        let _ =
            Speculator::new(SliceRepr::Conventional, 1, 1).high_part(-p.max_magnitude() - 1, p, 1);
    }

    #[test]
    #[should_panic(expected = "value outside symmetric range")]
    fn high_part_rejects_i32_min_at_7_bits() {
        let _ = Speculator::new(SliceRepr::Signed, 1, 1).high_part(i32::MIN, Precision::BITS7, 1);
    }

    #[test]
    #[should_panic(expected = "value outside symmetric range")]
    fn high_part_rejects_max_plus_one_at_13_bits() {
        let p = Precision::BITS13;
        let _ =
            Speculator::new(SliceRepr::Conventional, 1, 1).high_part(p.max_magnitude() + 1, p, 2);
    }

    #[test]
    #[should_panic(expected = "value outside symmetric range")]
    fn high_part_rejects_minus_max_minus_one_at_13_bits() {
        let p = Precision::BITS13;
        let _ = Speculator::new(SliceRepr::Signed, 1, 1).high_part(-p.max_magnitude() - 1, p, 2);
    }

    #[test]
    #[should_panic(expected = "value outside symmetric range")]
    fn high_part_rejects_i32_min_at_13_bits() {
        let _ = Speculator::new(SliceRepr::Conventional, 1, 1).high_part(
            i32::MIN,
            Precision::BITS13,
            2,
        );
    }

    #[test]
    #[should_panic(expected = "at least one slice")]
    fn zero_kept_rejected() {
        let _ = Speculator::new(SliceRepr::Signed, 0, 1);
    }
}
