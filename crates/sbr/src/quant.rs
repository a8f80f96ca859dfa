//! Linear symmetric quantization.
//!
//! The paper states: *"This work conducts the linear symmetric quantization
//! for the accurate bit-slice-based output speculation."* Symmetric
//! quantization maps real data onto `[-(2^(N-1) - 1), 2^(N-1) - 1]`,
//! excluding the asymmetric code `-2^(N-1)` — exactly the precondition under
//! which SBR digits stay in `[-7, 7]`.

use std::fmt;

use crate::precision::Precision;

/// A linear symmetric quantizer: `q = clamp(round(x / scale))`.
///
/// # Example
///
/// ```
/// use sibia_sbr::{Precision, Quantizer};
///
/// let data = [-1.0f32, -0.03, 0.0, 0.5, 1.0];
/// let q = Quantizer::fit(&data, Precision::BITS7);
/// let codes = q.quantize_all(&data);
/// assert_eq!(codes[4], 63);          // max magnitude maps to +63
/// assert_eq!(codes[0], -63);
/// assert!(codes[1].abs() <= 2);      // near-zero stays near zero
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantizer {
    scale: f32,
    precision: Precision,
}

impl Quantizer {
    /// Creates a quantizer with an explicit scale (real units per code).
    ///
    /// # Panics
    ///
    /// Panics if `scale` is not finite and positive.
    pub fn new(scale: f32, precision: Precision) -> Self {
        assert!(
            scale.is_finite() && scale > 0.0,
            "scale must be finite and positive, got {scale}"
        );
        Self { scale, precision }
    }

    /// Fits the scale to the maximum absolute value of `data`
    /// (`scale = max|x| / (2^(N-1) - 1)`), the calibration the paper's
    /// linear symmetric quantization implies.
    ///
    /// All-zero (or empty) data gets a scale of 1, mapping everything to 0.
    pub fn fit(data: &[f32], precision: Precision) -> Self {
        Self::new(fit_scale(data, precision), precision)
    }

    /// The real-unit size of one quantization step.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The target precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Quantizes one real value to a symmetric fixed-point code:
    /// `x / scale` rounded half away from zero (`2.5 → 3`, `-2.5 → -3`).
    /// NaN maps to 0; ±∞ and values beyond the symmetric range map to
    /// ±`max_magnitude`.
    pub fn quantize(&self, x: f32) -> i32 {
        round_to_code(x / self.scale, self.precision)
    }

    /// Reconstructs the real value of a code.
    pub fn dequantize(&self, q: i32) -> f32 {
        q as f32 * self.scale
    }

    /// Quantizes a whole tensor, value by value as [`Self::quantize`].
    pub fn quantize_all(&self, data: &[f32]) -> Vec<i32> {
        // The closure owns copies of the fields: captured by reference,
        // they are reloaded for every value and the loop does not vectorize.
        let Self { scale, precision } = *self;
        data.iter()
            .map(move |&x| round_to_code(x / scale, precision))
            .collect()
    }

    /// Dequantizes a whole tensor.
    pub fn dequantize_all(&self, codes: &[i32]) -> Vec<f32> {
        codes.iter().map(|&q| self.dequantize(q)).collect()
    }
}

/// The scale mapping the largest magnitude in `data` to the precision's
/// symmetric maximum; 1 when `data` is all zero or empty.
fn fit_scale(data: &[f32], precision: Precision) -> f32 {
    let max = data.iter().fold(0.0f32, |m, &x| m.max(x.abs()));
    if max > 0.0 {
        max / precision.max_magnitude() as f32
    } else {
        1.0
    }
}

/// The one rounding rule of both quantizers: `y` clamped to the symmetric
/// range of `precision`, then rounded half away from zero; NaN maps to 0.
///
/// Equal to `(y.round() as i64).clamp(-max, max)` for every `f32`, without
/// the libm `round` call and the saturating conversion, so a loop over it
/// vectorizes. Clamping first changes nothing: `max` is an integer, so
/// rounding never carries a value inside the range out of it.
#[inline]
fn round_to_code(y: f32, precision: Precision) -> i32 {
    let max = precision.max_magnitude() as f32;
    let c = if y.is_nan() { 0.0 } else { y.clamp(-max, max) };
    // SAFETY: `c` is not NaN and |c| <= max <= 2^18 - 1 (a `Precision` has
    // at most 19 bits), so it is finite and its truncation fits an `i32`.
    let t: i32 = unsafe { c.to_int_unchecked() };
    // `c - trunc(c)` is exact in `f32`.
    let frac = c - t as f32;
    t + i32::from(frac >= 0.5) - i32::from(frac <= -0.5)
}

impl fmt::Display for Quantizer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "symmetric {} quantizer (scale {})",
            self.precision, self.scale
        )
    }
}

/// Per-output-channel symmetric quantization: one scale per channel.
///
/// An extension beyond the paper's per-tensor quantization (its §VI notes
/// the design "would be extended to ... future proposals"): per-channel
/// scales tighten weight quantization considerably, which *reduces* the
/// outlier-driven slice sparsity the SBR harvests — a real trade-off this
/// type lets downstream users study.
///
/// # Example
///
/// ```
/// use sibia_sbr::{quant::ChannelQuantizer, Precision};
///
/// // Two channels with very different ranges.
/// let data = [0.01f32, -0.02, 5.0, -4.0];
/// let q = ChannelQuantizer::fit(&data, 2, Precision::BITS7);
/// let codes = q.quantize_all(&data);
/// assert_eq!(codes[2], 63); // each channel uses its full range
/// assert!(codes[0].abs() > 20);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelQuantizer {
    scales: Vec<f32>,
    precision: Precision,
}

impl ChannelQuantizer {
    /// Fits one scale per channel; `data` is channel-major
    /// (`channels` equal contiguous chunks). As in [`Quantizer::fit`], an
    /// all-zero (or empty) channel gets a scale of 1.
    ///
    /// # Panics
    ///
    /// Panics if `channels` is zero or does not divide `data.len()`.
    pub fn fit(data: &[f32], channels: usize, precision: Precision) -> Self {
        assert!(channels > 0, "need at least one channel");
        assert_eq!(data.len() % channels, 0, "channels must divide the data");
        let chunk = data.len() / channels;
        let scales = (0..channels)
            .map(|ch| fit_scale(&data[ch * chunk..][..chunk], precision))
            .collect();
        Self { scales, precision }
    }

    /// The per-channel scales.
    pub fn scales(&self) -> &[f32] {
        &self.scales
    }

    /// The target precision.
    pub fn precision(&self) -> Precision {
        self.precision
    }

    /// Quantizes channel-major data with each channel's own scale.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not `channels × chunk` for the fitted
    /// channel count.
    pub fn quantize_all(&self, data: &[f32]) -> Vec<i32> {
        assert_eq!(data.len() % self.scales.len(), 0, "data/channel mismatch");
        let chunk = data.len() / self.scales.len();
        let precision = self.precision;
        let mut codes = Vec::with_capacity(data.len());
        for (ch, &scale) in self.scales.iter().enumerate() {
            let channel = &data[ch * chunk..][..chunk];
            codes.extend(
                channel
                    .iter()
                    .map(move |&x| round_to_code(x / scale, precision)),
            );
        }
        codes
    }

    /// Dequantizes channel-major codes.
    pub fn dequantize_all(&self, codes: &[i32]) -> Vec<f32> {
        let chunk = codes.len() / self.scales.len();
        (0..self.scales.len())
            .flat_map(|ch| {
                let s = self.scales[ch];
                codes[ch * chunk..][..chunk]
                    .iter()
                    .map(move |&q| q as f32 * s)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The former rounding expression, kept as the reference: libm
    /// `round`, a saturating conversion, then the clamp.
    fn reference(x: f32, scale: f32, p: Precision) -> i32 {
        let m = i64::from(p.max_magnitude());
        ((x / scale).round() as i64).clamp(-m, m) as i32
    }

    /// Compares `quantize` and `quantize_all` with [`reference`] on `xs`.
    fn assert_matches_reference(xs: &[f32], scale: f32, p: Precision) {
        let q = Quantizer::new(scale, p);
        let all = q.quantize_all(xs);
        assert_eq!(all.len(), xs.len());
        for (&x, &code) in xs.iter().zip(&all) {
            let want = reference(x, scale, p);
            assert_eq!(q.quantize(x), want, "{p} x={x:e} ({:#010x})", x.to_bits());
            assert_eq!(
                code,
                want,
                "{p} quantize_all x={x:e} ({:#010x})",
                x.to_bits()
            );
        }
    }

    #[test]
    fn rounding_matches_reference_at_ties_and_specials() {
        for bits in 2..=19 {
            let p = Precision::new(bits);
            let mut xs = vec![
                0.0,
                -0.0,
                f32::INFINITY,
                f32::NEG_INFINITY,
                f32::NAN,
                f32::from_bits(1), // smallest subnormal
                f32::MAX,
                -f32::MAX,
            ];
            // Every tie k + 1/2 up to one past the range, and the values one
            // ULP either side of it, in both signs.
            for k in 0..=p.max_magnitude() + 1 {
                let tie = k as f32 + 0.5;
                for x in [
                    f32::from_bits(tie.to_bits() - 1),
                    tie,
                    f32::from_bits(tie.to_bits() + 1),
                ] {
                    xs.extend([x, -x]);
                }
            }
            assert_matches_reference(&xs, 1.0, p);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bit patterns (NaNs, infinities and subnormals
        /// included) at arbitrary positive finite scales.
        #[test]
        fn rounding_matches_reference_on_any_bits(
            xs in prop::collection::vec(any::<u32>(), 0..40),
            scale_bits in any::<u32>(),
            bits in 2u8..=19,
        ) {
            let scale = f32::from_bits(scale_bits & 0x7fff_ffff);
            prop_assume!(scale.is_finite() && scale > 0.0);
            let xs: Vec<f32> = xs.into_iter().map(f32::from_bits).collect();
            assert_matches_reference(&xs, scale, Precision::new(bits));
        }
    }

    /// Every `f32` bit pattern at 4, 7, 10 and 13 bits and scale 1. Takes
    /// about half a minute per precision in a release build:
    /// `cargo test --release -p sibia-sbr -- --ignored`.
    #[test]
    #[ignore = "exhaustive over 2^32 inputs; run in release"]
    fn rounding_matches_reference_on_every_f32() {
        for p in [
            Precision::BITS4,
            Precision::BITS7,
            Precision::BITS10,
            Precision::BITS13,
        ] {
            std::thread::scope(|scope| {
                for half in 0..2u32 {
                    scope.spawn(move || {
                        let mut xs = vec![0.0f32; 1 << 16];
                        for high in (half << 15)..((half + 1) << 15) {
                            for (low, x) in xs.iter_mut().enumerate() {
                                *x = f32::from_bits(high << 16 | low as u32);
                            }
                            assert_matches_reference(&xs, 1.0, p);
                        }
                    });
                }
            });
        }
    }

    #[test]
    fn fit_covers_extremes() {
        let data = [-2.0f32, 0.0, 1.0];
        let q = Quantizer::fit(&data, Precision::BITS7);
        assert_eq!(q.quantize(-2.0), -63);
        assert_eq!(q.quantize(2.0), 63);
        assert_eq!(q.quantize(0.0), 0);
    }

    #[test]
    fn codes_stay_in_symmetric_range() {
        let data: Vec<f32> = (-100..=100).map(|i| i as f32 / 10.0).collect();
        let q = Quantizer::fit(&data, Precision::BITS7);
        for &x in &data {
            let code = q.quantize(x * 2.0); // even out-of-calibration values
            assert!(code.abs() <= 63);
        }
    }

    #[test]
    fn round_trip_error_bounded_by_half_step() {
        let data: Vec<f32> = (-50..=50).map(|i| i as f32 * 0.017).collect();
        let q = Quantizer::fit(&data, Precision::BITS10);
        for &x in &data {
            let err = (q.dequantize(q.quantize(x)) - x).abs();
            assert!(err <= q.scale() / 2.0 + 1e-6, "x={x} err={err}");
        }
    }

    #[test]
    fn all_zero_data_quantizes_to_zero() {
        let q = Quantizer::fit(&[0.0, 0.0], Precision::BITS7);
        assert_eq!(q.quantize(0.0), 0);
        assert_eq!(q.scale(), 1.0);
    }

    #[test]
    fn never_produces_asymmetric_minimum() {
        let data = [-1.0f32, 1.0];
        let q = Quantizer::fit(&data, Precision::BITS7);
        assert_eq!(q.quantize(-1.0e9), -63);
    }

    #[test]
    #[should_panic(expected = "scale must be finite")]
    fn rejects_bad_scale() {
        let _ = Quantizer::new(0.0, Precision::BITS7);
    }

    #[test]
    fn channel_quantizer_uses_per_channel_ranges() {
        // Channel 0: tiny values; channel 1: large values. Per-tensor
        // quantization would crush channel 0 to zero codes.
        let data = [0.01f32, -0.008, 0.005, 0.0, 8.0, -6.0, 2.0, 1.0];
        let per_tensor = Quantizer::fit(&data, Precision::BITS7).quantize_all(&data);
        let per_channel = ChannelQuantizer::fit(&data, 2, Precision::BITS7).quantize_all(&data);
        assert!(per_tensor[0].abs() <= 1, "per-tensor crushes channel 0");
        assert!(per_channel[0].abs() > 30, "per-channel preserves it");
        // Round trip within half a step per channel.
        let cq = ChannelQuantizer::fit(&data, 2, Precision::BITS7);
        let back = cq.dequantize_all(&per_channel);
        for ((x, y), s) in data.iter().zip(&back).zip(
            cq.scales()
                .iter()
                .flat_map(|&s| std::iter::repeat(s).take(4)),
        ) {
            assert!((x - y).abs() <= s / 2.0 + 1e-6);
        }
    }

    #[test]
    fn channel_quantizer_reduces_slice_sparsity() {
        // The trade-off: tighter per-channel scales spread codes across the
        // full range, shrinking the near-zero mass the SBR harvests.
        use crate::stats::SparsityReport;
        let mut data = Vec::new();
        for ch in 0..8 {
            let amp = 0.05f32 * (1 << ch) as f32;
            for i in 0..64 {
                data.push(amp * (((i * 37 + ch) % 15) as f32 - 7.0) / 7.0);
            }
        }
        let pt = Quantizer::fit(&data, Precision::BITS7).quantize_all(&data);
        let pc = ChannelQuantizer::fit(&data, 8, Precision::BITS7).quantize_all(&data);
        let r_pt = SparsityReport::analyze(&pt, Precision::BITS7);
        let r_pc = SparsityReport::analyze(&pc, Precision::BITS7);
        assert!(
            r_pc.signed.overall < r_pt.signed.overall,
            "per-channel {} vs per-tensor {}",
            r_pc.signed.overall,
            r_pt.signed.overall
        );
    }

    #[test]
    fn channel_quantizer_handles_empty_data() {
        let q = ChannelQuantizer::fit(&[], 3, Precision::BITS7);
        assert_eq!(q.scales(), &[1.0, 1.0, 1.0]);
        assert!(q.quantize_all(&[]).is_empty());
        assert!(q.dequantize_all(&[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "channels must divide")]
    fn channel_quantizer_validates_layout() {
        let _ = ChannelQuantizer::fit(&[0.0; 7], 2, Precision::BITS7);
    }
}
