//! Activation functions.
//!
//! The paper's central observation is distributional: ReLU produces exact
//! zeros (full bit-width sparsity), while the *non-ReLU* functions — GeLU,
//! Leaky-ReLU, ELU — saturate negative inputs to small negative values that
//! conventional bit-slices cannot skip but signed bit-slices can.

use std::fmt;

#[cfg(target_arch = "x86_64")]
use sibia_sbr::kernels::{self, KernelTier};

use crate::tanhf::tanhf;

/// An elementwise activation function.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum Activation {
    /// No activation (e.g. projection layers).
    #[default]
    Identity,
    /// `max(0, x)` — produces exact zeros.
    Relu,
    /// `x > 0 ? x : alpha·x` (YoloV3, DGCNN use `alpha = 0.1`).
    LeakyRelu {
        /// Negative-side slope.
        alpha: f32,
    },
    /// Gaussian error linear unit (Albert, ViT) — tanh approximation.
    Gelu,
    /// `x > 0 ? x : alpha·(exp(x) − 1)` (MonoDepth2 decoder).
    Elu {
        /// Negative saturation magnitude.
        alpha: f32,
    },
}

impl Activation {
    /// The conventional Leaky-ReLU used by YoloV3 / DGCNN.
    pub const LEAKY_RELU_01: Activation = Activation::LeakyRelu { alpha: 0.1 };
    /// The conventional ELU with unit saturation.
    pub const ELU_1: Activation = Activation::Elu { alpha: 1.0 };

    /// Applies the function to one value.
    pub fn apply(&self, x: f32) -> f32 {
        match *self {
            Activation::Identity => x,
            Activation::Relu => relu(x),
            Activation::LeakyRelu { alpha } => leaky_relu(x, alpha),
            Activation::Gelu => gelu(x),
            Activation::Elu { alpha } => elu(x, alpha),
        }
    }

    /// [`Self::apply`] to every value in place, bit for bit. The function
    /// is chosen once per call, and each arm is a loop over one function,
    /// so the branch-free ones vectorize. GELU runs an AVX2 instance when
    /// the process kernel tier (`sibia_sbr::kernels::active`) is AVX2, as
    /// the sampler's Box–Muller math does.
    pub(crate) fn apply_in_place(&self, values: &mut [f32]) {
        match *self {
            Activation::Identity => {}
            Activation::Relu => values.iter_mut().for_each(|v| *v = relu(*v)),
            Activation::LeakyRelu { alpha } => {
                values.iter_mut().for_each(|v| *v = leaky_relu(*v, alpha))
            }
            Activation::Gelu => {
                #[cfg(target_arch = "x86_64")]
                if kernels::active().tier == KernelTier::Avx2 {
                    // SAFETY: the AVX2 tier is only selected, detected or
                    // forced, after CPUID reports AVX2
                    // (`KernelTier::supported`).
                    unsafe { gelu_avx2(values) };
                    return;
                }
                gelu_plain(values);
            }
            Activation::Elu { alpha } => values.iter_mut().for_each(|v| *v = elu(*v, alpha)),
        }
    }

    /// Whether negative inputs map to exact zero (only true for ReLU) —
    /// i.e. whether the function produces full bit-width sparsity that even
    /// non-slice architectures can exploit.
    pub fn zeroes_negatives(&self) -> bool {
        matches!(self, Activation::Relu)
    }
}

#[inline(always)]
fn relu(x: f32) -> f32 {
    x.max(0.0)
}

#[inline(always)]
fn leaky_relu(x: f32, alpha: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        alpha * x
    }
}

/// GELU, tanh approximation (Hendrycks & Gimpel), with glibc's `tanhf`
/// ported branch-free so a loop of it vectorizes.
#[inline(always)]
fn gelu(x: f32) -> f32 {
    let c = (2.0f32 / std::f32::consts::PI).sqrt();
    0.5 * x * (1.0 + tanhf(c * (x + 0.044_715 * x * x * x)))
}

#[inline(always)]
fn elu(x: f32, alpha: f32) -> f32 {
    if x > 0.0 {
        x
    } else {
        alpha * (x.exp() - 1.0)
    }
}

/// The GELU loop compiled for the target's baseline instruction set.
fn gelu_plain(values: &mut [f32]) {
    values.iter_mut().for_each(|v| *v = gelu(*v));
}

/// The GELU loop compiled with AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gelu_avx2(values: &mut [f32]) {
    values.iter_mut().for_each(|v| *v = gelu(*v));
}

impl fmt::Display for Activation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Activation::Identity => write!(f, "identity"),
            Activation::Relu => write!(f, "ReLU"),
            Activation::LeakyRelu { alpha } => write!(f, "LeakyReLU({alpha})"),
            Activation::Gelu => write!(f, "GeLU"),
            Activation::Elu { alpha } => write!(f, "ELU({alpha})"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_zeroes_negatives() {
        assert_eq!(Activation::Relu.apply(-3.0), 0.0);
        assert_eq!(Activation::Relu.apply(3.0), 3.0);
        assert!(Activation::Relu.zeroes_negatives());
    }

    #[test]
    fn leaky_relu_preserves_small_negatives() {
        let a = Activation::LEAKY_RELU_01;
        assert!((a.apply(-2.0) - (-0.2)).abs() < 1e-6);
        assert_eq!(a.apply(2.0), 2.0);
        assert!(!a.zeroes_negatives());
    }

    #[test]
    fn elu_saturates_negatives() {
        let a = Activation::ELU_1;
        assert!(a.apply(-10.0) > -1.0001);
        assert!(a.apply(-10.0) < -0.99);
        assert_eq!(a.apply(1.5), 1.5);
    }

    #[test]
    fn apply_in_place_matches_apply() {
        // Every 4099th f32 bit pattern, NaNs and infinities included.
        let inputs: Vec<f32> = (0..1u64 << 32)
            .step_by(4099)
            .map(|b| f32::from_bits(b as u32))
            .collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for act in [
            Activation::Identity,
            Activation::Relu,
            Activation::LEAKY_RELU_01,
            Activation::Gelu,
            Activation::ELU_1,
        ] {
            let applied: Vec<f32> = inputs.iter().map(|&x| act.apply(x)).collect();
            let mut in_place = inputs.clone();
            act.apply_in_place(&mut in_place);
            assert_eq!(bits(&in_place), bits(&applied), "{act}");
        }
        // Both GELU instances, whichever the kernel tier picks.
        let applied: Vec<f32> = inputs.iter().map(|&x| Activation::Gelu.apply(x)).collect();
        let mut plain = inputs.clone();
        gelu_plain(&mut plain);
        assert_eq!(bits(&plain), bits(&applied));
        #[cfg(target_arch = "x86_64")]
        if is_x86_feature_detected!("avx2") {
            let mut wide = inputs.clone();
            // SAFETY: AVX2 was detected above.
            unsafe { gelu_avx2(&mut wide) };
            assert_eq!(bits(&wide), bits(&applied));
        }
    }

    #[test]
    fn gelu_matches_reference_points() {
        let g = Activation::Gelu;
        assert!(g.apply(0.0).abs() < 1e-6);
        // GeLU(1) ≈ 0.8412, GeLU(-1) ≈ -0.1588 (tanh approximation).
        assert!((g.apply(1.0) - 0.8412).abs() < 5e-3);
        assert!((g.apply(-1.0) + 0.1588).abs() < 5e-3);
        // Large negatives saturate to ~0⁻ — small-magnitude negatives, the
        // SBR sweet spot.
        assert!(g.apply(-4.0) < 0.0);
        assert!(g.apply(-4.0) > -0.01);
    }
}
