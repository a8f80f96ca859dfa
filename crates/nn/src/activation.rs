//! Activation functions.
//!
//! The paper's central observation is distributional: ReLU produces exact
//! zeros (full bit-width sparsity), while the *non-ReLU* functions — GeLU,
//! Leaky-ReLU, ELU — saturate negative inputs to small negative values that
//! conventional bit-slices cannot skip but signed bit-slices can.

use std::fmt;

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
            Activation::Relu => x.max(0.0),
            Activation::LeakyRelu { alpha } => {
                if x > 0.0 {
                    x
                } else {
                    alpha * x
                }
            }
            Activation::Gelu => {
                // tanh approximation (Hendrycks & Gimpel).
                let c = (2.0f32 / std::f32::consts::PI).sqrt();
                0.5 * x * (1.0 + (c * (x + 0.044_715 * x * x * x)).tanh())
            }
            Activation::Elu { alpha } => {
                if x > 0.0 {
                    x
                } else {
                    alpha * (x.exp() - 1.0)
                }
            }
        }
    }

    /// Whether negative inputs map to exact zero (only true for ReLU) —
    /// i.e. whether the function produces full bit-width sparsity that even
    /// non-slice architectures can exploit.
    pub fn zeroes_negatives(&self) -> bool {
        matches!(self, Activation::Relu)
    }
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
