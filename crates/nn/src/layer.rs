//! Layer descriptors.
//!
//! A [`Layer`] describes one MAC-based operation of a network: its shape,
//! bit precisions, activation function, any output reduction (softmax /
//! max-pool) that follows it, and the full-bit-width input sparsity the
//! synthetic data source should reproduce.

use std::fmt;

use sibia_sbr::Precision;

use crate::activation::Activation;
use crate::synth::InputProfile;

/// The MAC structure of a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// 2-D convolution over a `[C_in, H, W]` input.
    Conv2d {
        /// Input channels.
        in_ch: usize,
        /// Output channels.
        out_ch: usize,
        /// Kernel size (square).
        kernel: usize,
        /// Spatial stride.
        stride: usize,
        /// Zero padding on each side.
        padding: usize,
        /// Input spatial size (square).
        input_hw: usize,
        /// Channel groups (`in_ch` for a depthwise convolution).
        groups: usize,
    },
    /// Fully-connected layer applied to `rows` independent positions
    /// (tokens, points, or batch entries): `[rows × in] · [in × out]`.
    Linear {
        /// Independent input rows.
        rows: usize,
        /// Input features.
        in_features: usize,
        /// Output features.
        out_features: usize,
    },
}

impl LayerKind {
    /// Output spatial size of a convolution, `None` for linear layers.
    pub fn output_hw(&self) -> Option<usize> {
        match *self {
            LayerKind::Conv2d {
                kernel,
                stride,
                padding,
                input_hw,
                ..
            } => Some((input_hw + 2 * padding - kernel) / stride + 1),
            LayerKind::Linear { .. } => None,
        }
    }

    /// Number of multiply-accumulate operations.
    pub fn macs(&self) -> u64 {
        match *self {
            LayerKind::Conv2d {
                in_ch,
                out_ch,
                kernel,
                groups,
                ..
            } => {
                let o = self.output_hw().expect("conv has spatial output") as u64;
                o * o * out_ch as u64 * (in_ch / groups) as u64 * (kernel * kernel) as u64
            }
            LayerKind::Linear {
                rows,
                in_features,
                out_features,
            } => rows as u64 * in_features as u64 * out_features as u64,
        }
    }

    /// Number of input activations.
    pub fn input_len(&self) -> usize {
        match *self {
            LayerKind::Conv2d {
                in_ch, input_hw, ..
            } => in_ch * input_hw * input_hw,
            LayerKind::Linear {
                rows, in_features, ..
            } => rows * in_features,
        }
    }

    /// Number of weights.
    pub fn weight_len(&self) -> usize {
        match *self {
            LayerKind::Conv2d {
                in_ch,
                out_ch,
                kernel,
                groups,
                ..
            } => out_ch * (in_ch / groups) * kernel * kernel,
            LayerKind::Linear {
                in_features,
                out_features,
                ..
            } => in_features * out_features,
        }
    }

    /// Number of output activations.
    pub fn output_len(&self) -> usize {
        match *self {
            LayerKind::Conv2d { out_ch, .. } => {
                let o = self.output_hw().expect("conv has spatial output");
                out_ch * o * o
            }
            LayerKind::Linear {
                rows, out_features, ..
            } => rows * out_features,
        }
    }
}

/// An output-sparsity-producing reduction following a layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Reduction {
    /// Softmax over rows of `row_len` outputs (attention probabilities) —
    /// most outputs are near zero after it.
    Softmax {
        /// Length of each softmax row.
        row_len: usize,
    },
    /// `group`-to-1 max pooling (64-to-1 in VoteNet, 40-to-1 in DGCNN, …).
    MaxPool {
        /// Pooling group size.
        group: usize,
    },
}

impl fmt::Display for Reduction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reduction::Softmax { row_len } => write!(f, "softmax({row_len})"),
            Reduction::MaxPool { group } => write!(f, "{group}-to-1 maxpool"),
        }
    }
}

/// Every field of a [`Layer`] as a hashable value, floats by their bits.
///
/// Two layers have equal fingerprints exactly when their `Debug` forms are
/// equal: `-0.0` and `0.0` differ, and every NaN (which `Debug` prints as
/// `NaN`) maps to one bit pattern. Built by [`Layer::fingerprint`]; the
/// simulator's memo caches key on it.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LayerFingerprint {
    name: String,
    kind: LayerKind,
    /// The activation's variant and its `alpha` bits (0 when it has none).
    activation: (u8, u32),
    input_precision: Precision,
    weight_precision: Precision,
    reduction: Option<Reduction>,
    input_sparsity: u64,
    input_profile: InputProfile,
    dram_input_fraction: u64,
}

/// One layer of a benchmark network.
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    name: String,
    kind: LayerKind,
    activation: Activation,
    input_precision: Precision,
    weight_precision: Precision,
    reduction: Option<Reduction>,
    input_sparsity: f64,
    input_profile: InputProfile,
    dram_input_fraction: f64,
}

impl Layer {
    /// Creates a convolution layer with identity activation, 7-bit
    /// precisions and no reduction; refine with the `with_*` methods.
    ///
    /// # Panics
    ///
    /// Panics if `groups` does not divide both channel counts, or the kernel
    /// does not fit the padded input.
    #[allow(clippy::too_many_arguments)]
    pub fn conv2d(
        name: &str,
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        input_hw: usize,
    ) -> Self {
        Self::grouped_conv2d(name, in_ch, out_ch, kernel, stride, padding, input_hw, 1)
    }

    /// Creates a grouped (or depthwise, `groups = in_ch`) convolution layer.
    ///
    /// # Panics
    ///
    /// Panics if `groups` does not divide both channel counts, or the kernel
    /// does not fit the padded input.
    #[allow(clippy::too_many_arguments)]
    pub fn grouped_conv2d(
        name: &str,
        in_ch: usize,
        out_ch: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        input_hw: usize,
        groups: usize,
    ) -> Self {
        assert!(
            groups > 0 && in_ch % groups == 0 && out_ch % groups == 0,
            "groups ({groups}) must divide in_ch ({in_ch}) and out_ch ({out_ch})"
        );
        assert!(
            kernel <= input_hw + 2 * padding,
            "kernel must fit padded input"
        );
        assert!(stride > 0, "stride must be positive");
        Self::new(
            name,
            LayerKind::Conv2d {
                in_ch,
                out_ch,
                kernel,
                stride,
                padding,
                input_hw,
                groups,
            },
        )
    }

    /// Creates a linear layer (`rows` positions × `in → out` features).
    pub fn linear(name: &str, rows: usize, in_features: usize, out_features: usize) -> Self {
        Self::new(
            name,
            LayerKind::Linear {
                rows,
                in_features,
                out_features,
            },
        )
    }

    fn new(name: &str, kind: LayerKind) -> Self {
        Self {
            name: name.to_owned(),
            kind,
            activation: Activation::Identity,
            input_precision: Precision::BITS7,
            weight_precision: Precision::BITS7,
            reduction: None,
            input_sparsity: 0.0,
            input_profile: InputProfile::PostActivation,
            dram_input_fraction: 1.0,
        }
    }

    /// Sets the activation function applied *before* this layer's input
    /// (i.e. the previous layer's nonlinearity, which shapes this layer's
    /// input distribution).
    pub fn with_activation(mut self, activation: Activation) -> Self {
        self.activation = activation;
        self
    }

    /// Sets input and weight precisions.
    pub fn with_precisions(mut self, input: Precision, weight: Precision) -> Self {
        self.input_precision = input;
        self.weight_precision = weight;
        self
    }

    /// Attaches an output reduction (softmax / max-pool).
    pub fn with_reduction(mut self, reduction: Reduction) -> Self {
        self.reduction = Some(reduction);
        self
    }

    /// Sets the target full-bit-width input sparsity for the synthetic data
    /// source.
    ///
    /// # Panics
    ///
    /// Panics if `sparsity` is outside `[0, 1]`.
    pub fn with_input_sparsity(mut self, sparsity: f64) -> Self {
        assert!((0.0..=1.0).contains(&sparsity), "sparsity must be in [0,1]");
        self.input_sparsity = sparsity;
        self
    }

    /// Sets the statistical profile of this layer's input tensor (e.g.
    /// attention probabilities for the softmax·V matmul).
    pub fn with_input_profile(mut self, profile: InputProfile) -> Self {
        self.input_profile = profile;
        self
    }

    /// Sets the fraction of the layer's logical input that is *unique* data
    /// crossing external memory. Gather-expanded layers (EdgeConv neighbour
    /// features, PointNet++ ball-query groups) duplicate each point many
    /// times; the duplication happens on-chip, not on the DRAM bus.
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `(0, 1]`.
    pub fn with_dram_input_fraction(mut self, fraction: f64) -> Self {
        assert!(
            fraction > 0.0 && fraction <= 1.0,
            "dram input fraction must be in (0, 1]"
        );
        self.dram_input_fraction = fraction;
        self
    }

    /// Fraction of the logical input that crosses external memory.
    pub fn dram_input_fraction(&self) -> f64 {
        self.dram_input_fraction
    }

    /// The statistical profile of this layer's input tensor.
    pub fn input_profile(&self) -> InputProfile {
        self.input_profile
    }

    /// The layer name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The MAC structure.
    pub fn kind(&self) -> &LayerKind {
        &self.kind
    }

    /// The input-shaping activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Input activation precision.
    pub fn input_precision(&self) -> Precision {
        self.input_precision
    }

    /// Weight precision.
    pub fn weight_precision(&self) -> Precision {
        self.weight_precision
    }

    /// The output reduction, if any.
    pub fn reduction(&self) -> Option<Reduction> {
        self.reduction
    }

    /// Target full-bit-width input sparsity.
    pub fn input_sparsity(&self) -> f64 {
        self.input_sparsity
    }

    /// MAC count (delegates to [`LayerKind::macs`]).
    pub fn macs(&self) -> u64 {
        self.kind.macs()
    }

    /// This layer's identity as a hash key (see [`LayerFingerprint`]).
    pub fn fingerprint(&self) -> LayerFingerprint {
        fn f32_bits(x: f32) -> u32 {
            if x.is_nan() {
                f32::NAN.to_bits()
            } else {
                x.to_bits()
            }
        }
        fn f64_bits(x: f64) -> u64 {
            if x.is_nan() {
                f64::NAN.to_bits()
            } else {
                x.to_bits()
            }
        }
        let activation = match self.activation {
            Activation::Identity => (0, 0),
            Activation::Relu => (1, 0),
            Activation::LeakyRelu { alpha } => (2, f32_bits(alpha)),
            Activation::Gelu => (3, 0),
            Activation::Elu { alpha } => (4, f32_bits(alpha)),
        };
        LayerFingerprint {
            name: self.name.clone(),
            kind: self.kind,
            activation,
            input_precision: self.input_precision,
            weight_precision: self.weight_precision,
            reduction: self.reduction,
            input_sparsity: f64_bits(self.input_sparsity),
            input_profile: self.input_profile,
            dram_input_fraction: f64_bits(self.dram_input_fraction),
        }
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {:?} ({} MACs, in {}, w {})",
            self.name,
            self.kind,
            self.macs(),
            self.input_precision,
            self.weight_precision
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conv_macs_match_formula() {
        // 3×3 conv, 64→128 channels, 56×56 input, stride 1, pad 1:
        // 56·56·128·64·9 MACs.
        let l = Layer::conv2d("c", 64, 128, 3, 1, 1, 56);
        assert_eq!(l.macs(), 56 * 56 * 128 * 64 * 9);
        assert_eq!(l.kind().output_hw(), Some(56));
    }

    #[test]
    fn strided_conv_shrinks_output() {
        let l = Layer::conv2d("c", 3, 64, 7, 2, 3, 224);
        assert_eq!(l.kind().output_hw(), Some(112));
        assert_eq!(l.kind().output_len(), 64 * 112 * 112);
    }

    #[test]
    fn depthwise_conv_divides_macs() {
        let full = Layer::conv2d("c", 32, 32, 3, 1, 1, 28);
        let dw = Layer::grouped_conv2d("d", 32, 32, 3, 1, 1, 28, 32);
        assert_eq!(dw.macs() * 32, full.macs());
        assert_eq!(dw.kind().weight_len() * 32, full.kind().weight_len());
    }

    #[test]
    fn linear_macs() {
        let l = Layer::linear("fc", 128, 768, 3072);
        assert_eq!(l.macs(), 128 * 768 * 3072);
        assert_eq!(l.kind().input_len(), 128 * 768);
        assert_eq!(l.kind().output_len(), 128 * 3072);
    }

    #[test]
    fn builder_methods_chain() {
        let l = Layer::linear("attn", 128, 768, 768)
            .with_activation(Activation::Gelu)
            .with_precisions(Precision::BITS10, Precision::BITS13)
            .with_reduction(Reduction::Softmax { row_len: 128 })
            .with_input_sparsity(0.119);
        assert_eq!(l.activation(), Activation::Gelu);
        assert_eq!(l.input_precision(), Precision::BITS10);
        assert_eq!(l.weight_precision(), Precision::BITS13);
        assert_eq!(l.reduction(), Some(Reduction::Softmax { row_len: 128 }));
        assert!((l.input_sparsity() - 0.119).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "groups")]
    fn grouped_conv_validates_divisibility() {
        let _ = Layer::grouped_conv2d("d", 30, 32, 3, 1, 1, 28, 32);
    }

    #[test]
    #[should_panic(expected = "sparsity")]
    fn sparsity_validated() {
        let _ = Layer::linear("l", 1, 1, 1).with_input_sparsity(1.5);
    }
}
