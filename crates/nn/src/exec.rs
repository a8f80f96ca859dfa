//! Functional execution of quantized networks.
//!
//! Runs a network's layers numerically — integer convolutions / matmuls via
//! the reference operators, activation in real space, linear symmetric
//! requantization between layers — so end-to-end behaviour (shapes, value
//! ranges, layer chaining) can be validated against the same layer
//! descriptors the performance simulator consumes. The functional PE
//! simulator in `sibia-sim` is proven equal to these reference operators,
//! so agreement here transfers to the datapath.

use sibia_tensor::ops::{self, Conv2dParams};
use sibia_tensor::{QuantTensor, Shape, Tensor};

use crate::layer::{Layer, LayerKind};
use crate::synth::SynthSource;

/// One executable layer: the descriptor plus materialized quantized weights.
#[derive(Debug, Clone)]
pub struct ExecLayer {
    layer: Layer,
    weights: QuantTensor,
}

impl ExecLayer {
    /// Materializes a layer with synthesized weights.
    pub fn materialize(layer: Layer, src: &mut SynthSource) -> Self {
        let weights = src.weights(&layer, usize::MAX);
        Self { layer, weights }
    }

    /// The layer descriptor.
    pub fn layer(&self) -> &Layer {
        &self.layer
    }

    /// Executes on a quantized input, returning accumulator-precision
    /// outputs and the output shape.
    ///
    /// # Panics
    ///
    /// Panics if the input length does not match the layer's input size.
    pub fn forward(&self, input: &QuantTensor) -> Tensor<i64> {
        assert_eq!(
            input.codes().len(),
            self.layer.kind().input_len(),
            "input size mismatch for layer {}",
            self.layer.name()
        );
        match *self.layer.kind() {
            LayerKind::Conv2d {
                in_ch,
                out_ch,
                kernel,
                stride,
                padding,
                input_hw,
                groups,
            } => {
                assert_eq!(groups, 1, "functional execution supports groups = 1");
                let x = Tensor::from_vec(
                    input.codes().data().to_vec(),
                    Shape::new(&[in_ch, input_hw, input_hw]),
                );
                let w = Tensor::from_vec(
                    self.weights.codes().data().to_vec(),
                    Shape::new(&[out_ch, in_ch, kernel, kernel]),
                );
                ops::conv2d(&x, &w, Conv2dParams { stride, padding })
            }
            LayerKind::Linear {
                rows,
                in_features,
                out_features,
            } => {
                let x = Tensor::from_vec(
                    input.codes().data().to_vec(),
                    Shape::new(&[rows, in_features]),
                );
                let w = Tensor::from_vec(
                    self.weights.codes().data().to_vec(),
                    Shape::new(&[in_features, out_features]),
                );
                ops::matmul(&x, &w)
            }
        }
    }
}

/// A fully materialized, executable quantized network.
#[derive(Debug, Clone)]
pub struct ExecNetwork {
    layers: Vec<ExecLayer>,
}

impl ExecNetwork {
    /// Materializes a chain of layers with synthesized weights.
    ///
    /// # Panics
    ///
    /// Panics if the chain is empty or consecutive layer shapes do not
    /// chain (`output_len != next input_len`).
    pub fn materialize(layers: Vec<Layer>, src: &mut SynthSource) -> Self {
        assert!(!layers.is_empty(), "need at least one layer");
        for w in layers.windows(2) {
            assert_eq!(
                w[0].kind().output_len(),
                w[1].kind().input_len(),
                "layers {} -> {} do not chain",
                w[0].name(),
                w[1].name()
            );
        }
        Self {
            layers: layers
                .into_iter()
                .map(|l| ExecLayer::materialize(l, src))
                .collect(),
        }
    }

    /// The executable layers.
    pub fn layers(&self) -> &[ExecLayer] {
        &self.layers
    }

    /// Runs the network on a quantized input: each layer's accumulator
    /// output is dequantized, passed through the *next* layer's input
    /// activation, and requantized at the next layer's input precision.
    /// Returns the final accumulator-precision output.
    pub fn forward(&self, input: &QuantTensor) -> Tensor<i64> {
        let mut current = input.clone();
        let mut out = None;
        for (i, ex) in self.layers.iter().enumerate() {
            let acc = ex.forward(&current);
            if i + 1 == self.layers.len() {
                out = Some(acc);
                break;
            }
            let next = &self.layers[i + 1];
            let scale = current.quantizer().scale() * ex.weights.quantizer().scale();
            let real: Vec<f32> = acc
                .data()
                .iter()
                .map(|&v| next.layer().activation().apply(v as f32 * scale))
                .collect();
            let p = next.layer().input_precision();
            current = QuantTensor::quantize(&real, Shape::new(&[real.len()]), p);
        }
        out.expect("at least one layer")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activation::Activation;
    use sibia_sbr::Precision;

    fn chain() -> Vec<Layer> {
        vec![
            Layer::conv2d("c1", 3, 8, 3, 1, 1, 8),
            Layer::conv2d("c2", 8, 8, 3, 1, 1, 8).with_activation(Activation::Relu),
            Layer::linear("fc", 1, 8 * 8 * 8, 10).with_activation(Activation::Gelu),
        ]
    }

    fn input(src: &mut SynthSource, n: usize) -> QuantTensor {
        let raw = src.gaussian(n, 1.0);
        QuantTensor::quantize(&raw, Shape::new(&[n]), Precision::BITS7)
    }

    #[test]
    fn network_chains_shapes_end_to_end() {
        let mut src = SynthSource::new(1);
        let net = ExecNetwork::materialize(chain(), &mut src);
        let x = input(&mut src, 3 * 8 * 8);
        let y = net.forward(&x);
        assert_eq!(y.len(), 10);
    }

    #[test]
    fn execution_is_deterministic() {
        let mut s1 = SynthSource::new(2);
        let mut s2 = SynthSource::new(2);
        let n1 = ExecNetwork::materialize(chain(), &mut s1);
        let n2 = ExecNetwork::materialize(chain(), &mut s2);
        let x1 = input(&mut s1, 3 * 8 * 8);
        let x2 = input(&mut s2, 3 * 8 * 8);
        assert_eq!(n1.forward(&x1).data(), n2.forward(&x2).data());
    }

    #[test]
    #[should_panic(expected = "do not chain")]
    fn chaining_is_validated() {
        let mut src = SynthSource::new(3);
        let bad = vec![
            Layer::linear("a", 1, 8, 8),
            Layer::linear("b", 1, 9, 4), // mismatched
        ];
        let _ = ExecNetwork::materialize(bad, &mut src);
    }

    #[test]
    fn single_linear_layer_matches_reference_matmul() {
        let mut src = SynthSource::new(4);
        let layer = Layer::linear("l", 4, 16, 8);
        let ex = ExecLayer::materialize(layer, &mut src);
        let x = input(&mut src, 64);
        let got = ex.forward(&x);
        let xm = Tensor::from_vec(x.codes().data().to_vec(), Shape::new(&[4, 16]));
        let wm = Tensor::from_vec(ex.weights.codes().data().to_vec(), Shape::new(&[16, 8]));
        assert_eq!(got.data(), ops::matmul(&xm, &wm).data());
    }
}
