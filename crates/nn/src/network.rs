//! Whole-network descriptors.

use std::fmt;

use crate::layer::Layer;

/// The dimensionality class the paper groups benchmarks by.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TaskDomain {
    /// 1-D language (Albert).
    Language,
    /// 2-D vision (ViT, YoloV3, MonoDepth2, MobileNetV2, ResNet-18, AlexNet).
    Vision2d,
    /// 3-D point cloud (DGCNN, VoteNet).
    PointCloud,
}

/// Whether the paper classifies the network as dense or sparse.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DensityClass {
    /// Non-ReLU activations → little full-bit-width sparsity (Fig. 10 set).
    Dense,
    /// ReLU activations → substantial input sparsity (Fig. 11 set).
    Sparse,
}

/// A benchmark network: an ordered list of MAC layers plus metadata.
#[derive(Debug, Clone, PartialEq)]
pub struct Network {
    name: String,
    domain: TaskDomain,
    density: DensityClass,
    layers: Vec<Layer>,
}

impl Network {
    /// Assembles a network descriptor.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty.
    pub fn new(name: &str, domain: TaskDomain, density: DensityClass, layers: Vec<Layer>) -> Self {
        assert!(!layers.is_empty(), "a network needs at least one layer");
        Self {
            name: name.to_owned(),
            domain,
            density,
            layers,
        }
    }

    /// The network name (e.g. `"Albert (MNLI)"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The task domain.
    pub fn domain(&self) -> TaskDomain {
        self.domain
    }

    /// Dense or sparse classification (paper Fig. 10 vs Fig. 11).
    pub fn density(&self) -> DensityClass {
        self.density
    }

    /// The layers in execution order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Total MAC count over all layers.
    pub fn total_macs(&self) -> u64 {
        self.layers.iter().map(Layer::macs).sum()
    }
}

impl fmt::Display for Network {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} layers, {:.2} GMACs)",
            self.name,
            self.layers.len(),
            self.total_macs() as f64 / 1e9
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;

    #[test]
    fn totals_aggregate_layers() {
        let n = Network::new(
            "toy",
            TaskDomain::Vision2d,
            DensityClass::Sparse,
            vec![
                Layer::linear("a", 2, 4, 8).with_input_sparsity(0.5),
                Layer::linear("b", 2, 8, 4).with_input_sparsity(0.0),
            ],
        );
        assert_eq!(n.total_macs(), 2 * 4 * 8 + 2 * 8 * 4);
    }

    #[test]
    #[should_panic(expected = "at least one layer")]
    fn rejects_empty_network() {
        let _ = Network::new("x", TaskDomain::Language, DensityClass::Dense, vec![]);
    }
}
