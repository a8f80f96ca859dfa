//! DNN workload substrate for the Sibia reproduction.
//!
//! The paper evaluates eight DNNs (plus AlexNet for the non-bit-slice
//! comparison). Real checkpoints and datasets are not available here, so
//! this crate provides:
//!
//! * the true **layer-shape descriptors** of every benchmark network
//!   ([`zoo`]),
//! * the **activation functions** those networks use ([`activation`]),
//! * a **distribution-calibrated synthetic tensor source** ([`synth`]) that
//!   generates weights (Gaussian, He-scaled) and activations (post-activation
//!   distribution with the paper's reported full-bit-width sparsity), which
//!   is what the slice-sparsity machinery actually observes.
//!
//! See DESIGN.md §2 for why this substitution preserves the paper's
//! behaviour.

pub mod activation;
pub mod attention;
mod boxmuller;
pub mod exec;
pub mod layer;
pub mod network;
pub mod rng;
pub mod synth;
mod tanhf;
pub mod zoo;

pub use activation::Activation;
pub use layer::{Layer, LayerFingerprint, LayerKind, Reduction};
pub use network::Network;
pub use synth::SynthSource;
