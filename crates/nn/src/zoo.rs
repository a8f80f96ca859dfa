//! The benchmark model zoo (paper §III-A).
//!
//! Layer shapes follow the published architectures; per-network precisions,
//! activation functions and full-bit-width input sparsities are the paper's
//! reported values:
//!
//! | network | precision (in/w) | activation | input sparsity |
//! |---|---|---|---|
//! | Albert (base)   | attn 7/7, linear 10/13 | GeLU | 11.9 % |
//! | ViT (base, 384) | 7/10                   | GeLU | 24.0 % |
//! | YoloV3 (416)    | 7/7                    | LeakyReLU | 29.2 % |
//! | MonoDepth2      | enc 7/7, dec 10/7      | ReLU / ELU | 57.3 % / 17.5 % |
//! | DGCNN           | 7/7                    | LeakyReLU | 17.3 % |
//! | MobileNetV2     | 10/10                  | ReLU6 | 34.4 % |
//! | ResNet-18       | 7/7                    | ReLU | 53.1 % |
//! | VoteNet         | 7/7                    | ReLU | 46.2 % |
//! | AlexNet         | 7/7                    | ReLU | layer-wise |

use sibia_sbr::Precision;

use crate::activation::Activation;
use crate::layer::{Layer, Reduction};
use crate::network::{DensityClass, Network, TaskDomain};
use crate::synth::InputProfile;

/// GLUE task variants of the Albert benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GlueTask {
    /// Stanford sentiment (short sequences).
    Sst2,
    /// Quora question pairs.
    Qqp,
    /// Multi-genre NLI.
    Mnli,
}

impl GlueTask {
    fn seq_len(self) -> usize {
        match self {
            GlueTask::Sst2 => 64,
            GlueTask::Qqp => 128,
            GlueTask::Mnli => 128,
        }
    }

    fn sparsity(self) -> f64 {
        // Paper reports an 11.9 % base-model average; tasks differ slightly.
        match self {
            GlueTask::Sst2 => 0.119,
            GlueTask::Qqp => 0.135,
            GlueTask::Mnli => 0.112,
        }
    }

    fn label(self) -> &'static str {
        match self {
            GlueTask::Sst2 => "SST-2",
            GlueTask::Qqp => "QQP",
            GlueTask::Mnli => "MNLI",
        }
    }
}

/// Builder for custom transformer-encoder workloads — the Albert/ViT
/// construction exposed for user-defined models.
///
/// # Example
///
/// ```
/// use sibia_nn::zoo::TransformerBuilder;
///
/// let net = TransformerBuilder::new("my-bert", 256, 512)
///     .heads(8)
///     .ffn(2048)
///     .blocks(6)
///     .input_sparsity(0.15)
///     .build();
/// assert_eq!(net.layers().len(), 6 * 8);
/// ```
#[derive(Debug, Clone)]
pub struct TransformerBuilder {
    name: String,
    seq: usize,
    hidden: usize,
    heads: usize,
    ffn: usize,
    blocks: usize,
    sparsity: f64,
}

impl TransformerBuilder {
    /// (input, weight) precision of the attention matmuls.
    const ATTN_PREC: (Precision, Precision) = (Precision::BITS7, Precision::BITS7);

    /// (input, weight) precision of the projection / feed-forward layers.
    const LIN_PREC: (Precision, Precision) = (Precision::BITS7, Precision::BITS10);

    /// Starts a builder with ViT-like defaults (12 heads, 4× FFN,
    /// 12 blocks, 7-bit attention, 7/10-bit linear layers).
    ///
    /// # Panics
    ///
    /// Panics if `seq` or `hidden` is zero.
    pub fn new(name: &str, seq: usize, hidden: usize) -> Self {
        assert!(seq > 0 && hidden > 0, "seq and hidden must be positive");
        Self {
            name: name.to_owned(),
            seq,
            hidden,
            heads: 12,
            ffn: hidden * 4,
            blocks: 12,
            sparsity: 0.15,
        }
    }

    /// Sets the head count.
    pub fn heads(mut self, heads: usize) -> Self {
        self.heads = heads;
        self
    }

    /// Sets the feed-forward width.
    pub fn ffn(mut self, ffn: usize) -> Self {
        self.ffn = ffn;
        self
    }

    /// Sets the block count.
    pub fn blocks(mut self, blocks: usize) -> Self {
        self.blocks = blocks;
        self
    }

    /// Sets the full-bit-width input sparsity target.
    pub fn input_sparsity(mut self, sparsity: f64) -> Self {
        self.sparsity = sparsity;
        self
    }

    /// Builds the network descriptor.
    ///
    /// # Panics
    ///
    /// Panics unless `hidden` is divisible by `heads` and there is at least
    /// one block.
    pub fn build(self) -> Network {
        assert!(self.blocks > 0, "need at least one block");
        assert_eq!(self.hidden % self.heads, 0, "hidden must divide into heads");
        let mut layers = Vec::new();
        for b in 0..self.blocks {
            layers.extend(transformer_block(
                &format!("block{b}"),
                self.seq,
                self.hidden,
                self.heads,
                self.ffn,
                Self::ATTN_PREC,
                Self::LIN_PREC,
                self.sparsity,
            ));
        }
        Network::new(
            &self.name,
            TaskDomain::Language,
            DensityClass::Dense,
            layers,
        )
    }
}

/// Builds one transformer encoder block.
///
/// `attn_prec` is the (input, weight) precision of the attention matmuls,
/// `lin_prec` of the projection / feed-forward layers.
#[allow(clippy::too_many_arguments)]
fn transformer_block(
    prefix: &str,
    seq: usize,
    hidden: usize,
    heads: usize,
    ffn: usize,
    attn_prec: (Precision, Precision),
    lin_prec: (Precision, Precision),
    sparsity: f64,
) -> Vec<Layer> {
    let head_dim = hidden / heads;
    let mut layers = Vec::new();
    for proj in ["q_proj", "k_proj", "v_proj"] {
        layers.push(
            Layer::linear(&format!("{prefix}.{proj}"), seq, hidden, hidden)
                .with_precisions(lin_prec.0, lin_prec.1)
                .with_input_sparsity(sparsity),
        );
    }
    layers.push(
        Layer::linear(&format!("{prefix}.qk"), seq * heads, head_dim, seq)
            .with_precisions(attn_prec.0, attn_prec.1)
            .with_input_sparsity(sparsity)
            .with_reduction(Reduction::Softmax { row_len: seq }),
    );
    layers.push(
        Layer::linear(&format!("{prefix}.av"), seq * heads, seq, head_dim)
            .with_precisions(attn_prec.0, attn_prec.1)
            .with_input_profile(InputProfile::AttentionProb),
    );
    layers.push(
        Layer::linear(&format!("{prefix}.attn_out"), seq, hidden, hidden)
            .with_precisions(lin_prec.0, lin_prec.1)
            .with_input_sparsity(sparsity),
    );
    layers.push(
        Layer::linear(&format!("{prefix}.ffn1"), seq, hidden, ffn)
            .with_precisions(lin_prec.0, lin_prec.1)
            .with_input_sparsity(sparsity),
    );
    layers.push(
        Layer::linear(&format!("{prefix}.ffn2"), seq, ffn, hidden)
            .with_precisions(lin_prec.0, lin_prec.1)
            .with_activation(Activation::Gelu)
            .with_input_sparsity(sparsity),
    );
    layers
}

/// Albert-base (12 blocks, hidden 768, FFN 3072) on a GLUE task.
///
/// Albert shares weights across blocks, but every block still executes, so
/// the compute descriptor repeats 12×. Attention modules run at 7-bit,
/// linear layers at 10-bit inputs / 13-bit weights (paper §III-A).
pub fn albert(task: GlueTask) -> Network {
    let mut layers = Vec::new();
    for b in 0..12 {
        layers.extend(transformer_block(
            &format!("block{b}"),
            task.seq_len(),
            768,
            12,
            3072,
            (Precision::BITS7, Precision::BITS7),
            (Precision::BITS10, Precision::BITS13),
            task.sparsity(),
        ));
    }
    Network::new(
        &format!("Albert ({})", task.label()),
        TaskDomain::Language,
        DensityClass::Dense,
        layers,
    )
}

/// ViT-base at 384×384 (patch 16 → 576 tokens + class token).
pub fn vit() -> Network {
    let seq = 577;
    let mut layers = vec![
        // Patch embedding: a 16×16 stride-16 convolution.
        Layer::conv2d("patch_embed", 3, 768, 16, 16, 0, 384)
            .with_precisions(Precision::BITS7, Precision::BITS10),
    ];
    for b in 0..12 {
        layers.extend(transformer_block(
            &format!("block{b}"),
            seq,
            768,
            12,
            3072,
            (Precision::BITS7, Precision::BITS7),
            (Precision::BITS7, Precision::BITS10),
            0.24,
        ));
    }
    Network::new("ViT", TaskDomain::Vision2d, DensityClass::Dense, layers)
}

/// One Darknet-53 residual block: 1×1 bottleneck then 3×3 expansion.
fn darknet_res(prefix: &str, ch: usize, hw: usize, sparsity: f64) -> Vec<Layer> {
    vec![
        Layer::conv2d(&format!("{prefix}.conv1x1"), ch, ch / 2, 1, 1, 0, hw)
            .with_activation(Activation::LEAKY_RELU_01)
            .with_input_sparsity(sparsity),
        Layer::conv2d(&format!("{prefix}.conv3x3"), ch / 2, ch, 3, 1, 1, hw)
            .with_activation(Activation::LEAKY_RELU_01)
            .with_input_sparsity(sparsity),
    ]
}

/// YoloV3 (Darknet-53 backbone at 416×416 plus detection head convs).
pub fn yolov3() -> Network {
    const S: f64 = 0.292;
    let mut layers = vec![
        Layer::conv2d("conv0", 3, 32, 3, 1, 1, 416).with_activation(Activation::LEAKY_RELU_01),
        Layer::conv2d("down1", 32, 64, 3, 2, 1, 416)
            .with_activation(Activation::LEAKY_RELU_01)
            .with_input_sparsity(S),
    ];
    layers.extend(darknet_res("res1", 64, 208, S));
    layers.push(
        Layer::conv2d("down2", 64, 128, 3, 2, 1, 208)
            .with_activation(Activation::LEAKY_RELU_01)
            .with_input_sparsity(S),
    );
    for i in 0..2 {
        layers.extend(darknet_res(&format!("res2.{i}"), 128, 104, S));
    }
    layers.push(
        Layer::conv2d("down3", 128, 256, 3, 2, 1, 104)
            .with_activation(Activation::LEAKY_RELU_01)
            .with_input_sparsity(S),
    );
    for i in 0..8 {
        layers.extend(darknet_res(&format!("res3.{i}"), 256, 52, S));
    }
    layers.push(
        Layer::conv2d("down4", 256, 512, 3, 2, 1, 52)
            .with_activation(Activation::LEAKY_RELU_01)
            .with_input_sparsity(S),
    );
    for i in 0..8 {
        layers.extend(darknet_res(&format!("res4.{i}"), 512, 26, S));
    }
    layers.push(
        Layer::conv2d("down5", 512, 1024, 3, 2, 1, 26)
            .with_activation(Activation::LEAKY_RELU_01)
            .with_input_sparsity(S),
    );
    for i in 0..4 {
        layers.extend(darknet_res(&format!("res5.{i}"), 1024, 13, S));
    }
    // Detection head at the 13×13 scale.
    layers.push(
        Layer::conv2d("head.conv", 1024, 512, 1, 1, 0, 13)
            .with_activation(Activation::LEAKY_RELU_01)
            .with_input_sparsity(S),
    );
    layers.push(
        Layer::conv2d("head.out", 512, 255, 1, 1, 0, 13)
            .with_activation(Activation::LEAKY_RELU_01)
            .with_input_sparsity(S),
    );
    Network::new("YoloV3", TaskDomain::Vision2d, DensityClass::Dense, layers)
}

/// The ResNet-18 trunk, reused by the standalone benchmark and the
/// MonoDepth2 encoder.
fn resnet18_trunk(prec: Precision, sparsity: f64, input_hw: usize) -> Vec<Layer> {
    let act = Activation::Relu;
    let mut layers = vec![Layer::conv2d("conv1", 3, 64, 7, 2, 3, input_hw)
        .with_precisions(prec, prec)
        .with_activation(Activation::Identity)];
    let stages: [(usize, usize, usize); 4] = [
        (64, input_hw / 4, 1),
        (128, input_hw / 4, 2),
        (256, input_hw / 8, 2),
        (512, input_hw / 16, 2),
    ];
    let mut in_ch = 64;
    for (si, &(ch, hw_in, first_stride)) in stages.iter().enumerate() {
        for b in 0..2 {
            let stride = if b == 0 { first_stride } else { 1 };
            let hw = if b == 0 { hw_in } else { hw_in / first_stride };
            layers.push(
                Layer::conv2d(&format!("layer{si}.{b}.conv1"), in_ch, ch, 3, stride, 1, hw)
                    .with_precisions(prec, prec)
                    .with_activation(act)
                    .with_input_sparsity(sparsity),
            );
            let hw_out = (hw + 2 - 3) / stride + 1;
            layers.push(
                Layer::conv2d(&format!("layer{si}.{b}.conv2"), ch, ch, 3, 1, 1, hw_out)
                    .with_precisions(prec, prec)
                    .with_activation(act)
                    .with_input_sparsity(sparsity),
            );
            if b == 0 && in_ch != ch {
                layers.push(
                    Layer::conv2d(
                        &format!("layer{si}.0.down"),
                        in_ch,
                        ch,
                        1,
                        first_stride,
                        0,
                        hw,
                    )
                    .with_precisions(prec, prec)
                    .with_activation(act)
                    .with_input_sparsity(sparsity),
                );
            }
            in_ch = ch;
        }
    }
    layers
}

/// ResNet-18 at 224×224 (7-bit, ReLU, 53.1 % input sparsity).
pub fn resnet18() -> Network {
    let mut layers = resnet18_trunk(Precision::BITS7, 0.531, 224);
    layers.push(
        Layer::linear("fc", 1, 512, 1000)
            .with_precisions(Precision::BITS7, Precision::BITS7)
            .with_activation(Activation::Relu)
            .with_input_sparsity(0.531),
    );
    Network::new(
        "ResNet-18",
        TaskDomain::Vision2d,
        DensityClass::Sparse,
        layers,
    )
}

/// MonoDepth2: ResNet-18 encoder (ReLU, 7-bit, 57.3 % sparsity) plus a dense
/// ELU decoder (10-bit inputs, 7-bit weights, 17.5 % sparsity).
pub fn monodepth2() -> Network {
    let mut layers = resnet18_trunk(Precision::BITS7, 0.573, 224);
    let dec: [(usize, usize, usize); 5] = [
        (512, 256, 7),
        (256, 128, 14),
        (128, 64, 28),
        (64, 32, 56),
        (32, 16, 112),
    ];
    for (i, &(cin, cout, hw)) in dec.iter().enumerate() {
        layers.push(
            Layer::conv2d(&format!("dec{i}.upconv"), cin, cout, 3, 1, 1, hw)
                .with_precisions(Precision::BITS10, Precision::BITS7)
                .with_activation(Activation::ELU_1)
                .with_input_sparsity(0.175),
        );
        layers.push(
            Layer::conv2d(&format!("dec{i}.iconv"), cout, cout, 3, 1, 1, hw * 2)
                .with_precisions(Precision::BITS10, Precision::BITS7)
                .with_activation(Activation::ELU_1)
                .with_input_sparsity(0.175),
        );
    }
    layers.push(
        Layer::conv2d("dispconv", 16, 1, 3, 1, 1, 224)
            .with_precisions(Precision::BITS10, Precision::BITS7)
            .with_activation(Activation::ELU_1)
            .with_input_sparsity(0.175),
    );
    Network::new(
        "MonoDepth2",
        TaskDomain::Vision2d,
        DensityClass::Dense,
        layers,
    )
}

/// DGCNN on ModelNet40: four EdgeConv stages over 1024 points with 40-to-1
/// neighbourhood max pooling, then a global embedding layer.
pub fn dgcnn() -> Network {
    const POINTS: usize = 1024;
    const K: usize = 40;
    const S: f64 = 0.173;
    let stages: [(usize, usize); 4] = [(6, 64), (128, 64), (128, 128), (256, 256)];
    let mut layers = Vec::new();
    for (i, &(cin, cout)) in stages.iter().enumerate() {
        layers.push(
            Layer::linear(&format!("edgeconv{i}"), POINTS * K, cin, cout)
                .with_activation(Activation::LEAKY_RELU_01)
                .with_input_sparsity(S)
                .with_reduction(Reduction::MaxPool { group: K })
                // Neighbour features are gathered and concatenated on chip:
                // each unique point value is duplicated 2K times.
                .with_dram_input_fraction(1.0 / (2.0 * K as f64)),
        );
    }
    layers.push(
        Layer::linear("embed", POINTS, 512, 1024)
            .with_activation(Activation::LEAKY_RELU_01)
            .with_input_sparsity(S)
            .with_reduction(Reduction::MaxPool { group: POINTS }),
    );
    layers.push(
        Layer::linear("cls1", 1, 2048, 512)
            .with_activation(Activation::LEAKY_RELU_01)
            .with_input_sparsity(S),
    );
    layers.push(
        Layer::linear("cls2", 1, 512, 256)
            .with_activation(Activation::LEAKY_RELU_01)
            .with_input_sparsity(S),
    );
    layers.push(
        Layer::linear("cls3", 1, 256, 40)
            .with_activation(Activation::LEAKY_RELU_01)
            .with_input_sparsity(S),
    );
    Network::new("DGCNN", TaskDomain::PointCloud, DensityClass::Dense, layers)
}

/// MobileNetV2 at 224×224 (10-bit, ReLU6 modelled as ReLU, 34.4 % input
/// sparsity).
pub fn mobilenet_v2() -> Network {
    const P: Precision = Precision::BITS10;
    const S: f64 = 0.344;
    let act = Activation::Relu;
    let mut layers = vec![Layer::conv2d("conv0", 3, 32, 3, 2, 1, 224).with_precisions(P, P)];
    // (expansion, out channels, repeats, first stride) per inverted residual
    // stage, from the MobileNetV2 paper.
    let cfg: [(usize, usize, usize, usize); 7] = [
        (1, 16, 1, 1),
        (6, 24, 2, 2),
        (6, 32, 3, 2),
        (6, 64, 4, 2),
        (6, 96, 3, 1),
        (6, 160, 3, 2),
        (6, 320, 1, 1),
    ];
    let mut in_ch = 32;
    let mut hw = 112;
    for (si, &(t, c, n, s)) in cfg.iter().enumerate() {
        for b in 0..n {
            let stride = if b == 0 { s } else { 1 };
            let hidden = in_ch * t;
            let name = format!("ir{si}.{b}");
            if t != 1 {
                layers.push(
                    Layer::conv2d(&format!("{name}.expand"), in_ch, hidden, 1, 1, 0, hw)
                        .with_precisions(P, P)
                        .with_activation(act)
                        .with_input_sparsity(S),
                );
            }
            layers.push(
                Layer::grouped_conv2d(
                    &format!("{name}.dw"),
                    hidden,
                    hidden,
                    3,
                    stride,
                    1,
                    hw,
                    hidden,
                )
                .with_precisions(P, P)
                .with_activation(act)
                .with_input_sparsity(S),
            );
            hw = (hw + 2 - 3) / stride + 1;
            layers.push(
                Layer::conv2d(&format!("{name}.project"), hidden, c, 1, 1, 0, hw)
                    .with_precisions(P, P)
                    .with_activation(act)
                    .with_input_sparsity(S),
            );
            in_ch = c;
        }
    }
    layers.push(
        Layer::conv2d("conv_last", 320, 1280, 1, 1, 0, 7)
            .with_precisions(P, P)
            .with_activation(act)
            .with_input_sparsity(S),
    );
    layers.push(
        Layer::linear("fc", 1, 1280, 1000)
            .with_precisions(P, P)
            .with_activation(act)
            .with_input_sparsity(S),
    );
    Network::new(
        "MobileNetV2",
        TaskDomain::Vision2d,
        DensityClass::Sparse,
        layers,
    )
}

/// VoteNet backbone (PointNet++ set-abstraction MLPs) with the paper's
/// 64-to-1, 32-to-1 and three 16-to-1 max-pooling layers.
pub fn votenet() -> Network {
    const S: f64 = 0.462;
    let act = Activation::Relu;
    // (name, grouped rows, group, in features, MLP widths)
    struct Sa {
        name: &'static str,
        centroids: usize,
        group: usize,
        mlp: [usize; 3],
        in_features: usize,
        /// Unique fraction of the gather-duplicated ball-query groups.
        dram_fraction: f64,
    }
    let sas = [
        Sa {
            name: "sa1",
            centroids: 2048,
            group: 64,
            in_features: 3,
            mlp: [64, 64, 128],
            dram_fraction: 0.15,
        },
        Sa {
            name: "sa2",
            centroids: 1024,
            group: 32,
            in_features: 131,
            mlp: [128, 128, 256],
            dram_fraction: 1.0 / 16.0,
        },
        Sa {
            name: "sa3",
            centroids: 512,
            group: 16,
            in_features: 259,
            mlp: [128, 128, 256],
            dram_fraction: 1.0 / 8.0,
        },
        Sa {
            name: "sa4",
            centroids: 256,
            group: 16,
            in_features: 259,
            mlp: [128, 128, 256],
            dram_fraction: 1.0 / 8.0,
        },
    ];
    let mut layers = Vec::new();
    for sa in &sas {
        let rows = sa.centroids * sa.group;
        let mut cin = sa.in_features;
        for (i, &cout) in sa.mlp.iter().enumerate() {
            let mut layer = Layer::linear(&format!("{}.mlp{i}", sa.name), rows, cin, cout)
                .with_activation(act)
                .with_input_sparsity(if cin == 3 { 0.0 } else { S });
            if i == 0 {
                layer = layer.with_dram_input_fraction(sa.dram_fraction);
            }
            if i + 1 == sa.mlp.len() {
                layer = layer.with_reduction(Reduction::MaxPool { group: sa.group });
            }
            layers.push(layer);
            cin = cout;
        }
    }
    // Voting module + proposal head (the fifth pooling is 16-to-1 in sa4 —
    // three 16-to-1 pools total across sa3/sa4/proposal grouping).
    layers.push(
        Layer::linear("vote.mlp", 1024, 256, 256)
            .with_activation(act)
            .with_input_sparsity(S),
    );
    layers.push(
        Layer::linear("proposal.mlp", 256 * 16, 128, 128)
            .with_activation(act)
            .with_input_sparsity(S)
            .with_reduction(Reduction::MaxPool { group: 16 }),
    );
    layers.push(
        Layer::linear("proposal.head", 256, 128, 79)
            .with_activation(act)
            .with_input_sparsity(S),
    );
    Network::new(
        "VoteNet",
        TaskDomain::PointCloud,
        DensityClass::Sparse,
        layers,
    )
}

/// AlexNet (for the per-layer energy comparison of paper Fig. 15).
///
/// `input_sparsity` of conv1 is zero (dense image input); deeper ReLU layers
/// carry typical post-ReLU sparsity.
pub fn alexnet() -> Network {
    const P: Precision = Precision::BITS7;
    let act = Activation::Relu;
    let layers = vec![
        Layer::conv2d("conv1", 3, 96, 11, 4, 2, 227).with_precisions(P, P),
        Layer::grouped_conv2d("conv2", 96, 256, 5, 1, 2, 27, 2)
            .with_precisions(P, P)
            .with_activation(act)
            .with_input_sparsity(0.39),
        Layer::conv2d("conv3", 256, 384, 3, 1, 1, 13)
            .with_precisions(P, P)
            .with_activation(act)
            .with_input_sparsity(0.47),
        Layer::grouped_conv2d("conv4", 384, 384, 3, 1, 1, 13, 2)
            .with_precisions(P, P)
            .with_activation(act)
            .with_input_sparsity(0.55),
        Layer::grouped_conv2d("conv5", 384, 256, 3, 1, 1, 13, 2)
            .with_precisions(P, P)
            .with_activation(act)
            .with_input_sparsity(0.55),
        Layer::linear("fc6", 1, 9216, 4096)
            .with_precisions(P, P)
            .with_activation(act)
            .with_input_sparsity(0.6),
        Layer::linear("fc7", 1, 4096, 4096)
            .with_precisions(P, P)
            .with_activation(act)
            .with_input_sparsity(0.6),
        Layer::linear("fc8", 1, 4096, 1000)
            .with_precisions(P, P)
            .with_activation(act)
            .with_input_sparsity(0.6),
    ];
    Network::new(
        "AlexNet",
        TaskDomain::Vision2d,
        DensityClass::Sparse,
        layers,
    )
}

/// Looks up a benchmark network by its CLI-friendly name.
///
/// ```
/// use sibia_nn::zoo;
/// assert!(zoo::by_name("resnet18").is_some());
/// assert!(zoo::by_name("unknown").is_none());
/// ```
pub fn by_name(name: &str) -> Option<Network> {
    Some(match name {
        "albert-sst2" => albert(GlueTask::Sst2),
        "albert-qqp" => albert(GlueTask::Qqp),
        "albert-mnli" => albert(GlueTask::Mnli),
        "vit" => vit(),
        "yolov3" => yolov3(),
        "monodepth2" => monodepth2(),
        "dgcnn" => dgcnn(),
        "mobilenetv2" => mobilenet_v2(),
        "resnet18" => resnet18(),
        "votenet" => votenet(),
        "alexnet" => alexnet(),
        _ => return None,
    })
}

/// The CLI-friendly names accepted by [`by_name`].
pub const NETWORK_NAMES: [&str; 11] = [
    "albert-sst2",
    "albert-qqp",
    "albert-mnli",
    "vit",
    "yolov3",
    "monodepth2",
    "dgcnn",
    "mobilenetv2",
    "resnet18",
    "votenet",
    "alexnet",
];

/// The paper's dense benchmark set (Fig. 10 order).
pub fn dense_benchmarks() -> Vec<Network> {
    vec![
        albert(GlueTask::Sst2),
        albert(GlueTask::Qqp),
        albert(GlueTask::Mnli),
        vit(),
        yolov3(),
        monodepth2(),
        dgcnn(),
    ]
}

/// The paper's sparse benchmark set (Fig. 11 order).
pub fn sparse_benchmarks() -> Vec<Network> {
    vec![mobilenet_v2(), resnet18(), votenet()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_networks_construct() {
        for n in dense_benchmarks().iter().chain(sparse_benchmarks().iter()) {
            assert!(n.total_macs() > 0, "{}", n.name());
            assert!(!n.layers().is_empty());
        }
        assert!(alexnet().total_macs() > 0);
    }

    #[test]
    fn resnet18_mac_count_is_plausible() {
        // Published ResNet-18 @224 ≈ 1.8 GMACs.
        let g = resnet18().total_macs() as f64 / 1e9;
        assert!((1.4..=2.2).contains(&g), "got {g} GMACs");
    }

    #[test]
    fn yolov3_mac_count_is_plausible() {
        // Published YoloV3 @416 ≈ 32.8 GMACs (we model backbone + one head).
        let g = yolov3().total_macs() as f64 / 1e9;
        assert!((20.0..=40.0).contains(&g), "got {g} GMACs");
    }

    #[test]
    fn mobilenet_mac_count_is_plausible() {
        // Published MobileNetV2 @224 ≈ 0.3 GMACs.
        let g = mobilenet_v2().total_macs() as f64 / 1e9;
        assert!((0.2..=0.5).contains(&g), "got {g} GMACs");
    }

    #[test]
    fn vit_mac_count_is_plausible() {
        // ViT-B/16 @384 ≈ 49 GMACs (attention + MLP.)
        let g = vit().total_macs() as f64 / 1e9;
        assert!((30.0..=70.0).contains(&g), "got {g} GMACs");
    }

    #[test]
    fn albert_blocks_repeat_twelve_times() {
        let n = albert(GlueTask::Mnli);
        assert_eq!(n.layers().len(), 12 * 8);
        // Linear layers use 10/13-bit, attention 7-bit.
        let ffn = n
            .layers()
            .iter()
            .find(|l| l.name() == "block0.ffn1")
            .unwrap();
        assert_eq!(ffn.input_precision(), Precision::BITS10);
        assert_eq!(ffn.weight_precision(), Precision::BITS13);
        let qk = n.layers().iter().find(|l| l.name() == "block0.qk").unwrap();
        assert_eq!(qk.input_precision(), Precision::BITS7);
        assert!(matches!(qk.reduction(), Some(Reduction::Softmax { .. })));
    }

    #[test]
    fn votenet_has_paper_pooling_structure() {
        let n = votenet();
        let pools: Vec<usize> = n
            .layers()
            .iter()
            .filter_map(|l| match l.reduction() {
                Some(Reduction::MaxPool { group }) => Some(group),
                _ => None,
            })
            .collect();
        assert_eq!(pools, vec![64, 32, 16, 16, 16]);
    }

    #[test]
    fn dgcnn_uses_40_to_1_pooling() {
        let n = dgcnn();
        let count = n
            .layers()
            .iter()
            .filter(|l| matches!(l.reduction(), Some(Reduction::MaxPool { group: 40 })))
            .count();
        assert_eq!(count, 4);
    }

    #[test]
    fn monodepth_mixes_relu_encoder_and_elu_decoder() {
        let n = monodepth2();
        let enc_relu = n
            .layers()
            .iter()
            .filter(|l| l.activation() == Activation::Relu)
            .count();
        let dec_elu = n
            .layers()
            .iter()
            .filter(|l| matches!(l.activation(), Activation::Elu { .. }))
            .count();
        assert!(enc_relu >= 16);
        assert_eq!(dec_elu, 11);
        // Decoder uses 10-bit inputs with 7-bit weights.
        let dec = n
            .layers()
            .iter()
            .find(|l| l.name() == "dec0.upconv")
            .unwrap();
        assert_eq!(dec.input_precision(), Precision::BITS10);
        assert_eq!(dec.weight_precision(), Precision::BITS7);
    }

    #[test]
    fn density_classes_match_paper_grouping() {
        assert!(dense_benchmarks()
            .iter()
            .all(|n| n.density() == DensityClass::Dense));
        assert!(sparse_benchmarks()
            .iter()
            .all(|n| n.density() == DensityClass::Sparse));
    }
}
