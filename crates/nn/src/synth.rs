//! Distribution-calibrated synthetic tensors.
//!
//! Real checkpoints and datasets are unavailable, so tensors are synthesized
//! to match what the slice-level machinery actually observes (DESIGN.md §2):
//!
//! * **weights** — zero-mean Gaussians (the paper cites Glorot/He training
//!   dynamics for weight Gaussianity), quantized symmetrically;
//! * **activations** — a standard-normal pre-activation passed through the
//!   layer's activation function, with the paper's reported full-bit-width
//!   sparsity injected (for ReLU by shifting the pre-activation mean; for
//!   non-ReLU functions as an exact-zero mixture component modelling
//!   quantization underflow);
//! * **attention probabilities** — softmax rows over Gaussian logits,
//!   concentrated near zero, for the probability×value matmuls of
//!   transformer blocks.
//!
//! All generation is seeded and deterministic.

use sibia_sbr::Precision;
use sibia_tensor::{QuantTensor, Shape};

use crate::activation::Activation;
use crate::boxmuller;
use crate::layer::Layer;
use crate::rng::{Bernoulli, SynthRng};

/// Statistical profile of a layer's input tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum InputProfile {
    /// Input is the previous layer's post-activation output (default).
    #[default]
    PostActivation,
    /// Input is an attention probability matrix (softmax output): values in
    /// `[0, 1]`, heavily concentrated near zero.
    AttentionProb,
}

/// Deterministic generator of layer tensors.
///
/// # Example
///
/// ```
/// use sibia_nn::{Layer, SynthSource, Activation};
///
/// let layer = Layer::linear("fc", 8, 64, 64)
///     .with_activation(Activation::Relu)
///     .with_input_sparsity(0.5);
/// let mut src = SynthSource::new(42);
/// let acts = src.activations(&layer, 4096);
/// let measured = acts.sparsity();
/// assert!((measured - 0.5).abs() < 0.1);
/// ```
#[derive(Debug, Clone)]
pub struct SynthSource {
    rng: SynthRng,
}

/// Probability that an activation is an outlier (salient feature).
/// Real DNN activations are heavy-tailed; with max-calibrated symmetric
/// quantization the rare outliers set the scale and squeeze the bulk into
/// small codes — which is what gives the paper's Fig. 6 its 80–99 %
/// high-order signed-slice sparsity.
const ACT_OUTLIER_P: f64 = 0.005;
/// Probability that a weight is an outlier.
const WEIGHT_OUTLIER_P: f64 = 0.003;
/// Exact-zero fraction of trained weight tensors (small weights that
/// quantize to zero; the paper's Fig. 6 weight gains imply ≈8 %).
const WEIGHT_ZERO_FRACTION: f64 = 0.08;

/// Outlier magnitude gain for activations, by precision and activation:
/// tensors the paper quantizes to more bits are exactly the heavier-tailed
/// ones (transformer activations with their well-documented extreme outliers
/// need 10/13 bits; conv-net activations fit in 7), while batch-normalized
/// post-ReLU feature maps are well-behaved. Calibrated so the per-order
/// signed-slice sparsities reproduce Fig. 6 (e.g. Albert input 5.1×, YoloV3
/// input 2.1×) and HNPU's sparse-benchmark gains land at the paper's ~2×.
fn act_outlier_gain(p: Precision, activation: Activation) -> f32 {
    let by_bits = match p.bits() {
        0..=8 => 6.0,
        9..=11 => 16.0,
        _ => 24.0,
    };
    match activation {
        Activation::Relu => 2.5,
        // Layer-norm outputs (transformer projections) carry the most
        // extreme outliers at any precision.
        Activation::Identity => f32::max(12.0, by_bits),
        // Leaky-ReLU / ELU squash negatives already; moderate tails at
        // 7-bit (YoloV3, DGCNN), heavier at the 10-bit precisions assigned
        // to wider-ranged dense decoders (MonoDepth2).
        Activation::LeakyRelu { .. } | Activation::Elu { .. } => {
            if p.bits() <= 8 {
                2.0
            } else {
                8.0
            }
        }
        Activation::Gelu => by_bits,
    }
}

/// Outlier magnitude gain for weights, by precision (Fig. 6: Albert weight
/// 6.9×, YoloV3 weight 3.1× over full-bit-width sparsity).
fn weight_outlier_gain(p: Precision) -> f32 {
    match p.bits() {
        0..=8 => 4.0,
        9..=11 => 8.0,
        _ => 9.0,
    }
}

/// Values one sampler chunk assembles: whole blocks for post-activations,
/// whole rows for attention probabilities.
const CHUNK: usize = 256;
/// Post-activation values share a factor over blocks of this many adjacent
/// elements.
const BLOCK: usize = 4;
/// Normals one chunk holds: a post-activation chunk's values and the shared
/// factors of its blocks.
const CHUNK_NORMALS: usize = CHUNK + CHUNK / BLOCK;

/// The normals of one sampler chunk, in three phases. Draw: the caller
/// makes every draw of the chunk in stream order, each normal's two
/// through [`Normals::draw`]. Math: [`Normals::compute`] turns the raw
/// draws into normals at once (vectorized on the AVX2 kernel tier).
/// Assemble: the caller walks the normals in draw order.
struct Normals {
    u1: [u32; CHUNK_NORMALS],
    u2: [u32; CHUNK_NORMALS],
    z: [f32; CHUNK_NORMALS],
    len: usize,
}

impl Normals {
    fn new() -> Self {
        Self {
            u1: [0; CHUNK_NORMALS],
            u2: [0; CHUNK_NORMALS],
            z: [0.0; CHUNK_NORMALS],
            len: 0,
        }
    }

    /// Draws one normal's uniforms, `u1` then `u2`, keeping the top 32
    /// bits of each draw (the sampler reads the top 24).
    fn draw(&mut self, rng: &mut SynthRng) {
        self.u1[self.len] = (rng.next_u64() >> 32) as u32;
        self.u2[self.len] = (rng.next_u64() >> 32) as u32;
        self.len += 1;
    }

    /// The standard normals of the draws since the last call, in draw order.
    fn compute(&mut self) -> &[f32] {
        let n = std::mem::take(&mut self.len);
        boxmuller::box_muller(&self.u1[..n], &self.u2[..n], &mut self.z[..n]);
        &self.z[..n]
    }
}

/// The settings of one post-activation sampling call that do not depend
/// on the activation.
struct PostActivation {
    n: usize,
    outlier_gain: f32,
    anchor: f32,
    indep: f32,
}

impl PostActivation {
    /// Samples `n` post-activation values in chunks of whole blocks.
    ///
    /// Draw: per block its zero draw (when `zero_block` is set), then a
    /// zero block's two skipped draws, or the block's shared factor and
    /// per value its normal and its outlier draw. Math: the normals at
    /// once. Assemble, in three passes over the chunk: mix each block's
    /// `shared` factor into its values with the outlier gains; apply the
    /// activation to the chunk's values; mask a zero block's values to
    /// +0.0. ELU's libm `expf` is applied block by block to the value
    /// blocks only; every other activation is a few vector instructions a
    /// value, cheaper than a branch per block. A
    /// block's normals sit at `start[b]` among the chunk's normals; a zero
    /// block's start is the next block's, and the lanes past the last
    /// value of a partial block read stale normals, both masked or cut
    /// off. The buffer holds four normals past any block's start.
    #[inline(always)]
    fn sample(
        &self,
        src: &mut SynthSource,
        zero_block: Option<Bernoulli>,
        shared: impl Fn(f32) -> f32,
        activation: Activation,
    ) -> Vec<f32> {
        let n = self.n;
        let outlier = Bernoulli::new(ACT_OUTLIER_P);
        let mut out = Vec::with_capacity(n);
        let mut normals = Normals::new();
        let mut start = [0usize; CHUNK / BLOCK];
        let mut zero = [false; CHUNK / BLOCK];
        let mut gains = [1.0f32; CHUNK];
        let mut chunk = [0.0f32; CHUNK];
        while out.len() < n {
            let (mut drawn, mut blocks) = (out.len(), 0);
            while blocks < CHUNK / BLOCK && drawn < n {
                let len = BLOCK.min(n - drawn);
                let is_zero = zero_block.is_some_and(|p| p.sample(&mut src.rng));
                start[blocks] = normals.len;
                zero[blocks] = is_zero;
                if is_zero {
                    // The unused shared factor's draws keep the stream
                    // aligned; its math is skipped.
                    src.rng.next_u64();
                    src.rng.next_u64();
                } else {
                    normals.draw(&mut src.rng);
                    for g in &mut gains[blocks * BLOCK..blocks * BLOCK + len] {
                        normals.draw(&mut src.rng);
                        *g = if outlier.sample(&mut src.rng) {
                            self.outlier_gain
                        } else {
                            1.0
                        };
                    }
                }
                drawn += len;
                blocks += 1;
            }
            normals.compute();
            let values = &mut chunk[..blocks * BLOCK];
            for (b, (dst, g)) in values
                .chunks_exact_mut(BLOCK)
                .zip(gains.chunks_exact(BLOCK))
                .enumerate()
            {
                let v: &[f32; BLOCK + 1] = normals.z[start[b]..start[b] + BLOCK + 1]
                    .try_into()
                    .expect("four normals past any start");
                let s = shared(v[0]);
                for j in 0..BLOCK {
                    dst[j] = (s + self.indep * v[j + 1]) * g[j];
                }
            }
            if let Activation::Elu { .. } = activation {
                for (dst, &is_zero) in values.chunks_exact_mut(BLOCK).zip(&zero) {
                    if !is_zero {
                        activation.apply_in_place(dst);
                    }
                }
            } else {
                activation.apply_in_place(values);
            }
            for (dst, &is_zero) in values.chunks_exact_mut(BLOCK).zip(&zero) {
                // All ones for a value block, all zeros for a zero block.
                let keep = u32::from(is_zero).wrapping_sub(1);
                dst.iter_mut()
                    .for_each(|v| *v = f32::from_bits(v.to_bits() & keep));
            }
            if out.is_empty() && !zero[0] {
                chunk[0] = self.anchor;
            }
            let take = drawn - out.len();
            out.extend_from_slice(&chunk[..take]);
        }
        out
    }
}

/// The zero codes of `codes` as two bitmaps per 64 codes: bit `i` of word
/// `w` marks code `64w + i`. `scattered` holds the zeros of four-code
/// blocks that also hold a non-zero code, `clustered` those of all-zero
/// blocks. A partial last block is all-zero when its codes are.
fn zero_masks(codes: &[i32]) -> (Vec<u64>, Vec<u64>) {
    /// Low bit of every four-bit block lane.
    const BLOCK_LO: u64 = 0x1111_1111_1111_1111;
    codes
        .chunks(64)
        .map(|chunk| {
            let zero = chunk
                .iter()
                .enumerate()
                .fold(0u64, |m, (i, &c)| m | (u64::from(c == 0) << i));
            // Lanes past the end count as zero for the block test only.
            let padded = zero | u64::MAX.checked_shl(chunk.len() as u32).unwrap_or(0);
            let all_zero = padded & (padded >> 1) & (padded >> 2) & (padded >> 3) & BLOCK_LO;
            let clustered = zero & (all_zero * 0xF);
            (zero & !clustered, clustered)
        })
        .unzip()
}

/// Zeroes the smallest-magnitude non-zero codes until at least `want` codes
/// are zero (or every code is). Selection is by counting rather than
/// sorting: one pass builds a magnitude histogram, which locates the
/// threshold, then one pass zeroes every code strictly below it and
/// another the earliest codes *at* it until the quota is met — exactly the set
/// a stable sort-by-`unsigned_abs` followed by `take(want - zeros)` picks,
/// in O(n) instead of O(n log n). Quantized magnitudes are small (≤ the
/// precision's symmetric maximum), so the histogram is small too.
fn zero_smallest_codes(codes: &mut [i32], want: usize) {
    let zeros = codes.iter().filter(|&&c| c == 0).count();
    if zeros >= want {
        return;
    }
    let mut hist = Vec::new();
    for &c in codes.iter() {
        count_into(&mut hist, c.unsigned_abs() as usize, 1);
    }
    zero_up_to_threshold(codes, 1, want - zeros, &hist, |g| {
        g[0].unsigned_abs() as usize
    });
}

/// Zeroes whole blocks of four adjacent codes, the smallest block
/// magnitude sum first and ties in block order, until `need` more codes
/// are zero; the last block touched may be zeroed only in part, in index
/// order. A sum histogram weighted by each block's non-zero count locates
/// the threshold sum, as in [`zero_smallest_codes`]: exactly the blocks
/// and codes a stable sort of the blocks by sum would pick, in O(n).
fn zero_smallest_blocks(codes: &mut [i32], need: usize) {
    let block_sum = |b: &[i32]| b.iter().map(|v| v.unsigned_abs() as usize).sum::<usize>();
    let mut hist = Vec::new();
    for b in codes.chunks(4) {
        count_into(
            &mut hist,
            block_sum(b),
            b.iter().filter(|&&v| v != 0).count(),
        );
    }
    zero_up_to_threshold(codes, 4, need, &hist, block_sum);
}

/// Adds `count` to `hist[key]`, growing the histogram to fit `key`.
fn count_into(hist: &mut Vec<usize>, key: usize, count: usize) {
    if key >= hist.len() {
        hist.resize(key + 1, 0);
    }
    hist[key] += count;
}

/// The shared forward pass of the counting selections. `hist[k]` counts the
/// non-zero codes in groups of `group` codes whose key is `k`; key 0 holds
/// no non-zero code. Finds the smallest key `t` with at least `need`
/// non-zero codes at or below it, then zeroes every group keyed below `t`
/// and the earliest non-zero codes of groups keyed `t` until `need` are
/// zeroed. With `need` above the non-zero count every group goes.
fn zero_up_to_threshold(
    codes: &mut [i32],
    group: usize,
    need: usize,
    hist: &[usize],
    key: impl Fn(&[i32]) -> usize,
) {
    let mut below = 0;
    let mut threshold = hist.len();
    for (k, &count) in hist.iter().enumerate().skip(1) {
        if below + count >= need {
            threshold = k;
            break;
        }
        below += count;
    }
    // Every group keyed below the threshold goes whole, in a pass without
    // a data-dependent branch (a group keyed 0 holds only zeros)...
    for g in codes.chunks_mut(group) {
        let below = key(g) < threshold;
        g.iter_mut().for_each(|c| *c = if below { 0 } else { *c });
    }
    // ...then the earliest non-zero codes keyed at it, stopping once the
    // quota is met.
    let mut at_threshold = need - below;
    for g in codes.chunks_mut(group) {
        if at_threshold == 0 {
            break;
        }
        if key(g) == threshold {
            for c in g.iter_mut().filter(|c| **c != 0).take(at_threshold) {
                *c = 0;
                at_threshold -= 1;
            }
        }
    }
}

impl SynthSource {
    /// Creates a source with a fixed seed.
    pub fn new(seed: u64) -> Self {
        Self {
            rng: SynthRng::seed_from_u64(seed),
        }
    }

    /// Creates a source whose stream is derived from `(seed, layer_index)`.
    ///
    /// Each layer gets a statistically independent stream that depends only
    /// on the pair — not on how many values earlier layers consumed — so a
    /// network's layers can be synthesized in any order (or concurrently)
    /// and produce tensors bit-identical to a serial walk.
    pub fn for_layer(seed: u64, layer_index: usize) -> Self {
        Self {
            rng: SynthRng::for_stream(seed, layer_index as u64),
        }
    }

    /// Generates quantized weights for `layer`, sampling at most `cap`
    /// values (a statistical sample for very large layers). Weights are
    /// Gaussian with a heavy-tail outlier component, as trained weight
    /// matrices are.
    pub fn weights(&mut self, layer: &Layer, cap: usize) -> QuantTensor {
        let n = layer.kind().weight_len().min(cap.max(1));
        let gain = weight_outlier_gain(layer.weight_precision());
        let outlier = Bernoulli::new(WEIGHT_OUTLIER_P);
        let mut data = Vec::with_capacity(n);
        let mut normals = Normals::new();
        let mut gains = [1.0; CHUNK];
        while data.len() < n {
            // Per weight: its normal's two draws, then its outlier draw. A
            // weight that is no outlier is scaled by 1.0, which is exact.
            let gains = &mut gains[..CHUNK.min(n - data.len())];
            for g in gains.iter_mut() {
                normals.draw(&mut self.rng);
                *g = if outlier.sample(&mut self.rng) {
                    gain
                } else {
                    1.0
                };
            }
            let z = normals.compute();
            data.extend(z.iter().zip(gains.iter()).map(|(&w, &g)| w * g));
        }
        // Pin the quantizer scale to the full tensor's expected maximum so
        // sampled statistics do not depend on the sample size (real
        // calibration sees the whole tensor).
        if let Some(first) = data.first_mut() {
            *first = 4.0 * gain;
        }
        let qt = QuantTensor::quantize(&data, Shape::new(&[n]), layer.weight_precision());
        // Ensure the exact-zero mass trained weights carry: zero the
        // smallest-magnitude codes up to the target fraction.
        let quantizer = *qt.quantizer();
        let mut codes = qt.into_codes();
        let want = (WEIGHT_ZERO_FRACTION * n as f64) as usize;
        zero_smallest_codes(&mut codes, want);
        QuantTensor::from_codes(
            sibia_tensor::Tensor::from_vec(codes, Shape::new(&[n])),
            quantizer,
        )
    }

    /// Generates quantized input activations for `layer` according to its
    /// [`InputProfile`], sampling at most `cap` values.
    pub fn activations(&mut self, layer: &Layer, cap: usize) -> QuantTensor {
        self.activations_with_profile(layer, cap, layer.input_profile())
    }

    /// Generates quantized input activations with an explicit profile.
    pub fn activations_with_profile(
        &mut self,
        layer: &Layer,
        cap: usize,
        profile: InputProfile,
    ) -> QuantTensor {
        let n = layer.kind().input_len().min(cap.max(1));
        let data = match profile {
            InputProfile::PostActivation => self.post_activation_values_with_gain(
                layer.activation(),
                layer.input_sparsity(),
                n,
                act_outlier_gain(layer.input_precision(), layer.activation()),
            ),
            InputProfile::AttentionProb => self.attention_prob_values(n),
        };
        let qt = QuantTensor::quantize(&data, Shape::new(&[n]), layer.input_precision());
        match profile {
            // Attention probabilities keep their natural (softmax) zero
            // structure.
            InputProfile::AttentionProb => qt,
            InputProfile::PostActivation => {
                self.calibrate_sparsity(qt, layer.input_sparsity(), layer.activation())
            }
        }
    }

    /// Adjusts quantized codes toward the paper's reported full-bit-width
    /// sparsity for the layer: half of any quantization underflow beyond
    /// the target is rescued to ±1 (the nearest non-zero codes; the other
    /// half stays zero because the reported figures are pre-quantization),
    /// a shortfall is filled by zeroing the smallest-magnitude codes.
    /// Calibration keeps the near-zero-dominated magnitude profile that
    /// drives slice sparsity.
    fn calibrate_sparsity(
        &mut self,
        qt: QuantTensor,
        target: f64,
        activation: Activation,
    ) -> QuantTensor {
        let quantizer = *qt.quantizer();
        let mut codes = qt.into_codes();
        let n = codes.len();
        let want = (target * n as f64).round() as usize;
        let cur = codes.iter().filter(|&&v| v == 0).count();
        let nonneg = activation.zeroes_negatives();
        // Calibration works on blocks of four adjacent elements to preserve
        // the spatial clustering of zero regions (whole zero tokens /
        // feature-map patches) — the structure sub-word skipping relies on.
        if cur > want {
            // Rescue *scattered* zeros first (zeros inside non-zero blocks
            // are quantization-underflow noise); intact zero blocks — the
            // clustered zeros sub-word skipping relies on — are only broken
            // if scattered zeros run out. Only half the excess is rescued:
            // the paper's reported "data sparsity" is a pre-quantization
            // figure, and symmetric quantization legitimately underflows
            // additional near-zero values to exact zeros. Rescues go in
            // index order, each drawing its sign unless negatives are
            // zeroed anyway.
            let mut excess = (cur - want) / 2;
            let (scattered, clustered) = zero_masks(&codes);
            'rescue: for masks in [scattered, clustered] {
                for (w, mut bits) in masks.into_iter().enumerate() {
                    while bits != 0 {
                        if excess == 0 {
                            break 'rescue;
                        }
                        codes[64 * w + bits.trailing_zeros() as usize] =
                            if nonneg || self.rng.gen_bool(0.5) {
                                1
                            } else {
                                -1
                            };
                        excess -= 1;
                        bits &= bits - 1;
                    }
                }
            }
        } else if cur < want {
            // Zero out whole blocks, smallest block magnitude first.
            zero_smallest_blocks(&mut codes, want - cur);
        }
        QuantTensor::from_codes(
            sibia_tensor::Tensor::from_vec(codes, Shape::new(&[n])),
            quantizer,
        )
    }

    /// Raw (unquantized) post-activation values.
    ///
    /// Values are generated with short-range spatial correlation (a shared
    /// factor over blocks of four adjacent elements, `ρ ≈ 0.7`), matching
    /// the locality of real feature maps. This correlation is load-bearing:
    /// the PE skips/compresses at *sub-word* (4-slice) granularity, and
    /// i.i.d. data would under-produce all-four-zero sub-words relative to
    /// real activations.
    pub fn post_activation_values(
        &mut self,
        activation: Activation,
        target_sparsity: f64,
        n: usize,
    ) -> Vec<f32> {
        self.post_activation_values_with_gain(activation, target_sparsity, n, 6.0)
    }

    /// [`Self::post_activation_values`] with an explicit outlier gain.
    pub fn post_activation_values_with_gain(
        &mut self,
        activation: Activation,
        target_sparsity: f64,
        n: usize,
        outlier_gain: f32,
    ) -> Vec<f32> {
        const RHO: f32 = 0.85;
        // ReLU shifts the pre-activation mean so P(x <= 0) hits the target;
        // the marginal stays N(mu, 1) under the shared block factor.
        // Non-ReLU functions keep negatives alive; exact zeros come from
        // quantization underflow, modelled as a per-block mixture (zero
        // regions of a feature map are contiguous).
        let sampler = PostActivation {
            n,
            outlier_gain,
            // Deterministic scale anchor for out[0] (see weights()); a
            // leading zero block keeps its zero.
            anchor: activation.apply(4.0 * outlier_gain),
            indep: (1.0 - RHO * RHO).sqrt(),
        };
        match activation {
            Activation::Relu => {
                let mu = -inverse_normal_cdf(target_sparsity.clamp(1e-6, 1.0 - 1e-6)) as f32;
                sampler.sample(self, None, |b| mu + RHO * b, activation)
            }
            _ => {
                let zero_block = Bernoulli::new(target_sparsity);
                sampler.sample(self, Some(zero_block), |b| RHO * b, activation)
            }
        }
    }

    /// Softmax-row values: `n` probabilities drawn as softmax over Gaussian
    /// logits in rows of 64.
    fn attention_prob_values(&mut self, n: usize) -> Vec<f32> {
        const ROW: usize = 64;
        let mut out = Vec::with_capacity(n);
        let mut normals = Normals::new();
        while out.len() < n {
            for _ in 0..ROW {
                normals.draw(&mut self.rng);
            }
            let mut logits = [0.0f32; ROW];
            for (logit, &z) in logits.iter_mut().zip(normals.compute()) {
                *logit = 2.0 * z;
            }
            let max = logits.iter().fold(f32::NEG_INFINITY, |m, &x| m.max(x));
            let exps = logits.map(|x| (x - max).exp());
            let sum: f32 = exps.iter().sum();
            let take = ROW.min(n - out.len());
            out.extend(exps[..take].iter().map(|&e| e / sum));
        }
        out
    }

    /// Raw Gaussian values (for ad-hoc experiments).
    pub fn gaussian(&mut self, n: usize, sigma: f32) -> Vec<f32> {
        let mut out = Vec::with_capacity(n);
        let mut normals = Normals::new();
        while out.len() < n {
            for _ in 0..CHUNK.min(n - out.len()) {
                normals.draw(&mut self.rng);
            }
            out.extend(normals.compute().iter().map(|&z| z * sigma));
        }
        out
    }

    /// Quantizes ad-hoc real data at a precision.
    pub fn quantize(&self, data: &[f32], precision: Precision) -> QuantTensor {
        QuantTensor::quantize(data, Shape::new(&[data.len()]), precision)
    }
}

/// Inverse standard-normal CDF (Acklam's rational approximation,
/// |ε| < 1.15e-9 over (0, 1)).
fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&p) && p > 0.0 && p < 1.0,
        "p must be in (0,1)"
    );
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use std::cmp::Ordering;

    #[test]
    fn generation_is_deterministic() {
        let layer = Layer::linear("l", 16, 64, 64);
        let a = SynthSource::new(7).activations(&layer, 512);
        let b = SynthSource::new(7).activations(&layer, 512);
        assert_eq!(a.codes().data(), b.codes().data());
        let c = SynthSource::new(8).activations(&layer, 512);
        assert_ne!(a.codes().data(), c.codes().data());
    }

    #[test]
    fn relu_sparsity_tracks_target() {
        for &target in &[0.2, 0.5, 0.7] {
            let layer = Layer::linear("l", 64, 256, 1)
                .with_activation(Activation::Relu)
                .with_input_sparsity(target);
            let acts = SynthSource::new(1).activations(&layer, 16384);
            assert!(
                (acts.sparsity() - target).abs() < 0.05,
                "target {target} got {}",
                acts.sparsity()
            );
        }
    }

    #[test]
    fn non_relu_sparsity_is_at_least_the_target() {
        let layer = Layer::linear("l", 64, 256, 1)
            .with_activation(Activation::Gelu)
            .with_input_sparsity(0.119);
        let acts = SynthSource::new(2).activations(&layer, 16384);
        // The reported sparsity is a lower bound; quantization underflow of
        // the heavy-tailed GeLU output legitimately adds exact zeros
        // (half of the excess is kept by calibration).
        assert!(acts.sparsity() >= 0.10, "got {}", acts.sparsity());
        assert!(acts.sparsity() <= 0.60, "got {}", acts.sparsity());
    }

    #[test]
    fn elu_activations_are_mostly_small_negatives_below_zero() {
        let mut src = SynthSource::new(3);
        let vals = src.post_activation_values(Activation::ELU_1, 0.0, 8192);
        let negs = vals.iter().filter(|&&x| x < 0.0).count();
        assert!(negs > 3000, "ELU keeps roughly half the mass negative");
        assert!(vals.iter().all(|&x| x > -1.0001), "ELU saturates at -alpha");
    }

    #[test]
    fn attention_probs_are_a_distribution() {
        let layer =
            Layer::linear("av", 64, 64, 64).with_precisions(Precision::BITS7, Precision::BITS7);
        let acts =
            SynthSource::new(4).activations_with_profile(&layer, 4096, InputProfile::AttentionProb);
        let deq = acts.dequantize();
        assert!(deq.data().iter().all(|&p| (0.0..=1.0).contains(&p)));
        // Softmax rows concentrate near zero → lots of near-zero codes.
        let near_zero = acts.codes().data().iter().filter(|&&c| c.abs() < 8).count() as f64
            / acts.codes().len() as f64;
        assert!(near_zero > 0.7, "got {near_zero}");
    }

    #[test]
    fn counting_selection_matches_stable_sort_reference() {
        // The former implementation: stable sort by magnitude, zero the
        // first `want - zeros` non-zero codes. The counting selection must
        // reproduce it exactly, ties and all.
        fn reference(codes: &[i32], want: usize) -> Vec<i32> {
            let mut out = codes.to_vec();
            let zeros = out.iter().filter(|&&c| c == 0).count();
            if zeros < want {
                let mut idx: Vec<usize> = (0..out.len()).filter(|&i| out[i] != 0).collect();
                idx.sort_by_key(|&i| out[i].unsigned_abs());
                for &i in idx.iter().take(want - zeros) {
                    out[i] = 0;
                }
            }
            out
        }

        let mut cases: Vec<Vec<i32>> = vec![
            vec![],
            vec![0, 0, 0],
            vec![5],
            vec![-3, 3, -3, 3, 2, -2, 1, 0, -1],  // heavy ties
            vec![-512, 511, -1, 1, 0, 256, -256], // widest quantized range
        ];
        cases.extend(pseudo_random_codes());
        for codes in &cases {
            for want in [0usize, 1, codes.len() / 3, codes.len(), codes.len() + 7] {
                let mut counted = codes.clone();
                zero_smallest_codes(&mut counted, want);
                assert_eq!(
                    counted,
                    reference(codes, want),
                    "codes={codes:?} want={want}"
                );
            }
        }
    }

    /// Deterministic pseudo-random code vectors in `[-8, 8]`, of lengths
    /// 17, 64 and 257.
    fn pseudo_random_codes() -> Vec<Vec<i32>> {
        let mut x = 0x9e3779b97f4a7c15u64;
        [17usize, 64, 257]
            .into_iter()
            .map(|len| {
                (0..len)
                    .map(|_| {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        ((x >> 40) as i64 % 17 - 8) as i32
                    })
                    .collect()
            })
            .collect()
    }

    #[test]
    fn block_counting_selection_matches_stable_sort_reference() {
        // The former fill of `calibrate_sparsity`: stable sort of the
        // four-code blocks by magnitude sum, then zero non-zero codes block
        // by block, in index order, until `need` are zeroed.
        fn reference(codes: &[i32], mut need: usize) -> Vec<i32> {
            let mut out = codes.to_vec();
            let n = out.len();
            let mut blocks: Vec<usize> = (0..n.div_ceil(4)).collect();
            blocks.sort_by_key(|&b| {
                out[b * 4..(b * 4 + 4).min(n)]
                    .iter()
                    .map(|&v| u64::from(v.unsigned_abs()))
                    .sum::<u64>()
            });
            for b in blocks {
                for c in &mut out[b * 4..(b * 4 + 4).min(n)] {
                    if *c != 0 && need > 0 {
                        *c = 0;
                        need -= 1;
                    }
                }
            }
            out
        }

        let mut cases: Vec<Vec<i32>> = vec![
            vec![],
            vec![0; 9],                                      // all-zero blocks only
            vec![2, -1],                                     // one partial block
            vec![1, 2, 0, 0, 0, 0, 3, 0, -3, 0, 0, 0, 2, 1], // tied sums, partial tail
            vec![0, 0, 0, 0, 5, -5, 1, 0, 0, 0, 0, 0, -1, 1, 1, 1, 4],
            vec![-4095, 4095, 1, 0, 7, 7, 7, 7, -1, 0, 0, 2], // widest 13-bit sums
        ];
        cases.extend(pseudo_random_codes());
        for codes in &cases {
            let nonzero = codes.iter().filter(|&&c| c != 0).count();
            for need in [0, 1, 2, 3, 5, nonzero / 2, nonzero, nonzero + 3] {
                let mut counted = codes.clone();
                zero_smallest_blocks(&mut counted, need);
                assert_eq!(
                    counted,
                    reference(codes, need),
                    "codes={codes:?} need={need}"
                );
            }
        }
    }

    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

    /// FNV-1a (64-bit) over `bytes`, continuing from the digest `h`.
    fn fnv1a_extend(h: u64, bytes: impl IntoIterator<Item = u8>) -> u64 {
        bytes
            .into_iter()
            .fold(h, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    }

    /// FNV-1a (64-bit) over the little-endian bytes of `codes`.
    fn fnv1a(codes: &[i32]) -> u64 {
        fnv1a_extend(FNV_OFFSET, codes.iter().flat_map(|c| c.to_le_bytes()))
    }

    /// Running digests of a group of sampler calls: FNV-1a over the raw
    /// bits of every output, and over the stream position after each call
    /// (the next `next_u64`), where a draw loop out of alignment shows.
    struct Pins {
        values: u64,
        positions: u64,
    }

    impl Pins {
        fn new() -> Self {
            Self {
                values: FNV_OFFSET,
                positions: FNV_OFFSET,
            }
        }

        fn record(&mut self, src: &mut SynthSource, bits: impl IntoIterator<Item = u32>) {
            self.values = fnv1a_extend(self.values, bits.into_iter().flat_map(u32::to_le_bytes));
            self.positions = fnv1a_extend(self.positions, src.rng.next_u64().to_le_bytes());
        }
    }

    #[test]
    fn sampler_edge_cases_are_pinned() {
        // The layer pins below see whole-layer codes only. These pin the raw
        // floats the experiments read, at the lengths where a chunked draw
        // loop can slip: empty and one-value calls, chunk and block
        // boundaries, partial last blocks and rows, and all-zero stretches
        // (sparsity 1.0). Every call runs on its own seed.
        let f32_bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let code_bits = |q: &QuantTensor| {
            q.codes()
                .data()
                .iter()
                .map(|&c| c as u32)
                .collect::<Vec<_>>()
        };
        let mut seed = 0;
        let mut next_source = || {
            seed += 1;
            SynthSource::new(seed)
        };
        let mut got: Vec<(String, Pins)> = Vec::new();

        let mut pins = Pins::new();
        for n in [0, 1, 255, 256, 257, 1025, 4097] {
            let mut src = next_source();
            let v = src.gaussian(n, 0.75);
            pins.record(&mut src, f32_bits(&v));
        }
        got.push(("gaussian".into(), pins));

        for act in [
            Activation::Identity,
            Activation::Relu,
            Activation::LEAKY_RELU_01,
            Activation::Gelu,
            Activation::ELU_1,
        ] {
            let mut pins = Pins::new();
            for n in [1, 3, 4, 5, 257, 1025, 4097] {
                for sparsity in [0.0, 0.5, 1.0] {
                    let mut src = next_source();
                    let v = src.post_activation_values_with_gain(act, sparsity, n, 6.0);
                    pins.record(&mut src, f32_bits(&v));
                }
            }
            got.push((format!("post_activation {act}"), pins));
        }

        let mut pins = Pins::new();
        let layer =
            Layer::linear("w", 1, 64, 48).with_precisions(Precision::BITS7, Precision::BITS10);
        for cap in [1, 5, 257] {
            let mut src = next_source();
            let w = src.weights(&layer, cap);
            pins.record(&mut src, code_bits(&w));
        }
        got.push(("weights".into(), pins));

        // 1000 values: fifteen whole rows of 64 and a partial sixteenth.
        let mut pins = Pins::new();
        let layer = Layer::linear("av", 1, 1000, 64);
        let mut src = next_source();
        let acts = src.activations_with_profile(&layer, 1000, InputProfile::AttentionProb);
        pins.record(&mut src, code_bits(&acts));
        let mut src = next_source();
        let v = src.attention_prob_values(1000);
        pins.record(&mut src, f32_bits(&v));
        got.push(("attention".into(), pins));

        let expected: [(&str, u64, u64); 8] = [
            ("gaussian", 0x7402_fcdb_9e26_bf7c, 0x92e1_4e07_e110_e308),
            (
                "post_activation identity",
                0x0973_a842_f401_e9cf,
                0x11d2_2b0b_64de_a6ec,
            ),
            (
                "post_activation ReLU",
                0x1a66_0cfc_a7ac_3f4c,
                0xa11d_3f51_370d_7388,
            ),
            (
                "post_activation LeakyReLU(0.1)",
                0x874e_b1bc_fd4c_42d9,
                0x128a_bd99_6ee5_c3cb,
            ),
            (
                "post_activation GeLU",
                0x8c03_eb89_f51b_7b8f,
                0xfbc7_fc33_86af_3e27,
            ),
            (
                "post_activation ELU(1)",
                0x9cf6_7c48_e99d_0119,
                0xbfb4_f07e_5c55_8ab2,
            ),
            ("weights", 0xbc1a_b21a_12c5_63ef, 0x35b2_ea1c_9c9d_efb0),
            ("attention", 0x9014_9148_cf95_69de, 0x07f5_fc1f_6ebb_900e),
        ];
        assert_eq!(got.len(), expected.len());
        for ((name, pins), (want_name, values, positions)) in got.iter().zip(expected) {
            assert_eq!(name, want_name);
            assert_eq!(pins.positions, positions, "{name}: stream position");
            assert_eq!(pins.values, values, "{name}: values");
        }
    }

    /// Which calibration branch `activations` takes on `layer`: its
    /// quantized zero count before calibration against the target count
    /// (`Greater` rescues underflow, `Less` fills a shortfall).
    fn calibration_branch(seed: u64, index: usize, layer: &Layer, cap: usize) -> Ordering {
        let n = layer.kind().input_len().min(cap);
        let data = SynthSource::for_layer(seed, index).post_activation_values_with_gain(
            layer.activation(),
            layer.input_sparsity(),
            n,
            act_outlier_gain(layer.input_precision(), layer.activation()),
        );
        let qt = QuantTensor::quantize(&data, Shape::new(&[n]), layer.input_precision());
        let zeros = qt.codes().data().iter().filter(|&&c| c == 0).count();
        zeros.cmp(&((layer.input_sparsity() * n as f64).round() as usize))
    }

    #[test]
    fn layer_synthesis_digests_are_pinned() {
        // One layer per synthesis branch, each on its own `for_layer`
        // stream of seed 11: FNV-1a digests of the input and the weight
        // codes. A drift names the branch here, where otherwise it would
        // only change a whole-grid digest in the benchmark's golden test.
        use Ordering::{Greater as Rescue, Less as Fill};
        let (b7, b10, b13) = (Precision::BITS7, Precision::BITS10, Precision::BITS13);
        let linear = |name, act, sparsity| {
            Layer::linear(name, 8, 64, 48)
                .with_activation(act)
                .with_input_sparsity(sparsity)
        };
        // 4096 inputs and 4608 weights, sampled below both sizes; 1001 is
        // not a multiple of the four-value calibration block.
        let capped = |name, act, sparsity| {
            Layer::conv2d(name, 16, 32, 3, 1, 1, 16)
                .with_activation(act)
                .with_input_sparsity(sparsity)
        };
        let relu = Activation::Relu;
        let cases = [
            (
                capped("capped_relu_fill", relu, 0.5).with_precisions(b10, b7),
                1001,
                Some(Fill),
                0xf8b2_3bbf_5741_c17f,
                0x626a_61fd_7091_806c,
            ),
            (
                linear("leaky_relu", Activation::LEAKY_RELU_01, 0.3),
                4096,
                Some(Rescue),
                0xccc4_4a60_84ab_80c8,
                0xb592_8211_8660_fc50,
            ),
            (
                linear("elu", Activation::ELU_1, 0.2),
                4096,
                Some(Rescue),
                0x8230_19cf_0612_ffeb,
                0xa131_5143_b61f_61e9,
            ),
            (
                linear("gelu_w10", Activation::Gelu, 0.119).with_precisions(b10, b10),
                4096,
                Some(Rescue),
                0xd96b_a607_9481_b724,
                0x5839_4645_2ea2_6e78,
            ),
            (
                linear("identity_w13", Activation::Identity, 0.0).with_precisions(b13, b13),
                4096,
                Some(Rescue),
                0x1b1c_d487_f4bb_63c4,
                0xff04_1ca4_9381_86f5,
            ),
            (
                linear("attention", Activation::Identity, 0.0)
                    .with_input_profile(InputProfile::AttentionProb),
                4096,
                None,
                0xc67f_57fd_973b_2706,
                0x3814_cce5_6059_878b,
            ),
            (
                linear("relu_rescue", relu, 0.5),
                4096,
                Some(Rescue),
                0x548b_fd3f_12d4_ef7b,
                0xc069_ede6_cdc7_dc23,
            ),
            (
                capped("capped_gelu_rescue", Activation::Gelu, 0.1),
                1001,
                Some(Rescue),
                0xcf56_05c1_7d6d_8f09,
                0x4499_dda6_f993_870b,
            ),
        ];
        for (index, (layer, cap, branch, inputs, weights)) in cases.into_iter().enumerate() {
            let name = layer.name();
            if let Some(branch) = branch {
                assert_eq!(calibration_branch(11, index, &layer, cap), branch, "{name}");
            }
            let mut src = SynthSource::for_layer(11, index);
            let acts = src.activations(&layer, cap);
            let w = src.weights(&layer, cap);
            assert_eq!(fnv1a(acts.codes().data()), inputs, "{name} inputs");
            assert_eq!(fnv1a(w.codes().data()), weights, "{name} weights");
        }
    }

    #[test]
    fn weights_are_roughly_symmetric() {
        let layer = Layer::linear("l", 1, 256, 64);
        let w = SynthSource::new(5).weights(&layer, 16384);
        let pos = w.codes().data().iter().filter(|&&c| c > 0).count() as f64;
        let neg = w.codes().data().iter().filter(|&&c| c < 0).count() as f64;
        assert!((pos / neg - 1.0).abs() < 0.15);
    }

    #[test]
    fn cap_limits_sample_size() {
        let layer = Layer::linear("l", 1000, 1000, 1);
        let acts = SynthSource::new(6).activations(&layer, 128);
        assert_eq!(acts.codes().len(), 128);
    }

    #[test]
    fn inverse_cdf_matches_known_quantiles() {
        assert!((inverse_normal_cdf(0.5)).abs() < 1e-8);
        assert!((inverse_normal_cdf(0.975) - 1.959_964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959_964).abs() < 1e-4);
    }
}
