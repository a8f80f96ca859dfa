//! End-to-end speculation scenarios on synthetic workloads.
//!
//! Reproduces the paper's §II-B claim: 32-to-1 max-pool speculation on
//! VoteNet with 4-bit high slices of both operands is ~19.9 % wrong with the
//! conventional decomposition but ~95 % successful with the SBR.

use sibia_nn::{Activation, SynthSource};
use sibia_sbr::{Precision, Quantizer};

use crate::dot::{SliceRepr, Speculator};
use crate::pool::{self, PoolConfig, PoolStats};

/// Parameters of a synthetic max-pool speculation experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MaxPoolScenario {
    /// RNG seed.
    pub seed: u64,
    /// Number of pooling windows.
    pub windows: usize,
    /// Pooling group size and candidate count.
    pub pool: PoolConfig,
    /// Dot-product depth (input channels × kernel).
    pub depth: usize,
    /// Input precision.
    pub input_precision: Precision,
    /// Weight precision.
    pub weight_precision: Precision,
    /// High input slice orders pre-computed.
    pub input_kept: usize,
    /// High weight slice orders pre-computed.
    pub weight_kept: usize,
    /// Activation shaping the input distribution.
    pub activation: Activation,
    /// Full-bit-width input sparsity.
    pub input_sparsity: f64,
    /// Log-normal σ of per-output salience: pooled outputs belong to
    /// different points/patches whose feature magnitudes vary strongly
    /// (which is why most pooled outputs are insensitive at all). 0 makes
    /// all outputs exchangeable — the adversarial case.
    pub output_salience_sigma: f32,
}

impl MaxPoolScenario {
    /// The paper's VoteNet 32-to-1 setting: 7-bit operands, one 4-bit high
    /// slice of each pre-computed.
    pub fn votenet_32to1(candidates: usize) -> Self {
        Self {
            seed: 0x5eed,
            windows: 512,
            pool: PoolConfig::new(32, candidates),
            depth: 128,
            input_precision: Precision::BITS7,
            weight_precision: Precision::BITS7,
            input_kept: 1,
            weight_kept: 1,
            activation: Activation::Relu,
            input_sparsity: 0.462,
            output_salience_sigma: 0.3,
        }
    }

    /// Runs the scenario under one representation.
    pub fn run(&self, repr: SliceRepr) -> PoolStats {
        self.run_candidates(&[repr], &[self.pool.candidates])[0][0]
    }

    /// Runs the scenario under each representation once per candidate
    /// count, returning one vector per representation with one entry per
    /// count, both in the order given; `self.pool.candidates` is not used.
    /// The inputs, weights and exact dot products depend on neither, so
    /// they are synthesized and computed once: every representation
    /// speculates on the same outputs and every count pools them.
    ///
    /// # Panics
    ///
    /// Panics unless every count is in `1..=self.pool.group`.
    pub fn run_candidates(&self, reprs: &[SliceRepr], candidates: &[usize]) -> Vec<Vec<PoolStats>> {
        let specs: Vec<Speculator> = reprs
            .iter()
            .map(|&repr| Speculator::new(repr, self.input_kept, self.weight_kept))
            .collect();
        let mut src = SynthSource::new(self.seed);
        let n_outputs = self.windows * self.pool.group;
        let mut spec_vals = vec![Vec::with_capacity(n_outputs); specs.len()];
        let mut true_vals = Vec::with_capacity(n_outputs);
        // One quantization scale per tensor, as linear symmetric
        // quantization calibrates per layer — per-output re-fitting would
        // inject ranking noise no real datapath has.
        // Outlier gain 1: output-to-output magnitude variation is modelled
        // explicitly by `output_salience_sigma` below, so the generic
        // heavy-tail component is disabled here.
        let mut all_x = src.post_activation_values_with_gain(
            self.activation,
            self.input_sparsity,
            n_outputs * self.depth,
            1.0,
        );
        // Per-output salience: scale each pooled output's input features.
        for o in 0..n_outputs {
            let g = (self.output_salience_sigma * src.gaussian(1, 1.0)[0]).exp();
            for x in &mut all_x[o * self.depth..(o + 1) * self.depth] {
                *x *= g;
            }
        }
        let xq = Quantizer::fit(&all_x, self.input_precision);
        let mut w_high = vec![0i64; self.depth];
        // One shared weight vector per window (the pooled outputs of a real
        // max-pool window share weights and differ in inputs).
        for window_x in all_x.chunks_exact(self.pool.group * self.depth) {
            let w_raw = src.gaussian(self.depth, 1.0);
            let ws = Quantizer::fit(&w_raw, self.weight_precision).quantize_all(&w_raw);
            // The window's input codes, one output after another. One
            // window at a time: codes for every input would be a second
            // buffer the size of `all_x`.
            let window = xq.quantize_all(window_x);
            true_vals.extend(
                window
                    .chunks_exact(self.depth)
                    .map(|xs| Speculator::exact_dot(xs, &ws)),
            );
            for (spec, vals) in specs.iter().zip(&mut spec_vals) {
                // `speculate_dot` per output, with the window's weight high
                // parts taken once.
                for (h, &w) in w_high.iter_mut().zip(&ws) {
                    *h = spec.high_part(w, self.weight_precision, spec.weight_kept());
                }
                vals.extend(window.chunks_exact(self.depth).map(|xs| {
                    xs.iter()
                        .zip(&w_high)
                        .map(|(&x, &wh)| {
                            spec.high_part(x, self.input_precision, spec.input_kept()) * wh
                        })
                        .sum::<i64>()
                }));
            }
        }
        spec_vals
            .iter()
            .map(|vals| {
                candidates
                    .iter()
                    .map(|&c| pool::evaluate(PoolConfig::new(self.pool.group, c), vals, &true_vals))
                    .collect()
            })
            .collect()
    }
}

/// Parameters of a synthetic softmax (attention) speculation experiment —
/// the Albert / SpAtten setting of paper §II-D: speculative QK dots find
/// each row's dominant token, and rows with a dominant maximum skip their
/// remaining low-order computations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SoftmaxScenario {
    /// RNG seed.
    pub seed: u64,
    /// Number of attention rows.
    pub rows: usize,
    /// Context length (logits per row).
    pub row_len: usize,
    /// Head dimension (QK dot-product depth).
    pub depth: usize,
    /// Operand precision.
    pub precision: Precision,
    /// Dominance margin in speculative logit units (see
    /// [`crate::softmax::SoftmaxConfig`]).
    pub dominance_margin: i64,
}

impl SoftmaxScenario {
    /// The Albert attention setting: 7-bit operands, 128-token context,
    /// 64-wide heads.
    pub fn albert() -> Self {
        Self {
            seed: 0xa1be47,
            rows: 256,
            row_len: 128,
            depth: 64,
            precision: Precision::BITS7,
            dominance_margin: 0,
        }
    }

    /// Runs the scenario under one representation, returning the softmax
    /// speculation statistics.
    pub fn run(&self, repr: SliceRepr) -> crate::softmax::SoftmaxStats {
        let spec = Speculator::new(repr, 1, 1);
        let mut src = SynthSource::new(self.seed);
        let mut spec_vals = Vec::with_capacity(self.rows * self.row_len);
        let mut true_vals = Vec::with_capacity(self.rows * self.row_len);
        for _ in 0..self.rows {
            // The query of this row; keys vary per position. A small shared
            // component makes some keys genuinely dominant, as trained
            // attention heads are.
            let q_raw = src.gaussian(self.depth, 1.0);
            let qq = Quantizer::fit(&q_raw, self.precision);
            let q: Vec<i32> = q_raw.iter().map(|&x| qq.quantize(x)).collect();
            let dominant = src.gaussian(1, 1.0)[0].abs() * 2.0;
            for pos in 0..self.row_len {
                let mut k_raw = src.gaussian(self.depth, 1.0);
                if pos == 0 {
                    // Token 0 (CLS-like) tends to dominate attention rows.
                    for (k, &qv) in k_raw.iter_mut().zip(&q_raw) {
                        *k += dominant * qv;
                    }
                }
                let kq = Quantizer::fit(&k_raw, self.precision);
                let k: Vec<i32> = k_raw.iter().map(|&x| kq.quantize(x)).collect();
                spec_vals.push(spec.speculate_dot(&q, &k, self.precision, self.precision));
                true_vals.push(Speculator::exact_dot(&q, &k));
            }
        }
        let cfg = crate::softmax::SoftmaxConfig::new(self.row_len, self.dominance_margin);
        crate::softmax::evaluate(cfg, &spec_vals, &true_vals)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sbr_speculation_beats_conventional_on_votenet_setting() {
        // Paper §II-B: 4-bit/4-bit speculation is ~95 % successful with the
        // SBR but 19.9 % wrong (≈80 % successful) conventionally.
        let sc = MaxPoolScenario {
            windows: 128,
            ..MaxPoolScenario::votenet_32to1(4)
        };
        let sbr = sc.run(SliceRepr::Signed);
        let conv = sc.run(SliceRepr::Conventional);
        assert!(
            sbr.success_rate > conv.success_rate + 0.05,
            "sbr {} conv {}",
            sbr.success_rate,
            conv.success_rate
        );
        assert!(sbr.success_rate > 0.85, "sbr {}", sbr.success_rate);
        assert!(conv.success_rate < 0.88, "conv {}", conv.success_rate);
    }

    #[test]
    fn softmax_speculation_finds_dominant_tokens() {
        let sc = SoftmaxScenario {
            rows: 64,
            ..SoftmaxScenario::albert()
        };
        let sbr = sc.run(SliceRepr::Signed);
        let conv = sc.run(SliceRepr::Conventional);
        // Most rows have a dominant token and are skippable; the SBR's
        // speculative argmax agrees with the true argmax at least as often.
        assert!(sbr.skipped_row_fraction > 0.5, "{sbr}");
        assert!(
            sbr.argmax_agreement >= conv.argmax_agreement - 0.03,
            "sbr {} conv {}",
            sbr.argmax_agreement,
            conv.argmax_agreement
        );
        assert!(sbr.argmax_agreement > 0.8, "{sbr}");
    }

    #[test]
    fn run_candidates_matches_one_run_per_count() {
        let base = MaxPoolScenario {
            windows: 64,
            ..MaxPoolScenario::votenet_32to1(1)
        };
        let counts = [1, 2, 4, 8];
        let reprs = [SliceRepr::Signed, SliceRepr::Conventional];
        let both = base.run_candidates(&reprs, &counts);
        assert_eq!(both.len(), reprs.len());
        for (repr, all) in reprs.into_iter().zip(&both) {
            assert_eq!(all.len(), counts.len());
            for (&c, stats) in counts.iter().zip(all) {
                let one = MaxPoolScenario {
                    pool: PoolConfig::new(32, c),
                    ..base
                }
                .run(repr);
                assert_eq!(*stats, one, "{repr:?} candidates {c}");
            }
        }
    }

    /// A candidate count and `f64::to_bits` of the `success_rate` and
    /// `mean_value_error` it gives.
    type PoolPin = (usize, u64, u64);

    /// The pins of every candidate count, for 128 VoteNet windows.
    const POOL_PINS: [(SliceRepr, [PoolPin; 6]); 2] = [
        (
            SliceRepr::Signed,
            [
                (1, 0x3fe4400000000000, 0x3fd9bd0d41ff2189),
                (2, 0x3feb000000000000, 0x3fa6d536b1762f2e),
                (4, 0x3fedc00000000000, 0x3f94bb710825a3b2),
                (8, 0x3fefc00000000000, 0x3f7e4ea2830eda6e),
                (16, 0x3ff0000000000000, 0x0000000000000000),
                (32, 0x3ff0000000000000, 0x0000000000000000),
            ],
        ),
        (
            SliceRepr::Conventional,
            [
                (1, 0x3fe1400000000000, 0x3fe961217b77e432),
                (2, 0x3fe6c00000000000, 0x3fd3c8af5078ad34),
                (4, 0x3fea400000000000, 0x3faed9299dfd26d2),
                (8, 0x3febc00000000000, 0x3fa50d47ecc4cf12),
                (16, 0x3fef000000000000, 0x3f9069d8b31b716d),
                (32, 0x3ff0000000000000, 0x0000000000000000),
            ],
        ),
    ];

    #[test]
    fn pool_speculation_stats_are_pinned() {
        // The exact bits, so that a drift in synthesis, the high parts or
        // the dots shows here and not only as a rounded percentage in
        // REPORT.md.
        let sc = MaxPoolScenario {
            windows: 128,
            ..MaxPoolScenario::votenet_32to1(1)
        };
        let counts: Vec<usize> = POOL_PINS[0].1.iter().map(|pin| pin.0).collect();
        let both = sc.run_candidates(&POOL_PINS.map(|(repr, _)| repr), &counts);
        for ((repr, pins), all) in POOL_PINS.into_iter().zip(both) {
            for (stats, (c, success, error)) in all.iter().zip(pins) {
                assert_eq!(stats.windows, 128, "{repr:?} candidates {c}");
                assert_eq!(
                    (
                        stats.success_rate.to_bits(),
                        stats.mean_value_error.to_bits()
                    ),
                    (success, error),
                    "{repr:?} candidates {c}: {stats}"
                );
            }
        }
    }

    #[test]
    fn softmax_speculation_stats_are_pinned() {
        // `f64::to_bits` of `(skipped_row_fraction, argmax_agreement)`.
        let sc = SoftmaxScenario {
            rows: 64,
            ..SoftmaxScenario::albert()
        };
        for (repr, skipped, agreement) in [
            (SliceRepr::Signed, 0x3ff0000000000000, 0x3fef000000000000),
            (
                SliceRepr::Conventional,
                0x3ff0000000000000,
                0x3fee800000000000,
            ),
        ] {
            let stats = sc.run(repr);
            assert_eq!(stats.rows, 64, "{repr:?}");
            assert_eq!(
                (
                    stats.skipped_row_fraction.to_bits(),
                    stats.argmax_agreement.to_bits()
                ),
                (skipped, agreement),
                "{repr:?}: {stats}"
            );
        }
    }

    #[test]
    fn candidates_improve_both_representations() {
        let base = MaxPoolScenario {
            windows: 64,
            ..MaxPoolScenario::votenet_32to1(1)
        };
        for repr in [SliceRepr::Signed, SliceRepr::Conventional] {
            let one = base.run(repr);
            let four = MaxPoolScenario {
                pool: PoolConfig::new(32, 4),
                ..base
            }
            .run(repr);
            assert!(four.success_rate >= one.success_rate, "{repr:?}");
        }
    }
}
