//! Max-pool output speculation (VoteNet, DGCNN, ViT top-k; Fig. 12).
//!
//! For a `G`-to-1 max-pooling window, the PE pre-computes speculative values
//! of all `G` outputs from high-order slices, keeps the top `C` *candidates*,
//! completes only those, and skips the remaining low-order computations of
//! the other `G − C` outputs. Speculation *succeeds* for a window when the
//! true maximum is among the candidates.

use std::fmt;

/// Pooling speculation parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolConfig {
    /// Pooling window size (64 for VoteNet's first pool, 40 for DGCNN, …).
    pub group: usize,
    /// Number of maximal candidates completed at full precision.
    pub candidates: usize,
}

impl PoolConfig {
    /// Creates a pool configuration.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= candidates <= group`.
    pub fn new(group: usize, candidates: usize) -> Self {
        assert!(
            candidates >= 1 && candidates <= group,
            "need 1 <= candidates ({candidates}) <= group ({group})"
        );
        Self { group, candidates }
    }
}

impl fmt::Display for PoolConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}-to-1 pool, {} candidates",
            self.group, self.candidates
        )
    }
}

/// Outcome statistics of speculating many pooling windows.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolStats {
    /// Number of windows evaluated.
    pub windows: usize,
    /// Fraction of windows whose true maximum was among the candidates.
    pub success_rate: f64,
    /// Mean relative error of the pooled value when speculation failed and
    /// the (wrong) best candidate was used instead of the true maximum,
    /// averaged over all windows (0 contribution from successful ones).
    pub mean_value_error: f64,
}

impl PoolStats {
    /// Fraction of windows with a wrong pooled result.
    pub fn wrong_rate(&self) -> f64 {
        1.0 - self.success_rate
    }
}

impl fmt::Display for PoolStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1}% success over {} windows (mean value err {:.3})",
            self.success_rate * 100.0,
            self.windows,
            self.mean_value_error
        )
    }
}

/// Evaluates pooling speculation given speculative and true output values.
///
/// `spec` and `truth` hold the same outputs in the same order; both lengths
/// must be a multiple of `config.group`.
///
/// # Panics
///
/// Panics on length mismatch or empty input.
pub fn evaluate(config: PoolConfig, spec: &[i64], truth: &[i64]) -> PoolStats {
    assert_eq!(spec.len(), truth.len(), "spec/truth lengths must match");
    assert!(!spec.is_empty(), "need at least one window");
    assert_eq!(
        spec.len() % config.group,
        0,
        "length must be a multiple of the pooling group"
    );
    let mut successes = 0usize;
    let mut windows = 0usize;
    let mut err_sum = 0.0f64;
    for (sw, tw) in spec.chunks(config.group).zip(truth.chunks(config.group)) {
        windows += 1;
        // Top-C candidate indices by speculative value.
        let mut idx: Vec<usize> = (0..config.group).collect();
        idx.sort_by_key(|&i| std::cmp::Reverse(sw[i]));
        let candidates = &idx[..config.candidates];
        // True argmax.
        let true_best = (0..config.group)
            .max_by_key(|&i| tw[i])
            .expect("non-empty window");
        if candidates.contains(&true_best) {
            successes += 1;
        } else {
            // The completed pooled value is the best *candidate*'s true
            // value; measure how far it falls short.
            let got = candidates
                .iter()
                .map(|&i| tw[i])
                .max()
                .expect("at least one candidate");
            let denom = tw[true_best].unsigned_abs().max(1) as f64;
            err_sum += (tw[true_best] - got).abs() as f64 / denom;
        }
    }
    PoolStats {
        windows,
        success_rate: successes as f64 / windows as f64,
        mean_value_error: err_sum / windows as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfect_speculation_succeeds() {
        let truth: Vec<i64> = (0..64).map(|i| (i * 31 % 97) - 48).collect();
        let cfg = PoolConfig::new(32, 4);
        let s = evaluate(cfg, &truth, &truth);
        assert_eq!(s.success_rate, 1.0);
        assert_eq!(s.mean_value_error, 0.0);
        assert_eq!(s.windows, 2);
    }

    #[test]
    fn adversarial_speculation_fails() {
        // Speculation ranks exactly backwards.
        let truth: Vec<i64> = (0..32).collect();
        let spec: Vec<i64> = (0..32).rev().collect();
        let s = evaluate(PoolConfig::new(32, 4), &spec, &truth);
        assert_eq!(s.success_rate, 0.0);
        assert!(s.mean_value_error > 0.0);
    }

    #[test]
    fn more_candidates_never_hurt() {
        let truth: Vec<i64> = (0..640).map(|i| ((i * 97 + 13) % 255) - 127).collect();
        let spec: Vec<i64> = truth.iter().map(|&v| v / 8 * 8 + 3).collect(); // noisy
        let mut last = 0.0;
        for c in [1, 2, 4, 8, 16] {
            let s = evaluate(PoolConfig::new(64, c), &spec, &truth);
            assert!(s.success_rate >= last);
            last = s.success_rate;
        }
    }

    #[test]
    #[should_panic(expected = "multiple of the pooling group")]
    fn validates_window_multiple() {
        let _ = evaluate(PoolConfig::new(32, 1), &[0; 33], &[0; 33]);
    }

    #[test]
    #[should_panic(expected = "candidates")]
    fn validates_candidate_count() {
        let _ = PoolConfig::new(4, 5);
    }
}
