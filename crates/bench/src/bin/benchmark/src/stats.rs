//! Order statistics and the regression rule.
//!
//! Percentiles use the nearest-rank rule: the `q`-percentile of `n` sorted
//! samples is the sample at 1-based rank `ceil(q·n)`. The tail a workload
//! reports is the highest percentile that still leaves at least
//! [`TAIL_BEYOND`] samples above it. Run-to-run spread uses the quartiles of
//! Python's `statistics.quantiles(values, n=4)` (the "exclusive" method),
//! so the numbers here match an external reading of the same values.

/// Samples that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

/// The sample at 1-based rank `rank` of the ascending order of `values`.
fn at_rank(values: &[f64], rank: usize) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[rank - 1]
}

/// Nearest-rank rank of the `q`-percentile among `n` samples.
pub fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Nearest-rank median.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    at_rank(values, rank(values.len(), 0.5))
}

/// The tail percentile (as a fraction) and its value: the highest rank that
/// leaves [`TAIL_BEYOND`] samples above it. With too few samples for such a
/// rank to lie above the median, the tail is the median itself.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn tail(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "tail of no samples");
    let n = values.len();
    let r = n.saturating_sub(TAIL_BEYOND).max(rank(n, 0.5));
    (r as f64 / n as f64, at_rank(values, r))
}

/// `(q1, q2, q3)` as Python's `statistics.quantiles(values, n=4)` gives
/// them (exclusive method; needs at least two samples).
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need two samples");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Interquartile distance as a share of the median of the quartile rule.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

/// How much worse `fresh` is than `reference`, as a share of `reference`
/// (negative when it is better).
pub fn worsening(fresh: f64, reference: f64, better: Better) -> f64 {
    if reference == 0.0 {
        return 0.0;
    }
    match better {
        Better::Lower => (fresh - reference) / reference.abs(),
        Better::Higher => (reference - fresh) / reference.abs(),
    }
}

/// Whether `fresh` regressed past `bound` (a share of `reference`).
pub fn regressed(fresh: f64, reference: f64, better: Better, bound: f64) -> bool {
    worsening(fresh, reference, better) > bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(rank(10, 0.5), 5);
        assert_eq!(median(&v), 5.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[7.0]), 7.0);
        assert_eq!(rank(10, 0.95), 10);
        assert_eq!(rank(100, 0.95), 95);
        assert_eq!(rank(3, 0.0), 1);
    }

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        // 100 samples: rank 90 leaves exactly 10 above it.
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&v), (0.9, 90.0));
        // 1000 samples: p99 (rank 990) is the highest with 10 beyond.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&v), (0.99, 990.0));
        // 25 samples: rank 15.
        let v: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(tail(&v), (0.6, 15.0));
        // Too few samples: the tail falls back to the median.
        let v = [4.0, 1.0, 3.0];
        assert_eq!(tail(&v), (2.0 / 3.0, 3.0));
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        assert_eq!(tail(&v), (0.5, 6.0));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 1.5, 2.25));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), (1.0, 3.0, 4.5));
        assert!((spread(&v) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn bound_arithmetic() {
        // Lower is better: 10% slower is a 0.1 worsening.
        assert!((worsening(1.1, 1.0, Better::Lower) - 0.1).abs() < 1e-12);
        assert!(!regressed(1.1, 1.0, Better::Lower, 0.1 + 1e-9));
        assert!(regressed(1.1, 1.0, Better::Lower, 0.05));
        assert!(!regressed(0.5, 1.0, Better::Lower, 0.0));
        // Higher is better: a 20% throughput drop.
        assert!((worsening(80.0, 100.0, Better::Higher) - 0.2).abs() < 1e-12);
        assert!(regressed(80.0, 100.0, Better::Higher, 0.1));
        assert!(!regressed(120.0, 100.0, Better::Higher, 0.0));
        assert_eq!(Better::parse("lower"), Some(Better::Lower));
        assert_eq!(Better::parse("sideways"), None);
    }
}
