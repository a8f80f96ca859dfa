//! Bounded exponential backoff with deterministic jitter.
//!
//! Retry delays grow as `50 ms * 2^attempt`, capped at 2 s, with
//! *equal jitter*: the delay is `exp/2 + uniform(0, exp/2)`, so retries
//! never collapse to zero (which would hammer an overloaded backend) and
//! never exceed the exponential envelope.
//!
//! The jitter is **deterministic**: it is drawn from a [`SynthRng`] stream
//! keyed by `(row, attempt)` — the same in-repo xoshiro256++ generator
//! the tensor synthesizer uses, not `rand` — so a coordinator run is
//! exactly reproducible (the retry *schedule* is a pure function of the
//! observed failures), while distinct rows still spread their retries
//! instead of thundering in lockstep.

use std::time::Duration;

use sibia_nn::rng::SynthRng;

/// First-retry envelope.
const BASE: Duration = Duration::from_millis(50);
/// Upper bound on the envelope regardless of attempt count.
const CAP: Duration = Duration::from_secs(2);
/// Jitter stream seed.
const SEED: u64 = 0xF1EE7;

/// The delay before retry number `attempt` (0-based) of `row`.
///
/// Pure function of `(row, attempt)`: the jitter comes from an independent
/// `SynthRng` stream per `(row, attempt)`, so callers need no mutable
/// generator state and concurrent rows cannot perturb each other's
/// schedules.
pub fn delay(row: u64, attempt: u32) -> Duration {
    let base_us = BASE.as_micros() as u64;
    let cap_us = CAP.as_micros() as u64;
    let exp_us = base_us
        .saturating_mul(1u64 << attempt.min(20))
        .min(cap_us)
        .max(2);
    let mut rng = SynthRng::for_stream(
        SEED,
        row.wrapping_mul(1021).wrapping_add(u64::from(attempt)),
    );
    let half = exp_us / 2;
    Duration::from_micros(half + (rng.unit_f64() * half as f64) as u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delays_are_deterministic() {
        for row in 0..8 {
            for attempt in 0..6 {
                assert_eq!(delay(row, attempt), delay(row, attempt));
            }
        }
    }

    #[test]
    fn delays_stay_inside_the_equal_jitter_envelope() {
        let (base_us, cap_us) = (BASE.as_micros() as u64, CAP.as_micros() as u64);
        for attempt in 0..10 {
            let env_us = (base_us << attempt).min(cap_us);
            for row in 0..32 {
                let d = delay(row, attempt).as_micros() as u64;
                assert!(d >= env_us / 2, "attempt {attempt}: {d} < {}", env_us / 2);
                assert!(d <= env_us, "attempt {attempt}: {d} > {env_us}");
            }
        }
    }

    #[test]
    fn distinct_cells_jitter_apart() {
        let distinct: std::collections::BTreeSet<u64> = (0..64)
            .map(|row| delay(row, 2).as_micros() as u64)
            .collect();
        assert!(
            distinct.len() > 32,
            "only {} distinct delays",
            distinct.len()
        );
    }

    #[test]
    fn huge_attempt_counts_saturate_at_the_cap() {
        let d = delay(3, u32::MAX);
        assert!(d <= CAP);
        assert!(d >= CAP / 2);
    }
}
