//! Deterministic pseudo-random generator for tensor synthesis.
//!
//! A self-contained xoshiro256++ implementation (std-only; the offline build
//! container cannot fetch the external `rand` crate). Two properties matter
//! for the simulator:
//!
//! * **determinism** — the stream is a pure function of the seed, so every
//!   simulation is reproducible;
//! * **independent streams** — [`SynthRng::for_stream`] derives a
//!   statistically independent generator from `(seed, stream_index)` via a
//!   splitmix64 mix, which is what lets the performance simulator synthesize
//!   each layer's tensors in isolation (and therefore in parallel) while
//!   staying bit-identical to the serial path.

/// xoshiro256++ generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SynthRng {
    s: [u64; 4],
}

/// One splitmix64 step: advances `x` and returns the mixed output.
#[inline]
fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SynthRng {
    /// Seeds the generator (splitmix64 state expansion, as the xoshiro
    /// authors recommend).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut x = seed;
        Self {
            s: [
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
                splitmix64(&mut x),
            ],
        }
    }

    /// Derives an independent generator for `(seed, stream)`. Distinct
    /// stream indices yield unrelated sequences even for adjacent seeds.
    pub fn for_stream(seed: u64, stream: u64) -> Self {
        let mut x = seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F);
        let mixed = splitmix64(&mut x);
        Self::seed_from_u64(mixed ^ stream.rotate_left(17))
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// Uniform `f64` in `[0, 1)` (53 mantissa bits).
    #[inline]
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform `f32` in `[0, 1)` (24 mantissa bits).
    #[inline]
    pub fn unit_f32(&mut self) -> f32 {
        (self.next_u64() >> 40) as f32 * (1.0 / (1u64 << 24) as f32)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`): whether
    /// [`Self::unit_f64`] falls below `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        Bernoulli::new(p).sample(self)
    }
}

/// A Bernoulli trial of fixed probability, for draw loops: the same draw
/// as [`SynthRng::gen_bool`] with the float work done once.
///
/// `gen_bool` compares `k·2^-53` with `p`, `k` the draw's top 53 bits.
/// Both scalings by 2^53 are exact, so `k·2^-53 < p` exactly when
/// `k < ceil(p·2^53)`; the saturating conversion maps `p ≤ 0` and NaN to
/// a threshold of 0 (never) and `p ≥ 1` to one above every `k` (always).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Bernoulli {
    below: u64,
}

impl Bernoulli {
    /// The trial with probability `p`.
    pub(crate) fn new(p: f64) -> Self {
        Self {
            below: (p * (1u64 << 53) as f64).ceil() as u64,
        }
    }

    /// One trial: consumes one draw.
    #[inline]
    pub(crate) fn sample(self, rng: &mut SynthRng) -> bool {
        rng.next_u64() >> 11 < self.below
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SynthRng::seed_from_u64(42);
        let mut b = SynthRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = SynthRng::seed_from_u64(1);
        let mut b = SynthRng::seed_from_u64(2);
        let same = (0..64).filter(|_| a.next_u64() == b.next_u64()).count();
        assert_eq!(same, 0);
    }

    #[test]
    fn stream_derivation_is_deterministic_and_distinct() {
        let mut a = SynthRng::for_stream(7, 3);
        let mut b = SynthRng::for_stream(7, 3);
        let mut c = SynthRng::for_stream(7, 4);
        let mut d = SynthRng::seed_from_u64(7);
        let (x, y) = (a.next_u64(), a.next_u64());
        assert_eq!((x, y), (b.next_u64(), b.next_u64()));
        assert_ne!(x, c.next_u64());
        assert_ne!(x, d.next_u64());
    }

    #[test]
    fn unit_floats_are_in_range() {
        let mut r = SynthRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let f = r.unit_f64();
            assert!((0.0..1.0).contains(&f));
            let g = r.unit_f32();
            assert!((0.0..1.0).contains(&g));
        }
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut r = SynthRng::seed_from_u64(11);
        let hits = (0..100_000).filter(|_| r.gen_bool(0.25)).count();
        let frac = hits as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.01, "got {frac}");
    }

    #[test]
    fn bernoulli_threshold_is_the_float_comparison() {
        // The threshold's edges: probabilities whose p·2^53 is and is not
        // an integer, the extremes, subnormals and NaN, each against the
        // draws just below, at and above it.
        let probabilities = [
            0.0,
            -0.0,
            -1.0,
            f64::MIN_POSITIVE / 4.0,
            1e-300,
            ACT_P,
            0.5,
            0.5 + f64::EPSILON,
            0.119,
            1.0 - f64::EPSILON / 2.0,
            1.0,
            2.0,
            f64::INFINITY,
            f64::NAN,
        ];
        for p in probabilities {
            let t = Bernoulli::new(p).below.min(1 << 53);
            for k in [0, 1, t.saturating_sub(1), t, t + 1, (1 << 53) - 1] {
                let k = k.min((1 << 53) - 1);
                let unit = k as f64 * (1.0 / (1u64 << 53) as f64);
                assert_eq!(k < Bernoulli::new(p).below, unit < p, "p {p:e}, k {k}");
            }
        }
        // And draw for draw on one stream.
        let (mut a, mut b) = (SynthRng::seed_from_u64(17), SynthRng::seed_from_u64(17));
        for p in [ACT_P, 0.175, 0.5, 0.9] {
            let trial = Bernoulli::new(p);
            for _ in 0..10_000 {
                assert_eq!(trial.sample(&mut a), b.unit_f64() < p);
            }
        }
    }

    /// The activation outlier probability the sampler draws per value.
    const ACT_P: f64 = 0.005;

    #[test]
    fn mean_is_centered() {
        let mut r = SynthRng::seed_from_u64(13);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| r.unit_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "got {mean}");
    }
}
