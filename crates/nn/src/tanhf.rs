//! GELU's `tanhf`, bit-identical to the host libm's and without a branch.
//!
//! A port of the `tanhf` glibc ships for `f32` (`sysdeps/ieee754/flt-32`:
//! fdlibm's `s_tanhf.c` and the `expm1f` of `s_expm1f.c` it calls, with
//! their constants). The C code picks its path with branches on the
//! argument's magnitude; here every path is computed and the result picked
//! with selects, so a loop over values has no branch and no call and
//! vectorizes, as `nn::boxmuller`'s ports of `logf` and `cosf` do. Only
//! plain `f32` `*`, `+`, `-` and `/` are used, in the C code's order, and
//! Rust never fuses them.
//!
//! The tests check the port against the host libm, and its AVX2
//! instance against the plain one, on every `f32` input.

// The constants are `s_expm1f.c`'s, written as the shortest decimals that
// round to the same floats (the C sources' bit patterns in the comments).

/// `expm1f`'s reduction constants: ln 2 split high and low, and 1/ln 2.
const LN2_HI: f32 = 6.931381e-1; // 0x3f317180
const LN2_LO: f32 = 9.058001e-6; // 0x3717f7d1
const INVLN2: f32 = std::f32::consts::LOG2_E; // 0x3fb8aa3b
/// `expm1f`'s scaled rational coefficients.
const Q1: f32 = -3.3333335e-2; // 0xbd088889
const Q2: f32 = 1.5873016e-3; // 0x3ad00d01
const Q3: f32 = -7.9365076e-5; // 0xb8a670cd
const Q4: f32 = 4.0082177e-6; // 0x36867e54
const Q5: f32 = -2.0109921e-7; // 0xb457edbb

/// `if c { a } else { b }`: both sides are always evaluated, so the
/// compiler emits a blend, not a branch.
#[inline(always)]
fn select(c: bool, a: f32, b: f32) -> f32 {
    if c {
        a
    } else {
        b
    }
}

/// glibc's `tanhf`.
#[inline(always)]
pub(crate) fn tanhf(x: f32) -> f32 {
    let jx = x.to_bits();
    let ix = jx & 0x7fff_ffff;
    let a = f32::from_bits(ix);
    // |x| ≥ 1: 1 - 2/(expm1(2|x|) + 2); below: -t/(t + 2), t = expm1(-2|x|).
    let big = ix >= 0x3f80_0000;
    let t = expm1f_for_tanhf(select(big, 2.0 * a, -2.0 * a));
    let q = select(big, 2.0, -t) / (t + 2.0);
    let z = select(big, 1.0 - q, q);
    // |x| ≥ 22, infinities included: 1 - tiny, which rounds to 1.
    let z = select(ix >= 0x41b0_0000, 1.0 - 1.0e-30, z);
    let z = f32::from_bits(z.to_bits() ^ (jx & 0x8000_0000));
    // |x| < 2^-55, zeros included: x·(1 + x).
    let z = select(ix < 0x2400_0000, x * (1.0 + x), z);
    // NaN: C's 1/x ± 1 returns x quieted, as x + x does.
    select(ix > 0x7f80_0000, x + x, z)
}

/// glibc's `expm1f` on the arguments [`tanhf`] gives it: `y` in `[2, 44)`
/// or `(-2, 0)`. There no overflow or saturation path applies, and the
/// reduction's `k` is in `[-3, 63]` and never 1. Lanes holding other
/// values are computed without fault and discarded by `tanhf`'s selects.
#[inline(always)]
fn expm1f_for_tanhf(y: f32) -> f32 {
    let hy = y.to_bits() & 0x7fff_ffff;
    let negative = (y.to_bits() as i32) < 0;
    // Argument reduction, y = k·ln2 + (hi - lo), for |y| > ln2/2: k = ±1
    // below 1.5·ln2, else k = trunc(y/ln2 ± 0.5).
    let bounded = select(y.abs() < 64.0, y, 0.0);
    // SAFETY: |bounded| < 64 (NaN fails the test), so the rounded quotient
    // is within ±93, inside i32 as `to_int_unchecked` requires. On y's
    // domain `bounded` is y.
    let nearest = unsafe { (INVLN2 * bounded + select(negative, -0.5, 0.5)).to_int_unchecked() };
    let k: i32 = if hy <= 0x3eb1_7218 {
        0
    } else if hy < 0x3f85_1592 {
        if negative {
            -1
        } else {
            1
        }
    } else {
        nearest
    };
    // t·ln2_hi is exact; k = 0 leaves x = y and c = 0, as C's k = 0 path.
    let tk = k as f32;
    let hi = y - tk * LN2_HI;
    let lo = tk * LN2_LO;
    let x = hi - lo;
    let c = (hi - x) - lo;
    // The rational approximation on the reduced argument.
    let hfx = 0.5 * x;
    let hxs = x * hfx;
    let r1 = 1.0 + hxs * (Q1 + hxs * (Q2 + hxs * (Q3 + hxs * (Q4 + hxs * Q5))));
    let t = 3.0 - r1 * hfx;
    let e = hxs * ((r1 - t) / (6.0 - x * t));
    let when_k0 = x - (x * e - hxs);
    // Scaling back by 2^k, one expression per range of k.
    let twopk = f32::from_bits((0x7f_i32.wrapping_add(k) as u32).wrapping_shl(23));
    let e = x * (e - c) - c;
    let e = e - hxs;
    let when_k_minus1 = 0.5 * (x - e) - 0.5;
    let when_k_outside = (1.0 - (e - x)) * twopk - 1.0;
    let one_minus_2_minus_k = f32::from_bits(0x3f80_0000 - 0x100_0000u32.wrapping_shr(k as u32));
    let when_k_below_23 = (one_minus_2_minus_k - (e - x)) * twopk;
    let two_minus_k = f32::from_bits((0x7f_i32.wrapping_sub(k) as u32).wrapping_shl(23));
    let when_k_from_23 = ((x - (e + two_minus_k)) + 1.0) * twopk;
    let r = select(k < 23, when_k_below_23, when_k_from_23);
    let r = select(k <= -2 || k > 56, when_k_outside, r);
    let r = select(k == -1, when_k_minus1, r);
    let r = select(k == 0, when_k0, r);
    // |y| < 2^-25: y itself.
    select(hy < 0x3300_0000, y, r)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The port against the host libm on every `step`-th `f32` bit pattern
    /// from `first`, and its AVX2 instance against the plain one.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn check_against_libm(first: u32, step: usize) {
        #[cfg(target_arch = "x86_64")]
        #[target_feature(enable = "avx2")]
        unsafe fn tanhf_avx2(values: &mut [f32]) {
            for v in values {
                *v = tanhf(*v);
            }
        }

        let mut inputs = Vec::with_capacity(1 << 16);
        let mut plain = Vec::with_capacity(1 << 16);
        let mut bits = (u64::from(first)..1 << 32).step_by(step).peekable();
        while bits.peek().is_some() {
            inputs.clear();
            inputs.extend(
                bits.by_ref()
                    .take(1 << 16)
                    .map(|b| f32::from_bits(b as u32)),
            );
            plain.clear();
            plain.extend(inputs.iter().map(|&x| tanhf(x)));
            for (&x, y) in inputs.iter().zip(&plain) {
                assert_eq!(
                    y.to_bits(),
                    x.tanh().to_bits(),
                    "tanhf({x:e}) [{:#x}]",
                    x.to_bits()
                );
            }
            #[cfg(target_arch = "x86_64")]
            if is_x86_feature_detected!("avx2") {
                let mut wide = inputs.clone();
                // SAFETY: AVX2 was detected above.
                unsafe { tanhf_avx2(&mut wide) };
                for ((&x, y), w) in inputs.iter().zip(&plain).zip(&wide) {
                    assert_eq!(w.to_bits(), y.to_bits(), "avx2 tanhf({x:e})");
                }
            }
        }
    }

    #[test]
    fn constants_are_the_c_sources() {
        let bits = [LN2_HI, LN2_LO, INVLN2, Q1, Q2, Q3, Q4, Q5].map(f32::to_bits);
        assert_eq!(
            bits,
            [
                0x3f31_7180,
                0x3717_f7d1,
                0x3fb8_aa3b,
                0xbd08_8889,
                0x3ad0_0d01,
                0xb8a6_70cd,
                0x3686_7e54,
                0xb457_edbb
            ]
        );
    }

    #[test]
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn port_matches_libm_on_a_strided_domain() {
        check_against_libm(0, 4099);
    }

    #[test]
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn port_matches_libm_at_its_path_boundaries() {
        // Both sides of every magnitude the C code branches on, for tanhf
        // and for the expm1f arguments 2|x| it passes, both signs.
        let edges: [u32; 11] = [
            0,
            0x2400_0000,
            0x3300_0000,
            0x3eb1_7218,
            0x3f80_0000,
            0x3f85_1592,
            0x4195_b844,
            0x41b0_0000,
            0x42b1_7218,
            0x7f80_0000,
            0x7fc0_0000,
        ];
        for edge in edges {
            for bits in edge.saturating_sub(64)..=edge.saturating_add(64) {
                for sign in [0, 0x8000_0000] {
                    for x in [
                        f32::from_bits(bits | sign),
                        f32::from_bits(bits | sign) / 2.0,
                    ] {
                        assert_eq!(tanhf(x).to_bits(), x.tanh().to_bits(), "tanhf({x:e})");
                    }
                }
            }
        }
    }

    /// All 2^32 inputs, on two threads; about two minutes in release on
    /// two cores (`cargo test --release -p sibia-nn -- --ignored`).
    #[test]
    #[ignore]
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn port_matches_libm_on_every_input() {
        std::thread::scope(|s| {
            s.spawn(|| check_against_libm(0, 2));
            s.spawn(|| check_against_libm(1, 2));
        });
    }
}
