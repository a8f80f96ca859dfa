//! The sampler's Box–Muller math: `sqrt(-2·ln u1)·cos(2π·u2)` over a
//! chunk of raw draws, bit-identical to the same `f32` expression through
//! the host's libm.
//!
//! `ln` and `cos` are ports of the `logf` and `cosf` that glibc ships,
//! which come from Arm's optimized-routines (`math/logf.c`,
//! `math/logf_data.c`, `math/cosf.c`, `math/sincosf.h`,
//! `math/sincosf_data.c`; MIT licence): the same constants and the same
//! double-precision operations in the same order. They are written for the
//! sampler's domain only, each input a function of one 24-bit draw: `u1` in
//! `[2^-23, 1)` and the angle in `[0, 2π)`. There `logf` needs none of its
//! special cases, and `cosf` can always take its reduced path (below 0.75,
//! where glibc evaluates the cosine polynomial directly, the reduction
//! leaves the angle unchanged and picks that polynomial anyway). The sine
//! or cosine polynomial is picked with a mask, and the quadrant is found by
//! an unchecked truncation, so the chunk loop has no branch and no libm
//! call and vectorizes. Only plain `*` and `+` are used: Rust never fuses
//! them, and on this domain glibc's FMA and non-FMA builds agree.
//!
//! The tests check the ports against the host libm and the AVX2 instance
//! against the plain one on every input the sampler can give them.

#[cfg(target_arch = "x86_64")]
use sibia_sbr::kernels::{self, KernelTier};

/// Standard normals from raw draws: `out[i]` from `u1[i]` and `u2[i]`, the
/// top 32 bits of a normal's two `SynthRng::next_u64` draws in stream
/// order. Computes exactly
/// `(-2.0 * u1.ln()).sqrt() * (2.0 * PI * u2).cos()` with
/// `u1 = f32::EPSILON + u * (1.0 - f32::EPSILON)` and
/// `u2 = 0.0 + u * (1.0 - 0.0)`, `u` each draw's `SynthRng::unit_f32`.
///
/// Runs the AVX2 instance when the process kernel tier
/// (`sibia_sbr::kernels::active`) is AVX2, the plain one otherwise.
pub(crate) fn box_muller(u1: &[u32], u2: &[u32], out: &mut [f32]) {
    #[cfg(target_arch = "x86_64")]
    if kernels::active().tier == KernelTier::Avx2 {
        // SAFETY: the AVX2 tier is only selected, detected or forced, after
        // CPUID reports AVX2 (`KernelTier::supported`).
        unsafe { box_muller_avx2(u1, u2, out) };
        return;
    }
    box_muller_plain(u1, u2, out);
}

/// The chunk math compiled for the target's baseline instruction set.
fn box_muller_plain(u1: &[u32], u2: &[u32], out: &mut [f32]) {
    normals(u1, u2, out);
}

/// The chunk math compiled with AVX2.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn box_muller_avx2(u1: &[u32], u2: &[u32], out: &mut [f32]) {
    normals(u1, u2, out);
}

/// The one body of both instances.
#[inline(always)]
fn normals(u1: &[u32], u2: &[u32], out: &mut [f32]) {
    for ((z, &a), &b) in out.iter_mut().zip(u1).zip(u2) {
        *z = (-2.0 * ln(uniform_u1(a))).sqrt() * cos_angle(b);
    }
}

/// `SynthRng::unit_f32` of the draw whose top 32 bits are `draw`: its top
/// 24 bits times 2^-24. Below 2^24 an `i32` converts to `f32` exactly, as
/// the `u64` does there, and the `i32` conversion vectorizes.
#[inline(always)]
fn unit(draw: u32) -> f32 {
    ((draw >> 8) as i32) as f32 * (1.0 / (1u32 << 24) as f32)
}

/// `f32::EPSILON + u * (1.0 - f32::EPSILON)` of a draw's unit `u`: in
/// `[2^-23, 1 - 2^-24]`.
#[inline(always)]
fn uniform_u1(draw: u32) -> f32 {
    f32::EPSILON + unit(draw) * (1.0 - f32::EPSILON)
}

/// `2π·(0.0 + u * (1.0 - 0.0))` of a draw's unit `u`, in `[0, 2π)`. The
/// inner expression is `u` itself (`0.0 + u·1.0 = u` for `u ≥ 0`).
#[inline(always)]
fn angle(draw: u32) -> f32 {
    2.0 * std::f32::consts::PI * unit(draw)
}

// The constants below are `logf_data.c`'s and `sincosf_data.c`'s, written
// as the shortest decimals that round to the same doubles (the C sources'
// hexadecimal floats in the comments).

/// `logf`'s table: `1/c` and `ln(c)` for the 16 subintervals of
/// `[0x3f330000, 2·0x3f330000)` that `z` is reduced into.
#[rustfmt::skip]
const LOGF_INVC: [f64; 16] = [
    1.398907162146528,   // 0x1.661ec79f8f3bep+0
    1.3403141896637998,  // 0x1.571ed4aaf883dp+0
    1.286432210124115,   // 0x1.49539f0f010bp+0
    1.2367150214269895,  // 0x1.3c995b0b80385p+0
    1.1906977166711752,  // 0x1.30d190c8864a5p+0
    1.1479821020556429,  // 0x1.25e227b0b8eap+0
    1.1082251448272158,  // 0x1.1bb4a4a1a343fp+0
    1.0711297413057381,  // 0x1.12358f08ae5bap+0
    1.036437278977283,   // 0x1.0953f419900a7p+0
    1.0,                 // 0x1p+0
    0.9492859795739057,  // 0x1.e608cfd9a47acp-1
    0.8951049428609004,  // 0x1.ca4b31f026aap-1
    0.8476821620351103,  // 0x1.b2036576afce6p-1
    0.8050314851692001,  // 0x1.9c2d163a1aa2dp-1
    0.7664671008843108,  // 0x1.886e6037841edp-1
    0.731428603316328,   // 0x1.767dcf5534862p-1
];
#[rustfmt::skip]
const LOGF_LOGC: [f64; 16] = [
    -0.33569133332882284, // -0x1.57bf7808caadep-2
    -0.2929040563774074,  // -0x1.2bef0a7c06ddbp-2
    -0.2518726580937369,  // -0x1.01eae7f513a67p-2
    -0.21245868807117255, // -0x1.b31d8a68224e9p-3
    -0.17453945183745634, // -0x1.6574f0ac07758p-3
    -0.1380057072319758,  // -0x1.1aa2bc79c81p-3
    -0.10275976698545139, // -0x1.a4e76ce8c0e5ep-4
    -0.06871392447020525, // -0x1.1973c5a611cccp-4
    -0.0357891387398228,  // -0x1.252f438e10c1ep-5
    0.0,                  // 0x0p+0
    0.05204517742929496,  // 0x1.aa5aa5df25984p-5
    0.11081431298787942,  // 0x1.c5e53aa362eb4p-4
    0.1652495223695143,   // 0x1.526e57720db08p-3
    0.21687389031699977,  // 0x1.bc2860d22477p-3
    0.2659635028121397,   // 0x1.1058bc8a07ee1p-2
    0.3127556664073557,   // 0x1.4043057b6ee09p-2
];
/// `logf`'s ln 2 (0x1.62e42fefa39efp-1).
const LOGF_LN2: f64 = std::f64::consts::LN_2;
/// `logf`'s log1p polynomial, highest order first.
#[rustfmt::skip]
const LOGF_POLY: [f64; 3] = [
    -0.25089342214237154, // -0x1.00ea348b88334p-2
    0.333456765744066,    // 0x1.5575b0be00b6ap-2
    -0.4999997485802103,  // -0x1.ffffef20a4123p-2
];

/// glibc's `logf` of a normal, positive, finite `x` (the general path).
#[inline(always)]
fn ln(x: f32) -> f32 {
    const OFF: u32 = 0x3f33_0000;
    // x = 2^k·z with z in [OFF, 2·OFF] exactly; i picks z's subinterval.
    let ix = x.to_bits();
    let tmp = ix.wrapping_sub(OFF);
    let i = ((tmp >> (23 - 4)) % 16) as usize;
    let k = (tmp as i32) >> 23;
    let iz = ix.wrapping_sub(tmp & 0xff80_0000);
    let z = f64::from(f32::from_bits(iz));
    // ln(x) = log1p(z/c - 1) + ln(c) + k·ln2.
    let r = z * LOGF_INVC[i] - 1.0;
    let y0 = LOGF_LOGC[i] + f64::from(k) * LOGF_LN2;
    let r2 = r * r;
    let y = LOGF_POLY[1] * r + LOGF_POLY[2];
    let y = LOGF_POLY[0] * r2 + y;
    let y = y * r2 + (y0 + r);
    y as f32
}

/// `cosf`'s 2/π prescaled by 2^24 (0x1.45f306dc9c883p+23), so the
/// quadrant lands in bits 24 and up.
const HPI_INV: f64 = std::f64::consts::FRAC_2_PI * (1u32 << 24) as f64;
/// `cosf`'s π/2 (0x1.921fb54442d18p0).
const HPI: f64 = std::f64::consts::FRAC_PI_2;
/// `cosf`'s cosine polynomial (the first `__sincosf_table` entry).
const COS_C0: f64 = 1.0;
const COS_C1: f64 = -0.49999999725108224; // -0x1.ffffffd0c621cp-2
const COS_C2: f64 = 0.041666623324344516; // 0x1.55553e1068f19p-5
const COS_C3: f64 = -0.001388676379437604; // -0x1.6c087e89a359dp-10
const COS_C4: f64 = 2.4390450703564542e-05; // 0x1.99343027bf8c3p-16
/// `cosf`'s sine polynomial.
const SIN_S1: f64 = -0.16666654943701084; // -0x1.555545995a603p-3
const SIN_S2: f64 = 0.008332178146138854; // 0x1.1107605230bc4p-7
const SIN_S3: f64 = -0.00019517298981385725; // -0x1.994eb3774cf24p-13

/// glibc's `cosf` of the sampler's angle for a draw, through the
/// reduction `cosf` applies from 0.75 up to 120.
#[inline(always)]
fn cos_angle(draw: u32) -> f32 {
    let x = f64::from(angle(draw));
    // n = round(x·2/π) by glibc's truncate-then-shift; x -= n·π/2.
    let r = x * HPI_INV;
    // SAFETY: every draw gives 0 ≤ x < 2π, so r is finite and in
    // [0, 2^27), inside i32 as `to_int_unchecked` requires.
    let n = (unsafe { r.to_int_unchecked::<i32>() } + 0x80_0000) >> 24;
    let x = x - f64::from(n) * HPI;
    let x2 = x * x;
    // Odd quadrants take the sine polynomial.
    let x3 = x * x2;
    let s1 = SIN_S2 + x2 * SIN_S3;
    let x7 = x3 * x2;
    let s = x + x3 * SIN_S1;
    let sin = s + x7 * s1;
    // Even quadrants take the cosine polynomial.
    let x4 = x2 * x2;
    let c2 = COS_C3 + x2 * COS_C4;
    let c1 = COS_C0 + x2 * COS_C1;
    let x6 = x4 * x2;
    let c = c1 + x4 * COS_C2;
    let cos = c + x6 * c2;
    let odd = ((n & 1) as u64).wrapping_neg();
    let poly = (sin.to_bits() & odd) | (cos.to_bits() & !odd);
    // glibc negates quadrants 1 and 2: the sine's argument by its sign
    // table, the cosine by its second, negated table. Both polynomials
    // are odd or even, so either is a sign flip of the result.
    let negate = (((n ^ (n >> 1)) & 1) as u64) << 63;
    f64::from_bits(poly ^ negate) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Draws covering every 24-bit uniform once when `step` is 1.
    fn draws(step: usize) -> impl Iterator<Item = u32> {
        (0..1u32 << 24).step_by(step).map(|k| k << 8)
    }

    /// `u1` and the angle as `SynthRng::unit_f32` and the expressions of
    /// [`box_muller`] form them, from the draw's 24-bit integer: the
    /// reference for `unit`'s `i32` conversion.
    fn reference_inputs(draw: u32) -> (f32, f32) {
        let unit = u64::from(draw >> 8) as f32 * (1.0 / (1u64 << 24) as f32);
        let u1 = f32::EPSILON + unit * (1.0 - f32::EPSILON);
        let u2 = 0.0 + unit * (1.0 - 0.0);
        (u1, 2.0 * std::f32::consts::PI * u2)
    }

    /// The ports against the host libm, and the normals of the plain
    /// instance against `(-2.0 * u1.ln()).sqrt() * theta.cos()`, on every
    /// `step`-th draw.
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn check_against_libm(step: usize) {
        for draw in draws(step) {
            let (u1, theta) = reference_inputs(draw);
            assert_eq!(uniform_u1(draw).to_bits(), u1.to_bits(), "u1 of {draw:#x}");
            assert_eq!(angle(draw).to_bits(), theta.to_bits(), "angle of {draw:#x}");
            assert_eq!(ln(u1).to_bits(), u1.ln().to_bits(), "ln {u1:e}");
            assert_eq!(
                cos_angle(draw).to_bits(),
                theta.cos().to_bits(),
                "cos {theta:e}"
            );
        }
        let us: Vec<u32> = draws(step).collect();
        let vs: Vec<u32> = us.iter().rev().copied().collect();
        let mut z = vec![0.0; us.len()];
        box_muller_plain(&us, &vs, &mut z);
        for ((&a, &b), z) in us.iter().zip(&vs).zip(&z) {
            let (u1, _) = reference_inputs(a);
            let (_, theta) = reference_inputs(b);
            let want = (-2.0 * u1.ln()).sqrt() * theta.cos();
            assert_eq!(z.to_bits(), want.to_bits(), "normal of {a:#x}, {b:#x}");
        }
    }

    /// The AVX2 instance against the plain one, per function and for the
    /// normals, on every `step`-th draw.
    #[cfg(target_arch = "x86_64")]
    fn check_avx2_against_plain(step: usize) {
        /// # Safety
        ///
        /// The CPU must support AVX2.
        #[target_feature(enable = "avx2")]
        unsafe fn ln_cos_avx2(draws: &[u32], out: &mut [(f32, f32)]) {
            for (o, &d) in out.iter_mut().zip(draws) {
                *o = (ln(uniform_u1(d)), cos_angle(d));
            }
        }

        if !is_x86_feature_detected!("avx2") {
            return;
        }
        let us: Vec<u32> = draws(step).collect();
        let vs: Vec<u32> = us.iter().rev().copied().collect();
        let mut wide = vec![(0.0, 0.0); us.len()];
        // SAFETY: AVX2 was detected above.
        unsafe { ln_cos_avx2(&us, &mut wide) };
        for (&d, &(l, c)) in us.iter().zip(&wide) {
            assert_eq!(l.to_bits(), ln(uniform_u1(d)).to_bits(), "ln of {d:#x}");
            assert_eq!(c.to_bits(), cos_angle(d).to_bits(), "cos of {d:#x}");
        }
        let (mut plain, mut avx2) = (vec![0.0; us.len()], vec![0.0; us.len()]);
        box_muller_plain(&us, &vs, &mut plain);
        // SAFETY: AVX2 was detected above.
        unsafe { box_muller_avx2(&us, &vs, &mut avx2) };
        for (i, (p, a)) in plain.iter().zip(&avx2).enumerate() {
            assert_eq!(
                p.to_bits(),
                a.to_bits(),
                "normal of {:#x}, {:#x}",
                us[i],
                vs[i]
            );
        }
    }

    #[test]
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn ports_match_libm_on_a_strided_domain() {
        check_against_libm(97);
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn avx2_matches_plain_on_a_strided_domain() {
        check_avx2_against_plain(97);
    }

    /// All 2^24 inputs per function; about a second in release
    /// (`cargo test --release -p sibia-nn -- --ignored`).
    #[test]
    #[ignore]
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    fn ports_match_libm_on_the_whole_domain() {
        check_against_libm(1);
        #[cfg(target_arch = "x86_64")]
        check_avx2_against_plain(1);
    }
}
