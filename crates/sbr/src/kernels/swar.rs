//! Portable SWAR tier: SIMD-within-a-register over `u64` words.
//!
//! The portable fallback on every non-x86 target, behind the same dispatch
//! table as the other tiers. Counting works from per-byte non-zero masks,
//! eight digits to a `u64`, built with the carry trick. For the one-pass
//! [`PlaneCounts`], a movemask multiply compresses them into the 64-digit
//! bitmap the shared drivers in [`super::detail`] consume.
//!
//! Decomposition has no data-parallel trick at word width that beats the
//! compiler on the scalar recurrence, so this tier shares the scalar
//! implementations; the x86 tiers are where decomposition vectorizes.

pub(super) use super::scalar::{conv_planes, sbr_planes};

use crate::subword::SUBWORD_LANES;

use super::detail;
use super::PlaneCounts;

/// Per-byte non-zero mask: bit 7 of each byte lane of the result is set iff
/// that byte of `x` is non-zero. `(x & 0x7F…) + 0x7F…` carries into bit 7
/// exactly when the low seven bits are non-zero and cannot carry across
/// lanes; OR-ing `x` back in folds bit 7 itself.
#[inline]
fn nonzero_byte_mask(x: u64) -> u64 {
    const LOW7: u64 = 0x7F7F_7F7F_7F7F_7F7F;
    const HI: u64 = 0x8080_8080_8080_8080;
    ((x & LOW7).wrapping_add(LOW7) | x) & HI
}

/// Loads eight digits little-endian, so byte `i` of the word is digit `i`
/// on every host endianness.
#[inline]
fn bytes_of(c: &[i8]) -> u64 {
    let mut b = [0u8; 8];
    for (dst, &s) in b.iter_mut().zip(c) {
        *dst = s as u8;
    }
    u64::from_le_bytes(b)
}

/// Movemask multiplier: gathers the per-byte mask bits `7, 15, …, 63` into
/// bits `56..=63`. Its set bits `{0, 7, 14, 21, 28, 35, 42, 49}` make every
/// partial-product bit position distinct (`8k − 7j` collides only at
/// `k = k', j = j'`), so no carries occur and the top byte is exact.
const MOVEMASK_MUL: u64 = 0x0002_0408_1020_4081;

/// Per-digit non-zero bitmap of a 64-digit chunk: bit `i` set iff digit `i`
/// is non-zero.
#[inline]
fn nonzero_mask64(chunk: &[i8]) -> u64 {
    debug_assert_eq!(chunk.len(), 64);
    let mut out = 0u64;
    for (j, bytes) in chunk.chunks_exact(8).enumerate() {
        let m = nonzero_byte_mask(bytes_of(bytes));
        out |= (m.wrapping_mul(MOVEMASK_MUL) >> 56) << (8 * j);
    }
    out
}

/// Number of zero digits in a plane, eight bytes per step.
pub(super) fn zero_digit_count(plane: &[i8]) -> usize {
    let chunks = plane.chunks_exact(8);
    let tail = chunks.remainder();
    let nonzero: usize = chunks
        .map(|c| nonzero_byte_mask(bytes_of(c)).count_ones() as usize)
        .sum();
    (plane.len() - tail.len()) - nonzero + tail.iter().filter(|&&s| s == 0).count()
}

/// Number of zero sub-words (groups of four digits, tail zero-padded) in a
/// plane, without materialising `SubWord`s.
pub(super) fn zero_subword_count(plane: &[i8]) -> usize {
    let chunks = plane.chunks_exact(8);
    let tail = chunks.remainder();
    let mut zeros: usize = chunks
        .map(|c| {
            let m = nonzero_byte_mask(bytes_of(c));
            usize::from(m as u32 == 0) + usize::from((m >> 32) as u32 == 0)
        })
        .sum();
    for group in tail.chunks(SUBWORD_LANES) {
        zeros += usize::from(group.iter().all(|&s| s == 0));
    }
    zeros
}

pub(super) fn plane_counts(plane: &[i8], index_bits: u8) -> PlaneCounts {
    detail::plane_counts_with(plane, index_bits, nonzero_mask64)
}
