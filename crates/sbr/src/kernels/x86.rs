//! `core::arch::x86_64` tiers: SSE2 (128-bit) and AVX2 (256-bit).
//!
//! Counting works from per-digit zero masks produced by `cmpeq` +
//! `movemask` — 16 or 32 digits per compare — either consumed directly
//! (zero counts) or widened to the 64-digit bitmap the shared drivers in
//! [`super::detail`] consume (one-pass [`PlaneCounts`]). Decomposition
//! runs the SBR digit recurrence on 4 or 8 `i32` lanes at a time,
//! narrowing each digit vector to bytes with saturating packs (digits span
//! `[-8, 15]`, so the packs never actually saturate).
//!
//! Every function is byte-identical to the scalar tier, including the
//! out-of-range panic: the vectorized range scan (`v > max | -max > v`)
//! only decides *whether* to re-run the scalar `Precision::check` loop,
//! which then panics with the exact scalar message on the first bad value.
//!
//! # Safety
//!
//! SSE2 is part of the x86_64 baseline, so the `*_sse2` wrappers are
//! unconditionally sound. The `*_avx2` wrappers require AVX2+POPCNT, which
//! the dispatch layer guarantees: `ops_for` refuses to build the AVX2
//! table unless `KernelTier::Avx2.supported()` (an
//! `is_x86_feature_detected!` probe) holds.

#![allow(clippy::missing_safety_doc)] // module-private unsafe helpers

use core::arch::x86_64::*;

use crate::precision::Precision;

use super::{detail, PlaneCounts};

const RANGE_MSG: &str = "value outside symmetric range";

// ---------------------------------------------------------------- masks --

/// 64-digit non-zero bitmap from four 16-byte compares.
#[inline]
unsafe fn nonzero_mask64_sse2(chunk: &[i8]) -> u64 {
    debug_assert_eq!(chunk.len(), 64);
    let ptr = chunk.as_ptr() as *const __m128i;
    let zero = _mm_setzero_si128();
    let mut out = 0u64;
    for j in 0..4 {
        let z = _mm_movemask_epi8(_mm_cmpeq_epi8(_mm_loadu_si128(ptr.add(j)), zero)) as u32;
        out |= u64::from(!z & 0xFFFF) << (16 * j);
    }
    out
}

/// 64-digit non-zero bitmap from two 32-byte compares.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn nonzero_mask64_avx2(chunk: &[i8]) -> u64 {
    debug_assert_eq!(chunk.len(), 64);
    let ptr = chunk.as_ptr() as *const __m256i;
    let zero = _mm256_setzero_si256();
    let z0 = _mm256_movemask_epi8(_mm256_cmpeq_epi8(_mm256_loadu_si256(ptr), zero)) as u32;
    let z1 = _mm256_movemask_epi8(_mm256_cmpeq_epi8(_mm256_loadu_si256(ptr.add(1)), zero)) as u32;
    u64::from(!z0) | (u64::from(!z1) << 32)
}

// --------------------------------------------------------- plane counts --

unsafe fn zero_digit_count_sse2_impl(plane: &[i8]) -> usize {
    let zero = _mm_setzero_si128();
    let mut chunks = plane.chunks_exact(16);
    let mut zeros = 0usize;
    for c in &mut chunks {
        let z = _mm_movemask_epi8(_mm_cmpeq_epi8(
            _mm_loadu_si128(c.as_ptr() as *const __m128i),
            zero,
        )) as u32;
        zeros += z.count_ones() as usize;
    }
    zeros + chunks.remainder().iter().filter(|&&d| d == 0).count()
}

#[target_feature(enable = "avx2,popcnt")]
unsafe fn zero_digit_count_avx2_impl(plane: &[i8]) -> usize {
    let zero = _mm256_setzero_si256();
    let mut chunks = plane.chunks_exact(32);
    let mut zeros = 0usize;
    for c in &mut chunks {
        let z = _mm256_movemask_epi8(_mm256_cmpeq_epi8(
            _mm256_loadu_si256(c.as_ptr() as *const __m256i),
            zero,
        )) as u32;
        zeros += z.count_ones() as usize;
    }
    zeros + chunks.remainder().iter().filter(|&&d| d == 0).count()
}

/// Zero sub-words from a zero-digit movemask: sub-word `j` is zero iff
/// mask bits `4j..=4j+3` are all set, i.e. `z & z>>1 & z>>2 & z>>3` has
/// bit `4j` set. Works for 16- and 32-bit masks alike (high bits are 0).
#[inline]
fn zero_subwords_of_mask(z: u32) -> u32 {
    (z & (z >> 1) & (z >> 2) & (z >> 3)) & 0x1111_1111
}

unsafe fn zero_subword_count_sse2_impl(plane: &[i8]) -> usize {
    let zero = _mm_setzero_si128();
    let mut chunks = plane.chunks_exact(16);
    let mut zeros = 0usize;
    for c in &mut chunks {
        let z = _mm_movemask_epi8(_mm_cmpeq_epi8(
            _mm_loadu_si128(c.as_ptr() as *const __m128i),
            zero,
        )) as u32;
        zeros += zero_subwords_of_mask(z).count_ones() as usize;
    }
    for group in chunks.remainder().chunks(4) {
        zeros += usize::from(group.iter().all(|&d| d == 0));
    }
    zeros
}

#[target_feature(enable = "avx2,popcnt")]
unsafe fn zero_subword_count_avx2_impl(plane: &[i8]) -> usize {
    let zero = _mm256_setzero_si256();
    let mut chunks = plane.chunks_exact(32);
    let mut zeros = 0usize;
    for c in &mut chunks {
        let z = _mm256_movemask_epi8(_mm256_cmpeq_epi8(
            _mm256_loadu_si256(c.as_ptr() as *const __m256i),
            zero,
        )) as u32;
        zeros += zero_subwords_of_mask(z).count_ones() as usize;
    }
    for group in chunks.remainder().chunks(4) {
        zeros += usize::from(group.iter().all(|&d| d == 0));
    }
    zeros
}

unsafe fn plane_counts_sse2_impl(plane: &[i8], index_bits: u8) -> PlaneCounts {
    detail::plane_counts_with(plane, index_bits, |c| unsafe { nonzero_mask64_sse2(c) })
}

#[target_feature(enable = "avx2,popcnt")]
unsafe fn plane_counts_avx2_impl(plane: &[i8], index_bits: u8) -> PlaneCounts {
    detail::plane_counts_with(plane, index_bits, |c| unsafe { nonzero_mask64_avx2(c) })
}

// -------------------------------------------------------- decomposition --

/// Narrows eight i32 digits (each in `[-8, 15]`) to eight bytes and stores
/// them. The saturating packs cannot actually saturate on that range.
#[inline]
#[target_feature(enable = "avx2")]
unsafe fn store_digits8(digit: __m256i, dst: *mut i8) {
    let lo = _mm256_castsi256_si128(digit);
    let hi = _mm256_extracti128_si256::<1>(digit);
    let p8 = _mm_packs_epi16(_mm_packs_epi32(lo, hi), _mm_setzero_si128());
    (dst as *mut i64).write_unaligned(_mm_cvtsi128_si64(p8));
}

/// Narrows four i32 digits to four bytes and stores them.
#[inline]
unsafe fn store_digits4(digit: __m128i, dst: *mut i8) {
    let p8 = _mm_packs_epi16(
        _mm_packs_epi32(digit, _mm_setzero_si128()),
        _mm_setzero_si128(),
    );
    (dst as *mut i32).write_unaligned(_mm_cvtsi128_si32(p8));
}

/// Scalar tail / range-panic fallback shared by every vector decomposer.
unsafe fn sbr_tail(values: &[i32], precision: Precision, ptrs: &[*mut i8], base: usize) {
    for (i, &value) in values.iter().enumerate() {
        precision.check(value).expect(RANGE_MSG);
        let mut r = value;
        for &plane in ptrs {
            let mut digit = r.rem_euclid(8);
            if value < 0 && digit > 0 {
                digit -= 8;
            }
            *plane.add(base + i) = digit as i8;
            r = (r - digit) / 8;
        }
    }
}

unsafe fn conv_tail(values: &[i32], precision: Precision, ptrs: &[*mut i8], base: usize) {
    let k = ptrs.len();
    for (i, &value) in values.iter().enumerate() {
        precision.check(value).expect(RANGE_MSG);
        for (order, &plane) in ptrs.iter().enumerate().take(k - 1) {
            *plane.add(base + i) = ((value >> (4 * order)) & 0xF) as i8;
        }
        *ptrs[k - 1].add(base + i) = (value >> (4 * (k - 1))) as i8;
    }
}

#[target_feature(enable = "avx2")]
unsafe fn sbr_planes_avx2_impl(values: &[i32], precision: Precision) -> Vec<Vec<i8>> {
    let k = precision.sbr_slices();
    let mut planes = vec![vec![0i8; values.len()]; k];
    let ptrs: Vec<*mut i8> = planes.iter_mut().map(|p| p.as_mut_ptr()).collect();
    let max = _mm256_set1_epi32(precision.max_magnitude());
    let min = _mm256_set1_epi32(-precision.max_magnitude());
    let seven = _mm256_set1_epi32(7);
    let eight = _mm256_set1_epi32(8);
    let zero = _mm256_setzero_si256();
    let mut chunks = values.chunks_exact(8);
    let mut base = 0usize;
    for c in &mut chunks {
        let v = _mm256_loadu_si256(c.as_ptr() as *const __m256i);
        let viol = _mm256_or_si256(_mm256_cmpgt_epi32(v, max), _mm256_cmpgt_epi32(min, v));
        if _mm256_movemask_epi8(viol) != 0 {
            // Re-run the scalar check for the exact scalar panic.
            sbr_tail(c, precision, &ptrs, base);
            unreachable!("vector range scan disagreed with Precision::check");
        }
        let neg = _mm256_cmpgt_epi32(zero, v);
        let mut r = v;
        for &plane in &ptrs {
            // digit = r.rem_euclid(8), borrowing 8 when the original value
            // is negative and the residue non-zero — the SbrSlices
            // recurrence, eight lanes wide.
            let low = _mm256_and_si256(r, seven);
            let borrow = _mm256_and_si256(neg, _mm256_cmpgt_epi32(low, zero));
            let digit = _mm256_sub_epi32(low, _mm256_and_si256(borrow, eight));
            store_digits8(digit, plane.add(base));
            // (r - digit) is divisible by 8, so the arithmetic shift is
            // the exact division of the recurrence.
            r = _mm256_srai_epi32::<3>(_mm256_sub_epi32(r, digit));
        }
        base += 8;
    }
    sbr_tail(chunks.remainder(), precision, &ptrs, base);
    planes
}

unsafe fn sbr_planes_sse2_impl(values: &[i32], precision: Precision) -> Vec<Vec<i8>> {
    let k = precision.sbr_slices();
    let mut planes = vec![vec![0i8; values.len()]; k];
    let ptrs: Vec<*mut i8> = planes.iter_mut().map(|p| p.as_mut_ptr()).collect();
    let max = _mm_set1_epi32(precision.max_magnitude());
    let min = _mm_set1_epi32(-precision.max_magnitude());
    let seven = _mm_set1_epi32(7);
    let eight = _mm_set1_epi32(8);
    let zero = _mm_setzero_si128();
    let mut chunks = values.chunks_exact(4);
    let mut base = 0usize;
    for c in &mut chunks {
        let v = _mm_loadu_si128(c.as_ptr() as *const __m128i);
        let viol = _mm_or_si128(_mm_cmpgt_epi32(v, max), _mm_cmpgt_epi32(min, v));
        if _mm_movemask_epi8(viol) != 0 {
            sbr_tail(c, precision, &ptrs, base);
            unreachable!("vector range scan disagreed with Precision::check");
        }
        let neg = _mm_cmpgt_epi32(zero, v);
        let mut r = v;
        for &plane in &ptrs {
            let low = _mm_and_si128(r, seven);
            let borrow = _mm_and_si128(neg, _mm_cmpgt_epi32(low, zero));
            let digit = _mm_sub_epi32(low, _mm_and_si128(borrow, eight));
            store_digits4(digit, plane.add(base));
            r = _mm_srai_epi32::<3>(_mm_sub_epi32(r, digit));
        }
        base += 4;
    }
    sbr_tail(chunks.remainder(), precision, &ptrs, base);
    planes
}

#[target_feature(enable = "avx2")]
unsafe fn conv_planes_avx2_impl(values: &[i32], precision: Precision) -> Vec<Vec<i8>> {
    let k = precision.conv_slices();
    let mut planes = vec![vec![0i8; values.len()]; k];
    let ptrs: Vec<*mut i8> = planes.iter_mut().map(|p| p.as_mut_ptr()).collect();
    let max = _mm256_set1_epi32(precision.max_magnitude());
    let min = _mm256_set1_epi32(-precision.max_magnitude());
    let nib = _mm256_set1_epi32(0xF);
    let top_shift = _mm_cvtsi32_si128(4 * (k as i32 - 1));
    let mut chunks = values.chunks_exact(8);
    let mut base = 0usize;
    for c in &mut chunks {
        let v = _mm256_loadu_si256(c.as_ptr() as *const __m256i);
        let viol = _mm256_or_si256(_mm256_cmpgt_epi32(v, max), _mm256_cmpgt_epi32(min, v));
        if _mm256_movemask_epi8(viol) != 0 {
            conv_tail(c, precision, &ptrs, base);
            unreachable!("vector range scan disagreed with Precision::check");
        }
        for (order, &plane) in ptrs.iter().enumerate().take(k - 1) {
            // Logical shift + nibble mask equals the scalar arithmetic
            // shift + mask: & 0xF only keeps bits below the sign fill.
            let shift = _mm_cvtsi32_si128(4 * order as i32);
            let digit = _mm256_and_si256(_mm256_srl_epi32(v, shift), nib);
            store_digits8(digit, plane.add(base));
        }
        // Arithmetic shift keeps the sign in the top slice.
        store_digits8(_mm256_sra_epi32(v, top_shift), ptrs[k - 1].add(base));
        base += 8;
    }
    conv_tail(chunks.remainder(), precision, &ptrs, base);
    planes
}

unsafe fn conv_planes_sse2_impl(values: &[i32], precision: Precision) -> Vec<Vec<i8>> {
    let k = precision.conv_slices();
    let mut planes = vec![vec![0i8; values.len()]; k];
    let ptrs: Vec<*mut i8> = planes.iter_mut().map(|p| p.as_mut_ptr()).collect();
    let max = _mm_set1_epi32(precision.max_magnitude());
    let min = _mm_set1_epi32(-precision.max_magnitude());
    let nib = _mm_set1_epi32(0xF);
    let top_shift = _mm_cvtsi32_si128(4 * (k as i32 - 1));
    let mut chunks = values.chunks_exact(4);
    let mut base = 0usize;
    for c in &mut chunks {
        let v = _mm_loadu_si128(c.as_ptr() as *const __m128i);
        let viol = _mm_or_si128(_mm_cmpgt_epi32(v, max), _mm_cmpgt_epi32(min, v));
        if _mm_movemask_epi8(viol) != 0 {
            conv_tail(c, precision, &ptrs, base);
            unreachable!("vector range scan disagreed with Precision::check");
        }
        for (order, &plane) in ptrs.iter().enumerate().take(k - 1) {
            let shift = _mm_cvtsi32_si128(4 * order as i32);
            let digit = _mm_and_si128(_mm_srl_epi32(v, shift), nib);
            store_digits4(digit, plane.add(base));
        }
        store_digits4(_mm_sra_epi32(v, top_shift), ptrs[k - 1].add(base));
        base += 4;
    }
    conv_tail(chunks.remainder(), precision, &ptrs, base);
    planes
}

// -------------------------------------------------------- safe wrappers --
// SSE2 is unconditionally available on x86_64; the AVX2 wrappers are only
// reachable through `ops_for`, which feature-probes before building the
// AVX2 table.

pub(super) fn zero_digit_count_sse2(plane: &[i8]) -> usize {
    unsafe { zero_digit_count_sse2_impl(plane) }
}
pub(super) fn zero_subword_count_sse2(plane: &[i8]) -> usize {
    unsafe { zero_subword_count_sse2_impl(plane) }
}
pub(super) fn plane_counts_sse2(plane: &[i8], index_bits: u8) -> PlaneCounts {
    unsafe { plane_counts_sse2_impl(plane, index_bits) }
}
pub(super) fn sbr_planes_sse2(values: &[i32], precision: Precision) -> Vec<Vec<i8>> {
    unsafe { sbr_planes_sse2_impl(values, precision) }
}
pub(super) fn conv_planes_sse2(values: &[i32], precision: Precision) -> Vec<Vec<i8>> {
    unsafe { conv_planes_sse2_impl(values, precision) }
}

pub(super) fn zero_digit_count_avx2(plane: &[i8]) -> usize {
    unsafe { zero_digit_count_avx2_impl(plane) }
}
pub(super) fn zero_subword_count_avx2(plane: &[i8]) -> usize {
    unsafe { zero_subword_count_avx2_impl(plane) }
}
pub(super) fn plane_counts_avx2(plane: &[i8], index_bits: u8) -> PlaneCounts {
    unsafe { plane_counts_avx2_impl(plane, index_bits) }
}
pub(super) fn sbr_planes_avx2(values: &[i32], precision: Precision) -> Vec<Vec<i8>> {
    unsafe { sbr_planes_avx2_impl(values, precision) }
}
pub(super) fn conv_planes_avx2(values: &[i32], precision: Precision) -> Vec<Vec<i8>> {
    unsafe { conv_planes_avx2_impl(values, precision) }
}
