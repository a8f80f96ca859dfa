//! Scalar reference tier: one digit / one value at a time.
//!
//! These are the executable definitions the SWAR and x86 tiers are pinned
//! against (`tests/kernel_tiers.rs`), and the forced-`scalar` baseline the
//! engine benchmark measures speedups from. Nothing here is tuned; clarity
//! and obvious equivalence to the `SbrSlices` / `ConvSlices` encoders win
//! over speed.

use crate::precision::Precision;
use crate::subword::SUBWORD_LANES;

use super::PlaneCounts;

pub(super) fn zero_digit_count(plane: &[i8]) -> usize {
    plane.iter().filter(|&&d| d == 0).count()
}

pub(super) fn zero_subword_count(plane: &[i8]) -> usize {
    plane
        .chunks(SUBWORD_LANES)
        .filter(|g| g.iter().all(|&d| d == 0))
        .count()
}

pub(super) fn plane_counts(plane: &[i8], index_bits: u8) -> PlaneCounts {
    assert!(
        (1..=15).contains(&index_bits),
        "index bits must be in [1, 15], got {index_bits}"
    );
    let cycle = 1usize << index_bits;
    let mut zero_digits = 0usize;
    let mut zero_subwords = 0usize;
    let mut entries = 0usize;
    let mut run = 0usize;
    for group in plane.chunks(SUBWORD_LANES) {
        let zeros = group.iter().filter(|&&d| d == 0).count();
        zero_digits += zeros;
        if zeros == group.len() {
            // Zero sub-word: extend the run; a saturated run flushes one
            // padding entry (the RLE codec's cycle).
            zero_subwords += 1;
            run += 1;
            if run == cycle {
                entries += 1;
                run = 0;
            }
        } else {
            entries += 1;
            run = 0;
        }
    }
    PlaneCounts {
        len: plane.len(),
        zero_digits,
        subwords: plane.len().div_ceil(SUBWORD_LANES),
        zero_subwords,
        rle_entries: entries,
    }
}

/// The `SbrSlices::try_encode` greedy digit recurrence, written straight
/// into per-order planes. Byte-identical to `crate::sbr::planes` including
/// the out-of-range panic message.
pub(super) fn sbr_planes(values: &[i32], precision: Precision) -> Vec<Vec<i8>> {
    let k = precision.sbr_slices();
    let mut planes = vec![vec![0i8; values.len()]; k];
    for (i, &value) in values.iter().enumerate() {
        precision
            .check(value)
            .expect("value outside symmetric range");
        let mut r = value;
        for plane in planes.iter_mut() {
            let mut digit = r.rem_euclid(8);
            // Borrow 1 from the lower slice only when this residue is
            // non-zero (see `SbrSlices::try_encode`).
            if value < 0 && digit > 0 {
                digit -= 8;
            }
            plane[i] = digit as i8;
            r = (r - digit) / 8;
        }
        debug_assert_eq!(r, 0, "greedy digit recurrence must terminate");
    }
    planes
}

/// The `ConvSlices::try_encode` radix-16 split, written straight into
/// per-order planes: unsigned low nibbles, arithmetic-shifted signed top.
pub(super) fn conv_planes(values: &[i32], precision: Precision) -> Vec<Vec<i8>> {
    let k = precision.conv_slices();
    let mut planes = vec![vec![0i8; values.len()]; k];
    for (i, &value) in values.iter().enumerate() {
        precision
            .check(value)
            .expect("value outside symmetric range");
        for (order, plane) in planes.iter_mut().enumerate().take(k - 1) {
            plane[i] = ((value >> (4 * order)) & 0xF) as i8;
        }
        planes[k - 1][i] = (value >> (4 * (k - 1))) as i8;
    }
    planes
}
