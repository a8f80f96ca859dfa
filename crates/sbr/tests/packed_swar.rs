//! Property tests pinning the count kernels to independent scalar per-`i8`
//! references on every supported tier.
//!
//! The kernels answer three questions about a digit plane — zero slices,
//! zero sub-words, RLE entry count — with branch-free arithmetic on packed
//! digit words (the SWAR tier reads eight digits to a `u64` through a
//! carry-based byte mask; SSE2 and AVX2 read a vector at a time). The
//! simulator's sparsity accounting is only correct if those answers are
//! *exactly* the scalar definitions. Each property below recomputes the
//! count the slow, obvious way from the raw digit plane and demands
//! equality from `plane_counts`, `zero_digit_count` and `zero_subword_count`,
//! over random planes in the full digit range `[-8, 15]` plus the
//! adversarial uniform planes (all-zero, and all `-8`, the most negative
//! digit a decomposition produces).

use proptest::prelude::*;
use sibia_sbr::kernels::supported_ops;
use sibia_sbr::subword::SUBWORD_LANES;

/// Scalar reference: zero digits, one `i8` at a time.
fn ref_zero_slices(plane: &[i8]) -> usize {
    plane.iter().filter(|&&d| d == 0).count()
}

/// Scalar reference: zero sub-words over `SUBWORD_LANES`-digit groups, the
/// tail group zero-padded (a partial group is zero iff its present digits
/// are).
fn ref_zero_subwords(plane: &[i8]) -> usize {
    plane
        .chunks(SUBWORD_LANES)
        .filter(|g| g.iter().all(|&d| d == 0))
        .count()
}

/// Scalar reference for the DMU RLE entry count: walk the zero-padded
/// sub-word stream; a zero sub-word extends the current run, a run
/// saturated at `2^index_bits - 1` flushes through a padding entry, a
/// non-zero sub-word always emits one entry, and trailing zeros are
/// implicit except for the padding entries their saturated runs force.
fn ref_rle_entries(plane: &[i8], index_bits: u8) -> usize {
    let cycle = 1usize << index_bits;
    let mut entries = 0usize;
    let mut run = 0usize;
    for group in plane.chunks(SUBWORD_LANES) {
        if group.iter().all(|&d| d == 0) {
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
    entries
}

/// Digit planes in the full digit range, weighted toward the interesting
/// shapes: dense random, mostly-zero (long runs for the RLE walk), and the
/// two uniform edge cases.
fn arb_plane() -> impl Strategy<Value = Vec<i8>> {
    prop_oneof![
        4 => prop::collection::vec(-8i8..=15, 0..600),
        3 => prop::collection::vec(prop_oneof![9 => Just(0i8), 1 => Just(5i8)], 0..600),
        1 => (0usize..600).prop_map(|n| vec![0i8; n]),
        1 => (0usize..600).prop_map(|n| vec![-8i8; n]),
    ]
}

proptest! {
    /// Zero slices on every tier == the digit-by-digit count, from the
    /// one-pass counts and the dedicated kernel alike.
    #[test]
    fn packed_zero_slices_match_scalar(plane in arb_plane()) {
        let expected = ref_zero_slices(&plane);
        for ops in supported_ops() {
            let counts = ops.plane_counts(&plane, 4);
            prop_assert_eq!(counts.len, plane.len());
            prop_assert_eq!(counts.zero_digits, expected, "{}", ops.tier);
            prop_assert_eq!(ops.zero_digit_count(&plane), expected, "{}", ops.tier);
        }
    }

    /// Zero sub-words on every tier == the group-of-four count.
    #[test]
    fn packed_zero_subwords_match_scalar(plane in arb_plane()) {
        let expected = ref_zero_subwords(&plane);
        for ops in supported_ops() {
            let counts = ops.plane_counts(&plane, 4);
            prop_assert_eq!(counts.subwords, plane.len().div_ceil(SUBWORD_LANES));
            prop_assert_eq!(counts.zero_subwords, expected, "{}", ops.tier);
            prop_assert_eq!(ops.zero_subword_count(&plane), expected, "{}", ops.tier);
        }
    }

    /// RLE entries on every tier == the run-length walk, across index
    /// widths (narrow widths exercise run saturation, wide ones the
    /// trailing-zero elision).
    #[test]
    fn packed_rle_entries_match_scalar((plane, index_bits) in (arb_plane(), 1u8..=15)) {
        let expected = ref_rle_entries(&plane, index_bits);
        for ops in supported_ops() {
            prop_assert_eq!(
                ops.plane_counts(&plane, index_bits).rle_entries,
                expected,
                "{} index_bits={}", ops.tier, index_bits
            );
        }
    }

    /// The all-zero plane in every length: every digit and sub-word is
    /// zero, and the RLE code holds only the padding entries forced by
    /// saturated runs.
    #[test]
    fn all_zero_planes_compress_to_padding_only(n in 0usize..600, index_bits in 1u8..=15) {
        let plane = vec![0i8; n];
        for ops in supported_ops() {
            let counts = ops.plane_counts(&plane, index_bits);
            prop_assert_eq!(counts.zero_digits, n);
            prop_assert_eq!(counts.zero_subwords, counts.subwords);
            prop_assert_eq!(counts.rle_entries, counts.subwords / (1usize << index_bits));
        }
    }

    /// The all-`-8` plane: nothing is zero anywhere, and every sub-word
    /// costs one RLE entry.
    #[test]
    fn all_minus_eight_planes_have_no_zero_structure(n in 1usize..600, index_bits in 1u8..=15) {
        let plane = vec![-8i8; n];
        for ops in supported_ops() {
            let counts = ops.plane_counts(&plane, index_bits);
            prop_assert_eq!(counts.zero_digits, 0);
            prop_assert_eq!(ops.zero_digit_count(&plane), 0);
            prop_assert_eq!(counts.zero_subwords, 0);
            prop_assert_eq!(ops.zero_subword_count(&plane), 0);
            prop_assert_eq!(counts.rle_entries, counts.subwords);
        }
    }
}
