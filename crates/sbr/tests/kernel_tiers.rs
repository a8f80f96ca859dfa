//! Pins every kernel tier byte-equal to the scalar reference.
//!
//! The dispatch table may change which instructions run, never what they
//! compute: these tests sweep every i8 digit value, awkward plane lengths
//! (empty, sub-lane, exact-lane, lane±1, non-multiples of 16/32/64),
//! all-zero and all--8 planes, and dense/sparse LCG planes through every
//! tier the host supports, for all count kernels, RLE widths, and both
//! decompositions at every precision. `packed_swar.rs` pins the counts to
//! independent per-digit references.

use sibia_sbr::kernels::{ops_for, supported_ops, KernelOps, KernelTier};
use sibia_sbr::subword::zero_subword_fraction;
use sibia_sbr::{ConvSlices, Precision, SbrSlices};

/// Lengths that straddle every lane width in play (4, 8, 16, 32, 64).
const LENGTHS: [usize; 13] = [0, 1, 3, 7, 8, 15, 16, 63, 64, 65, 100, 129, 1000];

/// RLE index widths: minimum, the DMU's 4, and the maximum.
const INDEX_BITS: [u8; 4] = [1, 2, 4, 15];

fn scalar() -> &'static KernelOps {
    ops_for(KernelTier::Scalar).unwrap()
}

/// Deterministic LCG step.
fn lcg(x: &mut u64) -> u64 {
    *x = x
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *x >> 33
}

/// Digit planes exercising every i8 value, both digit ranges, degenerate
/// patterns, and graded sparsity at every awkward length.
fn digit_planes() -> Vec<Vec<i8>> {
    let mut planes: Vec<Vec<i8>> = vec![
        (i8::MIN..=i8::MAX).collect(), // every i8 digit value
        vec![1, 0, 0, 0, 0, 0, 0, 0, 5],
    ];
    for len in LENGTHS {
        planes.push(vec![0i8; len]);
        planes.push(vec![-8i8; len]); // the 1000₂ nibble pattern
        planes.push(vec![15i8; len]);
        let mut x = 0x5eed_0000u64 ^ len as u64;
        for zeros_in_16 in [0u64, 3, 13, 15] {
            planes.push(
                (0..len)
                    .map(|_| {
                        let digit = (lcg(&mut x) % 24) as i64 - 8; // [-8, 15]
                        if lcg(&mut x) % 16 < zeros_in_16 {
                            0
                        } else {
                            digit as i8
                        }
                    })
                    .collect(),
            );
        }
    }
    planes
}

#[test]
fn all_tiers_count_planes_identically() {
    let reference = scalar();
    for plane in digit_planes() {
        let zd = reference.zero_digit_count(&plane);
        let zs = reference.zero_subword_count(&plane);
        for ops in supported_ops() {
            assert_eq!(
                ops.zero_digit_count(&plane),
                zd,
                "{} zero_digit_count, len {}",
                ops.tier,
                plane.len()
            );
            assert_eq!(
                ops.zero_subword_count(&plane),
                zs,
                "{} zero_subword_count, len {}",
                ops.tier,
                plane.len()
            );
            for bits in INDEX_BITS {
                let counts = ops.plane_counts(&plane, bits);
                assert_eq!(
                    counts,
                    reference.plane_counts(&plane, bits),
                    "{} plane_counts, len {}, index_bits {bits}",
                    ops.tier,
                    plane.len()
                );
                // Same empty-plane convention (0.0, not NaN) as the slice
                // statistics.
                assert_eq!(
                    counts.zero_subword_fraction(),
                    zero_subword_fraction(&plane)
                );
            }
        }
    }
}

/// Value tensors at each precision: boundary magnitudes, all-zero,
/// near-zero negatives (the paper's headline case), and LCG sweeps.
fn value_sets(precision: Precision) -> Vec<Vec<i32>> {
    let max = precision.max_magnitude();
    let mut sets: Vec<Vec<i32>> = vec![
        vec![],
        vec![max],
        vec![-max],
        vec![0; 65],
        (-7..=7).collect(),
        vec![max, -max, 0, 1, -1, max - 1, 1 - max],
    ];
    for len in LENGTHS {
        let mut x = 0xdeca_f000u64 ^ (len as u64) ^ (max as u64) << 7;
        sets.push(
            (0..len)
                .map(|_| (lcg(&mut x) % (2 * max as u64 + 1)) as i32 - max)
                .collect(),
        );
    }
    sets
}

#[test]
fn all_tiers_decompose_sbr_identically() {
    for precision in [
        Precision::BITS7,
        Precision::BITS10,
        Precision::BITS13,
        Precision::BITS16,
    ] {
        for values in value_sets(precision) {
            // Reference: the per-value struct encoder, digit by digit.
            let k = precision.sbr_slices();
            let expected: Vec<Vec<i8>> = (0..k)
                .map(|order| {
                    values
                        .iter()
                        .map(|&v| SbrSlices::encode(v, precision).digit(order))
                        .collect()
                })
                .collect();
            for ops in supported_ops() {
                assert_eq!(
                    ops.sbr_planes(&values, precision),
                    expected,
                    "{} sbr_planes, {precision:?}, len {}",
                    ops.tier,
                    values.len()
                );
            }
        }
    }
}

#[test]
fn all_tiers_decompose_conv_identically() {
    for precision in [
        Precision::BITS7,
        Precision::BITS10,
        Precision::BITS13,
        Precision::BITS16,
    ] {
        for values in value_sets(precision) {
            let k = precision.conv_slices();
            let expected: Vec<Vec<i8>> = (0..k)
                .map(|order| {
                    values
                        .iter()
                        .map(|&v| ConvSlices::encode(v, precision).digit(order))
                        .collect()
                })
                .collect();
            for ops in supported_ops() {
                assert_eq!(
                    ops.conv_planes(&values, precision),
                    expected,
                    "{} conv_planes, {precision:?}, len {}",
                    ops.tier,
                    values.len()
                );
            }
        }
    }
}

#[test]
fn all_tiers_panic_identically_on_out_of_range() {
    // Out-of-range values must produce the scalar encoder's panic on every
    // tier — in the vector body and in the scalar tail alike.
    let max = Precision::BITS7.max_magnitude();
    let in_vector_body: Vec<i32> = (0..16).map(|i| if i == 9 { max + 1 } else { i }).collect();
    let in_tail = vec![0, 1, 2, -(max + 1)];
    for ops in supported_ops() {
        for values in [&in_vector_body, &in_tail] {
            for decompose in [KernelOps::sbr_planes, KernelOps::conv_planes] {
                let err = std::panic::catch_unwind(|| decompose(ops, values, Precision::BITS7))
                    .expect_err("out-of-range must panic");
                let msg = err
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| err.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                assert!(
                    msg.contains("value outside symmetric range"),
                    "{}: unexpected panic message {msg:?}",
                    ops.tier
                );
            }
        }
    }
}

#[test]
fn rle_width_is_validated_on_every_tier() {
    for ops in supported_ops() {
        for bits in [0u8, 16] {
            let err = std::panic::catch_unwind(|| ops.plane_counts(&[1, 0, 2], bits))
                .expect_err("bad index width must panic");
            let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
            assert!(msg.contains("index bits"), "{}: {msg:?}", ops.tier);
        }
    }
}
