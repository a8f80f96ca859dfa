//! Number-representation substrate for the Sibia reproduction.
//!
//! This crate implements the three representations the paper reasons about:
//!
//! * plain 2's-complement fixed point produced by **linear symmetric
//!   quantization** ([`quant`]),
//! * the **conventional bit-slice decomposition** used by Bit-fusion and
//!   HNPU — radix-16 digits with a signed most-significant slice and unsigned
//!   lower slices ([`conv`]),
//! * the paper's **signed bit-slice representation (SBR)** — radix-8 signed
//!   digits in `[-7, 7]`, one sign bit per slice, produced by borrowing a
//!   value of 1 from the next-lower slice of a negative number
//!   ([`sbr`]).
//!
//! It also provides the sub-word grouping used by the flexible zero-skipping
//! PE ([`subword`]), slice-level sparsity statistics ([`stats`]), the
//! Fig. 5b hardware encoder ([`encoder`]), signed slices of other widths
//! ([`gsbr`]), and the runtime-dispatched counting and decomposition
//! kernels the simulator measures planes with ([`kernels`]).
//!
//! # Example
//!
//! ```
//! use sibia_sbr::{Precision, sbr::SbrSlices, conv::ConvSlices};
//!
//! let p = Precision::BITS7;
//! // -3 = 1111101 in 7-bit 2's complement.
//! let s = SbrSlices::encode(-3, p);
//! assert_eq!(s.digits(), &[-3, 0]); // low slice -3, high slice 0 (sparse!)
//! let c = ConvSlices::encode(-3, p);
//! assert_eq!(c.digits(), &[13, -1]); // low slice 13, high slice -1 (dense)
//! assert_eq!(s.decode(), -3);
//! assert_eq!(c.decode(), -3);
//! ```

pub mod conv;
pub mod encoder;
pub mod error;
pub mod gsbr;
pub mod kernels;
pub mod precision;
pub mod quant;
pub mod sbr;
pub mod stats;
pub mod subword;

pub use conv::ConvSlices;
pub use encoder::SbrUnit;
pub use error::RangeError;
pub use precision::Precision;
pub use quant::Quantizer;
pub use sbr::SbrSlices;
pub use subword::SubWord;

/// Maximum number of slices any supported precision decomposes into.
///
/// 16-bit data decomposes into five radix-8 SBR slices; conventional radix-16
/// decomposition of a 16-bit container needs four. Six leaves headroom for
/// the 19-bit extension precision.
pub const MAX_SLICES: usize = 6;

/// Unit tests of the zero-structure counts on packed digit words: every
/// count kernel reads a plane several digits at a time (the SWAR tier
/// eight to a `u64`, through a carry-based byte mask), and each must equal
/// the digit-by-digit definition on every tier the host supports.
#[cfg(test)]
mod packed {
    mod tests {
        use crate::kernels::supported_ops;
        use crate::subword::{to_subwords, zero_subword_fraction};

        /// Deterministic pseudo-random digit planes covering both digit
        /// ranges.
        fn test_planes() -> Vec<Vec<i8>> {
            let mut planes = vec![
                vec![],
                vec![0],
                vec![3],
                vec![0; 64],
                vec![1; 64],
                vec![1, 0, 0, 0, 0, 0, 0, 0, 5],
            ];
            let mut x = 0x12345678u64;
            for len in [7usize, 16, 17, 63, 64, 65, 1000] {
                for sparsity in [0u64, 2, 7, 9] {
                    let mut p = Vec::with_capacity(len);
                    for _ in 0..len {
                        x = x
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let digit = ((x >> 33) % 24) as i64 - 8; // [-8, 15]
                        let keep = sparsity == 0 || (x >> 17) % 10 < sparsity;
                        p.push(if keep { 0 } else { digit.clamp(-8, 15) as i8 });
                    }
                    planes.push(p);
                }
            }
            planes
        }

        #[test]
        fn zero_counts_match_scalar() {
            for plane in test_planes() {
                let scalar_zeros = plane.iter().filter(|&&s| s == 0).count();
                for ops in supported_ops() {
                    let counts = ops.plane_counts(&plane, 4);
                    assert_eq!(counts.len, plane.len());
                    assert_eq!(counts.zero_digits, scalar_zeros, "{} {plane:?}", ops.tier);
                    assert_eq!(ops.zero_digit_count(&plane), scalar_zeros, "{}", ops.tier);
                }
            }
        }

        #[test]
        fn subword_counts_match_scalar() {
            for plane in test_planes() {
                let sw = to_subwords(&plane);
                let scalar_zeros = sw.iter().filter(|s| s.is_zero()).count();
                for ops in supported_ops() {
                    let counts = ops.plane_counts(&plane, 4);
                    assert_eq!(counts.subwords, sw.len());
                    assert_eq!(counts.zero_subwords, scalar_zeros, "{} {plane:?}", ops.tier);
                    assert_eq!(
                        counts.zero_subword_fraction(),
                        zero_subword_fraction(&plane)
                    );
                    assert_eq!(ops.zero_subword_count(&plane), scalar_zeros, "{}", ops.tier);
                }
            }
        }

        #[test]
        fn byte_mask_is_exact_under_borrow_patterns() {
            // [0x00, 0x01] adjacencies defeat the naive `x - 0x01..` trick;
            // the carry-based mask must not.
            for pattern in [
                [0i8, 1, 0, 1, 0, 1, 0, 1],
                [1, 0, 1, 0, 1, 0, 1, 0],
                [0, 0, 0, 0, 1, 1, 1, 1],
                [-128, 0, 127, 0, -1, 0, 1, 0],
            ] {
                let expected = pattern.iter().filter(|&&s| s == 0).count();
                for ops in supported_ops() {
                    assert_eq!(
                        ops.zero_digit_count(&pattern),
                        expected,
                        "{} {pattern:?}",
                        ops.tier
                    );
                    assert_eq!(ops.plane_counts(&pattern, 4).zero_digits, expected);
                }
            }
        }

        #[test]
        fn empty_plane_is_harmless() {
            for ops in supported_ops() {
                let counts = ops.plane_counts(&[], 4);
                assert_eq!((counts.len, counts.subwords, counts.rle_entries), (0, 0, 0));
                assert_eq!(counts.zero_subword_fraction(), 0.0);
                assert_eq!(ops.zero_digit_count(&[]), 0);
                assert_eq!(ops.zero_subword_count(&[]), 0);
            }
        }

        #[test]
        #[should_panic(expected = "index bits")]
        fn rle_count_validates_index_width() {
            let _ = crate::kernels::active().plane_counts(&[1], 0);
        }
    }
}
