//! Run-length encoding of zero sub-words.

use std::fmt;

use sibia_sbr::subword::SUBWORD_LANES;
use sibia_sbr::SubWord;

/// Bits of payload per sub-word (four 4-bit slices).
pub const SUBWORD_BITS: usize = 4 * SUBWORD_LANES;

/// One compressed entry: a non-zero sub-word (or a padding zero word when a
/// zero run exceeds the index range) preceded by `zeros_before` zero words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RleEntry {
    /// Number of zero sub-words preceding `word` (< 2^index_bits).
    pub zeros_before: u16,
    /// The stored sub-word.
    pub word: SubWord,
}

/// The RLE codec with a configurable index width.
///
/// # Example
///
/// ```
/// use sibia_compress::RleCodec;
/// use sibia_sbr::SubWord;
///
/// let words = vec![
///     SubWord([1, 0, 0, 0]),
///     SubWord([0, 0, 0, 0]),
///     SubWord([0, 0, 0, 0]),
///     SubWord([0, 0, -3, 0]),
/// ];
/// let codec = RleCodec::new(4);
/// let stream = codec.compress(&words);
/// assert_eq!(stream.decompress(), words);
/// assert!(stream.size_bits() < 4 * 16);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RleCodec {
    index_bits: u8,
}

impl RleCodec {
    /// Creates a codec whose zero-run index is `index_bits` wide.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is not in `[1, 15]`.
    pub fn new(index_bits: u8) -> Self {
        assert!(
            (1..=15).contains(&index_bits),
            "index bits must be in [1, 15], got {index_bits}"
        );
        Self { index_bits }
    }

    /// The index width in bits.
    pub fn index_bits(&self) -> u8 {
        self.index_bits
    }

    /// Largest zero run one entry can encode.
    pub fn max_run(&self) -> u16 {
        (1u16 << self.index_bits) - 1
    }

    /// Compresses a sub-word stream.
    pub fn compress(&self, words: &[SubWord]) -> RleStream {
        let mut entries = Vec::new();
        let mut run: u16 = 0;
        for &w in words {
            if w.is_zero() {
                if run == self.max_run() {
                    // Padding entry: a zero word flushes the saturated run.
                    entries.push(RleEntry {
                        zeros_before: run,
                        word: SubWord::default(),
                    });
                    run = 0;
                } else {
                    run += 1;
                }
            } else {
                entries.push(RleEntry {
                    zeros_before: run,
                    word: w,
                });
                run = 0;
            }
        }
        RleStream {
            entries,
            index_bits: self.index_bits,
            original_len: words.len(),
        }
    }
}

impl Default for RleCodec {
    /// The 4-bit index the Sibia DMU uses.
    fn default() -> Self {
        Self::new(4)
    }
}

/// A compressed sub-word stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RleStream {
    entries: Vec<RleEntry>,
    index_bits: u8,
    original_len: usize,
}

impl RleStream {
    /// The compressed entries.
    pub fn entries(&self) -> &[RleEntry] {
        &self.entries
    }

    /// Number of sub-words in the original stream.
    pub fn original_len(&self) -> usize {
        self.original_len
    }

    /// Compressed size: each entry carries a sub-word plus an index.
    pub fn size_bits(&self) -> usize {
        self.entries.len() * (SUBWORD_BITS + usize::from(self.index_bits))
    }

    /// Uncompressed size of the original stream.
    pub fn raw_size_bits(&self) -> usize {
        self.original_len * SUBWORD_BITS
    }

    /// Whether compression actually shrank the stream.
    pub fn is_profitable(&self) -> bool {
        self.size_bits() < self.raw_size_bits()
    }

    /// Reconstructs the original sub-word stream.
    pub fn decompress(&self) -> Vec<SubWord> {
        let mut out = Vec::with_capacity(self.original_len);
        for e in &self.entries {
            for _ in 0..e.zeros_before {
                out.push(SubWord::default());
            }
            out.push(e.word);
        }
        // Trailing zeros are implicit.
        while out.len() < self.original_len {
            out.push(SubWord::default());
        }
        debug_assert_eq!(out.len(), self.original_len);
        out
    }
}

impl RleStream {
    /// Serializes the stream to the exact bit layout the DMU writes:
    /// per entry, `index_bits` of zero-run count followed by the 16-bit
    /// packed sub-word, bit-packed with no padding except the final byte.
    pub fn serialize(&self) -> Vec<u8> {
        let mut w = BitWriter::default();
        for e in &self.entries {
            w.push(u32::from(e.zeros_before), u32::from(self.index_bits));
            w.push(u32::from(e.word.packed()), 16);
        }
        w.finish()
    }

    /// Parses a serialized stream back (requires the original sub-word
    /// count and index width, which the DMU tracks per tile).
    ///
    /// # Panics
    ///
    /// Panics if the byte stream is shorter than the encoded entries
    /// require or decodes to more sub-words than `original_len`.
    pub fn deserialize(bytes: &[u8], index_bits: u8, original_len: usize) -> Self {
        let mut r = BitReader::new(bytes);
        let entry_bits = usize::from(index_bits) + 16;
        let mut entries = Vec::new();
        let mut decoded = 0usize;
        while r.remaining() >= entry_bits && decoded < original_len {
            let zeros_before = r.pull(u32::from(index_bits)) as u16;
            let packed = r.pull(16) as u16;
            let mut word = [0i8; 4];
            for (i, slot) in word.iter_mut().enumerate() {
                let nibble = ((packed >> (4 * i)) & 0xF) as u8;
                // Sign-extend the 4-bit slice.
                *slot = ((nibble << 4) as i8) >> 4;
            }
            decoded += usize::from(zeros_before) + 1;
            assert!(
                decoded <= original_len,
                "stream decodes past the original length"
            );
            entries.push(RleEntry {
                zeros_before,
                word: SubWord(word),
            });
        }
        Self {
            entries,
            index_bits,
            original_len,
        }
    }
}

/// MSB-first bit writer.
#[derive(Debug, Default)]
struct BitWriter {
    bytes: Vec<u8>,
    bit: u8,
}

impl BitWriter {
    fn push(&mut self, value: u32, bits: u32) {
        for i in (0..bits).rev() {
            if self.bit == 0 {
                self.bytes.push(0);
            }
            let b = (value >> i) & 1;
            let last = self.bytes.last_mut().expect("pushed above");
            *last |= (b as u8) << (7 - self.bit);
            self.bit = (self.bit + 1) % 8;
        }
    }

    fn finish(self) -> Vec<u8> {
        self.bytes
    }
}

/// MSB-first bit reader.
#[derive(Debug)]
struct BitReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() * 8 - self.pos
    }

    fn pull(&mut self, bits: u32) -> u32 {
        let mut v = 0u32;
        for _ in 0..bits {
            let byte = self.bytes[self.pos / 8];
            let bit = (byte >> (7 - self.pos % 8)) & 1;
            v = (v << 1) | u32::from(bit);
            self.pos += 1;
        }
        v
    }
}

impl fmt::Display for RleStream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rle({} entries / {} words, {} -> {} bits)",
            self.entries.len(),
            self.original_len,
            self.raw_size_bits(),
            self.size_bits()
        )
    }
}

/// Analytic RLE size for a generic symbol stream (used for the paper's
/// Fig. 3b comparison of 4-bit vs 8-bit compression): each non-zero symbol
/// costs `symbol_bits + index_bits`, saturated zero runs cost one padding
/// entry each.
pub fn rle_size_bits(zero_flags: &[bool], symbol_bits: usize, index_bits: u8) -> usize {
    let max_run = (1usize << index_bits) - 1;
    let mut entries = 0usize;
    let mut run = 0usize;
    for &z in zero_flags {
        if z {
            if run == max_run {
                entries += 1; // padding entry
                run = 0;
            } else {
                run += 1;
            }
        } else {
            entries += 1;
            run = 0;
        }
    }
    entries * (symbol_bits + usize::from(index_bits))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(a: i8) -> SubWord {
        SubWord([a, 0, 0, 0])
    }

    #[test]
    fn round_trip_simple() {
        let words = vec![w(1), w(0), w(0), w(2), w(0)];
        let s = RleCodec::default().compress(&words);
        assert_eq!(s.decompress(), words);
    }

    #[test]
    fn all_zero_stream_compresses_to_padding_only() {
        let words = vec![SubWord::default(); 100];
        let s = RleCodec::new(4).compress(&words);
        // Runs of 15 + flush entries: 100 zeros → 6 padding entries
        // (15+1)*6 = 96 ≤ 100 < 112.
        assert_eq!(s.entries().len(), 6);
        assert_eq!(s.decompress(), words);
        assert!(s.is_profitable());
    }

    #[test]
    fn dense_stream_grows() {
        let words: Vec<SubWord> = (0..64).map(|i| w((i % 7 + 1) as i8)).collect();
        let s = RleCodec::default().compress(&words);
        assert!(!s.is_profitable());
        assert_eq!(s.size_bits(), 64 * 20);
        assert_eq!(s.decompress(), words);
    }

    #[test]
    fn long_runs_insert_padding_entries() {
        let mut words = vec![SubWord::default(); 20];
        words.push(w(5));
        let s = RleCodec::new(4).compress(&words);
        // 20 zeros = one saturated run (15) + padding + 4 more zeros + data.
        assert_eq!(s.entries().len(), 2);
        assert_eq!(s.entries()[0].zeros_before, 15);
        assert_eq!(s.entries()[1].zeros_before, 4);
        assert_eq!(s.decompress(), words);
    }

    #[test]
    fn trailing_zeros_are_implicit() {
        let words = vec![w(3), SubWord::default(), SubWord::default()];
        let s = RleCodec::default().compress(&words);
        assert_eq!(s.entries().len(), 1);
        assert_eq!(s.decompress(), words);
    }

    #[test]
    fn narrow_index_still_round_trips() {
        let mut words = vec![SubWord::default(); 9];
        words.push(w(1));
        for bits in 1..=8 {
            let s = RleCodec::new(bits).compress(&words);
            assert_eq!(s.decompress(), words, "index_bits={bits}");
        }
    }

    #[test]
    fn fig3b_four_bit_compression_overhead() {
        // Paper Fig. 3b: at 28.3 % value sparsity, compressing 4-bit slices
        // (two per 8-bit value, zeros only where the value's slice is zero)
        // yields a larger stream than compressing the 8-bit values directly,
        // because the per-symbol index is amortized over fewer payload bits.
        let n = 10_000usize;
        // Value-level zero pattern at 28.3 %.
        let zero_value: Vec<bool> = (0..n).map(|i| (i * 283) % 1000 < 283).collect();
        let eight_bit = rle_size_bits(&zero_value, 8, 4);
        // Slice-level: a zero value gives two zero slices; non-zero values
        // modelled with one zero high slice for 40 % of them (positive
        // near-zero data).
        let mut zero_slices = Vec::with_capacity(2 * n);
        for (i, &z) in zero_value.iter().enumerate() {
            zero_slices.push(z);
            zero_slices.push(z || i % 5 < 2);
        }
        let four_bit = rle_size_bits(&zero_slices, 4, 4);
        let overhead = four_bit as f64 / eight_bit as f64;
        assert!(
            overhead > 1.0,
            "4-bit compression should be larger, got {overhead}"
        );
        assert!(
            overhead < 1.6,
            "overhead should be moderate, got {overhead}"
        );
    }

    #[test]
    #[should_panic(expected = "index bits")]
    fn codec_validates_index_width() {
        let _ = RleCodec::new(0);
    }

    #[test]
    fn serialization_round_trips() {
        let words = vec![
            SubWord([1, -2, 3, -4]),
            SubWord::default(),
            SubWord::default(),
            SubWord([7, 0, -7, 0]),
            SubWord::default(),
        ];
        for bits in [3u8, 4, 8] {
            let stream = RleCodec::new(bits).compress(&words);
            let bytes = stream.serialize();
            // Byte size matches the bit accounting, rounded up.
            assert_eq!(bytes.len(), stream.size_bits().div_ceil(8));
            let back = RleStream::deserialize(&bytes, bits, words.len());
            assert_eq!(back.decompress(), words, "index_bits={bits}");
        }
    }

    #[test]
    fn serialization_handles_saturated_runs() {
        let mut words = vec![SubWord::default(); 40];
        words.push(SubWord([-1, 2, -3, 4]));
        let stream = RleCodec::new(4).compress(&words);
        let bytes = stream.serialize();
        let back = RleStream::deserialize(&bytes, 4, words.len());
        assert_eq!(back.decompress(), words);
    }

    #[test]
    fn empty_stream_serializes_to_nothing() {
        let stream = RleCodec::default().compress(&[]);
        assert!(stream.serialize().is_empty());
        let back = RleStream::deserialize(&[], 4, 0);
        assert_eq!(back.decompress(), Vec::<SubWord>::new());
    }

    #[test]
    fn plane_counts_rle_matches_codec() {
        // The simulator's one-pass `plane_counts` kernel must stay bit-exact
        // with this codec on every kernel tier: same entry count, same size
        // accounting, for every index width and sparsity pattern.
        use sibia_sbr::subword::to_subwords;
        let tiers = sibia_sbr::kernels::supported_ops();
        let mut x = 0xDEADBEEFu64;
        for len in [0usize, 1, 4, 15, 16, 17, 64, 257, 1000] {
            for zeros_in_10 in [0u64, 3, 8, 9, 10] {
                let mut plane = Vec::with_capacity(len);
                for _ in 0..len {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let zero = (x >> 20) % 10 < zeros_in_10;
                    plane.push(if zero { 0 } else { ((x >> 40) % 7 + 1) as i8 });
                }
                for bits in [1u8, 2, 4, 8] {
                    let stream = RleCodec::new(bits).compress(&to_subwords(&plane));
                    for ops in &tiers {
                        let entries = ops.plane_counts(&plane, bits).rle_entries;
                        let at = format!("{} len={len} zeros={zeros_in_10} bits={bits}", ops.tier);
                        assert_eq!(entries, stream.entries().len(), "{at}");
                        assert_eq!(
                            entries * (16 + usize::from(bits)),
                            stream.size_bits(),
                            "{at}"
                        );
                    }
                }
            }
        }
    }
}
