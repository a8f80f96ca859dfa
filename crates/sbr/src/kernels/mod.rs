//! Runtime-dispatched sparsity and decomposition kernels.
//!
//! The performance simulator's hot loops are (a) the zero-structure
//! measurements of slice planes — zero digits, zero sub-words, RLE entry
//! counts, all three read from the raw digits in one pass by
//! [`KernelOps::plane_counts`] — and (b) the i32 → digit-plane
//! decompositions feeding them. [`KernelOps::zero_digit_count`] and
//! [`KernelOps::zero_subword_count`] serve callers that need no RLE count
//! at a fraction of the one-pass cost. This module provides each of those
//! five kernels at four implementation **tiers**:
//!
//! * [`KernelTier::Scalar`] — one digit at a time; the reference the other
//!   tiers are property-tested against, and the honest "pre-optimization"
//!   baseline the engine benchmark compares to;
//! * [`KernelTier::Swar`] — portable SIMD-within-a-register over `u64`
//!   words, the fallback on every non-x86 target;
//! * [`KernelTier::Sse2`] / [`KernelTier::Avx2`] — `core::arch::x86_64`
//!   implementations processing 16 / 32 digits per instruction.
//!
//! One tier is selected **once per process** via
//! `is_x86_feature_detected!` and exposed as a dispatch table of function
//! pointers ([`KernelOps`], via [`active`]). Every tier computes
//! byte-identical results — `tests/kernel_tiers.rs` pins all four against
//! the scalar reference on awkward lengths and every digit value, and every
//! count kernel against independent per-digit references — so the
//! selection changes wall-clock time, never simulation output.
//!
//! # Forcing a tier
//!
//! `SIBIA_FORCE_KERNEL=scalar|swar|sse2|avx2` overrides auto-detection.
//! Requesting a tier the CPU (or target) cannot run is a **typed error**
//! ([`KernelError::Unsupported`]), never a silent fallback: benchmarks that
//! claim "SWAR vs AVX2" must fail loudly when they measured something else.
//! Tests and benchmarks that need several tiers in one process use
//! [`set_thread_override`], which takes precedence over the environment on
//! the calling thread only.
//!
//! Each tier registers call counters in the process-wide observability
//! registry (`sbr.kernels.<tier>.{counts,decompose}`) and the selected
//! tier index is published as the `sbr.kernels.tier` gauge, so a trace or
//! metrics dump always records which kernels produced it.

mod scalar;
mod swar;
#[cfg(target_arch = "x86_64")]
mod x86;

use std::cell::Cell;
use std::fmt;
use std::sync::{Arc, OnceLock};

use sibia_obs::Counter;

use crate::precision::Precision;

/// Environment variable forcing the kernel tier for the whole process.
pub const FORCE_ENV: &str = "SIBIA_FORCE_KERNEL";

/// One implementation tier of the kernel set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelTier {
    /// Digit-at-a-time reference implementation.
    Scalar,
    /// Portable SIMD-within-a-register over `u64` words.
    Swar,
    /// 128-bit `core::arch::x86_64` SSE2.
    Sse2,
    /// 256-bit `core::arch::x86_64` AVX2 (+POPCNT).
    Avx2,
}

impl KernelTier {
    /// All tiers, slowest first.
    pub const ALL: [KernelTier; 4] = [
        KernelTier::Scalar,
        KernelTier::Swar,
        KernelTier::Sse2,
        KernelTier::Avx2,
    ];

    /// The tier's canonical lower-case name (the `SIBIA_FORCE_KERNEL`
    /// vocabulary).
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Scalar => "scalar",
            KernelTier::Swar => "swar",
            KernelTier::Sse2 => "sse2",
            KernelTier::Avx2 => "avx2",
        }
    }

    /// Parses a tier name as spelled in `SIBIA_FORCE_KERNEL`.
    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|t| t.name() == s)
    }

    /// Whether this tier can run on the current machine.
    pub fn supported(self) -> bool {
        match self {
            KernelTier::Scalar | KernelTier::Swar => true,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Sse2 => is_x86_feature_detected!("sse2"),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => {
                is_x86_feature_detected!("avx2") && is_x86_feature_detected!("popcnt")
            }
            #[cfg(not(target_arch = "x86_64"))]
            KernelTier::Sse2 | KernelTier::Avx2 => false,
        }
    }
}

impl fmt::Display for KernelTier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Why a kernel tier could not be selected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// `SIBIA_FORCE_KERNEL` named something that is not a tier.
    UnknownTier(String),
    /// The requested tier exists but this CPU / target cannot run it.
    Unsupported(KernelTier),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::UnknownTier(s) => write!(
                f,
                "unknown kernel tier '{s}' (expected scalar, swar, sse2, or avx2)"
            ),
            KernelError::Unsupported(t) => {
                write!(f, "kernel tier '{t}' is not supported on this machine")
            }
        }
    }
}

impl std::error::Error for KernelError {}

/// Zero-structure counts of one digit plane, measured in a single pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlaneCounts {
    /// Digits in the plane.
    pub len: usize,
    /// Exactly-zero digits.
    pub zero_digits: usize,
    /// Sub-words (groups of four digits, tail zero-padded).
    pub subwords: usize,
    /// All-zero (skippable) sub-words.
    pub zero_subwords: usize,
    /// Entries the DMU's RLE codec emits for the sub-word stream.
    pub rle_entries: usize,
}

impl PlaneCounts {
    /// Zero sub-word fraction, with the same empty-plane convention as
    /// [`crate::subword::zero_subword_fraction`].
    pub fn zero_subword_fraction(&self) -> f64 {
        if self.len == 0 {
            0.0
        } else {
            self.zero_subwords as f64 / self.subwords as f64
        }
    }
}

/// Per-tier call counters in the process-wide observability registry.
struct TierCounters {
    /// Zero/sub-word/RLE counting calls.
    counts: Arc<Counter>,
    /// i32 → digit-plane decomposition calls.
    decompose: Arc<Counter>,
}

impl TierCounters {
    fn new(tier: KernelTier) -> Self {
        let registry = sibia_obs::registry();
        let name = |op: &str| format!("sbr.kernels.{}.{op}", tier.name());
        Self {
            counts: registry.counter(&name("counts")),
            decompose: registry.counter(&name("decompose")),
        }
    }
}

/// The dispatch table: one function pointer per kernel, all of one tier.
///
/// Obtained from [`active`] (the process-selected tier) or [`ops_for`]
/// (an explicit tier, for tests and benchmarks). All tiers are
/// byte-equivalent; the public methods also bump the tier's call counters.
pub struct KernelOps {
    /// The tier these kernels belong to.
    pub tier: KernelTier,
    counters: TierCounters,
    zero_digit_count: fn(&[i8]) -> usize,
    zero_subword_count: fn(&[i8]) -> usize,
    plane_counts: fn(&[i8], u8) -> PlaneCounts,
    sbr_planes: fn(&[i32], Precision) -> Vec<Vec<i8>>,
    conv_planes: fn(&[i32], Precision) -> Vec<Vec<i8>>,
}

impl fmt::Debug for KernelOps {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KernelOps")
            .field("tier", &self.tier)
            .finish()
    }
}

impl KernelOps {
    /// Number of zero digits in a plane.
    pub fn zero_digit_count(&self, plane: &[i8]) -> usize {
        self.counters.counts.add(1);
        (self.zero_digit_count)(plane)
    }

    /// Number of zero sub-words (groups of four digits, tail zero-padded)
    /// in a plane.
    pub fn zero_subword_count(&self, plane: &[i8]) -> usize {
        self.counters.counts.add(1);
        (self.zero_subword_count)(plane)
    }

    /// All zero-structure counts of a plane — zero digits, zero sub-words,
    /// and RLE entries at `index_bits` — in one pass.
    ///
    /// # Panics
    ///
    /// Panics if `index_bits` is not in `[1, 15]` (the RLE codec's domain).
    pub fn plane_counts(&self, plane: &[i8], index_bits: u8) -> PlaneCounts {
        self.counters.counts.add(1);
        (self.plane_counts)(plane, index_bits)
    }

    /// SBR decomposition of a tensor into per-order digit planes
    /// (byte-identical to [`crate::sbr::planes`]'s scalar definition).
    ///
    /// # Panics
    ///
    /// Panics if any value is outside the symmetric range of `precision`.
    pub fn sbr_planes(&self, values: &[i32], precision: Precision) -> Vec<Vec<i8>> {
        self.counters.decompose.add(1);
        (self.sbr_planes)(values, precision)
    }

    /// Conventional radix-16 decomposition into per-order digit planes
    /// (byte-identical to [`crate::conv::planes`]'s scalar definition).
    ///
    /// # Panics
    ///
    /// Panics if any value is outside the symmetric range of `precision`.
    pub fn conv_planes(&self, values: &[i32], precision: Precision) -> Vec<Vec<i8>> {
        self.counters.decompose.add(1);
        (self.conv_planes)(values, precision)
    }
}

fn build_ops(tier: KernelTier) -> KernelOps {
    let counters = TierCounters::new(tier);
    match tier {
        KernelTier::Scalar => KernelOps {
            tier,
            counters,
            zero_digit_count: scalar::zero_digit_count,
            zero_subword_count: scalar::zero_subword_count,
            plane_counts: scalar::plane_counts,
            sbr_planes: scalar::sbr_planes,
            conv_planes: scalar::conv_planes,
        },
        KernelTier::Swar => KernelOps {
            tier,
            counters,
            zero_digit_count: swar::zero_digit_count,
            zero_subword_count: swar::zero_subword_count,
            plane_counts: swar::plane_counts,
            sbr_planes: swar::sbr_planes,
            conv_planes: swar::conv_planes,
        },
        #[cfg(target_arch = "x86_64")]
        KernelTier::Sse2 => KernelOps {
            tier,
            counters,
            zero_digit_count: x86::zero_digit_count_sse2,
            zero_subword_count: x86::zero_subword_count_sse2,
            plane_counts: x86::plane_counts_sse2,
            sbr_planes: x86::sbr_planes_sse2,
            conv_planes: x86::conv_planes_sse2,
        },
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 => KernelOps {
            tier,
            counters,
            zero_digit_count: x86::zero_digit_count_avx2,
            zero_subword_count: x86::zero_subword_count_avx2,
            plane_counts: x86::plane_counts_avx2,
            sbr_planes: x86::sbr_planes_avx2,
            conv_planes: x86::conv_planes_avx2,
        },
        #[cfg(not(target_arch = "x86_64"))]
        KernelTier::Sse2 | KernelTier::Avx2 => {
            unreachable!("ops_for rejects unsupported tiers before building")
        }
    }
}

/// The ops table of an explicit tier, for tests and benchmarks that compare
/// tiers side by side.
///
/// # Errors
///
/// Returns [`KernelError::Unsupported`] when the tier cannot run here.
pub fn ops_for(tier: KernelTier) -> Result<&'static KernelOps, KernelError> {
    static TABLES: [OnceLock<KernelOps>; 4] = [
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
        OnceLock::new(),
    ];
    if !tier.supported() {
        return Err(KernelError::Unsupported(tier));
    }
    let slot = match tier {
        KernelTier::Scalar => &TABLES[0],
        KernelTier::Swar => &TABLES[1],
        KernelTier::Sse2 => &TABLES[2],
        KernelTier::Avx2 => &TABLES[3],
    };
    Ok(slot.get_or_init(|| build_ops(tier)))
}

/// The ops tables of every tier this machine supports, in
/// [`KernelTier::ALL`] order, for tests and benchmarks that sweep them all.
pub fn supported_ops() -> Vec<&'static KernelOps> {
    KernelTier::ALL
        .into_iter()
        .filter_map(|t| ops_for(t).ok())
        .collect()
}

/// Best tier this machine supports (AVX2 > SSE2 > SWAR).
fn detect_best() -> KernelTier {
    [KernelTier::Avx2, KernelTier::Sse2]
        .into_iter()
        .find(|t| t.supported())
        .unwrap_or(KernelTier::Swar)
}

/// Resolves a forced-tier request (the `SIBIA_FORCE_KERNEL` value, if set)
/// into an ops table. Split from the environment read so the error paths
/// are unit-testable.
fn select_from(forced: Option<&str>) -> Result<&'static KernelOps, KernelError> {
    match forced {
        None => ops_for(detect_best()),
        Some(raw) => {
            let tier =
                KernelTier::parse(raw).ok_or_else(|| KernelError::UnknownTier(raw.to_owned()))?;
            ops_for(tier)
        }
    }
}

static ACTIVE: OnceLock<Result<&'static KernelOps, KernelError>> = OnceLock::new();

/// The process-selected kernel table: `SIBIA_FORCE_KERNEL` if set (a typed
/// error when unknown or unsupported — never a silent fallback), otherwise
/// the best detected tier. The selection is made once and cached;
/// front-ends call this early to turn a bad environment into a clean exit.
///
/// # Errors
///
/// Returns [`KernelError`] when `SIBIA_FORCE_KERNEL` names an unknown or
/// unsupported tier.
pub fn try_active() -> Result<&'static KernelOps, KernelError> {
    ACTIVE
        .get_or_init(|| {
            let selected = select_from(std::env::var(FORCE_ENV).ok().as_deref());
            if let Ok(ops) = selected {
                let index = KernelTier::ALL.iter().position(|t| *t == ops.tier);
                sibia_obs::registry()
                    .gauge("sbr.kernels.tier")
                    .set(index.unwrap_or(0) as i64);
            }
            selected
        })
        .clone()
}

thread_local! {
    static THREAD_OVERRIDE: Cell<Option<KernelTier>> = const { Cell::new(None) };
}

/// Forces a tier on the **calling thread only**, taking precedence over the
/// process selection; `None` restores it. Worker threads spawned later do
/// not inherit the override. This exists for tests and benchmarks that
/// compare tiers within one process — production code selects via the
/// environment.
///
/// # Errors
///
/// Returns [`KernelError::Unsupported`] when the tier cannot run here; the
/// previous override is left unchanged.
pub fn set_thread_override(tier: Option<KernelTier>) -> Result<(), KernelError> {
    if let Some(t) = tier {
        ops_for(t)?;
    }
    THREAD_OVERRIDE.with(|o| o.set(tier));
    Ok(())
}

/// The kernel table every `sibia-sbr` entry point dispatches through:
/// the thread override if set, otherwise the process selection.
///
/// # Panics
///
/// Panics when `SIBIA_FORCE_KERNEL` is invalid (same condition
/// [`try_active`] reports as an error; front-ends that want a clean exit
/// check `try_active` first).
pub fn active() -> &'static KernelOps {
    if let Some(tier) = THREAD_OVERRIDE.with(|o| o.get()) {
        return ops_for(tier).expect("thread override was validated when set");
    }
    try_active().unwrap_or_else(|e| panic!("{FORCE_ENV}: {e}"))
}

/// Shared single-pass counting drivers, parameterized over a tier's
/// 64-digit non-zero-mask primitive. `#[inline(always)]` so each tier's
/// instantiation inlines into its `#[target_feature]` wrapper and compiles
/// with that tier's instruction set.
pub(crate) mod detail {
    use super::PlaneCounts;

    /// Low bit of every nibble lane.
    const NIBBLE_LO: u64 = 0x1111_1111_1111_1111;

    /// One-pass [`PlaneCounts`] from a tier's 64-digit mask primitive:
    /// `mask64` returns bit `i` set iff digit `i` of its 64-digit chunk is
    /// non-zero.
    /// A 64-digit chunk is exactly sixteen sub-words, so sub-word
    /// boundaries never straddle chunks and the RLE run threads through
    /// unbroken.
    #[inline(always)]
    pub(crate) fn plane_counts_with<F: FnMut(&[i8]) -> u64>(
        plane: &[i8],
        index_bits: u8,
        mut mask64: F,
    ) -> PlaneCounts {
        assert!(
            (1..=15).contains(&index_bits),
            "index bits must be in [1, 15], got {index_bits}"
        );
        let cycle = 1usize << index_bits;
        let len = plane.len();
        let subwords = len.div_ceil(4);
        let mut nonzero_digits = 0usize;
        let mut nonzero_subwords = 0usize;
        let mut entries = 0usize;
        let mut run = 0usize;
        let mut chunks = plane.chunks_exact(64);
        for chunk in &mut chunks {
            let m = mask64(chunk);
            nonzero_digits += m.count_ones() as usize;
            // Bit 4j of `s` is set iff sub-word j of the chunk is non-zero.
            let s = (m | (m >> 1) | (m >> 2) | (m >> 3)) & NIBBLE_LO;
            nonzero_subwords += s.count_ones() as usize;
            if s == 0 {
                // Sixteen zero sub-words: advance the run in bulk. A run
                // reaching `cycle` flushes one padding entry and resets,
                // so a gap of g zeros at prior run r emits
                // (r + g) / cycle entries and leaves run (r + g) % cycle.
                run += 16;
                entries += run / cycle;
                run %= cycle;
            } else {
                let mut pos = 0usize;
                let mut bits = s;
                while bits != 0 {
                    let lane = (bits.trailing_zeros() / 4) as usize;
                    // The zero gap may flush padding entries; the non-zero
                    // sub-word then emits its own entry and resets the run.
                    run += lane - pos;
                    entries += run / cycle;
                    entries += 1;
                    run = 0;
                    pos = lane + 1;
                    bits &= bits - 1;
                }
                run += 16 - pos;
                entries += run / cycle;
                run %= cycle;
            }
        }
        for group in chunks.remainder().chunks(4) {
            let nz = group.iter().filter(|&&d| d != 0).count();
            nonzero_digits += nz;
            if nz == 0 {
                run += 1;
                if run == cycle {
                    entries += 1;
                    run = 0;
                }
            } else {
                nonzero_subwords += 1;
                entries += 1;
                run = 0;
            }
        }
        PlaneCounts {
            len,
            zero_digits: len - nonzero_digits,
            subwords,
            zero_subwords: subwords - nonzero_subwords,
            rle_entries: entries,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tier_names_round_trip() {
        for tier in KernelTier::ALL {
            assert_eq!(KernelTier::parse(tier.name()), Some(tier));
        }
        assert_eq!(KernelTier::parse("avx512"), None);
        assert_eq!(KernelTier::parse("SWAR"), None, "names are lower-case");
    }

    #[test]
    fn scalar_and_swar_are_always_supported() {
        assert!(KernelTier::Scalar.supported());
        assert!(KernelTier::Swar.supported());
        assert_eq!(ops_for(KernelTier::Swar).unwrap().tier, KernelTier::Swar);
    }

    #[test]
    fn unknown_forced_tier_is_a_typed_error() {
        match select_from(Some("neon")) {
            Err(KernelError::UnknownTier(s)) => assert_eq!(s, "neon"),
            other => panic!("expected UnknownTier, got {other:?}"),
        }
        // The error renders the vocabulary for the operator.
        let msg = select_from(Some("bogus")).unwrap_err().to_string();
        assert!(msg.contains("bogus") && msg.contains("avx2"), "{msg}");
    }

    #[test]
    fn forcing_a_supported_tier_selects_it_exactly() {
        assert_eq!(
            select_from(Some("scalar")).unwrap().tier,
            KernelTier::Scalar
        );
        assert_eq!(select_from(Some("swar")).unwrap().tier, KernelTier::Swar);
        assert_eq!(select_from(None).unwrap().tier, detect_best());
    }

    #[cfg(not(target_arch = "x86_64"))]
    #[test]
    fn x86_tiers_are_unsupported_elsewhere() {
        assert_eq!(
            select_from(Some("avx2")),
            Err(KernelError::Unsupported(KernelTier::Avx2))
        );
    }

    #[test]
    fn thread_override_wins_and_restores() {
        set_thread_override(Some(KernelTier::Scalar)).unwrap();
        assert_eq!(active().tier, KernelTier::Scalar);
        set_thread_override(None).unwrap();
        assert_eq!(active().tier, try_active().unwrap().tier);
    }

    #[test]
    fn counters_register_per_tier() {
        let ops = ops_for(KernelTier::Swar).unwrap();
        let before = sibia_obs::registry()
            .counter("sbr.kernels.swar.counts")
            .get();
        let _ = ops.zero_digit_count(&[1, 0, 2]);
        let after = sibia_obs::registry()
            .counter("sbr.kernels.swar.counts")
            .get();
        assert_eq!(after, before + 1);
    }
}
