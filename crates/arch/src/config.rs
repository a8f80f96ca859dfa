//! Hardware hierarchy configuration.
//!
//! Paper Fig. 4: a Sibia chip has a quad-core matrix processing unit (MPU)
//! and a dual-core data management unit (DMU). Each MPU core has three PE
//! arrays; a PE array has four PE columns; a PE column has two PEs and an
//! accumulation unit; each PE integrates 64 signed 4b×4b MAC units —
//! 3 × 4 × 2 × 64 = 1536 MACs per core.

use std::fmt;

/// The multiplier datapath a core is built from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MacKind {
    /// Sibia's signed 4b×4b MAC: no sign extension, 7-bit product,
    /// 12-bit accumulator.
    Signed4x4,
    /// The conventional bit-slice MAC (Bit-fusion, HNPU): 5b×5b with sign
    /// extension of unsigned slices and a widened accumulator.
    SignExtended5x5,
    /// Signed-magnitude 4-bit MAC (§IV ablation): unsigned multiplier, XOR
    /// sign logic, and a 2's complementer before accumulation.
    SignedMagnitude4,
    /// A fixed full-bit-width 8b×8b MAC (the non-slice reference of
    /// Fig. 3a).
    Fixed8x8,
}

impl fmt::Display for MacKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MacKind::Signed4x4 => write!(f, "signed 4b×4b"),
            MacKind::SignExtended5x5 => write!(f, "sign-extended 5b×5b"),
            MacKind::SignedMagnitude4 => write!(f, "signed-magnitude 4b"),
            MacKind::Fixed8x8 => write!(f, "fixed 8b×8b"),
        }
    }
}

/// Configuration of one MPU core (or a revised baseline core).
#[derive(Debug, Clone, PartialEq)]
pub struct CoreConfig {
    /// Display name.
    pub name: String,
    /// Multiplier datapath.
    pub mac_kind: MacKind,
    /// PE arrays per core.
    pub pe_arrays: usize,
    /// PE columns per PE array.
    pub pe_cols: usize,
    /// PEs per column.
    pub pes_per_col: usize,
    /// MAC units per PE.
    pub macs_per_pe: usize,
    /// Clock frequency in MHz.
    pub frequency_mhz: u32,
    /// On-core SRAM buffers (IBUF + WBUF + OBUF + IDXBUF) in KiB.
    pub sram_kib: usize,
    /// Whether the core has zero-skipping units and index buffers.
    pub has_zero_skipping: bool,
}

impl CoreConfig {
    /// The Sibia MPU core of Table I.
    pub fn sibia() -> Self {
        Self {
            name: "Sibia MPU core".to_owned(),
            mac_kind: MacKind::Signed4x4,
            pe_arrays: 3,
            pe_cols: 4,
            pes_per_col: 2,
            macs_per_pe: 64,
            frequency_mhz: 250,
            sram_kib: 128,
            has_zero_skipping: true,
        }
    }

    /// The revised Bit-fusion core of Table I: same MAC count, frequency and
    /// node, conventional 5b×5b MACs, no sparsity exploitation.
    pub fn bit_fusion() -> Self {
        Self {
            name: "Revised Bit-fusion core".to_owned(),
            mac_kind: MacKind::SignExtended5x5,
            has_zero_skipping: false,
            sram_kib: 64,
            ..Self::sibia()
        }
    }

    /// The revised HNPU core of Table I: conventional 5b×5b MACs plus zero
    /// input-bit-slice skipping.
    pub fn hnpu() -> Self {
        Self {
            name: "Revised HNPU core".to_owned(),
            mac_kind: MacKind::SignExtended5x5,
            has_zero_skipping: true,
            sram_kib: 128,
            ..Self::sibia()
        }
    }

    /// Total MAC units in the core.
    pub fn total_macs(&self) -> usize {
        self.pe_arrays * self.pe_cols * self.pes_per_col * self.macs_per_pe
    }

    /// Total PEs in the core.
    pub fn total_pes(&self) -> usize {
        self.pe_arrays * self.pe_cols * self.pes_per_col
    }
}

impl fmt::Display for CoreConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({} {} MACs @ {} MHz)",
            self.name,
            self.total_macs(),
            self.mac_kind,
            self.frequency_mhz
        )
    }
}

/// Chip-level configuration (quad-core MPU + dual-core DMU).
#[derive(Debug, Clone, PartialEq)]
pub struct ChipConfig {
    /// The per-core configuration.
    pub core: CoreConfig,
    /// Number of MPU cores.
    pub mpu_cores: usize,
    /// Number of DMU cores.
    pub dmu_cores: usize,
    /// Global memory per DMU core in KiB.
    pub global_mem_kib: usize,
}

impl ChipConfig {
    /// The full Sibia chip of Fig. 4.
    pub fn sibia() -> Self {
        Self {
            core: CoreConfig::sibia(),
            mpu_cores: 4,
            dmu_cores: 2,
            global_mem_kib: 64,
        }
    }

    /// Total MACs across all MPU cores.
    pub fn total_macs(&self) -> usize {
        self.mpu_cores * self.core.total_macs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sibia_core_has_1536_macs() {
        let c = CoreConfig::sibia();
        assert_eq!(c.total_macs(), 1536);
        assert_eq!(c.total_pes(), 24);
    }

    #[test]
    fn baselines_match_table1_setup() {
        // Table I revises the baselines to the same MAC count / frequency.
        let bf = CoreConfig::bit_fusion();
        let hnpu = CoreConfig::hnpu();
        let sibia = CoreConfig::sibia();
        assert_eq!(bf.total_macs(), sibia.total_macs());
        assert_eq!(hnpu.total_macs(), sibia.total_macs());
        assert_eq!(bf.frequency_mhz, 250);
        assert!(!bf.has_zero_skipping);
        assert!(hnpu.has_zero_skipping);
        assert_eq!(bf.mac_kind, MacKind::SignExtended5x5);
    }

    #[test]
    fn chip_has_quad_core_mpu() {
        let chip = ChipConfig::sibia();
        assert_eq!(chip.total_macs(), 4 * 1536);
        assert_eq!(chip.dmu_cores, 2);
    }
}
