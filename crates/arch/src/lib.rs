//! Hardware model of the Sibia accelerator and its baselines.
//!
//! The paper's silicon results (Table I, Fig. 9, Fig. 14) are produced by a
//! 28 nm ASIC flow we cannot run; instead this crate provides a
//! **component-level area/energy model** whose per-component constants are
//! calibrated to the published numbers (every constant documents its
//! calibration target in [`tech`]). The simulators in `sibia-sim` count
//! events (MAC ops, register-file/SRAM/DRAM accesses, NoC flits); this crate
//! turns those counts into area, power, and energy — the quantities every
//! paper table and figure reports.
//!
//! Modules:
//!
//! * [`config`] — the PE/MPU hierarchy (3 PE arrays × 4 PE columns × 2 PEs ×
//!   64 MACs = 1536 MACs per core) and baseline core configurations,
//! * [`tech`] — 28 nm / 65 nm technology constants,
//! * [`area`] — logic/RF/SRAM area model (Fig. 14 left, Fig. 3a, §IV),
//! * [`energy`] — per-event energy model (Fig. 14 right, §II-C),
//! * [`noc`] — Bi-NoC / Uni-NoC bandwidth models (§II-F),
//! * [`mesh`] — the routed 2-D mesh behind the Bi-NoC (§II-F, Fig. 4),
//! * [`buffer`] — on-core operand buffers (Fig. 8),
//! * [`extmem`] — HyperRAM external-memory model,
//! * [`dsm`] — the dynamic sparsity monitoring unit (§II-E).

pub mod area;
pub mod buffer;
pub mod config;
pub mod dsm;
pub mod energy;
pub mod extmem;
pub mod mesh;
pub mod noc;
pub mod tech;

pub use config::{CoreConfig, MacKind};
pub use dsm::{DsmUnit, SkipDecision, SkipSide};
pub use energy::{EnergyBreakdown, EnergyModel, EventCounts};
pub use tech::TechNode;
