//! Simulators for the Sibia accelerator and its baselines.
//!
//! Two complementary levels (DESIGN.md §6), plus the comparator models:
//!
//! * [`functional`] — a bit-exact model of the flexible zero-skipping PE:
//!   signed 4b×4b MACs with 7-bit products and 12-bit accumulators,
//!   sub-word-granular zero skipping, shift-add recombination of slice
//!   orders. Its outputs are proven equal to the `sibia-tensor` reference
//!   operators for every skipping mode and precision, which validates that
//!   **skipping zero slices never changes results**.
//! * [`perf`] — a cycle/energy performance simulator that runs whole
//!   networks from the model zoo through a configured core
//!   ([`spec::ArchSpec`]): Bit-fusion, HNPU, and Sibia in its input /
//!   weight / hybrid / output-skipping modes, with or without the SBR.
//! * [`analytic`] — spec-level throughput/energy models of the non-bit-slice
//!   comparison points (SparTen, S2TA, GPUs) for Table II / Fig. 15 / §III-J.
//!
//! Between those two levels, event-level models cross-check [`perf`]'s
//! constants: [`cycle`] (one PE array, column latching), [`pipeline`] (a
//! buffered PE pipeline), [`detailed`] (their per-pass composition with the
//! DSM), [`mpu`] and [`chip`] (one core and the quad-core chip) and
//! [`control`] (the RISC-V instruction stream). Around [`perf`] sit the
//! memoized decompositions ([`cache`]), the grid engine ([`parallel`]) that
//! runs every simulation as one [`GridRequest`], store read-through
//! ([`stored`]) and JSON / CSV export ([`jsonio`], [`trace`]).

pub mod analytic;
pub mod cache;
pub mod chip;
pub mod control;
pub mod cycle;
pub mod detailed;
pub mod functional;
pub mod jsonio;
pub mod mpu;
pub mod parallel;
pub mod perf;
pub mod pipeline;
pub mod spec;
pub mod stored;
pub mod trace;

pub use cache::DecompCache;
pub use functional::{PeRun, PeSim};
pub use jsonio::{
    grid_to_json, network_result_from_json, network_result_to_json, write_grid,
    write_network_result,
};
pub use parallel::{GridCell, GridRequest, GridResult, ParallelEngine};
pub use perf::{LayerResult, NetworkResult, Simulator};
pub use stored::{config_fingerprint, network_key, try_stored};

pub use spec::{ArchSpec, Repr, SkipGranularity, SkipPolicy};
