//! The fleet control plane: dynamic membership, work stealing, and
//! hedged dispatch (DESIGN.md §13).
//!
//! The coordinator's dispatch machinery used to be static — a fixed
//! endpoint list, one FNV-sharded queue per backend, and nothing but the
//! circuit breakers reacting to trouble. This module turns it into a
//! dynamic scheduler while leaving the *output* contract untouched: the
//! merged sweep document stays byte-identical to the grid run in
//! process, because everything here only changes **which backend
//! computes a `(network, seed)` row and when**, never what a cell
//! computes.
//!
//! | module | what it provides |
//! |---|---|
//! | [`membership`] | the roster: Joining/Active/Draining/Dead state machine, mid-sweep join/leave |
//! | [`stealing`] | two-ended home queues + the deepest-queue steal policy |
//! | [`hedging`] | first-writer-wins completion board, in-flight registry, windowed-p99 hedge deadline |

pub mod hedging;
pub mod membership;
pub mod stealing;

pub use hedging::{Completion, CompletionBoard, HedgeConfig, HedgeWindow, InFlightTable};
pub use membership::{
    Member, MemberConfig, MemberState, Membership, MembershipAction, PlannedEvent,
};
pub use stealing::{pick_victim, RowJob, StealQueue};
