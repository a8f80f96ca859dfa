//! # sibia-fleet — dynamically scheduled multi-backend sweep coordination
//!
//! The first horizontal-scaling layer of the Sibia stack: a std-only
//! coordinator that takes a sweep grid, shards its `(network, seed)` rows
//! across a dynamic roster of `sibia-serve` backends — one `sweep` request
//! per row, carrying every arch, so each backend synthesizes a row's
//! network once — and merges the answers into a document
//! **byte-identical** to a direct [`sibia_sim::ParallelEngine`] grid run —
//! regardless of backend count, membership churn, failures, steals,
//! hedges, retries, or completion order.
//!
//! The crate's public surface is what its callers name: [`Fleet`] with
//! its [`FleetConfig`], [`FleetError`] and [`SweepStats`]; the planned
//! membership events [`PlannedEvent`] and [`MembershipAction`] that the
//! CLI's `--join`/`--leave` compile to; the per-cell [`CompletionBoard`]
//! with its [`Completion`] verdicts; and the row shard [`backend_for_row`].
//! Everything else is private to the coordinator:
//!
//! | module | what it provides |
//! |---|---|
//! | `shard` | deterministic, finalized FNV-1a row → backend assignment |
//! | `backoff` | bounded exponential backoff with deterministic jitter (SynthRng, no `rand`) |
//! | `breaker` | per-backend Closed/Open/HalfOpen circuit breaker |
//! | `pool` | per-backend blocking connection pool over [`sibia_serve::Client`] |
//! | `control` | the control plane: membership state machine, work-stealing queues, hedged dispatch |
//! | `coordinator` | the [`Fleet`] itself: dispatch workers, retry/failover policy, hedge monitor, ping prober, result merge |
//! | `telemetry` | fleet-wide Chrome trace assembly: per-process `pid` lanes, global span ids, propagated parent links |
//!
//! ## Failure policy in one paragraph
//!
//! `overloaded` and `deadline_exceeded` mean *healthy but busy*: the row
//! retries the **same** backend after a deterministic-jitter backoff and
//! the circuit breaker is not touched. Transport faults and server faults
//! (`internal`, `shutting_down`) mean *backend in trouble*: the breaker
//! records the failure, a newly opened breaker marks the member Dead and
//! reshards its queue, and the row **fails over** to the next
//! dispatchable member. Deterministic rejections (`bad_request`,
//! `unknown_arch`, `unknown_network`) abort the whole sweep — every
//! backend would answer identically, so retrying anywhere is futile. A
//! background `ping` prober keeps breaker state honest even for backends
//! no request is currently reaching, and resurrects Dead members that did
//! not explicitly leave.
//!
//! ## Scheduling policy in one paragraph
//!
//! The unit of dispatch is the `(network, seed)` row. A row starts on the
//! member that completed it in the fleet's previous sweep, whose store
//! answers it, if that member is still dispatchable; such a row is pinned
//! there. Every other row starts on its sharded home queue. Idle workers
//! steal unpinned rows from the back of the deepest dispatchable queue,
//! so a straggler sheds its backlog instead of serializing the sweep's
//! tail. A row in flight past the windowed-p99 hedge deadline (a window
//! of row latencies) is duplicated onto the least-loaded other member;
//! the first completion wins each cell on the [`CompletionBoard`], the
//! loser's socket is cancelled via [`sibia_serve::CancelHandle`], and a
//! loser that answers anyway is deduped — never double-written. Members
//! join and leave mid-sweep on the sweep clock
//! ([`FleetConfig::membership_plan`]) and drop out when their breaker
//! opens; a departing member's queue is drained and resharded across the
//! survivors. [`SweepStats`] counts cells: a row counts its arch count.
//!
//! A sweep's counts have one home: [`SweepStats`] (the CLI's stats line)
//! and the per-member counts of the `--status-out` snapshot — the stats'
//! per-backend cells are the members' completed cells, and its steals and
//! hedges are the sums of their stolen and hedged cells. Its schedule is
//! in the global [`sibia_obs`] tracer (`fleet.sweep`, `fleet.dispatch`,
//! `fleet.retry`, `fleet.steal`, `fleet.hedge`, `fleet.membership` spans);
//! the coordinator writes nothing to the metrics registry.

mod backoff;
mod breaker;
mod control;
mod coordinator;
mod pool;
mod shard;
mod telemetry;

pub use control::{Completion, CompletionBoard, MembershipAction, PlannedEvent};
pub use coordinator::{Fleet, FleetConfig, FleetError, SweepStats};
pub use shard::backend_for_row;
