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
//! | module | what it provides |
//! |---|---|
//! | [`shard`] | deterministic, finalized FNV-1a row → backend assignment |
//! | [`backoff`] | bounded exponential backoff with deterministic jitter (SynthRng, no `rand`) |
//! | [`breaker`] | per-backend Closed/Open/HalfOpen circuit breaker |
//! | [`pool`] | per-backend blocking connection pool over [`sibia_serve::Client`] |
//! | [`control`] | the control plane: membership state machine, work-stealing queues, hedged dispatch, chaos harness |
//! | [`coordinator`] | the [`Fleet`] itself: dispatch workers, retry/failover policy, hedge monitor, ping prober, result merge |
//! | [`telemetry`] | fleet-wide Chrome trace assembly: per-process `pid` lanes, global span ids, propagated parent links |
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
//! steal unpinned rows from the back of the deepest dispatchable queue
//! ([`control::stealing`]), so a straggler sheds its backlog instead of
//! serializing the sweep's tail. A row in flight past the windowed-p99
//! hedge deadline ([`control::hedging`], a window of row latencies) is
//! duplicated onto the least-loaded other member; the first completion
//! wins each cell on the [`control::CompletionBoard`], the loser's socket
//! is cancelled via [`sibia_serve::CancelHandle`], and a loser that
//! answers anyway is deduped — never double-written. Members join and
//! leave mid-sweep ([`control::membership`]); a departing member's queue
//! is drained and resharded across the survivors. [`SweepStats`] and the
//! `fleet.*` work counters count cells: a row counts its arch count.
//!
//! Everything is observable through the global [`sibia_obs`] registry
//! (`fleet.*` counters and histograms — `fleet.failover_total`,
//! `fleet.steal_total`, and `fleet.hedge_total` are ones the integration
//! suite pins) and tracer (`fleet.sweep`, `fleet.dispatch`, `fleet.retry`,
//! `fleet.steal`, `fleet.hedge`, `fleet.membership` spans).

pub mod backoff;
pub mod breaker;
pub mod control;
pub mod coordinator;
pub mod pool;
pub mod shard;
pub mod telemetry;

pub use backoff::BackoffPolicy;
pub use breaker::CircuitBreaker;
pub use control::{
    ChaosAction, ChaosEvent, ChaosPlan, CompletionBoard, HedgeConfig, MemberState, Membership,
    MembershipAction, PlannedEvent, SlowProxy,
};
pub use coordinator::{Fleet, FleetConfig, FleetError, SweepStats};
pub use pool::ClientPool;
pub use shard::{backend_for_row, row_key};
pub use telemetry::{backend_pid, merge_chrome_trace, COORDINATOR_PID};
