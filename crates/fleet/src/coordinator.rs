//! The sweep coordinator: shard, dispatch, steal, hedge, fail over, merge.
//!
//! A [`Fleet`] owns a dynamic roster of `sibia-serve` backends (the
//! [`crate::control`] plane) and runs a sweep grid across them one
//! `(network, seed)` row at a time: each row goes out as one `sweep`
//! request carrying every arch of the grid, so a backend synthesizes the
//! row's network once for all of them, exactly as the in-process grid
//! engine does.
//!
//! 1. every row is assigned a *home* backend over the members dispatchable
//!    at sweep start: the member that completed the row in this fleet's
//!    previous sweep, whose store holds its cells (such a row is *pinned*
//!    and queued first), or else the deterministic shard
//!    ([`crate::shard`]); it is queued on that member's
//!    [`crate::control::StealQueue`];
//! 2. per-member dispatch workers drain their home queue front-first over
//!    pooled connections with a per-request deadline (`timeout_ms` on the
//!    wire); an **idle** worker steals an unpinned row from the back of
//!    the deepest dispatchable queue instead of sleeping, so a straggler
//!    cannot serialize the tail of a sweep;
//! 3. `overloaded` / `deadline_exceeded` answers retry the **same**
//!    backend after a deterministic-jitter backoff ([`crate::backoff`]) —
//!    the backend is healthy, just busy;
//! 4. transport faults and server-side faults (`internal`,
//!    `shutting_down`) trip the member's circuit breaker
//!    ([`crate::breaker`]), mark it Dead, reshard its queue across the
//!    survivors, and **fail the row over** to the next dispatchable
//!    member;
//! 5. deterministic rejections (`bad_request`, `unknown_arch`,
//!    `unknown_network`) abort the whole sweep — every backend would
//!    reject the same way, so retrying anywhere is futile;
//! 6. a row in flight longer than the windowed-p99 hedge deadline (a
//!    window of row dispatch latencies) gets a duplicate raced on a second
//!    member; the first completion wins each of the row's cells on the
//!    [`CompletionBoard`], the loser's socket is cancelled, and a loser
//!    that answers anyway is deduped (counted, not written);
//! 7. members can join and leave mid-sweep — planned
//!    ([`FleetConfig::membership_plan`]), requested ([`Fleet::join`] /
//!    [`Fleet::leave`]), or forced by failure — with a departing member's
//!    queue drained and resharded across the survivors;
//! 8. a row's answer lands cell by cell on the completion board indexed by
//!    flat grid position, and the merged document is emitted in row-major
//!    (arch, network, seed) order.
//!
//! [`SweepStats`] counts in cells throughout: a row attempt, steal, hedge,
//! retry or failover counts the grid's arch count.
//!
//! ## Why the merge is still byte-identical
//!
//! The server's `sweep` handler computes a row with the same grid engine
//! and `Simulator` configuration a direct grid gives it (same seed
//! override, same default sample cap) and serializes it with
//! [`sibia_serve::protocol::grid_to_json`], whose per-cell `result` is the
//! *pure* [`sibia_serve::protocol::network_result_to_json`]. The canonical
//! JSON layer makes `parse ∘ serialize` the identity on canonical text, so
//! each `result` the coordinator reads back is byte-for-byte what
//! `grid_to_json` embeds for that cell in the whole grid. Everything the
//! control plane does — stealing, hedging, joins, leaves, breaker-driven
//! reshards — only changes **which backend computes a row and when**,
//! never a cell's bytes; hedge twins are first-writer-wins deduped per
//! cell on the board, and the merge reads the slots back in flat order.
//! Reassembling therefore reproduces `grid_to_json` of the direct grid
//! exactly — regardless of backend count, membership churn, steals,
//! hedges, retries, or completion order. The integration suite pins this
//! against live servers, including seeded chaos schedules (mid-sweep
//! kill + join + stalls).

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use sibia_obs::{registry, tracer, Counter, Histogram, Json, TraceContext};
use sibia_serve::server::DEFAULT_SAMPLE_CAP;
use sibia_serve::{Client, ClientError, ErrorCode, ServeError};

use crate::backoff::BackoffPolicy;
use crate::control::{
    pick_victim, Completion, CompletionBoard, HedgeConfig, HedgeWindow, InFlightTable, Member,
    MemberConfig, MemberState, Membership, MembershipAction, PlannedEvent, RowJob,
};
use crate::shard::backend_for_row;

/// How a sweep can fail, from the caller's point of view.
#[derive(Debug)]
pub enum FleetError {
    /// The endpoint list was empty (or every member left before dispatch).
    NoEndpoints,
    /// `archs`, `networks`, or `seeds` was empty.
    EmptyGrid,
    /// A backend deterministically rejected a row (`bad_request`,
    /// `unknown_arch`, `unknown_network`): every backend would answer the
    /// same, so the sweep aborts instead of retrying.
    Rejected(ServeError),
    /// One `(network, seed)` row exhausted its attempt budget across all
    /// backends.
    RowFailed {
        /// Network name of the failed row.
        network: String,
        /// Seed of the failed row.
        seed: u64,
        /// Total dispatch attempts spent on the row.
        attempts: u32,
        /// The last error observed, for the log.
        last_error: String,
    },
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::NoEndpoints => write!(f, "fleet has no endpoints"),
            FleetError::EmptyGrid => write!(f, "sweep grid is empty"),
            FleetError::Rejected(e) => {
                write!(
                    f,
                    "backend rejected sweep [{}]: {}",
                    e.code.as_str(),
                    e.message
                )
            }
            FleetError::RowFailed {
                network,
                seed,
                attempts,
                last_error,
            } => write!(
                f,
                "row ({network}, seed {seed}) failed after {attempts} attempts: {last_error}"
            ),
        }
    }
}

impl std::error::Error for FleetError {}

/// Coordinator configuration. [`FleetConfig::new`] gives defaults tuned
/// for LAN backends; every knob is public.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Initial backend endpoints (`host:port`), order-significant: the
    /// shard assignment and failover rotation are relative to the roster
    /// built from this list (joins append to it).
    pub endpoints: Vec<String>,
    /// Concurrent dispatch workers (and pooled connections) per backend.
    pub connections_per_backend: usize,
    /// TCP connect timeout per dial.
    pub connect_timeout: Duration,
    /// Per-request deadline, sent as `timeout_ms` and enforced locally via
    /// the socket read timeout (with slack for transit).
    pub request_timeout: Duration,
    /// Retry budget *per backend* for back-off-able answers
    /// (`overloaded`, `deadline_exceeded`); the total attempt budget of a
    /// row is `max_attempts_per_backend × roster size`.
    pub max_attempts_per_backend: u32,
    /// Retry delay policy (deterministic jitter).
    pub backoff: BackoffPolicy,
    /// Consecutive faults that open a backend's circuit breaker.
    pub breaker_threshold: u32,
    /// How long an open breaker rejects before admitting a trial.
    pub breaker_cooldown: Duration,
    /// Health-probe (`ping`) period; probes feed the breakers and
    /// resurrect Dead-but-reachable members.
    pub probe_interval: Duration,
    /// Work stealing: idle workers pull rows from the deepest
    /// dispatchable queue instead of sleeping.
    pub steal: bool,
    /// Hedged-dispatch policy (windowed-p99 deadline, duplication).
    pub hedge: HedgeConfig,
    /// Membership changes scheduled relative to sweep start (the CLI's
    /// `--join MS:ENDPOINT` / `--leave MS:ENDPOINT` compile to these).
    pub membership_plan: Vec<PlannedEvent>,
    /// When set, the coordinator atomically rewrites this file with a
    /// live JSON snapshot of the roster every ~200 ms during a sweep
    /// (`sibia top --fleet-status` reads it).
    pub status_path: Option<PathBuf>,
}

impl FleetConfig {
    /// Defaults for the given endpoints.
    pub fn new(endpoints: Vec<String>) -> Self {
        Self {
            endpoints,
            connections_per_backend: 2,
            connect_timeout: Duration::from_secs(5),
            request_timeout: Duration::from_secs(60),
            max_attempts_per_backend: 3,
            backoff: BackoffPolicy::default(),
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(500),
            probe_interval: Duration::from_millis(200),
            steal: true,
            hedge: HedgeConfig::default(),
            membership_plan: Vec::new(),
            status_path: None,
        }
    }
}

/// The [`MemberConfig`] projection of a [`FleetConfig`].
fn member_config(config: &FleetConfig) -> MemberConfig {
    MemberConfig {
        connect_timeout: config.connect_timeout,
        // Socket read timeout = request deadline + slack, so the server
        // gets to answer `deadline_exceeded` itself before the client cuts
        // the connection (a typed answer retries; a cut connection would
        // needlessly count as a backend fault).
        io_timeout: config.request_timeout + Duration::from_secs(10),
        max_idle: config.connections_per_backend,
        breaker_threshold: config.breaker_threshold,
        breaker_cooldown: config.breaker_cooldown,
    }
}

/// What one sweep did, beyond the result document.
///
/// Every count is in cells. The unit of dispatch is a `(network, seed)`
/// row carrying every arch of the grid, so one row attempt, retry, steal,
/// hedge or failover counts the grid's arch count.
#[derive(Debug, Clone)]
pub struct SweepStats {
    /// Grid cells dispatched.
    pub cells: usize,
    /// Roster size at merge time (initial endpoints + joins; Dead and
    /// departed members keep their slots).
    pub backends: usize,
    /// Cells of every dispatch attempt (incl. retries, failovers, hedges).
    pub attempts: u64,
    /// Cells of same-backend retries after `overloaded`/`deadline_exceeded`.
    pub retries: u64,
    /// Cells of rows re-dispatched to a different backend.
    pub failovers: u64,
    /// Cells of rows pulled off another member's queue by an idle worker.
    pub steals: u64,
    /// Cells of hedge duplicates issued for overdue rows.
    pub hedges: u64,
    /// Cells won by their hedge duplicate (the original lost the race).
    pub hedge_wins: u64,
    /// Duplicate cell completions discarded by the board (never written).
    pub hedge_duplicates: u64,
    /// Members that joined mid-sweep.
    pub joins: u64,
    /// Members that left mid-sweep (explicit leaves, not failures).
    pub leaves: u64,
    /// Cells of queued rows moved to a survivor when a member died or
    /// drained.
    pub resharded_cells: u64,
    /// Cells completed per member (by stable roster index).
    pub per_backend_cells: Vec<u64>,
    /// Cells of stolen rows executed per member (by stable roster index).
    pub per_backend_stolen: Vec<u64>,
    /// Cells of hedge duplicates placed per member (by stable roster
    /// index).
    pub per_backend_hedged: Vec<u64>,
    /// Final `(endpoint, state)` of every roster member, in index order.
    pub membership: Vec<(String, String)>,
    /// End-to-end latency of every completed cell, unsorted: its row's
    /// dispatch latency (first dispatch to answer), so the cells of one
    /// row share one latency.
    pub cell_latencies: Vec<Duration>,
}

/// Cached handles to the `fleet.*` instruments in the global registry.
/// The work counters count cells, like [`SweepStats`].
struct FleetMetrics {
    cells_total: Arc<Counter>,
    dispatch_total: Arc<Counter>,
    retry_total: Arc<Counter>,
    failover_total: Arc<Counter>,
    overloaded_total: Arc<Counter>,
    breaker_open_total: Arc<Counter>,
    probe_total: Arc<Counter>,
    probe_failures: Arc<Counter>,
    pool_dials: Arc<Counter>,
    pool_reuses: Arc<Counter>,
    steal_total: Arc<Counter>,
    hedge_total: Arc<Counter>,
    hedge_win_total: Arc<Counter>,
    hedge_duplicate_total: Arc<Counter>,
    join_total: Arc<Counter>,
    leave_total: Arc<Counter>,
    reshard_cells_total: Arc<Counter>,
    cell_us: Arc<Histogram>,
    attempt_us: Arc<Histogram>,
}

impl FleetMetrics {
    fn new() -> Self {
        let r = registry();
        Self {
            cells_total: r.counter("fleet.cells_total"),
            dispatch_total: r.counter("fleet.dispatch_total"),
            retry_total: r.counter("fleet.retry_total"),
            failover_total: r.counter("fleet.failover_total"),
            overloaded_total: r.counter("fleet.overloaded_total"),
            breaker_open_total: r.counter("fleet.breaker_open_total"),
            probe_total: r.counter("fleet.probe_total"),
            probe_failures: r.counter("fleet.probe_failures"),
            pool_dials: r.counter("fleet.pool.dials"),
            pool_reuses: r.counter("fleet.pool.reuses"),
            steal_total: r.counter("fleet.steal_total"),
            hedge_total: r.counter("fleet.hedge_total"),
            hedge_win_total: r.counter("fleet.hedge_win_total"),
            hedge_duplicate_total: r.counter("fleet.hedge_duplicate_total"),
            join_total: r.counter("fleet.join_total"),
            leave_total: r.counter("fleet.leave_total"),
            reshard_cells_total: r.counter("fleet.reshard_cells_total"),
            cell_us: r.histogram("fleet.cell_us"),
            attempt_us: r.histogram("fleet.attempt_us"),
        }
    }
}

/// Process-wide sweep sequence feeding per-sweep trace ids (`fs1`,
/// `fs2`, …). Process-wide rather than per-fleet so two coordinators in
/// one process never mint the same id.
static SWEEP_SEQ: AtomicU64 = AtomicU64::new(0);

/// A row as the store sees it: `(network, seed, resolved sample cap)`.
type RowKey = (String, u64, usize);

/// What one dispatch attempt concluded.
enum Attempt {
    /// The row's canonical per-cell result payloads, in arch order.
    Done(Vec<Json>),
    /// Back off and retry the same backend (`true` = overloaded,
    /// `false` = deadline).
    Retry(bool),
    /// Deterministic rejection: abort the sweep.
    Reject(ServeError),
    /// Transport or server fault: trip the breaker, move the row.
    Fault(String),
}

/// How [`Fleet::drive_row`] left a job.
enum Verdict {
    /// Nothing more to do for this copy (won, deduped, cancelled, or the
    /// sweep aborted).
    Settled,
    /// The member cannot finish this row: move it elsewhere.
    Failover(String),
}

/// Splits a row's `sweep` answer — the `grid_to_json` document of one
/// network and one seed — into its per-arch `result` payloads, in arch
/// order. `None` when the answer is not that shape.
fn row_results(doc: &Json, archs: usize) -> Option<Vec<Json>> {
    let cells = doc.get("cells")?.as_array()?;
    if cells.len() != archs {
        return None;
    }
    cells
        .iter()
        .enumerate()
        .map(|(i, cell)| {
            if cell.get("arch_index")?.as_u64()? != i as u64 {
                return None;
            }
            cell.get("result").cloned()
        })
        .collect()
}

/// Shared per-sweep state, borrowed by the worker scope.
struct SweepState<'a> {
    archs: &'a [String],
    networks: &'a [String],
    seeds: &'a [u64],
    sample_cap: Option<usize>,
    /// This sweep's propagated trace id: rides every dispatched request's
    /// envelope, so backend spans are pullable (`spans` verb) under it.
    trace_id: &'a str,
    /// First-writer-wins per-cell result slots.
    board: CompletionBoard,
    /// Row dispatch latencies feeding the hedge deadline.
    window: HedgeWindow,
    /// Rows currently executing, for the hedge monitor and cancellation.
    inflight: InFlightTable,
    /// The member that won each row's cells, by row index: the next
    /// sweep's pinned homes.
    completers: Mutex<Vec<Option<usize>>>,
    fatal: Mutex<Option<FleetError>>,
    abort: AtomicBool,
    /// Wakes every [`Self::sleep`] the moment the sweep is done, so the
    /// scope join at the end of a sweep waits out no tick.
    wake: (Mutex<()>, Condvar),
    attempts: AtomicU64,
    retries: AtomicU64,
    failovers: AtomicU64,
    steals: AtomicU64,
    hedges: AtomicU64,
    hedge_wins: AtomicU64,
    joins: AtomicU64,
    leaves: AtomicU64,
    resharded: AtomicU64,
    latencies: Mutex<Vec<Duration>>,
    /// The most recently completed cell as `"arch/network/seed"`, surfaced
    /// through the status file's `progress` object so `top` can show what
    /// the fleet last finished.
    last_cell: Mutex<Option<String>>,
    /// The in-flight probe's cancel handle, so the end of a sweep never
    /// waits out a ping that is riding a stalled backend (the prober is a
    /// scoped thread; scope exit joins it).
    probe_cancel: Mutex<Option<sibia_serve::CancelHandle>>,
    /// Sweep start, the clock for planned membership events.
    started: Instant,
}

impl<'a> SweepState<'a> {
    fn new(
        archs: &'a [String],
        networks: &'a [String],
        seeds: &'a [u64],
        sample_cap: Option<usize>,
        trace_id: &'a str,
    ) -> Self {
        let rows = networks.len() * seeds.len();
        Self {
            archs,
            networks,
            seeds,
            sample_cap,
            trace_id,
            board: CompletionBoard::new(archs.len() * rows),
            window: HedgeWindow::new(rows),
            inflight: InFlightTable::new(),
            completers: Mutex::new(vec![None; rows]),
            fatal: Mutex::new(None),
            abort: AtomicBool::new(false),
            wake: (Mutex::new(()), Condvar::new()),
            attempts: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            steals: AtomicU64::new(0),
            hedges: AtomicU64::new(0),
            hedge_wins: AtomicU64::new(0),
            joins: AtomicU64::new(0),
            leaves: AtomicU64::new(0),
            resharded: AtomicU64::new(0),
            latencies: Mutex::new(Vec::with_capacity(archs.len() * rows)),
            last_cell: Mutex::new(None),
            probe_cancel: Mutex::new(None),
            started: Instant::now(),
        }
    }

    fn rows(&self) -> usize {
        self.networks.len() * self.seeds.len()
    }

    /// Cells per row, the unit every [`SweepStats`] count is kept in.
    fn row_cells(&self) -> u64 {
        self.archs.len() as u64
    }

    fn cell_coords(&self, flat: usize) -> (&str, &str, u64) {
        let per_arch = self.networks.len() * self.seeds.len();
        (
            &self.archs[flat / per_arch],
            &self.networks[(flat / self.seeds.len()) % self.networks.len()],
            self.seeds[flat % self.seeds.len()],
        )
    }

    fn row_coords(&self, row: usize) -> (&str, u64) {
        (
            &self.networks[row / self.seeds.len()],
            self.seeds[row % self.seeds.len()],
        )
    }

    /// The flat cell index of `arch_index` in `row`: the grid is row-major
    /// (arch, network, seed), so one row's cells sit a row count apart.
    fn flat(&self, arch_index: usize, row: usize) -> usize {
        arch_index * self.rows() + row
    }

    fn row_complete(&self, row: usize) -> bool {
        (0..self.archs.len()).all(|a| self.board.is_complete(self.flat(a, row)))
    }

    fn done(&self) -> bool {
        self.abort.load(Ordering::Relaxed) || self.board.remaining() == 0
    }

    fn fail(&self, err: FleetError) {
        let mut fatal = self.fatal.lock().expect("fatal lock");
        if fatal.is_none() {
            *fatal = Some(err);
        }
        self.abort.store(true, Ordering::Relaxed);
        self.wake();
    }

    /// Sleeps for `total`, returning early once the sweep is done.
    fn sleep(&self, total: Duration) {
        let (lock, cvar) = &self.wake;
        let guard = lock.lock().expect("wake lock");
        let _ = cvar
            .wait_timeout_while(guard, total, |_| !self.done())
            .expect("wake lock");
    }

    /// Wakes every sleeper to re-check [`Self::done`]. Callers make the
    /// sweep done first; taking the lock orders that before a sleeper's
    /// check, so no wake-up is lost.
    fn wake(&self) {
        let (lock, cvar) = &self.wake;
        let _guard = lock.lock().expect("wake lock");
        cvar.notify_all();
    }
}

/// A dynamically-scheduled multi-backend sweep coordinator.
pub struct Fleet {
    config: FleetConfig,
    membership: Membership,
    metrics: FleetMetrics,
    /// Join/leave requests made between control-loop ticks (or between
    /// sweeps), drained by the next tick.
    commands: Mutex<Vec<MembershipAction>>,
    /// Trace id of the most recently started sweep (see
    /// [`Fleet::last_trace_id`]).
    last_trace_id: Mutex<Option<String>>,
    /// The roster index of the member that completed each row of the
    /// previous sweep. Only the last sweep's rows are kept, so this is
    /// bounded by one sweep.
    homes: Mutex<HashMap<RowKey, usize>>,
}

impl std::fmt::Debug for Fleet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Fleet")
            .field("endpoints", &self.config.endpoints)
            .finish()
    }
}

impl Fleet {
    /// Builds a coordinator over the configured endpoints. No connection
    /// is dialed yet — backends may come up later; the breakers and the
    /// per-row retry budget absorb a slow start.
    pub fn new(config: FleetConfig) -> Result<Self, FleetError> {
        if config.endpoints.is_empty() {
            return Err(FleetError::NoEndpoints);
        }
        let membership = Membership::new(&config.endpoints, &member_config(&config));
        registry()
            .gauge("fleet.backends")
            .set(config.endpoints.len() as i64);
        Ok(Self {
            config,
            membership,
            metrics: FleetMetrics::new(),
            commands: Mutex::new(Vec::new()),
            last_trace_id: Mutex::new(None),
            homes: Mutex::new(HashMap::new()),
        })
    }

    /// The initially configured endpoints (joins do not appear here; see
    /// [`Fleet::members`] for the live roster).
    pub fn endpoints(&self) -> &[String] {
        &self.config.endpoints
    }

    /// The live roster as `(endpoint, state)` pairs, in stable roster
    /// index order.
    pub fn members(&self) -> Vec<(String, MemberState)> {
        self.membership
            .snapshot()
            .iter()
            .map(|m| (m.endpoint.clone(), m.state()))
            .collect()
    }

    /// Requests that `endpoint` join the fleet. Applied by the next
    /// control-loop tick of the running sweep (or at the start of the
    /// next one): a brand-new endpoint is appended in state Joining; a
    /// Dead-but-known endpoint is put back in rotation.
    pub fn join(&self, endpoint: impl Into<String>) {
        self.commands
            .lock()
            .expect("commands lock")
            .push(MembershipAction::Join(endpoint.into()));
    }

    /// Requests that `endpoint` drain out of the fleet: no new work, its
    /// home queue resharded across the survivors, in-flight dispatches
    /// allowed to finish. A departed member never rejoins under the same
    /// roster slot ([`Fleet::join`] appends a fresh one).
    pub fn leave(&self, endpoint: impl Into<String>) {
        self.commands
            .lock()
            .expect("commands lock")
            .push(MembershipAction::Leave(endpoint.into()));
    }

    /// The propagated trace id of the most recently started sweep (`fs1`,
    /// `fs2`, …). Always set by a sweep; backend spans exist under it only
    /// when the backends (and this process) run with tracing enabled.
    pub fn last_trace_id(&self) -> Option<String> {
        self.last_trace_id.lock().expect("trace id lock").clone()
    }

    /// Pulls hierarchy spans recorded under `trace_id` from every roster
    /// member (the `spans` verb), in roster order. A backend that cannot
    /// answer yields `Err(message)` — the merger skips it rather than
    /// failing the whole export.
    #[allow(clippy::type_complexity)]
    pub fn pull_spans(
        &self,
        trace_id: &str,
        limit: Option<usize>,
    ) -> Vec<(String, Result<Json, String>)> {
        self.membership
            .snapshot()
            .iter()
            .map(|member| {
                let outcome = member
                    .pool
                    .checkout()
                    .map_err(|e| format!("connect: {e}"))
                    .and_then(|mut client| {
                        let pulled = client
                            .spans(limit, Some(trace_id))
                            .map_err(|e| e.to_string());
                        if pulled.is_ok() {
                            member.pool.checkin(client);
                        }
                        pulled
                    });
                (member.endpoint.clone(), outcome)
            })
            .collect()
    }

    /// Assembles the fleet-wide Chrome trace for `trace_id`: this process's
    /// `fleet.*` spans plus every backend's pulled spans, each process in
    /// its own `pid` lane with ids rewritten globally unique and propagated
    /// parent links resolved (see [`crate::telemetry::merge_chrome_trace`]).
    pub fn merged_chrome_trace(&self, trace_id: &str, limit: Option<usize>) -> Json {
        let coordinator = tracer().records();
        let backends = self.pull_spans(trace_id, limit);
        crate::telemetry::merge_chrome_trace(trace_id, &coordinator, &backends)
    }
}

impl Fleet {
    /// Runs the (archs × networks × seeds) grid and returns the merged
    /// document — byte-identical to `grid_to_json` of the same grid run
    /// in process (`ParallelEngine::run`) — plus dispatch statistics.
    pub fn sweep_with_stats(
        &self,
        archs: &[String],
        networks: &[String],
        seeds: &[u64],
        sample_cap: Option<usize>,
    ) -> Result<(Json, SweepStats), FleetError> {
        if archs.is_empty() || networks.is_empty() || seeds.is_empty() {
            return Err(FleetError::EmptyGrid);
        }
        let trace_id = format!("fs{}", SWEEP_SEQ.fetch_add(1, Ordering::Relaxed) + 1);
        *self.last_trace_id.lock().expect("trace id lock") = Some(trace_id.clone());
        let state = SweepState::new(archs, networks, seeds, sample_cap, &trace_id);
        let cells = archs.len() * state.rows();
        let mut sweep_span = tracer().span("fleet.sweep");
        sweep_span.attr("trace_id", &trace_id);
        sweep_span.attr("cells", cells);
        sweep_span.attr("rows", state.rows());
        sweep_span.attr("backends", self.membership.len());
        self.metrics.cells_total.add(cells as u64);

        // Membership requests made between sweeps apply before sharding.
        let pending: Vec<MembershipAction> =
            std::mem::take(&mut *self.commands.lock().expect("commands lock"));
        for action in pending {
            self.apply_membership(action, &state);
        }

        // Home every row among the members that can take work right now;
        // later joins pick rows up by stealing.
        let initial = self.membership.dispatchable();
        if initial.is_empty() {
            return Err(FleetError::NoEndpoints);
        }
        let cap = sample_cap.unwrap_or(DEFAULT_SAMPLE_CAP).max(1);
        self.place_rows(&initial, cap, &state);

        // Per-member baselines, so one Fleet can run many sweeps and the
        // stats still report this sweep's deltas.
        let roster_before = self.membership.snapshot();
        let counters_before: Vec<(u64, u64, u64)> = roster_before
            .iter()
            .map(|m| {
                (
                    m.completed.load(Ordering::SeqCst),
                    m.stolen.load(Ordering::SeqCst),
                    m.hedged.load(Ordering::SeqCst),
                )
            })
            .collect();
        let pool_before: Vec<(u64, u64)> = roster_before.iter().map(|m| m.pool.stats()).collect();

        let mut plan = self.config.membership_plan.clone();
        plan.sort_by_key(|e| e.at);
        let mut next_event = 0usize;

        thread::scope(|s| {
            {
                let state = &state;
                s.spawn(move || self.prober_loop(state));
            }
            // The control loop runs right here on the sweeping thread:
            // spawn workers for every member (including mid-sweep joins),
            // fire planned membership events, drain join/leave requests,
            // finish drains, hedge the overdue, publish status.
            let mut spawned = 0usize;
            let mut tick = 0u64;
            loop {
                let roster = self.membership.snapshot();
                for member in roster.iter().skip(spawned) {
                    for _ in 0..self.config.connections_per_backend.max(1) {
                        let member = Arc::clone(member);
                        let state = &state;
                        s.spawn(move || self.worker_loop(member, state));
                    }
                }
                spawned = roster.len();
                if state.done() {
                    break;
                }

                let elapsed = state.started.elapsed();
                while next_event < plan.len() && plan[next_event].at <= elapsed {
                    self.apply_membership(plan[next_event].action.clone(), &state);
                    next_event += 1;
                }
                let pending: Vec<MembershipAction> =
                    std::mem::take(&mut *self.commands.lock().expect("commands lock"));
                for action in pending {
                    self.apply_membership(action, &state);
                }

                for m in &roster {
                    if m.state() == MemberState::Draining
                        && m.queue.is_empty()
                        && m.inflight.load(Ordering::SeqCst) == 0
                    {
                        m.set_state(MemberState::Dead);
                    }
                }

                if let Some(deadline) = state.window.deadline(&self.config.hedge) {
                    for (row, busy) in state.inflight.overdue(deadline) {
                        if state.row_complete(row) {
                            continue;
                        }
                        self.hedge_row(row, &busy, deadline, &state);
                    }
                }

                registry()
                    .gauge("fleet.backends")
                    .set(self.membership.dispatchable().len() as i64);
                if tick % 20 == 0 {
                    self.write_status(&state);
                }
                tick += 1;
                state.sleep(Duration::from_millis(10));
            }
            state.abort.store(true, Ordering::Relaxed);
            state.wake();
            if let Some(handle) = state.probe_cancel.lock().expect("probe cancel lock").take() {
                handle.cancel();
            }
            self.write_status(&state);
        });

        // This sweep's completers become the next sweep's pinned homes,
        // replacing the previous sweep's.
        let completers = std::mem::take(&mut *state.completers.lock().expect("completers lock"));
        *self.homes.lock().expect("homes lock") = completers
            .into_iter()
            .enumerate()
            .filter_map(|(row, member)| {
                let (network, seed) = state.row_coords(row);
                Some(((network.to_owned(), seed, cap), member?))
            })
            .collect();

        if let Some(err) = state.fatal.lock().expect("fatal lock").take() {
            return Err(err);
        }

        let roster = self.membership.snapshot();
        for m in &roster {
            let (dials, reuses) = m.pool.stats();
            let (bd, br) = pool_before.get(m.index).copied().unwrap_or((0, 0));
            self.metrics.pool_dials.add(dials - bd);
            self.metrics.pool_reuses.add(reuses - br);
        }
        let delta = |i: usize, now: u64, which: fn(&(u64, u64, u64)) -> u64| {
            now - counters_before.get(i).map_or(0, which)
        };
        let stats = SweepStats {
            cells,
            backends: roster.len(),
            attempts: state.attempts.load(Ordering::Relaxed),
            retries: state.retries.load(Ordering::Relaxed),
            failovers: state.failovers.load(Ordering::Relaxed),
            steals: state.steals.load(Ordering::Relaxed),
            hedges: state.hedges.load(Ordering::Relaxed),
            hedge_wins: state.hedge_wins.load(Ordering::Relaxed),
            hedge_duplicates: state.board.duplicates.load(Ordering::SeqCst),
            joins: state.joins.load(Ordering::Relaxed),
            leaves: state.leaves.load(Ordering::Relaxed),
            resharded_cells: state.resharded.load(Ordering::Relaxed),
            per_backend_cells: roster
                .iter()
                .map(|m| delta(m.index, m.completed.load(Ordering::SeqCst), |c| c.0))
                .collect(),
            per_backend_stolen: roster
                .iter()
                .map(|m| delta(m.index, m.stolen.load(Ordering::SeqCst), |c| c.1))
                .collect(),
            per_backend_hedged: roster
                .iter()
                .map(|m| delta(m.index, m.hedged.load(Ordering::SeqCst), |c| c.2))
                .collect(),
            membership: roster
                .iter()
                .map(|m| (m.endpoint.clone(), m.state().as_str().to_string()))
                .collect(),
            cell_latencies: state.latencies.lock().expect("latency lock").clone(),
        };
        sweep_span.attr("attempts", stats.attempts);
        sweep_span.attr("failovers", stats.failovers);
        sweep_span.attr("steals", stats.steals);
        sweep_span.attr("hedges", stats.hedges);

        let results = state.board.into_results();
        let per_arch = networks.len() * seeds.len();
        let merged = Json::obj(vec![(
            "cells",
            Json::Array(
                results
                    .into_iter()
                    .enumerate()
                    .map(|(flat, result)| {
                        Json::obj(vec![
                            ("arch_index", Json::from(flat / per_arch)),
                            (
                                "network_index",
                                Json::from((flat / seeds.len()) % networks.len()),
                            ),
                            ("seed", Json::from(seeds[flat % seeds.len()])),
                            ("result", result),
                        ])
                    })
                    .collect(),
            ),
        )]);
        Ok((merged, stats))
    }

    /// [`Fleet::sweep_with_stats`] without the statistics.
    pub fn sweep(
        &self,
        archs: &[String],
        networks: &[String],
        seeds: &[u64],
        sample_cap: Option<usize>,
    ) -> Result<Json, FleetError> {
        self.sweep_with_stats(archs, networks, seeds, sample_cap)
            .map(|(json, _)| json)
    }

    /// Queues every row on its home among `initial`: the member that
    /// completed it last sweep, while that member is dispatchable, or else
    /// the row's shard. Pinned rows go first, so each queue's back end —
    /// where thieves look — holds fresh rows while any are left.
    fn place_rows(&self, initial: &[Arc<Member>], cap: usize, state: &SweepState<'_>) {
        let homes = self.homes.lock().expect("homes lock");
        let mut fresh = Vec::new();
        for row in 0..state.rows() {
            let (network, seed) = state.row_coords(row);
            let pinned = homes
                .get(&(network.to_owned(), seed, cap))
                .and_then(|&index| initial.iter().find(|m| m.index == index));
            match pinned {
                Some(member) => member.queue.push_back(RowJob {
                    pinned: true,
                    ..RowJob::new(row)
                }),
                None => fresh.push((row, backend_for_row(network, seed, initial.len()))),
            }
        }
        for (row, home) in fresh {
            initial[home].queue.push_back(RowJob::new(row));
        }
    }

    fn worker_loop(&self, member: Arc<Member>, state: &SweepState<'_>) {
        loop {
            if state.done() {
                return;
            }
            if let Some(mut job) = member.queue.pop_front() {
                if !member.state().is_dispatchable() {
                    // The member died or drained with this still queued
                    // (e.g. pushed by a failover fallback): bounce it, at
                    // the cost of one attempt so dead fleets fail typed
                    // instead of ping-ponging forever.
                    job.attempts += 1;
                    self.failover(member.index, job, "member out of rotation", state);
                } else {
                    self.run_row(&member, job, state);
                }
                continue;
            }
            if self.config.steal && member.state().is_dispatchable() {
                if let Some(job) = self.steal_job(&member, state) {
                    self.run_row(&member, job, state);
                    continue;
                }
            }
            state.sleep(Duration::from_millis(5));
        }
    }

    /// An idle worker's steal: pull from the back of the deepest
    /// dispatchable queue that is not our own.
    fn steal_job(&self, thief: &Member, state: &SweepState<'_>) -> Option<RowJob> {
        let members = self.membership.snapshot();
        let victim = pick_victim(&members, thief.index)?;
        let job = victim.queue.steal_back()?;
        let cells = state.row_cells();
        thief.stolen.fetch_add(cells, Ordering::SeqCst);
        state.steals.fetch_add(cells, Ordering::Relaxed);
        self.metrics.steal_total.add(cells);
        let mut span = tracer().span("fleet.steal");
        span.attr("trace_id", state.trace_id);
        span.attr("thief", thief.index);
        span.attr("victim", victim.index);
        span.attr("row", job.row);
        drop(span);
        Some(job)
    }

    /// Executes one job on `member`: register in flight, drive it to a
    /// settled outcome, then fail over if the member couldn't finish it.
    fn run_row(&self, member: &Arc<Member>, mut job: RowJob, state: &SweepState<'_>) {
        if state.row_complete(job.row) {
            // A hedge loser popped after its twin already won: drop unrun.
            return;
        }
        if !member.breaker_available() {
            // The skip consumes attempt budget: when every breaker is open
            // the row bounces at most `budget` times and then fails,
            // instead of ping-ponging between dead backends forever.
            job.attempts += 1;
            self.failover(member.index, job, "circuit breaker open", state);
            return;
        }
        state.inflight.register(job.row, member.index);
        member.inflight.fetch_add(1, Ordering::SeqCst);
        let verdict = self.drive_row(member, &mut job, state);
        member.inflight.fetch_sub(1, Ordering::SeqCst);
        // Deregister *before* failing over, so the budget-exhausted check
        // in `failover` counts only the *other* copies still in flight.
        state.inflight.deregister(job.row, member.index);
        if let Verdict::Failover(why) = verdict {
            self.failover(member.index, job, &why, state);
        }
    }

    /// Drives one row on `member` until it completes, is out-raced by its
    /// hedge twin, retries out its same-backend budget, or aborts the
    /// sweep.
    fn drive_row(&self, member: &Member, job: &mut RowJob, state: &SweepState<'_>) -> Verdict {
        let started = Instant::now();
        let cells = state.row_cells();
        let mut local_attempt = 0u32;
        loop {
            if state.done() || state.row_complete(job.row) {
                return Verdict::Settled;
            }
            job.attempts += 1;
            state.attempts.fetch_add(cells, Ordering::Relaxed);
            self.metrics.dispatch_total.add(cells);
            let attempt_start = Instant::now();
            let outcome = {
                let mut span = tracer().span("fleet.dispatch");
                span.attr("trace_id", state.trace_id);
                span.attr("backend", member.index);
                span.attr("row", job.row);
                span.attr("attempt", job.attempts);
                span.attr("hedge", u64::from(job.hedge));
                self.attempt_row(member, job.row, span.id(), state)
            };
            self.metrics.attempt_us.record(attempt_start.elapsed());
            match outcome {
                Attempt::Done(results) => {
                    member
                        .breaker
                        .lock()
                        .expect("breaker lock")
                        .record_success();
                    if member.state() == MemberState::Joining {
                        member.set_state(MemberState::Active);
                    }
                    let latency = started.elapsed();
                    self.settle_row(member, job, results, latency, state);
                    return Verdict::Settled;
                }
                Attempt::Retry(overloaded) => {
                    // Healthy-but-busy: the breaker is NOT fed, the row
                    // stays on its backend, and the retry waits out a
                    // deterministic-jitter backoff.
                    if overloaded {
                        self.metrics.overloaded_total.add(cells);
                    }
                    state.retries.fetch_add(cells, Ordering::Relaxed);
                    self.metrics.retry_total.add(cells);
                    local_attempt += 1;
                    if local_attempt >= self.config.max_attempts_per_backend {
                        return Verdict::Failover(
                            if overloaded {
                                "overloaded"
                            } else {
                                "deadline exceeded"
                            }
                            .to_owned(),
                        );
                    }
                    let delay = self.config.backoff.delay(job.row as u64, local_attempt - 1);
                    let mut span = tracer().span("fleet.retry");
                    span.attr("backend", member.index);
                    span.attr("row", job.row);
                    span.attr("delay_us", delay.as_micros());
                    drop(span);
                    state.sleep(delay);
                }
                Attempt::Reject(err) => {
                    state.fail(FleetError::Rejected(err));
                    return Verdict::Settled;
                }
                Attempt::Fault(message) => {
                    if state.row_complete(job.row) {
                        // Our socket was shut down by the winning twin;
                        // the backend did nothing wrong, so the breaker
                        // is not fed and the row needs no failover.
                        return Verdict::Settled;
                    }
                    let newly_opened = member
                        .breaker
                        .lock()
                        .expect("breaker lock")
                        .record_failure();
                    if newly_opened {
                        self.metrics.breaker_open_total.inc();
                        self.on_breaker_opened(member, state);
                    }
                    return Verdict::Failover(message);
                }
            }
        }
    }

    /// Lands a row's answer on the board, cell by cell. A copy that won at
    /// least one cell records the row's latency for every cell it won,
    /// feeds the hedge window once, becomes the row's completer, and
    /// cancels its twin.
    fn settle_row(
        &self,
        member: &Member,
        job: &RowJob,
        results: Vec<Json>,
        latency: Duration,
        state: &SweepState<'_>,
    ) {
        let mut won = 0u64;
        for (arch_index, result) in results.into_iter().enumerate() {
            match state
                .board
                .complete(state.flat(arch_index, job.row), result)
            {
                Completion::Win => won += 1,
                Completion::Duplicate => self.metrics.hedge_duplicate_total.inc(),
            }
        }
        if won == 0 {
            return;
        }
        member.completed.fetch_add(won, Ordering::SeqCst);
        state.window.record(latency);
        for _ in 0..won {
            self.metrics.cell_us.record(latency);
        }
        state
            .latencies
            .lock()
            .expect("latency lock")
            .extend(std::iter::repeat(latency).take(won as usize));
        if job.hedge {
            state.hedge_wins.fetch_add(won, Ordering::Relaxed);
            self.metrics.hedge_win_total.add(won);
        }
        state.completers.lock().expect("completers lock")[job.row] = Some(member.index);
        let (arch, network, seed) = state.cell_coords(state.flat(state.archs.len() - 1, job.row));
        *state.last_cell.lock().expect("last cell lock") = Some(format!("{arch}/{network}/{seed}"));
        // Unblock the losing copy right now instead of letting it ride out
        // the straggler.
        state.inflight.cancel_others(job.row, member.index);
        if state.board.remaining() == 0 {
            state.wake();
        }
    }

    /// One wire round trip for one row against one member: a `sweep`
    /// request of every arch over the row's network and seed.
    fn attempt_row(
        &self,
        member: &Member,
        row: usize,
        dispatch_span: Option<u64>,
        state: &SweepState<'_>,
    ) -> Attempt {
        let mut client = match member.pool.checkout() {
            Ok(c) => c,
            Err(e) => return Attempt::Fault(format!("connect: {e}")),
        };
        // Park a cancel handle so a winning hedge twin can cut this call
        // short; detached the moment the call returns on its own.
        if let Ok(handle) = client.cancel_handle() {
            state.inflight.attach_cancel(row, member.index, handle);
        }
        let (network, seed) = state.row_coords(row);
        let mut fields = vec![
            ("kind", Json::from("sweep")),
            (
                "archs",
                Json::Array(state.archs.iter().map(|a| Json::from(a.as_str())).collect()),
            ),
            ("networks", Json::Array(vec![Json::from(network)])),
            ("seeds", Json::Array(vec![Json::from(seed)])),
            (
                "timeout_ms",
                Json::from(
                    self.config
                        .request_timeout
                        .as_millis()
                        .min(u128::from(u64::MAX)) as u64,
                ),
            ),
        ];
        if let Some(cap) = state.sample_cap {
            fields.push(("sample_cap", Json::from(cap)));
        }
        // Trace context rides the request *envelope*, never the result, so
        // the merged document stays byte-identical whether or not anyone is
        // tracing. The parent link is present only when the coordinator's
        // tracer recorded the dispatch span.
        if let Some(ctx) = TraceContext::new(state.trace_id.to_owned(), dispatch_span) {
            fields.push(("trace", ctx.to_json()));
        }
        let outcome = client.call(Json::obj(fields));
        state.inflight.detach_cancel(row, member.index);
        match outcome {
            Ok(doc) => match row_results(&doc, state.archs.len()) {
                Some(results) => {
                    member.pool.checkin(client);
                    Attempt::Done(results)
                }
                None => Attempt::Fault("protocol: malformed sweep answer".to_owned()),
            },
            Err(ClientError::Overloaded(_)) => {
                // The connection is fine — the admission queue was full.
                member.pool.checkin(client);
                Attempt::Retry(true)
            }
            Err(ClientError::Server(e)) => match e.code {
                ErrorCode::DeadlineExceeded => {
                    member.pool.checkin(client);
                    Attempt::Retry(false)
                }
                ErrorCode::BadRequest | ErrorCode::UnknownArch | ErrorCode::UnknownNetwork => {
                    member.pool.checkin(client);
                    Attempt::Reject(e)
                }
                // shutting_down, internal, and anything future-unknown:
                // the backend is in trouble; connection dropped.
                _ => Attempt::Fault(format!("server fault [{}]: {}", e.code.as_str(), e.message)),
            },
            Err(ClientError::Io(e)) => Attempt::Fault(format!("io: {e}")),
            Err(ClientError::Protocol(msg)) => Attempt::Fault(format!("protocol: {msg}")),
            // A desynced stream cannot be trusted for further calls:
            // treat it like a broken connection.
            Err(e @ ClientError::IdMismatch { .. }) => Attempt::Fault(format!("protocol: {e}")),
        }
    }

    /// Moves a row to the next dispatchable member (or the next roster
    /// slot outright when nobody qualifies — the attempt cap, not the
    /// roster state, is what finally fails a row).
    fn failover(&self, from: usize, job: RowJob, why: &str, state: &SweepState<'_>) {
        let members = self.membership.snapshot();
        let n = members.len().max(1);
        let budget = self.config.max_attempts_per_backend * n as u32;
        if job.attempts >= budget {
            // A hedge twin may still be computing this row; the sweep is
            // only lost when the row is unfinished AND nobody is on it.
            if state.row_complete(job.row) || state.inflight.live(job.row) > 0 {
                return;
            }
            let (network, seed) = state.row_coords(job.row);
            state.fail(FleetError::RowFailed {
                network: network.to_owned(),
                seed,
                attempts: job.attempts,
                last_error: why.to_owned(),
            });
            return;
        }
        let cells = state.row_cells();
        state.failovers.fetch_add(cells, Ordering::Relaxed);
        self.metrics.failover_total.add(cells);
        // Rotation from the next slot: prefer dispatchable members whose
        // breaker admits traffic, then any dispatchable member, then the
        // next slot outright (its worker will bounce the job back here,
        // burning budget toward a typed RowFailed instead of a hang).
        let mut target = None;
        for k in 1..=n {
            let candidate = &members[(from + k) % n];
            if candidate.state().is_dispatchable() && candidate.breaker_available() {
                target = Some(Arc::clone(candidate));
                break;
            }
        }
        if target.is_none() {
            for k in 1..=n {
                let candidate = &members[(from + k) % n];
                if candidate.state().is_dispatchable() {
                    target = Some(Arc::clone(candidate));
                    break;
                }
            }
        }
        let target = target.unwrap_or_else(|| Arc::clone(&members[(from + 1) % n]));
        target.queue.push_back(job);
    }
}

impl Fleet {
    /// A member's breaker just opened: take it out of rotation and move
    /// its queued work to the survivors. The prober keeps pinging it (it
    /// did not *leave*) and resurrects it on the first successful probe.
    fn on_breaker_opened(&self, member: &Member, state: &SweepState<'_>) {
        if member.state() == MemberState::Dead {
            return;
        }
        member.set_state(MemberState::Dead);
        let mut span = tracer().span("fleet.membership");
        span.attr("trace_id", state.trace_id);
        span.attr("action", "dead");
        span.attr("endpoint", member.endpoint.as_str());
        drop(span);
        self.reshard(member, state);
        registry()
            .gauge("fleet.backends")
            .set(self.membership.dispatchable().len() as i64);
    }

    /// Drains `member`'s home queue and re-homes the rows across the
    /// dispatchable survivors with the same shard (over the survivor
    /// list), so the redistribution is itself deterministic. A moved row
    /// is no longer pinned: its new home does not hold it.
    fn reshard(&self, member: &Member, state: &SweepState<'_>) {
        let jobs = member.queue.drain();
        if jobs.is_empty() {
            return;
        }
        let survivors: Vec<Arc<Member>> = self
            .membership
            .snapshot()
            .into_iter()
            .filter(|m| m.index != member.index && m.state().is_dispatchable())
            .collect();
        if survivors.is_empty() {
            // Nobody to take the work: put it back. The member's own
            // workers will bounce each job through `failover`, burning
            // budget toward a typed RowFailed instead of hanging.
            for job in jobs {
                member.queue.push_back(job);
            }
            return;
        }
        let cells = jobs.len() as u64 * state.row_cells();
        state.resharded.fetch_add(cells, Ordering::Relaxed);
        self.metrics.reshard_cells_total.add(cells);
        for job in jobs {
            let (network, seed) = state.row_coords(job.row);
            let target = &survivors[backend_for_row(network, seed, survivors.len())];
            target.queue.push_back(RowJob {
                pinned: false,
                ..job
            });
        }
    }

    /// Duplicates a row overdue past `deadline` onto the least-loaded
    /// dispatchable member not already working on it. The duplicate jumps
    /// its target's queue (the row is past the deadline by definition).
    fn hedge_row(&self, row: usize, busy: &[usize], deadline: Duration, state: &SweepState<'_>) {
        let members = self.membership.snapshot();
        let target = members
            .iter()
            .filter(|m| !busy.contains(&m.index))
            .filter(|m| m.state().is_dispatchable() && m.breaker_available())
            .min_by_key(|m| m.queue.len())
            .map(Arc::clone);
        let Some(target) = target else {
            // Nowhere to hedge right now; the next monitor tick retries.
            return;
        };
        // Mark before pushing: the monitor must never double-hedge a row
        // it sees overdue on two consecutive ticks.
        state.inflight.mark_hedged(row);
        let cells = state.row_cells();
        target.hedged.fetch_add(cells, Ordering::SeqCst);
        state.hedges.fetch_add(cells, Ordering::Relaxed);
        self.metrics.hedge_total.add(cells);
        let mut span = tracer().span("fleet.hedge");
        span.attr("trace_id", state.trace_id);
        span.attr("row", row);
        span.attr("target", target.index);
        span.attr("deadline_ms", deadline.as_millis());
        drop(span);
        target.queue.push_front(RowJob {
            hedge: true,
            ..RowJob::new(row)
        });
    }

    /// Applies one join/leave to the roster.
    fn apply_membership(&self, action: MembershipAction, state: &SweepState<'_>) {
        match action {
            MembershipAction::Join(endpoint) => {
                if let Some(existing) = self.membership.find(&endpoint) {
                    if existing.state() != MemberState::Dead {
                        return; // already in rotation
                    }
                    existing.set_state(MemberState::Joining);
                } else {
                    self.membership
                        .join(endpoint.clone(), &member_config(&self.config));
                }
                state.joins.fetch_add(1, Ordering::Relaxed);
                self.metrics.join_total.inc();
                let mut span = tracer().span("fleet.membership");
                span.attr("trace_id", state.trace_id);
                span.attr("action", "join");
                span.attr("endpoint", endpoint.as_str());
            }
            MembershipAction::Leave(endpoint) => {
                let Some(member) = self.membership.find(&endpoint) else {
                    return; // unknown or already departed
                };
                member.mark_left();
                member.set_state(MemberState::Draining);
                self.reshard(&member, state);
                state.leaves.fetch_add(1, Ordering::Relaxed);
                self.metrics.leave_total.inc();
                let mut span = tracer().span("fleet.membership");
                span.attr("trace_id", state.trace_id);
                span.attr("action", "leave");
                span.attr("endpoint", endpoint.as_str());
            }
        }
        registry()
            .gauge("fleet.backends")
            .set(self.membership.dispatchable().len() as i64);
    }

    /// Atomically rewrites the status file (tmp + rename) with a roster
    /// snapshot, when [`FleetConfig::status_path`] is set. A member's
    /// `queued` and `inflight` count rows; `completed`, `stolen` and
    /// `hedged` count cells, like the progress object.
    fn write_status(&self, state: &SweepState<'_>) {
        let Some(path) = &self.config.status_path else {
            return;
        };
        let members: Vec<Json> = self
            .membership
            .snapshot()
            .iter()
            .map(|m| {
                Json::obj(vec![
                    ("endpoint", Json::from(m.endpoint.as_str())),
                    ("state", Json::from(m.state().as_str())),
                    ("queued", Json::from(m.queue.len())),
                    ("inflight", Json::from(m.inflight.load(Ordering::SeqCst))),
                    ("completed", Json::from(m.completed.load(Ordering::SeqCst))),
                    ("stolen", Json::from(m.stolen.load(Ordering::SeqCst))),
                    ("hedged", Json::from(m.hedged.load(Ordering::SeqCst))),
                ])
            })
            .collect();
        let total = state.archs.len() * state.networks.len() * state.seeds.len();
        let remaining = state.board.remaining();
        let last_cell = state
            .last_cell
            .lock()
            .expect("last cell lock")
            .clone()
            .unwrap_or_default();
        let doc = Json::obj(vec![
            ("trace_id", Json::from(state.trace_id)),
            ("remaining", Json::from(remaining)),
            (
                "progress",
                Json::obj(vec![
                    ("done", Json::from(total.saturating_sub(remaining))),
                    ("total", Json::from(total)),
                    ("cell", Json::from(last_cell.as_str())),
                ]),
            ),
            ("members", Json::Array(members)),
        ]);
        let tmp = path.with_extension("status.tmp");
        if std::fs::write(&tmp, doc.to_string()).is_ok() {
            let _ = std::fs::rename(&tmp, path);
        }
    }

    /// Background `ping` prober: keeps breaker and membership state honest
    /// even while no requests are flowing to a member (e.g. everything
    /// failed over away from it), and resurrects Dead members that did not
    /// explicitly leave.
    fn prober_loop(&self, state: &SweepState<'_>) {
        loop {
            state.sleep(self.config.probe_interval);
            if state.done() {
                return;
            }
            for member in self.membership.snapshot() {
                if state.done() {
                    return;
                }
                if member.has_left() {
                    continue;
                }
                self.metrics.probe_total.inc();
                let alive = Client::with_timeouts(
                    member.endpoint.as_str(),
                    Some(self.config.connect_timeout.min(Duration::from_millis(500))),
                    Some(Duration::from_secs(1)),
                    Some(Duration::from_secs(1)),
                )
                .and_then(|mut c| {
                    // Publish the in-flight probe's cancel handle: when the
                    // sweep completes while this ping is riding a stalled
                    // backend, the control loop shuts the socket instead of
                    // letting scope-join wait out the stall.
                    if let Ok(handle) = c.cancel_handle() {
                        *state.probe_cancel.lock().expect("probe cancel lock") = Some(handle);
                    }
                    let outcome = c.ping();
                    state.probe_cancel.lock().expect("probe cancel lock").take();
                    outcome
                })
                .is_ok();
                if state.done() {
                    // A cancelled probe's failure is an artifact of sweep
                    // shutdown, not a backend signal: never feed the breaker.
                    return;
                }
                if alive {
                    member
                        .breaker
                        .lock()
                        .expect("breaker lock")
                        .record_success();
                    match member.state() {
                        MemberState::Dead => {
                            member.set_state(MemberState::Active);
                            let mut span = tracer().span("fleet.membership");
                            span.attr("trace_id", state.trace_id);
                            span.attr("action", "resurrect");
                            span.attr("endpoint", member.endpoint.as_str());
                        }
                        MemberState::Joining => member.set_state(MemberState::Active),
                        _ => {}
                    }
                } else {
                    self.metrics.probe_failures.inc();
                    let newly_opened = member
                        .breaker
                        .lock()
                        .expect("breaker lock")
                        .record_failure();
                    if newly_opened {
                        self.metrics.breaker_open_total.inc();
                        self.on_breaker_opened(&member, state);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_endpoint_list_is_rejected() {
        assert!(matches!(
            Fleet::new(FleetConfig::new(vec![])),
            Err(FleetError::NoEndpoints)
        ));
    }

    #[test]
    fn empty_grid_is_rejected_without_dialing() {
        // The endpoint is a black hole; an empty grid must error before
        // any connection attempt.
        let fleet = Fleet::new(FleetConfig::new(vec!["127.0.0.1:1".into()])).unwrap();
        assert!(matches!(
            fleet.sweep(&[], &["dgcnn".into()], &[1], None),
            Err(FleetError::EmptyGrid)
        ));
        assert!(matches!(
            fleet.sweep(&["sibia".into()], &[], &[1], None),
            Err(FleetError::EmptyGrid)
        ));
        assert!(matches!(
            fleet.sweep(&["sibia".into()], &["dgcnn".into()], &[], None),
            Err(FleetError::EmptyGrid)
        ));
    }

    #[test]
    fn cell_coords_walk_the_grid_row_major() {
        let archs = vec!["a".to_string(), "b".to_string()];
        let networks = vec!["x".to_string(), "y".to_string()];
        let seeds = vec![1u64, 2];
        let state = SweepState::new(&archs, &networks, &seeds, None, "fs-test");
        let mut flat = 0;
        for a in ["a", "b"] {
            for n in ["x", "y"] {
                for s in [1u64, 2] {
                    assert_eq!(state.cell_coords(flat), (a, n, s));
                    flat += 1;
                }
            }
        }
        // A row's cells sit one row count apart, at its (network, seed).
        for row in 0..state.rows() {
            let (network, seed) = state.row_coords(row);
            for (arch_index, arch) in archs.iter().enumerate() {
                let cell = state.cell_coords(state.flat(arch_index, row));
                assert_eq!(cell, (arch.as_str(), network, seed));
            }
        }
    }

    #[test]
    fn all_endpoints_dead_fails_with_row_failed_not_a_hang() {
        // Two unreachable backends: the row must burn its budget and the
        // sweep must return RowFailed (never deadlock).
        let l1 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let l2 = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let (a1, a2) = (l1.local_addr().unwrap(), l2.local_addr().unwrap());
        drop((l1, l2));
        let mut config = FleetConfig::new(vec![a1.to_string(), a2.to_string()]);
        config.max_attempts_per_backend = 1;
        config.connect_timeout = Duration::from_millis(200);
        config.probe_interval = Duration::from_secs(30); // stay out of the way
        let fleet = Fleet::new(config).unwrap();
        match fleet.sweep(&["sibia".into()], &["dgcnn".into()], &[1], Some(64)) {
            Err(FleetError::RowFailed { attempts, .. }) => assert!(attempts >= 2),
            other => panic!("expected RowFailed, got {other:?}"),
        }
    }

    #[test]
    fn join_and_leave_requests_survive_until_the_next_sweep() {
        let fleet = Fleet::new(FleetConfig::new(vec!["127.0.0.1:1".into()])).unwrap();
        fleet.join("127.0.0.1:2");
        fleet.leave("127.0.0.1:1");
        // Nothing applied yet: commands wait for a control-loop tick.
        assert_eq!(fleet.members().len(), 1);
        assert_eq!(fleet.members()[0].1, MemberState::Active);
        assert_eq!(fleet.commands.lock().unwrap().len(), 2);
    }
}
