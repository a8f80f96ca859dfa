//! Dynamic fleet membership: who is in the fleet, and in what state.
//!
//! ## The member state machine
//!
//! ```text
//!             first success / probe ok
//!   Joining ────────────────────────────► Active
//!                                          │  │
//!                 planned leave            │  │  breaker newly opened
//!                 ┌────────────────────────┘  │  (fault or probe)
//!                 ▼                           ▼
//!             Draining ──────────────────► Dead ──► Active
//!              in-flight done               ▲        (probe ok again,
//!              + queue resharded            │         unless it *left*)
//!                                           └─ queue resharded
//! ```
//!
//! * **Joining** — added mid-sweep by a planned join (the CLI's `--join`);
//!   dispatchable immediately (stealing pulls work to it), promoted to
//!   Active by its first completed row or successful probe.
//! * **Active** — the steady state.
//! * **Draining** — asked to leave: takes no new work, its home queue is
//!   drained and resharded across survivors, in-flight dispatches finish.
//! * **Dead** — drained out, or its circuit breaker opened. A Dead member
//!   that did **not** explicitly leave is still probed and resurrects to
//!   Active when the probe succeeds; a member that left stays gone.
//!
//! Members are never removed from the roster vector: indexes are handed
//! out once and stay stable, so per-backend counts, failover rotation,
//! and the status file all keep meaning across joins and leaves.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Duration;

use crate::breaker::CircuitBreaker;
use crate::pool::ClientPool;

use super::stealing::StealQueue;

/// Consecutive faults that open a member's circuit breaker.
const BREAKER_THRESHOLD: u32 = 3;
/// How long an open breaker rejects before admitting a half-open trial.
const BREAKER_COOLDOWN: Duration = Duration::from_millis(500);

/// Where a member is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberState {
    /// Added mid-sweep; not yet confirmed healthy.
    Joining,
    /// Healthy steady state.
    Active,
    /// Leaving: no new work, finishing what is in flight.
    Draining,
    /// Out of rotation (drained out, or breaker open).
    Dead,
}

impl MemberState {
    /// The status-file / `top` spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            MemberState::Joining => "joining",
            MemberState::Active => "active",
            MemberState::Draining => "draining",
            MemberState::Dead => "dead",
        }
    }

    /// May this member be given new work (home dispatch, steals, hedges,
    /// failover targets)?
    pub fn is_dispatchable(self) -> bool {
        matches!(self, MemberState::Joining | MemberState::Active)
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => MemberState::Joining,
            1 => MemberState::Active,
            2 => MemberState::Draining,
            _ => MemberState::Dead,
        }
    }

    fn as_u8(self) -> u8 {
        match self {
            MemberState::Joining => 0,
            MemberState::Active => 1,
            MemberState::Draining => 2,
            MemberState::Dead => 3,
        }
    }
}

/// One backend in the fleet: its connections, health, home queue, and
/// this sweep's accounting. The coordinator zeroes the counts at the start
/// of each sweep; they are the one count of what a member completed, stole
/// and was hedged, and the status file and the sweep's stats read them.
#[derive(Debug)]
pub struct Member {
    /// Stable roster index (never reused).
    pub index: usize,
    /// The backend's `host:port`.
    pub endpoint: String,
    /// Pooled connections to this backend.
    pub pool: ClientPool,
    /// This backend's circuit breaker.
    pub breaker: Mutex<CircuitBreaker>,
    /// Rows currently homed here (front = owner, back = thieves).
    pub queue: StealQueue,
    state: AtomicU8,
    /// Set once by an explicit leave: a left member is never resurrected
    /// by the prober, however healthy it looks.
    left: AtomicBool,
    /// Cells this member completed (won the board race).
    pub completed: AtomicU64,
    /// Cells of the rows this member executed after stealing them from
    /// another queue.
    pub stolen: AtomicU64,
    /// Cells of the hedge duplicates placed on this member.
    pub hedged: AtomicU64,
    /// Row dispatches currently executing against this backend.
    pub inflight: AtomicU64,
}

impl Member {
    fn new(index: usize, endpoint: String, state: MemberState, config: &MemberConfig) -> Self {
        Self {
            index,
            endpoint: endpoint.clone(),
            pool: ClientPool::new(endpoint, config.io_timeout, config.max_idle),
            breaker: Mutex::new(CircuitBreaker::new(BREAKER_THRESHOLD, BREAKER_COOLDOWN)),
            queue: StealQueue::new(),
            state: AtomicU8::new(state.as_u8()),
            left: AtomicBool::new(false),
            completed: AtomicU64::new(0),
            stolen: AtomicU64::new(0),
            hedged: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
        }
    }

    /// The current lifecycle state.
    pub fn state(&self) -> MemberState {
        MemberState::from_u8(self.state.load(Ordering::SeqCst))
    }

    /// Moves to `state` unconditionally.
    pub fn set_state(&self, state: MemberState) {
        self.state.store(state.as_u8(), Ordering::SeqCst);
    }

    /// Did this member explicitly leave (as opposed to failing)?
    pub fn has_left(&self) -> bool {
        self.left.load(Ordering::SeqCst)
    }

    /// Marks the member as explicitly departed; it will never resurrect.
    pub fn mark_left(&self) {
        self.left.store(true, Ordering::SeqCst);
    }

    /// Zeroes this member's per-sweep counts.
    pub fn reset_counts(&self) {
        for count in [&self.completed, &self.stolen, &self.hedged] {
            count.store(0, Ordering::SeqCst);
        }
    }

    /// Breaker check without holding the lock across IO.
    pub fn breaker_available(&self) -> bool {
        self.breaker.lock().unwrap().is_available()
    }
}

/// The pool parameters every member is built with (a projection of
/// `FleetConfig`, so this module does not depend on the coordinator).
#[derive(Debug, Clone)]
pub struct MemberConfig {
    /// Read/write timeout per request.
    pub io_timeout: Duration,
    /// Idle connections kept per backend.
    pub max_idle: usize,
}

/// A planned membership change, relative to sweep start — the CLI's
/// `--join MS:ENDPOINT` / `--leave MS:ENDPOINT` compile to these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlannedEvent {
    /// When, measured from the sweep's first dispatch.
    pub at: Duration,
    /// What happens.
    pub action: MembershipAction,
}

/// What a membership event does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MembershipAction {
    /// Add a backend (new roster entry, state Joining).
    Join(String),
    /// Drain a backend out (state Draining, queue resharded).
    Leave(String),
}

/// The fleet roster: an append-only vector of members behind a lock.
#[derive(Debug, Default)]
pub struct Membership {
    members: RwLock<Vec<Arc<Member>>>,
}

impl Membership {
    /// A roster of `endpoints`, all Active (the static starting set).
    pub fn new(endpoints: &[String], config: &MemberConfig) -> Self {
        let members = endpoints
            .iter()
            .enumerate()
            .map(|(i, ep)| Arc::new(Member::new(i, ep.clone(), MemberState::Active, config)))
            .collect();
        Self {
            members: RwLock::new(members),
        }
    }

    /// A point-in-time copy of the roster (cheap: `Arc` clones).
    pub fn snapshot(&self) -> Vec<Arc<Member>> {
        self.members.read().unwrap().clone()
    }

    /// Roster size, including Draining/Dead members.
    pub fn len(&self) -> usize {
        self.members.read().unwrap().len()
    }

    /// The not-yet-departed member serving `endpoint`, if any.
    pub fn find(&self, endpoint: &str) -> Option<Arc<Member>> {
        self.members
            .read()
            .unwrap()
            .iter()
            .find(|m| m.endpoint == endpoint && !m.has_left())
            .cloned()
    }

    /// Appends a fresh member in state Joining and returns it. The caller
    /// (the coordinator's control loop) spawns its dispatch workers.
    pub fn join(&self, endpoint: String, config: &MemberConfig) -> Arc<Member> {
        let mut members = self.members.write().unwrap();
        let member = Arc::new(Member::new(
            members.len(),
            endpoint,
            MemberState::Joining,
            config,
        ));
        members.push(Arc::clone(&member));
        member
    }

    /// Members that may take new work right now.
    pub fn dispatchable(&self) -> Vec<Arc<Member>> {
        self.members
            .read()
            .unwrap()
            .iter()
            .filter(|m| m.state().is_dispatchable())
            .cloned()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> MemberConfig {
        MemberConfig {
            io_timeout: Duration::from_millis(100),
            max_idle: 1,
        }
    }

    #[test]
    fn join_appends_with_stable_indexes() {
        let roster = Membership::new(&["a:1".into(), "b:2".into()], &config());
        let joined = roster.join("c:3".into(), &config());
        assert_eq!(joined.index, 2);
        assert_eq!(joined.state(), MemberState::Joining);
        assert_eq!(roster.len(), 3);
        assert_eq!(roster.snapshot()[0].endpoint, "a:1");
    }

    #[test]
    fn left_members_stay_dead_and_unfindable() {
        let roster = Membership::new(&["a:1".into()], &config());
        let m = roster.find("a:1").unwrap();
        m.mark_left();
        m.set_state(MemberState::Dead);
        assert!(roster.find("a:1").is_none());
        assert_eq!(roster.len(), 1, "roster entries are never removed");
        assert!(!m.state().is_dispatchable());
    }

    #[test]
    fn dispatchable_filters_by_state() {
        let roster = Membership::new(&["a:1".into(), "b:2".into()], &config());
        roster.snapshot()[1].set_state(MemberState::Draining);
        let dispatchable = roster.dispatchable();
        assert_eq!(dispatchable.len(), 1);
        assert_eq!(dispatchable[0].endpoint, "a:1");
    }
}
