//! Hedged dispatch: duplicate the slow tail, keep the first answer.
//!
//! ## Protocol
//!
//! A row whose dispatch has been in flight longer than the sweep's
//! deadline estimate gets a **hedge duplicate** pushed to the front of
//! another backend's queue. Original and duplicate then race; whichever
//! reaches [`CompletionBoard::complete`] first **wins** each of the row's
//! cells, and the loser is cancelled twice over:
//!
//! * *before dispatch* — a worker popping a hedge job for an
//!   already-complete row drops it unrun;
//! * *in flight* — the winner's thread shuts down the loser's socket via
//!   the [`sibia_serve::CancelHandle`] registered in the
//!   [`InFlightTable`], so the losing worker unblocks immediately instead
//!   of waiting out the straggler.
//!
//! A loser that completes anyway (the race is real) is **deduped** here:
//! each cell's slot on the board is written once, by the winner, and the
//! duplicate is answered [`Completion::Duplicate`] and dropped.
//! Determinism makes this safe — both copies compute the same bytes (the
//! debug assertion in [`CompletionBoard::complete`] documents exactly that
//! claim) — and the backends' stores stay byte-identical because each
//! write-back stores the same canonical value under the same key.
//!
//! ## Deadline
//!
//! The hedge deadline is a **windowed p99** over row dispatches: the 99th
//! percentile of the last [`LATENCY_WINDOW`] completed row latencies in
//! the [`HedgeWindow`] (one sample per row, however many cells it
//! carries), scaled by [`HEDGE_MULTIPLIER`] and floored at
//! [`HedgeConfig::min_deadline`]. Until [`HedgeConfig::min_completions`]
//! rows have completed the estimate would be noise, so no hedging happens
//! at all — except that a sweep of fewer rows than twice that trusts its
//! window once half its rows are in, or it could never hedge.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sibia_obs::Json;
use sibia_serve::CancelHandle;

/// Completed row latencies feeding the deadline estimate.
const LATENCY_WINDOW: usize = 64;

/// Deadline = windowed p99 × this.
const HEDGE_MULTIPLIER: f64 = 2.0;

/// Hedging policy knobs (a projection of `FleetConfig`).
#[derive(Debug, Clone)]
pub struct HedgeConfig {
    /// Master switch; off means the monitor never hedges.
    pub enabled: bool,
    /// Deadline floor, and the whole deadline while the window is empty.
    pub min_deadline: Duration,
    /// Completed row dispatches required before the p99 estimate is
    /// trusted (a sweep of fewer than twice as many rows needs half its
    /// rows). 0 means "hedge from the first dispatch, using `min_deadline`
    /// alone" (what the CLI's `--hedge-ms` compiles to).
    pub min_completions: usize,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            min_deadline: Duration::from_millis(50),
            min_completions: 8,
        }
    }
}

/// What [`CompletionBoard::complete`] decided about one arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Completion {
    /// First arrival: the slot was written, the cell is done.
    Win,
    /// A hedge twin already won; this copy was discarded (after the
    /// byte-identity debug check).
    Duplicate,
}

/// First-writer-wins result table for one sweep, indexed by flat cell
/// position. The merge step reads the slots back in flat order, which is
/// what pins the output byte-identical regardless of which backend won
/// which race.
#[derive(Debug)]
pub struct CompletionBoard {
    slots: Vec<Mutex<Option<Json>>>,
    remaining: AtomicUsize,
}

impl CompletionBoard {
    /// A board for `cells` empty slots.
    pub fn new(cells: usize) -> Self {
        Self {
            slots: (0..cells).map(|_| Mutex::new(None)).collect(),
            remaining: AtomicUsize::new(cells),
        }
    }

    /// Records one completed cell. The first writer wins the slot and
    /// decrements the remaining count exactly once; every later arrival
    /// is a duplicate and changes nothing. Never double-writes: whoever
    /// writes back to a store downstream must gate on [`Completion::Win`].
    pub fn complete(&self, flat: usize, result: Json) -> Completion {
        let mut slot = self.slots[flat].lock().unwrap();
        match &*slot {
            Some(winner) => {
                // Both copies are the same pure function of the cell
                // coordinates; a mismatch would mean the determinism
                // contract is broken, not that hedging misfired.
                debug_assert_eq!(
                    winner.to_string(),
                    result.to_string(),
                    "hedge twins disagreed for cell {flat}"
                );
                Completion::Duplicate
            }
            None => {
                *slot = Some(result);
                self.remaining.fetch_sub(1, Ordering::SeqCst);
                Completion::Win
            }
        }
    }

    /// Is this cell's slot already won?
    pub fn is_complete(&self, flat: usize) -> bool {
        self.slots[flat].lock().unwrap().is_some()
    }

    /// Cells still without a winner.
    pub fn remaining(&self) -> usize {
        self.remaining.load(Ordering::SeqCst)
    }

    /// Consumes the board into the slot table, for the merge. Panics if a
    /// slot is empty — the coordinator only merges after `remaining() == 0`.
    pub fn into_results(self) -> Vec<Json> {
        self.slots
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap()
                    .expect("merge reached with an incomplete cell")
            })
            .collect()
    }
}

/// One sweep's hedge-deadline evidence: the latencies of its last
/// [`LATENCY_WINDOW`] winning row dispatches.
#[derive(Debug)]
pub struct HedgeWindow {
    /// Ring of the last [`LATENCY_WINDOW`] winning latencies.
    window: Mutex<Vec<Duration>>,
    completions: AtomicUsize,
    /// Rows in the sweep.
    rows: usize,
}

impl HedgeWindow {
    /// An empty window for a sweep of `rows` rows.
    pub fn new(rows: usize) -> Self {
        Self {
            window: Mutex::new(Vec::with_capacity(LATENCY_WINDOW)),
            completions: AtomicUsize::new(0),
            rows,
        }
    }

    /// Records one row dispatch that won its cells.
    pub fn record(&self, latency: Duration) {
        self.completions.fetch_add(1, Ordering::SeqCst);
        let mut window = self.window.lock().expect("hedge window lock");
        if window.len() == LATENCY_WINDOW {
            window.remove(0);
        }
        window.push(latency);
    }

    /// The current hedge deadline, or `None` while hedging is off or the
    /// window is still too small to trust.
    pub fn deadline(&self, config: &HedgeConfig) -> Option<Duration> {
        if !config.enabled {
            return None;
        }
        // A sweep that cannot reach `min_completions` with a straggler in
        // flight would never hedge: it trusts half its rows instead.
        let needed = config.min_completions.min(self.rows.div_ceil(2));
        if self.completions.load(Ordering::SeqCst) < needed {
            return None;
        }
        let window = self.window.lock().expect("hedge window lock");
        if window.is_empty() {
            return Some(config.min_deadline);
        }
        let mut sorted: Vec<Duration> = window.clone();
        drop(window);
        sorted.sort_unstable();
        // Exact rank-ceil p99, matching the bench's quantile convention.
        let rank = ((sorted.len() as f64) * 0.99).ceil() as usize;
        let p99 = sorted[rank.clamp(1, sorted.len()) - 1];
        let scaled = p99.mul_f64(HEDGE_MULTIPLIER);
        Some(scaled.max(config.min_deadline))
    }
}

/// One live row dispatch (or a racing pair of them).
#[derive(Debug, Default)]
struct InFlight {
    /// When the first copy went out.
    started: Option<Instant>,
    /// Roster indexes currently executing this row.
    backends: Vec<usize>,
    /// Cancel handles for the copies in flight, keyed by backend.
    cancels: Vec<(usize, CancelHandle)>,
    /// Has a hedge duplicate already been issued? One per row, ever.
    hedged: bool,
}

/// Registry of rows currently being executed, keyed by row index, so the
/// hedge monitor can find the overdue ones and the winner can cancel its
/// loser.
#[derive(Debug, Default)]
pub struct InFlightTable {
    entries: Mutex<HashMap<usize, InFlight>>,
}

impl InFlightTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Marks `backend` as executing `row`. The first registration stamps
    /// the row's hedge clock; a duplicate's registration does not reset
    /// it.
    pub fn register(&self, row: usize, backend: usize) {
        let mut entries = self.entries.lock().unwrap();
        let entry = entries.entry(row).or_default();
        entry.started.get_or_insert_with(Instant::now);
        entry.backends.push(backend);
    }

    /// Attaches the in-flight call's cancel handle.
    pub fn attach_cancel(&self, row: usize, backend: usize, handle: CancelHandle) {
        let mut entries = self.entries.lock().unwrap();
        if let Some(entry) = entries.get_mut(&row) {
            entry.cancels.push((backend, handle));
        }
    }

    /// Detaches `backend`'s cancel handle (its call returned on its own).
    pub fn detach_cancel(&self, row: usize, backend: usize) {
        let mut entries = self.entries.lock().unwrap();
        if let Some(entry) = entries.get_mut(&row) {
            entry.cancels.retain(|(b, _)| *b != backend);
        }
    }

    /// Removes `backend` from the row's live set; drops the entry when
    /// nothing is in flight anymore.
    pub fn deregister(&self, row: usize, backend: usize) {
        let mut entries = self.entries.lock().unwrap();
        if let Some(entry) = entries.get_mut(&row) {
            if let Some(pos) = entry.backends.iter().position(|&b| b == backend) {
                entry.backends.remove(pos);
            }
            entry.cancels.retain(|(b, _)| *b != backend);
            if entry.backends.is_empty() {
                entries.remove(&row);
            }
        }
    }

    /// Copies of `row` currently in flight.
    pub fn live(&self, row: usize) -> usize {
        self.entries
            .lock()
            .unwrap()
            .get(&row)
            .map_or(0, |e| e.backends.len())
    }

    /// Shuts down every other copy's socket after `winner` won the row:
    /// the losing workers' blocked reads fail immediately instead of
    /// riding out the straggler.
    pub fn cancel_others(&self, row: usize, winner: usize) {
        let mut entries = self.entries.lock().unwrap();
        if let Some(entry) = entries.get_mut(&row) {
            for (backend, handle) in &entry.cancels {
                if *backend != winner {
                    handle.cancel();
                }
            }
            entry.cancels.retain(|(b, _)| *b == winner);
        }
    }

    /// Rows in flight longer than `deadline` that have not been hedged
    /// yet, with the backends already working on them (so the monitor
    /// picks a different one).
    pub fn overdue(&self, deadline: Duration) -> Vec<(usize, Vec<usize>)> {
        let entries = self.entries.lock().unwrap();
        entries
            .iter()
            .filter(|(_, e)| !e.hedged)
            .filter(|(_, e)| e.started.is_some_and(|s| s.elapsed() >= deadline))
            .map(|(row, e)| (*row, e.backends.clone()))
            .collect()
    }

    /// Marks a row as hedged so it is never duplicated twice.
    pub fn mark_hedged(&self, row: usize) {
        let mut entries = self.entries.lock().unwrap();
        if let Some(entry) = entries.get_mut(&row) {
            entry.hedged = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(v: i64) -> Json {
        Json::obj(vec![("v", Json::Int(v))])
    }

    #[test]
    fn first_completion_wins_and_twin_is_deduped() {
        let board = CompletionBoard::new(2);
        assert_eq!(board.complete(0, cell(7)), Completion::Win);
        assert_eq!(board.complete(0, cell(7)), Completion::Duplicate);
        assert_eq!(board.remaining(), 1);
    }

    #[test]
    fn deadline_needs_min_completions_then_tracks_p99() {
        let window = HedgeWindow::new(16);
        let config = HedgeConfig {
            enabled: true,
            min_deadline: Duration::from_millis(1),
            min_completions: 4,
        };
        for _ in 0..3 {
            window.record(Duration::from_millis(10));
            assert_eq!(window.deadline(&config), None);
        }
        window.record(Duration::from_millis(10));
        // p99 of a flat 10 ms window is 10 ms; ×2 = 20 ms.
        assert_eq!(window.deadline(&config), Some(Duration::from_millis(20)));
    }

    #[test]
    fn a_sweep_too_small_for_min_completions_trusts_half_its_rows() {
        // Eight rows against min_completions 8: with one row straggling,
        // only seven can ever complete, so the window arms at four.
        let window = HedgeWindow::new(8);
        let config = HedgeConfig::default();
        for _ in 0..3 {
            window.record(Duration::from_millis(10));
        }
        assert_eq!(window.deadline(&config), None);
        window.record(Duration::from_millis(10));
        assert_eq!(window.deadline(&config), Some(config.min_deadline));
    }

    #[test]
    fn fixed_deadline_mode_hedges_from_the_start() {
        let window = HedgeWindow::new(1);
        let config = HedgeConfig {
            enabled: true,
            min_deadline: Duration::from_millis(123),
            min_completions: 0,
        };
        assert_eq!(window.deadline(&config), Some(Duration::from_millis(123)));
    }

    #[test]
    fn inflight_tracks_live_copies_and_hedge_flag() {
        let table = InFlightTable::new();
        table.register(3, 0);
        table.register(3, 1);
        assert_eq!(table.live(3), 2);
        assert!(table.overdue(Duration::ZERO).len() == 1);
        table.mark_hedged(3);
        assert!(table.overdue(Duration::ZERO).is_empty());
        table.deregister(3, 0);
        assert_eq!(table.live(3), 1);
        table.deregister(3, 1);
        assert_eq!(table.live(3), 0);
    }
}
