//! Per-backend home queues with two-ended access for work stealing.
//!
//! Each member owns a [`StealQueue`] of the `(network, seed)` rows
//! currently homed on it. The owner drains from the **front** (preserving
//! the dispatch order the shard assigned); an idle worker on another
//! backend steals from the **back**, so the two ends contend on different
//! rows and the victim keeps the work it is about to start. The steal
//! policy itself lives in [`pick_victim`]: steal from the *deepest* queue,
//! so the backend most behind sheds load first and a straggler can never
//! serialize the tail of a sweep on its own.
//!
//! Hedge duplicates jump the line: [`StealQueue::push_front`] puts them
//! ahead of un-started home work, because a hedged row is by definition
//! already past the sweep's deadline estimate.

use std::collections::VecDeque;
use std::sync::Mutex;

use super::membership::Member;
use std::sync::Arc;

/// One unit of dispatch work: a grid row index plus its retry history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowJob {
    /// Row-major `(network, seed)` index into the sweep grid.
    pub row: usize,
    /// Attempts consumed so far, across every backend this row visited.
    pub attempts: u32,
    /// True for the duplicate copy created by hedged dispatch: it races
    /// the original, the completion board dedups whichever loses, and a
    /// worker drops it unrun if the original already won.
    pub hedge: bool,
    /// True when the row is homed on the member that completed it in the
    /// fleet's previous sweep: that member's store answers it, while a
    /// thief would recompute the whole row, so it is never stolen.
    pub pinned: bool,
}

impl RowJob {
    /// A fresh, never-attempted home assignment for `row`.
    pub fn new(row: usize) -> Self {
        Self {
            row,
            attempts: 0,
            hedge: false,
            pinned: false,
        }
    }
}

/// A member's home queue: front for the owner, back for thieves.
#[derive(Debug, Default)]
pub struct StealQueue {
    jobs: Mutex<VecDeque<RowJob>>,
}

impl StealQueue {
    /// An empty queue.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a job in home-dispatch order.
    pub fn push_back(&self, job: RowJob) {
        self.jobs.lock().unwrap().push_back(job);
    }

    /// Front-inserts a job ahead of un-started work (hedge duplicates).
    pub fn push_front(&self, job: RowJob) {
        self.jobs.lock().unwrap().push_front(job);
    }

    /// The owner's end.
    pub fn pop_front(&self) -> Option<RowJob> {
        self.jobs.lock().unwrap().pop_front()
    }

    /// The thief's end — but only never-attempted, unpinned jobs are
    /// stealable. A job that already bounced between members (retry
    /// exhaustion, failover) stays with its current owner: otherwise an
    /// always-overloaded member's idle workers would keep pulling back
    /// the very rows they just failed to run, burning each row's attempt
    /// budget on steal ping-pong instead of letting a healthy owner finish
    /// it. A pinned job stays with the member whose store holds it; the
    /// coordinator queues pinned rows ahead of fresh ones, so the back is
    /// fresh while any fresh row is left.
    pub fn steal_back(&self) -> Option<RowJob> {
        let mut jobs = self.jobs.lock().unwrap();
        match jobs.back() {
            Some(job) if job.attempts == 0 && !job.pinned => jobs.pop_back(),
            _ => None,
        }
    }

    /// Queued (not yet dispatched) rows.
    pub fn len(&self) -> usize {
        self.jobs.lock().unwrap().len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Empties the queue, returning every job — the drain half of a
    /// leave/reshard.
    pub fn drain(&self) -> Vec<RowJob> {
        self.jobs.lock().unwrap().drain(..).collect()
    }
}

/// The steal policy: among `members`, the dispatchable member (Active or
/// Joining, see [`super::membership::MemberState::is_dispatchable`]) with the **deepest**
/// non-empty queue that is not the thief itself. `None` means there is
/// nothing worth stealing anywhere.
pub fn pick_victim(members: &[Arc<Member>], thief: usize) -> Option<Arc<Member>> {
    members
        .iter()
        .filter(|m| m.index != thief && m.state().is_dispatchable())
        .map(|m| (m.queue.len(), m))
        .filter(|(depth, _)| *depth > 0)
        .max_by_key(|(depth, _)| *depth)
        .map(|(_, m)| Arc::clone(m))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_is_fifo_for_owner_and_lifo_for_thief() {
        let q = StealQueue::new();
        for row in 0..4 {
            q.push_back(RowJob::new(row));
        }
        assert_eq!(q.pop_front().unwrap().row, 0);
        assert_eq!(q.steal_back().unwrap().row, 3);
        assert_eq!(q.pop_front().unwrap().row, 1);
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn pinned_and_retried_jobs_are_not_stolen() {
        let q = StealQueue::new();
        q.push_back(RowJob {
            pinned: true,
            ..RowJob::new(0)
        });
        assert_eq!(q.steal_back(), None);
        q.push_back(RowJob {
            attempts: 1,
            ..RowJob::new(1)
        });
        assert_eq!(q.steal_back(), None);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn hedge_jobs_jump_the_line() {
        let q = StealQueue::new();
        q.push_back(RowJob::new(0));
        let hedge = RowJob {
            hedge: true,
            ..RowJob::new(9)
        };
        q.push_front(hedge);
        assert_eq!(q.pop_front().unwrap().row, 9);
    }

    #[test]
    fn drain_empties_in_order() {
        let q = StealQueue::new();
        for row in 0..3 {
            q.push_back(RowJob::new(row));
        }
        let drained: Vec<usize> = q.drain().iter().map(|j| j.row).collect();
        assert_eq!(drained, vec![0, 1, 2]);
        assert!(q.is_empty());
    }
}
