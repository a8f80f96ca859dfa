//! Per-backend circuit breaker.
//!
//! Classic three-state machine:
//!
//! ```text
//!            threshold consecutive failures
//!   Closed ─────────────────────────────────▶ Open
//!     ▲                                        │ cooldown elapsed
//!     │ success                                ▼
//!     └─────────────────────────────────── HalfOpen
//!                (failure in HalfOpen re-opens, cooldown restarts)
//! ```
//!
//! The breaker is fed from two directions: request outcomes observed by the
//! dispatch workers, and background `ping` probes. Overload rejections do
//! *not* trip it — an overloaded backend is healthy-but-busy and the right
//! response is backoff, not failover; only transport errors and server-side
//! faults count. Shard targeting consults [`CircuitBreaker::is_available`]
//! so cells skip backends that are known-dead instead of burning a
//! connect timeout each.

use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    Closed { consecutive_failures: u32 },
    Open { opened_at: Instant },
    HalfOpen,
}

/// Health state for one backend.
#[derive(Debug)]
pub struct CircuitBreaker {
    state: State,
    threshold: u32,
    cooldown: Duration,
}

impl CircuitBreaker {
    /// A closed breaker that opens after `threshold` consecutive failures
    /// and allows a half-open trial after `cooldown`.
    pub fn new(threshold: u32, cooldown: Duration) -> Self {
        Self {
            state: State::Closed {
                consecutive_failures: 0,
            },
            threshold: threshold.max(1),
            cooldown,
        }
    }

    /// Whether a request may be sent to this backend right now.
    ///
    /// An `Open` breaker whose cooldown has elapsed transitions to
    /// `HalfOpen` and admits exactly this caller as the trial request.
    pub fn is_available(&mut self) -> bool {
        match self.state {
            State::Closed { .. } | State::HalfOpen => true,
            State::Open { opened_at } => {
                if opened_at.elapsed() >= self.cooldown {
                    self.state = State::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Record a successful request or probe; fully closes the breaker.
    pub fn record_success(&mut self) {
        self.state = State::Closed {
            consecutive_failures: 0,
        };
    }

    /// Record a failed request or probe. Returns `true` when this failure
    /// is the one that opened the breaker (the coordinator then takes the
    /// member out of rotation — re-opening from `HalfOpen` counts too).
    pub fn record_failure(&mut self) -> bool {
        match self.state {
            State::Closed {
                consecutive_failures,
            } => {
                let n = consecutive_failures + 1;
                if n >= self.threshold {
                    self.state = State::Open {
                        opened_at: Instant::now(),
                    };
                    true
                } else {
                    self.state = State::Closed {
                        consecutive_failures: n,
                    };
                    false
                }
            }
            State::HalfOpen => {
                self.state = State::Open {
                    opened_at: Instant::now(),
                };
                true
            }
            State::Open { .. } => false,
        }
    }

    /// Whether the breaker is currently open (no trial admitted yet). The
    /// unit tests' window onto the state machine; dispatch asks
    /// [`Self::is_available`].
    #[cfg(test)]
    fn is_open(&self) -> bool {
        matches!(self.state, State::Open { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opens_after_threshold_consecutive_failures() {
        let mut b = CircuitBreaker::new(3, Duration::from_secs(60));
        assert!(!b.record_failure());
        assert!(!b.record_failure());
        assert!(b.is_available());
        assert!(b.record_failure());
        assert!(b.is_open());
        assert!(!b.is_available());
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let mut b = CircuitBreaker::new(2, Duration::from_secs(60));
        assert!(!b.record_failure());
        b.record_success();
        assert!(!b.record_failure());
        assert!(b.record_failure());
    }

    #[test]
    fn cooldown_admits_a_half_open_trial() {
        let mut b = CircuitBreaker::new(1, Duration::from_millis(20));
        assert!(b.record_failure());
        assert!(!b.is_available());
        std::thread::sleep(Duration::from_millis(30));
        assert!(b.is_available());
        // Trial succeeds: fully closed again.
        b.record_success();
        assert!(b.is_available());
        assert!(!b.is_open());
    }

    #[test]
    fn half_open_failure_reopens_and_restarts_the_cooldown() {
        let mut b = CircuitBreaker::new(1, Duration::from_millis(30));
        assert!(b.record_failure());
        std::thread::sleep(Duration::from_millis(40));
        assert!(b.is_available()); // now HalfOpen
        assert!(b.record_failure()); // trial failed -> reopened, counts as open
        assert!(!b.is_available());
        std::thread::sleep(Duration::from_millis(40));
        assert!(b.is_available());
    }

    #[test]
    fn threshold_zero_is_clamped_to_one() {
        let mut b = CircuitBreaker::new(0, Duration::from_secs(60));
        assert!(b.record_failure());
        assert!(b.is_open());
    }
}
