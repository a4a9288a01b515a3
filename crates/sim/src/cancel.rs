//! Cooperative cancellation and per-cell wall-clock deadlines.
//!
//! Durable sweeps (DESIGN.md §5f) need two interruption sources that share
//! one mechanism:
//!
//! * **global cancellation** — Ctrl-C / SIGTERM (counted by
//!   [`save_signal`]) or an embedder's [`CancelToken::cancel`] stops
//!   *every* in-flight cell so the journal can be flushed and the process
//!   can exit with the "cancelled, resumable" code;
//! * **per-cell deadlines** — a cell that exceeds its wall-clock budget is
//!   stopped *alone*; the sweep records a structured
//!   [`crate::SimError::DeadlineExceeded`] (after retries) and keeps going.
//!
//! Both are answered by one value, a [`CancelToken`]: a shared flag, a
//! signal-count threshold and an optional absolute deadline. Nothing runs
//! in the background; whoever holds the token asks it. The core asks every
//! [`save_core::CANCEL_QUANTUM`] cycles (and once per fast-forward jump),
//! so a deadline or a signal reaches a running cell within one quantum.
//! Nothing is ever killed; interrupted runs return through the normal
//! [`save_core::RunOutcome`] path with `cancelled = true`, so no state is
//! torn mid-cycle.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// How finely [`CancelToken::sleep`] slices a sleep to notice a cancel.
const SLEEP_SLICE: Duration = Duration::from_millis(2);

/// A cancellation source. Clones and [`CancelToken::with_deadline`]
/// children share the flag, so a [`CancelToken::cancel`] reaches every
/// one of them, including children derived later; a token never
/// un-cancels.
#[derive(Clone, Debug, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    /// Process signals ([`save_signal::signal_count`]) that cancel the
    /// token; 0 ignores signals.
    signals: u32,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A fresh token that only [`CancelToken::cancel`] latches; process
    /// signals are ignored.
    pub fn new() -> Self {
        Self::default()
    }

    /// A token that is also cancelled once `n` process signals have been
    /// counted. Sweep binaries use 1 (the first Ctrl-C cancels); the
    /// `save-serve` daemon uses 2, so the first signal only stops admission
    /// (graceful drain) and the second cancels in-flight cells.
    pub fn on_signals(n: u32) -> Self {
        CancelToken { signals: n.max(1), ..Self::default() }
    }

    /// A child sharing this token's flag and signal threshold that is also
    /// cancelled `deadline` from now (`None`: no deadline of its own).
    pub fn with_deadline(&self, deadline: Option<Duration>) -> Self {
        CancelToken { deadline: deadline.map(|d| Instant::now() + d), ..self.clone() }
    }

    /// Latches the shared flag. Idempotent; never cleared.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether the flag is latched, the signal threshold is reached, or
    /// the deadline has passed.
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::SeqCst)
            || (self.signals > 0 && save_signal::signal_count() >= self.signals)
            || self.deadline_expired()
    }

    /// Whether this token's own deadline has passed. This is how the
    /// runner tells a deadline overrun from a global cancel.
    pub fn deadline_expired(&self) -> bool {
        self.deadline.is_some_and(|dl| Instant::now() >= dl)
    }

    /// Sleeps for `dur` in short slices, returning early (with `false`)
    /// once the token is cancelled — used for retry backoff so Ctrl-C is
    /// not delayed by a backoff sleep.
    pub fn sleep(&self, dur: Duration) -> bool {
        let end = Instant::now() + dur;
        loop {
            if self.is_cancelled() {
                return false;
            }
            let now = Instant::now();
            if now >= end {
                return true;
            }
            thread::sleep(SLEEP_SLICE.min(end - now));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_latches_and_shares() {
        let t = CancelToken::new();
        assert!(!t.is_cancelled());
        let clone = t.clone();
        t.cancel();
        assert!(clone.is_cancelled(), "clones share the flag");
    }

    #[test]
    fn deadline_cancels_only_its_child() {
        let parent = CancelToken::new();
        let fast = parent.with_deadline(Some(Duration::from_millis(5)));
        let slow = parent.with_deadline(Some(Duration::from_secs(3600)));
        let start = Instant::now();
        while !fast.is_cancelled() {
            assert!(start.elapsed() < Duration::from_secs(5), "deadline never fired");
            thread::sleep(Duration::from_millis(1));
        }
        assert!(fast.deadline_expired());
        assert!(!slow.is_cancelled(), "other children are untouched");
        assert!(!slow.deadline_expired());
        assert!(!parent.is_cancelled(), "a deadline is not a global cancel");
    }

    #[test]
    fn parent_cancel_reaches_every_child() {
        let parent = CancelToken::new();
        let a = parent.with_deadline(None);
        let b = parent.with_deadline(Some(Duration::from_secs(3600)));
        parent.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
        assert!(!a.deadline_expired(), "global cancel is not a deadline expiry");
        assert!(!b.deadline_expired());
        // A child derived after the cancel is cancelled from the start.
        let late = parent.with_deadline(Some(Duration::from_secs(3600)));
        assert!(late.is_cancelled());
    }

    #[test]
    fn backoff_sleep_interrupts_on_cancel() {
        let t = CancelToken::new();
        t.cancel();
        let start = Instant::now();
        assert!(!t.sleep(Duration::from_secs(3600)));
        assert!(start.elapsed() < Duration::from_secs(5));
        assert!(CancelToken::new().sleep(Duration::from_millis(1)), "uncancelled sleep completes");
    }

    #[test]
    fn signal_threshold_is_per_token() {
        save_signal::reset_for_test();
        let two = CancelToken::on_signals(2);
        let deaf = CancelToken::new();
        save_signal::request_cancel();
        assert!(!two.is_cancelled(), "one signal is below the threshold");
        save_signal::request_cancel();
        assert!(two.is_cancelled(), "the second signal reaches it");
        assert!(two.with_deadline(None).is_cancelled(), "children inherit the threshold");
        assert!(!deaf.is_cancelled(), "a new() token ignores signals");
        save_signal::reset_for_test();
    }
}
