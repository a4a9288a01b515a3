//! Per-cell retry policy and the durable cell runner (DESIGN.md §5f).
//!
//! One sweep cell = one kernel simulation at one operating point. The
//! durable runner wraps a cell in:
//!
//! * **panic isolation** — a panic becomes [`SimError::WorkerPanic`], as in
//!   [`crate::parallel`], but here it feeds the retry state machine;
//! * **a wall-clock deadline** — each *attempt* runs on a child of the
//!   executor's [`CancelToken`] carrying the deadline; once it passes, the
//!   simulated core stops at its next quantum boundary, and the resulting
//!   [`SimError::Cancelled`] is reclassified to
//!   [`SimError::DeadlineExceeded`];
//! * **bounded retries with exponential backoff** — errors classified
//!   [`RetryClass::Transient`] are retried up to `retries` extra attempts,
//!   sleeping `backoff * 2^(attempt-1)` (capped at `max_backoff`) between
//!   attempts; [`RetryClass::Permanent`] errors fail fast;
//!   [`RetryClass::Cancelled`] aborts immediately so Ctrl-C is honoured
//!   even mid-backoff (the backoff sleep itself is interruptible).
//!
//! [`Executor`] is the one path from a [`CellSpec`] to its journaled
//! result: claim the key in the [`ResultStore`], run the cell under
//! [`run_cell`], journal the record (or release the claim when the run was
//! cancelled). Surface sweeps, the estimator, figure sessions and the
//! `save-serve` workers all resolve their cells through it.

use crate::cancel::CancelToken;
use crate::error::{RetryClass, SimError};
use crate::parallel::{panic_error, parallel_try_map};
use crate::spec::CellSpec;
use crate::store::{CellRecord, Claim, ResultStore};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::time::Duration;

/// Process exit code for a fully successful sweep.
pub const EXIT_OK: u8 = 0;
/// Process exit code when the sweep finished but some cells failed
/// permanently (their failures are journaled and reported).
pub const EXIT_FAILURES: u8 = 1;
/// Process exit code for a command-line / configuration error.
pub const EXIT_USAGE: u8 = 2;
/// Process exit code for "cancelled by SIGINT/SIGTERM, journal flushed,
/// resumable with `--resume`" — 130 by the shell convention for SIGINT
/// (128 + 2), and distinct from [`EXIT_FAILURES`] so schedulers can tell
/// "re-submit with --resume" from "inspect the failure report".
pub const EXIT_CANCELLED: u8 = 130;

/// The one exit-code mapping every binary (each `save-bench` command via
/// `save_bench::run_main`, the `save-serve` daemon, the `surface` fsck
/// subcommand) funnels through: cancellation outranks failures because a
/// cancelled run is *resumable*, not broken — a scheduler that sees 130
/// should resubmit with `--resume`, while 1 means "inspect the failure
/// report". Usage errors short-circuit to [`EXIT_USAGE`] before any cell
/// runs, so they are not part of this table.
pub fn exit_code_for(cancelled: bool, clean: bool) -> u8 {
    if cancelled {
        EXIT_CANCELLED
    } else if clean {
        EXIT_OK
    } else {
        EXIT_FAILURES
    }
}

/// Retry/deadline policy for one sweep's cells.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Extra attempts after the first (total attempts = `retries + 1`).
    pub retries: u32,
    /// Backoff before the first retry; doubles each retry.
    pub backoff: Duration,
    /// Upper bound on the (exponentially growing) backoff.
    pub max_backoff: Duration,
    /// Per-attempt wall-clock deadline; `None` disables deadlines.
    pub deadline: Option<Duration>,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            retries: 2,
            backoff: Duration::from_millis(25),
            max_backoff: Duration::from_secs(2),
            deadline: None,
        }
    }
}

impl RetryPolicy {
    /// The backoff before retry number `retry` (1-based), exponentially
    /// grown and capped.
    pub fn backoff_for(&self, retry: u32) -> Duration {
        let shift = retry.saturating_sub(1).min(16);
        self.backoff.saturating_mul(1u32 << shift).min(self.max_backoff)
    }
}

/// Outcome of a durable cell: the final result plus how many attempts it
/// took (journaled so a resumed run knows the cell's history).
pub struct CellRun<T> {
    /// `Ok` on success; the *final* attempt's error otherwise.
    pub result: Result<T, SimError>,
    /// Total attempts made (1 = first try succeeded or failed fast).
    pub attempts: u32,
}

/// Runs one cell under the policy, cancelled through `cancel`. `what`
/// names the cell in errors; `job` is its index (used for panic
/// attribution). The closure receives the attempt's token, a child of
/// `cancel` carrying the policy's deadline — thread it into
/// [`crate::CellSpec::run`] so deadlines and Ctrl-C can stop the simulated
/// core mid-run.
pub fn run_cell<T>(
    cancel: &CancelToken,
    policy: &RetryPolicy,
    what: &str,
    job: usize,
    f: impl Fn(&CancelToken) -> Result<T, SimError>,
) -> CellRun<T> {
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        if cancel.is_cancelled() {
            return CellRun {
                result: Err(SimError::Cancelled { what: what.to_string() }),
                attempts,
            };
        }
        let tok = cancel.with_deadline(policy.deadline);
        let err = match catch_unwind(AssertUnwindSafe(|| f(&tok))) {
            Ok(Ok(v)) => return CellRun { result: Ok(v), attempts },
            Ok(Err(e)) => e,
            Err(payload) => panic_error(job, payload),
        };
        // A cooperative stop caused by *this cell's* deadline (not a global
        // cancel) is a deadline overrun — a different retry class and a
        // different journal entry than user cancellation. It names the
        // cell: the core's `Cancelled` names only the workload it ran.
        let err = match err {
            SimError::Cancelled { .. } if tok.deadline_expired() && !cancel.is_cancelled() => {
                SimError::DeadlineExceeded {
                    what: what.to_string(),
                    millis: policy.deadline.map(|d| d.as_millis() as u64).unwrap_or(0),
                }
            }
            e => e,
        };
        match err.retry_class() {
            RetryClass::Permanent | RetryClass::Cancelled => {
                return CellRun { result: Err(err), attempts }
            }
            RetryClass::Transient => {
                if attempts > policy.retries {
                    return CellRun { result: Err(err), attempts };
                }
                if !cancel.sleep(policy.backoff_for(attempts)) {
                    // Backoff interrupted by a global cancel.
                    return CellRun {
                        result: Err(SimError::Cancelled { what: what.to_string() }),
                        attempts,
                    };
                }
            }
        }
    }
}

/// How cells are resolved: where results are filed, how each attempt is
/// bounded, and who can cancel it.
#[derive(Clone)]
pub struct Executor {
    /// Result store cells are served from and journaled to; `None` keeps
    /// deadlines, retries and cancellation without journaling.
    pub store: Option<Arc<ResultStore>>,
    /// Per-cell deadline/retry policy.
    pub policy: RetryPolicy,
    /// Cancels every cell (Ctrl-C, an embedder's cancel); each attempt runs
    /// on a child carrying the policy's deadline.
    pub cancel: CancelToken,
}

/// A cell [`Executor::resolve`] finished: served from the store or run.
#[derive(Debug)]
pub struct Resolved {
    /// The cell's record (NaN seconds and an error kind on failure).
    pub rec: CellRecord,
    /// The error that failed the cell: the final attempt's for a run cell,
    /// [`CellRecord::error`] for a served one.
    pub error: Option<SimError>,
    /// Served from the store instead of run.
    pub served: bool,
}

impl Executor {
    /// No journal, the default retry policy, cancelled through `cancel`.
    pub fn new(cancel: CancelToken) -> Self {
        Executor { store: None, policy: RetryPolicy::default(), cancel }
    }

    /// Resolves one cell whose [`CellSpec::cache_key`] is `key`. A final
    /// record in the store is served as is. Otherwise the cell runs under
    /// the policy and its record is journaled, failures included. A failed
    /// append is only a warning: it costs the resume, not the result.
    /// `label` names the cell in errors; `job` attributes a panic.
    ///
    /// # Errors
    /// Only cancellation (Ctrl-C, a cancelled wait for another thread's
    /// claim). A cancelled cell is not journaled, so a resume recomputes it.
    pub fn resolve(
        &self,
        label: &str,
        job: usize,
        spec: &CellSpec,
        key: u64,
    ) -> Result<Resolved, SimError> {
        if let Some(store) = &self.store {
            match store.claim(key, &self.cancel) {
                Claim::Hit(rec) => return Ok(Resolved { error: rec.error(), rec, served: true }),
                Claim::Cancelled => return Err(SimError::Cancelled { what: label.to_string() }),
                Claim::Compute => {}
            }
        }
        let run = run_cell(&self.cancel, &self.policy, label, job, |tok| spec.run(Some(tok)));
        let (rec, error) = match run.result {
            Ok(r) => (CellRecord::success(key, &r, run.attempts), None),
            Err(e) if e.retry_class() == RetryClass::Cancelled => {
                if let Some(store) = &self.store {
                    store.release(key);
                }
                return Err(e);
            }
            Err(e) => (CellRecord::failure(key, &e, run.attempts), Some(e)),
        };
        if let Some(store) = &self.store {
            if let Err(e) = store.complete(rec.clone()) {
                eprintln!("{label}: journal append failed, the result is kept: {e}");
            }
        }
        Ok(Resolved { rec, error, served: false })
    }

    /// [`Executor::resolve`] over `cells` on up to `threads` host threads
    /// (0 = all), in input order. Once the executor's token is cancelled,
    /// unclaimed cells come back as [`SimError::Cancelled`].
    ///
    /// # Errors
    /// A spec that cannot be encoded into a cache key; nothing runs then.
    pub fn resolve_all(
        &self,
        cells: &[(String, CellSpec)],
        threads: usize,
    ) -> Result<Vec<Result<Resolved, SimError>>, SimError> {
        let keys = cells.iter().map(|(_, spec)| spec.cache_key()).collect::<Result<Vec<_>, _>>()?;
        Ok(parallel_try_map(cells, threads, &self.cancel, |i, (label, spec)| {
            self.resolve(label, i, spec, keys[i])
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    fn fast_policy() -> RetryPolicy {
        RetryPolicy {
            retries: 2,
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(4),
            deadline: None,
        }
    }

    /// The uniform exit-code mapping table (ISSUE 7 satellite): every
    /// (cancelled, clean) combination maps to the documented code, and the
    /// codes are the documented constants.
    #[test]
    fn exit_code_mapping_table() {
        let table: &[(bool, bool, u8)] = &[
            (false, true, EXIT_OK),        // clean sweep
            (false, false, EXIT_FAILURES), // finished, some cells failed
            (true, true, EXIT_CANCELLED),  // cancelled before any failure
            (true, false, EXIT_CANCELLED), // cancellation outranks failures
        ];
        for &(cancelled, clean, want) in table {
            assert_eq!(
                exit_code_for(cancelled, clean),
                want,
                "exit_code_for({cancelled}, {clean})"
            );
        }
        assert_eq!(EXIT_OK, 0);
        assert_eq!(EXIT_FAILURES, 1);
        assert_eq!(EXIT_USAGE, 2);
        assert_eq!(EXIT_CANCELLED, 130, "128 + SIGINT, the shell convention");
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let p = RetryPolicy {
            retries: 10,
            backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(35),
            deadline: None,
        };
        assert_eq!(p.backoff_for(1), Duration::from_millis(10));
        assert_eq!(p.backoff_for(2), Duration::from_millis(20));
        assert_eq!(p.backoff_for(3), Duration::from_millis(35), "capped");
        assert_eq!(p.backoff_for(30), Duration::from_millis(35), "shift saturates");
    }

    #[test]
    fn first_try_success_is_one_attempt() {
        let run = run_cell(&CancelToken::new(), &fast_policy(), "cell", 0, |_| Ok(42));
        assert_eq!(run.result.unwrap(), 42);
        assert_eq!(run.attempts, 1);
    }

    #[test]
    fn transient_errors_retry_until_budget() {
        let calls = AtomicU32::new(0);
        let run = run_cell(&CancelToken::new(), &fast_policy(), "cell", 0, |_| {
            calls.fetch_add(1, Ordering::SeqCst);
            Err::<u32, _>(SimError::Io { what: "flaky".into() })
        });
        assert_eq!(calls.load(Ordering::SeqCst), 3, "1 try + 2 retries");
        assert_eq!(run.attempts, 3);
        assert_eq!(run.result.unwrap_err().kind(), "io");
    }

    #[test]
    fn transient_error_heals_on_retry() {
        let calls = AtomicU32::new(0);
        let run = run_cell(&CancelToken::new(), &fast_policy(), "cell", 0, |_| {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                Err(SimError::Io { what: "first try flaky".into() })
            } else {
                Ok(7u32)
            }
        });
        assert_eq!(run.result.unwrap(), 7);
        assert_eq!(run.attempts, 2);
    }

    #[test]
    fn permanent_errors_fail_fast() {
        let calls = AtomicU32::new(0);
        let run = run_cell(&CancelToken::new(), &fast_policy(), "cell", 0, |_| {
            calls.fetch_add(1, Ordering::SeqCst);
            Err::<u32, _>(SimError::InvalidConfig { what: "deterministic".into() })
        });
        assert_eq!(calls.load(Ordering::SeqCst), 1, "no retry for permanent errors");
        assert_eq!(run.attempts, 1);
    }

    #[test]
    fn panics_are_transient_and_attributed() {
        let calls = AtomicU32::new(0);
        let run = run_cell(&CancelToken::new(), &fast_policy(), "cell", 9, |_| -> Result<u32, _> {
            calls.fetch_add(1, Ordering::SeqCst);
            panic!("boom");
        });
        assert_eq!(calls.load(Ordering::SeqCst), 3);
        match run.result.unwrap_err() {
            SimError::WorkerPanic { job, message } => {
                assert_eq!(job, 9);
                assert!(message.contains("boom"));
            }
            other => panic!("expected WorkerPanic, got {other}"),
        }
    }

    #[test]
    fn global_cancel_stops_before_first_attempt() {
        let cancel = CancelToken::new();
        cancel.cancel();
        let run = run_cell(&cancel, &fast_policy(), "cell", 0, |_| Ok(1u32));
        assert_eq!(run.result.unwrap_err().kind(), "cancelled");
    }

    #[test]
    fn deadline_is_reclassified_and_retried() {
        let cancel = CancelToken::new();
        let policy = RetryPolicy {
            retries: 1,
            backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(2),
            deadline: Some(Duration::from_millis(10)),
        };
        let calls = AtomicU32::new(0);
        // The cell honours its token like a real kernel run: it spins
        // until cancelled, then reports SimError::Cancelled.
        let run = run_cell(&cancel, &policy, "slow-cell", 0, |tok| -> Result<u32, _> {
            calls.fetch_add(1, Ordering::SeqCst);
            while !tok.is_cancelled() {
                std::thread::sleep(Duration::from_millis(1));
            }
            Err(SimError::Cancelled { what: "slow-cell".into() })
        });
        assert_eq!(calls.load(Ordering::SeqCst), 2, "deadline overruns are retried");
        match run.result.unwrap_err() {
            SimError::DeadlineExceeded { what, millis } => {
                assert_eq!(what, "slow-cell");
                assert_eq!(millis, 10);
            }
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
    }

    #[test]
    fn deadline_error_names_the_cell_not_the_workload() {
        let policy = RetryPolicy { retries: 0, deadline: Some(Duration::ZERO), ..fast_policy() };
        let run = run_cell(&CancelToken::new(), &policy, "cell-3", 3, |_| -> Result<u32, _> {
            Err(SimError::Cancelled { what: "workload".into() })
        });
        match run.result.unwrap_err() {
            SimError::DeadlineExceeded { what, .. } => assert_eq!(what, "cell-3"),
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
    }
}
