//! Fault-tolerant parallel map for independent simulations.
//!
//! Every kernel simulation is independent (own core, own memory model), so
//! the sweep driver fans jobs out over host threads with a shared atomic
//! cursor. Each job runs behind [`std::panic::catch_unwind`]: one panicking
//! or erroring operating point produces an `Err` slot instead of taking the
//! whole sweep down. The
//! per-item `Result`s roll up into a [`FailureReport`] that sweep binaries
//! dump as JSON before exiting non-zero.

use crate::error::SimError;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use serde::{Deserialize, Serialize};

/// One failed job in a sweep.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct JobFailure {
    /// Index of the job in the sweep's item list.
    pub job: usize,
    /// Human-readable label for the job, when the sweep provided one.
    pub label: Option<String>,
    /// Number of attempts made (1 = no retry).
    pub attempts: usize,
    /// The error from the final attempt.
    pub error: SimError,
}

/// Sweep-level roll-up of every failed job, JSON-dumpable so a figure run
/// leaves an audit trail next to its partial results.
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct FailureReport {
    /// Total jobs in the sweep.
    pub total_jobs: usize,
    /// Jobs that completed.
    pub succeeded: usize,
    /// The failures, in job order.
    pub failures: Vec<JobFailure>,
}

impl FailureReport {
    /// Builds a report from per-item results, attaching `label(i)` names.
    pub fn from_results<R>(
        results: &[Result<R, SimError>],
        label: impl Fn(usize) -> Option<String>,
    ) -> Self {
        let failures: Vec<JobFailure> = results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| {
                r.as_ref().err().map(|e| JobFailure {
                    job: i,
                    label: label(i),
                    attempts: 1,
                    error: e.clone(),
                })
            })
            .collect();
        FailureReport {
            total_jobs: results.len(),
            succeeded: results.len() - failures.len(),
            failures,
        }
    }

    /// `true` when every job succeeded.
    pub fn is_clean(&self) -> bool {
        self.failures.is_empty()
    }

    /// The process exit code a sweep binary should return — delegated to
    /// the workspace-wide mapping [`crate::durable::exit_code_for`] so
    /// every binary agrees (0 clean, 1 failures; cancellation is decided
    /// higher up where the cancel token is visible).
    pub fn exit_code(&self) -> i32 {
        crate::durable::exit_code_for(false, self.is_clean()) as i32
    }
}

impl std::fmt::Display for FailureReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "{}/{} jobs succeeded", self.succeeded, self.total_jobs)?;
        for fail in &self.failures {
            write!(f, "  job {}", fail.job)?;
            if let Some(l) = &fail.label {
                write!(f, " ({l})")?;
            }
            writeln!(f, ": [{}] {}", fail.error.kind(), fail.error)?;
        }
        Ok(())
    }
}

/// Sweep workers currently claiming jobs across every live
/// [`parallel_try_map`] call in the process — the shared thread budget that
/// keeps nested parallelism (sweep workers × per-machine relaxed-sync
/// threads) from oversubscribing the host.
static ACTIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// Host hardware threads (1 when undetectable).
pub fn host_parallelism() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// RAII registration of `n` sweep workers against the shared budget.
struct WorkerBudget(usize);

impl WorkerBudget {
    fn register(n: usize) -> Self {
        ACTIVE_WORKERS.fetch_add(n, Ordering::SeqCst);
        WorkerBudget(n)
    }
}

impl Drop for WorkerBudget {
    fn drop(&mut self) {
        ACTIVE_WORKERS.fetch_sub(self.0, Ordering::SeqCst);
    }
}

/// How many host threads one nested simulation (e.g. the relaxed-sync
/// multicore engine with `threads == 0`) may use right now: the host's
/// parallelism divided by the sweep workers currently active, never below
/// one. A sweep already using every host thread pins nested engines to one
/// thread each instead of spawning workers × cores threads; with no sweep
/// active the full host is available.
pub fn sim_thread_allowance() -> usize {
    let active = ACTIVE_WORKERS.load(Ordering::SeqCst);
    (host_parallelism() / active.max(1)).max(1)
}

/// Turns a caught panic payload into a [`SimError::WorkerPanic`].
pub(crate) fn panic_error(job: usize, payload: Box<dyn std::any::Any + Send>) -> SimError {
    let message = if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    };
    SimError::WorkerPanic { job, message }
}

/// Applies the fallible `f` to every item, in parallel over up to `threads`
/// host threads ([`host_parallelism`] when `threads == 0`), catching panics
/// at the job boundary. Results are returned in input order; a failed job
/// occupies its slot as an `Err` while every other job still completes.
///
/// Workers stop *claiming* new items once `cancel` latches; items never
/// claimed come back as [`SimError::Cancelled`] so the caller can tell
/// "not attempted, resumable" from a real failure. The closure receives the
/// item index and owns its retry policy: panics here are converted, not
/// retried ([`crate::durable::run_cell`] owns the attempt loop).
pub fn parallel_try_map<T, R, F>(
    items: &[T],
    threads: usize,
    cancel: &crate::cancel::CancelToken,
    f: F,
) -> Vec<Result<R, SimError>>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> Result<R, SimError> + Sync,
{
    let threads = if threads == 0 { host_parallelism() } else { threads }.min(items.len().max(1));
    let run_one = |i: usize| -> Result<R, SimError> {
        catch_unwind(AssertUnwindSafe(|| f(i, &items[i])))
            .unwrap_or_else(|payload| Err(panic_error(i, payload)))
    };
    let unclaimed = |i: usize| -> Result<R, SimError> {
        Err(SimError::Cancelled { what: format!("job {i} not started (sweep cancelled)") })
    };
    if threads <= 1 {
        return (0..items.len())
            .map(|i| if cancel.is_cancelled() { unclaimed(i) } else { run_one(i) })
            .collect();
    }
    let _budget = WorkerBudget::register(threads);
    let cursor = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, Result<R, SimError>)>> =
        Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut local: Vec<(usize, Result<R, SimError>)> = Vec::new();
                loop {
                    if cancel.is_cancelled() {
                        break;
                    }
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    local.push((i, run_one(i)));
                }
                let mut all = collected.lock().unwrap_or_else(|p| p.into_inner());
                all.extend(local);
            });
        }
    });
    let mut slots: Vec<Option<Result<R, SimError>>> =
        (0..items.len()).map(|_| None).collect();
    let all = collected.into_inner().unwrap_or_else(|p| p.into_inner());
    for (i, r) in all {
        slots[i] = Some(r);
    }
    slots
        .into_iter()
        .enumerate()
        .map(|(i, r)| r.unwrap_or_else(|| unclaimed(i)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;

    /// `f` over `items` with a never-cancelled token, unwrapped.
    fn map<T: Sync, R: Send>(items: &[T], threads: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R> {
        parallel_try_map(items, threads, &CancelToken::new(), |_, t| Ok(f(t)))
            .into_iter()
            .map(Result::unwrap)
            .collect()
    }

    #[test]
    fn preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = map(&items, 8, |&x| x * x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn single_thread_fallback() {
        let items = vec![1, 2, 3];
        assert_eq!(map(&items, 1, |&x| x + 1), vec![2, 3, 4]);
    }

    #[test]
    fn empty_input() {
        let items: Vec<u32> = vec![];
        assert!(map(&items, 4, |&x| x).is_empty());
    }

    #[test]
    fn one_panicking_job_leaves_the_rest_ok() {
        let items: Vec<u32> = (0..16).collect();
        let out = parallel_try_map(&items, 4, &CancelToken::new(), |_, &x| {
            if x == 7 {
                panic!("job seven exploded");
            }
            Ok(x * 2)
        });
        assert_eq!(out.len(), 16);
        for (i, r) in out.iter().enumerate() {
            if i == 7 {
                match r {
                    Err(SimError::WorkerPanic { job, message }) => {
                        assert_eq!(*job, 7);
                        assert!(message.contains("exploded"), "{message}");
                    }
                    other => panic!("expected WorkerPanic, got {other:?}"),
                }
            } else {
                assert_eq!(*r.as_ref().unwrap(), (i as u32) * 2);
            }
        }
    }

    #[test]
    fn thread_count_is_clamped_to_item_count() {
        // A single job with a generous thread budget must not spawn worker
        // threads at all: the clamp reduces it to the caller-thread path.
        let caller = std::thread::current().id();
        let items = vec![41u32];
        let out = map(&items, 8, |&x| {
            assert_eq!(
                std::thread::current().id(),
                caller,
                "one job must run on the calling thread, not a spawned worker"
            );
            x + 1
        });
        assert_eq!(out[0], 42);
    }

    #[test]
    fn cancel_map_completes_when_never_cancelled() {
        let token = CancelToken::new();
        let items: Vec<u32> = (0..32).collect();
        let out = parallel_try_map(&items, 4, &token, |i, &x| {
            assert_eq!(i as u32, x);
            Ok(x * 3)
        });
        for (i, r) in out.iter().enumerate() {
            assert_eq!(*r.as_ref().unwrap(), (i as u32) * 3);
        }
    }

    #[test]
    fn cancel_map_stops_claiming_after_cancel() {
        let token = CancelToken::new();
        let items: Vec<u32> = (0..64).collect();
        // Single-threaded so the cancellation point is deterministic: the
        // 5th item latches the token, items 5.. are never claimed.
        let out = parallel_try_map(&items, 1, &token, |i, &x| {
            if i == 4 {
                token.cancel();
            }
            Ok(x)
        });
        for (i, r) in out.iter().enumerate() {
            if i <= 4 {
                assert!(r.is_ok(), "item {i} ran before the cancel");
            } else {
                match r {
                    Err(SimError::Cancelled { .. }) => {}
                    other => panic!("item {i}: expected Cancelled, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn nested_thread_budget_is_shared() {
        // While a 4-worker sweep is live, a nested simulation's allowance
        // must shrink to at most host/4 (and never below 1). Other tests may
        // register workers concurrently, which only shrinks the allowance
        // further, so the upper bound stays safe to assert.
        let host = host_parallelism();
        let items: Vec<u32> = (0..8).collect();
        let out = map(&items, 4, |&x| {
            let a = sim_thread_allowance();
            assert!(a >= 1, "allowance must never reach zero");
            assert!(
                a <= (host / 4).max(1),
                "allowance {a} ignores the 4 registered sweep workers (host {host})"
            );
            x
        });
        assert_eq!(out, items);
    }

    #[test]
    fn failure_report_counts_and_exit_code() {
        let results: Vec<Result<u32, SimError>> = vec![
            Ok(1),
            Err(SimError::InvalidConfig { what: "bad".into() }),
            Ok(3),
        ];
        let rep = FailureReport::from_results(&results, |i| Some(format!("job-{i}")));
        assert_eq!(rep.total_jobs, 3);
        assert_eq!(rep.succeeded, 2);
        assert_eq!(rep.failures.len(), 1);
        assert_eq!(rep.failures[0].label.as_deref(), Some("job-1"));
        assert_eq!(rep.exit_code(), 1);
        assert!(!rep.is_clean());
        let clean = FailureReport::from_results::<u32>(&[Ok(1)], |_| None);
        assert_eq!(clean.exit_code(), 0);
    }
}
