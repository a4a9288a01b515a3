//! Bounded FIFO worker pool with admission control and crash recovery.
//!
//! One queue of admitted cells under one lock, served in arrival order by
//! a fixed set of workers that block on a condition variable while it is
//! empty. Every task comes from a connection thread and no worker spawns
//! one, so a shared queue is all the pool needs. Admission is a
//! check-and-add under the same lock: a job that would push the admitted
//! count past `capacity` is rejected with a retry-after hint. A cell whose
//! final record is already in the result store is answered at admission
//! instead, so a hit takes no slot and never waits behind a miss. Workers
//! resolve queued cells through the daemon's
//! [`save_sim::durable::Executor`], the claim → run → journal path every
//! local sweep takes too.
//!
//! Crash tolerance: [`save_sim::durable::run_cell`] absorbs a per-cell
//! panic. A panic that escapes it — emulated by [`Fault::KillWorker`],
//! which fires **before** the claim — is caught at the worker's task
//! boundary: the worker journals a `worker-lost` record, puts the cell
//! back at the front of the queue with the fault cleared, counts the
//! incident (`workers_respawned`) and keeps serving. The only other way a
//! thread dies is an abort, which ends the whole process; the journal
//! covers that as it covers a SIGKILL.

use crate::protocol::{CellResult, Fault};
use save_sim::durable::Executor;
use save_sim::{CellRecord, CellSpec, SimError};
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, JoinHandle};

/// One admitted cell: everything a worker needs to execute it and report
/// the result back to the submitting connection.
pub struct Task {
    /// Index within the job's cell vector.
    pub index: u64,
    /// Client-chosen label, echoed in the result.
    pub label: String,
    /// The cell to simulate.
    pub spec: CellSpec,
    /// Result-store key ([`CellSpec::cache_key`]).
    pub key: u64,
    /// Crash-test fault, if any (cleared when the cell is requeued).
    pub fault: Option<Fault>,
    /// Where the result goes (the submitting connection's channel).
    pub tx: Sender<CellResult>,
}

impl Task {
    /// This cell's result, carrying `rec`; a record served from the store
    /// reports zero attempts.
    fn result(&self, rec: CellRecord, cached: bool) -> CellResult {
        CellResult {
            label: self.label.clone(),
            index: self.index,
            key: self.key,
            secs_bits: rec.secs_bits,
            cycles: rec.cycles,
            attempts: if cached { 0 } else { rec.attempts },
            error_kind: rec.error_kind,
            cached,
        }
    }
}

#[derive(Default)]
struct State {
    /// Admitted cells not yet picked up, oldest first.
    queue: VecDeque<Task>,
    /// Cells admitted but not yet completed (queued + executing).
    admitted: usize,
    /// Worker crashes recovered since startup.
    respawned: u64,
    /// Stop admitting; workers exit once the queue is empty.
    draining: bool,
    /// Hard stop for Drop: workers exit at the next task boundary.
    shutdown: bool,
}

struct Pool {
    state: Mutex<State>,
    /// Signalled when work arrives or the pool starts draining or stops.
    ready: Condvar,
    capacity: usize,
    exec: Executor,
}

impl Pool {
    /// Locks the state. No code panics while holding the lock, but a
    /// poisoned lock still guards a consistent state, so take it anyway.
    fn state(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The next task in arrival order, blocking while the queue is empty;
    /// `None` tells the worker to exit.
    fn next_task(&self) -> Option<Task> {
        let mut st = self.state();
        let mut woken = false;
        loop {
            if st.shutdown {
                return None;
            }
            if let Some(t) = st.queue.pop_front() {
                drop(st);
                if woken {
                    // A submission just woke this worker. Let the connection
                    // thread that made it stream the job's cache hits before
                    // the simulation takes the CPU: on a host with fewer free
                    // cores than workers, the hits otherwise wait out a
                    // scheduler slice behind the misses.
                    thread::yield_now();
                }
                return Some(t);
            }
            if st.draining {
                return None;
            }
            st = self.ready.wait(st).unwrap_or_else(PoisonError::into_inner);
            woken = true;
        }
    }

    fn worker_loop(&self) {
        while let Some(mut task) = self.next_task() {
            match panic::catch_unwind(AssertUnwindSafe(|| self.execute(&task))) {
                Ok(result) => {
                    // Release the admission slot first, so a client that
                    // has seen every result also sees `queued` at zero.
                    self.state().admitted -= 1;
                    // The client may have disconnected; the result is
                    // journaled either way, so a resubmission is a hit.
                    let _ = task.tx.send(result);
                }
                Err(_) => {
                    let lost = SimError::WorkerLost { what: task.label.clone() };
                    if let Some(store) = &self.exec.store {
                        if let Err(e) = store.record(CellRecord::failure(task.key, &lost, 1)) {
                            eprintln!("save-serve: journal worker-lost failed: {e}");
                        }
                    }
                    eprintln!("save-serve: worker lost while running {}; requeued", task.label);
                    task.fault = None;
                    let mut st = self.state();
                    st.respawned += 1;
                    st.queue.push_front(task);
                }
            }
        }
    }

    /// Resolves one task to its result. Panics (by design) on an injected
    /// [`Fault::KillWorker`] — *before* the store claim, so a lost worker
    /// never leaks one.
    fn execute(&self, task: &Task) -> CellResult {
        if let Some(Fault::KillWorker) = task.fault {
            // Escapes run_cell's per-cell isolation on purpose: this is
            // "the worker died", not "the cell errored".
            panic!("injected fault: worker killed while running {}", task.label);
        }
        match self.exec.resolve(&task.label, task.index as usize, &task.spec, task.key, None) {
            Ok(cell) => task.result(cell.rec, cell.served),
            Err(e) => task.result(CellRecord::failure(task.key, &e, 0), false),
        }
    }
}

/// See module docs.
pub struct Scheduler {
    pool: Arc<Pool>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Scheduler {
    /// Spawns `workers` worker threads. `capacity` bounds
    /// admitted-but-incomplete cells; `exec` resolves each one (its store
    /// also receives the `worker-lost` records).
    pub fn new(workers: usize, capacity: usize, exec: Executor) -> Self {
        let pool = Arc::new(Pool {
            state: Mutex::default(),
            ready: Condvar::new(),
            capacity: capacity.max(1),
            exec,
        });
        let workers = (0..workers.max(1))
            .map(|i| {
                let pool = Arc::clone(&pool);
                thread::Builder::new()
                    .name(format!("save-serve-worker-{i}"))
                    .spawn(move || pool.worker_loop())
                    .expect("spawn worker thread")
            })
            .collect();
        Scheduler { pool, workers: Mutex::new(workers) }
    }

    /// Admits `tasks` atomically (all or nothing). On overload, returns
    /// [`SimError::Overloaded`] with a backoff hint proportional to the
    /// excess — the admission-control contract: the daemon *rejects*
    /// loudly rather than buffering without bound.
    ///
    /// A cell whose final record is already in the store is answered here,
    /// from the store, and never queued: a hit takes no admission slot and
    /// does not wait behind the misses ahead of it. A faulted cell always
    /// queues, so its fault fires.
    pub fn try_submit(&self, tasks: Vec<Task>) -> Result<(), SimError> {
        let store = self.pool.exec.store.as_deref();
        let (mut hits, mut misses) = (Vec::new(), Vec::new());
        for t in tasks {
            match store.filter(|_| t.fault.is_none()).and_then(|s| s.lookup(t.key)) {
                Some(rec) => hits.push((t, rec)),
                None => misses.push(t),
            }
        }
        let mut st = self.pool.state();
        if st.draining {
            return Err(SimError::Overloaded {
                what: "daemon is draining".into(),
                retry_after_ms: 0,
            });
        }
        let (cur, n, cap) = (st.admitted, misses.len(), self.pool.capacity);
        if cur + n > cap {
            return Err(SimError::Overloaded {
                what: format!("queue full: {cur} admitted + {n} submitted exceeds capacity {cap}"),
                retry_after_ms: (25 * (cur + n - cap) as u64).clamp(50, 2000),
            });
        }
        st.admitted += n;
        st.queue.extend(misses);
        drop(st);
        self.pool.ready.notify_all();
        for (t, rec) in hits {
            let _ = t.tx.send(t.result(rec, true));
        }
        Ok(())
    }

    /// Cells admitted but not yet completed.
    pub fn queued(&self) -> usize {
        self.pool.state().admitted
    }

    /// Worker crashes recovered (each one a requeued cell).
    pub fn respawned(&self) -> u64 {
        self.pool.state().respawned
    }

    /// Stops admission, lets the workers finish every admitted cell, and
    /// joins them.
    pub fn drain(&self) {
        self.pool.state().draining = true;
        self.join_workers();
    }

    fn join_workers(&self) {
        self.pool.ready.notify_all();
        let workers =
            std::mem::take(&mut *self.workers.lock().unwrap_or_else(PoisonError::into_inner));
        for w in workers {
            if w.join().is_err() {
                eprintln!("save-serve: a worker panicked outside its task boundary");
            }
        }
    }
}

impl Drop for Scheduler {
    /// Hard stop: workers exit at their next task boundary (an in-flight
    /// cell still finishes — cells are only abandoned via cancellation)
    /// and are joined.
    fn drop(&mut self) {
        self.pool.state().shutdown = true;
        self.join_workers();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use save_sim::runner::{ConfigKind, MachineConfig};
    use save_sim::{CancelToken, ResultStore};
    use std::sync::mpsc::{self, Receiver};
    use std::time::Duration;

    /// A scheduler over a fresh store, with the default retry policy.
    fn scheduler(workers: usize, capacity: usize, tag: &str) -> (Scheduler, Arc<ResultStore>) {
        let store = Arc::new(ResultStore::open(&tmpdir(tag), true).unwrap());
        let exec =
            Executor { store: Some(Arc::clone(&store)), ..Executor::new(CancelToken::new()) };
        (Scheduler::new(workers, capacity, exec), store)
    }

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("save-serve-sched-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    fn tiny_spec(seed: u64) -> CellSpec {
        use save_kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
        let w = GemmWorkload::dense(
            "sched-test",
            GemmKernelSpec {
                m_tiles: 2,
                n_vecs: 2,
                pattern: BroadcastPattern::Explicit,
                precision: Precision::F32,
            },
            8,
            1,
        )
        .with_sparsity(0.5, 0.5);
        CellSpec::new(w, ConfigKind::Save2Vpu, MachineConfig::default(), seed)
    }

    /// The next `n` results, each within a generous timeout.
    fn results(rx: &Receiver<CellResult>, n: usize) -> Vec<CellResult> {
        (0..n).map(|_| rx.recv_timeout(Duration::from_secs(30)).expect("cell reports")).collect()
    }

    fn task(i: u64, seed: u64, fault: Option<Fault>, tx: &Sender<CellResult>) -> Task {
        let spec = tiny_spec(seed);
        Task {
            index: i,
            label: format!("cell-{i}"),
            key: spec.cache_key().unwrap(),
            spec,
            fault,
            tx: tx.clone(),
        }
    }

    #[test]
    fn executes_and_memoizes() {
        let (sched, store) = scheduler(2, 64, "memo");
        let (tx, rx) = mpsc::channel();
        // Two cells with the same spec: one computes, one is served.
        sched.try_submit(vec![task(0, 7, None, &tx), task(1, 7, None, &tx)]).unwrap();
        drop(tx);
        let a = rx.recv().unwrap();
        let b = rx.recv().unwrap();
        assert!(a.ok() && b.ok());
        assert_eq!(a.secs_bits, b.secs_bits, "memoized result is bit-identical");
        let cached = [a.cached, b.cached].iter().filter(|&&c| c).count();
        assert_eq!(cached, 1, "exactly one computes, the other is served from the store");
        assert_eq!(store.records(), 1, "one journal record per unique key");
        // Admission slots are released before each result is sent.
        assert_eq!(sched.queued(), 0);
    }

    #[test]
    fn one_worker_serves_a_job_in_submission_order() {
        let (sched, _store) = scheduler(1, 64, "fifo");
        let (tx, rx) = mpsc::channel();
        sched.try_submit((0..6).map(|i| task(i, 100 + i, None, &tx)).collect()).unwrap();
        drop(tx);
        let order: Vec<u64> = results(&rx, 6).iter().map(|r| r.index).collect();
        assert_eq!(order, [0, 1, 2, 3, 4, 5], "one worker drains the queue FIFO");
    }

    #[test]
    fn store_hits_are_answered_at_admission_without_a_slot() {
        let (sched, _store) = scheduler(1, 1, "hits");
        let (tx, rx) = mpsc::channel();
        sched.try_submit(vec![task(0, 9, None, &tx)]).unwrap();
        let first = results(&rx, 1).remove(0);
        assert!(first.ok() && !first.cached);
        // Capacity 1, yet a job of three hits is admitted: none takes a
        // slot, and each is answered before `try_submit` returns.
        sched.try_submit((1..4).map(|i| task(i, 9, None, &tx)).collect()).unwrap();
        assert_eq!(sched.queued(), 0);
        for _ in 1..4 {
            let r = rx.try_recv().expect("a hit is answered at admission");
            assert!(r.cached && r.attempts == 0, "{}", r.label);
            assert_eq!(r.secs_bits, first.secs_bits);
        }
        // A faulted cell queues even when its record is in the store; its
        // `worker-lost` record supersedes that one, so it recomputes.
        sched.try_submit(vec![task(4, 9, Some(Fault::KillWorker), &tx)]).unwrap();
        let r = results(&rx, 1).remove(0);
        assert!(r.ok() && !r.cached);
        assert_eq!(r.secs_bits, first.secs_bits);
        assert_eq!(sched.respawned(), 1, "the fault fired");
    }

    #[test]
    fn over_capacity_submission_is_rejected_with_backoff_hint() {
        let (sched, _store) = scheduler(1, 2, "cap");
        let (tx, _rx) = mpsc::channel();
        let err = sched
            .try_submit(vec![task(0, 1, None, &tx), task(1, 2, None, &tx), task(2, 3, None, &tx)])
            .unwrap_err();
        match err {
            SimError::Overloaded { what, retry_after_ms } => {
                assert!(what.contains("capacity 2"), "{what}");
                assert!(retry_after_ms >= 50);
            }
            other => panic!("expected Overloaded, got {other}"),
        }
    }

    #[test]
    fn killed_worker_is_respawned_and_cell_still_completes() {
        let (sched, store) = scheduler(1, 64, "kill");
        let (tx, rx) = mpsc::channel();
        sched.try_submit(vec![task(0, 11, Some(Fault::KillWorker), &tx)]).unwrap();
        drop(tx);
        let res = rx.recv_timeout(Duration::from_secs(30)).expect("cell completes after recovery");
        assert!(res.ok(), "requeued cell succeeds: {}", res.error_kind);
        assert!(!res.cached);
        assert_eq!(sched.respawned(), 1, "one injected fault, one recovery");
        // The journal remembers the loss *and* the eventual success.
        assert_eq!(store.records(), 1, "latest-record-wins leaves the success");
    }

    #[test]
    fn killed_cell_is_requeued_while_the_rest_of_the_job_completes() {
        let (sched, store) = scheduler(2, 64, "kill2");
        let (tx, rx) = mpsc::channel();
        let tasks: Vec<Task> =
            (0..4).map(|i| task(i, 200 + i, (i == 1).then_some(Fault::KillWorker), &tx)).collect();
        let local: Vec<u64> =
            tasks.iter().map(|t| t.spec.run(None).unwrap().seconds.to_bits()).collect();
        sched.try_submit(tasks).unwrap();
        drop(tx);
        let mut bits = vec![None; local.len()];
        for r in results(&rx, local.len()) {
            assert!(r.ok() && !r.cached, "cell {} failed: {}", r.label, r.error_kind);
            assert!(bits[r.index as usize].replace(r.secs_bits).is_none(), "one result per cell");
        }
        let bits: Vec<u64> = bits.into_iter().map(|b| b.expect("every cell reports")).collect();
        assert_eq!(bits, local, "every cell, the requeued one included, keeps local bits");
        assert_eq!(sched.respawned(), 1);
        assert_eq!(sched.queued(), 0);
        assert_eq!(store.records(), 4, "latest-record-wins leaves one success per cell");
    }

    #[test]
    fn draining_scheduler_rejects_new_work() {
        let (sched, _store) = scheduler(1, 8, "drain");
        sched.drain();
        let (tx, _rx) = mpsc::channel();
        let err = sched.try_submit(vec![task(0, 1, None, &tx)]).unwrap_err();
        assert_eq!(err.kind(), "overloaded");
        assert!(err.to_string().contains("draining"), "{err}");
    }
}
