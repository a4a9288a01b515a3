//! Bounded work-stealing worker pool with panic isolation and respawn.
//!
//! The daemon's execution engine: admitted cells are distributed
//! round-robin over per-worker deques; an idle worker first drains its own
//! deque from the front, then steals from the *back* of a sibling's (the
//! classic stealing discipline — owners and thieves contend on opposite
//! ends). Admission control is a single atomic budget: a job whose cells
//! would push the admitted count past `capacity` is rejected with a
//! retry-after hint instead of being buffered without bound.
//!
//! A worker resolves each cell through the daemon's
//! [`save_sim::durable::Executor`], the path every local sweep takes too:
//! claim the key in the result store (a hit is served from it), run under
//! the retry policy, journal the record.
//!
//! Crash tolerance: a per-cell panic is already absorbed by
//! [`save_sim::durable::run_cell`]'s isolation boundary. What that cannot
//! absorb is the worker *thread* dying — emulated here by
//! [`Fault::KillWorker`], which panics **before** the cell is claimed. A
//! monitor thread notices the dead worker, reaps it, journals a
//! `worker-lost` record for the in-flight cell (failed-but-retryable
//! history), requeues the cell with the fault cleared, and respawns a
//! replacement worker — the job still completes, and `workers_respawned`
//! counts the incident.

use crate::protocol::{CellResult, Fault};
use save_sim::durable::Executor;
use save_sim::{CellRecord, CellSpec, SimError};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// One admitted cell: everything a worker needs to execute it and report
/// the result back to the submitting connection.
#[derive(Clone)]
pub struct Task {
    /// Daemon-assigned job id (for log attribution).
    pub job: u64,
    /// Index within the job's cell vector.
    pub index: u64,
    /// Client-chosen label, echoed in the result.
    pub label: String,
    /// The cell to simulate.
    pub spec: CellSpec,
    /// Result-store key ([`CellSpec::cache_key`]).
    pub key: u64,
    /// Crash-test fault, if any (cleared when the monitor requeues).
    pub fault: Option<Fault>,
    /// Where the result goes (the submitting connection's channel).
    pub tx: Sender<CellResult>,
}

struct WorkerSlot {
    deque: Mutex<VecDeque<Task>>,
    /// The task the worker is executing right now — what the monitor
    /// recovers when the worker dies.
    current: Mutex<Option<Task>>,
    /// Set by a worker before a *voluntary* exit (drain/shutdown) so the
    /// monitor can tell it from a crash.
    exited_clean: AtomicBool,
}

struct Ctx {
    slots: Vec<Arc<WorkerSlot>>,
    handles: Mutex<Vec<Option<JoinHandle<()>>>>,
    /// Cells admitted but not yet completed (queued + executing).
    queued: AtomicUsize,
    capacity: usize,
    rr: AtomicUsize,
    park: Mutex<()>,
    park_cv: Condvar,
    /// Stop admitting; workers exit once no work remains.
    draining: AtomicBool,
    /// Hard stop for Drop: workers exit at the next boundary.
    shutdown: AtomicBool,
    respawned: AtomicU64,
    exec: Executor,
}

/// Locks `m`, recovering from poison — worker panics are expected events
/// here, and every guarded structure is valid at all times (the panic
/// sites never hold these locks mid-update).
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

impl Ctx {
    fn pop_task(&self, me: usize) -> Option<Task> {
        if let Some(t) = lock_recover(&self.slots[me].deque).pop_front() {
            return Some(t);
        }
        let n = self.slots.len();
        for off in 1..n {
            let j = (me + off) % n;
            if let Some(t) = lock_recover(&self.slots[j].deque).pop_back() {
                return Some(t);
            }
        }
        None
    }

    fn wake_all(&self) {
        let _g = lock_recover(&self.park);
        self.park_cv.notify_all();
    }

    /// Executes one task end to end and sends exactly one result. May
    /// panic (by design) on an injected [`Fault::KillWorker`] — that panic
    /// happens *before* the store claim, so a dying worker never leaks one.
    fn execute(self: &Arc<Self>, task: &Task) {
        if let Some(Fault::KillWorker) = task.fault {
            // Escapes run_cell's per-cell isolation on purpose: this is
            // "the worker process died", not "the cell errored".
            panic!("injected fault: worker killed while running {}", task.label);
        }
        let (rec, cached) =
            match self.exec.resolve(&task.label, task.index as usize, &task.spec, task.key, None) {
                Ok(cell) if cell.served => (CellRecord { attempts: 0, ..cell.rec }, true),
                Ok(cell) => (cell.rec, false),
                Err(e) => (CellRecord::failure(task.key, &e, 0), false),
            };
        Self::send(task, rec, cached);
    }

    /// Sends `task`'s one result, carrying `rec`. The client may have
    /// disconnected; the result is journaled either way, so a resubmission
    /// is a store hit.
    fn send(task: &Task, rec: CellRecord, cached: bool) {
        let _ = task.tx.send(CellResult {
            label: task.label.clone(),
            index: task.index,
            key: task.key,
            secs_bits: rec.secs_bits,
            cycles: rec.cycles,
            attempts: rec.attempts,
            error_kind: rec.error_kind,
            cached,
        });
    }

    fn worker_loop(self: Arc<Self>, me: usize) {
        loop {
            if self.shutdown.load(Ordering::SeqCst) {
                break;
            }
            match self.pop_task(me) {
                Some(t) => {
                    *lock_recover(&self.slots[me].current) = Some(t.clone());
                    self.execute(&t);
                    *lock_recover(&self.slots[me].current) = None;
                    self.queued.fetch_sub(1, Ordering::SeqCst);
                }
                None => {
                    if self.draining.load(Ordering::SeqCst) {
                        break;
                    }
                    let g = lock_recover(&self.park);
                    let _ = self
                        .park_cv
                        .wait_timeout(g, Duration::from_millis(20))
                        .unwrap_or_else(|p| p.into_inner());
                }
            }
        }
        self.slots[me].exited_clean.store(true, Ordering::SeqCst);
    }

    fn spawn_worker(self: &Arc<Self>, me: usize) -> JoinHandle<()> {
        let ctx = Arc::clone(self);
        thread::Builder::new()
            .name(format!("save-serve-worker-{me}"))
            .spawn(move || ctx.worker_loop(me))
            .expect("spawn worker thread")
    }

    /// The respawn monitor: reaps crashed workers, journals the in-flight
    /// cell as `worker-lost` (failed, retryable), requeues it with the
    /// fault cleared, and brings up a replacement.
    fn monitor_loop(self: Arc<Self>) {
        while !self.shutdown.load(Ordering::SeqCst) {
            for i in 0..self.slots.len() {
                let finished = lock_recover(&self.handles)[i]
                    .as_ref()
                    .map(|h| h.is_finished())
                    .unwrap_or(false);
                if !finished || self.slots[i].exited_clean.load(Ordering::SeqCst) {
                    continue;
                }
                // A worker died without announcing a clean exit: reap it.
                let handle = lock_recover(&self.handles)[i].take();
                if let Some(h) = handle {
                    let _ = h.join();
                }
                self.respawned.fetch_add(1, Ordering::SeqCst);
                if let Some(mut t) = lock_recover(&self.slots[i].current).take() {
                    let lost = SimError::WorkerLost { what: t.label.clone() };
                    if let Some(store) = &self.exec.store {
                        if let Err(e) = store.record(CellRecord::failure(t.key, &lost, 1)) {
                            eprintln!("save-serve: journal worker-lost failed: {e}");
                        }
                    }
                    eprintln!(
                        "save-serve: worker {i} died while running {}; requeued, respawning",
                        t.label
                    );
                    t.fault = None;
                    lock_recover(&self.slots[i].deque).push_front(t);
                } else {
                    eprintln!("save-serve: worker {i} died while idle; respawning");
                }
                lock_recover(&self.handles)[i] = Some(self.spawn_worker(i));
                self.wake_all();
            }
            thread::sleep(Duration::from_millis(5));
        }
    }
}

/// See module docs.
pub struct Scheduler {
    ctx: Arc<Ctx>,
    monitor: Mutex<Option<JoinHandle<()>>>,
}

impl Scheduler {
    /// Spawns `workers` worker threads plus the respawn monitor.
    /// `capacity` bounds admitted-but-incomplete cells; `exec` resolves
    /// each one (its store also receives the monitor's `worker-lost`
    /// records).
    pub fn new(workers: usize, capacity: usize, exec: Executor) -> Self {
        let workers = workers.max(1);
        let slots = (0..workers)
            .map(|_| {
                Arc::new(WorkerSlot {
                    deque: Mutex::new(VecDeque::new()),
                    current: Mutex::new(None),
                    exited_clean: AtomicBool::new(false),
                })
            })
            .collect();
        let ctx = Arc::new(Ctx {
            slots,
            handles: Mutex::new(Vec::new()),
            queued: AtomicUsize::new(0),
            capacity: capacity.max(1),
            rr: AtomicUsize::new(0),
            park: Mutex::new(()),
            park_cv: Condvar::new(),
            draining: AtomicBool::new(false),
            shutdown: AtomicBool::new(false),
            respawned: AtomicU64::new(0),
            exec,
        });
        {
            let mut handles = lock_recover(&ctx.handles);
            for i in 0..workers {
                handles.push(Some(ctx.spawn_worker(i)));
            }
        }
        let mctx = Arc::clone(&ctx);
        let monitor = thread::Builder::new()
            .name("save-serve-monitor".into())
            .spawn(move || mctx.monitor_loop())
            .expect("spawn monitor thread");
        Scheduler { ctx, monitor: Mutex::new(Some(monitor)) }
    }

    /// Admits `tasks` atomically (all or nothing). On overload, returns
    /// [`SimError::Overloaded`] with a backoff hint proportional to the
    /// excess — the admission-control contract: the daemon *rejects*
    /// loudly rather than buffering without bound.
    pub fn try_submit(&self, tasks: Vec<Task>) -> Result<(), SimError> {
        if self.ctx.draining.load(Ordering::SeqCst) {
            return Err(SimError::Overloaded {
                what: "daemon is draining".into(),
                retry_after_ms: 0,
            });
        }
        let n = tasks.len();
        let mut cur = self.ctx.queued.load(Ordering::SeqCst);
        loop {
            if cur + n > self.ctx.capacity {
                let excess = (cur + n - self.ctx.capacity) as u64;
                return Err(SimError::Overloaded {
                    what: format!(
                        "queue full: {cur} admitted + {n} submitted exceeds capacity {}",
                        self.ctx.capacity
                    ),
                    retry_after_ms: (25 * excess).clamp(50, 2000),
                });
            }
            match self.ctx.queued.compare_exchange(
                cur,
                cur + n,
                Ordering::SeqCst,
                Ordering::SeqCst,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        let workers = self.ctx.slots.len();
        for t in tasks {
            let slot = self.ctx.rr.fetch_add(1, Ordering::SeqCst) % workers;
            lock_recover(&self.ctx.slots[slot].deque).push_back(t);
        }
        self.ctx.wake_all();
        Ok(())
    }

    /// Cells admitted but not yet completed.
    pub fn queued(&self) -> usize {
        self.ctx.queued.load(Ordering::SeqCst)
    }

    /// Workers lost to crashes and respawned.
    pub fn respawned(&self) -> u64 {
        self.ctx.respawned.load(Ordering::SeqCst)
    }

    /// Whether the scheduler is draining.
    pub fn draining(&self) -> bool {
        self.ctx.draining.load(Ordering::SeqCst)
    }

    /// Stops admission; workers finish all admitted cells, then exit.
    pub fn drain(&self) {
        self.ctx.draining.store(true, Ordering::SeqCst);
        self.ctx.wake_all();
    }

    /// Whether every admitted cell has completed.
    pub fn is_idle(&self) -> bool {
        self.queued() == 0
    }

    /// Hard stop: workers exit at their next boundary (in-flight cells
    /// still finish — cells are only abandoned via cancellation), monitor
    /// and workers are joined. Idempotent.
    pub fn shutdown(&self) {
        self.ctx.shutdown.store(true, Ordering::SeqCst);
        self.ctx.wake_all();
        if let Some(m) = lock_recover(&self.monitor).take() {
            let _ = m.join();
        }
        let handles: Vec<JoinHandle<()>> =
            lock_recover(&self.ctx.handles).iter_mut().filter_map(|h| h.take()).collect();
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Scheduler {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use save_sim::cancel::Supervisor;
    use save_sim::runner::{ConfigKind, MachineConfig};
    use save_sim::{ResultStore, SupervisorHandle};
    use std::sync::mpsc;

    /// A scheduler over a fresh store, with the default retry policy.
    fn scheduler(
        workers: usize,
        capacity: usize,
        sup: SupervisorHandle,
        tag: &str,
    ) -> (Scheduler, Arc<ResultStore>) {
        let store = Arc::new(ResultStore::open(&tmpdir(tag), true).unwrap());
        let exec = Executor { store: Some(Arc::clone(&store)), ..Executor::new(sup) };
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

    fn task(i: u64, seed: u64, fault: Option<Fault>, tx: &Sender<CellResult>) -> Task {
        let spec = tiny_spec(seed);
        Task {
            job: 0,
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
        let sup = Supervisor::start(false);
        let (sched, store) = scheduler(2, 64, sup.handle(), "memo");
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
        // The result is sent before the admitted-count decrement; give the
        // worker a moment to retire the task.
        let start = std::time::Instant::now();
        while sched.queued() != 0 {
            assert!(start.elapsed() < Duration::from_secs(5), "queued count never drained");
            thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn over_capacity_submission_is_rejected_with_backoff_hint() {
        let sup = Supervisor::start(false);
        let (sched, _store) = scheduler(1, 2, sup.handle(), "cap");
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
        let sup = Supervisor::start(false);
        let (sched, store) = scheduler(1, 64, sup.handle(), "kill");
        let (tx, rx) = mpsc::channel();
        sched.try_submit(vec![task(0, 11, Some(Fault::KillWorker), &tx)]).unwrap();
        drop(tx);
        let res = rx.recv_timeout(Duration::from_secs(30)).expect("cell completes after respawn");
        assert!(res.ok(), "requeued cell succeeds: {}", res.error_kind);
        assert!(!res.cached);
        assert!(sched.respawned() >= 1, "the worker death was observed");
        // The journal remembers the loss *and* the eventual success.
        assert_eq!(store.records(), 1, "latest-record-wins leaves the success");
    }

    #[test]
    fn draining_scheduler_rejects_new_work() {
        let sup = Supervisor::start(false);
        let (sched, _store) = scheduler(1, 8, sup.handle(), "drain");
        sched.drain();
        let (tx, _rx) = mpsc::channel();
        let err = sched.try_submit(vec![task(0, 1, None, &tx)]).unwrap_err();
        assert_eq!(err.kind(), "overloaded");
        assert!(err.to_string().contains("draining"), "{err}");
    }
}
