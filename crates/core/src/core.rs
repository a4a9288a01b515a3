//! The cycle loop: allocation/rename, MGU, select/issue, write-back, commit.
//!
//! [`Core::step`] is one simulated cycle, a list of stage methods run in
//! this order:
//!
//! 1. `write_back` — VPU and load results land, the pass-through watchers
//!    copy lanes, and registers that turned ready wake their RS waiters;
//! 2. `commit` — the ROB retires completed µops in program order;
//! 3. `issue_memory` — the LSU issues loads and stores;
//! 4. `refresh_window` — the combination-window scoreboard (SAVE only);
//! 5. `select_issue` — the scheduler selects, the VPUs issue, and finished
//!    VFMAs leave the RS;
//! 6. `generate_masks` — the MGUs make ELMs (SAVE only);
//! 7. `allocate` — the front end cracks, renames and allocates;
//! 8. `end_cycle` — state faults, sanitizer scans, the clock tick and the
//!    fast-forward inert classification;
//!
//! and then `stop`, the one stop path [`Core::advance_to`] shares. A value
//! written back in cycle *t* can wake a dependent in the same cycle
//! (full-latency back-to-back), while a newly allocated VFMA needs one
//! cycle for mask generation before it can enter the combination window —
//! mirroring the paper's pipeline (Fig 3).

use crate::config::{CoreConfig, SchedulerKind};
use crate::diag::{StallCause, StallDiag};
use crate::fault::{self, FaultKind, FaultPlan};
use crate::lsu::{LoadEvent, Lsu};
use crate::mgu;
use crate::replay::{FuncTrace, Recorder};
use crate::sanitizer::{Sanitizer, SanitizerReport};
use crate::rename::{PhysRegFile, RenameTable, ALL_LANES};
use crate::rob::{Rob, RobKind};
use crate::rs::{FmaEntry, Rs, RsEntry, NO_FWD};
use crate::sched;
use crate::stats::CoreStats;
use crate::trace::{TraceEvent, Tracer};
use crate::uop::{crack, FmaPrecision, PhysId, RobId, Uop};
use crate::vpu::{VpuOp, VpuPipeline};
use save_isa::{Inst, Program, VecF32, LANES, NUM_VREGS};
use save_mem::{CoreMemory, UncoreAccess};
use std::collections::VecDeque;
use std::sync::Arc;

/// How many cycles a cancellable core runs between calls of its cancel
/// poll — the "cycle quantum" of cooperative cancellation. An in-flight
/// run reacts to a cancel request within one quantum (plus at most one
/// fast-forward jump, which is bounded by the watchdog horizon).
pub const CANCEL_QUANTUM: u64 = 4096;

/// Result of running a kernel to completion.
#[derive(Clone, Debug)]
pub struct RunOutcome {
    /// Counters for the run.
    pub stats: CoreStats,
    /// `false` if the run hit [`CoreConfig::max_cycles`] or tripped the
    /// retire-progress watchdog.
    pub completed: bool,
    /// Pipeline snapshot explaining *why* the run stopped early; `None`
    /// when `completed` is `true`.
    pub stall: Option<StallDiag>,
    /// Set when the sanitizer (or an internal integrity check) detected an
    /// invariant violation — the run is aborted with `completed == false`.
    pub violation: Option<Box<SanitizerReport>>,
    /// `true` when the run stopped because its cancel poll (see
    /// [`Core::set_cancel`]) answered `true` — cooperative cancellation,
    /// not a stall: `completed == false` and `stall == None`.
    pub cancelled: bool,
}

impl RunOutcome {
    /// Wall-clock execution time in seconds at the configured frequency.
    pub fn seconds(&self, cfg: &CoreConfig) -> f64 {
        cfg.cycles_to_seconds(self.stats.cycles)
    }
}

/// Copies ineffectual-lane values from the accumulator source to the
/// destination as the source lanes become ready (the rename-level move that
/// implements lane pass-through and whole-VFMA skipping).
#[derive(Clone, Copy, Debug)]
struct Watcher {
    src: PhysId,
    dst: PhysId,
    remaining: u16,
}

/// The out-of-order core.
pub struct Core {
    cfg: CoreConfig,
    prf: PhysRegFile,
    rt: RenameTable,
    rob: Rob,
    rs: Rs,
    vpu: VpuPipeline,
    lsu: Lsu,
    watchers: Vec<Watcher>,
    pend: VecDeque<Uop>,
    fma_producer: [Option<RobId>; NUM_VREGS],
    pending_temp: Option<PhysId>,
    stats: CoreStats,
    inst_idx: usize,
    cycle: u64,
    finished: bool,
    arch_vregs: [VecF32; NUM_VREGS],
    uop_commit_limit: Option<u64>,
    tracer: Option<Box<dyn Tracer>>,
    last_alloc_rob: RobId,
    alloc_stalled_until: u64,
    last_commit_cycle: u64,
    san: Option<Box<Sanitizer>>,
    fault_pending: Option<FaultPlan>,
    // The first invariant violation (a model-integrity check or the
    // sanitizer's); it ends the run at the next stop check.
    violation: Option<SanitizerReport>,
    // Functional-trace record/replay (see `crate::replay`). Allocation
    // sequence counters index the trace: the k-th allocated FMA/load is the
    // same static operation under every timing configuration.
    fma_seq: u64,
    load_seq: u64,
    rec: Option<Box<Recorder>>,
    rep: Option<Arc<FuncTrace>>,
    // Reusable per-cycle buffers: the cycle loop allocates nothing in
    // steady state (see DESIGN.md, host performance).
    sx: sched::SelectScratch,
    ops_buf: Vec<VpuOp>,
    vpu_done: Vec<VpuOp>,
    lsu_done: Vec<LoadEvent>,
    stores_buf: Vec<RobId>,
    crack_buf: Vec<Uop>,
    // VFMAs a stage finished this cycle (select's last lane, an MGU's BS
    // skip), awaiting `remove_exits`.
    exits: Vec<RobId>,
    // Event-driven fast-forward state: whether the last step was provably
    // inert, the statistics delta one such inert cycle contributes
    // (replayed verbatim for each skipped cycle), and the cached next-event
    // cycle (valid until the next real step — an inert core's pending
    // events are fixed at issue time, so nothing can move them).
    ff_inert: bool,
    last_delta: CoreStats,
    ff_next: Option<u64>,
    // Cooperative cancellation: an optional poll called every
    // CANCEL_QUANTUM cycles (and after every fast-forward jump). `None`
    // costs one well-predicted branch per cycle.
    cancel: Option<Box<dyn Fn() -> bool + Send>>,
    cancel_countdown: u64,
}

impl Core {
    /// Creates a core in its reset state.
    pub fn new(cfg: CoreConfig) -> Self {
        let mut prf = PhysRegFile::new(cfg.phys_regs);
        let rt = RenameTable::new(&mut prf);
        Core {
            prf,
            rt,
            rob: Rob::new(cfg.rob_entries),
            rs: Rs::new(cfg.rs_entries, cfg.rob_entries, cfg.phys_regs),
            vpu: VpuPipeline::new(),
            lsu: Lsu::new(),
            watchers: Vec::new(),
            pend: VecDeque::new(),
            fma_producer: [None; NUM_VREGS],
            pending_temp: None,
            stats: CoreStats::default(),
            inst_idx: 0,
            cycle: 0,
            finished: false,
            arch_vregs: [VecF32::ZERO; NUM_VREGS],
            uop_commit_limit: None,
            tracer: None,
            last_alloc_rob: 0,
            alloc_stalled_until: 0,
            last_commit_cycle: 0,
            san: if cfg.sanitize.enabled() {
                Some(Box::new(Sanitizer::new(cfg.sanitize)))
            } else {
                None
            },
            // A fault plan without an attached sanitizer would corrupt
            // results with nothing watching; injection is for self-test
            // only, so it requires checking to be enabled.
            fault_pending: if cfg.sanitize.enabled() { cfg.fault } else { None },
            violation: None,
            fma_seq: 0,
            load_seq: 0,
            rec: None,
            rep: None,
            sx: sched::SelectScratch::new(),
            ops_buf: Vec::new(),
            vpu_done: Vec::new(),
            lsu_done: Vec::new(),
            stores_buf: Vec::new(),
            crack_buf: Vec::new(),
            exits: Vec::new(),
            ff_inert: false,
            last_delta: CoreStats::default(),
            ff_next: None,
            cancel: None,
            cancel_countdown: CANCEL_QUANTUM,
            cfg,
        }
    }

    /// Attaches a cancel poll. It is called every [`CANCEL_QUANTUM`]
    /// cycles and once after each fast-forward jump; once it answers
    /// `true`, the run stops with an outcome whose `cancelled` field is
    /// set. Detached cores (the default) never observe cancellation.
    pub fn set_cancel(&mut self, poll: Box<dyn Fn() -> bool + Send>) {
        self.cancel = Some(poll);
        self.cancel_countdown = CANCEL_QUANTUM;
    }

    /// Records an internal model inconsistency (previously a panic on the
    /// run path) as a typed violation; the current step ends the run.
    fn integrity(&mut self, rob: Option<RobId>, witness: String) {
        if self.violation.is_none() {
            self.violation = Some(SanitizerReport {
                invariant: "model-integrity".to_string(),
                cycle: self.cycle,
                rob: rob.map(|r| r as u64),
                witness,
            });
        }
    }

    /// Attaches a pipeline tracer (see [`crate::trace`]). Costs nothing
    /// when unset. Also disables event-driven fast-forward for this core:
    /// skipped inert cycles would be invisible to the tracer, truncating
    /// the event stream (cycle counts and statistics are unaffected either
    /// way — fast-forward is observationally pure for those).
    pub fn set_tracer(&mut self, t: Box<dyn Tracer>) {
        self.tracer = Some(t);
    }

    /// Arms functional-trace recording (see [`crate::replay`]). Recording
    /// only copies out facts the run computes anyway, so a recording run's
    /// timing, statistics and outputs are bit-identical to a plain run.
    pub fn set_record(&mut self) {
        self.rec = Some(Box::new(Recorder::new()));
    }

    /// Finalizes and returns the trace recorded since [`Core::set_record`];
    /// `None` when recording was never armed. Check
    /// [`FuncTrace::replayable`] before reusing the result.
    pub fn take_trace(&mut self) -> Option<FuncTrace> {
        self.rec.take().map(|r| r.finalize())
    }

    /// Attaches a functional trace for replay: loads deliver zero with
    /// their recorded class, MGUs serve recorded masks, and schedulers
    /// elide value math — cycles, [`CoreStats`] and scheduling decisions
    /// are bit-identical to direct execution of the recorded program.
    pub fn set_replay(&mut self, t: Arc<FuncTrace>) {
        self.rep = Some(t);
    }

    fn trace(&mut self, ev: TraceEvent) {
        if let Some(t) = self.tracer.as_mut() {
            t.event(&ev);
        }
    }

    /// The retired (architecturally committed) vector register state — the
    /// state a precise exception at the current commit boundary would
    /// expose (§III, §V-B).
    pub fn arch_vregs(&self) -> &[VecF32; NUM_VREGS] {
        &self.arch_vregs
    }

    /// Runs until exactly `n` µops have committed (or the program drains),
    /// then returns the precise architectural register state at that commit
    /// boundary together with the outcome so far. Used by the
    /// precise-state tests to compare against an in-order reference at
    /// arbitrary exception points.
    pub fn run_until_uops(
        mut self,
        n: u64,
        program: &Program,
        mem: &mut save_isa::Memory,
        cmem: &mut CoreMemory,
        uncore: &mut dyn UncoreAccess,
    ) -> ([VecF32; NUM_VREGS], CoreStats) {
        cmem.set_freq(self.cfg.freq_ghz);
        self.uop_commit_limit = Some(n);
        loop {
            if let Some(_outcome) = self.step(program, mem, cmem, uncore) {
                return (self.arch_vregs, self.stats);
            }
            if self.stats.uops_committed >= n {
                return (self.arch_vregs, self.stats);
            }
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CoreConfig {
        &self.cfg
    }

    /// Runs `program` to completion against the functional memory `mem` and
    /// the timing memory `cmem`/`uncore`. Consumes the core (one run per
    /// reset state).
    pub fn run(
        mut self,
        program: &Program,
        mem: &mut save_isa::Memory,
        cmem: &mut CoreMemory,
        uncore: &mut dyn UncoreAccess,
    ) -> RunOutcome {
        self.run_mut(program, mem, cmem, uncore)
    }

    /// In-place variant of [`Core::run`] for callers that need the core
    /// after the run (e.g. to [`Core::take_trace`] a recorded trace). The
    /// core is spent once the outcome returns — further steps report the
    /// finished outcome.
    pub fn run_mut(
        &mut self,
        program: &Program,
        mem: &mut save_isa::Memory,
        cmem: &mut CoreMemory,
        uncore: &mut dyn UncoreAccess,
    ) -> RunOutcome {
        self.run_until_cycle(u64::MAX, program, mem, cmem, uncore)
            .expect("the cycle budget stops every run before cycle u64::MAX")
    }

    /// Runs the core until its local clock reaches `limit` (or the program
    /// drains / the run aborts — then the outcome is returned). The
    /// relaxed-sync multicore engine calls this once per quantum against a
    /// core-private uncore view; fast-forward jumps are clamped to the
    /// quantum end so the core never runs past the barrier.
    pub fn run_until_cycle(
        &mut self,
        limit: u64,
        program: &Program,
        mem: &mut save_isa::Memory,
        cmem: &mut CoreMemory,
        uncore: &mut dyn UncoreAccess,
    ) -> Option<RunOutcome> {
        cmem.set_freq(self.cfg.freq_ghz);
        while self.cycle < limit {
            if let Some(outcome) = self.step(program, mem, cmem, uncore) {
                return Some(outcome);
            }
            // Event-driven fast-forward: when the cycle above was provably
            // inert, jump straight to the next cycle anything can happen.
            if let Some(target) = self.ff_target() {
                if let Some(outcome) = self.advance_to(target.min(limit)) {
                    return Some(outcome);
                }
            }
        }
        None
    }

    /// `true` once the core has drained the whole program.
    pub fn finished(&self) -> bool {
        self.finished
    }

    /// Statistics so far.
    pub fn stats(&self) -> &CoreStats {
        &self.stats
    }

    /// Advances the core by one cycle; returns the outcome when the run
    /// stops (see `stop`). The multicore machine in `save-sim`
    /// interleaves several cores over a shared [`Uncore`] by calling this
    /// per core per cycle. The stages run in the order the module doc
    /// lists; a stage returns `true` when it changed state that no
    /// work-counting statistic shows (fast-forward's `active` bit).
    pub fn step(
        &mut self,
        program: &Program,
        mem: &mut save_isa::Memory,
        cmem: &mut CoreMemory,
        uncore: &mut dyn UncoreAccess,
    ) -> Option<RunOutcome> {
        if self.finished {
            return self.stop(true, false);
        }
        let cycle = self.cycle;
        let before = self.stats;
        let mut active = self.write_back(cycle);
        active |= self.commit(cycle);
        self.issue_memory(cycle, mem, cmem, uncore);
        self.refresh_window();
        active |= self.select_issue(cycle);
        active |= self.generate_masks(cycle);
        active |= self.allocate(cycle, &program.insts);
        self.end_cycle(cycle, active, &before, mem, cmem);
        self.stop(self.drained(program), false)
    }

    /// Write-back and wake: drained VPU ops write their lanes (handing the
    /// lane-result payloads back to the scheduling scratch for reuse),
    /// completed loads write whole registers, the pass-through watchers
    /// copy newly ready lanes, and every register that turned fully ready
    /// since the last drain (in this write-back, or later in the previous
    /// cycle) wakes the RS entries waiting on it. Nothing writes the PRF
    /// between here and the MGUs, so `ready` holds exactly what polling
    /// the file there would find.
    fn write_back(&mut self, cycle: u64) -> bool {
        self.vpu.drain_completed_into(cycle, &mut self.vpu_done);
        let mut active = !self.vpu_done.is_empty();
        for op in self.vpu_done.drain(..) {
            for r in &op.results {
                self.prf.write_lane(r.dst, r.lane, r.value);
            }
            self.sx.recycle(op.results);
        }
        self.lsu.drain_completed_into(cycle, &mut self.lsu_done);
        active |= !self.lsu_done.is_empty();
        for ev in self.lsu_done.drain(..) {
            self.prf.write_all(ev.dst, ev.value);
        }
        active |= self.run_watchers();
        for p in self.prf.drain_woken() {
            self.rs.wake(p);
        }
        active
    }

    /// Commit: retires up to `commit_width` completed µops in program
    /// order (a fused load does not count against the width), stopping at
    /// the commit limit of [`Core::run_until_uops`].
    fn commit(&mut self, cycle: u64) -> bool {
        let mut active = false;
        let mut committed = 0;
        while committed < self.cfg.commit_width && self.head_ready() {
            if let Some(limit) = self.uop_commit_limit {
                if self.stats.uops_committed >= limit {
                    break;
                }
            }
            let Some(e) = self.rob.pop_head() else {
                self.integrity(
                    None,
                    "commit saw a completed ROB head but the queue was empty".to_string(),
                );
                break;
            };
            active = true;
            if self.tracer.is_some() {
                let seq = e.seq as RobId;
                self.trace(TraceEvent::Commit { cycle, rob: seq });
            }
            // Sanitizer commit checks run before the frees are released
            // so both accumulator registers still hold their values.
            if let Some(s) = self.san.as_mut() {
                s.on_commit(&e, &self.prf, cycle);
            }
            if let Some((vreg, phys)) = e.arch_dst {
                self.arch_vregs[vreg.index()] = *self.prf.value(phys);
            }
            for f in e.frees.into_iter().flatten() {
                self.prf.release(f);
            }
            self.stats.uops_committed += 1;
            self.last_commit_cycle = cycle;
            if !e.fused {
                committed += 1;
            }
        }
        active
    }

    /// Memory issue: the LSU issues loads and stores from the RS ahead of
    /// the VPUs. Stores complete at issue and mark their ROB entries done;
    /// the completion list is core-owned scratch (taken for the duration
    /// of the borrow because `integrity` needs `&mut self`).
    fn issue_memory(
        &mut self,
        cycle: u64,
        mem: &mut save_isa::Memory,
        cmem: &mut CoreMemory,
        uncore: &mut dyn UncoreAccess,
    ) {
        let mut stores_done = std::mem::take(&mut self.stores_buf);
        self.lsu.issue_cycle_bounded(
            &mut self.rs,
            &self.prf,
            mem,
            cmem,
            uncore,
            self.cfg.load_ports,
            self.cfg.load_buffer,
            self.cfg.store_ports,
            self.cfg.freq_ghz,
            cycle,
            &mut self.stats,
            &mut stores_done,
            self.rec.as_deref_mut(),
            self.rep.as_deref(),
        );
        for r in stores_done.drain(..) {
            if !self.rob.mark_done(r) {
                self.integrity(
                    Some(r),
                    format!("store completion targeted rob {r}, which is not in flight"),
                );
            }
        }
        self.stores_buf = stores_done;
    }

    /// Window refresh (SAVE only): re-evaluates the combination-window
    /// scoreboard (one mask evaluation per window member, shared with
    /// select) and samples its size — §III observes 24-28, bounded by the
    /// 32 architectural accumulator registers.
    fn refresh_window(&mut self) {
        if self.cfg.scheduler != SchedulerKind::Baseline {
            sched::window_masks(&self.rs, &self.prf, self.cfg.lane_wise, &mut self.sx);
            let cw = self.sx.window_len() as u64;
            if cw > 0 {
                self.stats.cw_sum += cw;
                self.stats.cw_samples += 1;
            }
        }
    }

    /// Select, VPU issue and RS removal: the configured scheduler picks
    /// this cycle's VPU ops, they enter the VPU pipelines, and the VFMAs
    /// select finished leave the RS (Algorithm 1 lines 12-14; the baseline
    /// select removes what it issues itself).
    fn select_issue(&mut self, cycle: u64) -> bool {
        // Sanitizer: snapshot the vertical-coalescing candidate set for
        // the Algorithm 1 age-order check on cycles where vertical select
        // will run (heavier, so gated on the sanitize stride). The reorder
        // fault lands after the snapshot, which therefore holds the
        // station's true age order.
        if let Some(s) = self.san.as_mut() {
            let vertical_selects = self.cfg.scheduler == SchedulerKind::Vertical
                && !(self.cfg.mp_compress
                    && sched::oldest_window_precision(&self.rs, &self.prf)
                        == Some(FmaPrecision::Bf16));
            if vertical_selects && s.due(cycle) {
                s.snapshot_vc(&self.rs, &self.prf, self.cfg.lane_wise);
                let reorder = self
                    .fault_pending
                    .is_some_and(|p| p.kind == FaultKind::ReorderRsPick && cycle >= p.at_cycle);
                if reorder && sched::swap_oldest_candidates(&self.rs, &mut self.sx) {
                    self.fault_pending = None;
                }
            } else {
                s.clear_snapshot();
            }
        }
        // An issue-path fault needs each candidate's rotation state to
        // mis-rotate a writeback lane; gather before select consumes the
        // entries' masks.
        let issue_fault =
            self.fault_pending.filter(|p| p.kind.targets_issue_path() && cycle >= p.at_cycle);
        let rots: Vec<(RobId, i8)> = if issue_fault.is_some() {
            self.rs
                .iter()
                .filter_map(|e| match e {
                    RsEntry::Fma(f) => Some((f.rob, f.rot)),
                    _ => None,
                })
                .collect()
        } else {
            Vec::new()
        };
        let mut ops = std::mem::take(&mut self.ops_buf);
        sched::select(
            &mut self.rs,
            &self.prf,
            &self.cfg,
            cycle,
            &mut self.stats,
            &mut self.sx,
            &mut ops,
            self.rec.as_deref_mut(),
            self.rep.is_some(),
        );
        if let Some(plan) = issue_fault {
            if fault::apply_issue_fault(plan, &mut ops, &rots) {
                self.fault_pending = None;
            }
        }
        if let Some(s) = self.san.as_mut() {
            s.check_issue(&ops, &self.prf, cycle);
        }
        if ops.is_empty() {
            // Every entry that is not a load or store is a VFMA.
            if self.rs.len() > self.rs.mem_len() {
                self.stats.vpu_idle_not_ready += 1;
            } else {
                self.stats.vpu_idle_no_fma += 1;
            }
        } else {
            self.stats.vpu_busy_cycles += 1;
            for op in ops.drain(..) {
                if self.tracer.is_some() {
                    let mut from: Vec<RobId> = op.results.iter().map(|r| r.rob).collect();
                    from.dedup();
                    let lanes = op.results.len();
                    self.trace(TraceEvent::VpuIssue { cycle, lanes, from });
                }
                self.vpu.issue(op);
            }
        }
        self.ops_buf = ops;
        self.exits.extend_from_slice(self.sx.finished());
        self.remove_exits(cycle)
    }

    /// MGU (SAVE only): generates up to `issue_width` ELMs, oldest first,
    /// moving each VFMA into the window; a VFMA whose masks come out empty
    /// (a whole-VFMA BS skip) leaves the RS at once. Only `ready` entries
    /// are visited, so VFMAs still waiting on operands or already masked
    /// cost the MGUs nothing. Ends with the sanitizer's check that every
    /// finished VFMA has left, before state faults land.
    fn generate_masks(&mut self, cycle: u64) -> bool {
        let mut active = false;
        if self.cfg.scheduler != SchedulerKind::Baseline {
            for _ in 0..self.cfg.issue_width {
                // Generation moves the entry out of `ready`, so the next
                // one is again the first.
                let Some(slot) = self.rs.ready_slots().next() else { break };
                let rob = self.rs.at(slot).rob();
                if self.mgu_generate(slot, cycle) {
                    self.exits.push(rob);
                }
                self.rs.enter_window(slot);
            }
            // Newly created watchers may copy already-ready lanes this cycle.
            self.run_watchers();
            // Capture fresh ELMs before the BS skips leave, so the
            // sanitizer's expectation is the ground-truth mask.
            if let Some(s) = self.san.as_mut() {
                s.sync_elms(&self.rs);
            }
            active = self.remove_exits(cycle);
        }
        if let Some(s) = self.san.as_mut() {
            if s.due(cycle) {
                s.check_no_finished(&self.rs, cycle);
            }
        }
        active
    }

    /// Allocate/rename: cracks instructions into the pending µop queue and
    /// allocates up to `issue_width` µops (a front-end bubble stalls
    /// allocation for its length). Returns `true` when the front end
    /// moved: cracking advances `inst_idx`, and a bubble or an allocation
    /// shortens the queue (a crack-and-allocate cycle that restores its
    /// length still moves `inst_idx`).
    fn allocate(&mut self, cycle: u64, insts: &[Inst]) -> bool {
        let (idx_before, pend_before) = (self.inst_idx, self.pend.len());
        let mut slots = if cycle < self.alloc_stalled_until { 0 } else { self.cfg.issue_width };
        while slots > 0 {
            while self.pend.len() < self.cfg.issue_width && self.inst_idx < insts.len() {
                self.crack_buf.clear();
                crack(&insts[self.inst_idx], &mut self.crack_buf);
                self.inst_idx += 1;
                self.pend.extend(self.crack_buf.drain(..));
            }
            let Some(u) = self.pend.front().copied() else { break };
            if let Uop::Bubble(n) = u {
                // A front-end redirect: fetch restarts after n cycles.
                self.alloc_stalled_until = cycle + 1 + n as u64;
                self.pend.pop_front();
                break;
            }
            if !self.try_allocate(&u) {
                break;
            }
            if self.tracer.is_some() {
                let rob = self.last_alloc_rob;
                self.trace(TraceEvent::Alloc { cycle, rob, what: format!("{u:?}") });
            }
            // An embedded-broadcast load is micro-fused with its VFMA: the
            // pair moves through allocation as one µop.
            let fused_free = matches!(u, Uop::Load { dst: None, .. });
            self.pend.pop_front();
            if !fused_free {
                slots -= 1;
            }
        }
        self.inst_idx != idx_before || self.pend.len() != pend_before
    }

    /// The tail of the cycle: state faults land, the sanitizer scans the
    /// machine, the clock advances, the cycle is classified for
    /// fast-forward, and a sanitizer violation becomes the run's.
    ///
    /// State faults land after allocation and before the scan so a
    /// freed-but-live register is caught this cycle under Full, before a
    /// later allocation could re-grab it and mask the inconsistency. A
    /// cycle is inert when no stage reported `active` AND no work-counting
    /// statistic moved since `before`; idle/stall counters (and the CW
    /// sample) may move — they are exactly what `last_delta` replays for
    /// each skipped cycle. The clock is already advanced, so the cached
    /// next-event target is computed against the next probe cycle.
    fn end_cycle(
        &mut self,
        cycle: u64,
        active: bool,
        before: &CoreStats,
        mem: &save_isa::Memory,
        cmem: &mut CoreMemory,
    ) {
        if let Some(plan) = self.fault_pending {
            if !plan.kind.targets_issue_path()
                && cycle >= plan.at_cycle
                && self.apply_state_fault(plan, cmem)
            {
                self.fault_pending = None;
            }
        }
        if let Some(s) = self.san.as_mut() {
            if s.due(cycle) {
                s.check_state(
                    &self.prf,
                    &self.rt,
                    &self.rob,
                    &self.rs,
                    self.pending_temp,
                    self.cfg.scheduler == SchedulerKind::Baseline,
                    cycle,
                );
                // B$ freshness: audit one entry per scan, round-robin.
                // Under replay the functional arena is empty, so the
                // expected masks come from the trace (the recorder poisons
                // any trace whose line masks went stale).
                if let Some(n) = cmem.bcast_entries() {
                    if n > 0 {
                        let idx = s.next_bcast_idx(n);
                        let stale = match self.rep.as_deref() {
                            Some(t) => cmem.audit_bcast_entry(idx, |line| {
                                t.bcast_lines.get(&line).copied().unwrap_or(0)
                            }),
                            None => cmem.audit_bcast_entry(idx, |line| {
                                crate::lsu::line_zero_mask(mem, line * save_mem::LINE_BYTES)
                            }),
                        };
                        if let Some((line, stored, actual)) = stale {
                            s.report_bcast_stale(cycle, line, stored, actual);
                        }
                    }
                }
            }
        }
        self.cycle = cycle + 1;
        self.stats.cycles = self.cycle;
        self.ff_inert = false;
        self.ff_next = None;
        if self.ff_allowed() {
            let mut d = self.stats.delta_since(before);
            d.cycles = 0;
            let progressed = active
                || d.uops_committed != 0
                || d.fma_uops != 0
                || d.vpu_ops != 0
                || d.vpu_busy_cycles != 0
                || d.lanes_issued != 0
                || d.lanes_effectual != 0
                || d.lanes_total != 0
                || d.fmas_skipped_bs != 0
                || d.mp_mls_issued != 0
                || d.loads_issued != 0
                || d.stores_issued != 0
                || d.bcast_loads != 0
                || d.bcast_hits != 0;
            if !progressed {
                self.ff_inert = true;
                self.last_delta = d;
                self.ff_next = Some(self.compute_ff_target());
            }
        }
        if self.violation.is_none() {
            self.violation = self.san.as_mut().and_then(|s| s.take_violation());
        }
    }

    /// `true` once the whole program is cracked, allocated and committed.
    fn drained(&self, program: &Program) -> bool {
        self.pend.is_empty() && self.inst_idx == program.insts.len() && self.rob.is_empty()
    }

    /// The one stop path, shared by [`Core::step`] and
    /// [`Core::advance_to`]. The first of these that holds ends the run
    /// (and finishes the core): an invariant violation, a drained program
    /// (which reports completion, not cancellation), a cancel request, the
    /// cycle budget, the retire-progress watchdog (work is outstanding yet
    /// nothing has committed for a long time). A stepped cycle calls the
    /// cancel poll on its quantum; an arrival by fast-forward (`jumped`)
    /// calls it at once, since one jump may cross many quanta — that keeps
    /// the reaction bound at one quantum plus one jump, and jumps are
    /// bounded by the watchdog horizon.
    fn stop(&mut self, drained: bool, jumped: bool) -> Option<RunOutcome> {
        let violation = self.violation.take();
        let (completed, cancelled, cause) = if violation.is_some() {
            (false, false, None)
        } else if drained {
            (true, false, None)
        } else if self.cancel_requested(jumped) {
            (false, true, None)
        } else if self.cycle >= self.cfg.max_cycles {
            (false, false, Some(StallCause::CycleBudget))
        } else if self.cycle - self.last_commit_cycle >= self.cfg.watchdog_cycles {
            (false, false, Some(StallCause::NoCommitProgress))
        } else {
            return None;
        };
        self.finished = true;
        Some(RunOutcome {
            stats: self.stats,
            completed,
            stall: cause.map(|c| self.stall_diag(c)),
            violation: violation.map(Box::new),
            cancelled,
        })
    }

    /// Calls the cancel poll — every [`CANCEL_QUANTUM`] calls, or at once
    /// when `now` — and returns its answer.
    fn cancel_requested(&mut self, now: bool) -> bool {
        let Some(poll) = &self.cancel else { return false };
        if !now {
            self.cancel_countdown -= 1;
            if self.cancel_countdown > 0 {
                return false;
            }
            self.cancel_countdown = CANCEL_QUANTUM;
        }
        poll()
    }

    /// Whether event-driven fast-forward may engage at all. Forced off
    /// while a fault plan is configured (faults fire on absolute cycles and
    /// may retry every cycle), a commit limit is active (the precise-state
    /// harness inspects the core at an exact µop boundary), or a tracer is
    /// attached (skipped cycles would be invisible to it, truncating the
    /// event stream). Trace *recording* is unaffected: every recorded fact
    /// comes from MGU/LSU/issue activity, which never occurs in an inert
    /// cycle, so a recording run fast-forwards exactly like a plain one.
    fn ff_allowed(&self) -> bool {
        self.cfg.fast_forward
            && self.cfg.fault.is_none()
            && self.uop_commit_limit.is_none()
            && self.tracer.is_none()
    }

    /// If the core just executed a provably inert cycle, returns the next
    /// cycle at which anything can change: the earliest of VPU completion,
    /// load/store completion, the front-end restart after a bubble, any
    /// mixed-precision partial-result forwarding event, the cycle budget,
    /// and the retire-progress watchdog deadline. Skipping straight there
    /// via [`Core::advance_to`] is observationally pure — every skipped
    /// cycle would have re-executed the probe cycle's no-op exactly.
    ///
    /// Returns `None` when the last cycle did real work (or fast-forward is
    /// disabled), in which case the caller must keep stepping.
    pub fn ff_target(&self) -> Option<u64> {
        if self.finished || !self.ff_inert || !self.ff_allowed() {
            return None;
        }
        // Computed once when the core went inert; still valid because an
        // inert core's pending events were all fixed at issue time.
        self.ff_next
    }

    /// The current cycle (equals `stats().cycles` between steps).
    pub fn cycle(&self) -> u64 {
        self.cycle
    }

    /// The next-event scan behind [`Core::ff_target`] — one pass over the
    /// pipelines and the window, run once per inert transition, not per
    /// cycle.
    fn compute_ff_target(&self) -> u64 {
        // Upper bound: whichever termination deadline comes first. Jumping
        // exactly onto it makes `advance_to` raise the same outcome the
        // stepped run would.
        let mut t = self
            .cfg
            .max_cycles
            .min(self.last_commit_cycle.saturating_add(self.cfg.watchdog_cycles));
        if let Some(c) = self.vpu.next_completion() {
            t = t.min(c);
        }
        if let Some(c) = self.lsu.next_completion() {
            t = t.min(c);
        }
        if self.alloc_stalled_until > self.cycle {
            t = t.min(self.alloc_stalled_until);
        }
        // Partial-result forwarding (§V): a chained Bf16 VFMA becomes
        // schedulable when its predecessor's lane value reaches the forward
        // point. Past-due forwards are excluded — they are already usable
        // and whatever blocks them unlocks only via one of the events above.
        // Only the mixed-precision select sets `fwd_ready`, and only on
        // Bf16 entries of the window, so the window is all there is to
        // walk and FP32 entries are skipped.
        for slot in self.rs.window_slots() {
            if let RsEntry::Fma(f) = self.rs.at(slot) {
                if f.precision != FmaPrecision::Bf16 {
                    continue;
                }
                if let Some(c) = f.next_fwd_event(self.cycle) {
                    t = t.min(c);
                }
            }
        }
        t.max(self.cycle)
    }

    /// Jumps the clock to `target`, replaying the captured inert-cycle
    /// statistics delta once per skipped cycle, then takes the same stop
    /// path (in the same precedence order) that stepping to `target` would
    /// have taken. Only valid directly after a step that left the core
    /// inert (see [`Core::ff_target`]).
    pub fn advance_to(&mut self, target: u64) -> Option<RunOutcome> {
        if target <= self.cycle {
            return None;
        }
        self.stats.add_scaled(&self.last_delta, target - self.cycle);
        self.cycle = target;
        self.stats.cycles = target;
        self.stop(false, true)
    }

    /// Applies a planned state fault, returning `true` when an eligible
    /// target existed (the fault is then spent; otherwise retried next
    /// cycle). Each arm models one specific way real scheduler/rename/ROB
    /// logic goes wrong — see [`FaultKind`].
    fn apply_state_fault(&mut self, plan: FaultPlan, cmem: &mut CoreMemory) -> bool {
        match plan.kind {
            FaultKind::FlipElmBit => {
                let bit = 1u16 << (plan.seed % LANES as u64);
                let target = self.rs.indexed().find_map(|(slot, e)| match e {
                    RsEntry::Fma(f) if f.elm_ready && f.precision == FmaPrecision::F32 => Some(slot),
                    _ => None,
                });
                let Some(slot) = target else { return false };
                if let RsEntry::Fma(f) = self.rs.at_mut(slot) {
                    f.elm ^= bit;
                    f.orig_elm ^= bit;
                }
                true
            }
            FaultKind::DropWakeup => {
                let lane = (plan.seed % LANES as u64) as usize;
                let target = self.rs.iter().find_map(|e| match e {
                    RsEntry::Fma(f) if f.elm_ready => Some(f.a),
                    _ => None,
                });
                match target {
                    Some(a) => {
                        self.prf.corrupt_clear_lane(a, lane);
                        true
                    }
                    None => false,
                }
            }
            FaultKind::CorruptBcastEntry => cmem.corrupt_bcast_entry(),
            FaultKind::FreeLivePhys => {
                let v = save_isa::VReg((plan.seed % NUM_VREGS as u64) as u8);
                let p = self.rt.lookup(v);
                self.prf.force_release(p);
                true
            }
            FaultKind::LeakPhysReg => self.prf.leak_free_reg().is_some(),
            FaultKind::SkipRobRetire => {
                if !self.head_ready() {
                    return false;
                }
                // Drop the completed head without committing it: releases
                // its frees (as a real commit would) but skips the sequence.
                if let Some(e) = self.rob.pop_head() {
                    for f in e.frees.into_iter().flatten() {
                        self.prf.release(f);
                    }
                    true
                } else {
                    false
                }
            }
            FaultKind::CorruptPassthrough => {
                // A signalling-NaN payload no real computation produces, so
                // the bit-exact pass-through compare always trips.
                let poison = f32::from_bits(0x7FC0_DEAD);
                if let Some(w) = self.watchers.iter_mut().find(|w| w.remaining != 0) {
                    let lane = w.remaining.trailing_zeros() as usize;
                    self.prf.write_lane(w.dst, lane, poison);
                    w.remaining &= !(1 << lane);
                    true
                } else {
                    false
                }
            }
            // Issue-path faults are applied by `fault::apply_issue_fault`,
            // the reorder fault by `sched::swap_oldest_candidates`.
            FaultKind::DuplicateLaneResult
            | FaultKind::RotateWritebackLane
            | FaultKind::ReorderRsPick => false,
        }
    }

    /// Removes the finished VFMAs listed in `exits` from the RS (Algorithm 1
    /// lines 12-14, including whole-VFMA BS skips), notifying the sanitizer
    /// in ascending ROB order — program order — so it can verify each
    /// departing VFMA scheduled exactly its ELM. An injected fault may
    /// finish entries behind the model's back, so fault runs ignore the
    /// list and collect every finished VFMA with a full scan instead.
    /// Returns `true` if anything was removed.
    fn remove_exits(&mut self, cycle: u64) -> bool {
        let mut exits = std::mem::take(&mut self.exits);
        if self.cfg.fault.is_some() {
            exits.clear();
            exits.extend(self.rs.iter().filter_map(|e| match e {
                RsEntry::Fma(f) if f.is_finished() => Some(f.rob),
                _ => None,
            }));
        } else {
            exits.sort_unstable();
        }
        if let Some(s) = self.san.as_mut() {
            for &r in &exits {
                s.on_rs_exit(r, cycle);
            }
        }
        self.rs.remove(&exits);
        let removed = !exits.is_empty();
        exits.clear();
        self.exits = exits;
        removed
    }

    /// Captures the pipeline state for a stall report.
    fn stall_diag(&self, cause: StallCause) -> StallDiag {
        let oldest_unretired = self.rob.head().map(|h| {
            format!(
                "seq {} {:?} done={} fused={} arch_dst={:?}",
                h.seq, h.kind, h.done, h.fused, h.arch_dst
            )
        });
        StallDiag {
            cause,
            cycle: self.cycle,
            last_commit_cycle: self.last_commit_cycle,
            rob_occupancy: self.rob.len(),
            rob_capacity: self.cfg.rob_entries,
            rs_occupancy: self.rs.len(),
            rs_capacity: self.cfg.rs_entries,
            loads_in_flight: self.lsu.in_flight(),
            phys_free: self.prf.free_count(),
            oldest_unretired,
            scheduler: self.cfg.scheduler,
            stats: self.stats,
        }
    }

    /// Returns `true` if any watcher copied at least one lane (progress the
    /// fast-forward logic must treat as activity).
    fn run_watchers(&mut self) -> bool {
        let prf = &mut self.prf;
        let mut progressed = false;
        self.watchers.retain_mut(|w| {
            let avail = prf.ready_mask(w.src) & w.remaining;
            if avail != 0 {
                progressed = true;
                let src_val = *prf.value(w.src);
                let mut m = avail;
                while m != 0 {
                    let l = m.trailing_zeros() as usize;
                    m &= !(1 << l);
                    prf.write_lane(w.dst, l, src_val.lane(l));
                }
                w.remaining &= !avail;
            }
            w.remaining != 0
        });
        progressed
    }

    /// Whether the ROB head has completed: its flag for µops that finish
    /// at issue, its destination register for the rest.
    fn head_ready(&self) -> bool {
        self.rob.head().is_some_and(|h| match h.kind {
            RobKind::Flagged => h.done,
            RobKind::WaitDst(p) => self.prf.fully_ready(p),
        })
    }

    /// Generates the ELM of the `ready` VFMA in payload slot `slot` (the
    /// per-entry step of [`Core::generate_masks`]). Returns `true` when
    /// the masks came out empty (a whole-VFMA BS skip): the entry is
    /// finished and must leave the RS.
    fn mgu_generate(&mut self, slot: usize, cycle: u64) -> bool {
        let trace_on = self.tracer.is_some();
        // Watchers are pushed straight into `self.watchers` (a distinct
        // field, so the entry borrow allows it); only the BS-skip trace
        // needs `&mut self` and is emitted after the borrow ends.
        let (done, skipped_rob) = {
            let RsEntry::Fma(f) = self.rs.at_mut(slot) else {
                unreachable!("only VFMAs are ever ready")
            };
            if let Some(t) = self.rep.as_deref() {
                // Replay: operand values are all zero, so the masks must
                // come from the trace — they are what drives coalescing,
                // BS skipping and pass-through, and serving them keeps
                // every downstream decision bit-identical to the
                // recorded run. Readiness gating is unchanged, so mask
                // *generation timing* is identical too.
                let r = t.fma.get(f.seq as usize).copied().unwrap_or(crate::replay::FmaRec {
                    elm: 0,
                    ml: 0,
                });
                f.elm = r.elm;
                f.orig_elm = r.elm;
                if f.precision == FmaPrecision::Bf16 {
                    f.ml = r.ml;
                    f.orig_ml = r.ml;
                }
            } else {
                match f.precision {
                    FmaPrecision::F32 => {
                        let elm = mgu::elm_f32(self.prf.value(f.a), self.prf.value(f.b), f.wm);
                        f.elm = elm;
                        f.orig_elm = elm;
                    }
                    FmaPrecision::Bf16 => {
                        let (ml, al) = mgu::elm_mp(self.prf.value(f.a), self.prf.value(f.b));
                        f.ml = ml;
                        f.orig_ml = ml;
                        f.elm = al;
                        f.orig_elm = al;
                    }
                }
                if let Some(r) = self.rec.as_deref_mut() {
                    r.record_fma(f.seq, f.orig_elm, f.orig_ml);
                }
            }
            f.elm_ready = true;
            self.stats.lanes_effectual += f.orig_elm.count_ones() as u64;
            if f.orig_elm == 0 {
                self.stats.fmas_skipped_bs += 1;
            }
            let passthrough = !f.orig_elm;
            if passthrough != 0 {
                self.watchers.push(Watcher {
                    src: f.acc_src,
                    dst: f.acc_dst,
                    remaining: passthrough,
                });
            }
            (f.is_finished(), (f.orig_elm == 0).then_some(f.rob))
        };
        if trace_on {
            if let Some(rob) = skipped_rob {
                self.trace(TraceEvent::BsSkip { cycle, rob });
            }
        }
        done
    }

    /// Attempts to allocate one µop; returns `false` on a structural stall.
    fn try_allocate(&mut self, u: &Uop) -> bool {
        if self.rob.is_full() {
            self.stats.alloc_stall_rob += 1;
            return false;
        }
        match *u {
            Uop::Zero { dst } => {
                let Some(p) = self.prf.alloc() else {
                    self.stats.alloc_stall_phys += 1;
                    return false;
                };
                self.prf.write_all(p, VecF32::ZERO);
                let prev = self.rt.remap(dst, p);
                self.fma_producer[dst.index()] = None;
                let id =
                    self.rob.push_full(RobKind::Flagged, [Some(prev), None], false, Some((dst, p)));
                self.rob.mark_done(id);
                self.last_alloc_rob = id;
            }
            Uop::SetMask { dst, value } => {
                self.rt.set_kval(dst, value);
                let id = self.rob.push(RobKind::Flagged, [None, None]);
                self.rob.mark_done(id);
                self.last_alloc_rob = id;
            }
            Uop::Scalar => {
                let id = self.rob.push(RobKind::Flagged, [None, None]);
                self.rob.mark_done(id);
                self.last_alloc_rob = id;
            }
            Uop::Bubble(_) => unreachable!("bubbles are consumed by the allocation loop"),
            Uop::Load { dst, addr, value_addr, kind } => {
                if self.rs.is_full() {
                    self.stats.alloc_stall_rs += 1;
                    return false;
                }
                let Some(p) = self.prf.alloc() else {
                    self.stats.alloc_stall_phys += 1;
                    return false;
                };
                let frees = match dst {
                    Some(r) => {
                        let prev = self.rt.remap(r, p);
                        self.fma_producer[r.index()] = None;
                        [Some(prev), None]
                    }
                    None => {
                        self.pending_temp = Some(p);
                        [None, None]
                    }
                };
                let fused = dst.is_none();
                let rob = self.rob.push_full(
                    RobKind::WaitDst(p),
                    frees,
                    fused,
                    dst.map(|r| (r, p)),
                );
                self.last_alloc_rob = rob;
                let seq = self.load_seq;
                self.load_seq += 1;
                self.rs.push(RsEntry::Load(crate::rs::LoadEntry {
                    rob,
                    dst: p,
                    addr,
                    value_addr,
                    kind,
                    seq,
                }));
            }
            Uop::Store { src, addr } => {
                if self.rs.is_full() {
                    self.stats.alloc_stall_rs += 1;
                    return false;
                }
                let rob = self.rob.push(RobKind::Flagged, [None, None]);
                self.last_alloc_rob = rob;
                self.lsu.note_store_alloc(rob, addr);
                self.rs.push(RsEntry::Store(crate::rs::StoreEntry {
                    rob,
                    src: self.rt.lookup(src),
                    addr,
                }));
            }
            Uop::Fma { precision, acc, a, b, b_is_temp, mask, .. } => {
                if self.rs.is_full() {
                    self.stats.alloc_stall_rs += 1;
                    return false;
                }
                if self.prf.free_count() == 0 {
                    self.stats.alloc_stall_phys += 1;
                    return false;
                }
                let a_phys = self.rt.lookup(a);
                let (b_phys, temp_free) = if b_is_temp {
                    let Some(t) = self.pending_temp.take() else {
                        self.integrity(
                            None,
                            "FMA expects a cracked temp but no preceding load produced one"
                                .to_string(),
                        );
                        return false;
                    };
                    (t, Some(t))
                } else {
                    let Some(b_reg) = b else {
                        self.integrity(
                            None,
                            "register-operand FMA cracked without a B register".to_string(),
                        );
                        return false;
                    };
                    (self.rt.lookup(b_reg), None)
                };
                let acc_src = self.rt.lookup(acc);
                let Some(acc_dst) = self.prf.alloc() else {
                    self.stats.alloc_stall_phys += 1;
                    return false;
                };
                let prev = self.rt.remap(acc, acc_dst);
                debug_assert_eq!(prev, acc_src);
                let chain_pred = self.fma_producer[acc.index()]
                    .filter(|&p| self.rob.get_mut(p).is_some());
                let wm = mask.map(|k| self.rt.kval(k)).unwrap_or(ALL_LANES);
                let rot = if self.cfg.rotate && self.cfg.scheduler == SchedulerKind::Vertical {
                    acc.rotation_state()
                } else {
                    0
                };
                let rob = self.rob.push_full(
                    RobKind::WaitDst(acc_dst),
                    [Some(prev), temp_free],
                    false,
                    Some((acc, acc_dst)),
                );
                self.last_alloc_rob = rob;
                if let Some(p) = chain_pred {
                    if let Some(pf) = self.rs.find_fma_mut(p) {
                        pf.chain_succ = Some(rob);
                    }
                }
                self.fma_producer[acc.index()] = Some(rob);
                self.stats.fma_uops += 1;
                self.stats.lanes_total += LANES as u64;
                let seq = self.fma_seq;
                self.fma_seq += 1;
                let entry = FmaEntry {
                    rob,
                    seq,
                    precision,
                    acc_log: acc,
                    rot,
                    acc_src,
                    acc_dst,
                    a: a_phys,
                    b: b_phys,
                    wm,
                    elm_ready: false,
                    elm: 0,
                    orig_elm: 0,
                    ml: 0,
                    orig_ml: 0,
                    chain_pred,
                    chain_succ: None,
                    fwd_base: [0.0; LANES],
                    fwd_ready: [NO_FWD; LANES],
                };
                let baseline = self.cfg.scheduler == SchedulerKind::Baseline;
                if let Some(s) = self.san.as_mut() {
                    s.on_fma_alloc(&entry, baseline);
                }
                // The entry waits on its multiplicands — for the MGU — and,
                // under the baseline, which issues whole vectors, on its
                // accumulator too. Each distinct register not yet fully
                // ready wakes it.
                let mut waits = [0; crate::rs::MAX_WAITS];
                let mut n = 0;
                let needs = [a_phys, b_phys, acc_src];
                for &r in &needs[..if baseline { 3 } else { 2 }] {
                    if !self.prf.fully_ready(r) && !waits[..n].contains(&r) {
                        waits[n] = r;
                        n += 1;
                    }
                }
                self.rs.push_waiting(RsEntry::Fma(entry), &waits[..n]);
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use save_isa::{Inst, Memory, VOperand, VReg};
    use save_mem::{MemConfig, Uncore, WarmLevel};

    fn run_program(cfg: CoreConfig, program: &Program, mem: &mut Memory) -> RunOutcome {
        let mcfg = MemConfig::default();
        let mut uncore = Uncore::new(&mcfg, 1);
        let mut cmem = CoreMemory::new(0, mcfg, cfg.freq_ghz);
        cmem.warm(&mut uncore, 0, mem.size() as u64, WarmLevel::L1);
        let core = Core::new(cfg);
        core.run(program, mem, &mut cmem, &mut uncore)
    }

    /// acc0 += splat(2.0) * [1..16] twice, then store.
    fn tiny_fma_program(mem: &mut Memory) -> Program {
        let b_addr = mem.alloc(64);
        let s_addr = mem.alloc(64);
        let out = mem.alloc(64);
        for i in 0..16 {
            mem.write_f32(b_addr + 4 * i, (i + 1) as f32);
        }
        mem.write_f32(s_addr, 2.0);
        let mut p = Program::new("tiny");
        p.push(Inst::Zero { dst: VReg(0) });
        p.push(Inst::BroadcastLoad { dst: VReg(1), addr: s_addr });
        p.push(Inst::VecLoad { dst: VReg(2), addr: b_addr });
        for _ in 0..2 {
            p.push(Inst::VfmaF32 {
                acc: VReg(0),
                a: VOperand::Reg(VReg(1)),
                b: VOperand::Reg(VReg(2)),
                mask: None,
            });
        }
        p.push(Inst::VecStore { src: VReg(0), addr: out });
        p
    }

    #[test]
    fn baseline_computes_correct_gemm_fragment() {
        let mut mem = Memory::new(0);
        let p = tiny_fma_program(&mut mem);
        let out = 128; // third allocation
        let r = run_program(CoreConfig::baseline(), &p, &mut mem);
        assert!(r.completed);
        for i in 0..16u64 {
            assert_eq!(mem.read_f32(out + 4 * i), 2.0 * (i + 1) as f32 * 2.0);
        }
        assert_eq!(r.stats.fma_uops, 2);
        assert_eq!(r.stats.vpu_ops, 2);
    }

    #[test]
    fn save_matches_baseline_functionally() {
        let mut mem_a = Memory::new(0);
        let p = tiny_fma_program(&mut mem_a);
        run_program(CoreConfig::baseline(), &p, &mut mem_a);
        let mut mem_b = Memory::new(0);
        let p2 = tiny_fma_program(&mut mem_b);
        run_program(CoreConfig::save_2vpu(), &p2, &mut mem_b);
        for i in 0..16u64 {
            assert_eq!(mem_a.read_f32(128 + 4 * i), mem_b.read_f32(128 + 4 * i));
        }
    }

    #[test]
    fn bs_skip_removes_vfma_without_vpu_op() {
        let mut mem = Memory::new(0);
        let b_addr = mem.alloc(64);
        let s_addr = mem.alloc(64);
        let out = mem.alloc(64);
        for i in 0..16 {
            mem.write_f32(b_addr + 4 * i, (i + 1) as f32);
        }
        mem.write_f32(s_addr, 0.0); // broadcast zero
        let mut p = Program::new("bs");
        p.push(Inst::Zero { dst: VReg(0) });
        p.push(Inst::BroadcastLoad { dst: VReg(1), addr: s_addr });
        p.push(Inst::VecLoad { dst: VReg(2), addr: b_addr });
        p.push(Inst::VfmaF32 {
            acc: VReg(0),
            a: VOperand::Reg(VReg(1)),
            b: VOperand::Reg(VReg(2)),
            mask: None,
        });
        p.push(Inst::VecStore { src: VReg(0), addr: out });
        let r = run_program(CoreConfig::save_2vpu(), &p, &mut mem);
        assert!(r.completed);
        assert_eq!(r.stats.vpu_ops, 0, "BS VFMA must not reach a VPU");
        assert_eq!(r.stats.fmas_skipped_bs, 1);
        for i in 0..16u64 {
            assert_eq!(mem.read_f32(out + 4 * i), 0.0);
        }
    }

    #[test]
    fn write_mask_lanes_pass_through() {
        let mut mem = Memory::new(0);
        let b_addr = mem.alloc(64);
        let s_addr = mem.alloc(64);
        let out = mem.alloc(64);
        for i in 0..16 {
            mem.write_f32(b_addr + 4 * i, 1.0);
        }
        mem.write_f32(s_addr, 3.0);
        let mut p = Program::new("masked");
        p.push(Inst::Zero { dst: VReg(0) });
        p.push(Inst::SetMask { dst: save_isa::KReg(1), value: 0x00FF });
        p.push(Inst::BroadcastLoad { dst: VReg(1), addr: s_addr });
        p.push(Inst::VecLoad { dst: VReg(2), addr: b_addr });
        p.push(Inst::VfmaF32 {
            acc: VReg(0),
            a: VOperand::Reg(VReg(1)),
            b: VOperand::Reg(VReg(2)),
            mask: Some(save_isa::KReg(1)),
        });
        p.push(Inst::VecStore { src: VReg(0), addr: out });
        for cfg in [CoreConfig::baseline(), CoreConfig::save_2vpu()] {
            let mut m = mem.clone();
            let r = run_program(cfg, &p, &mut m);
            assert!(r.completed);
            for i in 0..16u64 {
                let expect = if i < 8 { 3.0 } else { 0.0 };
                assert_eq!(m.read_f32(out + 4 * i), expect, "lane {i}");
            }
        }
    }

    #[test]
    fn embedded_broadcast_cracks_and_runs() {
        let mut mem = Memory::new(0);
        let b_addr = mem.alloc(64);
        let s_addr = mem.alloc(64);
        let out = mem.alloc(64);
        for i in 0..16 {
            mem.write_f32(b_addr + 4 * i, 2.0);
        }
        mem.write_f32(s_addr, 4.0);
        let mut p = Program::new("embedded");
        p.push(Inst::Zero { dst: VReg(0) });
        p.push(Inst::VecLoad { dst: VReg(2), addr: b_addr });
        p.push(Inst::VfmaF32 {
            acc: VReg(0),
            a: VOperand::Reg(VReg(2)),
            b: VOperand::MemBcast(s_addr),
            mask: None,
        });
        p.push(Inst::VecStore { src: VReg(0), addr: out });
        let r = run_program(CoreConfig::save_2vpu(), &p, &mut mem);
        assert!(r.completed);
        assert_eq!(mem.read_f32(out), 8.0);
        // Load µop + FMA µop + others all committed.
        assert!(r.stats.uops_committed >= 5);
    }
}
