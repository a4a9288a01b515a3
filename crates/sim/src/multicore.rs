//! The one kernel executor: N simulated cores ("lanes") over an uncore.
//!
//! Both machine modes are the same machine with a different lane count:
//!
//! * **symmetric** — one lane against its 1/N share of the uncore
//!   ([`Uncore::new_symmetric`]), run to completion with the same
//!   step/fast-forward loop as [`Core::run_mut`];
//! * **detailed** — one lane per core over the shared NUCA L3 slices, mesh
//!   and DRAM channels ([`Uncore::new`]). Each core runs its own instance of
//!   the kernel (data-parallel tiles, as DNNL parallelizes a layer across
//!   cores) with a distinct data seed; the shared structures see each
//!   core's buffers as distinct physical memory. The kernel's wall-clock
//!   time is the slowest core's finish time — exactly how a parallel layer
//!   completes.
//!
//! Detailed mode has two engines over the same [`Lane`]s (DESIGN.md §5i):
//!
//! * **lockstep** (`mc.quantum == 1`, the default) — cores are interleaved
//!   cycle by cycle on one host thread, every uncore access hits shared
//!   state immediately;
//! * **relaxed** (`mc.quantum > 1`, [`crate::relaxed`]) — each core runs a
//!   quantum of cycles against a private uncore view, then all logs replay
//!   into the shared uncore at a deterministic barrier.
//!
//! [`crate::CellSpec::run`], [`crate::CellSpec::run_traced`] and
//! [`crate::run_kernel_full`] all delegate to [`execute`].

use crate::cancel::CancelToken;
use crate::error::SimError;
use crate::runner::{warm_regions, KernelResult, KernelRun, MachineConfig, MachineMode};
use crate::trace::{CoreTrace, KernelTrace, TraceMode};
use save_core::{Core, CoreConfig, RunOutcome};
use save_isa::Memory;
use save_kernels::{BuiltKernel, GemmWorkload};
use save_mem::{CoreMemory, Uncore, UncoreAccess};
use std::sync::Arc;

/// What one core executes from: its own built kernel (direct and record
/// modes) or its slice of a recorded trace plus an empty functional arena
/// (replay never touches memory values).
pub(crate) enum LaneExec {
    /// A freshly built kernel with its functional arena.
    Built(Box<BuiltKernel>),
    /// A recorded trace (shared by all lanes; this lane reads
    /// `trace.cores[idx]`).
    Replay {
        /// The whole-machine trace.
        trace: Arc<KernelTrace>,
        /// Empty functional arena (replay reads no memory values).
        mem: Memory,
    },
}

/// One simulated core with everything it needs to run: the core, its
/// private memory, its program/arena and (once done) its outcome. The
/// symmetric machine runs one lane; the lockstep and relaxed engines drive
/// one per core.
pub(crate) struct Lane {
    /// Core index == mesh tile index.
    pub(crate) idx: usize,
    pub(crate) core: Core,
    pub(crate) cmem: CoreMemory,
    pub(crate) exec: LaneExec,
    pub(crate) outcome: Option<RunOutcome>,
}

impl Lane {
    /// Advances the lane one cycle against `uncore` (lockstep engine).
    fn step(&mut self, uncore: &mut dyn UncoreAccess) -> Option<RunOutcome> {
        match &mut self.exec {
            LaneExec::Built(bk) => {
                self.core.step(&bk.program, &mut bk.mem, &mut self.cmem, uncore)
            }
            LaneExec::Replay { trace, mem } => {
                self.core.step(&trace.cores[self.idx].program, mem, &mut self.cmem, uncore)
            }
        }
    }

    /// Runs the lane until its local clock reaches `limit` (see
    /// [`Core::run_until_cycle`]): a quantum in the relaxed engine, the
    /// whole run (`u64::MAX`) in symmetric mode. No-op once the outcome is
    /// set.
    pub(crate) fn run_until(&mut self, limit: u64, uncore: &mut dyn UncoreAccess) {
        if self.outcome.is_some() {
            return;
        }
        let res = match &mut self.exec {
            LaneExec::Built(bk) => self.core.run_until_cycle(
                limit,
                &bk.program,
                &mut bk.mem,
                &mut self.cmem,
                uncore,
            ),
            LaneExec::Replay { trace, mem } => self.core.run_until_cycle(
                limit,
                &trace.cores[self.idx].program,
                mem,
                &mut self.cmem,
                uncore,
            ),
        };
        self.outcome = res;
    }
}

/// Builds `n` lanes: validates nothing (callers validate configs),
/// builds/replays the per-core kernels and applies the §VI warm-up policy
/// against the uncore in core order — identical for both engines, so
/// warm-up state never depends on the engine choice.
fn setup_lanes(
    w: &GemmWorkload,
    cfg: CoreConfig,
    machine: &MachineConfig,
    seed: u64,
    n: usize,
    mode: &Option<TraceMode<'_>>,
    uncore: &mut Uncore,
) -> Result<Vec<Lane>, SimError> {
    let mut lanes = Vec::with_capacity(n);
    match mode {
        Some(TraceMode::Replay { trace }) => {
            if trace.cores.len() != n {
                return Err(SimError::Protocol {
                    what: format!(
                        "kernel trace has {} cores, machine has {n}",
                        trace.cores.len()
                    ),
                });
            }
            for (c, tc) in trace.cores.iter().enumerate() {
                let mut core = Core::new(cfg);
                let mut cm = CoreMemory::new(c, machine.mem, cfg.freq_ghz);
                warm_regions(w, &tc.regions, &mut cm, uncore);
                core.set_replay(Arc::clone(&tc.func));
                lanes.push(Lane {
                    idx: c,
                    core,
                    cmem: cm,
                    exec: LaneExec::Replay { trace: Arc::clone(trace), mem: Memory::new(0) },
                    outcome: None,
                });
            }
        }
        other => {
            for c in 0..n {
                let built = w.build(seed.wrapping_add(c as u64));
                let mut core = Core::new(cfg);
                let mut cm = CoreMemory::new(c, machine.mem, cfg.freq_ghz);
                warm_regions(w, &built.regions, &mut cm, uncore);
                if matches!(other, Some(TraceMode::Record { .. })) {
                    core.set_record();
                }
                lanes.push(Lane {
                    idx: c,
                    core,
                    cmem: cm,
                    exec: LaneExec::Built(Box::new(built)),
                    outcome: None,
                });
            }
        }
    }
    Ok(lanes)
}

/// The serial lockstep engine: cores are interleaved cycle by cycle over
/// the shared uncore. This is the `quantum == 1` degenerate case of the
/// relaxed protocol (a barrier every cycle) and the bit-exactness oracle
/// the relaxed engine is tested against.
fn run_lockstep(lanes: &mut [Lane], uncore: &mut Uncore) {
    let mut remaining = lanes.iter().filter(|l| l.outcome.is_none()).count();
    while remaining > 0 {
        for lane in lanes.iter_mut() {
            if lane.outcome.is_some() {
                continue;
            }
            // Per-core single-cycle skip: an inert core whose next event is
            // still in the future would execute a provable no-op this cycle
            // (it touches no shared state), so replay its inert delta for
            // one cycle instead of stepping it. This is what keeps mixed
            // rounds cheap — typically only one core is actually active
            // while the rest wait on DRAM.
            let skip = lane.core.ff_target().is_some_and(|t| t > lane.core.cycle());
            let res = if skip {
                let next = lane.core.cycle() + 1;
                lane.core.advance_to(next)
            } else {
                lane.step(uncore)
            };
            if let Some(out) = res {
                lane.outcome = Some(out);
                remaining -= 1;
            }
        }
        // Event-driven fast-forward, in lockstep: the shared uncore is
        // time-stamped by core clocks, so cores must stay cycle-aligned.
        // Only when EVERY unfinished core just executed an inert cycle may
        // the machine jump, and then only to the earliest next event across
        // cores — any core's earlier event would re-engage the others.
        let mut target: Option<u64> = None;
        let mut all_inert = true;
        for lane in lanes.iter() {
            if lane.outcome.is_some() {
                continue;
            }
            match lane.core.ff_target() {
                Some(t) => target = Some(target.map_or(t, |m| m.min(t))),
                None => {
                    all_inert = false;
                    break;
                }
            }
        }
        if all_inert {
            if let Some(t) = target {
                for lane in lanes.iter_mut() {
                    if lane.outcome.is_some() {
                        continue;
                    }
                    if let Some(out) = lane.core.advance_to(t) {
                        lane.outcome = Some(out);
                        remaining -= 1;
                    }
                }
            }
        }
    }
}

/// Runs `w` on `machine` and returns the slowest lane's result. In
/// symmetric mode that is the single lane; in detailed mode, the slowest of
/// `machine.cores` lanes. `mode` selects direct execution (`None`), trace
/// recording, or trace replay. See [`crate::run_kernel_full`] for the
/// errors.
pub(crate) fn execute(
    w: &GemmWorkload,
    cfg: CoreConfig,
    machine: &MachineConfig,
    seed: u64,
    verify: bool,
    cancel: Option<&CancelToken>,
    mode: Option<TraceMode<'_>>,
) -> Result<KernelRun, SimError> {
    cfg.validate().map_err(|what| SimError::InvalidConfig { what })?;
    machine.mem.validate().map_err(|what| SimError::InvalidConfig { what })?;
    machine.mc.validate().map_err(|what| SimError::InvalidConfig { what })?;
    let detailed = machine.mode == MachineMode::Detailed;
    let (mut uncore, n) = if detailed {
        let n = machine.cores.max(1);
        (Uncore::new(&machine.mem, n), n)
    } else {
        (Uncore::new_symmetric(&machine.mem, machine.cores), 1)
    };
    let mut lanes = setup_lanes(w, cfg, machine, seed, n, &mode, &mut uncore)?;
    if let Some(tok) = cancel {
        for lane in &mut lanes {
            let tok = tok.clone();
            lane.core.set_cancel(Box::new(move || tok.is_cancelled()));
        }
    }
    if !detailed {
        lanes[0].run_until(u64::MAX, &mut uncore);
    } else if machine.mc.quantum > 1 {
        crate::relaxed::run_relaxed(
            &mut lanes,
            &mut uncore,
            machine.mc.quantum,
            machine.mc.threads,
        );
    } else {
        run_lockstep(&mut lanes, &mut uncore);
    }
    finalize(w, cfg, lanes, &uncore, verify, mode, detailed)
}

/// Turns finished lanes into the run verdict: cancellation first, then
/// per-core violations/stalls, then verification + trace admission, then
/// the slowest core's timing. Shared by both modes and engines; errors name
/// the offending core only in `detailed` mode.
fn finalize(
    w: &GemmWorkload,
    cfg: CoreConfig,
    lanes: Vec<Lane>,
    uncore: &Uncore,
    verify: bool,
    mode: Option<TraceMode<'_>>,
    detailed: bool,
) -> Result<KernelRun, SimError> {
    let tag = |lane: &Lane| detailed.then_some(lane.idx);
    // Cancellation outranks every other verdict: a machine whose cores were
    // told to stop produced no meaningful timing, and the caller needs the
    // dedicated error to journal/exit correctly.
    if lanes.iter().filter_map(|l| l.outcome.as_ref()).any(|o| o.cancelled) {
        return Err(SimError::Cancelled { what: w.name.clone() });
    }
    // A core that aborted (sanitizer) or stalled (watchdog or budget)
    // poisons the whole run: the layer never finishes. Report the first
    // such core's evidence.
    for lane in &lanes {
        let o = lane.outcome.as_ref().expect("engine filled every outcome");
        if let Some(report) = &o.violation {
            return Err(SimError::InvariantViolation {
                kernel: w.name.clone(),
                core: tag(lane),
                report: report.clone(),
            });
        }
        if !o.completed {
            let Some(diag) = o.stall.clone() else {
                return Err(SimError::Io {
                    what: format!(
                        "core {} stopped without a stall diagnosis or violation report",
                        lane.idx
                    ),
                });
            };
            return Err(SimError::CycleBudgetExceeded {
                kernel: w.name.clone(),
                core: tag(lane),
                diag: Box::new(diag),
            });
        }
    }
    let check_lane = |lane: &Lane| -> Result<(), SimError> {
        if let LaneExec::Built(b) = &lane.exec {
            if let Err((i, got, want)) = b.verify() {
                return Err(SimError::VerifyMismatch {
                    kernel: w.name.clone(),
                    core: tag(lane),
                    index: i,
                    got,
                    want,
                });
            }
        }
        Ok(())
    };
    let slowest = lanes
        .iter()
        .filter_map(|l| l.outcome.as_ref())
        .max_by_key(|o| o.stats.cycles)
        .cloned()
        .expect("at least one core");
    let verified = match &mode {
        // A recording run always checks every core's output before the
        // per-core traces are admitted as a set.
        Some(TraceMode::Record { store, key }) => {
            for lane in &lanes {
                check_lane(lane)?;
            }
            let mut lanes = lanes;
            let funcs: Vec<_> = lanes.iter_mut().map(|l| l.core.take_trace()).collect();
            if funcs.iter().all(|f| f.as_ref().is_some_and(|t| t.replayable)) {
                let per_core = lanes
                    .into_iter()
                    .zip(funcs)
                    .map(|(lane, f)| {
                        let LaneExec::Built(b) = lane.exec else {
                            unreachable!("record implies built lanes");
                        };
                        let b = *b;
                        CoreTrace {
                            program: b.program,
                            regions: b.regions,
                            func: Arc::new(f.expect("all checked Some above")),
                        }
                    })
                    .collect();
                store.insert(*key, KernelTrace { cores: per_core });
            }
            verify
        }
        // Replay has no functional output; the trace verified at record.
        Some(TraceMode::Replay { .. }) => verify,
        None => {
            if verify {
                for lane in &lanes {
                    check_lane(lane)?;
                }
                true
            } else {
                false
            }
        }
    };
    Ok(KernelRun {
        result: KernelResult {
            seconds: cfg.cycles_to_seconds(slowest.stats.cycles),
            cycles: slowest.stats.cycles,
            stats: slowest.stats,
            verified,
            completed: slowest.completed,
        },
        uncore: uncore.report(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::ConfigKind;
    use crate::spec::CellSpec;
    use crate::trace::TraceStore;
    use save_kernels::{BroadcastPattern, GemmKernelSpec, Precision};

    fn tiny() -> GemmWorkload {
        GemmWorkload::dense(
            "mc",
            GemmKernelSpec {
                m_tiles: 4,
                n_vecs: 2,
                pattern: BroadcastPattern::Explicit,
                precision: Precision::F32,
            },
            16,
            2,
        )
        .with_sparsity(0.2, 0.4)
    }

    fn run(w: GemmWorkload, kind: ConfigKind, m: MachineConfig, seed: u64) -> KernelResult {
        CellSpec::new(w, kind, m, seed).run(None).unwrap()
    }

    #[test]
    fn four_core_detailed_run_is_correct() {
        let m = MachineConfig { cores: 4, mode: MachineMode::Detailed, ..Default::default() };
        let spec = CellSpec::new(tiny(), ConfigKind::Save2Vpu, m, 3);
        let r = CellSpec { verify: true, ..spec }.run(None).unwrap();
        assert!(r.completed && r.verified);
    }

    #[test]
    fn contention_slows_cores_down() {
        // The same kernel on a detailed 8-core machine (8 cores fighting for
        // DRAM) must not be faster than on a detailed single-core machine.
        let w = GemmWorkload {
            b_panel_tiles: 1, // stream B: guarantees DRAM traffic
            ..tiny()
        };
        let m1 = MachineConfig { cores: 1, mode: MachineMode::Detailed, ..Default::default() };
        let m8 = MachineConfig { cores: 8, mode: MachineMode::Detailed, ..Default::default() };
        let r1 = run(w.clone(), ConfigKind::Baseline, m1, 5);
        let r8 = run(w, ConfigKind::Baseline, m8, 5);
        assert!(r8.cycles >= r1.cycles, "8-core {} vs 1-core {}", r8.cycles, r1.cycles);
    }

    #[test]
    fn symmetric_approximates_detailed() {
        // The symmetric mode must land within a reasonable factor of the
        // detailed mode for a compute-bound kernel.
        let md = MachineConfig { cores: 4, mode: MachineMode::Detailed, ..Default::default() };
        let ms = MachineConfig { cores: 4, mode: MachineMode::Symmetric, ..Default::default() };
        let rd = run(tiny(), ConfigKind::Baseline, md, 9);
        let rs = run(tiny(), ConfigKind::Baseline, ms, 9);
        let ratio = rd.seconds / rs.seconds;
        assert!((0.5..2.0).contains(&ratio), "detailed/symmetric ratio {ratio:.2}");
    }

    #[test]
    fn quantum_zero_is_rejected() {
        let mut m = MachineConfig { cores: 2, mode: MachineMode::Detailed, ..Default::default() };
        m.mc.quantum = 0;
        let err = CellSpec::new(tiny(), ConfigKind::Baseline, m, 1).run(None).unwrap_err();
        match err {
            SimError::InvalidConfig { what } => assert!(what.contains("quantum"), "{what}"),
            other => panic!("expected InvalidConfig, got {other}"),
        }
    }

    /// Errors name the offending core on a detailed machine and no core on
    /// a symmetric one — through the direct path and the recording path.
    #[test]
    fn error_core_tag_follows_the_machine_mode() {
        let starved = CoreConfig { max_cycles: 20, ..CoreConfig::default() };
        let sym = MachineConfig::default();
        let det = MachineConfig { cores: 2, mode: MachineMode::Detailed, ..Default::default() };
        for (machine, detailed) in [(sym, false), (det, true)] {
            let spec = CellSpec::custom(tiny(), starved, machine, 1);
            let direct = spec.run(None);
            let recorded = spec.run_traced(None, &TraceStore::new());
            for (path, res) in [("run", direct), ("run_traced", recorded)] {
                match res {
                    Err(SimError::CycleBudgetExceeded { core, .. }) => {
                        assert_eq!(core.is_some(), detailed, "{path} on {:?}", machine.mode);
                    }
                    other => panic!("{path}: expected CycleBudgetExceeded, got {other:?}"),
                }
            }
        }
    }
}
