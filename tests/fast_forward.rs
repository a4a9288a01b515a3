//! Event-driven fast-forward purity: skipping provably inert cycles must
//! be invisible in every observable — cycle counts, the full statistics
//! struct, and functional outputs — across workload classes, operating
//! points, both machine modes, and with the sanitizer in the pipeline.
//!
//! These tests A/B the same (workload, config, seed) with
//! [`CoreConfig::fast_forward`] on and off and require bit-identical
//! results. The memory-streaming workload matters most: its long
//! DRAM-bound idle stretches are where fast-forward actually engages.

use save::core::{CoreConfig, SanitizeLevel, SchedulerKind, StallCause, StallDiag};
use save::kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
use save::sim::{CellSpec, ConfigKind, KernelResult, MachineConfig, MachineMode, SimError};

/// Runs `w` under `cfg` on `m` with output verification.
fn run(w: &GemmWorkload, cfg: CoreConfig, m: MachineConfig, seed: u64) -> KernelResult {
    CellSpec { verify: true, ..CellSpec::custom(w.clone(), cfg, m, seed) }.run(None).unwrap()
}

/// The three reference workload classes (mirroring perfstat's pinned sweep,
/// scaled down): compute-bound, memory-streaming, and mixed-precision.
fn workloads() -> Vec<GemmWorkload> {
    let spec_f32 = GemmKernelSpec {
        m_tiles: 6,
        n_vecs: 4,
        pattern: BroadcastPattern::Explicit,
        precision: Precision::F32,
    };
    let spec_mp = GemmKernelSpec { precision: Precision::Mixed, ..spec_f32 };
    let compute = GemmWorkload::dense("ff-compute", spec_f32, 32, 2).with_sparsity(0.3, 0.5);
    let stream = GemmWorkload {
        b_panel_tiles: 1, // stream B panels: DRAM-bound, long idle stretches
        ..GemmWorkload::dense("ff-stream", spec_f32, 32, 2).with_sparsity(0.6, 0.6)
    };
    let mixed = GemmWorkload::dense("ff-mixed", spec_mp, 32, 2).with_sparsity(0.5, 0.5);
    vec![compute, stream, mixed]
}

#[test]
fn fast_forward_is_observationally_pure() {
    let m = MachineConfig::default();
    for w in workloads() {
        for kind in ConfigKind::ALL {
            let on = kind.core_config();
            assert!(on.fast_forward, "fast-forward must default on");
            let off = CoreConfig { fast_forward: false, ..on };
            let a = run(&w, on, m, 7);
            let b = run(&w, off, m, 7);
            assert!(a.verified && b.verified, "{} {kind:?}", w.name);
            assert_eq!(a.cycles, b.cycles, "{} {kind:?}: cycle counts drifted", w.name);
            assert_eq!(a.stats, b.stats, "{} {kind:?}: statistics drifted", w.name);
        }
    }
}

#[test]
fn fast_forward_is_deterministic() {
    // Same run twice with fast-forward engaged: bit-identical everything.
    let m = MachineConfig::default();
    for w in workloads() {
        let cfg = ConfigKind::Save2Vpu.core_config();
        let a = run(&w, cfg, m, 11);
        let b = run(&w, cfg, m, 11);
        assert_eq!(a.cycles, b.cycles, "{}", w.name);
        assert_eq!(a.stats, b.stats, "{}", w.name);
    }
}

#[test]
fn fast_forward_is_pure_in_detailed_multicore() {
    // The lockstep machine may only jump when every unfinished core is
    // inert; the coordinated jump must be invisible too.
    let m = MachineConfig { cores: 4, mode: MachineMode::Detailed, ..Default::default() };
    let w = &workloads()[1]; // the streaming workload: real DRAM gaps
    let on = ConfigKind::Save2Vpu.core_config();
    let off = CoreConfig { fast_forward: false, ..on };
    let a = run(w, on, m, 7);
    let b = run(w, off, m, 7);
    assert!(a.verified && b.verified);
    assert_eq!(a.cycles, b.cycles, "multicore cycle counts drifted");
    assert_eq!(a.stats, b.stats, "multicore statistics drifted");
}

#[test]
fn fast_forward_is_pure_under_full_sanitizer() {
    // With every invariant checked every cycle, a clean run must stay
    // clean and bit-identical through the fast-forward path: skipped
    // cycles would have scanned exactly the state the probe cycle scanned.
    // Every workload class runs under both SAVE operating points and under
    // horizontal compression, so the event-gated RS sweeps (audited by the
    // RS-exit lane-conservation check), the MGU wait list and the
    // mixed-precision chain links all run under the Algorithm 1 age-order
    // and lane-conservation checks on every cycle.
    let m = MachineConfig::default();
    let horizontal = CoreConfig {
        scheduler: SchedulerKind::Horizontal,
        ..ConfigKind::Save2Vpu.core_config()
    };
    let configs = [
        ("2 VPUs", ConfigKind::Save2Vpu.core_config()),
        ("1 VPU", ConfigKind::Save1Vpu.core_config()),
        ("HC", horizontal),
    ];
    for w in workloads() {
        for (label, cfg) in configs {
            let on = CoreConfig { sanitize: SanitizeLevel::Full, ..cfg };
            let off = CoreConfig { fast_forward: false, ..on };
            let a = run(&w, on, m, 7);
            let b = run(&w, off, m, 7);
            assert!(a.completed && b.completed, "{} {label}: sanitizer flagged a clean run", w.name);
            assert!(a.verified && b.verified, "{} {label}", w.name);
            assert_eq!(a.cycles, b.cycles, "{} {label}", w.name);
            assert_eq!(a.stats, b.stats, "{} {label}", w.name);
        }
    }
}

/// Runs `w` under `cfg` on `m`, expecting it to stop early, and returns
/// why and where it stopped.
fn stall(w: &GemmWorkload, cfg: CoreConfig, m: MachineConfig) -> StallDiag {
    match CellSpec::custom(w.clone(), cfg, m, 7).run(None) {
        Err(SimError::CycleBudgetExceeded { diag, .. }) => *diag,
        other => panic!("{}: expected a stall, got {other:?}", w.name),
    }
}

#[test]
fn fast_forward_does_not_change_how_a_run_stops() {
    // A run stopped by the cycle budget or the retire-progress watchdog
    // must stop at the same cycle, for the same cause and with the same
    // statistics whether it stepped or jumped there: a jump lands exactly
    // on the deadline and takes the stepped run's stop path. The streaming
    // workload's DRAM gaps are where the deadlines fall inside a jump.
    let w = &workloads()[1];
    let detailed = MachineConfig { cores: 4, mode: MachineMode::Detailed, ..Default::default() };
    for m in [MachineConfig::default(), detailed] {
        for kind in [ConfigKind::Baseline, ConfigKind::Save2Vpu] {
            let base = kind.core_config();
            let full = run(w, base, m, 7).cycles;
            let budgets = [2, 3, 4, 5]
                .map(|d| (StallCause::CycleBudget, CoreConfig { max_cycles: full / d, ..base }));
            let watchdogs = [3, 40, 150]
                .map(|c| (StallCause::NoCommitProgress, CoreConfig { watchdog_cycles: c, ..base }));
            for (cause, on) in budgets.into_iter().chain(watchdogs) {
                let off = CoreConfig { fast_forward: false, ..on };
                let (a, b) = (stall(w, on, m), stall(w, off, m));
                let what = format!(
                    "{:?} {kind:?} max_cycles {} watchdog {}",
                    m.mode, on.max_cycles, on.watchdog_cycles
                );
                assert_eq!(a.cause, cause, "{what}");
                assert_eq!(a.cause, b.cause, "{what}");
                assert_eq!(a.cycle, b.cycle, "{what}");
                assert_eq!(a.stats, b.stats, "{what}");
            }
        }
    }
}
