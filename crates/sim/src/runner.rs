//! Machine and operating-point types, the §VI warm-up policy, and
//! [`run_kernel_full`] — the one run call that also returns the uncore
//! contention report. The executor behind it (and behind
//! [`crate::CellSpec::run`]) lives in [`crate::multicore`].

use crate::cancel::CancelToken;
use crate::error::SimError;
use save_core::{CoreConfig, CoreStats};
use save_kernels::{GemmWorkload, Region, RegionRole};
use save_mem::{CoreMemory, MemConfig, Uncore, UncoreReport, WarmLevel};
use serde::{Deserialize, Serialize};

/// How the multicore machine is modelled.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum MachineMode {
    /// One simulated core against its 1/N share of uncore resources
    /// (DESIGN.md §2) — used for the large parameter sweeps.
    Symmetric,
    /// N cores cycle-interleaved over the shared NUCA L3 + mesh + DRAM.
    Detailed,
}

/// Multicore execution knobs for [`MachineMode::Detailed`] (DESIGN.md §5i).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MulticoreConfig {
    /// Relaxed-synchronization quantum in core cycles. `1` (the default)
    /// runs the serial lockstep engine — cores reconcile shared uncore
    /// state every cycle, bit-identical to the pre-relaxed simulator.
    /// Larger quanta let each core run (and fast-forward) independently
    /// between deterministic barriers, at a timing-accuracy cost bounded by
    /// the quantum length. Changes simulated timing, so it is part of the
    /// cell cache key.
    pub quantum: u64,
    /// Host threads for the relaxed engine; `0` = auto (the shared thread
    /// budget of [`crate::parallel`], clamped to the core count). Provably
    /// does NOT affect simulation results — only wall-clock speed — so it
    /// is excluded from the cell cache key.
    pub threads: usize,
}

impl Default for MulticoreConfig {
    fn default() -> Self {
        MulticoreConfig { quantum: 1, threads: 0 }
    }
}

impl MulticoreConfig {
    /// Rejects degenerate configurations (`quantum == 0`).
    pub fn validate(&self) -> Result<(), String> {
        if self.quantum == 0 {
            return Err("machine config: mc.quantum must be >= 1".to_string());
        }
        Ok(())
    }
}

/// Machine-level configuration.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Core count (Table I: 28).
    pub cores: usize,
    /// Simulation mode.
    pub mode: MachineMode,
    /// Memory-system configuration.
    pub mem: MemConfig,
    /// Multicore engine knobs (quantum / host threads); defaults preserve
    /// the serial lockstep behaviour.
    #[serde(default)]
    pub mc: MulticoreConfig,
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig {
            cores: 28,
            mode: MachineMode::Symmetric,
            mem: MemConfig::default(),
            mc: MulticoreConfig::default(),
        }
    }
}

/// The three machine operating points evaluated throughout §VII, plus the
/// derived selection policies of §IV-D.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Serialize, Deserialize)]
pub enum ConfigKind {
    /// Conventional scheduler, 2 VPUs @ 1.7 GHz.
    Baseline,
    /// SAVE, 2 VPUs @ 1.7 GHz.
    Save2Vpu,
    /// SAVE, 1 VPU @ 2.1 GHz (frequency-boosted, §IV-D).
    Save1Vpu,
}

impl ConfigKind {
    /// The three simulated points.
    pub const ALL: [ConfigKind; 3] = [ConfigKind::Baseline, ConfigKind::Save2Vpu, ConfigKind::Save1Vpu];

    /// The core configuration for this operating point.
    pub fn core_config(&self) -> CoreConfig {
        match self {
            ConfigKind::Baseline => CoreConfig::baseline(),
            ConfigKind::Save2Vpu => CoreConfig::save_2vpu(),
            ConfigKind::Save1Vpu => CoreConfig::save_1vpu(),
        }
    }

    /// Display label matching the paper's figure legends.
    pub fn label(&self) -> &'static str {
        match self {
            ConfigKind::Baseline => "baseline",
            ConfigKind::Save2Vpu => "2 VPUs",
            ConfigKind::Save1Vpu => "1 VPU",
        }
    }
}

/// Result of running one kernel.
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct KernelResult {
    /// Wall-clock seconds at the configured frequency.
    pub seconds: f64,
    /// Core cycles.
    pub cycles: u64,
    /// Core counters.
    pub stats: CoreStats,
    /// Whether the numerical output matched the reference (only checked
    /// when requested).
    pub verified: bool,
    /// Whether the run completed within the cycle budget.
    pub completed: bool,
}

/// A kernel result together with the machine's uncore contention report
/// (per-link flit occupancy, per-slice MSHR conflicts, DRAM queue depth) —
/// the many-core signals [`KernelResult`] alone cannot carry because it
/// stays `Copy`.
#[derive(Clone, Debug)]
pub struct KernelRun {
    /// The timing result (slowest core in detailed mode).
    pub result: KernelResult,
    /// Shared-uncore contention counters for the whole run.
    pub uncore: UncoreReport,
}

/// Applies the paper's §VI warm-up policy: the broadcast-side input (the
/// previous operation's output) is warm in L3; a reused weight panel is
/// L3-warm as well (full-size layers amortize its first streaming pass —
/// DESIGN.md §4); streamed panels and the output are cold.
pub fn warm_regions(
    w: &GemmWorkload,
    regions: &[Region],
    cmem: &mut CoreMemory,
    uncore: &mut Uncore,
) {
    for r in regions {
        let warm = match r.role {
            RegionRole::BroadcastInput => true,
            RegionRole::VectorInput => w.reuse_b(),
            RegionRole::Output => false,
        };
        if warm {
            cmem.warm(uncore, r.base, r.bytes, WarmLevel::L3);
        }
    }
}

/// Runs `w` on the machine at a named operating point and returns the
/// timing result together with the uncore contention report — the only run
/// call that exposes [`KernelRun::uncore`]. Every other run goes through
/// [`crate::CellSpec::run`] or [`crate::CellSpec::run_traced`]; all three
/// share one executor, so timing and errors are identical.
///
/// In [`MachineMode::Symmetric`] one core is simulated against its share of
/// the uncore; in [`MachineMode::Detailed`] every core runs over the shared
/// uncore and the slowest core's result is reported.
///
/// # Errors
/// * [`SimError::InvalidConfig`] if the operating point fails validation;
/// * [`SimError::VerifyMismatch`] if `verify` is set and the kernel's
///   numerical output disagrees with the reference (always a simulator bug);
/// * [`SimError::CycleBudgetExceeded`] if the run hits the cycle budget or
///   the retire-progress watchdog — the error carries a
///   [`save_core::StallDiag`] naming the stalled resource;
/// * [`SimError::InvariantViolation`] if the cycle-level sanitizer
///   ([`save_core::SanitizeLevel`], `SAVE_SANITIZE`) aborted the run — the
///   error carries the [`save_core::SanitizerReport`] witness;
/// * [`SimError::Cancelled`] if `cancel` latched (Ctrl-C, a per-cell
///   deadline): the cores stop at their next [`save_core::CANCEL_QUANTUM`]
///   boundary and no partial result escapes.
///
/// Detailed-mode errors name the offending core (`core: Some(i)`);
/// symmetric-mode errors carry `core: None`.
pub fn run_kernel_full(
    w: &GemmWorkload,
    kind: ConfigKind,
    machine: &MachineConfig,
    seed: u64,
    verify: bool,
    cancel: Option<&CancelToken>,
) -> Result<KernelRun, SimError> {
    crate::multicore::execute(w, kind.core_config(), machine, seed, verify, cancel, None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::CellSpec;
    use save_core::SchedulerKind;
    use save_kernels::{BroadcastPattern, GemmKernelSpec, Precision};

    fn tiny() -> GemmWorkload {
        GemmWorkload::dense(
            "tiny",
            GemmKernelSpec {
                m_tiles: 4,
                n_vecs: 2,
                pattern: BroadcastPattern::Explicit,
                precision: Precision::F32,
            },
            16,
            2,
        )
        .with_sparsity(0.3, 0.3)
    }

    #[test]
    fn symmetric_run_verifies_and_times() {
        let spec = CellSpec::new(tiny(), ConfigKind::Save2Vpu, MachineConfig::default(), 1);
        let r = CellSpec { verify: true, ..spec }.run(None).unwrap();
        assert!(r.completed && r.verified);
        assert!(r.seconds > 0.0);
        assert_eq!(r.stats.fma_uops, tiny().fma_count());
    }

    #[test]
    fn invalid_operating_point_is_rejected_up_front() {
        let bad = CoreConfig { num_vpus: 0, ..CoreConfig::default() };
        let err =
            CellSpec::custom(tiny(), bad, MachineConfig::default(), 1).run(None).unwrap_err();
        match err {
            SimError::InvalidConfig { what } => assert!(what.contains("num_vpus"), "{what}"),
            other => panic!("expected InvalidConfig, got {other}"),
        }
    }

    #[test]
    fn cycle_budget_overrun_carries_a_stall_diag() {
        let starved = CoreConfig { max_cycles: 20, ..CoreConfig::default() };
        let err = CellSpec::custom(tiny(), starved, MachineConfig::default(), 1)
            .run(None)
            .unwrap_err();
        match err {
            SimError::CycleBudgetExceeded { kernel, diag, .. } => {
                assert_eq!(kernel, "tiny");
                assert_eq!(diag.cause, save_core::StallCause::CycleBudget);
                assert_eq!(diag.cycle, 20);
            }
            other => panic!("expected CycleBudgetExceeded, got {other}"),
        }
    }

    #[test]
    fn operating_points_differ_in_frequency() {
        assert_eq!(ConfigKind::Baseline.core_config().freq_ghz, 1.7);
        assert_eq!(ConfigKind::Save1Vpu.core_config().freq_ghz, 2.1);
        assert_eq!(ConfigKind::Save1Vpu.core_config().num_vpus, 1);
        assert_eq!(ConfigKind::Baseline.core_config().scheduler, SchedulerKind::Baseline);
    }

    #[test]
    fn deterministic_across_repeats() {
        let spec = CellSpec::new(tiny(), ConfigKind::Save1Vpu, MachineConfig::default(), 7);
        let a = spec.run(None).unwrap();
        let b = spec.run(None).unwrap();
        assert_eq!(a.cycles, b.cycles);
    }

    #[test]
    fn full_run_matches_the_spec_run() {
        let m = MachineConfig::default();
        let full = run_kernel_full(&tiny(), ConfigKind::Save2Vpu, &m, 3, false, None).unwrap();
        let spec = CellSpec::new(tiny(), ConfigKind::Save2Vpu, m, 3).run(None).unwrap();
        assert_eq!(full.result.cycles, spec.cycles);
        assert_eq!(full.result.seconds.to_bits(), spec.seconds.to_bits());
    }
}
