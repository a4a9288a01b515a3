//! Core configuration (Table I parameters plus SAVE feature toggles).

use crate::fault::FaultPlan;
use serde::{Deserialize, Serialize};
use std::sync::OnceLock;

/// How aggressively the microarchitectural sanitizer audits the pipeline.
///
/// Event-driven checks (issue conservation, writeback values, commit order)
/// are cheap and run on every cycle whenever the sanitizer is enabled at
/// all; the heavier whole-state scans (rename-pool partition, RS scoreboard
/// cross-check, broadcast-cache freshness audit) run only on cycles where
/// [`SanitizeLevel::due`] returns true. `Off` compiles down to a skipped
/// `Option` — zero cost on the hot path.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default, Serialize, Deserialize)]
pub enum SanitizeLevel {
    /// No checking at all (the default): the core carries no sanitizer.
    #[default]
    Off,
    /// Event hooks every cycle, state scans every `n` cycles (`n > 0`).
    Periodic(u64),
    /// Every check, every cycle.
    Full,
}

impl SanitizeLevel {
    /// State-scan stride used when `SAVE_SANITIZE=periodic` gives no `:N`.
    pub const DEFAULT_STRIDE: u64 = 64;

    /// True unless the level is [`SanitizeLevel::Off`].
    pub fn enabled(self) -> bool {
        self != SanitizeLevel::Off
    }

    /// Whether the heavy state scans should run on `cycle`.
    pub fn due(self, cycle: u64) -> bool {
        match self {
            SanitizeLevel::Off => false,
            SanitizeLevel::Full => true,
            SanitizeLevel::Periodic(n) => cycle.is_multiple_of(n),
        }
    }

    /// Parses a level from a CLI/env string: `off`, `full`, `periodic`,
    /// `periodic:N`, or a bare stride `N` (`0` meaning off).
    pub fn parse(s: &str) -> Result<Self, String> {
        let s = s.trim();
        match s.to_ascii_lowercase().as_str() {
            "" | "off" | "0" | "false" | "no" => Ok(SanitizeLevel::Off),
            "full" | "on" | "1" | "true" | "yes" => Ok(SanitizeLevel::Full),
            "periodic" => Ok(SanitizeLevel::Periodic(Self::DEFAULT_STRIDE)),
            other => {
                let stride = other.strip_prefix("periodic:").unwrap_or(other);
                match stride.parse::<u64>() {
                    Ok(0) => Ok(SanitizeLevel::Off),
                    Ok(n) => Ok(SanitizeLevel::Periodic(n)),
                    Err(_) => Err(format!(
                        "unrecognized sanitize level {s:?} (want off|periodic[:N]|full)"
                    )),
                }
            }
        }
    }

    /// Level requested by the `SAVE_SANITIZE` environment variable, read
    /// once per process. Unset or unparsable values mean [`Off`]; this is
    /// the default for every freshly built [`CoreConfig`], which is how
    /// `SAVE_SANITIZE=periodic cargo test` turns the whole suite into a
    /// sanitizer gauntlet without touching any call site.
    ///
    /// [`Off`]: SanitizeLevel::Off
    pub fn from_env() -> Self {
        static CACHE: OnceLock<SanitizeLevel> = OnceLock::new();
        *CACHE.get_or_init(|| {
            std::env::var("SAVE_SANITIZE")
                .ok()
                .and_then(|v| SanitizeLevel::parse(&v).ok())
                .unwrap_or(SanitizeLevel::Off)
        })
    }
}

/// Which VPU select logic the core uses.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum SchedulerKind {
    /// Conventional oldest-first whole-vector issue — no sparsity awareness.
    Baseline,
    /// SAVE vertical coalescing (Algorithm 1). Rotation and lane-wise
    /// dependence are controlled by [`CoreConfig::rotate`] and
    /// [`CoreConfig::lane_wise`].
    Vertical,
    /// Horizontal compression — the paper's rejected alternative, kept as a
    /// comparison point (Fig 18). Adds [`CoreConfig::hc_penalty_cycles`] to
    /// the VFMA latency for bubble-collapse/expand crossbars.
    Horizontal,
}

/// Serde default for [`CoreConfig::fast_forward`]: configs serialized
/// before the field existed fast-forward like freshly built ones.
fn default_true() -> bool {
    true
}

/// Full core configuration.
///
/// Defaults reproduce the paper's baseline machine (Table I with the
/// Sunny-Cove-style 5-wide issue) with all SAVE features enabled.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CoreConfig {
    /// Allocation (rename/dispatch) width in µops per cycle.
    pub issue_width: usize,
    /// Commit width in µops per cycle.
    pub commit_width: usize,
    /// Reorder-buffer entries.
    pub rob_entries: usize,
    /// Unified reservation-station entries.
    pub rs_entries: usize,
    /// Physical vector registers (renaming pool).
    pub phys_regs: usize,
    /// Number of active 512-bit VPUs (2 at 1.7 GHz or 1 at 2.1 GHz, §IV-D).
    pub num_vpus: usize,
    /// Core frequency in GHz.
    pub freq_ghz: f64,
    /// FP32 VFMA latency in cycles (Skylake: 4).
    pub fp32_fma_cycles: u64,
    /// Mixed-precision VFMA latency in cycles (paper: 6).
    pub mp_fma_cycles: u64,
    /// Cycles by which a chained MP VFMA can issue early thanks to
    /// partial-result forwarding when the MP technique is on (§V-B).
    pub mp_forward_overlap: u64,
    /// Load ports (L1-D reads per cycle).
    pub load_ports: usize,
    /// Load-buffer entries: the maximum loads in flight (Skylake: 72).
    /// Bounds memory-level parallelism on DRAM-latency streams.
    pub load_buffer: usize,
    /// Store issues per cycle.
    pub store_ports: usize,
    /// Scheduler variant.
    pub scheduler: SchedulerKind,
    /// Rotate-vertical coalescing (§IV-B); only meaningful with
    /// [`SchedulerKind::Vertical`].
    pub rotate: bool,
    /// Lane-wise dependence (§IV-C) instead of vector-wise.
    pub lane_wise: bool,
    /// Mixed-precision multiplicand-lane compression (§V-A).
    pub mp_compress: bool,
    /// Extra VFMA latency under horizontal compression (3-cycle
    /// bubble-collapse + 3-cycle expand, §VII-D).
    pub hc_penalty_cycles: u64,
    /// Abort a run after this many cycles (deadlock guard).
    pub max_cycles: u64,
    /// Retire-progress watchdog: declare a stall if no µop commits for
    /// this many consecutive cycles while work is outstanding. Must be
    /// comfortably above the worst-case memory round trip (a cold DRAM
    /// access is a few hundred cycles); the default leaves two orders of
    /// magnitude of headroom.
    pub watchdog_cycles: u64,
    /// Event-driven fast-forward (host-side optimization, default on):
    /// when the pipeline is provably inert — frontend stalled or drained,
    /// every in-flight µop waiting on a known future cycle — the core jumps
    /// the clock to the next event instead of stepping idle cycles. The
    /// jump is observationally pure: cycle counts, statistics and
    /// functional results are bit-identical with stepping (the determinism
    /// suite pins this). Disable to A/B against plain stepping. Forced off
    /// while a fault plan or a µop commit limit is active.
    #[serde(default = "default_true")]
    pub fast_forward: bool,
    /// Microarchitectural sanitizer level. Defaults to the `SAVE_SANITIZE`
    /// environment variable (or `Off` when unset) so existing configs and
    /// serialized sweeps pick it up without changes.
    #[serde(default = "SanitizeLevel::from_env")]
    pub sanitize: SanitizeLevel,
    /// Deterministic fault to inject — used by the sanitizer self-test to
    /// prove each checker fires on its fault class. `None` in any real run.
    #[serde(default)]
    pub fault: Option<FaultPlan>,
}

impl Default for CoreConfig {
    fn default() -> Self {
        CoreConfig {
            issue_width: 5,
            commit_width: 5,
            rob_entries: 224,
            rs_entries: 97,
            phys_regs: 320,
            num_vpus: 2,
            freq_ghz: 1.7,
            fp32_fma_cycles: 4,
            mp_fma_cycles: 6,
            mp_forward_overlap: 2,
            load_ports: 2,
            load_buffer: 72,
            store_ports: 1,
            scheduler: SchedulerKind::Vertical,
            rotate: true,
            lane_wise: true,
            mp_compress: true,
            hc_penalty_cycles: 6,
            max_cycles: 500_000_000,
            watchdog_cycles: 100_000,
            fast_forward: true,
            sanitize: SanitizeLevel::from_env(),
            fault: None,
        }
    }
}

impl CoreConfig {
    /// The paper's baseline: 2 VPUs at 1.7 GHz, conventional scheduler.
    pub fn baseline() -> Self {
        CoreConfig {
            scheduler: SchedulerKind::Baseline,
            rotate: false,
            lane_wise: false,
            mp_compress: false,
            ..CoreConfig::default()
        }
    }

    /// Full SAVE with 2 VPUs at 1.7 GHz.
    pub fn save_2vpu() -> Self {
        CoreConfig::default()
    }

    /// Full SAVE with 1 VPU at the boosted 2.1 GHz (§IV-D).
    pub fn save_1vpu() -> Self {
        CoreConfig { num_vpus: 1, freq_ghz: 2.1, ..CoreConfig::default() }
    }

    /// Converts a wall-clock latency to (rounded-up) core cycles.
    pub fn ns_to_cycles(&self, ns: f64) -> u64 {
        (ns * self.freq_ghz).ceil() as u64
    }

    /// Converts a cycle count to seconds at this frequency.
    pub fn cycles_to_seconds(&self, cycles: u64) -> f64 {
        cycles as f64 / (self.freq_ghz * 1e9)
    }

    /// Rejects operating points the pipeline cannot run.
    ///
    /// Every structural resource must be non-zero, the renaming pool must
    /// exceed the architectural register file (otherwise allocation
    /// deadlocks the moment all architectural names are live), and the
    /// frequency must be a positive finite number. The error string names
    /// the offending field so sweep drivers can report it verbatim.
    pub fn validate(&self) -> Result<(), String> {
        fn nonzero(what: &str, v: usize) -> Result<(), String> {
            if v == 0 { Err(format!("core config: {what} must be > 0")) } else { Ok(()) }
        }
        nonzero("issue_width", self.issue_width)?;
        nonzero("commit_width", self.commit_width)?;
        nonzero("rob_entries", self.rob_entries)?;
        nonzero("rs_entries", self.rs_entries)?;
        nonzero("num_vpus", self.num_vpus)?;
        nonzero("load_ports", self.load_ports)?;
        nonzero("load_buffer", self.load_buffer)?;
        nonzero("store_ports", self.store_ports)?;
        if self.phys_regs <= save_isa::NUM_VREGS {
            return Err(format!(
                "core config: phys_regs ({}) must exceed the {} architectural vregs",
                self.phys_regs,
                save_isa::NUM_VREGS
            ));
        }
        if !self.freq_ghz.is_finite() || self.freq_ghz <= 0.0 {
            return Err(format!(
                "core config: freq_ghz must be positive and finite, got {}",
                self.freq_ghz
            ));
        }
        if self.fp32_fma_cycles == 0 || self.mp_fma_cycles == 0 {
            return Err("core config: FMA latencies must be > 0".to_string());
        }
        if self.max_cycles == 0 {
            return Err("core config: max_cycles must be > 0".to_string());
        }
        if self.watchdog_cycles == 0 {
            return Err("core config: watchdog_cycles must be > 0".to_string());
        }
        if self.sanitize == SanitizeLevel::Periodic(0) {
            return Err(
                "core config: sanitize Periodic stride must be > 0 (use Off instead)".to_string(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_paper_operating_points() {
        let b = CoreConfig::baseline();
        assert_eq!(b.num_vpus, 2);
        assert_eq!(b.freq_ghz, 1.7);
        assert_eq!(b.scheduler, SchedulerKind::Baseline);
        let s1 = CoreConfig::save_1vpu();
        assert_eq!(s1.num_vpus, 1);
        assert_eq!(s1.freq_ghz, 2.1);
        assert_eq!(s1.scheduler, SchedulerKind::Vertical);
    }

    #[test]
    fn time_conversions_roundtrip() {
        let c = CoreConfig::default();
        assert_eq!(c.ns_to_cycles(1.0), 2); // 1.7 cycles rounds up
        let s = c.cycles_to_seconds(1_700_000_000);
        assert!((s - 1.0).abs() < 1e-12);
    }

    #[test]
    fn presets_validate() {
        CoreConfig::baseline().validate().unwrap();
        CoreConfig::save_2vpu().validate().unwrap();
        CoreConfig::save_1vpu().validate().unwrap();
    }

    #[test]
    fn validate_rejects_zero_vpus_and_zero_issue_width() {
        let no_vpu = CoreConfig { num_vpus: 0, ..CoreConfig::default() };
        let err = no_vpu.validate().unwrap_err();
        assert!(err.contains("num_vpus"), "{err}");

        let no_issue = CoreConfig { issue_width: 0, ..CoreConfig::default() };
        let err = no_issue.validate().unwrap_err();
        assert!(err.contains("issue_width"), "{err}");
    }

    #[test]
    fn sanitize_level_parses_cli_spellings() {
        assert_eq!(SanitizeLevel::parse("off").unwrap(), SanitizeLevel::Off);
        assert_eq!(SanitizeLevel::parse("full").unwrap(), SanitizeLevel::Full);
        assert_eq!(
            SanitizeLevel::parse("periodic").unwrap(),
            SanitizeLevel::Periodic(SanitizeLevel::DEFAULT_STRIDE)
        );
        assert_eq!(SanitizeLevel::parse("periodic:7").unwrap(), SanitizeLevel::Periodic(7));
        assert_eq!(SanitizeLevel::parse("128").unwrap(), SanitizeLevel::Periodic(128));
        assert_eq!(SanitizeLevel::parse("0").unwrap(), SanitizeLevel::Off);
        assert!(SanitizeLevel::parse("sometimes").is_err());
    }

    #[test]
    fn sanitize_stride_gates_state_scans() {
        assert!(!SanitizeLevel::Off.due(0));
        assert!(SanitizeLevel::Full.due(3));
        let p = SanitizeLevel::Periodic(8);
        assert!(p.due(0) && p.due(16) && !p.due(3));
        assert!(p.enabled() && !SanitizeLevel::Off.enabled());
    }

    #[test]
    fn validate_rejects_zero_periodic_stride() {
        let c = CoreConfig { sanitize: SanitizeLevel::Periodic(0), ..CoreConfig::default() };
        assert!(c.validate().unwrap_err().contains("sanitize"));
    }

    #[test]
    fn validate_rejects_starved_rename_pool_and_bad_frequency() {
        let starved = CoreConfig { phys_regs: save_isa::NUM_VREGS, ..CoreConfig::default() };
        assert!(starved.validate().unwrap_err().contains("phys_regs"));

        let nan = CoreConfig { freq_ghz: f64::NAN, ..CoreConfig::default() };
        assert!(nan.validate().unwrap_err().contains("freq_ghz"));
    }
}
