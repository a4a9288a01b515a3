//! VPU-count selection policies (§IV-D).
//!
//! The paper evaluates an *oracle* selection ("for each DNN kernel,
//! dynamically using the better of one or two VPUs", neglecting switching
//! overhead, §VII-A) and notes that hardware could decide "dynamically
//! through heuristics from performance counters". This module implements
//! both: the oracle, fixed configurations, and a realizable heuristic that
//! watches the previous kernel's effectual-lane fraction from the MGUs and
//! switches with hysteresis, charging a DVFS transition penalty per switch.

use crate::error::SimError;
use crate::runner::{ConfigKind, MachineConfig};
use crate::spec::CellSpec;
use save_kernels::GemmWorkload;
use serde::{Deserialize, Serialize};

/// A selection policy over a sequence of kernels.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub enum VpuPolicy {
    /// Always the given configuration.
    Fixed(ConfigKind),
    /// Per-kernel better of SAVE-2VPU and SAVE-1VPU (the paper's
    /// "dynamic"; assumes an oracle, no switching cost).
    Oracle,
    /// Counter-driven: start at 2 VPUs; after each kernel, if the MGUs saw
    /// fewer than `down_threshold` effectual lanes, drop to 1 VPU at
    /// 2.1 GHz; rise back above `up_threshold`. Each transition pays
    /// `switch_overhead_s` of DVFS settling time (§IV-D: ~10 µs).
    Heuristic {
        /// Effectual-lane fraction below which one VPU suffices.
        down_threshold: f64,
        /// Effectual-lane fraction above which two VPUs are engaged.
        up_threshold: f64,
        /// DVFS transition penalty in seconds.
        switch_overhead_s: f64,
    },
}

impl VpuPolicy {
    /// A reasonable default heuristic: drop below 55% effectual lanes,
    /// rise above 65%, 10 µs per DVFS transition.
    pub fn default_heuristic() -> Self {
        VpuPolicy::Heuristic {
            down_threshold: 0.55,
            up_threshold: 0.65,
            switch_overhead_s: 10e-6,
        }
    }
}

/// Result of running a kernel sequence under a policy.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PolicyOutcome {
    /// Total wall-clock seconds, including switching overhead.
    pub total_seconds: f64,
    /// Number of 1<->2 VPU transitions.
    pub switches: usize,
    /// The configuration chosen for each kernel.
    pub choices: Vec<ConfigKind>,
}

/// Runs `kernels` (workload + full-scale time multiplier) in order under
/// `policy` on `machine`, and returns the aggregate outcome.
///
/// The scale factor multiplies each kernel's simulated time (the layer's
/// full FLOPs over the scaled-down kernel's, DESIGN.md §4) so switching
/// overhead is weighed against realistic kernel durations.
///
/// # Errors
/// Fails on the first kernel whose simulation fails; the sequence is
/// stateful (the heuristic feeds each kernel's counters into the next
/// decision), so a partial result would be misleading.
pub fn run_sequence(
    kernels: &[(GemmWorkload, f64)],
    policy: VpuPolicy,
    machine: &MachineConfig,
) -> Result<PolicyOutcome, SimError> {
    let mut total = 0.0;
    let mut switches = 0;
    let mut choices = Vec::with_capacity(kernels.len());
    let mut current = ConfigKind::Save2Vpu;
    for (i, (w, scale)) in kernels.iter().enumerate() {
        let seed = 100 + i as u64;
        let run = |kind| CellSpec::new(w.clone(), kind, *machine, seed).run(None);
        let kind = match policy {
            VpuPolicy::Fixed(k) => k,
            VpuPolicy::Oracle => {
                let t2 = run(ConfigKind::Save2Vpu)?.seconds;
                let t1 = run(ConfigKind::Save1Vpu)?.seconds;
                if t1 < t2 {
                    ConfigKind::Save1Vpu
                } else {
                    ConfigKind::Save2Vpu
                }
            }
            VpuPolicy::Heuristic { .. } => current,
        };
        let r = run(kind)?;
        total += r.seconds * scale;
        choices.push(kind);
        if let VpuPolicy::Heuristic { down_threshold, up_threshold, switch_overhead_s } = policy {
            let eff = r.stats.effectual_fraction();
            let next = if eff < down_threshold {
                ConfigKind::Save1Vpu
            } else if eff > up_threshold {
                ConfigKind::Save2Vpu
            } else {
                current
            };
            if next != current {
                switches += 1;
                total += switch_overhead_s;
                current = next;
            }
        }
    }
    Ok(PolicyOutcome { total_seconds: total, switches, choices })
}

#[cfg(test)]
mod tests {
    use super::*;
    use save_kernels::{BroadcastPattern, GemmKernelSpec, Precision};

    fn kernel(a: f64, b: f64) -> GemmWorkload {
        GemmWorkload::dense(
            "seq",
            GemmKernelSpec {
                m_tiles: 6,
                n_vecs: 3,
                pattern: BroadcastPattern::Explicit,
                precision: Precision::F32,
            },
            48,
            2,
        )
        .with_sparsity(a, b)
    }

    fn machine() -> MachineConfig {
        MachineConfig { cores: 8, ..Default::default() }
    }

    #[test]
    fn oracle_beats_both_fixed_configs() {
        // A mixed sequence: dense kernels prefer 2 VPUs, sparse prefer 1.
        let seq: Vec<(GemmWorkload, f64)> = vec![
            (kernel(0.0, 0.0), 1.0),
            (kernel(0.8, 0.8), 1.0),
            (kernel(0.0, 0.1), 1.0),
            (kernel(0.7, 0.9), 1.0),
        ];
        let m = machine();
        let oracle = run_sequence(&seq, VpuPolicy::Oracle, &m).unwrap();
        let f2 = run_sequence(&seq, VpuPolicy::Fixed(ConfigKind::Save2Vpu), &m).unwrap();
        let f1 = run_sequence(&seq, VpuPolicy::Fixed(ConfigKind::Save1Vpu), &m).unwrap();
        assert!(oracle.total_seconds <= f2.total_seconds + 1e-12);
        assert!(oracle.total_seconds <= f1.total_seconds + 1e-12);
        assert!(oracle.choices.contains(&ConfigKind::Save1Vpu));
        assert!(oracle.choices.contains(&ConfigKind::Save2Vpu));
    }

    #[test]
    fn heuristic_tracks_sparsity_phases() {
        // A long sparse phase then a dense phase: the heuristic should end
        // up on 1 VPU during the former and back on 2 for the latter.
        let mut seq = Vec::new();
        for _ in 0..4 {
            seq.push((kernel(0.7, 0.8), 1.0));
        }
        for _ in 0..4 {
            seq.push((kernel(0.0, 0.0), 1.0));
        }
        let out = run_sequence(&seq, VpuPolicy::default_heuristic(), &machine()).unwrap();
        assert!(out.switches >= 2, "expected at least down+up transitions");
        assert_eq!(out.choices[3], ConfigKind::Save1Vpu, "sparse phase should run on 1 VPU");
        assert_eq!(*out.choices.last().unwrap(), ConfigKind::Save2Vpu, "dense phase back on 2");
    }

    #[test]
    fn heuristic_is_close_to_oracle_on_stable_phases() {
        // Scale each simulated kernel to a full layer's duration (tens of
        // ms, ~20,000x our reduced kernels) so the 10 µs DVFS penalty is
        // weighed as the paper weighs it (§VII-A: "the switching overhead
        // of a typical DVFS manager is around ten microseconds, while our
        // configuration switches at tens of milliseconds").
        let mut seq = Vec::new();
        for _ in 0..6 {
            seq.push((kernel(0.75, 0.8), 20_000.0));
        }
        let m = machine();
        let oracle = run_sequence(&seq, VpuPolicy::Oracle, &m).unwrap();
        let heur = run_sequence(&seq, VpuPolicy::default_heuristic(), &m).unwrap();
        // One mispredicted kernel of six plus switch cost: within 25%.
        assert!(
            heur.total_seconds <= oracle.total_seconds * 1.25,
            "heuristic {} vs oracle {}",
            heur.total_seconds,
            oracle.total_seconds
        );
    }
}
