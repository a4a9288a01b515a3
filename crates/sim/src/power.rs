//! Core power and energy estimation — the quantitative side of §IV-D's
//! power-saving argument ("today's VPUs are so power hungry that the power
//! managers may reduce core frequency when running vector code ... at high
//! sparsity ... reducing the number of VPUs would have little performance
//! impact").
//!
//! The model is deliberately simple and fully documented: a per-core static
//! power, a dynamic energy per compacted VPU operation scaled by occupied
//! lanes, per-µop front-end energy, and the Table II B$ figures (leakage +
//! per-access energy). Absolute watts are approximate; the *relative*
//! comparison between operating points at a given sparsity is the point.

use crate::runner::KernelResult;
use save_mem::energy::{EnergyFigures, PrecisionSupport, StorageModel};
use serde::{Deserialize, Serialize};

/// Power/energy model constants (22 nm-class server core).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct PowerModel {
    /// Static (leakage + uncore share) power per core in W.
    pub static_w: f64,
    /// Additional static power per *enabled* VPU in W.
    pub vpu_static_w: f64,
    /// Dynamic energy of a fully occupied 16-lane VPU operation in nJ.
    pub vpu_op_nj: f64,
    /// Front-end + rename + commit energy per µop in nJ.
    pub uop_nj: f64,
    /// L1-D access energy in nJ.
    pub l1_access_nj: f64,
    /// Broadcast-cache figures (Table II).
    pub bcast: EnergyFigures,
}

impl Default for PowerModel {
    fn default() -> Self {
        PowerModel {
            static_w: 1.2,
            vpu_static_w: 0.45,
            vpu_op_nj: 1.1,
            uop_nj: 0.12,
            l1_access_nj: 0.06,
            bcast: StorageModel::default().bcast_data_energy(PrecisionSupport::Fp32AndMixed),
        }
    }
}

/// Energy breakdown of one kernel run.
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct EnergyBreakdown {
    /// Static energy over the run, in J.
    pub static_j: f64,
    /// VPU dynamic energy, in J.
    pub vpu_j: f64,
    /// Front-end/µop energy, in J.
    pub frontend_j: f64,
    /// Memory (L1 + B$) access energy, in J.
    pub memory_j: f64,
}

impl EnergyBreakdown {
    /// Total energy in J.
    pub fn total_j(&self) -> f64 {
        self.static_j + self.vpu_j + self.frontend_j + self.memory_j
    }

    /// Mean power over the run in W.
    pub fn mean_power_w(&self, seconds: f64) -> f64 {
        if seconds <= 0.0 {
            0.0
        } else {
            self.total_j() / seconds
        }
    }
}

impl PowerModel {
    /// Estimates the energy of a kernel run executed with `num_vpus`
    /// enabled VPUs.
    ///
    /// VPU dynamic energy scales with occupied temp lanes (clock-gated
    /// empty lanes burn ~15% of an active lane, the Eyeriss-style gating
    /// the paper cites). Skipped VFMAs cost nothing on the VPU but their
    /// µops still traversed the front end.
    pub fn estimate(&self, r: &KernelResult, num_vpus: usize) -> EnergyBreakdown {
        let s = &r.stats;
        let lanes = 16.0;
        let occupied = s.lanes_issued as f64;
        let empty = (s.vpu_ops as f64 * lanes - occupied).max(0.0);
        let vpu_j = (occupied + 0.15 * empty) / lanes * self.vpu_op_nj * 1e-9;
        let static_w = self.static_w
            + self.vpu_static_w * num_vpus as f64
            + self.bcast.leakage_mw * 1e-3;
        EnergyBreakdown {
            static_j: static_w * r.seconds,
            vpu_j,
            frontend_j: s.uops_committed as f64 * self.uop_nj * 1e-9,
            memory_j: (s.loads_issued + s.stores_issued) as f64 * self.l1_access_nj * 1e-9
                + s.bcast_hits as f64 * self.bcast.access_nj * 1e-9,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{ConfigKind, KernelResult, MachineConfig};
    use crate::spec::CellSpec;
    use save_kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};

    fn kernel(a: f64, b: f64) -> GemmWorkload {
        GemmWorkload::dense(
            "pw",
            GemmKernelSpec {
                m_tiles: 6,
                n_vecs: 3,
                pattern: BroadcastPattern::Explicit,
                precision: Precision::F32,
            },
            64,
            2,
        )
        .with_sparsity(a, b)
    }

    fn run(w: GemmWorkload, kind: ConfigKind) -> KernelResult {
        CellSpec::new(w, kind, MachineConfig::default(), 1).run(None).unwrap()
    }

    #[test]
    fn sparse_runs_use_less_vpu_energy() {
        let pm = PowerModel::default();
        let dense = run(kernel(0.0, 0.0), ConfigKind::Save2Vpu);
        let sparse = run(kernel(0.6, 0.6), ConfigKind::Save2Vpu);
        let ed = pm.estimate(&dense, 2);
        let es = pm.estimate(&sparse, 2);
        assert!(es.vpu_j < ed.vpu_j * 0.6, "VPU energy must drop with skipped work");
        assert!(es.total_j() < ed.total_j());
    }

    #[test]
    fn one_vpu_saves_static_power_at_high_sparsity() {
        let pm = PowerModel::default();
        let r2 = run(kernel(0.7, 0.8), ConfigKind::Save2Vpu);
        let r1 = run(kernel(0.7, 0.8), ConfigKind::Save1Vpu);
        let e2 = pm.estimate(&r2, 2);
        let e1 = pm.estimate(&r1, 1);
        // §IV-D: at high sparsity one VPU does (at least) comparable work
        // per joule — energy must not be higher.
        assert!(
            e1.total_j() <= e2.total_j() * 1.05,
            "1 VPU {} J vs 2 VPUs {} J",
            e1.total_j(),
            e2.total_j()
        );
    }

    #[test]
    fn breakdown_sums_and_power_is_positive() {
        let pm = PowerModel::default();
        let r = run(kernel(0.3, 0.3), ConfigKind::Save2Vpu);
        let e = pm.estimate(&r, 2);
        let sum = e.static_j + e.vpu_j + e.frontend_j + e.memory_j;
        assert!((e.total_j() - sum).abs() < 1e-18);
        assert!(e.mean_power_w(r.seconds) > 0.0);
        assert_eq!(EnergyBreakdown::default().mean_power_w(0.0), 0.0);
    }
}
