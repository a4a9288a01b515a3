//! Conventional select: oldest-first, whole-vector issue, no sparsity
//! awareness. This is the paper's baseline machine (2 VPUs at 1.7 GHz).

use crate::config::CoreConfig;
use crate::mgu;
use crate::rename::PhysRegFile;
use crate::replay::Recorder;
use crate::rs::{Rs, RsEntry};
use crate::sched::SelectScratch;
use crate::stats::CoreStats;
use crate::uop::FmaPrecision;
use crate::vpu::{LaneResult, VpuOp};
use save_isa::LANES;

/// Issues up to one full VFMA per VPU per cycle: the oldest in the RS's
/// `ready` bitset, which under the baseline holds the VFMAs whose A, B and
/// accumulator are all ready — no waiting entry is read.
///
/// The baseline never runs the MGUs, so under trace recording (`rec`) it
/// computes each VFMA's would-be ELM here, at issue time — operands are
/// proven ready, and functional values are program-order-deterministic, so
/// the mask equals what a SAVE configuration's MGU would generate for the
/// same allocation sequence. The computation feeds only the recorder; the
/// run itself is untouched.
#[allow(clippy::too_many_arguments)]
pub fn select(
    rs: &mut Rs,
    prf: &PhysRegFile,
    cfg: &CoreConfig,
    cycle: u64,
    stats: &mut CoreStats,
    sx: &mut SelectScratch,
    out: &mut Vec<VpuOp>,
    mut rec: Option<&mut Recorder>,
    elide: bool,
) {
    sx.issued.clear();
    for slot in rs.ready_slots() {
        if out.len() == cfg.num_vpus {
            break;
        }
        let RsEntry::Fma(f) = rs.at(slot) else { continue };
        if let Some(r) = rec.as_deref_mut() {
            match f.precision {
                FmaPrecision::F32 => {
                    let elm = mgu::elm_f32(prf.value(f.a), prf.value(f.b), f.wm);
                    r.record_fma(f.seq, elm, 0);
                }
                FmaPrecision::Bf16 => {
                    let (ml, al) = mgu::elm_mp(prf.value(f.a), prf.value(f.b));
                    r.record_fma(f.seq, al, ml);
                }
            }
        }
        let mut results = sx.lease();
        let latency = match f.precision {
            FmaPrecision::F32 => {
                for lane in 0..LANES {
                    let value = if elide {
                        0.0
                    } else if f.wm >> lane & 1 == 1 {
                        super::lane_value_f32(f, prf, lane)
                    } else {
                        prf.value(f.acc_src).lane(lane)
                    };
                    results.push(LaneResult { rob: f.rob, dst: f.acc_dst, lane, value });
                }
                cfg.fp32_fma_cycles
            }
            FmaPrecision::Bf16 => {
                for al in 0..LANES {
                    let value = if elide {
                        0.0
                    } else {
                        let base = prf.value(f.acc_src).lane(al);
                        super::al_value_mp(f, prf, al, 0b11, base)
                    };
                    results.push(LaneResult { rob: f.rob, dst: f.acc_dst, lane: al, value });
                }
                cfg.mp_fma_cycles
            }
        };
        stats.vpu_ops += 1;
        stats.lanes_issued += LANES as u64;
        out.push(VpuOp { complete_at: cycle + latency, results });
        sx.issued.push(f.rob);
    }
    rs.remove(&sx.issued);
}
