//! Vertical coalescing — Algorithm 1 of the paper, with the rotate (§IV-B)
//! and lane-wise dependence (§IV-C) extensions.
//!
//! Per temp lane position, the select logic picks the oldest ready VFMA with
//! an unscheduled effectual lane in that (rotated) position; with `N` VPUs it
//! picks up to `N` entries per position. Elements never move across lanes
//! (that is horizontal compression's job), so per-lane accumulation order is
//! program order and FP32 results are bit-exact with sequential execution.
//!
//! Mixed-precision VFMAs are handled here at accumulator-lane granularity
//! when the MP compression technique is disabled: an AL issues as a unit
//! (both effectual MLs), so sparsity exploitation is limited to ALs whose
//! MLs are *all* ineffectual (the Fig 9 effect; Fig 19 quantifies the loss).

use crate::config::CoreConfig;
use crate::rename::PhysRegFile;
use crate::rs::{Rs, RsEntry};
use crate::sched::SelectScratch;
use crate::stats::CoreStats;
use crate::uop::FmaPrecision;
use crate::vpu::{LaneResult, VpuOp};
use save_isa::LANES;

/// Runs one cycle of vertical coalescing. `elide` (trace replay) collapses
/// lane values to `+0.0` — bit-identical under the replay invariant — while
/// mask consumption, latencies and statistics stay untouched.
#[allow(clippy::too_many_arguments)]
pub fn select(
    rs: &mut Rs,
    prf: &PhysRegFile,
    cfg: &CoreConfig,
    cycle: u64,
    stats: &mut CoreStats,
    sx: &mut SelectScratch,
    out: &mut Vec<VpuOp>,
    elide: bool,
) {
    // Candidates: the window scoreboard filtered to the cycle's precision,
    // oldest-first, masks consumed in place as lanes are assigned.
    let Some(precision) = sx.window_precision else { return };
    sx.cand.clear();
    for &(pos, m) in &sx.masks {
        if let RsEntry::Fma(f) = rs.at(pos) {
            if f.precision == precision {
                sx.cand.push((pos, m));
            }
        }
    }
    if sx.cand.is_empty() {
        return;
    }

    // Algorithm 1: per lane position, assign the first N candidates with an
    // unscheduled effectual lane there to the N temps.
    let nv = cfg.num_vpus;
    if sx.temps.len() < nv {
        sx.temps.resize_with(nv, Vec::new);
    }
    for t in &mut sx.temps[..nv] {
        t.clear();
    }
    for pos in 0..LANES {
        let mut v = 0;
        for ci in 0..sx.cand.len() {
            if v == nv {
                break;
            }
            let entry_pos = sx.cand[ci].0;
            let f = match rs.at(entry_pos) {
                RsEntry::Fma(f) => f,
                _ => unreachable!(),
            };
            let lane = f.logical_lane(pos);
            if sx.cand[ci].1 >> lane & 1 == 0 {
                continue;
            }
            sx.cand[ci].1 &= !(1 << lane);
            sx.temps[v].push((entry_pos, lane));
            v += 1;
        }
    }

    // Build the compacted VPU ops, computing values and consuming ELM bits.
    let latency = match precision {
        FmaPrecision::F32 => cfg.fp32_fma_cycles,
        FmaPrecision::Bf16 => cfg.mp_fma_cycles,
    };
    for v in 0..nv {
        if sx.temps[v].is_empty() {
            continue;
        }
        let mut results = sx.lease();
        for pi in 0..sx.temps[v].len() {
            let (entry_pos, lane) = sx.temps[v][pi];
            let f = match rs.at_mut(entry_pos) {
                RsEntry::Fma(f) => f,
                _ => unreachable!(),
            };
            let value = match precision {
                FmaPrecision::F32 => {
                    if elide {
                        0.0
                    } else {
                        super::lane_value_f32(f, prf, lane)
                    }
                }
                FmaPrecision::Bf16 => {
                    let bits = f.ml_bits_at(lane);
                    let val = if elide {
                        0.0
                    } else {
                        let base = prf.value(f.acc_src).lane(lane);
                        super::al_value_mp(f, prf, lane, bits, base)
                    };
                    f.ml &= !(0b11 << (2 * lane));
                    stats.mp_mls_issued += bits.count_ones() as u64;
                    val
                }
            };
            f.elm &= !(1 << lane);
            results.push(LaneResult { rob: f.rob, dst: f.acc_dst, lane, value });
        }
        stats.vpu_ops += 1;
        stats.lanes_issued += results.len() as u64;
        out.push(VpuOp { complete_at: cycle + latency, results });
    }
}
