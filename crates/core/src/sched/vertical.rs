//! Vertical coalescing — Algorithm 1 of the paper, with the rotate (§IV-B)
//! and lane-wise dependence (§IV-C) extensions.
//!
//! Per temp lane position, the select logic picks the oldest ready VFMA with
//! an unscheduled effectual lane in that (rotated) position; with `N` VPUs it
//! picks up to `N` entries per position. Elements never move across lanes
//! (that is horizontal compression's job), so per-lane accumulation order is
//! program order and FP32 results are bit-exact with sequential execution.
//! A VFMA whose last effectual lane is picked is reported in
//! [`SelectScratch::finished`] (Algorithm 1 lines 12-14).
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
    // oldest-first, each mask rotated from logical lanes into temp lane
    // positions (position `p` holds logical lane `p - rot`, §IV-B).
    let Some(precision) = sx.window_precision else { return };
    sx.cand.clear();
    for &(slot, m) in &sx.masks {
        if let RsEntry::Fma(f) = rs.at(slot) {
            if f.precision == precision {
                let rot = f.rot.rem_euclid(LANES as i8) as u32;
                sx.cand.push((slot, m.rotate_left(rot)));
            }
        }
    }
    let nv = cfg.num_vpus;
    if sx.cand.is_empty() || nv == 0 {
        return;
    }

    // Algorithm 1: per lane position, assign the first N candidates with an
    // unscheduled effectual lane there to the N temps. Walked candidate-
    // major: each candidate, oldest first, drops each of its positions
    // into the lowest temp still free there, so a position's k-th
    // candidate lands in temp k exactly as a per-position walk would
    // place it — as bit operations on whole 16-position masks.
    if sx.vc_taken.len() < nv {
        sx.vc_taken.resize(nv, 0);
        sx.vc_owner.resize(nv, [0; LANES]);
    }
    sx.vc_taken[..nv].fill(0);
    for &(slot, mut avail) in &sx.cand {
        for v in 0..nv {
            if avail == 0 {
                break;
            }
            let mut take = avail & !sx.vc_taken[v];
            sx.vc_taken[v] |= take;
            avail &= !take;
            while take != 0 {
                sx.vc_owner[v][take.trailing_zeros() as usize] = slot as u32;
                take &= take - 1;
            }
        }
        if sx.vc_taken[nv - 1] == u16::MAX {
            break; // every temp is full at every position
        }
    }

    // Build the compacted VPU ops, computing values and consuming ELM bits.
    let latency = match precision {
        FmaPrecision::F32 => cfg.fp32_fma_cycles,
        FmaPrecision::Bf16 => cfg.mp_fma_cycles,
    };
    // Each temp's lanes are emitted in position order.
    for v in 0..nv {
        let mut taken = sx.vc_taken[v];
        if taken == 0 {
            continue;
        }
        let mut results = sx.lease();
        while taken != 0 {
            let pos = taken.trailing_zeros() as usize;
            taken &= taken - 1;
            let f = match rs.at_mut(sx.vc_owner[v][pos] as usize) {
                RsEntry::Fma(f) => f,
                _ => unreachable!(),
            };
            let lane = f.logical_lane(pos);
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
            if f.is_finished() {
                sx.finished.push(f.rob);
            }
            results.push(LaneResult { rob: f.rob, dst: f.acc_dst, lane, value });
        }
        stats.vpu_ops += 1;
        stats.lanes_issued += results.len() as u64;
        out.push(VpuOp { complete_at: cycle + latency, results });
    }
}
