//! VPU select logic: baseline, SAVE vertical coalescing (with rotation and
//! lane-wise dependence), horizontal compression, and the mixed-precision
//! multiplicand-lane compression.
//!
//! Each scheduler consumes ready [`crate::rs::FmaEntry`]s from the
//! reservation station and produces at most one compacted
//! [`crate::vpu::VpuOp`] per VPU per cycle. Functional lane values are
//! computed at select time (operand lanes are proven ready) and written back
//! at completion.
//!
//! Select runs every simulated cycle, so it is the hottest code in the
//! simulator. All schedulers work out of a per-core [`SelectScratch`]: the
//! candidate lists, per-temp pick lists and per-VPU result accumulators are
//! reused across cycles, and the `Vec<LaneResult>` payloads of completed
//! [`VpuOp`]s are recycled through a pool, so steady-state selection
//! performs no heap allocation.

pub mod baseline;
pub mod horizontal;
pub mod mixed;
pub mod vertical;

use crate::config::{CoreConfig, SchedulerKind};
use crate::rename::PhysRegFile;
use crate::replay::Recorder;
use crate::rs::{FmaEntry, Rs, RsEntry};
use crate::stats::CoreStats;
use crate::uop::{FmaPrecision, RobId};
use crate::vpu::{LaneResult, VpuOp};
use save_isa::LANES;

/// Reusable per-core scheduling buffers (see the module docs).
///
/// The combination-window scoreboard (`masks`, `window_precision`,
/// `mp_window`) must be refreshed with [`window_masks`] each cycle before
/// calling [`select`] under a non-baseline scheduler — the core does this
/// anyway to sample the CW-size statistic.
#[derive(Debug, Default)]
pub struct SelectScratch {
    /// Per-cycle window scoreboard: `(RS slot, schedulable lane mask)` for
    /// every VFMA whose mask is nonzero, oldest first.
    /// Entries mutated by select never change a *later* entry's mask (masks
    /// depend only on the entry's own state and the unmodified PRF), so the
    /// scoreboard stays valid for the whole select pass.
    masks: Vec<(usize, u16)>,
    /// Precision of the oldest VFMA in the combination window this cycle
    /// (a cycle's temps are homogeneous in precision and follow it).
    window_precision: Option<FmaPrecision>,
    /// RS slots of the in-window BF16 VFMAs, oldest first:
    /// the mixed-precision select's candidates, whatever their accumulator
    /// readiness (a forwarded partial can stand in for it).
    mp_window: Vec<usize>,
    /// Vertical: candidates of the window precision, oldest first, as
    /// `(RS slot, schedulable lanes rotated into temp positions)`.
    cand: Vec<(usize, u16)>,
    /// Vertical: per temp, the lane positions already assigned this cycle.
    vc_taken: Vec<u16>,
    /// Vertical: per temp and lane position, the RS slot of the entry
    /// that owns it (meaningful where `vc_taken` has the bit set).
    vc_owner: Vec<[u32; LANES]>,
    /// Mixed: each candidate's live lane positions for the cycle.
    mp_live: Vec<u16>,
    /// Mixed: per-VPU result accumulators.
    per_vpu: Vec<Vec<LaneResult>>,
    /// Baseline: ROB ids issued this cycle (removed from the RS after).
    issued: Vec<RobId>,
    /// SAVE selects: ROB ids of the VFMAs whose last effectual lane (or
    /// ML) this cycle's select scheduled, each reported once, in the order
    /// select finished them. The core removes exactly these from the RS.
    finished: Vec<RobId>,
    /// Recycled lane-result payloads from completed ops.
    pool: Vec<Vec<LaneResult>>,
}

impl SelectScratch {
    /// Creates empty scratch; buffers grow to steady-state sizes on first
    /// use and are then reused.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of VFMAs in the combination window as of the last
    /// [`window_masks`] refresh (§III samples 24-28 on SAVE workloads).
    pub fn window_len(&self) -> usize {
        self.masks.len()
    }

    /// VFMAs the last [`select`] finished (see the field docs); not sorted.
    pub fn finished(&self) -> &[RobId] {
        &self.finished
    }

    /// Hands out an empty lane-result vector, recycling a completed op's
    /// payload when one is pooled.
    pub(crate) fn lease(&mut self) -> Vec<LaneResult> {
        self.pool.pop().unwrap_or_else(|| Vec::with_capacity(LANES))
    }

    /// Returns a completed op's payload to the pool for reuse.
    pub fn recycle(&mut self, mut v: Vec<LaneResult>) {
        v.clear();
        self.pool.push(v);
    }
}

/// Refreshes the combination-window scoreboard in `sx` (and nothing else):
/// one pass over the RS's window bitset per cycle, evaluating each member's
/// schedulable mask once. VFMAs still waiting on operands or on their MGU
/// are not visited. The CW-size statistic and every select pass read the
/// result; none of them rescans the station for the window's precision or
/// its BF16 members.
pub fn window_masks(rs: &Rs, prf: &PhysRegFile, lane_wise: bool, sx: &mut SelectScratch) {
    sx.masks.clear();
    sx.mp_window.clear();
    sx.window_precision = None;
    for i in rs.window_slots() {
        let RsEntry::Fma(f) = rs.at(i) else { continue };
        sx.window_precision.get_or_insert(f.precision);
        if f.precision == FmaPrecision::Bf16 {
            sx.mp_window.push(i);
        }
        let m = acc_ready_lanes(f, prf, lane_wise);
        if m != 0 {
            sx.masks.push((i, m));
        }
    }
}

/// Runs the configured select logic for one cycle, appending the issued ops
/// to `out` (cleared first). Non-baseline schedulers read the scoreboard
/// refreshed by [`window_masks`] this cycle.
///
/// `rec` arms functional-trace recording (only the baseline scheduler
/// records anything here — it generates ELMs at issue since it never runs
/// the MGUs). `elide` is set under trace replay: lane value math collapses
/// to literal `+0.0`, which is bit-identical to computing it because every
/// physical-register value is `+0.0` under the replay invariant (see
/// [`crate::replay`]); all masks, latencies and statistics are untouched.
#[allow(clippy::too_many_arguments)]
pub fn select(
    rs: &mut Rs,
    prf: &PhysRegFile,
    cfg: &CoreConfig,
    cycle: u64,
    stats: &mut CoreStats,
    sx: &mut SelectScratch,
    out: &mut Vec<VpuOp>,
    rec: Option<&mut Recorder>,
    elide: bool,
) {
    out.clear();
    sx.finished.clear();
    match cfg.scheduler {
        SchedulerKind::Baseline => baseline::select(rs, prf, cfg, cycle, stats, sx, out, rec, elide),
        SchedulerKind::Vertical => match sx.window_precision {
            Some(FmaPrecision::Bf16) if cfg.mp_compress => {
                mixed::select(rs, prf, cfg, cycle, stats, sx, out, elide)
            }
            _ => vertical::select(rs, prf, cfg, cycle, stats, sx, out, elide),
        },
        SchedulerKind::Horizontal => horizontal::select(rs, prf, cfg, cycle, stats, sx, out, elide),
    }
}

/// The sanitizer's RS-reorder fault ([`crate::FaultKind::ReorderRsPick`]):
/// swaps the two oldest entries of the window scoreboard refreshed by
/// [`window_masks`], so select sees them youngest-first. Only a swap that
/// can change an assignment is made: the two must be of one precision and
/// share a temp lane position once rotated. Returns whether it swapped;
/// the caller retries on a later cycle otherwise.
pub fn swap_oldest_candidates(rs: &Rs, sx: &mut SelectScratch) -> bool {
    let [(s0, m0), (s1, m1), ..] = sx.masks[..] else { return false };
    let (RsEntry::Fma(f0), RsEntry::Fma(f1)) = (rs.at(s0), rs.at(s1)) else { return false };
    let rotated = |f: &FmaEntry, m: u16| m.rotate_left(f.rot.rem_euclid(LANES as i8) as u32);
    if f0.precision != f1.precision || rotated(f0, m0) & rotated(f1, m1) == 0 {
        return false;
    }
    sx.masks.swap(0, 1);
    true
}

/// Precision of the oldest VFMA currently in the combination window — a
/// fresh scan, for the sanitizer's independent view; the schedulers read
/// the value [`window_masks`] recorded.
pub(crate) fn oldest_window_precision(rs: &Rs, prf: &PhysRegFile) -> Option<FmaPrecision> {
    rs.iter().find_map(|e| match e {
        RsEntry::Fma(f) if f.in_window(prf) => Some(f.precision),
        _ => None,
    })
}

/// Lanes of `e` that may be scheduled this cycle under the configured
/// accumulator-dependence scheme: the unscheduled effectual lanes whose
/// accumulator-source lane is available (§IV-C).
pub(crate) fn sched_mask(e: &FmaEntry, prf: &PhysRegFile, lane_wise: bool) -> u16 {
    if !e.in_window(prf) {
        return 0;
    }
    acc_ready_lanes(e, prf, lane_wise)
}

/// [`sched_mask`] of an entry already known to be in the window.
fn acc_ready_lanes(e: &FmaEntry, prf: &PhysRegFile, lane_wise: bool) -> u16 {
    if lane_wise {
        e.elm & prf.ready_mask(e.acc_src)
    } else if prf.fully_ready(e.acc_src) {
        e.elm
    } else {
        0
    }
}

/// FP32 lane result: `c + a*b` with fused rounding.
pub(crate) fn lane_value_f32(e: &FmaEntry, prf: &PhysRegFile, lane: usize) -> f32 {
    let a = prf.value(e.a).lane(lane);
    let b = prf.value(e.b).lane(lane);
    let c = prf.value(e.acc_src).lane(lane);
    a.mul_add(b, c)
}

/// Mixed-precision AL result: two chained MACs over the AL's effectual MLs
/// in ML order (paper Fig 2), starting from `base`.
///
/// Only FP32 slot `al` of each operand is read: ML `2·al + h` is its half
/// `h` (low half first), and widening a BF16 to FP32 is placing its bits
/// in the high half — bit-identical to `as_bf16().lane(m).to_f32()`
/// without converting both 512-bit operands per lane.
pub(crate) fn al_value_mp(e: &FmaEntry, prf: &PhysRegFile, al: usize, ml_bits: u32, base: f32) -> f32 {
    let a = prf.value(e.a).lane(al).to_bits();
    let b = prf.value(e.b).lane(al).to_bits();
    let ml = |bits: u32, half: usize| f32::from_bits((bits >> (16 * half)) << 16);
    let mut acc = base;
    for half in 0..2usize {
        if ml_bits >> half & 1 == 1 {
            acc = ml(a, half).mul_add(ml(b, half), acc);
        }
    }
    acc
}
