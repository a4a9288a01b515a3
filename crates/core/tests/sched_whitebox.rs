//! White-box scheduler tests: hand-built reservation-station states
//! reproducing the paper's worked examples — Fig 5a (vertical coalescing
//! with lane conflicts), Fig 7 (rotation vs register reuse) and Fig 8
//! (vector-wise vs lane-wise dependence) — and the Fig 10/11 mixed-precision
//! chain rules, checked directly against the select logic's lane and
//! multiplicand-lane (ML) assignments.

use save_core::rename::PhysRegFile;
use save_core::rs::{FmaEntry, Rs, RsEntry, NO_FWD};
use save_core::sched;
use save_core::uop::FmaPrecision;
use save_core::{CoreConfig, CoreStats};
use save_isa::{Bf16, VReg, VecBf16, VecF32, LANES, ML_LANES};

struct Setup {
    rs: Rs,
    prf: PhysRegFile,
}

fn setup() -> Setup {
    Setup { rs: Rs::new(97, 224, 128), prf: PhysRegFile::new(128) }
}

/// Adds an FMA whose operands are ready, with the given remaining ELM and
/// rotation; returns its acc_dst physical register.
fn add_fma(s: &mut Setup, rob: usize, acc_log: u8, rot: i8, elm: u16) -> u32 {
    let a = s.prf.alloc().unwrap();
    let b = s.prf.alloc().unwrap();
    let acc_src = s.prf.alloc().unwrap();
    let acc_dst = s.prf.alloc().unwrap();
    s.prf.write_all(a, VecF32::splat(2.0));
    s.prf.write_all(b, VecF32::splat(3.0));
    s.prf.write_all(acc_src, VecF32::splat(1.0));
    s.rs.push(RsEntry::Fma(FmaEntry {
        rob,
        precision: FmaPrecision::F32,
        acc_log: VReg(acc_log),
        rot,
        acc_src,
        acc_dst,
        a,
        b,
        wm: u16::MAX,
        elm_ready: true,
        elm,
        orig_elm: elm,
        ml: 0,
        orig_ml: 0,
        chain_pred: None,
        chain_succ: None,
        fwd_base: [0.0; LANES],
        fwd_ready: [NO_FWD; LANES],
        seq: rob as u64,
    }));
    acc_dst
}

/// Old-signature convenience wrappers: refresh the window scoreboard (as
/// the core's cycle loop does) and collect the issued ops.
fn select_vertical(
    rs: &mut Rs,
    prf: &PhysRegFile,
    cfg: &CoreConfig,
    cycle: u64,
    stats: &mut CoreStats,
) -> Vec<save_core::vpu::VpuOp> {
    let mut sx = sched::SelectScratch::new();
    sched::window_masks(rs, prf, cfg.lane_wise, &mut sx);
    let mut out = Vec::new();
    sched::vertical::select(rs, prf, cfg, cycle, stats, &mut sx, &mut out, false);
    out
}

fn select_horizontal(
    rs: &mut Rs,
    prf: &PhysRegFile,
    cfg: &CoreConfig,
    cycle: u64,
    stats: &mut CoreStats,
) -> Vec<save_core::vpu::VpuOp> {
    let mut sx = sched::SelectScratch::new();
    sched::window_masks(rs, prf, cfg.lane_wise, &mut sx);
    let mut out = Vec::new();
    sched::horizontal::select(rs, prf, cfg, cycle, stats, &mut sx, &mut out, false);
    out
}

fn one_vpu() -> CoreConfig {
    CoreConfig { num_vpus: 1, ..CoreConfig::save_2vpu() }
}

#[test]
fn fig5a_vertical_coalescing_fills_per_lane_oldest_first() {
    // I1 effectual on lanes {0, 2}; I2 on {0}; I3 on {1, 2}. One VPU.
    // Vertical coalescing must take lane 0 and 2 from I1 (oldest) and lane
    // 1 from I3; I2's lane 0 and I3's lane 2 wait for the next cycle.
    let mut s = setup();
    add_fma(&mut s, 1, 0, 0, 0b101);
    add_fma(&mut s, 2, 1, 0, 0b001);
    add_fma(&mut s, 3, 2, 0, 0b110);
    let mut stats = CoreStats::default();
    let ops = select_vertical(&mut s.rs, &s.prf, &one_vpu(), 0, &mut stats);
    assert_eq!(ops.len(), 1);
    let mut got: Vec<(usize, usize)> =
        ops[0].results.iter().map(|r| (r.rob, r.lane)).collect();
    got.sort_unstable();
    assert_eq!(got, vec![(1, 0), (1, 2), (3, 1)]);
    // Remaining ELM bits: I1 empty, I2 lane 0, I3 lane 2.
    let leftover: Vec<(usize, u16)> = s
        .rs
        .iter()
        .filter_map(|e| match e {
            RsEntry::Fma(f) => Some((f.rob, f.elm)),
            _ => None,
        })
        .collect();
    assert_eq!(leftover, vec![(1, 0), (2, 0b001), (3, 0b100)]);
}

#[test]
fn fig7_rotation_breaks_shared_pattern_conflicts() {
    // Three VFMAs whose effectual lanes all sit at logical lane 0 (shared
    // non-broadcasted register, Fig 7a). Without rotation a single VPU can
    // only serve one per cycle; with the accumulator-derived rotations
    // (0, +1, -1) all three fit one temp (Fig 7b).
    let mut s = setup();
    for (rob, acc) in [(1usize, 0u8), (2, 1), (3, 2)] {
        let rot = VReg(acc).rotation_state();
        add_fma(&mut s, rob, acc, rot, 0b1);
    }
    let mut stats = CoreStats::default();
    let ops = select_vertical(&mut s.rs, &s.prf, &one_vpu(), 0, &mut stats);
    assert_eq!(ops.len(), 1);
    assert_eq!(ops[0].results.len(), 3, "rotation must de-conflict all three lanes");

    // Same state without rotation: only one lane scheduled.
    let mut s = setup();
    for (rob, acc) in [(1usize, 0u8), (2, 1), (3, 2)] {
        add_fma(&mut s, rob, acc, 0, 0b1);
    }
    let ops = select_vertical(&mut s.rs, &s.prf, &one_vpu(), 0, &mut stats);
    assert_eq!(ops[0].results.len(), 1, "without rotation the lanes conflict");
}

#[test]
fn fig8_lane_wise_dependence_unblocks_false_dependences() {
    // I1 (acc chain R_src -> R_mid) still has lane 0 outstanding; I2
    // consumes R_mid. I2's lane 1 input is ready (lane 1 of R_mid written
    // by pass-through), lane 0 is not. Under vector-wise dependence I2 must
    // wait entirely; under lane-wise dependence its lane 1 issues.
    let mut s = setup();
    let a = s.prf.alloc().unwrap();
    let b = s.prf.alloc().unwrap();
    s.prf.write_all(a, VecF32::splat(2.0));
    s.prf.write_all(b, VecF32::splat(3.0));
    let r_mid = s.prf.alloc().unwrap(); // I1's dst = I2's acc_src
    s.prf.write_lane(r_mid, 1, 1.0); // lane 1 complete, lane 0 outstanding
    let r_dst = s.prf.alloc().unwrap();
    s.rs.push(RsEntry::Fma(FmaEntry {
        rob: 2,
        precision: FmaPrecision::F32,
        acc_log: VReg(0),
        rot: 0,
        acc_src: r_mid,
        acc_dst: r_dst,
        a,
        b,
        wm: u16::MAX,
        elm_ready: true,
        elm: 0b10, // effectual on lane 1 only
        orig_elm: 0b10,
        ml: 0,
        orig_ml: 0,
        chain_pred: Some(1),
        chain_succ: None,
        fwd_base: [0.0; LANES],
        fwd_ready: [NO_FWD; LANES],
        seq: 2,
    }));
    let mut stats = CoreStats::default();

    // Vector-wise: nothing issues.
    let vw = CoreConfig { lane_wise: false, ..one_vpu() };
    let ops = select_vertical(&mut s.rs, &s.prf, &vw, 0, &mut stats);
    assert!(ops.is_empty(), "vector-wise dependence must block I2");

    // Lane-wise: lane 1 issues with the correct value 1 + 2*3.
    let lw = CoreConfig { lane_wise: true, ..one_vpu() };
    let ops = select_vertical(&mut s.rs, &s.prf, &lw, 0, &mut stats);
    assert_eq!(ops.len(), 1);
    assert_eq!(ops[0].results.len(), 1);
    assert_eq!(ops[0].results[0].lane, 1);
    assert_eq!(ops[0].results[0].value, 7.0);
}

#[test]
fn two_vpus_double_per_lane_throughput() {
    // Four entries all effectual on lane 3 only: one VPU serves one per
    // cycle, two VPUs serve two.
    for (vpus, expect) in [(1usize, 1usize), (2, 2)] {
        let mut s = setup();
        for rob in 1..=4 {
            add_fma(&mut s, rob, rob as u8 * 3, 0, 0b1000);
        }
        let cfg = CoreConfig { num_vpus: vpus, rotate: false, ..CoreConfig::save_2vpu() };
        let mut stats = CoreStats::default();
        let ops = select_vertical(&mut s.rs, &s.prf, &cfg, 0, &mut stats);
        assert_eq!(ops.len(), expect, "{vpus} VPUs");
        assert!(ops.iter().all(|o| o.results.len() == 1));
    }
}

#[test]
fn horizontal_compression_ignores_lane_positions() {
    // The same conflicting state as fig7 (all lanes at position 0, no
    // rotation): HC packs all three into one temp anyway, at the price of
    // its latency penalty.
    let mut s = setup();
    for (rob, acc) in [(1usize, 0u8), (2, 1), (3, 2)] {
        add_fma(&mut s, rob, acc, 0, 0b1);
    }
    let cfg = CoreConfig {
        scheduler: save_core::SchedulerKind::Horizontal,
        num_vpus: 1,
        ..CoreConfig::save_2vpu()
    };
    let mut stats = CoreStats::default();
    let ops = select_horizontal(&mut s.rs, &s.prf, &cfg, 10, &mut stats);
    assert_eq!(ops.len(), 1);
    assert_eq!(ops[0].results.len(), 3);
    assert_eq!(
        ops[0].complete_at,
        10 + cfg.fp32_fma_cycles + cfg.hc_penalty_cycles,
        "HC pays the crossbar latency"
    );
}

/// A BF16 vector with `v` in every multiplicand lane.
fn bf16_splat(v: f32) -> VecF32 {
    VecBf16::from_lanes([Bf16::from_f32(v); ML_LANES]).to_vec_f32_bits()
}

/// Adds an in-window mixed-precision VFMA (operands 2.0 × 3.0 in every ML)
/// accumulating from `acc_src` with the given remaining ML mask, rotation
/// and chain predecessor; links the predecessor's `chain_succ` back to it.
/// Returns its acc_dst physical register.
fn add_mp(s: &mut Setup, rob: usize, acc_src: u32, ml: u32, rot: i8, pred: Option<usize>) -> u32 {
    let a = s.prf.alloc().unwrap();
    let b = s.prf.alloc().unwrap();
    let acc_dst = s.prf.alloc().unwrap();
    s.prf.write_all(a, bf16_splat(2.0));
    s.prf.write_all(b, bf16_splat(3.0));
    let al = (0..LANES).filter(|&l| ml >> (2 * l) & 0b11 != 0).fold(0u16, |m, l| m | 1 << l);
    s.rs.push(RsEntry::Fma(FmaEntry {
        rob,
        precision: FmaPrecision::Bf16,
        acc_log: VReg(0),
        rot,
        acc_src,
        acc_dst,
        a,
        b,
        wm: u16::MAX,
        elm_ready: true,
        elm: al,
        orig_elm: al,
        ml,
        orig_ml: ml,
        chain_pred: pred,
        chain_succ: None,
        fwd_base: [0.0; LANES],
        fwd_ready: [NO_FWD; LANES],
        seq: rob as u64,
    }));
    if let Some(p) = pred {
        s.rs.find_fma_mut(p).unwrap().chain_succ = Some(rob);
    }
    acc_dst
}

/// Refreshes the window scoreboard and runs one mixed-precision select.
fn select_mixed(
    rs: &mut Rs,
    prf: &PhysRegFile,
    cfg: &CoreConfig,
    cycle: u64,
    stats: &mut CoreStats,
) -> Vec<save_core::vpu::VpuOp> {
    let mut sx = sched::SelectScratch::new();
    sched::window_masks(rs, prf, cfg.lane_wise, &mut sx);
    let mut out = Vec::new();
    sched::mixed::select(rs, prf, cfg, cycle, stats, &mut sx, &mut out, false);
    out
}

fn mp_state(rs: &Rs, rob: usize) -> (u32, u16) {
    rs.iter()
        .find_map(|e| match e {
            RsEntry::Fma(f) if f.rob == rob => Some((f.ml, f.elm)),
            _ => None,
        })
        .unwrap()
}

#[test]
fn mp_successor_waits_while_its_predecessor_holds_the_lane() {
    // I1 holds both MLs of AL0 but cannot issue: in one case its
    // accumulator is not ready (it is still in the combination window), in
    // the other it waits on a multiplicand (it is not in the window). I2, its
    // chain successor, has one ML at AL0 and one at AL1 and a ready base
    // everywhere. Program order per AL (§V-A) forbids I2 from leading AL0
    // while I1 still holds MLs there; AL1, where I1 has nothing, issues.
    for i1_in_window in [true, false] {
        let mut s = setup();
        let pending = s.prf.alloc().unwrap(); // never written: not ready
        let ready = s.prf.alloc().unwrap();
        s.prf.write_all(ready, VecF32::splat(1.0));
        add_mp(&mut s, 1, if i1_in_window { pending } else { ready }, 0b11, 0, None);
        if !i1_in_window {
            // Re-listed on the register it now waits for, which never wakes.
            let mut i1 = s.rs.find_fma_mut(1).unwrap().clone();
            s.rs.remove(&[1]);
            i1.a = pending;
            s.rs.push_waiting(RsEntry::Fma(i1), &[pending]);
        }
        add_mp(&mut s, 2, ready, 0b01_01, 0, Some(1));
        let cfg = CoreConfig { mp_compress: true, ..CoreConfig::save_2vpu() };
        let mut stats = CoreStats::default();
        let ops = select_mixed(&mut s.rs, &s.prf, &cfg, 0, &mut stats);
        assert_eq!(ops.len(), 1, "I1 in window: {i1_in_window}");
        let got: Vec<(usize, usize, f32)> =
            ops[0].results.iter().map(|r| (r.rob, r.lane, r.value)).collect();
        assert_eq!(got, vec![(2, 1, 1.0 + 2.0 * 3.0)], "only I2's AL1 may issue");
        assert_eq!(stats.mp_mls_issued, 1);
        assert_eq!(mp_state(&s.rs, 1), (0b11, 0b01), "I1 untouched");
        assert_eq!(mp_state(&s.rs, 2), (0b01, 0b01), "I2 keeps its AL0 ML");
    }
}

#[test]
fn mp_single_ml_leader_extends_into_its_successor() {
    // I1 has one effectual ML at AL3 (ML0) and I2, its chain successor,
    // both MLs there. One VPU: the temp AL3 slot packs I1's ML and I2's
    // first ML (Fig 10b). I1 finishes at AL3 and writes its destination;
    // I2's running value is forwarded, not written, and its second ML
    // stays for a later op (§V-B). The chain's accumulator is rotated by
    // one lane, so AL3 sits at temp position 4 (§IV-B).
    let mut s = setup();
    let base = s.prf.alloc().unwrap();
    s.prf.write_all(base, VecF32::splat(1.0));
    let mid = add_mp(&mut s, 1, base, 0b01 << 6, 1, None);
    add_mp(&mut s, 2, mid, 0b11 << 6, 1, Some(1));
    let cfg = CoreConfig { mp_compress: true, num_vpus: 1, ..CoreConfig::save_2vpu() };
    let mut stats = CoreStats::default();
    let cycle = 40;
    let ops = select_mixed(&mut s.rs, &s.prf, &cfg, cycle, &mut stats);
    assert_eq!(ops.len(), 1);
    let got: Vec<(usize, usize, f32)> =
        ops[0].results.iter().map(|r| (r.rob, r.lane, r.value)).collect();
    assert_eq!(got, vec![(1, 3, 1.0 + 2.0 * 3.0)], "I1 finalizes AL3");
    assert_eq!(stats.mp_mls_issued, 2, "one temp slot carried two MLs");
    assert_eq!(mp_state(&s.rs, 1), (0, 0));
    assert_eq!(mp_state(&s.rs, 2), (0b10 << 6, 1 << 3), "I2's ML1 at AL3 remains");
    let i2 = s.rs.iter().find_map(|e| match e {
        RsEntry::Fma(f) if f.rob == 2 => Some(f.clone()),
        _ => None,
    });
    let i2 = i2.unwrap();
    let fwd_delay = cfg.mp_fma_cycles - cfg.mp_forward_overlap;
    assert_eq!(i2.fwd_ready[3], cycle + fwd_delay, "partial forwarded to the next op");
    assert_eq!(i2.fwd_base[3], 1.0 + 2.0 * 3.0 + 2.0 * 3.0);
}

// ---------------------------------------------------------------------------
// Randomized windows: the vertical select against a position-major
// reference, and finish reporting under every SAVE select.

use proptest::prelude::*;

/// One generated RS entry: effectual bits (the ELM for FP32, the ML mask
/// for BF16), a rotation selector (0, 1, 2 → rot -1, 0, +1), a role
/// selector, and a seed for its operand and accumulator lanes.
type EntrySpec = (u32, u8, u8, u64);

/// Roles drawn from the selector: `0` has not generated its ELM yet (out
/// of the window), `1` has its accumulator only half ready, `2` is of the
/// other precision, `3` chains to the previous entry (its accumulator is
/// the predecessor's destination); everything else is an ordinary ready
/// entry.
fn role(sel: u8) -> u8 {
    if sel < 4 {
        sel
    } else {
        4
    }
}

fn entry_specs(max: usize) -> impl Strategy<Value = Vec<EntrySpec>> {
    // Dense, half-dense and sparse effectual masks, so that windows both
    // conflict heavily and hold entries one select can finish.
    let bits = (any::<u32>(), any::<u32>(), 0u8..3).prop_map(|(x, y, d)| match d {
        0 => x,
        1 => x & y,
        _ => x & y & y.rotate_left(11),
    });
    prop::collection::vec((bits, 0u8..3, 0u8..14, any::<u64>()), 1..max + 1)
}

/// Lane `l` of a seeded vector: small nonzero values for FP32, arbitrary
/// (non-NaN) BF16 pairs for BF16.
fn seeded(seed: u64, bf16: bool) -> VecF32 {
    let mut x = seed | 1;
    let lanes = std::array::from_fn(|_| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        if bf16 {
            // Two BF16 halves with exponents kept well inside range.
            let h = |b: u64| (0x3c00 | (b & 0x0f7f)) as u32;
            f32::from_bits(h(x >> 8) << 16 | h(x >> 24))
        } else {
            ((x >> 40) % 29) as f32 * 0.25 - 3.5
        }
    });
    VecF32::from_lanes(lanes)
}

/// Builds an RS (ROB ids 1..) from `specs`. The window precision is BF16
/// when `bf16`, with the other-precision role flipping it per entry.
fn build_window(specs: &[EntrySpec], bf16: bool) -> Setup {
    let mut s = Setup { rs: Rs::new(97, 224, 200), prf: PhysRegFile::new(200) };
    let mut prev_dst = None;
    for (i, &(bits, rot_sel, role_sel, seed)) in specs.iter().enumerate() {
        let rob = i + 1;
        let role = role(role_sel);
        let mp = bf16 != (role == 2);
        let a = s.prf.alloc().unwrap();
        let b = s.prf.alloc().unwrap();
        let acc_dst = s.prf.alloc().unwrap();
        s.prf.write_all(a, seeded(seed, mp));
        s.prf.write_all(b, seeded(seed.rotate_left(17), mp));
        let (acc_src, chain_pred) = match (role, prev_dst) {
            (3, Some((p, pd))) => (pd, Some(p)),
            _ => {
                let c = s.prf.alloc().unwrap();
                let acc = seeded(seed.rotate_left(33), false);
                if role == 1 {
                    for l in (0..LANES).filter(|l| seed >> l & 1 == 1) {
                        s.prf.write_lane(c, l, acc.lane(l));
                    }
                } else {
                    s.prf.write_all(c, acc);
                }
                (c, None)
            }
        };
        let (elm, ml) = if mp {
            let ml = bits.max(1);
            let al = (0..LANES).filter(|&l| ml >> (2 * l) & 0b11 != 0).fold(0, |m, l| m | 1 << l);
            (al, ml)
        } else {
            ((bits as u16).max(1), 0)
        };
        s.rs.push(RsEntry::Fma(FmaEntry {
            rob,
            precision: if mp { FmaPrecision::Bf16 } else { FmaPrecision::F32 },
            acc_log: VReg(0),
            rot: rot_sel as i8 - 1,
            acc_src,
            acc_dst,
            a,
            b,
            wm: u16::MAX,
            elm_ready: role != 0,
            elm,
            orig_elm: elm,
            ml,
            orig_ml: ml,
            chain_pred,
            chain_succ: None,
            fwd_base: [0.0; LANES],
            fwd_ready: [NO_FWD; LANES],
            seq: rob as u64,
        }));
        if let Some(p) = chain_pred {
            s.rs.find_fma_mut(p).unwrap().chain_succ = Some(rob);
        }
        prev_dst = Some((rob, acc_dst));
    }
    s
}

/// An issued op as comparable data: completion cycle and `(rob, dst,
/// lane, value bits)` per lane result, in order.
type OpView = (u64, Vec<(usize, u32, usize, u32)>);

fn view(ops: &[save_core::vpu::VpuOp]) -> Vec<OpView> {
    ops.iter()
        .map(|o| {
            let r = o.results.iter().map(|r| (r.rob, r.dst, r.lane, r.value.to_bits())).collect();
            (o.complete_at, r)
        })
        .collect()
}

/// `(rob, elm, ml)` of every entry, in program order.
fn masks(rs: &Rs) -> Vec<(usize, u16, u32)> {
    rs.iter()
        .filter_map(|e| match e {
            RsEntry::Fma(f) => Some((f.rob, f.elm, f.ml)),
            _ => None,
        })
        .collect()
}

/// ROB ids of the finished entries still in the station, ascending.
fn finished_in(rs: &Rs) -> Vec<usize> {
    rs.iter()
        .filter_map(|e| match e {
            RsEntry::Fma(f) if f.elm_ready && f.elm == 0 && f.ml == 0 => Some(f.rob),
            _ => None,
        })
        .collect()
}

/// Algorithm 1 as a position-major loop — for each temp lane position,
/// the first `N` candidates (oldest first) with an unscheduled effectual
/// lane there go to temps `0..N` — with the lane math widening both
/// operands to BF16 vectors. The reference the candidate-major select and
/// its per-lane operand reads must match bit for bit.
fn reference_vertical(
    rs: &mut Rs,
    prf: &PhysRegFile,
    cfg: &CoreConfig,
    cycle: u64,
    stats: &mut CoreStats,
) -> (Vec<OpView>, Vec<usize>) {
    let window = |f: &FmaEntry| f.elm_ready && prf.fully_ready(f.a) && prf.fully_ready(f.b);
    let Some(precision) = rs.iter().find_map(|e| match e {
        RsEntry::Fma(f) if window(f) => Some(f.precision),
        _ => None,
    }) else {
        return (Vec::new(), Vec::new());
    };
    let mut cand: Vec<(usize, u16)> = Vec::new();
    for (pos, e) in rs.indexed() {
        if let RsEntry::Fma(f) = e {
            let m = f.elm & prf.ready_mask(f.acc_src);
            if window(f) && f.precision == precision && m != 0 {
                cand.push((pos, m));
            }
        }
    }
    let nv = cfg.num_vpus;
    let mut temps: Vec<Vec<(usize, usize)>> = vec![Vec::new(); nv];
    for pos in 0..LANES {
        let mut v = 0;
        for c in cand.iter_mut() {
            if v == nv {
                break;
            }
            let RsEntry::Fma(f) = rs.at(c.0) else { unreachable!() };
            let lane = f.logical_lane(pos);
            if c.1 >> lane & 1 == 0 {
                continue;
            }
            c.1 &= !(1 << lane);
            temps[v].push((c.0, lane));
            v += 1;
        }
    }
    let latency = match precision {
        FmaPrecision::F32 => cfg.fp32_fma_cycles,
        FmaPrecision::Bf16 => cfg.mp_fma_cycles,
    };
    let mut ops = Vec::new();
    let mut finished = Vec::new();
    for temp in temps.iter().filter(|t| !t.is_empty()) {
        let mut results = Vec::new();
        for &(pos, lane) in temp {
            let RsEntry::Fma(f) = rs.at_mut(pos) else { unreachable!() };
            let c = prf.value(f.acc_src).lane(lane);
            let value = match precision {
                FmaPrecision::F32 => {
                    prf.value(f.a).lane(lane).mul_add(prf.value(f.b).lane(lane), c)
                }
                FmaPrecision::Bf16 => {
                    let (av, bv) = (prf.value(f.a).as_bf16(), prf.value(f.b).as_bf16());
                    let bits = f.ml_bits_at(lane);
                    let mut acc = c;
                    for half in 0..2 {
                        if bits >> half & 1 == 1 {
                            let m = 2 * lane + half;
                            acc = av.lane(m).to_f32().mul_add(bv.lane(m).to_f32(), acc);
                        }
                    }
                    f.ml &= !(0b11 << (2 * lane));
                    stats.mp_mls_issued += u64::from(bits.count_ones());
                    acc
                }
            };
            f.elm &= !(1 << lane);
            if f.elm == 0 && f.ml == 0 {
                finished.push(f.rob);
            }
            results.push((f.rob, f.acc_dst, lane, value.to_bits()));
        }
        stats.vpu_ops += 1;
        stats.lanes_issued += results.len() as u64;
        ops.push((cycle + latency, results));
    }
    finished.sort_unstable();
    (ops, finished)
}

/// Runs one select of `cfg.scheduler` through the dispatcher after a
/// window refresh, as the core does; returns the ops and the reported
/// finishes, sorted.
fn select_once(
    s: &mut Setup,
    cfg: &CoreConfig,
    cycle: u64,
    stats: &mut CoreStats,
) -> (Vec<OpView>, Vec<usize>) {
    let mut sx = sched::SelectScratch::new();
    sched::window_masks(&s.rs, &s.prf, cfg.lane_wise, &mut sx);
    let mut out = Vec::new();
    sched::select(&mut s.rs, &s.prf, cfg, cycle, stats, &mut sx, &mut out, None, false);
    let mut finished = sx.finished().to_vec();
    let reported = finished.len();
    finished.sort_unstable();
    finished.dedup();
    assert_eq!(finished.len(), reported, "an entry was reported finished twice");
    (view(&out), finished)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The candidate-major vertical select issues exactly what Algorithm 1's
    /// position-major loop issues: the same ops with the same lane results
    /// in the same order, the same residual masks and statistics, and the
    /// same finished entries.
    #[test]
    fn vertical_select_matches_position_major_reference(
        specs in entry_specs(40),
        nv in 1usize..5,
        bf16 in any::<bool>(),
    ) {
        let cfg = CoreConfig { num_vpus: nv, mp_compress: false, ..CoreConfig::save_2vpu() };
        let mut got = build_window(&specs, bf16);
        let mut want = build_window(&specs, bf16);
        let before = finished_in(&got.rs);
        prop_assert!(before.is_empty());
        let (mut got_stats, mut want_stats) = (CoreStats::default(), CoreStats::default());
        let (ops, finished) = select_once(&mut got, &cfg, 7, &mut got_stats);
        let (ref_ops, ref_finished) =
            reference_vertical(&mut want.rs, &want.prf, &cfg, 7, &mut want_stats);
        prop_assert_eq!(ops, ref_ops);
        prop_assert_eq!(masks(&got.rs), masks(&want.rs));
        prop_assert_eq!(&finished, &ref_finished);
        prop_assert_eq!(got_stats, want_stats);
    }

    /// Every SAVE select reports exactly the entries its bit clearing
    /// finished: after one select from a window with no finished entry,
    /// the report equals the set of entries that are now ELM-ready with
    /// no effectual lane or ML left.
    #[test]
    fn save_selects_report_exactly_what_they_finish(
        specs in entry_specs(24),
        nv in 1usize..4,
        which in 0u8..4,
    ) {
        let (scheduler, bf16, mp_compress) = match which {
            0 => (save_core::SchedulerKind::Vertical, false, false),
            1 => (save_core::SchedulerKind::Horizontal, false, false),
            2 => (save_core::SchedulerKind::Horizontal, true, false),
            _ => (save_core::SchedulerKind::Vertical, true, true),
        };
        let cfg = CoreConfig { scheduler, num_vpus: nv, mp_compress, ..CoreConfig::save_2vpu() };
        let mut s = build_window(&specs, bf16);
        let mut stats = CoreStats::default();
        let (_, finished) = select_once(&mut s, &cfg, 3, &mut stats);
        prop_assert_eq!(finished, finished_in(&s.rs));
    }
}

#[test]
fn mixed_select_reports_a_successor_it_finishes_as_an_extension() {
    // I1 has one ML at AL0; its chain successor I2 has one ML there and
    // nothing else. The single temp slot packs both, which finishes both
    // VFMAs in one op: I2 through the extension, never as a leader.
    let mut s = setup();
    let base = s.prf.alloc().unwrap();
    s.prf.write_all(base, VecF32::splat(1.0));
    let mid = add_mp(&mut s, 1, base, 0b01, 0, None);
    add_mp(&mut s, 2, mid, 0b10, 0, Some(1));
    let cfg = CoreConfig { mp_compress: true, num_vpus: 1, ..CoreConfig::save_2vpu() };
    let mut stats = CoreStats::default();
    let (ops, finished) = select_once(&mut s, &cfg, 0, &mut stats);
    assert_eq!(ops.len(), 1);
    assert_eq!(stats.mp_mls_issued, 2);
    assert_eq!(finished, vec![1, 2]);
    assert_eq!(finished, finished_in(&s.rs));
}

#[test]
fn reorder_fault_leaves_candidates_that_share_no_position_in_age_order() {
    // I1 and I2 are both effectual on logical lane 0, but I2's accumulator
    // rotates it to temp position 1: no position is contested, so the
    // fault hook declines to swap. Horizontal select packs candidates in
    // list order, which shows the list is still oldest-first.
    let mut s = setup();
    add_fma(&mut s, 1, 0, 0, 0b1);
    add_fma(&mut s, 2, 1, 1, 0b1);
    let cfg = CoreConfig {
        scheduler: save_core::SchedulerKind::Horizontal,
        num_vpus: 1,
        ..CoreConfig::save_2vpu()
    };
    let mut sx = sched::SelectScratch::new();
    sched::window_masks(&s.rs, &s.prf, cfg.lane_wise, &mut sx);
    assert!(!sched::swap_oldest_candidates(&s.rs, &mut sx));
    let mut out = Vec::new();
    let mut stats = CoreStats::default();
    sched::horizontal::select(&mut s.rs, &s.prf, &cfg, 0, &mut stats, &mut sx, &mut out, false);
    let got: Vec<(usize, usize)> = out[0].results.iter().map(|r| (r.rob, r.lane)).collect();
    assert_eq!(got, vec![(1, 0), (2, 0)]);
}

#[test]
fn reorder_fault_hands_a_shared_position_to_the_younger_candidate() {
    // I1 is effectual on lane 1 (position 1); I2's lane 0 rotates onto
    // position 1 too. The hook swaps them, and a one-VPU vertical select
    // then gives position 1 to I2 — the age inversion the sanitizer's
    // vc-age-order check exists to catch.
    let mut s = setup();
    add_fma(&mut s, 1, 0, 0, 0b10);
    add_fma(&mut s, 2, 1, 1, 0b01);
    let cfg = one_vpu();
    let mut sx = sched::SelectScratch::new();
    sched::window_masks(&s.rs, &s.prf, cfg.lane_wise, &mut sx);
    assert!(sched::swap_oldest_candidates(&s.rs, &mut sx));
    let mut out = Vec::new();
    let mut stats = CoreStats::default();
    sched::vertical::select(&mut s.rs, &s.prf, &cfg, 0, &mut stats, &mut sx, &mut out, false);
    let got: Vec<(usize, usize)> = out[0].results.iter().map(|r| (r.rob, r.lane)).collect();
    assert_eq!(got, vec![(2, 0)], "the younger entry took the contested position");
    assert_eq!(mp_state(&s.rs, 1), (0, 0b10), "the older entry still waits");
}
