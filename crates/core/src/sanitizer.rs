//! Cycle-level microarchitectural sanitizer.
//!
//! A pluggable invariant checker driven from [`crate::Core`]'s step loop.
//! The simulator's scariest failure mode is not a crash but a silently wrong
//! cycle count or value: SAVE's correctness hinges on exactly the accounting
//! that sparsity-skip mechanisms get wrong at corner cases — Algorithm 1's
//! oldest-first vertical coalescing, exactly-once issue of every effectual
//! ELM lane, RVC rotate/un-rotate inversion, broadcast-cache freshness
//! (§III-IV). The sanitizer shadows the pipeline and checks:
//!
//! * **lane-conservation** — every effectual lane of every VFMA's ELM is
//!   scheduled exactly once (never dropped, duplicated, or invented),
//!   checked at issue, at RS exit, and at commit;
//! * **vc-age-order** — Algorithm 1: a younger VFMA never occupies a temp
//!   lane position that an older ready VFMA wanted (vertical coalescing);
//! * **rvc-rotation** / **lane-value** — each issued FP32 lane's value
//!   equals the reference `a*b+c` at its *logical* lane, so a rotation that
//!   is not correctly inverted at writeback surfaces as a value mismatch on
//!   a rotated (state != 0) entry;
//! * **rename-hygiene** — the free list and the live set (rename table,
//!   pending ROB frees, the cracked-load temp) partition the physical pool:
//!   no leak, no double-free, no register both free and live;
//! * **rob-retire-order** — entries retire in allocation-sequence order;
//! * **rs-scoreboard** — an ELM-ready RS entry's operands really are fully
//!   ready, each VFMA's `ready` and `window` bits agree with its operands'
//!   delivered wakeups and its ELM, no entry holds effectual bits outside
//!   its generated masks, and no finished VFMA (ELM and ML fully scheduled)
//!   is left in the station once the stages that finish entries have
//!   removed them;
//! * **bcast-freshness** — B$ entries (with-data and with-masks designs
//!   both store the line zero-mask) agree with backing memory, audited
//!   round-robin one entry per state-scan;
//! * **bs-passthrough** — lanes skipped by broadcast-sparsity (and masked
//!   lanes) hold bit-exact copies of the accumulator source at commit.
//!
//! Event hooks run every cycle whenever the sanitizer is enabled; the
//! heavier whole-state scans run at the [`SanitizeLevel`] stride. The
//! sanitizer is purely observational: simulated cycle counts are identical
//! with it on or off, and `Off` costs one skipped `Option` check per hook.
//!
//! Violations surface as a [`SanitizerReport`] carried out of the core in
//! [`crate::RunOutcome::violation`], which `save-sim` wraps into
//! `SimError::InvariantViolation` so they flow through sweep `failures.json`
//! like any other typed failure. The paired fault injector
//! ([`crate::fault`]) proves each checker actually fires.

use crate::config::SanitizeLevel;
use crate::rename::{PhysRegFile, RenameTable};
use crate::rob::{Rob, RobEntry};
use crate::rs::{FmaEntry, Rs, RsEntry};
use crate::uop::{FmaPrecision, PhysId, RobId};
use crate::vpu::VpuOp;
use save_isa::LANES;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::fmt;

/// Structured witness of an invariant violation.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SanitizerReport {
    /// Name of the violated invariant (e.g. `"lane-conservation"`).
    pub invariant: String,
    /// Simulated cycle at which the violation was detected.
    pub cycle: u64,
    /// ROB id / allocation sequence of the µop involved, when one is.
    pub rob: Option<u64>,
    /// Human-readable witness state (masks, registers, values).
    pub witness: String,
}

impl fmt::Display for SanitizerReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invariant {} violated at cycle {}", self.invariant, self.cycle)?;
        if let Some(r) = self.rob {
            write!(f, " (rob {r})")?;
        }
        write!(f, ": {}", self.witness)
    }
}

/// Per-VFMA shadow state: what the sanitizer believes the scheduler owes
/// this instruction.
struct FmaShadow {
    baseline: bool,
    precision: FmaPrecision,
    acc_src: PhysId,
    acc_dst: PhysId,
    a: PhysId,
    b: PhysId,
    wm: u16,
    rot: i8,
    /// Whether the ELM (and hence `expected`) has been captured yet.
    elm_known: bool,
    /// Lanes that must issue exactly once (the generated ELM; all lanes for
    /// the baseline scheduler, which issues whole vectors).
    expected: u16,
    /// Lanes observed issuing so far.
    scheduled: u16,
}

/// One pre-select snapshot row: a vertical-coalescing candidate.
struct SnapEntry {
    rob: RobId,
    mask: u16,
    rot: i8,
}

/// The checker. One per core; owned by [`crate::Core`] when
/// [`crate::CoreConfig::sanitize`] is not `Off`.
pub struct Sanitizer {
    level: SanitizeLevel,
    violation: Option<SanitizerReport>,
    fmas: HashMap<RobId, FmaShadow>,
    expected_commit_seq: u64,
    bcast_idx: usize,
    snapshot: Vec<SnapEntry>,
    snapshot_valid: bool,
    /// State scans performed (exposed for the overhead self-test).
    state_scans: u64,
}

/// Sets `slot` if it is empty — the sanitizer keeps the *first* violation,
/// since later ones are usually fallout of the first.
fn set(
    slot: &mut Option<SanitizerReport>,
    invariant: &'static str,
    cycle: u64,
    rob: Option<RobId>,
    witness: String,
) {
    if slot.is_none() {
        *slot = Some(SanitizerReport {
            invariant: invariant.to_string(),
            cycle,
            rob: rob.map(|r| r as u64),
            witness,
        });
    }
}

impl Sanitizer {
    /// Creates a checker at `level` (callers gate on
    /// [`SanitizeLevel::enabled`]).
    pub fn new(level: SanitizeLevel) -> Self {
        Sanitizer {
            level,
            violation: None,
            fmas: HashMap::new(),
            expected_commit_seq: 0,
            bcast_idx: 0,
            snapshot: Vec::new(),
            snapshot_valid: false,
            state_scans: 0,
        }
    }

    /// Whether the heavy state scans are due on `cycle`.
    pub fn due(&self, cycle: u64) -> bool {
        self.level.due(cycle)
    }

    /// Takes the first recorded violation, if any.
    pub fn take_violation(&mut self) -> Option<SanitizerReport> {
        self.violation.take()
    }

    /// State scans performed so far.
    pub fn state_scans(&self) -> u64 {
        self.state_scans
    }

    /// Registers a freshly allocated VFMA. The baseline scheduler issues
    /// all 16 lanes of every VFMA (masked lanes as accumulator copies), so
    /// its expectation is known immediately; SAVE expectations wait for the
    /// MGU via [`Sanitizer::sync_elms`].
    pub(crate) fn on_fma_alloc(&mut self, f: &FmaEntry, baseline: bool) {
        self.fmas.insert(
            f.rob,
            FmaShadow {
                baseline,
                precision: f.precision,
                acc_src: f.acc_src,
                acc_dst: f.acc_dst,
                a: f.a,
                b: f.b,
                wm: f.wm,
                rot: f.rot,
                elm_known: baseline,
                expected: if baseline { crate::rename::ALL_LANES } else { 0 },
                scheduled: 0,
            },
        );
    }

    /// Captures freshly generated ELMs right after the MGU stage — before
    /// any lane of those entries can issue or the BS sweep can remove them,
    /// so the shadow expectation is the ground-truth mask.
    pub(crate) fn sync_elms(&mut self, rs: &Rs) {
        for e in rs.iter() {
            if let RsEntry::Fma(f) = e {
                if f.elm_ready {
                    if let Some(sh) = self.fmas.get_mut(&f.rob) {
                        if !sh.elm_known {
                            sh.elm_known = true;
                            sh.expected = f.orig_elm;
                        }
                    }
                }
            }
        }
    }

    /// Snapshots the vertical-coalescing candidate set immediately before
    /// select, for the age-order check. Call only on cycles where the
    /// vertical scheduler (not mixed/horizontal/baseline) will run.
    pub(crate) fn snapshot_vc(&mut self, rs: &Rs, prf: &PhysRegFile, lane_wise: bool) {
        self.snapshot.clear();
        let precision = match crate::sched::oldest_window_precision(rs, prf) {
            Some(p) => p,
            None => {
                self.snapshot_valid = false;
                return;
            }
        };
        for e in rs.iter() {
            if let RsEntry::Fma(f) = e {
                if f.precision != precision {
                    continue;
                }
                let m = crate::sched::sched_mask(f, prf, lane_wise);
                if m != 0 {
                    self.snapshot.push(SnapEntry { rob: f.rob, mask: m, rot: f.rot });
                }
            }
        }
        self.snapshot_valid = true;
    }

    /// Invalidates the candidate snapshot (cycles where vertical select does
    /// not run).
    pub(crate) fn clear_snapshot(&mut self) {
        self.snapshot_valid = false;
    }

    /// Checks the ops the scheduler just produced: lane conservation (each
    /// result lane effectual and not yet issued), FP32 value correctness at
    /// the logical lane (which is where a missed rotation inversion
    /// surfaces), and — when a candidate snapshot is valid — Algorithm 1
    /// age order.
    pub(crate) fn check_issue(&mut self, ops: &[VpuOp], prf: &PhysRegFile, cycle: u64) {
        let vio = &mut self.violation;
        for op in ops {
            for r in &op.results {
                let Some(sh) = self.fmas.get_mut(&r.rob) else {
                    set(
                        vio,
                        "lane-conservation",
                        cycle,
                        Some(r.rob),
                        format!("lane {} issued for a VFMA the sanitizer never saw allocate", r.lane),
                    );
                    continue;
                };
                let bit = 1u16 << r.lane;
                // Value first: a rotation fault moves a correct value to a
                // wrong lane, which must be named rvc-rotation even when the
                // displaced lane also breaks conservation.
                if sh.precision == FmaPrecision::F32 {
                    let c = prf.value(sh.acc_src).lane(r.lane);
                    let reference = if sh.baseline && sh.wm & bit == 0 {
                        c
                    } else {
                        prf.value(sh.a).lane(r.lane).mul_add(prf.value(sh.b).lane(r.lane), c)
                    };
                    if reference.to_bits() != r.value.to_bits() {
                        let invariant =
                            if sh.rot != 0 { "rvc-rotation" } else { "lane-value" };
                        set(
                            vio,
                            invariant,
                            cycle,
                            Some(r.rob),
                            format!(
                                "lane {} (rotation state {}) carries {} but a*b+c at the logical lane is {} \
                                 (a={}, b={}, c={})",
                                r.lane,
                                sh.rot,
                                r.value,
                                reference,
                                prf.value(sh.a).lane(r.lane),
                                prf.value(sh.b).lane(r.lane),
                                c
                            ),
                        );
                    }
                }
                if !sh.elm_known {
                    set(
                        vio,
                        "lane-conservation",
                        cycle,
                        Some(r.rob),
                        format!("lane {} issued before the MGU generated an ELM", r.lane),
                    );
                } else if sh.expected & bit == 0 {
                    set(
                        vio,
                        "lane-conservation",
                        cycle,
                        Some(r.rob),
                        format!(
                            "lane {} issued but is not effectual (ELM {:#06x})",
                            r.lane, sh.expected
                        ),
                    );
                }
                if sh.scheduled & bit != 0 {
                    set(
                        vio,
                        "lane-conservation",
                        cycle,
                        Some(r.rob),
                        format!(
                            "lane {} issued twice (already-scheduled mask {:#06x})",
                            r.lane, sh.scheduled
                        ),
                    );
                }
                sh.scheduled |= bit;
            }
        }
        if self.snapshot_valid {
            self.check_age_order(ops, cycle);
        }
    }

    /// Algorithm 1 age order: per temp lane position, every candidate older
    /// than the youngest VFMA issued at that position must itself have been
    /// issued there (or not have wanted it).
    fn check_age_order(&mut self, ops: &[VpuOp], cycle: u64) {
        let mut issued_at: [Vec<RobId>; LANES] = Default::default();
        for op in ops {
            for r in &op.results {
                if let Some(s) = self.snapshot.iter().find(|s| s.rob == r.rob) {
                    let pos = (r.lane as i32 + s.rot as i32).rem_euclid(LANES as i32) as usize;
                    issued_at[pos].push(r.rob);
                }
            }
        }
        let mut found: Option<(RobId, RobId, usize, usize)> = None;
        'outer: for (pos, issued) in issued_at.iter().enumerate() {
            let Some(&youngest) = issued.iter().max() else { continue };
            // Compare by rob id, not snapshot position: a faulty scheduler
            // may have perturbed RS order, which is exactly what we check.
            for s in &self.snapshot {
                if s.rob >= youngest {
                    continue;
                }
                let lane = (pos as i32 - s.rot as i32).rem_euclid(LANES as i32) as usize;
                if s.mask >> lane & 1 == 1 && !issued.contains(&s.rob) {
                    found = Some((s.rob, youngest, pos, lane));
                    break 'outer;
                }
            }
        }
        if let Some((older, younger, pos, lane)) = found {
            set(
                &mut self.violation,
                "vc-age-order",
                cycle,
                Some(older),
                format!(
                    "ready VFMA rob {older} wanted temp position {pos} (its logical lane {lane}) \
                     but younger VFMA rob {younger} was issued there instead"
                ),
            );
        }
    }

    /// A VFMA left the reservation station: with its ELM fully consumed,
    /// the lanes observed issuing must be exactly the generated ELM — this
    /// is where a *dropped* lane is caught (a dropped lane never completes
    /// its destination, so it would otherwise hang to the watchdog).
    pub(crate) fn on_rs_exit(&mut self, rob: RobId, cycle: u64) {
        if let Some(sh) = self.fmas.get(&rob) {
            if sh.elm_known && sh.scheduled != sh.expected {
                let (scheduled, expected) = (sh.scheduled, sh.expected);
                set(
                    &mut self.violation,
                    "lane-conservation",
                    cycle,
                    Some(rob),
                    format!(
                        "VFMA left the RS with scheduled lanes {scheduled:#06x} != ELM {expected:#06x}"
                    ),
                );
            }
        }
    }

    /// Commit-time checks: retire order, final lane conservation, and the
    /// BS/mask pass-through copy. Must run *before* the entry's frees are
    /// released so both accumulator registers still hold their values.
    pub(crate) fn on_commit(&mut self, e: &RobEntry, prf: &PhysRegFile, cycle: u64) {
        if e.seq != self.expected_commit_seq {
            let expected = self.expected_commit_seq;
            set(
                &mut self.violation,
                "rob-retire-order",
                cycle,
                Some(e.seq as RobId),
                format!("committed seq {} but the next allocation-order seq is {expected}", e.seq),
            );
        }
        self.expected_commit_seq = e.seq + 1;
        let Some(sh) = self.fmas.remove(&(e.seq as RobId)) else { return };
        let vio = &mut self.violation;
        if sh.elm_known && sh.scheduled != sh.expected {
            set(
                vio,
                "lane-conservation",
                cycle,
                Some(e.seq as RobId),
                format!(
                    "VFMA committed with scheduled lanes {:#06x} != ELM {:#06x}",
                    sh.scheduled, sh.expected
                ),
            );
        } else if !sh.elm_known {
            set(
                vio,
                "lane-conservation",
                cycle,
                Some(e.seq as RobId),
                "VFMA committed but the MGU never generated its ELM".to_string(),
            );
        }
        // Pass-through lanes (ineffectual under SAVE — including every lane
        // of a BS-skipped VFMA) must be bit-exact accumulator moves. The
        // baseline writes masked lanes through the VPU as copies, which the
        // issue-time value check already covers.
        if !sh.baseline && sh.elm_known {
            let mut pass = !sh.expected;
            while pass != 0 {
                let lane = pass.trailing_zeros() as usize;
                pass &= pass - 1;
                let dst = prf.value(sh.acc_dst).lane(lane);
                let src = prf.value(sh.acc_src).lane(lane);
                if dst.to_bits() != src.to_bits() {
                    set(
                        vio,
                        "bs-passthrough",
                        cycle,
                        Some(e.seq as RobId),
                        format!(
                            "skipped lane {lane} holds {dst} at commit but the accumulator \
                             source holds {src} (ELM {:#06x})",
                            sh.expected
                        ),
                    );
                    break;
                }
            }
        }
    }

    /// Heavy state scans: the rename-pool partition and the RS scoreboard
    /// cross-check. Run at the configured stride. `baseline` says whether
    /// VFMAs wait on their accumulator as well as on A and B.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn check_state(
        &mut self,
        prf: &PhysRegFile,
        rt: &RenameTable,
        rob: &Rob,
        rs: &Rs,
        pending_temp: Option<PhysId>,
        baseline: bool,
        cycle: u64,
    ) {
        self.state_scans += 1;
        let vio = &mut self.violation;

        // Rename hygiene: free list ∪ live set partitions the pool.
        // Live = current architectural mappings + registers awaiting release
        // in ROB frees + the cracked-load temp between its load and FMA.
        const FREE: u8 = 1;
        const LIVE: u8 = 2;
        let mut tag = vec![0u8; prf.num_regs()];
        for &p in prf.free_list() {
            if tag[p as usize] == FREE {
                set(
                    vio,
                    "rename-hygiene",
                    cycle,
                    None,
                    format!("physical register p{p} appears twice on the free list"),
                );
            }
            tag[p as usize] = FREE;
        }
        let mut live = |tag: &mut [u8], p: PhysId, role: &str| {
            if tag[p as usize] == FREE {
                set(
                    vio,
                    "rename-hygiene",
                    cycle,
                    None,
                    format!("physical register p{p} is on the free list but live ({role})"),
                );
            }
            tag[p as usize] = LIVE;
        };
        for &p in rt.mappings() {
            live(&mut tag, p, "rename-table mapping");
        }
        for e in rob.iter() {
            for p in e.frees.into_iter().flatten() {
                live(&mut tag, p, "pending ROB free");
            }
        }
        if let Some(p) = pending_temp {
            live(&mut tag, p, "cracked-load temp");
        }
        if let Some(p) = tag.iter().position(|&t| t == 0) {
            set(
                vio,
                "rename-hygiene",
                cycle,
                None,
                format!("physical register p{p} leaked: neither free nor reachable as live"),
            );
        }

        // RS scoreboard: ELM-ready entries really have ready operands, the
        // wake-list bitsets match the operands and the ELM, and residual
        // masks stay within what the MGU generated.
        for e in rs.iter() {
            let RsEntry::Fma(f) = e else { continue };
            // `ready` is "every awaited operand is fully ready and the ELM
            // is not generated". A register that turned ready after this
            // cycle's wakeup drain is delivered next cycle, so while one
            // is in flight the bit may still read clear.
            let waits = [f.a, f.b, f.acc_src];
            let waits = &waits[..if baseline { 3 } else { 2 }];
            let want_ready = !f.elm_ready && waits.iter().all(|&r| prf.fully_ready(r));
            let in_flight = waits.iter().any(|r| prf.woken().contains(r));
            let (ready, window) = (rs.is_ready(f.rob), rs.in_window(f.rob));
            if (ready != want_ready && !(want_ready && in_flight)) || window != f.elm_ready {
                set(
                    vio,
                    "rs-scoreboard",
                    cycle,
                    Some(f.rob),
                    format!(
                        "wake bits disagree: ready {ready} (operands ready and no ELM: \
                         {want_ready}), window {window} (ELM generated: {})",
                        f.elm_ready
                    ),
                );
            }
            if f.elm_ready && !(prf.fully_ready(f.a) && prf.fully_ready(f.b)) {
                set(
                    vio,
                    "rs-scoreboard",
                    cycle,
                    Some(f.rob),
                    format!(
                        "entry is ELM-ready but operands are not (a ready {:#06x}, b ready {:#06x})",
                        prf.ready_mask(f.a),
                        prf.ready_mask(f.b)
                    ),
                );
            }
            if f.elm & !f.orig_elm != 0 {
                set(
                    vio,
                    "rs-scoreboard",
                    cycle,
                    Some(f.rob),
                    format!(
                        "residual ELM {:#06x} has bits outside the generated ELM {:#06x}",
                        f.elm, f.orig_elm
                    ),
                );
            }
            if f.ml & !f.orig_ml != 0 {
                set(
                    vio,
                    "rs-scoreboard",
                    cycle,
                    Some(f.rob),
                    format!(
                        "residual ML {:#010x} has bits outside the generated ML {:#010x}",
                        f.ml, f.orig_ml
                    ),
                );
            }
        }
    }

    /// The finish-reporting audit: runs after the cycle's last removal of
    /// finished VFMAs (select's, then the MGUs' BS skips). The core removes
    /// only the entries a stage reported, so a finished VFMA still waiting
    /// here is one whose finish went unreported — it would hold its RS
    /// slot until the watchdog.
    pub(crate) fn check_no_finished(&mut self, rs: &Rs, cycle: u64) {
        let stuck = rs.iter().find_map(|e| match e {
            RsEntry::Fma(f) if f.is_finished() => Some(f),
            _ => None,
        });
        if let Some(f) = stuck {
            set(
                &mut self.violation,
                "rs-scoreboard",
                cycle,
                Some(f.rob),
                format!(
                    "VFMA finished (ELM {:#06x} fully scheduled) but was never removed from the RS",
                    f.orig_elm
                ),
            );
        }
    }

    /// Round-robin index for the B$ freshness audit: each state scan audits
    /// one of `n` entries, so a full sweep costs `n` scans but any stale
    /// entry is found within `n * stride` cycles.
    pub(crate) fn next_bcast_idx(&mut self, n: usize) -> usize {
        let idx = self.bcast_idx % n;
        self.bcast_idx = self.bcast_idx.wrapping_add(1);
        idx
    }

    /// Records a stale B$ entry found by the audit.
    pub(crate) fn report_bcast_stale(&mut self, cycle: u64, line: u64, stored: u16, actual: u16) {
        set(
            &mut self.violation,
            "bcast-freshness",
            cycle,
            None,
            format!(
                "B$ entry for line {line} stores zero-mask {stored:#06x} but backing memory \
                 derives {actual:#06x}"
            ),
        );
    }

}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_displays_all_fields() {
        let r = SanitizerReport {
            invariant: "lane-conservation".into(),
            cycle: 42,
            rob: Some(7),
            witness: "lane 3 issued twice".into(),
        };
        let s = r.to_string();
        assert!(s.contains("lane-conservation") && s.contains("42") && s.contains("rob 7"));
    }

    #[test]
    fn first_violation_wins() {
        let mut v = None;
        set(&mut v, "a", 1, None, "first".into());
        set(&mut v, "b", 2, None, "second".into());
        assert_eq!(v.unwrap().invariant, "a");
    }

    #[test]
    fn bcast_audit_walks_round_robin() {
        let mut s = Sanitizer::new(SanitizeLevel::Full);
        assert_eq!(s.next_bcast_idx(4), 0);
        assert_eq!(s.next_bcast_idx(4), 1);
        assert_eq!(s.next_bcast_idx(4), 2);
        assert_eq!(s.next_bcast_idx(4), 3);
        assert_eq!(s.next_bcast_idx(4), 0);
    }
}
