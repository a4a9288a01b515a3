//! Deterministic fault injection for the sanitizer self-test.
//!
//! A sanitizer that has never beeped is untested: each [`FaultKind`] is a
//! seeded, single-shot corruption of one microarchitectural structure,
//! chosen so that exactly one sanitizer invariant class is responsible for
//! catching it. The self-test matrix (`crates/core/tests/sanitizer_faults.rs`)
//! walks [`FaultKind::ALL`] and asserts that the violation report names
//! [`FaultKind::expected_invariant`].
//!
//! Faults are *planned* (a [`FaultPlan`] in [`crate::CoreConfig::fault`]) and
//! *applied* by the core: state faults mutate pipeline structures at the top
//! of the first step at or after `at_cycle` that has an eligible target
//! (retrying every cycle until one appears); issue-path faults instead
//! mutate the scheduler's output between select and the sanitizer's issue
//! check, and the reorder fault mutates select's candidate list just
//! before select. Application is deterministic — same plan, same program,
//! same trigger cycle.

use crate::vpu::VpuOp;
use serde::{Deserialize, Serialize};

/// One class of injected corruption.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum FaultKind {
    /// XOR one bit of a ready FMA's effectual-lane mask (and its recorded
    /// original), making the scheduler drop a real lane or invent a fake
    /// one. Caught by lane conservation (at issue or at RS exit).
    FlipElmBit,
    /// Clear one lane-ready bit of the A operand of a VFMA in the
    /// combination window: a register its wake list already delivered, so
    /// the entry keeps its `window` bit while the PRF says the operand is
    /// not ready. Caught by the RS scoreboard cross-check (an ELM-ready
    /// entry's operands must be fully ready).
    DropWakeup,
    /// Flip a bit in the stored zero-mask of a valid broadcast-cache entry.
    /// Caught by the B$ freshness audit against backing memory.
    CorruptBcastEntry,
    /// Return a still-mapped physical register to the free list. Caught by
    /// the rename-pool partition check (register both free and live).
    FreeLivePhys,
    /// Silently drop a register from the free list. Caught by the
    /// rename-pool partition check (register neither free nor live).
    LeakPhysReg,
    /// Duplicate one lane result in a scheduled VPU op. Caught by lane
    /// conservation (lane issued twice).
    DuplicateLaneResult,
    /// Shift one writeback lane of a rotated (RVC state != 0) VFMA by its
    /// rotation amount — i.e. forget to un-rotate. Caught by the RVC
    /// rotation/value check.
    RotateWritebackLane,
    /// Pop a completed ROB head without committing it. Caught by the
    /// retire-order check (allocation sequence gap).
    SkipRobRetire,
    /// Overwrite one pending pass-through lane of a BS-skipped VFMA's
    /// destination and cancel the watcher copy for it. Caught by the
    /// BS pass-through check at commit.
    CorruptPassthrough,
    /// Swap the two oldest combination-window candidates in select's list
    /// so it sees them youngest-first — applied after the sanitizer's
    /// candidate snapshot, on a cycle where vertical select runs and the
    /// two contest a rotated temp position (retried until one does). The
    /// station keeps its true age order. Caught by the VC age-order check.
    ReorderRsPick,
}

impl FaultKind {
    /// Every fault class, in a stable order for the self-test matrix.
    pub const ALL: [FaultKind; 10] = [
        FaultKind::FlipElmBit,
        FaultKind::DropWakeup,
        FaultKind::CorruptBcastEntry,
        FaultKind::FreeLivePhys,
        FaultKind::LeakPhysReg,
        FaultKind::DuplicateLaneResult,
        FaultKind::RotateWritebackLane,
        FaultKind::SkipRobRetire,
        FaultKind::CorruptPassthrough,
        FaultKind::ReorderRsPick,
    ];

    /// Whether the fault corrupts the scheduler's *output* (applied between
    /// select and issue) rather than pipeline *state* (applied at the top
    /// of the step).
    pub fn targets_issue_path(self) -> bool {
        matches!(self, FaultKind::DuplicateLaneResult | FaultKind::RotateWritebackLane)
    }

    /// Name of the invariant whose checker must fire for this fault class.
    pub fn expected_invariant(self) -> &'static str {
        match self {
            FaultKind::FlipElmBit => "lane-conservation",
            FaultKind::DropWakeup => "rs-scoreboard",
            FaultKind::CorruptBcastEntry => "bcast-freshness",
            FaultKind::FreeLivePhys => "rename-hygiene",
            FaultKind::LeakPhysReg => "rename-hygiene",
            FaultKind::DuplicateLaneResult => "lane-conservation",
            FaultKind::RotateWritebackLane => "rvc-rotation",
            FaultKind::SkipRobRetire => "rob-retire-order",
            FaultKind::CorruptPassthrough => "bs-passthrough",
            FaultKind::ReorderRsPick => "vc-age-order",
        }
    }
}

/// A planned single-shot fault, carried in [`crate::CoreConfig::fault`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub struct FaultPlan {
    /// What to corrupt.
    pub kind: FaultKind,
    /// First cycle at which to attempt the corruption (retried each cycle
    /// until a target structure is eligible).
    pub at_cycle: u64,
    /// Deterministic selector for which bit/lane/register to hit.
    pub seed: u64,
}

impl FaultPlan {
    /// Convenience constructor for tests.
    pub fn new(kind: FaultKind, at_cycle: u64, seed: u64) -> Self {
        FaultPlan { kind, at_cycle, seed }
    }
}

/// Applies an issue-path fault to the ops the scheduler just produced.
/// Returns true if a target was found (the fault is then spent).
pub(crate) fn apply_issue_fault(plan: FaultPlan, ops: &mut [VpuOp], rots: &[(usize, i8)]) -> bool {
    match plan.kind {
        FaultKind::DuplicateLaneResult => {
            for op in ops.iter_mut() {
                if let Some(r) = op.results.first().cloned() {
                    op.results.push(r);
                    return true;
                }
            }
            false
        }
        FaultKind::RotateWritebackLane => {
            for op in ops.iter_mut() {
                for r in op.results.iter_mut() {
                    let rot = rots.iter().find(|(rob, _)| *rob == r.rob).map(|(_, rot)| *rot);
                    if let Some(rot) = rot {
                        if rot != 0 {
                            r.lane =
                                ((r.lane as i32 + rot as i32).rem_euclid(16)) as usize;
                            return true;
                        }
                    }
                }
            }
            false
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_fault_names_a_checker() {
        for k in FaultKind::ALL {
            assert!(!k.expected_invariant().is_empty());
        }
    }

    #[test]
    fn issue_path_split_is_consistent() {
        let issue: Vec<_> =
            FaultKind::ALL.iter().filter(|k| k.targets_issue_path()).collect();
        assert_eq!(issue.len(), 2);
    }
}
