//! Reorder buffer.
//!
//! Entries are allocated in program order and committed in order (precise
//! state, §III/§V-B). An FMA entry is complete when every lane of its
//! destination physical register is ready — effectual lanes written by the
//! VPU, ineffectual lanes copied from the accumulator source by the
//! pass-through watchers in the core.

use crate::uop::{PhysId, RobId};
use std::collections::VecDeque;

/// Kind of a ROB entry (how completion is detected).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum RobKind {
    /// Completion is flagged explicitly (`done` set by an event).
    Flagged,
    /// Complete when the destination physical register is fully ready.
    WaitDst(PhysId),
}

/// One ROB entry.
#[derive(Clone, Debug)]
pub struct RobEntry {
    /// Global sequence number (program order).
    pub seq: u64,
    /// How completion is detected.
    pub kind: RobKind,
    /// Set for [`RobKind::Flagged`] entries when they complete.
    pub done: bool,
    /// Physical registers to release when this entry commits (previous
    /// mapping of the renamed destination, cracked-load temps).
    pub frees: [Option<PhysId>; 2],
    /// Micro-fused with the following µop (an embedded-broadcast load fused
    /// with its VFMA): commits without consuming commit bandwidth, as the
    /// pair is one fused µop to the in-order ends of the pipeline.
    pub fused: bool,
    /// Architectural destination and its physical register, for retirement
    /// tracking (precise architectural state, §III / §V-B).
    pub arch_dst: Option<(save_isa::VReg, PhysId)>,
}

/// The reorder buffer: a bounded in-order queue.
#[derive(Clone, Debug)]
pub struct Rob {
    entries: VecDeque<RobEntry>,
    capacity: usize,
    next_seq: u64,
}

impl Rob {
    /// Creates an empty ROB of `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Rob { entries: VecDeque::with_capacity(capacity), capacity, next_seq: 0 }
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` when the ROB holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// `true` when allocation must stall.
    pub fn is_full(&self) -> bool {
        self.entries.len() >= self.capacity
    }

    /// Allocates an entry, returning its id (the sequence number).
    ///
    /// # Panics
    /// Panics if the ROB is full — callers must check [`Rob::is_full`].
    pub fn push(&mut self, kind: RobKind, frees: [Option<PhysId>; 2]) -> RobId {
        self.push_full(kind, frees, false, None)
    }

    /// Allocates an entry with full retirement metadata.
    ///
    /// # Panics
    /// Panics if the ROB is full — callers must check [`Rob::is_full`].
    pub fn push_full(
        &mut self,
        kind: RobKind,
        frees: [Option<PhysId>; 2],
        fused: bool,
        arch_dst: Option<(save_isa::VReg, PhysId)>,
    ) -> RobId {
        assert!(!self.is_full(), "ROB overflow");
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.push_back(RobEntry { seq, kind, done: false, frees, fused, arch_dst });
        seq as RobId
    }

    /// Marks a flagged entry done. Returns `false` (instead of panicking)
    /// when `id` is not in flight — the core treats that as a model
    /// integrity violation rather than aborting the process.
    pub fn mark_done(&mut self, id: RobId) -> bool {
        match self.get_mut(id) {
            Some(e) => {
                e.done = true;
                true
            }
            None => false,
        }
    }

    /// Mutable access to an in-flight entry by id.
    pub fn get_mut(&mut self, id: RobId) -> Option<&mut RobEntry> {
        let head_seq = self.entries.front()?.seq;
        let idx = (id as u64).checked_sub(head_seq)? as usize;
        self.entries.get_mut(idx)
    }

    /// The oldest entry, if any.
    pub fn head(&self) -> Option<&RobEntry> {
        self.entries.front()
    }

    /// Pops the oldest entry (caller has verified completion).
    pub fn pop_head(&mut self) -> Option<RobEntry> {
        self.entries.pop_front()
    }

    /// Iterates in-flight entries oldest-first (sanitizer state scans).
    pub fn iter(&self) -> impl Iterator<Item = &RobEntry> {
        self.entries.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fills_and_reports_full() {
        let mut rob = Rob::new(2);
        rob.push(RobKind::Flagged, [None, None]);
        assert!(!rob.is_full());
        rob.push(RobKind::Flagged, [None, None]);
        assert!(rob.is_full());
    }

    #[test]
    fn ids_are_stable_across_commits() {
        let mut rob = Rob::new(4);
        let a = rob.push(RobKind::Flagged, [None, None]);
        let b = rob.push(RobKind::Flagged, [None, None]);
        rob.mark_done(a);
        assert!(rob.head().unwrap().done);
        rob.pop_head();
        rob.mark_done(b);
        assert!(rob.head().unwrap().done);
        assert_eq!(rob.head().unwrap().seq, b as u64);
    }

    #[test]
    fn get_mut_rejects_retired() {
        let mut rob = Rob::new(4);
        let a = rob.push(RobKind::Flagged, [None, None]);
        rob.mark_done(a);
        rob.pop_head();
        assert!(rob.get_mut(a).is_none());
    }
}
