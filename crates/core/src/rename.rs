//! Register renaming: physical vector register file with per-lane readiness.
//!
//! SAVE adopts a vector register file "where each lane of a vector register
//! can be accessed independently" (§III), and the lane-wise dependence
//! scheme (§IV-C) needs per-lane readiness. We therefore track a 16-bit
//! ready mask per physical register; a register is *fully* ready when all
//! 16 bits are set.
//!
//! The file also plays the producer side of tag-broadcast wakeup: every
//! register that turns fully ready (its last lane lands in
//! [`PhysRegFile::write_lane`], or [`PhysRegFile::write_all`] fills it) is
//! listed once, and the core drains the list into
//! [`crate::rs::Rs::wake`] each cycle, so waiting reservation-station
//! entries learn of their operands without polling the file.

use crate::uop::PhysId;
use save_isa::{VecF32, LANES, NUM_KREGS, NUM_VREGS};

/// Mask value with every lane ready.
pub const ALL_LANES: u16 = u16::MAX;

/// The physical vector register file.
#[derive(Clone, Debug)]
pub struct PhysRegFile {
    vals: Vec<VecF32>,
    lane_ready: Vec<u16>,
    free: Vec<PhysId>,
    /// Registers that turned fully ready since the last
    /// [`PhysRegFile::drain_woken`], in the order they did.
    woken: Vec<PhysId>,
}

impl PhysRegFile {
    /// Creates a file with `n` registers, all free.
    ///
    /// # Panics
    /// Panics if `n` is smaller than the architectural register count.
    pub fn new(n: usize) -> Self {
        assert!(n > NUM_VREGS, "physical file must exceed architectural registers");
        PhysRegFile {
            vals: vec![VecF32::ZERO; n],
            lane_ready: vec![0; n],
            free: (0..n as PhysId).rev().collect(),
            // A register turns ready once per allocation, so in steady
            // state it is listed at most once between drains.
            woken: Vec::with_capacity(n),
        }
    }

    /// Allocates a register (lanes initially not-ready). `None` when the
    /// free list is exhausted (the allocator stalls).
    pub fn alloc(&mut self) -> Option<PhysId> {
        let id = self.free.pop()?;
        self.lane_ready[id as usize] = 0;
        self.vals[id as usize] = VecF32::ZERO;
        Some(id)
    }

    /// Returns a register to the free list.
    pub fn release(&mut self, id: PhysId) {
        debug_assert!(!self.free.contains(&id), "double free of p{id}");
        self.free.push(id);
    }

    /// Free registers remaining.
    pub fn free_count(&self) -> usize {
        self.free.len()
    }

    /// Current value (lanes that are not ready read as garbage-in-progress;
    /// the schedulers only read ready lanes).
    pub fn value(&self, id: PhysId) -> &VecF32 {
        &self.vals[id as usize]
    }

    /// Writes one lane and marks it ready; lists the register as woken when
    /// this was its last outstanding lane.
    pub fn write_lane(&mut self, id: PhysId, lane: usize, v: f32) {
        self.vals[id as usize].set_lane(lane, v);
        let r = &mut self.lane_ready[id as usize];
        if *r != ALL_LANES {
            *r |= 1 << lane;
            if *r == ALL_LANES {
                self.woken.push(id);
            }
        }
    }

    /// Writes the full vector and marks every lane ready; lists the
    /// register as woken unless it already was fully ready.
    pub fn write_all(&mut self, id: PhysId, v: VecF32) {
        self.vals[id as usize] = v;
        if self.lane_ready[id as usize] != ALL_LANES {
            self.lane_ready[id as usize] = ALL_LANES;
            self.woken.push(id);
        }
    }

    /// Registers that turned fully ready since the last drain, not yet
    /// delivered to their waiters (the sanitizer's view of wakeups in
    /// flight).
    pub fn woken(&self) -> &[PhysId] {
        &self.woken
    }

    /// Hands out the registers that turned fully ready since the last
    /// drain, oldest first, and forgets them.
    pub fn drain_woken(&mut self) -> std::vec::Drain<'_, PhysId> {
        self.woken.drain(..)
    }

    /// Per-lane ready mask.
    pub fn ready_mask(&self, id: PhysId) -> u16 {
        self.lane_ready[id as usize]
    }

    /// `true` when all 16 lanes are ready.
    pub fn fully_ready(&self, id: PhysId) -> bool {
        self.lane_ready[id as usize] == ALL_LANES
    }

    /// `true` when lane `lane` is ready.
    pub fn lane_ready(&self, id: PhysId, lane: usize) -> bool {
        self.lane_ready[id as usize] >> lane & 1 == 1
    }

    /// Total registers in the file (free + live).
    pub fn num_regs(&self) -> usize {
        self.vals.len()
    }

    /// The current free list (sanitizer partition check).
    pub fn free_list(&self) -> &[PhysId] {
        &self.free
    }

    /// Fault-injection hook: returns `id` to the free list *without* the
    /// double-free debug assertion, modelling broken release logic. Only the
    /// sanitizer self-test should call this.
    pub fn force_release(&mut self, id: PhysId) {
        self.free.push(id);
    }

    /// Fault-injection hook: silently drops one register from the free
    /// list, modelling a leak. Returns the leaked id, if any.
    pub fn leak_free_reg(&mut self) -> Option<PhysId> {
        self.free.pop()
    }

    /// Fault-injection hook: clears one lane-ready bit without touching the
    /// value, modelling a dropped wakeup.
    pub fn corrupt_clear_lane(&mut self, id: PhysId, lane: usize) {
        self.lane_ready[id as usize] &= !(1 << lane);
    }
}

/// Architectural-to-physical mapping plus the write-mask register values
/// (mask setup executes at rename with an immediate, so mask values are
/// architecturally in-order here).
#[derive(Clone, Debug)]
pub struct RenameTable {
    vmap: [PhysId; NUM_VREGS],
    kvals: [u16; NUM_KREGS],
}

impl RenameTable {
    /// Creates the initial mapping, allocating one ready zero-valued
    /// physical register per architectural register.
    pub fn new(prf: &mut PhysRegFile) -> Self {
        let mut vmap = [0; NUM_VREGS];
        for slot in vmap.iter_mut() {
            let id = prf.alloc().expect("initial rename allocation");
            prf.write_all(id, VecF32::ZERO);
            *slot = id;
        }
        RenameTable { vmap, kvals: [ALL_LANES; NUM_KREGS] }
    }

    /// Current physical register of architectural `r`.
    pub fn lookup(&self, r: save_isa::VReg) -> PhysId {
        self.vmap[r.index()]
    }

    /// Redirects architectural `r` to `new`, returning the previous mapping
    /// (freed when the renaming µop commits).
    pub fn remap(&mut self, r: save_isa::VReg, new: PhysId) -> PhysId {
        std::mem::replace(&mut self.vmap[r.index()], new)
    }

    /// Current value of write-mask register `k`.
    pub fn kval(&self, k: save_isa::KReg) -> u16 {
        self.kvals[k.index()]
    }

    /// Sets write-mask register `k` (executed at rename).
    pub fn set_kval(&mut self, k: save_isa::KReg, v: u16) {
        self.kvals[k.index()] = v;
    }

    /// All current architectural-to-physical mappings (sanitizer partition
    /// check).
    pub fn mappings(&self) -> &[PhysId; NUM_VREGS] {
        &self.vmap
    }
}

/// Sanity helper: the number of lanes as a mask width.
pub const fn lanes() -> usize {
    LANES
}

#[cfg(test)]
mod tests {
    use super::*;
    use save_isa::{KReg, VReg};

    #[test]
    fn alloc_and_release_cycle() {
        let mut prf = PhysRegFile::new(40);
        let before = prf.free_count();
        let id = prf.alloc().unwrap();
        assert_eq!(prf.free_count(), before - 1);
        assert!(!prf.fully_ready(id));
        prf.release(id);
        assert_eq!(prf.free_count(), before);
    }

    #[test]
    fn lane_writes_accumulate_readiness() {
        let mut prf = PhysRegFile::new(40);
        let id = prf.alloc().unwrap();
        prf.write_lane(id, 0, 1.0);
        prf.write_lane(id, 15, 2.0);
        assert!(prf.lane_ready(id, 0));
        assert!(prf.lane_ready(id, 15));
        assert!(!prf.lane_ready(id, 7));
        assert!(!prf.fully_ready(id));
        assert_eq!(prf.value(id).lane(15), 2.0);
        for l in 0..LANES {
            prf.write_lane(id, l, 0.0);
        }
        assert!(prf.fully_ready(id));
    }

    #[test]
    fn registers_are_listed_once_when_they_turn_fully_ready() {
        let mut prf = PhysRegFile::new(40);
        let (x, y) = (prf.alloc().unwrap(), prf.alloc().unwrap());
        prf.write_all(x, VecF32::ZERO);
        prf.write_all(x, VecF32::ZERO);
        for l in 0..LANES {
            prf.write_lane(y, l, 1.0);
            assert_eq!(prf.woken().contains(&y), l == LANES - 1);
        }
        prf.write_lane(y, 3, 2.0);
        assert_eq!(prf.drain_woken().collect::<Vec<_>>(), vec![x, y]);
        assert!(prf.woken().is_empty());
        // Reallocated, a register is listed again when it next fills.
        prf.release(x);
        let z = prf.alloc().unwrap();
        assert_eq!(z, x);
        prf.write_all(z, VecF32::ZERO);
        assert_eq!(prf.woken(), &[z]);
    }

    #[test]
    fn rename_table_initializes_ready_zeroes() {
        let mut prf = PhysRegFile::new(64);
        let rt = RenameTable::new(&mut prf);
        let p = rt.lookup(VReg(5));
        assert!(prf.fully_ready(p));
        assert_eq!(*prf.value(p), VecF32::ZERO);
    }

    #[test]
    fn remap_returns_previous() {
        let mut prf = PhysRegFile::new(64);
        let mut rt = RenameTable::new(&mut prf);
        let old = rt.lookup(VReg(3));
        let new = prf.alloc().unwrap();
        let prev = rt.remap(VReg(3), new);
        assert_eq!(prev, old);
        assert_eq!(rt.lookup(VReg(3)), new);
    }

    #[test]
    fn kvals_default_full_and_settable() {
        let mut prf = PhysRegFile::new(64);
        let mut rt = RenameTable::new(&mut prf);
        assert_eq!(rt.kval(KReg(0)), ALL_LANES);
        rt.set_kval(KReg(2), 0b1010);
        assert_eq!(rt.kval(KReg(2)), 0b1010);
    }
}
