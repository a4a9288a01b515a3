//! The unified reservation station.
//!
//! All in-flight, un-issued µops wait here (Table I: 97 entries shared by
//! loads, stores and VFMAs). SAVE's Combination Window is exactly the set of
//! ready VFMAs present in these entries at a given cycle (§III).
//!
//! Storage is a slot array with a free list plus a program-order index
//! (`order`, a `(rob, slot)` list): removing an entry returns its slot to
//! the free list and drops one small index pair instead of memmoving the
//! ~¼ KB payloads, and `rob → entry` lookups binary-search the index (ROB
//! ids are allocated monotonically, so the order list is sorted by
//! construction). The sanitizer's RS-reorder fault permutes the order list,
//! after which lookups fall back to a linear scan — the fault must corrupt
//! scheduling age order, not the lookup structure.

use crate::rename::PhysRegFile;
use crate::uop::{FmaPrecision, LoadKind, PhysId, RobId};
use save_isa::{VReg, LANES};

/// Sentinel: no forwarded base pending.
pub const NO_FWD: u64 = u64::MAX;

/// A VFMA waiting (fully or partially) in the RS.
#[derive(Clone, Debug)]
pub struct FmaEntry {
    /// ROB id (doubles as program-order sequence).
    pub rob: RobId,
    /// Precision of the operation.
    pub precision: FmaPrecision,
    /// Logical accumulator register (rotation state derives from it, §IV-B).
    pub acc_log: VReg,
    /// Rotation amount in lanes: -1, 0 or +1 (0 when rotation is disabled).
    pub rot: i8,
    /// Accumulator source physical register.
    pub acc_src: PhysId,
    /// Accumulator destination physical register.
    pub acc_dst: PhysId,
    /// Multiplicand A physical register.
    pub a: PhysId,
    /// Multiplicand B physical register.
    pub b: PhysId,
    /// Write-mask value captured at rename (all-ones when unmasked).
    pub wm: u16,
    /// Whether the Effectual Lane Mask has been generated yet.
    pub elm_ready: bool,
    /// Remaining unscheduled effectual lanes (accumulator lanes for MP).
    pub elm: u16,
    /// The ELM as generated (before any lanes were scheduled).
    pub orig_elm: u16,
    /// Remaining unscheduled effectual multiplicand lanes (MP only).
    pub ml: u32,
    /// The multiplicand-lane mask as generated.
    pub orig_ml: u32,
    /// ROB id of the previous in-flight FMA producing this accumulator
    /// (the chain predecessor), if still in flight at rename.
    pub chain_pred: Option<RobId>,
    /// ROB id of the next FMA in the chain, filled in when it renames.
    pub chain_succ: Option<RobId>,
    /// Forwarded partial accumulator per AL (MP compression, §V-B).
    pub fwd_base: [f32; LANES],
    /// Cycle from which the forwarded partial is usable; [`NO_FWD`] if none.
    pub fwd_ready: [u64; LANES],
    /// FMA allocation sequence number — the functional-trace index (see
    /// [`crate::replay`]): the k-th allocated VFMA is the same static
    /// operation under every timing configuration.
    pub seq: u64,
}

impl FmaEntry {
    /// `true` once multiplicand/mask operands are available and the ELM has
    /// been generated — the entry is then in the Combination Window (its
    /// accumulator dependence is checked separately per dependence scheme).
    pub fn in_window(&self, prf: &PhysRegFile) -> bool {
        self.elm_ready && prf.fully_ready(self.a) && prf.fully_ready(self.b)
    }

    /// `true` once every effectual lane has been scheduled (Algorithm 1
    /// lines 12-14): the entry must leave the RS this cycle.
    pub fn is_finished(&self) -> bool {
        self.elm_ready && self.elm == 0 && self.ml == 0
    }

    /// Logical lane that sits at rotated position `pos` (§IV-B: operands of
    /// an entry with rotation `r` are shifted right by `r` lanes, so
    /// position `pos` holds logical lane `pos - r`).
    pub fn logical_lane(&self, pos: usize) -> usize {
        (pos as i32 - self.rot as i32).rem_euclid(LANES as i32) as usize
    }

    /// Multiplicand-lane bits of accumulator lane `al` still unscheduled.
    pub fn ml_bits_at(&self, al: usize) -> u32 {
        self.ml >> (2 * al) & 0b11
    }

    /// Earliest future wake-up among this entry's forwarded partials: the
    /// smallest `fwd_ready` cycle that is `>= horizon` (pending partials
    /// already usable before `horizon` are gated by other conditions and
    /// therefore are not wake-up events). `None` when no partial is pending
    /// in that range. Used by the fast-forward next-event derivation.
    pub fn next_fwd_event(&self, horizon: u64) -> Option<u64> {
        self.fwd_ready
            .iter()
            .copied()
            .filter(|&r| r != NO_FWD && r >= horizon)
            .min()
    }
}

/// A load waiting in the RS (address-ready at allocation; waits for a port).
#[derive(Clone, Copy, Debug)]
pub struct LoadEntry {
    /// ROB id.
    pub rob: RobId,
    /// Destination physical register.
    pub dst: PhysId,
    /// Byte address (timing: what the caches and DRAM see).
    pub addr: u64,
    /// Byte address the functional value is read from.
    pub value_addr: u64,
    /// Vector or broadcast.
    pub kind: LoadKind,
    /// Load allocation sequence number — the functional-trace index.
    pub seq: u64,
}

/// A store waiting in the RS (waits for its data register).
#[derive(Clone, Copy, Debug)]
pub struct StoreEntry {
    /// ROB id.
    pub rob: RobId,
    /// Source physical register.
    pub src: PhysId,
    /// Byte address.
    pub addr: u64,
}

/// One RS slot.
///
/// The variant sizes intentionally differ: a hardware RS entry is sized for
/// the largest µop anyway, and the station is a small fixed-capacity array.
#[derive(Clone, Debug)]
#[allow(clippy::large_enum_variant)]
pub enum RsEntry {
    /// A VFMA.
    Fma(FmaEntry),
    /// A load.
    Load(LoadEntry),
    /// A store.
    Store(StoreEntry),
}

impl RsEntry {
    /// The entry's ROB id.
    pub fn rob(&self) -> RobId {
        match self {
            RsEntry::Fma(f) => f.rob,
            RsEntry::Load(l) => l.rob,
            RsEntry::Store(s) => s.rob,
        }
    }
}

/// The reservation station: bounded, iterated in program order.
#[derive(Clone, Debug, Default)]
pub struct Rs {
    /// Slot storage; `None` slots are on the free list.
    slots: Vec<Option<RsEntry>>,
    /// Free slot indices.
    free: Vec<u32>,
    /// Program-order view: `(rob, slot)` pairs, oldest first. Sorted by
    /// `rob` as long as `sorted` holds (ROB ids are monotonic).
    order: Vec<(RobId, u32)>,
    /// Memory-op subset of `order` (loads and stores only, program order):
    /// the LSU's per-cycle scan walks this instead of the whole station, so
    /// a VFMA-saturated RS costs the LSU nothing. Its order is
    /// invalidated — with a full-scan fallback — once [`Rs::swap_order`]
    /// permutes program order; its membership stays exact.
    mem_order: Vec<(RobId, u32)>,
    /// Whether `order` is still sorted by ROB id (cleared by
    /// [`Rs::swap_order`] and by out-of-order pushes in unit tests).
    sorted: bool,
    /// Whether [`Rs::swap_order`] has permuted program order — `mem_order`
    /// no longer mirrors `order`'s relative order, and position-independent
    /// fast paths must fall back to full scans.
    permuted: bool,
    capacity: usize,
}

impl Rs {
    /// Creates an empty RS of `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        Rs {
            slots: (0..capacity).map(|_| None).collect(),
            // Pop from the back: slot 0 is handed out first.
            free: (0..capacity as u32).rev().collect(),
            order: Vec::with_capacity(capacity),
            mem_order: Vec::new(),
            sorted: true,
            permuted: false,
            capacity,
        }
    }

    /// `true` while program order is intact (no reorder fault applied).
    /// Fast paths that iterate derived index lists instead of `order` must
    /// check this and fall back to a full scan when it is `false`.
    pub fn order_intact(&self) -> bool {
        !self.permuted
    }

    /// Loads and stores currently waiting (length of the mem-op index).
    pub fn mem_len(&self) -> usize {
        self.mem_order.len()
    }

    /// Iterates the waiting loads and stores oldest-first without touching
    /// the VFMA entries. Only valid while [`Rs::order_intact`]; callers
    /// must use [`Rs::iter`] after a reorder fault.
    pub fn mem_iter(&self) -> impl Iterator<Item = &RsEntry> {
        debug_assert!(!self.permuted, "mem_iter after a reorder fault");
        self.mem_order.iter().map(|&(_, s)| {
            self.slots[s as usize].as_ref().expect("mem_order refers to a filled slot")
        })
    }

    /// The `pos`-th oldest waiting load/store (see [`Rs::mem_iter`]).
    ///
    /// # Panics
    /// Panics when `pos >= self.mem_len()`.
    pub fn mem_at(&self, pos: usize) -> &RsEntry {
        debug_assert!(!self.permuted, "mem_at after a reorder fault");
        let (_, s) = self.mem_order[pos];
        self.slots[s as usize].as_ref().expect("mem_order refers to a filled slot")
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` when the RS holds no entries.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// `true` when allocation must stall.
    pub fn is_full(&self) -> bool {
        self.order.len() >= self.capacity
    }

    /// Inserts an entry (program order is insertion order).
    ///
    /// # Panics
    /// Panics on overflow — callers must check [`Rs::is_full`].
    pub fn push(&mut self, e: RsEntry) {
        assert!(!self.is_full(), "RS overflow");
        let rob = e.rob();
        let is_mem = matches!(e, RsEntry::Load(_) | RsEntry::Store(_));
        let slot = self.free.pop().expect("free slot exists below capacity");
        self.slots[slot as usize] = Some(e);
        if let Some(&(last, _)) = self.order.last() {
            if rob < last {
                self.sorted = false;
            }
        }
        self.order.push((rob, slot));
        if is_mem {
            self.mem_order.push((rob, slot));
        }
    }

    /// Iterates entries oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &RsEntry> {
        self.order.iter().map(|&(_, s)| {
            self.slots[s as usize].as_ref().expect("order refers to a filled slot")
        })
    }

    /// The entry at program-order position `pos` (0 = oldest).
    ///
    /// # Panics
    /// Panics when `pos >= self.len()`.
    pub fn at(&self, pos: usize) -> &RsEntry {
        let (_, s) = self.order[pos];
        self.slots[s as usize].as_ref().expect("order refers to a filled slot")
    }

    /// Mutable access to the entry at program-order position `pos`.
    ///
    /// Positions are stable while no entry is pushed or removed, which lets
    /// the schedulers interleave shared and mutable access by position
    /// without holding one long mutable borrow of the whole station.
    ///
    /// # Panics
    /// Panics when `pos >= self.len()`.
    pub fn at_mut(&mut self, pos: usize) -> &mut RsEntry {
        let (_, s) = self.order[pos];
        self.slots[s as usize].as_mut().expect("order refers to a filled slot")
    }

    /// Program-order position of the entry with ROB id `rob`, if present.
    /// Binary search while the order list is sorted, linear after a
    /// scheduler fault permuted it.
    pub fn pos_of(&self, rob: RobId) -> Option<usize> {
        if self.sorted {
            self.order.binary_search_by_key(&rob, |&(r, _)| r).ok()
        } else {
            self.order.iter().position(|&(r, _)| r == rob)
        }
    }

    /// Finds the FMA entry with ROB id `rob`.
    pub fn find_fma_mut(&mut self, rob: RobId) -> Option<&mut FmaEntry> {
        let pos = self.pos_of(rob)?;
        match self.at_mut(pos) {
            RsEntry::Fma(f) => Some(f),
            _ => None,
        }
    }

    /// Swaps two program-order positions — the sanitizer's RS-reorder fault
    /// hook. Marks the order list unsorted so lookups stay correct.
    ///
    /// # Panics
    /// Panics when either position is out of range.
    pub fn swap_order(&mut self, a: usize, b: usize) {
        self.order.swap(a, b);
        self.sorted = false;
        self.permuted = true;
    }

    /// Removes the entries with the given ROB ids — the ones a stage just
    /// issued or finished. Each is located with [`Rs::pos_of`] (a binary
    /// search), its slot freed and its index pair dropped by shifting the
    /// rest of the order list; entry payloads never move and no other
    /// entry is read. The mem-op index is touched only when a load or
    /// store leaves.
    ///
    /// # Panics
    /// Panics when an id is not in the station (a stage reported an entry
    /// it did not own, or reported it twice).
    pub fn remove(&mut self, robs: &[RobId]) {
        for &rob in robs {
            let pos = self.pos_of(rob).expect("removed ROB id is waiting in the RS");
            let (_, s) = self.order.remove(pos);
            let e = self.slots[s as usize].take().expect("order refers to a filled slot");
            self.free.push(s);
            if matches!(e, RsEntry::Load(_) | RsEntry::Store(_)) {
                let mpos = if self.sorted {
                    self.mem_order.binary_search_by_key(&rob, |&(r, _)| r).ok()
                } else {
                    self.mem_order.iter().position(|&(r, _)| r == rob)
                };
                self.mem_order.remove(mpos.expect("mem_order lists every load and store"));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fma(rob: RobId, rot: i8) -> FmaEntry {
        FmaEntry {
            rob,
            precision: FmaPrecision::F32,
            acc_log: VReg(0),
            rot,
            acc_src: 0,
            acc_dst: 1,
            a: 2,
            b: 3,
            wm: u16::MAX,
            elm_ready: false,
            elm: 0,
            orig_elm: 0,
            ml: 0,
            orig_ml: 0,
            chain_pred: None,
            chain_succ: None,
            fwd_base: [0.0; LANES],
            fwd_ready: [NO_FWD; LANES],
            seq: rob as u64,
        }
    }

    #[test]
    fn rotation_lane_mapping() {
        let e = fma(0, 1); // rotated right by one: logical lane 0 sits at pos 1
        assert_eq!(e.logical_lane(1), 0);
        assert_eq!(e.logical_lane(0), 15);
        let e = fma(0, -1);
        assert_eq!(e.logical_lane(15), 0);
        let e = fma(0, 0);
        assert_eq!(e.logical_lane(7), 7);
    }

    #[test]
    fn ml_bits_extraction() {
        let mut e = fma(0, 0);
        e.ml = 0b10_01; // AL0: ML0 only; AL1: ML3 only
        assert_eq!(e.ml_bits_at(0), 0b01);
        assert_eq!(e.ml_bits_at(1), 0b10);
        assert_eq!(e.ml_bits_at(2), 0);
    }

    #[test]
    fn rs_capacity_and_order() {
        let mut rs = Rs::new(2);
        rs.push(RsEntry::Fma(fma(0, 0)));
        rs.push(RsEntry::Fma(fma(1, 0)));
        assert!(rs.is_full());
        let robs: Vec<_> = rs.iter().map(|e| e.rob()).collect();
        assert_eq!(robs, vec![0, 1]);
        rs.remove(&[0]);
        assert_eq!(rs.len(), 1);
        assert!(rs.find_fma_mut(1).is_some());
        assert!(rs.find_fma_mut(0).is_none());
    }

    #[test]
    fn slots_are_recycled_without_moving_survivors() {
        let mut rs = Rs::new(3);
        for r in 0..3 {
            rs.push(RsEntry::Fma(fma(r, 0)));
        }
        // Remove the middle entry; survivors keep program order.
        rs.remove(&[1]);
        let robs: Vec<_> = rs.iter().map(|e| e.rob()).collect();
        assert_eq!(robs, vec![0, 2]);
        // The freed slot is reused by the next push, appended in order.
        rs.push(RsEntry::Fma(fma(7, 0)));
        let robs: Vec<_> = rs.iter().map(|e| e.rob()).collect();
        assert_eq!(robs, vec![0, 2, 7]);
        assert!(rs.is_full());
        assert_eq!(rs.pos_of(2), Some(1));
        assert_eq!(rs.pos_of(7), Some(2));
        assert_eq!(rs.pos_of(3), None);
    }

    #[test]
    fn lookup_survives_order_permutation() {
        let mut rs = Rs::new(4);
        for r in 0..4 {
            rs.push(RsEntry::Fma(fma(r, 0)));
        }
        rs.swap_order(0, 3);
        let robs: Vec<_> = rs.iter().map(|e| e.rob()).collect();
        assert_eq!(robs, vec![3, 1, 2, 0], "iteration follows the permuted order");
        // Binary search would miss in the permuted list; the linear
        // fallback must still find every entry.
        for r in 0..4 {
            assert_eq!(rs.find_fma_mut(r).map(|f| f.rob), Some(r));
        }
        assert_eq!(rs.pos_of(0), Some(3));
    }

    #[test]
    fn mem_index_tracks_loads_and_stores_through_churn() {
        let mut rs = Rs::new(6);
        rs.push(RsEntry::Fma(fma(0, 0)));
        rs.push(RsEntry::Load(LoadEntry {
            rob: 1,
            dst: 0,
            addr: 0,
            value_addr: 0,
            kind: crate::uop::LoadKind::Vector,
            seq: 0,
        }));
        rs.push(RsEntry::Fma(fma(2, 0)));
        rs.push(RsEntry::Store(crate::rs::StoreEntry { rob: 3, src: 0, addr: 64 }));
        assert_eq!(rs.mem_len(), 2);
        let mem_robs: Vec<_> = rs.mem_iter().map(|e| e.rob()).collect();
        assert_eq!(mem_robs, vec![1, 3], "mem index preserves program order");
        // Removing a VFMA leaves the mem index untouched; removing the load
        // prunes it even though the freed slot is immediately reused.
        rs.remove(&[0]);
        assert_eq!(rs.mem_len(), 2);
        rs.remove(&[1]);
        assert_eq!(rs.mem_len(), 1);
        rs.push(RsEntry::Load(LoadEntry {
            rob: 4,
            dst: 1,
            addr: 128,
            value_addr: 128,
            kind: crate::uop::LoadKind::Broadcast,
            seq: 1,
        }));
        let mem_robs: Vec<_> = rs.mem_iter().map(|e| e.rob()).collect();
        assert_eq!(mem_robs, vec![3, 4]);
        assert!(rs.order_intact());
        rs.swap_order(0, 1);
        assert!(!rs.order_intact(), "reorder fault invalidates the fast path");
    }

    fn load(rob: RobId) -> RsEntry {
        RsEntry::Load(LoadEntry {
            rob,
            dst: 0,
            addr: 64 * rob as u64,
            value_addr: 64 * rob as u64,
            kind: crate::uop::LoadKind::Vector,
            seq: rob as u64,
        })
    }

    fn store(rob: RobId) -> RsEntry {
        RsEntry::Store(StoreEntry { rob, src: 0, addr: 64 * rob as u64 })
    }

    /// Every view of the station agrees: `iter` is `expect` in order,
    /// `mem_iter` its loads and stores, `pos_of` finds each entry at its
    /// position, and the lengths match.
    fn assert_views(rs: &Rs, expect: &[RobId], mem: &[RobId]) {
        let robs: Vec<_> = rs.iter().map(|e| e.rob()).collect();
        assert_eq!(robs, expect);
        assert_eq!(rs.len(), expect.len());
        for (i, &r) in expect.iter().enumerate() {
            assert_eq!(rs.pos_of(r), Some(i), "rob {r}");
        }
        assert_eq!(rs.mem_len(), mem.len());
        if rs.order_intact() {
            let mem_robs: Vec<_> = rs.mem_iter().map(|e| e.rob()).collect();
            assert_eq!(mem_robs, mem);
        }
    }

    #[test]
    fn remove_keeps_every_view_consistent_and_reuses_slots() {
        let mut rs = Rs::new(8);
        for r in 0..8 {
            rs.push(match r % 3 {
                0 => RsEntry::Fma(fma(r, 0)),
                1 => load(r),
                _ => store(r),
            });
        }
        assert!(rs.is_full());
        assert_views(&rs, &[0, 1, 2, 3, 4, 5, 6, 7], &[1, 2, 4, 5, 7]);
        // A VFMA, a load and a store leave together; removed ids vanish
        // from every view.
        rs.remove(&[1, 3, 5]);
        assert_views(&rs, &[0, 2, 4, 6, 7], &[2, 4, 7]);
        assert_eq!(rs.pos_of(3), None);
        // Removing only VFMAs leaves the mem-op index as it was.
        rs.remove(&[0, 6]);
        assert_views(&rs, &[2, 4, 7], &[2, 4, 7]);
        rs.remove(&[]);
        assert_views(&rs, &[2, 4, 7], &[2, 4, 7]);
        // The five freed slots are reused: the station fills up again.
        for r in 8..13 {
            rs.push(if r % 2 == 0 { RsEntry::Fma(fma(r, 0)) } else { load(r) });
        }
        assert!(rs.is_full());
        assert_views(&rs, &[2, 4, 7, 8, 9, 10, 11, 12], &[2, 4, 7, 9, 11]);
        rs.remove(&[2, 4, 7, 8, 9, 10, 11, 12]);
        assert!(rs.is_empty());
        assert_eq!(rs.mem_len(), 0);
    }

    #[test]
    fn remove_after_reorder_fault_uses_the_linear_fallback() {
        let mut rs = Rs::new(6);
        for r in 0..6 {
            rs.push(if r == 2 { load(r) } else { RsEntry::Fma(fma(r, 0)) });
        }
        rs.swap_order(0, 4);
        assert_views(&rs, &[4, 1, 2, 3, 0, 5], &[2]);
        // Binary search over the permuted order list would miss 0 and 4.
        rs.remove(&[0, 2, 4]);
        assert_views(&rs, &[1, 3, 5], &[]);
        rs.push(RsEntry::Fma(fma(6, 0)));
        assert_views(&rs, &[1, 3, 5, 6], &[]);
    }

    #[test]
    #[should_panic(expected = "waiting in the RS")]
    fn removing_an_absent_entry_panics() {
        let mut rs = Rs::new(2);
        rs.push(RsEntry::Fma(fma(0, 0)));
        rs.remove(&[0, 0]);
    }

    #[test]
    fn next_fwd_event_filters_past_and_absent() {
        let mut e = fma(0, 0);
        assert_eq!(e.next_fwd_event(10), None);
        e.fwd_ready[3] = 9; // already usable before the horizon: not an event
        e.fwd_ready[5] = 12;
        e.fwd_ready[6] = 15;
        assert_eq!(e.next_fwd_event(10), Some(12));
        assert_eq!(e.next_fwd_event(9), Some(9));
        assert_eq!(e.next_fwd_event(16), None);
    }
}
