//! The unified reservation station.
//!
//! All in-flight, un-issued µops wait here (Table I: 97 entries shared by
//! loads, stores and VFMAs). SAVE's Combination Window is exactly the set of
//! ready VFMAs present in these entries at a given cycle (§III).
//!
//! The station is indexed by ROB id, as an age matrix over the ROB would
//! be. Payloads live in a compact slot array with a free list, so a
//! removal never moves the ~¼ KB entries. Two bitsets over the ROB ring —
//! occupied, and loads/stores — record which ring positions (`rob mod
//! ring`) hold a waiting entry, and `slot_at` maps each position to its
//! payload slot. ROB ids are allocated monotonically and at most
//! `rob_entries` are in flight, so walking the set bits from the oldest
//! waiting entry's position round the ring visits entries in program
//! order; a lookup is one bit test plus a payload ROB-id check, and a
//! removal clears a bit. The ring is `rob_entries` rounded up to a power
//! of two, so a ring position is a mask, not a division.

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

/// The reservation station: bounded, indexed by ROB id, iterated in
/// program order (see the module docs).
#[derive(Clone, Debug)]
pub struct Rs {
    /// Payload storage; `None` slots are on the free list.
    slots: Vec<Option<RsEntry>>,
    /// Free slot indices.
    free: Vec<u32>,
    /// Payload slot of the entry at each ring position; meaningful where
    /// `occupied` has the position's bit set.
    slot_at: Vec<u32>,
    /// Ring positions holding a waiting entry.
    occupied: Vec<u64>,
    /// Ring positions holding a waiting load or store: the LSU walks these
    /// instead of the whole station, so a VFMA-saturated RS costs it
    /// nothing.
    mem: Vec<u64>,
    /// Waiting loads and stores.
    mem_len: usize,
    /// ROB id of the oldest waiting entry (meaningful while non-empty):
    /// where every age-order walk starts.
    oldest: RobId,
    /// `ring - 1`, with `ring` the power of two at or above `rob_entries`.
    mask: usize,
    /// ROB ids in flight at once: a new id lies below `oldest + rob_entries`.
    rob_entries: usize,
    capacity: usize,
}

/// Age-order walk over a bitset on the ROB ring: the set positions from
/// `start` to the end of the ring, then from position 0 up to `start`.
/// `count` must be the number of set bits. The walk stops after that many,
/// so on coming back round to the start word it yields only the bits below
/// `start` (a word's bits come out lowest first).
struct RingWalk<'a> {
    words: &'a [u64],
    /// Unvisited set bits of word `wi`.
    cur: u64,
    wi: usize,
    count: usize,
}

impl<'a> RingWalk<'a> {
    fn new(words: &'a [u64], start: usize, count: usize) -> Self {
        let wi = start / 64;
        let cur = if count == 0 { 0 } else { words[wi] & (u64::MAX << (start % 64)) };
        RingWalk { words, cur, wi, count }
    }
}

impl Iterator for RingWalk<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.count == 0 {
            return None;
        }
        while self.cur == 0 {
            self.wi = if self.wi + 1 == self.words.len() { 0 } else { self.wi + 1 };
            self.cur = self.words[self.wi];
        }
        self.count -= 1;
        let bit = self.cur.trailing_zeros() as usize;
        self.cur &= self.cur - 1;
        Some(self.wi * 64 + bit)
    }
}

impl Rs {
    /// Creates an empty RS of `capacity` entries for a core with
    /// `rob_entries` ROB entries (the span of ROB ids in flight at once).
    pub fn new(capacity: usize, rob_entries: usize) -> Self {
        let ring = rob_entries.next_power_of_two();
        Rs {
            slots: (0..capacity).map(|_| None).collect(),
            // Pop from the back: slot 0 is handed out first.
            free: (0..capacity as u32).rev().collect(),
            slot_at: vec![0; ring],
            occupied: vec![0; ring.div_ceil(64)],
            mem: vec![0; ring.div_ceil(64)],
            mem_len: 0,
            oldest: 0,
            mask: ring - 1,
            rob_entries,
            capacity,
        }
    }

    /// Ring position of the oldest waiting entry.
    fn start(&self) -> usize {
        self.oldest & self.mask
    }

    fn bit(words: &[u64], p: usize) -> bool {
        words[p / 64] >> (p % 64) & 1 == 1
    }

    /// Loads and stores currently waiting.
    pub fn mem_len(&self) -> usize {
        self.mem_len
    }

    /// Iterates the waiting loads and stores oldest-first without touching
    /// the VFMA entries.
    pub fn mem_iter(&self) -> impl Iterator<Item = &RsEntry> {
        RingWalk::new(&self.mem, self.start(), self.mem_len)
            .map(move |p| self.at(self.slot_at[p] as usize))
    }

    /// Occupied entries.
    pub fn len(&self) -> usize {
        self.capacity - self.free.len()
    }

    /// `true` when the RS holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// `true` when allocation must stall.
    pub fn is_full(&self) -> bool {
        self.free.is_empty()
    }

    /// Inserts an entry. ROB ids are monotonic, so the new entry is the
    /// youngest.
    ///
    /// # Panics
    /// Panics on overflow (callers must check [`Rs::is_full`]), and when
    /// the id is not within `rob_entries` of the oldest waiting id or its
    /// ring position is taken (an id pushed twice).
    pub fn push(&mut self, e: RsEntry) {
        assert!(!self.is_full(), "RS overflow");
        let rob = e.rob();
        if self.is_empty() {
            self.oldest = rob;
        }
        assert!(
            rob.wrapping_sub(self.oldest) < self.rob_entries,
            "ROB id {rob} is not within {} of the oldest waiting id {}",
            self.rob_entries,
            self.oldest
        );
        let p = rob & self.mask;
        assert!(!Self::bit(&self.occupied, p), "ROB id {rob} pushed while its ring position is taken");
        let slot = self.free.pop().expect("free slot exists below capacity");
        self.occupied[p / 64] |= 1 << (p % 64);
        if matches!(e, RsEntry::Load(_) | RsEntry::Store(_)) {
            self.mem[p / 64] |= 1 << (p % 64);
            self.mem_len += 1;
        }
        self.slot_at[p] = slot;
        self.slots[slot as usize] = Some(e);
    }

    /// Iterates entries oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &RsEntry> {
        self.indexed().map(|(_, e)| e)
    }

    /// Iterates entries oldest-first with their payload slots (the indices
    /// [`Rs::at`] and [`Rs::at_mut`] take).
    pub fn indexed(&self) -> impl Iterator<Item = (usize, &RsEntry)> {
        RingWalk::new(&self.occupied, self.start(), self.len()).map(move |p| {
            let s = self.slot_at[p] as usize;
            (s, self.at(s))
        })
    }

    /// The entry in payload slot `slot`.
    ///
    /// # Panics
    /// Panics when the slot is free.
    pub fn at(&self, slot: usize) -> &RsEntry {
        self.slots[slot].as_ref().expect("at on a free slot")
    }

    /// Mutable access to the entry in payload slot `slot`.
    ///
    /// Slots are stable while the entry waits, which lets the schedulers
    /// interleave shared and mutable access by slot without holding one
    /// long mutable borrow of the whole station.
    ///
    /// # Panics
    /// Panics when the slot is free.
    pub fn at_mut(&mut self, slot: usize) -> &mut RsEntry {
        self.slots[slot].as_mut().expect("at_mut on a free slot")
    }

    /// Payload slot of the entry with ROB id `rob`, if it is waiting. The
    /// payload's id is checked because a departed id (a stale
    /// `chain_pred`, say) can share its ring position with a live entry.
    pub fn pos_of(&self, rob: RobId) -> Option<usize> {
        let p = rob & self.mask;
        if !Self::bit(&self.occupied, p) {
            return None;
        }
        let s = self.slot_at[p] as usize;
        (self.at(s).rob() == rob).then_some(s)
    }

    /// Finds the FMA entry with ROB id `rob`.
    pub fn find_fma_mut(&mut self, rob: RobId) -> Option<&mut FmaEntry> {
        let slot = self.pos_of(rob)?;
        match self.at_mut(slot) {
            RsEntry::Fma(f) => Some(f),
            _ => None,
        }
    }

    /// Removes the entries with the given ROB ids — the ones a stage just
    /// issued or finished. Each removal clears the id's ring bits and
    /// frees its slot; no other entry is read, except that removing the
    /// oldest entry walks forward to the next one.
    ///
    /// # Panics
    /// Panics when an id is not in the station (a stage reported an entry
    /// it did not own, or reported it twice).
    pub fn remove(&mut self, robs: &[RobId]) {
        for &rob in robs {
            let s = self.pos_of(rob).expect("removed ROB id is waiting in the RS");
            let p = rob & self.mask;
            self.occupied[p / 64] &= !(1 << (p % 64));
            if Self::bit(&self.mem, p) {
                self.mem[p / 64] &= !(1 << (p % 64));
                self.mem_len -= 1;
            }
            self.slots[s] = None;
            self.free.push(s as u32);
            if rob == self.oldest && !self.is_empty() {
                let next = RingWalk::new(&self.occupied, p, 1).next().expect("a waiting entry remains");
                self.oldest = self.at(self.slot_at[next] as usize).rob();
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
        let mut rs = Rs::new(2, 8);
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
        let mut rs = Rs::new(3, 8);
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
        // Survivors keep their slots; the newcomer took the freed one.
        assert_eq!(rs.pos_of(2), Some(2));
        assert_eq!(rs.pos_of(7), Some(1));
        assert_eq!(rs.pos_of(3), None);
        let slots: Vec<_> = rs.indexed().map(|(s, e)| (s, e.rob())).collect();
        assert_eq!(slots, vec![(0, 0), (2, 2), (1, 7)]);
    }

    #[test]
    fn mem_index_tracks_loads_and_stores_through_churn() {
        let mut rs = Rs::new(6, 8);
        rs.push(RsEntry::Fma(fma(0, 0)));
        rs.push(load(1));
        rs.push(RsEntry::Fma(fma(2, 0)));
        rs.push(store(3));
        assert_eq!(rs.mem_len(), 2);
        let mem_robs: Vec<_> = rs.mem_iter().map(|e| e.rob()).collect();
        assert_eq!(mem_robs, vec![1, 3], "mem index preserves program order");
        // Removing a VFMA leaves the mem index untouched; removing the load
        // prunes it even though the freed slot is immediately reused.
        rs.remove(&[0]);
        assert_eq!(rs.mem_len(), 2);
        rs.remove(&[1]);
        assert_eq!(rs.mem_len(), 1);
        rs.push(load(4));
        let mem_robs: Vec<_> = rs.mem_iter().map(|e| e.rob()).collect();
        assert_eq!(mem_robs, vec![3, 4]);
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
    /// `mem_iter` its loads and stores, `pos_of` finds each entry's slot,
    /// and the lengths match.
    fn assert_views(rs: &Rs, expect: &[RobId], mem: &[RobId]) {
        let robs: Vec<_> = rs.iter().map(|e| e.rob()).collect();
        assert_eq!(robs, expect);
        assert_eq!(rs.len(), expect.len());
        for &r in expect {
            let slot = rs.pos_of(r).unwrap_or_else(|| panic!("rob {r} not found"));
            assert_eq!(rs.at(slot).rob(), r);
        }
        assert_eq!(rs.mem_len(), mem.len());
        let mem_robs: Vec<_> = rs.mem_iter().map(|e| e.rob()).collect();
        assert_eq!(mem_robs, mem);
    }

    #[test]
    fn remove_keeps_every_view_consistent_and_reuses_slots() {
        let mut rs = Rs::new(8, 16);
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
    #[should_panic(expected = "waiting in the RS")]
    fn removing_an_absent_entry_panics() {
        let mut rs = Rs::new(2, 8);
        rs.push(RsEntry::Fma(fma(0, 0)));
        rs.remove(&[0, 0]);
    }

    #[test]
    #[should_panic(expected = "is not within 8 of the oldest waiting id")]
    fn pushing_a_full_ring_past_the_oldest_panics() {
        let mut rs = Rs::new(5, 8);
        rs.push(RsEntry::Fma(fma(3, 0)));
        rs.push(RsEntry::Fma(fma(3 + 8, 0)));
    }

    #[test]
    #[should_panic(expected = "ring position is taken")]
    fn pushing_an_id_twice_panics() {
        let mut rs = Rs::new(5, 8);
        rs.push(RsEntry::Fma(fma(3, 0)));
        rs.push(load(4));
        rs.push(load(4));
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The station against a `BTreeMap` model on a ring of 8 ROB ids:
        /// random pushes (monotonic ids with gaps, mixed kinds, kept within
        /// the ring of the oldest waiting id) and random removals wrap the
        /// ring many times, and after every step each view agrees with the
        /// model — including absent ids one ring away from live ones.
        #[test]
        fn rs_matches_an_ordered_map_model(
            steps in prop::collection::vec((0u8..8, 0usize..4, any::<u32>()), 200..600),
        ) {
            let mut rs = Rs::new(5, 8);
            let ring = rs.mask + 1;
            prop_assert_eq!(ring, 8);
            // rob -> is it a load or store
            let mut model: std::collections::BTreeMap<RobId, bool> = Default::default();
            let mut next: RobId = 0;
            for (op, gap, pick) in steps {
                let id = next + gap;
                let in_ring = model.keys().next().is_none_or(|&o| id - o < 8);
                if op < 5 && model.len() < 5 && in_ring {
                    rs.push(match op % 3 {
                        0 => RsEntry::Fma(fma(id, 0)),
                        1 => load(id),
                        _ => store(id),
                    });
                    model.insert(id, op % 3 != 0);
                    next = id + 1;
                } else {
                    let gone: Vec<RobId> = model
                        .keys()
                        .enumerate()
                        .filter(|&(i, _)| pick >> i & 1 == 1)
                        .map(|(_, &r)| r)
                        .collect();
                    rs.remove(&gone);
                    for r in &gone {
                        model.remove(r);
                    }
                }
                let live: Vec<RobId> = model.keys().copied().collect();
                let mem: Vec<RobId> =
                    model.iter().filter(|&(_, &m)| m).map(|(&r, _)| r).collect();
                prop_assert_eq!(rs.iter().map(RsEntry::rob).collect::<Vec<_>>(), live.clone());
                prop_assert_eq!(rs.mem_iter().map(RsEntry::rob).collect::<Vec<_>>(), mem.clone());
                prop_assert_eq!(rs.len(), live.len());
                prop_assert_eq!(rs.mem_len(), mem.len());
                prop_assert_eq!(rs.is_full(), live.len() == 5);
                for &r in &live {
                    let slot = rs.pos_of(r);
                    prop_assert!(slot.is_some_and(|s| rs.at(s).rob() == r), "rob {} lost", r);
                    prop_assert_eq!(rs.pos_of(r + ring), None);
                    if r >= ring {
                        prop_assert_eq!(rs.pos_of(r - ring), None);
                    }
                }
            }
            prop_assert!(next > 10 * ring, "ids wrapped the ring only {} times", next / ring);
        }
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
