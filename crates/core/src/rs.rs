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
//!
//! Operand readiness is event-driven, as tag-broadcast wakeup is in
//! hardware. A VFMA is pushed with the registers it still waits on, and
//! each of those registers lists it as a waiter; [`Rs::wake`] delivers a
//! register that turned fully ready to its waiters, and a waiter with no
//! operand left to wait for joins one of two more ring bitsets:
//!
//! * `ready` — operands ready, ELM not yet generated: what the MGUs take
//!   (and, since the baseline never generates an ELM and waits on its
//!   accumulator as well, what the baseline select issues);
//! * `window` — ELM generated (which in the core implies operands ready):
//!   the Combination Window, which [`Rs::enter_window`] moves an entry
//!   into once its MGU has run.
//!
//! Each consumer walks its own bitset oldest-first, so nothing polls a
//! VFMA that is still waiting on an operand. The results are exact
//! because readiness is monotone while an entry waits: its operands stay
//! allocated until it leaves (commit is in order), so a ready register
//! never turns not-ready under a waiting reader.
//!
//! Waiter lists are intrusive singly linked lists over a node pool, one
//! head per physical register. A node names its entry by ROB id, which
//! locates it on the ring and tells it from a later occupant of the same
//! position: an entry removed while still listed leaves a stale node,
//! which its register's wake frees and skips rather than waking the
//! position's next occupant.

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
    /// This reads the PRF; the stages use the station's `window` bitset
    /// ([`Rs::in_window`]), and the sanitizer this independent view.
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

/// Operands a VFMA can wait on: A, B and, under the baseline, the
/// accumulator source.
pub const MAX_WAITS: usize = 3;

/// End of a waiter list.
const NIL: u32 = u32::MAX;

/// One node of a register's waiter list (see the module docs).
#[derive(Clone, Copy, Debug)]
struct Waiter {
    rob: RobId,
    next: u32,
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
    /// Ring positions of VFMAs with every operand ready and no ELM yet.
    ready: Vec<u64>,
    ready_len: usize,
    /// Ring positions of VFMAs whose ELM has been generated.
    window: Vec<u64>,
    window_len: usize,
    /// Operands the VFMA at each ring position still waits on.
    pending: Vec<u8>,
    /// First waiter-list node of each physical register.
    head: Vec<u32>,
    /// Waiter-list nodes; the free ones are chained from `free_node`.
    nodes: Vec<Waiter>,
    free_node: u32,
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
    /// `rob_entries` ROB entries (the span of ROB ids in flight at once)
    /// and `phys_regs` physical registers (the registers entries can wait
    /// on). Every table is sized here; none grows while entries flow.
    pub fn new(capacity: usize, rob_entries: usize, phys_regs: usize) -> Self {
        let ring = rob_entries.next_power_of_two();
        let words = ring.div_ceil(64);
        Rs {
            slots: (0..capacity).map(|_| None).collect(),
            // Pop from the back: slot 0 is handed out first.
            free: (0..capacity as u32).rev().collect(),
            slot_at: vec![0; ring],
            occupied: vec![0; words],
            mem: vec![0; words],
            mem_len: 0,
            ready: vec![0; words],
            ready_len: 0,
            window: vec![0; words],
            window_len: 0,
            pending: vec![0; ring],
            head: vec![NIL; phys_regs],
            // Waiting entries list at most this many nodes at once.
            nodes: Vec::with_capacity(MAX_WAITS * capacity),
            free_node: NIL,
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

    fn set_bit(words: &mut [u64], p: usize) {
        words[p / 64] |= 1 << (p % 64);
    }

    /// Clears bit `p`, returning whether it was set.
    fn take_bit(words: &mut [u64], p: usize) -> bool {
        let was = Self::bit(words, p);
        words[p / 64] &= !(1 << (p % 64));
        was
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

    /// Inserts an entry that waits on no register: a load, a store, or a
    /// VFMA whose operands are all ready (see [`Rs::push_waiting`]).
    pub fn push(&mut self, e: RsEntry) {
        self.push_waiting(e, &[]);
    }

    /// Inserts an entry. ROB ids are monotonic, so the new entry is the
    /// youngest. A VFMA lists itself on each register in `waits` — the
    /// distinct registers it needs that are not yet fully ready — and
    /// joins `ready` (or `window`, when its ELM is already generated) once
    /// [`Rs::wake`] has delivered them all; with `waits` empty it joins at
    /// once.
    ///
    /// # Panics
    /// Panics on overflow (callers must check [`Rs::is_full`]), and when
    /// the id is not within `rob_entries` of the oldest waiting id or its
    /// ring position is taken (an id pushed twice), or when a load or
    /// store is given registers to wait on.
    pub fn push_waiting(&mut self, e: RsEntry, waits: &[PhysId]) {
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
        Self::set_bit(&mut self.occupied, p);
        match &e {
            RsEntry::Fma(f) => {
                debug_assert!(waits.len() <= MAX_WAITS, "a VFMA waits on {MAX_WAITS} registers at most");
                self.pending[p] = waits.len() as u8;
                for &r in waits {
                    self.listen(r, rob);
                }
                if waits.is_empty() {
                    self.operands_ready(p, f.elm_ready);
                }
            }
            RsEntry::Load(_) | RsEntry::Store(_) => {
                assert!(waits.is_empty(), "loads and stores wait in the LSU, not on wake lists");
                Self::set_bit(&mut self.mem, p);
                self.mem_len += 1;
            }
        }
        self.slot_at[p] = slot;
        self.slots[slot as usize] = Some(e);
    }

    /// Lists ROB id `rob` as a waiter of register `reg`.
    fn listen(&mut self, reg: PhysId, rob: RobId) {
        let next = self.head[reg as usize];
        let n = if self.free_node == NIL {
            self.nodes.push(Waiter { rob, next });
            (self.nodes.len() - 1) as u32
        } else {
            let n = self.free_node;
            self.free_node = self.nodes[n as usize].next;
            self.nodes[n as usize] = Waiter { rob, next };
            n
        };
        self.head[reg as usize] = n;
    }

    /// The VFMA at ring position `p` waits on nothing more: it joins the
    /// window when its ELM is already generated, `ready` otherwise.
    fn operands_ready(&mut self, p: usize, generated: bool) {
        if generated {
            Self::set_bit(&mut self.window, p);
            self.window_len += 1;
        } else {
            Self::set_bit(&mut self.ready, p);
            self.ready_len += 1;
        }
    }

    /// Delivers register `reg`'s wakeup: it has turned fully ready. Each
    /// waiter still in the station counts one operand off, and one with
    /// none left joins `ready` (or `window`); stale nodes are skipped. The
    /// register's list is emptied, so a later reallocation starts afresh.
    pub fn wake(&mut self, reg: PhysId) {
        let mut n = std::mem::replace(&mut self.head[reg as usize], NIL);
        while n != NIL {
            let Waiter { rob, next } = self.nodes[n as usize];
            self.nodes[n as usize].next = self.free_node;
            self.free_node = n;
            n = next;
            let Some(slot) = self.pos_of(rob) else { continue };
            let p = rob & self.mask;
            self.pending[p] -= 1;
            if self.pending[p] == 0 {
                let generated = matches!(self.at(slot), RsEntry::Fma(f) if f.elm_ready);
                self.operands_ready(p, generated);
            }
        }
    }

    /// Payload slots of the `ready` VFMAs, oldest first.
    pub fn ready_slots(&self) -> impl Iterator<Item = usize> + '_ {
        let walk = RingWalk::new(&self.ready, self.start(), self.ready_len);
        walk.map(move |p| self.slot_at[p] as usize)
    }

    /// Payload slots of the VFMAs in the window, oldest first.
    pub fn window_slots(&self) -> impl Iterator<Item = usize> + '_ {
        let walk = RingWalk::new(&self.window, self.start(), self.window_len);
        walk.map(move |p| self.slot_at[p] as usize)
    }

    /// Moves the `ready` VFMA in payload slot `slot` into the window: its
    /// MGU has just generated the ELM.
    ///
    /// # Panics
    /// Panics when the entry is not in `ready`.
    pub fn enter_window(&mut self, slot: usize) {
        let p = self.at(slot).rob() & self.mask;
        assert!(Self::take_bit(&mut self.ready, p), "entered the window without being ready");
        self.ready_len -= 1;
        self.operands_ready(p, true);
    }

    /// Whether the waiting entry with ROB id `rob` is in `ready`.
    pub fn is_ready(&self, rob: RobId) -> bool {
        self.pos_of(rob).is_some() && Self::bit(&self.ready, rob & self.mask)
    }

    /// Whether the waiting entry with ROB id `rob` is in the window.
    pub fn in_window(&self, rob: RobId) -> bool {
        self.pos_of(rob).is_some() && Self::bit(&self.window, rob & self.mask)
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
    /// oldest entry walks forward to the next one. An entry still listed
    /// on a register leaves a stale node behind (see the module docs).
    ///
    /// # Panics
    /// Panics when an id is not in the station (a stage reported an entry
    /// it did not own, or reported it twice).
    pub fn remove(&mut self, robs: &[RobId]) {
        for &rob in robs {
            let s = self.pos_of(rob).expect("removed ROB id is waiting in the RS");
            let p = rob & self.mask;
            Self::take_bit(&mut self.occupied, p);
            self.mem_len -= Self::take_bit(&mut self.mem, p) as usize;
            self.ready_len -= Self::take_bit(&mut self.ready, p) as usize;
            self.window_len -= Self::take_bit(&mut self.window, p) as usize;
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
        let mut rs = Rs::new(2, 8, 8);
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
        let mut rs = Rs::new(3, 8, 8);
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
        let mut rs = Rs::new(6, 8, 8);
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
        let mut rs = Rs::new(8, 16, 8);
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
        let mut rs = Rs::new(2, 8, 8);
        rs.push(RsEntry::Fma(fma(0, 0)));
        rs.remove(&[0, 0]);
    }

    #[test]
    #[should_panic(expected = "is not within 8 of the oldest waiting id")]
    fn pushing_a_full_ring_past_the_oldest_panics() {
        let mut rs = Rs::new(5, 8, 8);
        rs.push(RsEntry::Fma(fma(3, 0)));
        rs.push(RsEntry::Fma(fma(3 + 8, 0)));
    }

    #[test]
    #[should_panic(expected = "ring position is taken")]
    fn pushing_an_id_twice_panics() {
        let mut rs = Rs::new(5, 8, 8);
        rs.push(RsEntry::Fma(fma(3, 0)));
        rs.push(load(4));
        rs.push(load(4));
    }

    fn walk(rs: &Rs, slots: impl Iterator<Item = usize>) -> Vec<RobId> {
        slots.map(|s| rs.at(s).rob()).collect()
    }

    #[test]
    fn wakes_move_entries_into_ready_and_generation_into_the_window() {
        let mut rs = Rs::new(6, 8, 8);
        rs.push_waiting(RsEntry::Fma(fma(0, 0)), &[4, 5]);
        rs.push(load(1));
        rs.push_waiting(RsEntry::Fma(fma(2, 0)), &[5]);
        rs.push(RsEntry::Fma(fma(3, 0)));
        let mut generated = fma(4, 0);
        generated.elm_ready = true;
        rs.push(RsEntry::Fma(generated));
        assert_eq!(walk(&rs, rs.ready_slots()), vec![3]);
        assert_eq!(walk(&rs, rs.window_slots()), vec![4]);
        // One wake delivers a register to every waiter; an entry joins
        // `ready` with its last operand, in age order.
        rs.wake(5);
        assert_eq!(walk(&rs, rs.ready_slots()), vec![2, 3]);
        rs.wake(4);
        assert_eq!(walk(&rs, rs.ready_slots()), vec![0, 2, 3]);
        assert!(rs.is_ready(0) && !rs.in_window(0) && !rs.is_ready(1));
        // A delivered register's list is empty: waking it again is a no-op.
        rs.wake(4);
        assert_eq!(walk(&rs, rs.ready_slots()), vec![0, 2, 3]);
        let slot = rs.pos_of(2).unwrap();
        rs.enter_window(slot);
        assert_eq!(walk(&rs, rs.ready_slots()), vec![0, 3]);
        assert_eq!(walk(&rs, rs.window_slots()), vec![2, 4]);
        rs.remove(&[2, 3]);
        assert_eq!(walk(&rs, rs.ready_slots()), vec![0]);
        assert_eq!(walk(&rs, rs.window_slots()), vec![4]);
    }

    #[test]
    fn a_stale_waiter_does_not_wake_the_next_occupant_of_its_position() {
        let mut rs = Rs::new(2, 8, 8);
        rs.push_waiting(RsEntry::Fma(fma(1, 0)), &[5]);
        // The entry leaves while still listed on register 5, and a younger
        // one takes its ring position, waiting on register 6.
        rs.remove(&[1]);
        rs.push_waiting(RsEntry::Fma(fma(9, 0)), &[6]);
        rs.wake(5);
        assert!(!rs.is_ready(9));
        assert_eq!(rs.ready_slots().count(), 0);
        rs.wake(6);
        assert_eq!(walk(&rs, rs.ready_slots()), vec![9]);
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
            let mut rs = Rs::new(5, 8, 8);
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

        /// The wake lists against a `BTreeMap` model on a ring of 8 ROB ids
        /// and 6 registers: VFMAs pushed with random wait sets (some with
        /// their ELM already generated), loads, wakes, ELM generations,
        /// registers reallocated after their wake, and removals — of
        /// entries still listed too, whose ring positions are then reused
        /// while their stale nodes linger. After every step the `ready` and
        /// `window` walks agree with the model.
        #[test]
        fn wake_lists_match_an_ordered_map_model(
            steps in prop::collection::vec((0u8..10, any::<u32>()), 200..600),
        ) {
            const REGS: u32 = 6;
            let mut rs = Rs::new(5, 8, REGS as usize);
            let ring = rs.mask + 1;
            // rob -> (registers still awaited, ELM generated); `None` for
            // a load
            type Model = std::collections::BTreeMap<RobId, Option<(Vec<PhysId>, bool)>>;
            let mut model = Model::new();
            let mut reg_ready = [true; REGS as usize];
            let mut next: RobId = 0;
            let mut stale_reuses = 0;
            for (op, pick) in steps {
                let reg = pick % REGS;
                match op {
                    0..=3 => {
                        let id = next + (pick >> 16) as usize % 3;
                        let in_ring = model.keys().next().is_none_or(|&o| id - o < ring);
                        if model.len() == 5 || !in_ring {
                            continue;
                        }
                        if op == 3 {
                            rs.push(load(id));
                            model.insert(id, None);
                        } else {
                            let waits: Vec<PhysId> = (0..REGS)
                                .filter(|&r| !reg_ready[r as usize] && pick >> (4 + r) & 1 == 1)
                                .take(MAX_WAITS)
                                .collect();
                            let mut f = fma(id, 0);
                            f.elm_ready = pick >> 12 & 7 == 0;
                            let elm_ready = f.elm_ready;
                            rs.push_waiting(RsEntry::Fma(f), &waits);
                            model.insert(id, Some((waits, elm_ready)));
                        }
                        next = id + 1;
                    }
                    4 | 5 => {
                        // A register turns ready once per allocation.
                        if reg_ready[reg as usize] {
                            continue;
                        }
                        reg_ready[reg as usize] = true;
                        rs.wake(reg);
                        for (waits, _) in model.values_mut().flatten() {
                            waits.retain(|&w| w != reg);
                        }
                    }
                    6 => {
                        // Released and reallocated: not ready again. No
                        // waiting entry is listed on it, only stale nodes.
                        reg_ready[reg as usize] = false;
                    }
                    7 => {
                        let want = model
                            .iter()
                            .find(|(_, e)| matches!(e, Some((w, false)) if w.is_empty()))
                            .map(|(&r, _)| r);
                        let got = rs.ready_slots().next();
                        prop_assert_eq!(got.map(|s| rs.at(s).rob()), want);
                        if let Some(slot) = got {
                            if let RsEntry::Fma(f) = rs.at_mut(slot) {
                                f.elm_ready = true;
                            }
                            rs.enter_window(slot);
                            if let Some(Some((_, g))) = model.get_mut(&want.unwrap()) {
                                *g = true;
                            }
                        }
                    }
                    _ => {
                        let gone: Vec<RobId> = model
                            .keys()
                            .enumerate()
                            .filter(|&(i, _)| pick >> i & 1 == 1)
                            .map(|(_, &r)| r)
                            .collect();
                        rs.remove(&gone);
                        for r in &gone {
                            if matches!(&model[r], Some((w, _)) if !w.is_empty()) {
                                stale_reuses += 1;
                            }
                            model.remove(r);
                        }
                    }
                }
                let ready: Vec<RobId> = model
                    .iter()
                    .filter(|(_, e)| matches!(e, Some((w, false)) if w.is_empty()))
                    .map(|(&r, _)| r)
                    .collect();
                let window: Vec<RobId> = model
                    .iter()
                    .filter(|(_, e)| matches!(e, Some((w, true)) if w.is_empty()))
                    .map(|(&r, _)| r)
                    .collect();
                prop_assert_eq!(walk(&rs, rs.ready_slots()), ready.clone());
                prop_assert_eq!(walk(&rs, rs.window_slots()), window.clone());
                for &r in model.keys() {
                    prop_assert_eq!(rs.is_ready(r), ready.contains(&r));
                    prop_assert_eq!(rs.in_window(r), window.contains(&r));
                    prop_assert!(!rs.is_ready(r + ring) && !rs.in_window(r + ring));
                }
            }
            prop_assert!(stale_reuses > 0, "no entry left while still listed");
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
