//! Composition of the full memory hierarchy: private L1/L2 per core, shared
//! NUCA L3 slices over a mesh, DRAM, TLB, stream prefetcher and the optional
//! broadcast cache.
//!
//! Two usage modes (see DESIGN.md §2):
//!
//! * **detailed** — one [`CoreMemory`] per core, all sharing one [`Uncore`];
//! * **symmetric** — a single [`CoreMemory`] against an [`Uncore`] built with
//!   [`Uncore::new_symmetric`]: one L3 slice (the per-core share), mean-hop
//!   NoC latency, and DRAM bandwidth divided by the core count. With every
//!   core running an identical tile of the same GEMM — the paper's setting —
//!   this preserves per-core contention at a fraction of the cost.

use crate::bcast_cache::{BcastAccess, BcastDesign, BroadcastCache};
use crate::cache::{Cache, CacheConfig, CacheStats, Replacement};
use crate::dram::{Dram, DramConfig};
use crate::noc::Mesh;
use crate::tlb::Tlb;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Full memory-system configuration (defaults reproduce Table I).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct MemConfig {
    /// L1-D geometry (32 KB, 8-way, LRU).
    pub l1: CacheConfig,
    /// L2 geometry (1 MB, 16-way, LRU, inclusive of L1).
    pub l2: CacheConfig,
    /// One L3 NUCA slice (2.375 MB, 19-way, SRRIP); one slice per core.
    pub l3_slice: CacheConfig,
    /// L1 hit latency in core cycles.
    pub l1_hit_cycles: u64,
    /// L2 hit latency in core cycles (added to L1 miss detection).
    pub l2_hit_cycles: u64,
    /// L3 array latency in ns (NoC hops are added separately).
    pub l3_ns: f64,
    /// DRAM model.
    pub dram: DramConfig,
    /// L1 TLB entries.
    pub tlb_entries: usize,
    /// Page size in bytes.
    pub page_bytes: u64,
    /// Page-walk penalty in ns.
    pub tlb_walk_ns: f64,
    /// Broadcast-cache design, if one is instantiated.
    pub bcast: Option<BcastDesign>,
    /// Broadcast-cache entries (paper: 32).
    pub bcast_entries: usize,
    /// B$ hit latency in core cycles.
    pub bcast_hit_cycles: u64,
    /// Sequential-stream prefetch degree (lines ahead); 0 disables.
    pub prefetch_degree: u64,
    /// NoC per-hop latency in uncore cycles.
    pub noc_hop_cycles: u64,
    /// Uncore reference frequency in GHz.
    pub uncore_ghz: f64,
}

impl Default for MemConfig {
    fn default() -> Self {
        MemConfig {
            l1: CacheConfig {
                capacity_bytes: 32 * 1024,
                ways: 8,
                replacement: Replacement::Lru,
            },
            l2: CacheConfig {
                capacity_bytes: 1024 * 1024,
                ways: 16,
                replacement: Replacement::Lru,
            },
            l3_slice: CacheConfig {
                capacity_bytes: (2.375 * 1024.0 * 1024.0) as u64,
                ways: 19,
                replacement: Replacement::Srrip,
            },
            l1_hit_cycles: 4,
            l2_hit_cycles: 14,
            l3_ns: 18.0,
            dram: DramConfig::default(),
            tlb_entries: 64,
            page_bytes: 4096,
            tlb_walk_ns: 20.0,
            bcast: Some(BcastDesign::Data),
            bcast_entries: 32,
            bcast_hit_cycles: 3,
            prefetch_degree: 64,
            noc_hop_cycles: 2,
            uncore_ghz: 1.7,
        }
    }
}

impl MemConfig {
    /// Rejects memory-system configurations the hierarchy cannot model.
    ///
    /// Each cache level must hold at least one full set of 64-byte lines,
    /// DRAM must have positive bandwidth and at least one channel, and
    /// every latency/frequency must be a finite non-negative number. The
    /// error string names the offending field.
    pub fn validate(&self) -> Result<(), String> {
        fn cache(level: &str, c: &CacheConfig) -> Result<(), String> {
            if c.ways == 0 {
                return Err(format!("mem config: {level} ways must be > 0"));
            }
            if c.capacity_bytes < c.ways as u64 * 64 {
                return Err(format!(
                    "mem config: {level} capacity ({} B) below one {}-way set of 64 B lines",
                    c.capacity_bytes, c.ways
                ));
            }
            Ok(())
        }
        cache("l1", &self.l1)?;
        cache("l2", &self.l2)?;
        cache("l3_slice", &self.l3_slice)?;
        fn finite_pos(what: &str, v: f64) -> Result<(), String> {
            if !v.is_finite() || v <= 0.0 {
                Err(format!("mem config: {what} must be positive and finite, got {v}"))
            } else {
                Ok(())
            }
        }
        finite_pos("dram.bandwidth_gbps", self.dram.bandwidth_gbps)?;
        if self.dram.channels == 0 {
            return Err("mem config: dram.channels must be > 0".to_string());
        }
        if !self.dram.latency_ns.is_finite() || self.dram.latency_ns < 0.0 {
            return Err(format!(
                "mem config: dram.latency_ns must be finite and >= 0, got {}",
                self.dram.latency_ns
            ));
        }
        if self.page_bytes == 0 || self.tlb_entries == 0 {
            return Err("mem config: page_bytes and tlb_entries must be > 0".to_string());
        }
        if !self.tlb_walk_ns.is_finite() || self.tlb_walk_ns < 0.0 {
            return Err(format!(
                "mem config: tlb_walk_ns must be finite and >= 0, got {}",
                self.tlb_walk_ns
            ));
        }
        if !self.l3_ns.is_finite() || self.l3_ns < 0.0 {
            return Err(format!("mem config: l3_ns must be finite and >= 0, got {}", self.l3_ns));
        }
        if self.bcast.is_some() && self.bcast_entries == 0 {
            return Err("mem config: bcast_entries must be > 0 when a B$ is instantiated"
                .to_string());
        }
        finite_pos("uncore_ghz", self.uncore_ghz)?;
        Ok(())
    }
}

/// Where [`CoreMemory::warm`] installs lines.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WarmLevel {
    /// L1 + L2 + L3.
    L1,
    /// L2 + L3.
    L2,
    /// L3 only — the paper warms the previous layer's output into L3 (§VI).
    L3,
}

/// What kind of access a load is.
#[derive(Clone, Copy, PartialEq, Debug)]
pub enum LoadClass {
    /// Full-vector (64-byte) load.
    Vector,
    /// Broadcast load of a 4-byte element. `elem_zero` says whether the
    /// element is zero and `line_zero_mask` is the is-zero mask of the whole
    /// line (used to fill a mask-design B$).
    Broadcast {
        /// The broadcast element is exactly zero.
        elem_zero: bool,
        /// Per-4-byte-element zero mask of the line.
        line_zero_mask: u16,
    },
}

/// Result of a timed load.
#[derive(Clone, Copy, Debug)]
pub struct LoadResult {
    /// Total latency in ns from issue to data ready.
    pub latency_ns: f64,
    /// Whether an L1-D read port was consumed (false when the B$ served it).
    pub used_l1_port: bool,
    /// Whether the broadcast cache served or partially served the access.
    pub bcast_hit: bool,
}

/// Per-core memory statistics.
#[derive(Clone, Copy, Default, Debug, Serialize, Deserialize)]
pub struct CoreMemStats {
    /// L1-D stats.
    pub l1: CacheStats,
    /// L2 stats.
    pub l2: CacheStats,
    /// Demand loads issued.
    pub loads: u64,
    /// Stores issued.
    pub stores: u64,
    /// Prefetches issued.
    pub prefetches: u64,
}

/// The interface a core-side memory uses to reach shared uncore state.
///
/// The detailed lockstep engine hands cores the real [`Uncore`]; the
/// quantum-based relaxed-sync engine hands each core a
/// [`crate::relaxed::QuantumView`] — a core-private view that predicts
/// latencies from a quantum-start snapshot and logs every request for
/// deterministic replay at the next barrier (DESIGN.md §5i). Core code is
/// written against this trait so both engines run the identical cycle
/// loop.
pub trait UncoreAccess {
    /// Accesses `line` from `core` at `start_ns` (the time the request
    /// leaves the L2). Returns the completion time in ns.
    fn access(&mut self, core: usize, line: u64, start_ns: f64, prefetch: bool) -> f64;
    /// Installs a line in its home L3 slice without timing (warm-up).
    fn warm_line(&mut self, core: usize, line: u64);
}

/// Maximum concurrent misses a NUCA L3 slice tracks before a new miss
/// counts as an MSHR conflict (observation-only: conflicts are counted,
/// not stalled, so the timing model is unchanged).
pub const SLICE_MSHRS: usize = 16;

/// Aggregated uncore contention report — the NoC/L3/DRAM signals that only
/// become visible at many-core scale (ROADMAP open item 2).
#[derive(Clone, Debug, Default, Serialize, Deserialize)]
pub struct UncoreReport {
    /// L3 hits across all slices.
    pub l3_hits: u64,
    /// L3 misses across all slices.
    pub l3_misses: u64,
    /// Per-slice MSHR-conflict counts: misses arriving while [`SLICE_MSHRS`]
    /// misses to the same slice were already outstanding.
    pub mshr_conflicts: Vec<u64>,
    /// Flits carried per directed mesh link (see [`Mesh::link_id`]); request
    /// and response traversals both count.
    pub link_flits: Vec<u64>,
    /// The busiest link's flit count.
    pub max_link_flits: u64,
    /// Mean flits over links that carried any traffic.
    pub mean_link_flits: f64,
    /// DRAM traffic and queue-depth counters.
    pub dram: crate::dram::DramStats,
}

impl UncoreReport {
    /// The hottest links as `(tile, dir, flits)`, most-loaded first, for
    /// operator-facing reports. `dir`: 0 east, 1 west, 2 south, 3 north.
    pub fn hottest_links(&self, top: usize) -> Vec<(usize, usize, u64)> {
        let mut loaded: Vec<(usize, u64)> = self
            .link_flits
            .iter()
            .copied()
            .enumerate()
            .filter(|&(_, f)| f > 0)
            .collect();
        loaded.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
        loaded.into_iter().take(top).map(|(id, f)| (id / 4, id % 4, f)).collect()
    }

    /// Total MSHR conflicts across slices.
    pub fn total_mshr_conflicts(&self) -> u64 {
        self.mshr_conflicts.iter().sum()
    }
}

/// One logged uncore request, replayed into the shared [`Uncore`] at a
/// relaxed-sync barrier. The `(start_ns, core, seq)` triple gives the
/// replay a deterministic total order independent of host threading.
#[derive(Clone, Copy, Debug)]
pub struct UncoreReq {
    /// Requesting core.
    pub core: usize,
    /// Per-core log sequence number within the quantum.
    pub seq: u32,
    /// Line address (un-salted; the uncore salts by core).
    pub line: u64,
    /// Time the request left the requester's L2, in ns.
    pub start_ns: f64,
    /// Prefetch (accounting only).
    pub prefetch: bool,
}

/// Shared uncore: L3 slices, mesh, DRAM.
#[derive(Clone, Debug)]
pub struct Uncore {
    slices: Vec<Cache>,
    mesh: Mesh,
    dram: Dram,
    /// Mean one-way NoC latency used in symmetric mode.
    symmetric_noc_ns: Option<f64>,
    l3_ns: f64,
    l3_hits: u64,
    l3_misses: u64,
    /// Flits per directed mesh link (detailed mode only).
    link_flits: Vec<u64>,
    /// Per-slice outstanding-miss completion times (pruned on access).
    slice_inflight: Vec<Vec<f64>>,
    /// Per-slice conflict counts (miss arrived with >= SLICE_MSHRS pending).
    mshr_conflicts: Vec<u64>,
}

impl Uncore {
    /// Builds a detailed uncore with one L3 slice per core.
    pub fn new(cfg: &MemConfig, cores: usize) -> Self {
        let mesh = Mesh::for_tiles(cores.max(1), cfg.noc_hop_cycles, cfg.uncore_ghz);
        let n = cores.max(1);
        Uncore {
            slices: (0..n).map(|_| Cache::new(cfg.l3_slice)).collect(),
            mesh,
            dram: Dram::new(cfg.dram),
            symmetric_noc_ns: None,
            l3_ns: cfg.l3_ns,
            l3_hits: 0,
            l3_misses: 0,
            link_flits: vec![0; mesh.num_links()],
            slice_inflight: vec![Vec::new(); n],
            mshr_conflicts: vec![0; n],
        }
    }

    /// Builds a symmetric-mode uncore: a single simulated core stands for
    /// `total_cores` identical ones. One slice (the per-core L3 share), mean
    /// NoC hop latency of the full mesh, DRAM bandwidth divided by the core
    /// count.
    pub fn new_symmetric(cfg: &MemConfig, total_cores: usize) -> Self {
        let mesh = Mesh::for_tiles(total_cores.max(1), cfg.noc_hop_cycles, cfg.uncore_ghz);
        let mut dram = Dram::new(cfg.dram);
        dram.set_bandwidth_share(total_cores.max(1));
        let mean = mesh.mean_latency_ns(0);
        Uncore {
            slices: vec![Cache::new(cfg.l3_slice)],
            mesh,
            dram,
            symmetric_noc_ns: Some(mean),
            l3_ns: cfg.l3_ns,
            l3_hits: 0,
            l3_misses: 0,
            // Per-link traffic is meaningless when one core stands for many;
            // symmetric mode keeps the contention counters empty.
            link_flits: Vec::new(),
            slice_inflight: vec![Vec::new()],
            mshr_conflicts: vec![0],
        }
    }

    /// One-way NoC latency from `core` to the home slice of `line`, in ns.
    fn noc_ns(&self, core: usize, line: u64) -> f64 {
        if let Some(mean) = self.symmetric_noc_ns {
            mean
        } else {
            let slice = (line % self.slices.len() as u64) as usize;
            self.mesh.latency_ns(core % self.mesh.tiles(), slice % self.mesh.tiles())
        }
    }

    /// Each core simulates its own kernel over a private functional arena
    /// whose addresses start at zero; salting the line address with the core
    /// id makes the shared L3/DRAM see them as the distinct physical buffers
    /// they represent.
    pub(crate) fn salt(core: usize, line: u64) -> u64 {
        line | ((core as u64) << 42)
    }

    /// Counts request + response flit traversals on the XY route between
    /// the requester tile and the home-slice tile (detailed mode only).
    fn count_route(&mut self, core: usize, slice_idx: usize) {
        let mesh = self.mesh;
        let tiles = mesh.tiles();
        let (from, to) = (core % tiles, slice_idx % tiles);
        mesh.xy_route_links(from, to, |l| self.link_flits[l] += 1);
        mesh.xy_route_links(to, from, |l| self.link_flits[l] += 1);
    }

    /// Accesses `line` from `core` at `start_ns` (the time the request
    /// leaves the L2). Returns the completion time in ns.
    pub fn access(&mut self, core: usize, line: u64, start_ns: f64, prefetch: bool) -> f64 {
        let noc = self.noc_ns(core, line);
        let tagged = Self::salt(core, line);
        let slice_idx = (line % self.slices.len() as u64) as usize;
        if self.symmetric_noc_ns.is_none() {
            self.count_route(core, slice_idx);
        }
        let at_slice = start_ns + noc;
        let hit = self.slices[slice_idx].access(tagged);
        if hit {
            self.l3_hits += 1;
            at_slice + self.l3_ns + noc
        } else {
            self.l3_misses += 1;
            // Observation-only MSHR model: track outstanding misses per slice
            // and count (but do not stall) arrivals past the MSHR budget.
            let inflight = &mut self.slice_inflight[slice_idx];
            inflight.retain(|&t| t > at_slice);
            if inflight.len() >= SLICE_MSHRS {
                self.mshr_conflicts[slice_idx] += 1;
            }
            let done = self.dram.access_line(tagged, at_slice + self.l3_ns, prefetch);
            self.slice_inflight[slice_idx].push(done);
            self.slices[slice_idx].fill(tagged);
            done + noc
        }
    }

    /// Installs a line in its home L3 slice without timing (warm-up).
    pub fn warm_line(&mut self, core: usize, line: u64) {
        let tagged = Self::salt(core, line);
        let slice_idx = (line % self.slices.len() as u64) as usize;
        self.slices[slice_idx].fill(tagged);
    }

    /// Probes the L3 without side effects.
    pub fn contains(&self, core: usize, line: u64) -> bool {
        let tagged = Self::salt(core, line);
        let slice_idx = (line % self.slices.len() as u64) as usize;
        self.slices[slice_idx].contains(tagged)
    }

    /// (hits, misses) seen by the L3 so far.
    pub fn l3_stats(&self) -> (u64, u64) {
        (self.l3_hits, self.l3_misses)
    }

    /// DRAM traffic counters.
    pub fn dram_stats(&self) -> crate::dram::DramStats {
        self.dram.stats()
    }

    /// The mesh (for topology queries).
    pub fn mesh(&self) -> &Mesh {
        &self.mesh
    }

    /// One-way NoC latency from `core` to the home slice of `line`, in ns —
    /// the public probe [`crate::relaxed::QuantumView`] predicts with.
    pub fn noc_latency_ns(&self, core: usize, line: u64) -> f64 {
        self.noc_ns(core, line)
    }

    /// L3 array latency in ns.
    pub fn l3_latency_ns(&self) -> f64 {
        self.l3_ns
    }

    /// A clone of the DRAM channel state, cheap enough (a handful of f64s
    /// per channel) to snapshot at every quantum boundary.
    pub fn dram_snapshot(&self) -> Dram {
        self.dram.clone()
    }

    /// Aggregated contention report (see [`UncoreReport`]).
    pub fn report(&self) -> UncoreReport {
        let loaded: Vec<u64> =
            self.link_flits.iter().copied().filter(|&f| f > 0).collect();
        let mean = if loaded.is_empty() {
            0.0
        } else {
            loaded.iter().sum::<u64>() as f64 / loaded.len() as f64
        };
        UncoreReport {
            l3_hits: self.l3_hits,
            l3_misses: self.l3_misses,
            mshr_conflicts: self.mshr_conflicts.clone(),
            link_flits: self.link_flits.clone(),
            max_link_flits: self.link_flits.iter().copied().max().unwrap_or(0),
            mean_link_flits: mean,
            dram: self.dram.stats(),
        }
    }

    /// Replays a quantum's logged requests into the shared uncore in the
    /// canonical `(start_ns, core, seq)` order. Predicted latencies were
    /// already consumed inside the quantum; the replay's job is to bring the
    /// shared L3/DRAM/contention state (and its counters) to exactly the
    /// state a serialized execution of those requests would produce —
    /// independent of which host thread ran which core. Drains `reqs`.
    pub fn reconcile(&mut self, reqs: &mut Vec<UncoreReq>) {
        reqs.sort_unstable_by(|a, b| {
            a.start_ns
                .total_cmp(&b.start_ns)
                .then(a.core.cmp(&b.core))
                .then(a.seq.cmp(&b.seq))
        });
        for r in reqs.drain(..) {
            self.access(r.core, r.line, r.start_ns, r.prefetch);
        }
    }
}

impl UncoreAccess for Uncore {
    fn access(&mut self, core: usize, line: u64, start_ns: f64, prefetch: bool) -> f64 {
        Uncore::access(self, core, line, start_ns, prefetch)
    }

    fn warm_line(&mut self, core: usize, line: u64) {
        Uncore::warm_line(self, core, line)
    }
}

/// A 4 KB-region stream-prefetcher entry.
#[derive(Clone, Copy, Debug)]
struct Region {
    last_demand: u64,
    frontier: u64,
    tick: u64,
}

/// Private per-core memory: L1, L2, TLB, prefetcher, optional B$.
#[derive(Clone, Debug)]
pub struct CoreMemory {
    core_id: usize,
    cfg: MemConfig,
    l1: Cache,
    l2: Cache,
    tlb: Tlb,
    bcast: Option<BroadcastCache>,
    /// In-flight prefetch fills: line -> ready time in ns.
    inflight: HashMap<u64, f64>,
    regions: HashMap<u64, Region>,
    region_tick: u64,
    freq_ghz: f64,
    stats: CoreMemStats,
}

const REGION_LINES: u64 = 64; // 4 KB regions
const MAX_REGIONS: usize = 64;

impl CoreMemory {
    /// Creates the private memory of core `core_id` running at `freq_ghz`.
    pub fn new(core_id: usize, cfg: MemConfig, freq_ghz: f64) -> Self {
        CoreMemory {
            core_id,
            l1: Cache::new(cfg.l1),
            l2: Cache::new(cfg.l2),
            tlb: Tlb::new(cfg.tlb_entries, cfg.page_bytes, cfg.tlb_walk_ns),
            bcast: cfg.bcast.map(|d| BroadcastCache::new(cfg.bcast_entries, d)),
            inflight: HashMap::new(),
            regions: HashMap::new(),
            region_tick: 0,
            freq_ghz,
            cfg,
            stats: CoreMemStats::default(),
        }
    }

    /// Core id (tile index on the mesh).
    pub fn core_id(&self) -> usize {
        self.core_id
    }

    /// Changes the core frequency (GHz); L1/L2 cycle latencies scale, the
    /// uncore does not (§VI).
    pub fn set_freq(&mut self, ghz: f64) {
        self.freq_ghz = ghz;
    }

    /// Per-core statistics.
    pub fn stats(&self) -> CoreMemStats {
        let mut s = self.stats;
        s.l1 = self.l1.stats();
        s.l2 = self.l2.stats();
        s
    }

    /// B$ read ports per cycle (0 when no B$).
    pub fn bcast_read_ports(&self) -> usize {
        self.bcast.as_ref().map(|b| b.read_ports()).unwrap_or(0)
    }

    /// Non-mutating B$ probe for port reservation; `None` when no B$ is
    /// instantiated.
    pub fn peek_bcast(&self, addr: u64) -> Option<BcastAccess> {
        self.bcast.as_ref().map(|b| b.peek(addr))
    }

    /// B$ entry count (`None` when no B$); the sanitizer's freshness audit
    /// walks entries round-robin across check cycles.
    pub fn bcast_entries(&self) -> Option<usize> {
        self.bcast.as_ref().map(|b| b.num_entries())
    }

    /// Audits one B$ entry against backing memory (see
    /// [`BroadcastCache::audit_entry`]); `None` when no B$, the entry is
    /// invalid, or it is fresh.
    pub fn audit_bcast_entry(
        &self,
        idx: usize,
        mask_of: impl FnOnce(u64) -> u16,
    ) -> Option<(u64, u16, u16)> {
        self.bcast.as_ref().and_then(|b| b.audit_entry(idx, mask_of))
    }

    /// Fault-injection hook: corrupts the first valid B$ entry. Returns
    /// `false` when no B$ is instantiated or nothing is cached yet.
    pub fn corrupt_bcast_entry(&mut self) -> bool {
        self.bcast.as_mut().map(|b| b.corrupt_first_valid()).unwrap_or(false)
    }

    fn cyc_ns(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_ghz
    }

    /// Fills `line` into L1+L2, back-invalidating L1 on L2 eviction to keep
    /// the hierarchy inclusive.
    fn fill_private(&mut self, line: u64) {
        if let Some(evicted) = self.l2.fill(line) {
            self.l1.invalidate(evicted);
        }
        self.l1.fill(line);
    }

    fn run_prefetcher(&mut self, uncore: &mut dyn UncoreAccess, line: u64, now_ns: f64) {
        let degree = self.cfg.prefetch_degree;
        if degree == 0 {
            return;
        }
        let region = line / REGION_LINES;
        self.region_tick += 1;
        let tick = self.region_tick;
        let ascending = match self.regions.get(&region) {
            Some(r) => line == r.last_demand + 1 || line == r.last_demand,
            None => {
                // A touch at the start of a region after the previous region
                // was streamed also confirms a stream.
                line.is_multiple_of(REGION_LINES) && self.regions.contains_key(&(region.wrapping_sub(1)))
            }
        };
        let entry = self.regions.entry(region).or_insert(Region {
            last_demand: line,
            frontier: line,
            tick,
        });
        entry.tick = tick;
        let confirmed = ascending || entry.frontier > line;
        entry.last_demand = line;
        if confirmed {
            // Hardware stream prefetchers do not cross 4 KB page boundaries;
            // the region-start confirmation above picks the stream back up on
            // the next page.
            let region_end = (region + 1) * REGION_LINES - 1;
            let target = (line + degree).min(region_end);
            let from = entry.frontier.max(line) + 1;
            entry.frontier = entry.frontier.max(target);
            for pf in from..=target {
                if self.l2.contains(pf) || self.inflight.contains_key(&pf) {
                    continue;
                }
                let done = uncore.access(self.core_id, pf, now_ns, true);
                self.inflight.insert(pf, done);
                self.stats.prefetches += 1;
            }
        }
        if self.regions.len() > MAX_REGIONS {
            // Drop the least recently used region entry.
            if let Some((&k, _)) = self.regions.iter().min_by_key(|(_, r)| r.tick) {
                self.regions.remove(&k);
            }
        }
    }

    /// Issues a timed demand load of the data at `addr` at time `now_ns`.
    pub fn load(
        &mut self,
        uncore: &mut dyn UncoreAccess,
        addr: u64,
        now_ns: f64,
        class: LoadClass,
    ) -> LoadResult {
        self.stats.loads += 1;
        let tlb_ns = self.tlb.translate(addr);
        let line = crate::line_of(addr);

        // Broadcast cache probe.
        let mut bcast_hit = false;
        let mut fill_bcast_mask: Option<u16> = None;
        if let (LoadClass::Broadcast { elem_zero: _, line_zero_mask }, Some(b)) =
            (class, self.bcast.as_mut())
        {
            match b.probe(addr, line_zero_mask) {
                BcastAccess::HitNoL1 => {
                    return LoadResult {
                        latency_ns: tlb_ns + self.cyc_ns(self.cfg.bcast_hit_cycles),
                        used_l1_port: false,
                        bcast_hit: true,
                    };
                }
                BcastAccess::HitNeedsL1 => {
                    bcast_hit = true;
                }
                BcastAccess::Miss => {
                    fill_bcast_mask = Some(line_zero_mask);
                }
            }
        }

        let l1_ns = self.cyc_ns(self.cfg.l1_hit_cycles);
        let latency = if self.l1.access(line) {
            l1_ns
        } else {
            let l2_start = now_ns + l1_ns;
            // A pending prefetch fill may be on its way to L2.
            let from_inflight = self.inflight.get(&line).copied();
            
            if let Some(ready) = from_inflight {
                self.inflight.remove(&line);
                self.fill_private(line);
                // Wait for the fill (if still in flight), at least an L2 hit.
                (ready - now_ns).max(l1_ns + self.cyc_ns(self.cfg.l2_hit_cycles))
            } else if self.l2.access(line) {
                self.l1.fill(line);
                let ns = l1_ns + self.cyc_ns(self.cfg.l2_hit_cycles);
                self.run_prefetcher(uncore, line, l2_start);
                ns
            } else {
                let done = uncore.access(
                    self.core_id,
                    line,
                    l2_start + self.cyc_ns(self.cfg.l2_hit_cycles),
                    false,
                );
                self.fill_private(line);
                self.run_prefetcher(uncore, line, l2_start);
                done - now_ns
            }
        };

        if let (Some(mask), Some(b)) = (fill_bcast_mask, self.bcast.as_mut()) {
            b.fill(addr, mask);
        }

        LoadResult { latency_ns: tlb_ns + latency, used_l1_port: true, bcast_hit }
    }

    /// Issues a store (write-allocate into L1/L2; timing is hidden by the
    /// store buffer so only occupancy is modelled).
    pub fn store(&mut self, uncore: &mut dyn UncoreAccess, addr: u64, now_ns: f64) {
        self.stats.stores += 1;
        let line = crate::line_of(addr);
        if !self.l1.access(line) {
            if !self.l2.access(line) {
                uncore.access(self.core_id, line, now_ns, false);
            }
            self.fill_private(line);
        }
    }

    /// Installs every line of `[base, base+bytes)` at the given level
    /// without timing (kernel warm-up, §VI).
    pub fn warm(&mut self, uncore: &mut dyn UncoreAccess, base: u64, bytes: u64, level: WarmLevel) {
        let first = crate::line_of(base);
        let last = crate::line_of(base + bytes.saturating_sub(1));
        for line in first..=last {
            uncore.warm_line(self.core_id, line);
            match level {
                WarmLevel::L3 => {}
                WarmLevel::L2 => {
                    self.l2.fill(line);
                }
                WarmLevel::L1 => {
                    self.fill_private(line);
                }
            }
        }
    }

    /// Direct read-only access to the L1 for tests.
    pub fn l1(&self) -> &Cache {
        &self.l1
    }

    /// Direct read-only access to the L2 for tests.
    pub fn l2(&self) -> &Cache {
        &self.l2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> MemConfig {
        MemConfig { prefetch_degree: 0, bcast: None, ..MemConfig::default() }
    }

    #[test]
    fn default_config_validates() {
        MemConfig::default().validate().unwrap();
        cfg().validate().unwrap();
    }

    #[test]
    fn validate_rejects_degenerate_points() {
        let mut c = MemConfig::default();
        c.l1.ways = 0;
        assert!(c.validate().unwrap_err().contains("l1 ways"));

        let mut c = MemConfig::default();
        c.dram.channels = 0;
        assert!(c.validate().unwrap_err().contains("dram.channels"));

        let c = MemConfig { uncore_ghz: 0.0, ..Default::default() };
        assert!(c.validate().unwrap_err().contains("uncore_ghz"));
    }

    #[test]
    fn l1_hit_latency() {
        let c = cfg();
        let mut uncore = Uncore::new(&c, 1);
        let mut m = CoreMemory::new(0, c, 1.7);
        m.warm(&mut uncore, 0, 64, WarmLevel::L1);
        // First load pays the TLB walk; the second is a pure L1 hit.
        m.load(&mut uncore, 0, 0.0, LoadClass::Vector);
        let r = m.load(&mut uncore, 0, 100.0, LoadClass::Vector);
        assert!((r.latency_ns - 4.0 / 1.7).abs() < 1e-9);
        assert!(r.used_l1_port);
    }

    #[test]
    fn miss_escalates_through_levels() {
        let c = cfg();
        let mut uncore = Uncore::new(&c, 1);
        let mut m = CoreMemory::new(0, c, 1.7);
        // Cold: goes to DRAM.
        let cold = m.load(&mut uncore, 4096, 0.0, LoadClass::Vector);
        assert!(cold.latency_ns > 50.0, "cold load {}", cold.latency_ns);
        // Now hot in L1.
        let hot = m.load(&mut uncore, 4096, 1000.0, LoadClass::Vector);
        assert!(hot.latency_ns < 5.0);
    }

    #[test]
    fn l3_warm_faster_than_dram() {
        let c = cfg();
        let mut uncore = Uncore::new(&c, 1);
        let mut m = CoreMemory::new(0, c, 1.7);
        m.warm(&mut uncore, 0, 64, WarmLevel::L3);
        let warm = m.load(&mut uncore, 0, 0.0, LoadClass::Vector);
        let mut uncore2 = Uncore::new(&c, 1);
        let mut m2 = CoreMemory::new(0, c, 1.7);
        let cold = m2.load(&mut uncore2, 0, 0.0, LoadClass::Vector);
        assert!(warm.latency_ns < cold.latency_ns);
    }

    #[test]
    fn inclusive_l2_back_invalidates_l1() {
        // A tiny L2 to force evictions.
        let mut c = cfg();
        c.l2 = CacheConfig { capacity_bytes: 2 * 64, ways: 1, replacement: Replacement::Lru };
        c.l1 = CacheConfig { capacity_bytes: 8 * 64, ways: 8, replacement: Replacement::Lru };
        let mut uncore = Uncore::new(&c, 1);
        let mut m = CoreMemory::new(0, c, 1.7);
        m.load(&mut uncore, 0, 0.0, LoadClass::Vector); // line 0 -> set 0
        m.load(&mut uncore, 128, 0.0, LoadClass::Vector); // line 2 -> set 0, evicts line 0
        assert!(!m.l1().contains(0), "L1 must not hold lines evicted from inclusive L2");
    }

    #[test]
    fn bcast_data_design_spares_l1_port() {
        let mut c = cfg();
        c.bcast = Some(BcastDesign::Data);
        let mut uncore = Uncore::new(&c, 1);
        let mut m = CoreMemory::new(0, c, 1.7);
        m.warm(&mut uncore, 0, 64, WarmLevel::L1);
        let class = LoadClass::Broadcast { elem_zero: false, line_zero_mask: 0 };
        let first = m.load(&mut uncore, 0, 0.0, class);
        assert!(first.used_l1_port); // miss fills B$
        let second = m.load(&mut uncore, 4, 10.0, class);
        assert!(!second.used_l1_port);
        assert!(second.bcast_hit);
    }

    #[test]
    fn bcast_mask_design_only_skips_zeroes() {
        let mut c = cfg();
        c.bcast = Some(BcastDesign::Masks);
        let mut uncore = Uncore::new(&c, 1);
        let mut m = CoreMemory::new(0, c, 1.7);
        m.warm(&mut uncore, 0, 64, WarmLevel::L1);
        let mask = 0b0000_0000_0000_0001u16; // element 0 is zero
        let miss = m.load(
            &mut uncore,
            0,
            0.0,
            LoadClass::Broadcast { elem_zero: true, line_zero_mask: mask },
        );
        assert!(miss.used_l1_port);
        let zero_hit = m.load(
            &mut uncore,
            0,
            1.0,
            LoadClass::Broadcast { elem_zero: true, line_zero_mask: mask },
        );
        assert!(!zero_hit.used_l1_port);
        let nonzero_hit = m.load(
            &mut uncore,
            4,
            2.0,
            LoadClass::Broadcast { elem_zero: false, line_zero_mask: mask },
        );
        assert!(nonzero_hit.used_l1_port);
        assert!(nonzero_hit.bcast_hit);
    }

    #[test]
    fn prefetcher_hides_stream_latency() {
        let mut c = cfg();
        c.prefetch_degree = 8;
        let mut uncore = Uncore::new(&c, 1);
        let mut m = CoreMemory::new(0, c, 1.7);
        // Stream 64 sequential lines; later lines should be L2 hits or
        // in-flight waits far cheaper than DRAM.
        let mut total_late = 0.0;
        for i in 0..64u64 {
            let now = i as f64 * 100.0;
            let r = m.load(&mut uncore, i * 64, now, LoadClass::Vector);
            if i >= 8 {
                total_late += r.latency_ns;
            }
        }
        let avg = total_late / 56.0;
        assert!(avg < 40.0, "prefetched stream should be cheap, avg={avg}");
        assert!(m.stats().prefetches > 30);
    }

    #[test]
    fn symmetric_uncore_shares_bandwidth() {
        let c = cfg();
        let mut u1 = Uncore::new(&c, 1);
        let mut u28 = Uncore::new_symmetric(&c, 28);
        // Stream many lines; the shared-mode finish time must be much later.
        let mut d1: f64 = 0.0;
        let mut d28: f64 = 0.0;
        for l in 0..2000u64 {
            d1 = d1.max(u1.access(0, l, 0.0, false));
            d28 = d28.max(u28.access(0, l + 1_000_000, 0.0, false));
        }
        assert!(d28 > d1 * 10.0, "d1={d1} d28={d28}");
    }
}
