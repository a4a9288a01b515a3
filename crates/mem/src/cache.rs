//! Generic set-associative cache with pluggable replacement.
//!
//! Timing-only: the cache tracks tags and replacement state; data values live
//! in the functional `save_isa::Memory` arena. Table I uses LRU for L1/L2 and
//! SRRIP for the L3.

use serde::{Deserialize, Serialize};

/// Replacement policy selector.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Serialize, Deserialize)]
pub enum Replacement {
    /// Least-recently-used (exact, per-set recency stack).
    Lru,
    /// Static re-reference interval prediction with 2-bit RRPVs
    /// (insert at RRPV 2, promote to 0 on hit, victimize RRPV 3).
    Srrip,
}

/// Geometry and policy of one cache.
#[derive(Clone, Copy, PartialEq, Debug, Serialize, Deserialize)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: u64,
    /// Associativity (ways per set).
    pub ways: usize,
    /// Replacement policy.
    pub replacement: Replacement,
}

impl CacheConfig {
    /// Number of sets implied by capacity, ways and the 64-byte line size.
    ///
    /// # Panics
    /// Panics if the geometry does not yield at least one set.
    pub fn sets(&self) -> usize {
        let lines = self.capacity_bytes / crate::LINE_BYTES;
        let sets = lines as usize / self.ways;
        assert!(sets > 0, "cache too small for its associativity");
        sets
    }
}

/// Hit/miss/eviction counters.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Demand accesses that hit.
    pub hits: u64,
    /// Demand accesses that missed.
    pub misses: u64,
    /// Lines evicted to make room for fills.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; 0 when no accesses were made.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[derive(Clone, Debug)]
struct Way {
    tag: u64,
    valid: bool,
    /// LRU timestamp or SRRIP RRPV depending on policy.
    state: u64,
}

/// A set-associative, tag-only cache.
///
/// ```
/// use save_mem::{Cache, CacheConfig, Replacement};
/// let mut c = Cache::new(CacheConfig {
///     capacity_bytes: 4096,
///     ways: 4,
///     replacement: Replacement::Lru,
/// });
/// assert!(!c.access(0));     // cold miss
/// c.fill(0);
/// assert!(c.access(0));      // now hits
/// ```
#[derive(Clone, Debug)]
pub struct Cache {
    cfg: CacheConfig,
    sets: usize,
    ways: Vec<Way>,
    tick: u64,
    stats: CacheStats,
}

impl Cache {
    /// Creates an empty cache with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        Cache {
            cfg,
            sets,
            ways: vec![Way { tag: 0, valid: false, state: 0 }; sets * cfg.ways],
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    fn set_of(&self, line: u64) -> usize {
        (line % self.sets as u64) as usize
    }

    fn set_slice(&mut self, set: usize) -> &mut [Way] {
        let w = self.cfg.ways;
        &mut self.ways[set * w..(set + 1) * w]
    }

    /// Probes for `line` (a *line* address, not a byte address), updating
    /// replacement state and counters. Returns `true` on hit.
    pub fn access(&mut self, line: u64) -> bool {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(line);
        let policy = self.cfg.replacement;
        let ways = self.set_slice(set);
        for w in ways.iter_mut() {
            if w.valid && w.tag == line {
                w.state = match policy {
                    Replacement::Lru => tick,
                    Replacement::Srrip => 0,
                };
                self.stats.hits += 1;
                return true;
            }
        }
        self.stats.misses += 1;
        false
    }

    /// Probes for `line` without perturbing replacement state or counters.
    pub fn contains(&self, line: u64) -> bool {
        let set = self.set_of(line);
        let w = self.cfg.ways;
        self.ways[set * w..(set + 1) * w].iter().any(|x| x.valid && x.tag == line)
    }

    /// Installs `line`, evicting a victim if the set is full. Returns the
    /// evicted line address, if any. Filling a line that is already present
    /// refreshes it and evicts nothing.
    pub fn fill(&mut self, line: u64) -> Option<u64> {
        self.tick += 1;
        let tick = self.tick;
        let set = self.set_of(line);
        let policy = self.cfg.replacement;
        let ways = self.set_slice(set);
        // Already present: refresh.
        for w in ways.iter_mut() {
            if w.valid && w.tag == line {
                w.state = match policy {
                    Replacement::Lru => tick,
                    Replacement::Srrip => 0,
                };
                return None;
            }
        }
        // Free way?
        if let Some(w) = ways.iter_mut().find(|w| !w.valid) {
            *w = Way {
                tag: line,
                valid: true,
                state: match policy {
                    Replacement::Lru => tick,
                    Replacement::Srrip => 2,
                },
            };
            return None;
        }
        // Victimize.
        let victim_idx = match policy {
            Replacement::Lru => {
                let mut best = 0;
                for (i, w) in ways.iter().enumerate() {
                    if w.state < ways[best].state {
                        best = i;
                    }
                }
                best
            }
            Replacement::Srrip => loop {
                if let Some((i, _)) = ways.iter().enumerate().find(|(_, w)| w.state >= 3) {
                    break i;
                }
                for w in ways.iter_mut() {
                    w.state += 1;
                }
            },
        };
        let evicted = ways[victim_idx].tag;
        ways[victim_idx] = Way {
            tag: line,
            valid: true,
            state: match policy {
                Replacement::Lru => tick,
                Replacement::Srrip => 2,
            },
        };
        self.stats.evictions += 1;
        Some(evicted)
    }

    /// Removes `line` if present (back-invalidation from an inclusive outer
    /// level). Returns `true` if the line was present.
    pub fn invalidate(&mut self, line: u64) -> bool {
        let set = self.set_of(line);
        let w = self.cfg.ways;
        for way in &mut self.ways[set * w..(set + 1) * w] {
            if way.valid && way.tag == line {
                way.valid = false;
                return true;
            }
        }
        false
    }

    /// Invalidates everything (between kernel runs).
    pub fn flush(&mut self) {
        for w in &mut self.ways {
            w.valid = false;
        }
    }

    /// Number of valid lines currently resident.
    pub fn resident_lines(&self) -> usize {
        self.ways.iter().filter(|w| w.valid).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(replacement: Replacement) -> Cache {
        Cache::new(CacheConfig { capacity_bytes: 4 * 64, ways: 4, replacement })
        // 1 set, 4 ways.
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = small(Replacement::Lru);
        assert!(!c.access(7));
        c.fill(7);
        assert!(c.access(7));
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = small(Replacement::Lru);
        for l in 0..4 {
            c.fill(l);
        }
        // Touch 0 so 1 becomes LRU.
        c.access(0);
        let evicted = c.fill(100).unwrap();
        assert_eq!(evicted, 1);
        assert!(c.contains(0));
        assert!(c.contains(100));
    }

    #[test]
    fn srrip_promotes_on_hit() {
        let mut c = small(Replacement::Srrip);
        for l in 0..4 {
            c.fill(l);
        }
        c.access(2); // RRPV -> 0
        // Fill forces aging: victims are among RRPV-3 lines, never line 2.
        let e1 = c.fill(10).unwrap();
        assert_ne!(e1, 2);
        assert!(c.contains(2));
    }

    #[test]
    fn refill_same_line_evicts_nothing() {
        let mut c = small(Replacement::Lru);
        c.fill(5);
        assert_eq!(c.fill(5), None);
        assert_eq!(c.stats().evictions, 0);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = small(Replacement::Lru);
        c.fill(9);
        assert!(c.invalidate(9));
        assert!(!c.invalidate(9));
        assert!(!c.contains(9));
    }

    #[test]
    fn sets_are_independent() {
        // 2 sets x 2 ways.
        let mut c = Cache::new(CacheConfig {
            capacity_bytes: 4 * 64,
            ways: 2,
            replacement: Replacement::Lru,
        });
        // Lines 0,2,4 map to set 0; lines 1,3 to set 1.
        c.fill(0);
        c.fill(2);
        c.fill(1);
        let evicted = c.fill(4).unwrap(); // set 0 overflow
        assert_eq!(evicted, 0);
        assert!(c.contains(1)); // set 1 untouched
    }

    #[test]
    fn srrip_is_scan_resistant() {
        // A hot line promoted to RRPV 0 survives a long streaming scan that
        // would evict it under LRU — the reason Table I uses SRRIP at L3.
        let mut srrip = Cache::new(CacheConfig {
            capacity_bytes: 8 * 64,
            ways: 8,
            replacement: Replacement::Srrip,
        });
        let mut lru = Cache::new(CacheConfig {
            capacity_bytes: 8 * 64,
            ways: 8,
            replacement: Replacement::Lru,
        });
        for c in [&mut srrip, &mut lru] {
            c.fill(1000);
            // Re-touch to promote.
            c.access(1000);
            c.access(1000);
        }
        // Stream 12 one-touch lines through the single set: enough to turn
        // the whole set over under LRU, but only one SRRIP aging round.
        for l in 0..12 {
            srrip.fill(l);
            lru.fill(l);
        }
        assert!(srrip.contains(1000), "SRRIP must keep the re-referenced line");
        assert!(!lru.contains(1000), "LRU evicts it under the scan");
    }

    #[test]
    fn srrip_aging_eventually_evicts_stale_lines() {
        let mut c = Cache::new(CacheConfig {
            capacity_bytes: 4 * 64,
            ways: 4,
            replacement: Replacement::Srrip,
        });
        c.fill(99);
        c.access(99); // RRPV 0
        // Enough distinct fills age even an RRPV-0 line out.
        for l in 0..64 {
            c.fill(l);
        }
        assert!(!c.contains(99), "stale lines must age out eventually");
    }

    #[test]
    fn hit_rate_computation() {
        let mut c = small(Replacement::Lru);
        c.fill(1);
        c.access(1);
        c.access(2);
        assert!((c.stats().hit_rate() - 0.5).abs() < 1e-12);
        assert_eq!(CacheStats::default().hit_rate(), 0.0);
    }

    #[test]
    fn flush_clears_everything() {
        let mut c = small(Replacement::Lru);
        for l in 0..4 {
            c.fill(l);
        }
        assert_eq!(c.resident_lines(), 4);
        c.flush();
        assert_eq!(c.resident_lines(), 0);
    }
}
