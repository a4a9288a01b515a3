//! DRAM bandwidth/latency model.
//!
//! Table I: 119.2 GB/s peak bandwidth over 6 channels at 50 ns idle latency.
//! Each channel serializes line transfers: a 64-byte fill occupies its
//! channel for `64 / (BW / channels)` ns, and requests queue behind the
//! channel's next-free time. This token-bucket-per-channel model captures
//! exactly what the paper needs — kernels become memory-bound when SAVE's
//! compute reduction pushes demand past the bandwidth roof (§VII-A, GNMT).

use serde::{Deserialize, Serialize};

/// DRAM configuration.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct DramConfig {
    /// Aggregate peak bandwidth in GB/s.
    pub bandwidth_gbps: f64,
    /// Number of independent channels (line-interleaved).
    pub channels: usize,
    /// Idle (unloaded) access latency in ns.
    pub latency_ns: f64,
}

impl Default for DramConfig {
    fn default() -> Self {
        DramConfig { bandwidth_gbps: 119.2, channels: 6, latency_ns: 50.0 }
    }
}

/// Counters for DRAM traffic.
#[derive(Clone, Copy, Default, Debug, Serialize, Deserialize)]
pub struct DramStats {
    /// Demand line fills served.
    pub demand_fills: u64,
    /// Prefetch line fills served.
    pub prefetch_fills: u64,
    /// Total queueing delay observed by demand fills, in ns.
    pub demand_queue_ns: f64,
    /// Deepest per-channel queue (in whole line-transfers waiting ahead of a
    /// request at its arrival) observed so far — the many-core contention
    /// signal that is invisible at small core counts.
    #[serde(default)]
    pub max_queue_depth: u64,
    /// Sum of per-request queue depths at arrival (demand + prefetch), for
    /// a mean-depth report alongside the max.
    #[serde(default)]
    pub queue_depth_sum: u64,
    /// Requests sampled into `queue_depth_sum`.
    #[serde(default)]
    pub queue_samples: u64,
}

/// The DRAM model.
///
/// ```
/// use save_mem::{Dram, DramConfig};
/// let mut d = Dram::new(DramConfig::default());
/// let t = d.access_line(0, 0.0, false);
/// assert!(t >= 50.0); // at least the idle latency
/// ```
#[derive(Clone, Debug)]
pub struct Dram {
    cfg: DramConfig,
    /// Per-channel next-free time in ns.
    next_free: Vec<f64>,
    /// Service time of one 64-byte line on one channel, in ns.
    line_service_ns: f64,
    stats: DramStats,
}

impl Dram {
    /// Creates an idle DRAM.
    ///
    /// # Panics
    /// Panics if the configuration has zero channels or non-positive
    /// bandwidth.
    pub fn new(cfg: DramConfig) -> Self {
        assert!(cfg.channels > 0 && cfg.bandwidth_gbps > 0.0, "invalid DRAM config");
        let per_channel_gbps = cfg.bandwidth_gbps / cfg.channels as f64;
        // GB/s == bytes/ns.
        let line_service_ns = crate::LINE_BYTES as f64 / per_channel_gbps;
        Dram { cfg, next_free: vec![0.0; cfg.channels], line_service_ns, stats: DramStats::default() }
    }

    /// Traffic counters.
    pub fn stats(&self) -> DramStats {
        self.stats
    }

    /// Requests the line containing `line_addr` at time `now_ns`; returns
    /// the completion time in ns. `prefetch` only affects accounting.
    pub fn access_line(&mut self, line_addr: u64, now_ns: f64, prefetch: bool) -> f64 {
        let ch = (line_addr % self.cfg.channels as u64) as usize;
        let start = self.next_free[ch].max(now_ns);
        // Queue depth at arrival: whole line-transfers already committed to
        // this channel that the new request waits behind.
        let depth = ((self.next_free[ch] - now_ns).max(0.0) / self.line_service_ns) as u64;
        self.stats.max_queue_depth = self.stats.max_queue_depth.max(depth);
        self.stats.queue_depth_sum += depth;
        self.stats.queue_samples += 1;
        self.next_free[ch] = start + self.line_service_ns;
        let done = start + self.cfg.latency_ns;
        if prefetch {
            self.stats.prefetch_fills += 1;
        } else {
            self.stats.demand_fills += 1;
            self.stats.demand_queue_ns += start - now_ns;
        }
        done
    }

    /// Resets queue state and counters (between kernel runs).
    pub fn reset(&mut self) {
        self.next_free.iter_mut().for_each(|t| *t = 0.0);
        self.stats = DramStats::default();
    }

    /// Scales effective per-request bandwidth by `1/share` — used by the
    /// symmetric machine mode where one simulated core stands for `share`
    /// identical cores contending for the same channels.
    pub fn set_bandwidth_share(&mut self, share: usize) {
        assert!(share > 0, "share must be positive");
        let per_channel_gbps = self.cfg.bandwidth_gbps / self.cfg.channels as f64 / share as f64;
        self.line_service_ns = crate::LINE_BYTES as f64 / per_channel_gbps;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unloaded_latency() {
        let mut d = Dram::new(DramConfig::default());
        assert_eq!(d.access_line(0, 100.0, false), 150.0);
    }

    #[test]
    fn same_channel_queues() {
        let mut d = Dram::new(DramConfig { bandwidth_gbps: 6.0, channels: 6, latency_ns: 50.0 });
        // 1 GB/s per channel -> 64 ns per line.
        let t1 = d.access_line(0, 0.0, false);
        let t2 = d.access_line(6, 0.0, false); // same channel (6 % 6 == 0)
        assert_eq!(t1, 50.0);
        assert_eq!(t2, 114.0); // queued 64 ns behind the first
    }

    #[test]
    fn different_channels_do_not_queue() {
        let mut d = Dram::new(DramConfig { bandwidth_gbps: 6.0, channels: 6, latency_ns: 50.0 });
        let t1 = d.access_line(0, 0.0, false);
        let t2 = d.access_line(1, 0.0, false);
        assert_eq!(t1, t2);
    }

    #[test]
    fn bandwidth_share_slows_service() {
        let mut d = Dram::new(DramConfig { bandwidth_gbps: 6.0, channels: 6, latency_ns: 0.0 });
        d.set_bandwidth_share(4);
        d.access_line(0, 0.0, false);
        let t2 = d.access_line(6, 0.0, false);
        assert_eq!(t2, 256.0); // 64 ns * 4
    }

    #[test]
    fn queue_depth_tracks_backlog() {
        let mut d = Dram::new(DramConfig { bandwidth_gbps: 6.0, channels: 6, latency_ns: 50.0 });
        // 64 ns per line per channel; three back-to-back requests to channel
        // 0 arrive at t=0 with 0, 1 and 2 transfers already queued.
        for _ in 0..3 {
            d.access_line(0, 0.0, false);
        }
        let s = d.stats();
        assert_eq!(s.max_queue_depth, 2);
        assert_eq!(s.queue_depth_sum, 3); // 0 + 1 + 2
        assert_eq!(s.queue_samples, 3);
    }

    #[test]
    fn stats_split_demand_and_prefetch() {
        let mut d = Dram::new(DramConfig::default());
        d.access_line(0, 0.0, false);
        d.access_line(1, 0.0, true);
        assert_eq!(d.stats().demand_fills, 1);
        assert_eq!(d.stats().prefetch_fills, 1);
    }

    #[test]
    fn sustained_bandwidth_matches_config() {
        // Stream 10_000 lines as fast as possible; completion time must
        // approach lines * 64B / BW.
        let mut d = Dram::new(DramConfig::default());
        let mut last = 0.0f64;
        for l in 0..10_000u64 {
            last = last.max(d.access_line(l, 0.0, false));
        }
        let ideal_ns = 10_000.0 * 64.0 / 119.2;
        assert!(last >= ideal_ns * 0.95 && last <= ideal_ns * 1.10 + 50.0, "last={last} ideal={ideal_ns}");
    }
}
