//! The benchmark's metric table: names, units, directions and regression
//! bounds. `BENCHMARK.json` at the repository root mirrors it (a self-test
//! keeps the two in sync).

use serde::{Deserialize, Serialize};

/// Which direction of a metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Larger is better (throughput, hit rates).
    Higher,
    /// Smaller is better (latency, time, memory, work).
    Lower,
}

impl Better {
    /// `"higher"` or `"lower"`.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// An end-to-end metric, measured with tracing off.
#[derive(Clone, Copy, Debug)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen before a
    /// change counts as a regression.
    pub bound: f64,
    /// Absolute worsening below which a change never counts as a
    /// regression (set-up time is short enough for jitter to dominate).
    pub abs_floor: f64,
}

/// The end-to-end metrics every workload reports.
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "sim_kcyc_per_s",
        unit: "kcyc/s",
        better: Better::Higher,
        bound: 0.25,
        abs_floor: 0.0,
    },
    EndToEnd {
        name: "cells_per_s",
        unit: "cells/s",
        better: Better::Higher,
        bound: 0.25,
        abs_floor: 0.0,
    },
    EndToEnd {
        name: "cell_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.0,
    },
    EndToEnd {
        name: "cell_p90_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.0,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.05,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        abs_floor: 0.0,
    },
];

/// Failed operations over attempted ones. It is 0 on a healthy commit, so it
/// travels in the result's `attempted`/`failed` fields rather than as a
/// metric; `compare` treats any rise as a regression.
pub const FAIL_FRAC: EndToEnd = EndToEnd {
    name: "fail_frac",
    unit: "frac",
    better: Better::Lower,
    bound: 0.0,
    abs_floor: 0.0,
};

/// A per-layer metric, measured on the traced passes. Each is reported for
/// every workload; a layer the workload does not reach, or a quantity not
/// visible from outside the crates on it, reads 0.
#[derive(Clone, Copy, Debug)]
pub struct Layer {
    /// Metric name, `layer.what`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Layer {
    Layer { name, unit, better }
}

use Better::{Higher, Lower};

/// Per-layer metrics. Times are totals per traced pass.
pub const PER_LAYER: [Layer; 45] = [
    layer("core.run_ms", "ms", Lower),
    layer("core.steps", "count", Lower),
    layer("core.step_ns", "ns", Lower),
    layer("core.ns_per_cycle", "ns/cycle", Lower),
    layer("core.ff_jumps", "count", Higher),
    layer("core.ff_cycle_frac", "frac", Higher),
    layer("core.sim_cycles", "count", Lower),
    layer("core.uops", "count", Lower),
    layer("core.vpu_ops", "count", Lower),
    layer("mem.warm_ms", "ms", Lower),
    layer("mem.uncore_ms", "ms", Lower),
    layer("mem.uncore_calls", "count", Lower),
    layer("mem.uncore_ns_per_call", "ns", Lower),
    layer("mem.loads", "count", Lower),
    layer("mem.prefetches", "count", Lower),
    layer("mem.l1_hit_frac", "frac", Higher),
    layer("mem.l2_hit_frac", "frac", Higher),
    layer("mem.l3_hit_frac", "frac", Higher),
    layer("mem.dram_fills", "count", Lower),
    layer("mem.dram_max_queue", "count", Lower),
    layer("mem.mshr_conflicts", "count", Lower),
    layer("mem.max_link_flits", "count", Lower),
    layer("kernels.build_ms", "ms", Lower),
    layer("kernels.verify_ms", "ms", Lower),
    layer("kernels.build_frac", "frac", Lower),
    layer("kernels.builds", "count", Lower),
    layer("sim.trace_hit_frac", "frac", Higher),
    layer("sim.memo_hit_frac", "frac", Higher),
    layer("sim.record_ms", "ms", Lower),
    layer("sim.replay_ms", "ms", Lower),
    layer("sim.record_ns_per_cycle", "ns/cycle", Lower),
    layer("sim.replay_ns_per_cycle", "ns/cycle", Lower),
    layer("sim.lockstep_ms", "ms", Lower),
    layer("sim.relaxed_ms", "ms", Lower),
    layer("sim.relaxed_speedup", "x", Higher),
    layer("serve.hit_p50_ms", "ms", Lower),
    layer("serve.miss_p50_ms", "ms", Lower),
    layer("serve.first_result_ms", "ms", Lower),
    layer("serve.cached_frac", "frac", Higher),
    layer("serve.rejected", "count", Lower),
    layer("serve.respawned", "count", Lower),
    layer("serve.journal_records", "count", Lower),
    layer("bench.trace_overhead_frac", "frac", Lower),
    layer("bench.attributed_frac", "frac", Higher),
    layer("bench.attributed_min_frac", "frac", Higher),
];

/// One reported metric with its quartiles and sample count.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Value {
    /// Metric name.
    pub name: String,
    /// Unit.
    pub unit: String,
    /// The run's value (for timings, from each cell's best time over the
    /// run's passes; otherwise the median over passes or set-up runs).
    pub value: f64,
    /// First quartile of the same quantity computed pass by pass.
    pub q1: f64,
    /// Third quartile of the same quantity computed pass by pass.
    pub q3: f64,
    /// Samples behind `value`: passes, cells for latencies, or set-up runs.
    pub n: u64,
}

/// Looks up an end-to-end metric (or `fail_frac`) by name.
pub fn end_to_end(name: &str) -> Option<EndToEnd> {
    END_TO_END
        .iter()
        .chain([&FAIL_FRAC])
        .find(|m| m.name == name)
        .copied()
}

/// Unit and improvement direction of any metric, by name.
pub fn describe(name: &str) -> Option<(&'static str, Better)> {
    let e2e = END_TO_END.iter().map(|m| (m.name, m.unit, m.better));
    let layers = PER_LAYER.iter().map(|m| (m.name, m.unit, m.better));
    e2e.chain(layers)
        .find(|(n, _, _)| *n == name)
        .map(|(_, u, b)| (u, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Deserialize)]
    struct Metric {
        name: String,
        unit: String,
        better: String,
        #[serde(default)]
        bound: Option<f64>,
    }

    #[derive(Deserialize)]
    struct Workload {
        name: String,
    }

    #[derive(Deserialize)]
    struct Descriptor {
        command: Vec<String>,
        paths: Vec<String>,
        run_seconds: u64,
        workloads: Vec<Workload>,
        end_to_end: Vec<Metric>,
        per_layer: Vec<Metric>,
    }

    fn descriptor() -> Descriptor {
        serde_json::from_str(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses")
    }

    #[test]
    fn descriptor_matches_the_metric_table() {
        let d = descriptor();
        assert_eq!(d.paths, ["benchmark"]);
        assert!(d.command.iter().any(|a| a == "benchmark/Cargo.toml"));
        assert_eq!(d.run_seconds, crate::RUN_SECONDS);
        let names: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        let listed: Vec<&str> = d.workloads.iter().map(|w| w.name.as_str()).collect();
        assert_eq!(listed, names);
        assert_eq!(d.end_to_end.len(), END_TO_END.len());
        for (m, want) in d.end_to_end.iter().zip(END_TO_END) {
            assert_eq!((m.name.as_str(), m.unit.as_str()), (want.name, want.unit));
            assert_eq!(m.better, want.better.as_str(), "{}", m.name);
            assert_eq!(m.bound, Some(want.bound), "{}", m.name);
        }
        assert_eq!(d.per_layer.len(), PER_LAYER.len());
        for (m, want) in d.per_layer.iter().zip(PER_LAYER) {
            assert_eq!((m.name.as_str(), m.unit.as_str()), (want.name, want.unit));
            assert_eq!(m.better, want.better.as_str(), "{}", m.name);
        }
    }

    #[test]
    fn set_up_time_has_the_largest_bound() {
        let setup = end_to_end("setup_s").expect("setup_s");
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound <= setup.bound && m.bound <= 0.25));
    }
}
