//! In-memory spans recorded by the benchmark around its calls into each
//! layer, and the self-time arithmetic the per-layer metrics rest on.
//!
//! A span's layer is the part of its name before the first `.`
//! (`core.run` belongs to `core`). Self time is the span's duration minus
//! the part of it its children cover. An *aggregate* child stands for many
//! short calls summed into one duration (per-access uncore time, which would
//! cost more to record as spans than it measures); it has no interval of its
//! own, so its parent subtracts its duration instead of its coverage.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// `layer.what`, e.g. `kernels.build`.
    pub name: &'static str,
    /// The cell (or serve job) the span belongs to.
    pub cell: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, in ns since the tracer's epoch.
    pub end_ns: u64,
    /// Summed duration of many calls rather than one interval.
    pub aggregate: bool,
    /// Counts recorded at this boundary.
    pub counters: Vec<(&'static str, f64)>,
}

impl Span {
    /// Duration in ns.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    /// A counter's value, 0 when absent.
    pub fn counter(&self, name: &str) -> f64 {
        self.counters
            .iter()
            .find(|(k, _)| *k == name)
            .map_or(0.0, |(_, v)| *v)
    }
}

/// Records spans in memory; written out once, when the run ends.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index.
    pub fn open(&mut self, name: &'static str, parent: Option<usize>, cell: u64) -> usize {
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            cell,
            parent,
            start_ns: now,
            end_ns: now,
            aggregate: false,
            counters: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Closes span `id` now.
    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Records a closed span with explicit bounds (timestamps taken by the
    /// caller, e.g. when a serve result arrived).
    pub fn record(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        cell: u64,
        start: Instant,
        end: Instant,
    ) -> usize {
        let ns = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        let (start_ns, end_ns) = (ns(start), ns(end));
        self.spans.push(Span {
            name,
            cell,
            parent,
            start_ns,
            end_ns,
            aggregate: false,
            counters: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Records an aggregate child of `parent` lasting `ns` in total.
    pub fn aggregate(&mut self, name: &'static str, parent: usize, ns: u64) -> usize {
        let (cell, start_ns) = (self.spans[parent].cell, self.spans[parent].start_ns);
        self.spans.push(Span {
            name,
            cell,
            parent: Some(parent),
            start_ns,
            end_ns: start_ns + ns,
            aggregate: true,
            counters: Vec::new(),
        });
        self.spans.len() - 1
    }

    /// Attaches a counter to span `id`.
    pub fn count(&mut self, id: usize, name: &'static str, value: f64) {
        self.spans[id].counters.push((name, value));
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes one JSON object per span to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, s) in self.spans.iter().enumerate() {
            let counters: Vec<String> = s
                .counters
                .iter()
                .map(|(k, v)| format!("\"{k}\":{}", json_num(*v)))
                .collect();
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"cell\":{},\"parent\":{},\"start_ns\":{},\"end_ns\":{},\"aggregate\":{},\"counters\":{{{}}}}}",
                s.name,
                s.cell,
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.start_ns,
                s.end_ns,
                s.aggregate,
                counters.join(",")
            )?;
        }
        out.flush()
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        v.to_string()
    } else {
        "null".to_string()
    }
}

/// Self time of every span, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            if s.aggregate {
                return s.dur_ns();
            }
            let summed: u64 = kids
                .iter()
                .filter(|&&k| spans[k].aggregate)
                .map(|&k| spans[k].dur_ns())
                .sum();
            let mut iv: Vec<(u64, u64)> = kids
                .iter()
                .filter(|&&k| !spans[k].aggregate)
                .map(|&k| {
                    let c = &spans[k];
                    (c.start_ns.max(s.start_ns), c.end_ns.min(s.end_ns))
                })
                .filter(|(a, b)| b > a)
                .collect();
            iv.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in iv {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.dur_ns().saturating_sub(covered).saturating_sub(summed)
        })
        .collect()
}

/// Summed self time (ns) of the spans named `name`.
pub fn self_ns_of(spans: &[Span], selfs: &[u64], name: &str) -> u64 {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, t)| *t)
        .sum()
}

/// Summed counter `counter` over the spans named `name`.
pub fn counter_sum(spans: &[Span], name: &str, counter: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.counter(counter))
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name,
            cell: 0,
            parent,
            start_ns,
            end_ns,
            aggregate: false,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_children_coverage_once() {
        let spans = vec![
            span("bench.cell", None, 0, 100),
            span("kernels.build", Some(0), 10, 30),
            // Overlapping siblings: 40..70 is covered once, not twice.
            span("core.run", Some(0), 40, 60),
            span("core.run", Some(0), 50, 70),
            // Clipped to the parent's end.
            span("kernels.verify", Some(0), 90, 120),
        ];
        let s = self_times(&spans);
        assert_eq!(s[0], 100 - 20 - 30 - 10);
        assert_eq!(&s[1..], &[20, 20, 20, 30]);
    }

    #[test]
    fn aggregate_children_subtract_their_duration() {
        let mut spans = vec![
            span("bench.cell", None, 0, 1000),
            span("core.run", Some(0), 100, 900),
        ];
        spans.push(Span {
            aggregate: true,
            ..span("mem.uncore", Some(1), 100, 250)
        });
        let s = self_times(&spans);
        assert_eq!(s, vec![200, 650, 150]);
        // Self times of a cell's spans partition its wall time exactly.
        assert_eq!(s.iter().sum::<u64>(), 1000);
        assert_eq!(self_ns_of(&spans, &s, "core.run"), 650);
    }

    #[test]
    fn tracer_nests_and_counts() {
        let mut t = Tracer::new();
        let root = t.open("bench.cell", None, 7);
        let run = t.open("core.run", Some(root), 7);
        t.count(run, "steps", 3.0);
        t.aggregate("mem.uncore", run, 5);
        t.close(run);
        t.close(root);
        let spans = t.spans();
        assert_eq!(spans[1].counter("steps"), 3.0);
        assert_eq!(spans[1].counter("absent"), 0.0);
        assert_eq!(counter_sum(spans, "core.run", "steps"), 3.0);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(spans[2].cell, 7);
    }
}
