//! Reusable functional kernel traces — "execute once, time many"
//! (DESIGN.md §5h).
//!
//! A [`KernelTrace`] captures everything *functional* about a kernel run:
//! the generated instruction stream, the region map used for cache warm-up,
//! and one [`save_core::FuncTrace`] per simulated core (per-VFMA effectual
//! lane masks, per-load broadcast facts, per-line zero masks). Those facts
//! are decided entirely by `(workload, seed)` — never by the timing
//! configuration — so one trace recorded under any operating point can be
//! *replayed* under every other, skipping codegen, operand generation and
//! all FMA arithmetic while reproducing cycles and [`save_core::CoreStats`]
//! bit-for-bit (the purity canary in `crates/sim/tests/replay_canary.rs`).
//!
//! Traces are content-addressed by [`trace_key`]: an FNV-1a hash over the
//! workload's canonical JSON, the machine *shape* (mode and core count —
//! the parts that change how many functional cores exist), and the data
//! seed. Timing-only knobs (core configuration, memory latencies, the
//! verify flag) are deliberately excluded, which is exactly what lets N
//! timing configurations share one recording. [`crate::CellSpec::cache_key`]
//! splits along the same line: `hash(trace_key ‖ timing_key)`.
//!
//! Recording is free of observer effects: the recorder hooks MGU, LSU and
//! issue activity, none of which occurs in fast-forwarded inert cycles, so
//! a recording run is bit-identical to a direct run and doubles as one of
//! the timed cells ("record-and-use"). A recording run always verifies the
//! kernel's numerical output against the reference before the trace is
//! admitted to a [`TraceStore`] — a trace that will stand in for N runs
//! must be known-good — and traces the recorder poisoned (e.g. a store
//! overlapping a broadcast-cache line) are never stored, so those cells
//! simply fall back to direct execution.

use crate::error::SimError;
use crate::runner::MachineConfig;
use save_core::FuncTrace;
use save_isa::Program;
use save_kernels::{GemmWorkload, Region};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The functional record of one simulated core's kernel run.
#[derive(Clone, Debug)]
pub struct CoreTrace {
    /// The generated instruction stream (replay skips codegen).
    pub program: Program,
    /// Region map for cache warm-up (replay skips operand generation, so
    /// the warm-up policy runs from the recorded layout).
    pub regions: Vec<Region>,
    /// Per-VFMA and per-load functional facts served back during replay.
    pub func: Arc<FuncTrace>,
}

/// A complete, verified functional trace of one kernel cell: one
/// [`CoreTrace`] per simulated core (one in symmetric mode, N in detailed
/// mode).
#[derive(Clone, Debug)]
pub struct KernelTrace {
    /// Per-core traces, indexed by core id.
    pub cores: Vec<CoreTrace>,
}

/// Content address of the functional work shared by every timing
/// configuration of a cell: workload (shape, sparsity — but *not* the
/// display name, which is a label rather than functional content, so two
/// identically-shaped layers under different names share one trace),
/// machine *shape* (mode + core count), and data seed. Timing-only
/// configuration — the core operating point, memory latencies, the verify
/// flag — is excluded by design.
///
/// # Errors
/// [`SimError::Protocol`] if the workload fails to serialize (it never
/// does for well-formed specs).
pub fn trace_key(w: &GemmWorkload, machine: &MachineConfig, seed: u64) -> Result<u64, SimError> {
    let mut anon = w.clone();
    anon.name.clear();
    let wj = serde_json::to_string(&anon)
        .map_err(|e| SimError::Protocol { what: format!("serialize workload: {e}") })?;
    let text = format!("trace|{wj}|{:?}/{}|{seed}", machine.mode, machine.cores);
    Ok(crate::spec::fnv1a(text.as_bytes()))
}

/// An in-memory, thread-safe store of recorded traces, keyed by
/// [`trace_key`]. The first cell to run for a key records; every later
/// cell replays. Lookups and hits are counted so sweeps can report their
/// trace-reuse rate.
///
/// The store also memoizes *full cell results* by
/// [`crate::CellSpec::cache_key`]: two cells with identical trace **and**
/// timing keys are the same deterministic simulation, so the second can
/// return the first's [`crate::KernelResult`] without entering the core at
/// all. (Sweeps such as `fig16` genuinely submit such duplicates — e.g.
/// one shared baseline per VPU-count panel.)
///
/// Traces can be large (one `FuncTrace` per core); an optional FIFO
/// capacity bounds how many are held at once. Result memos are a few
/// machine words each and are never evicted.
#[derive(Debug, Default)]
pub struct TraceStore {
    traces: Mutex<Traces>,
    results: Mutex<HashMap<u64, crate::runner::KernelResult>>,
    lookups: AtomicU64,
    hits: AtomicU64,
    result_lookups: AtomicU64,
    result_hits: AtomicU64,
}

/// Trace map plus FIFO admission order (capacity 0 = unbounded).
#[derive(Debug, Default)]
struct Traces {
    map: HashMap<u64, Arc<KernelTrace>>,
    order: std::collections::VecDeque<u64>,
    capacity: usize,
}

impl TraceStore {
    /// Creates an empty, unbounded store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty store holding at most `capacity` traces, evicting
    /// the oldest recording first. Result memos are not bounded.
    pub fn with_capacity(capacity: usize) -> Self {
        let s = Self::default();
        s.traces.lock().expect("trace store poisoned").capacity = capacity;
        s
    }

    /// Fetches the trace for `key`, if one was recorded.
    pub fn get(&self, key: u64) -> Option<Arc<KernelTrace>> {
        self.lookups.fetch_add(1, Ordering::Relaxed);
        let found = self.traces.lock().expect("trace store poisoned").map.get(&key).cloned();
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Admits a recorded trace. The caller guarantees every per-core
    /// [`FuncTrace`] is replayable and the run verified against the
    /// numerical reference.
    pub fn insert(&self, key: u64, trace: KernelTrace) {
        let mut t = self.traces.lock().expect("trace store poisoned");
        if t.map.insert(key, Arc::new(trace)).is_none() {
            t.order.push_back(key);
            if t.capacity != 0 && t.order.len() > t.capacity {
                if let Some(old) = t.order.pop_front() {
                    t.map.remove(&old);
                }
            }
        }
    }

    /// Fetches the memoized result for a cell `cache_key`, if an identical
    /// cell already ran to completion.
    pub fn result(&self, cache_key: u64) -> Option<crate::runner::KernelResult> {
        self.result_lookups.fetch_add(1, Ordering::Relaxed);
        let found =
            self.results.lock().expect("trace store poisoned").get(&cache_key).copied();
        if found.is_some() {
            self.result_hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Memoizes a completed cell result under its `cache_key`.
    pub fn record_result(&self, cache_key: u64, result: crate::runner::KernelResult) {
        self.results.lock().expect("trace store poisoned").insert(cache_key, result);
    }

    /// Number of [`TraceStore::get`] calls so far.
    pub fn lookups(&self) -> u64 {
        self.lookups.load(Ordering::Relaxed)
    }

    /// Number of lookups that found a trace.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of [`TraceStore::result`] calls so far.
    pub fn result_lookups(&self) -> u64 {
        self.result_lookups.load(Ordering::Relaxed)
    }

    /// Number of result lookups served from the memo.
    pub fn result_hits(&self) -> u64 {
        self.result_hits.load(Ordering::Relaxed)
    }
}

/// How a kernel run interacts with the trace machinery (crate-internal:
/// the public entry point is [`crate::CellSpec::run_traced`]).
pub(crate) enum TraceMode<'a> {
    /// Record a functional trace and admit it to the store on success.
    Record {
        /// Destination store.
        store: &'a TraceStore,
        /// Content address to file the trace under.
        key: u64,
    },
    /// Replay a previously recorded trace.
    Replay {
        /// The trace to serve functional facts from.
        trace: Arc<KernelTrace>,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::MachineMode;
    use save_kernels::{BroadcastPattern, GemmKernelSpec, Precision};

    fn tiny() -> GemmWorkload {
        GemmWorkload::dense(
            "tk",
            GemmKernelSpec {
                m_tiles: 2,
                n_vecs: 2,
                pattern: BroadcastPattern::Explicit,
                precision: Precision::F32,
            },
            16,
            1,
        )
        .with_sparsity(0.5, 0.5)
    }

    #[test]
    fn trace_key_ignores_timing_but_not_function() {
        let m = MachineConfig::default();
        let k = trace_key(&tiny(), &m, 7).unwrap();
        // Timing-only change: memory latency config is not part of the key.
        let mut m2 = m;
        m2.mem.l3_ns += 10.0;
        assert_eq!(k, trace_key(&tiny(), &m2, 7).unwrap(), "mem timing must not re-key");
        // Functional changes re-key.
        assert_ne!(k, trace_key(&tiny(), &m, 8).unwrap(), "seed re-keys");
        assert_ne!(
            k,
            trace_key(&tiny().with_sparsity(0.5, 0.6), &m, 7).unwrap(),
            "sparsity re-keys"
        );
        let md = MachineConfig { mode: MachineMode::Detailed, ..m };
        assert_ne!(k, trace_key(&tiny(), &md, 7).unwrap(), "machine mode re-keys");
    }

    #[test]
    fn trace_key_ignores_display_name() {
        // VGG16's conv3_2 and conv3_3 (and friends) are the same shape
        // under different labels; they must share one trace.
        let m = MachineConfig::default();
        let mut renamed = tiny();
        renamed.name = "a different label".into();
        assert_eq!(
            trace_key(&tiny(), &m, 7).unwrap(),
            trace_key(&renamed, &m, 7).unwrap(),
            "the display name is not functional content"
        );
    }

    #[test]
    fn store_counts_lookups_and_hits() {
        let s = TraceStore::new();
        assert!(s.get(1).is_none());
        s.insert(1, KernelTrace { cores: Vec::new() });
        assert!(s.get(1).is_some());
        assert!(s.get(2).is_none());
        assert_eq!(s.lookups(), 3);
        assert_eq!(s.hits(), 1);
    }

    #[test]
    fn bounded_store_evicts_oldest_first() {
        let s = TraceStore::with_capacity(2);
        for k in 1..=3 {
            s.insert(k, KernelTrace { cores: Vec::new() });
        }
        assert!(s.get(1).is_none(), "oldest trace evicted at capacity");
        assert!(s.get(2).is_some());
        assert!(s.get(3).is_some());
        // Re-inserting an existing key must not double-count it in the
        // FIFO order (which would evict the wrong trace later).
        s.insert(2, KernelTrace { cores: Vec::new() });
        s.insert(4, KernelTrace { cores: Vec::new() });
        assert!(s.get(2).is_none(), "2 was oldest after 1's eviction");
        assert!(s.get(3).is_some());
        assert!(s.get(4).is_some());
    }

    #[test]
    fn result_memo_round_trips() {
        let s = TraceStore::new();
        assert!(s.result(9).is_none());
        let r = crate::runner::KernelResult {
            seconds: 1.5,
            cycles: 42,
            stats: Default::default(),
            verified: true,
            completed: true,
        };
        s.record_result(9, r);
        let back = s.result(9).expect("memoized");
        assert_eq!(back.cycles, 42);
        assert_eq!(s.result_lookups(), 2);
        assert_eq!(s.result_hits(), 1);
    }
}
