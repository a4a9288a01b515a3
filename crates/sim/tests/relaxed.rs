//! Relaxed-sync multicore equivalence and determinism suite (DESIGN.md §5i).
//!
//! Three guarantees pin the engine:
//!
//! 1. **Lockstep equivalence** — `mc.quantum == 1` is bit-identical to the
//!    pre-relaxed lockstep simulator for every operating point, with the
//!    Full sanitizer watching every cycle (the same pinned-oracle pattern
//!    the fast-forward work used).
//! 2. **Host-thread independence** — for ANY quantum, running the relaxed
//!    engine on 1, 2 or N host threads produces bit-identical seconds,
//!    cycles and stats (deterministic barrier reconciliation).
//! 3. **Bounded relaxation error** — large quanta may drift from lockstep
//!    timing, but only within the in-quantum error band; and the machinery
//!    around the engine (trace record/replay, contention reports) keeps
//!    working under it.

use proptest::prelude::*;
use save_core::{CoreConfig, SanitizeLevel};
use save_kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
use save_sim::runner::{
    run_kernel_full, ConfigKind, KernelResult, MachineConfig, MachineMode, MulticoreConfig,
};
use save_sim::{CellSpec, TraceStore};

fn tiny(name: &str) -> GemmWorkload {
    GemmWorkload::dense(
        name,
        GemmKernelSpec {
            m_tiles: 4,
            n_vecs: 2,
            pattern: BroadcastPattern::Explicit,
            precision: Precision::F32,
        },
        16,
        2,
    )
    .with_sparsity(0.3, 0.4)
}

fn machine(cores: usize, quantum: u64, threads: usize) -> MachineConfig {
    MachineConfig {
        cores,
        mode: MachineMode::Detailed,
        mc: MulticoreConfig { quantum, threads },
        ..Default::default()
    }
}

/// A verifying cell for an explicit core configuration.
fn verified(w: &GemmWorkload, cfg: CoreConfig, m: MachineConfig, seed: u64) -> CellSpec {
    CellSpec { verify: true, ..CellSpec::custom(w.clone(), cfg, m, seed) }
}

fn full_sanitized(kind: ConfigKind) -> CoreConfig {
    CoreConfig { sanitize: SanitizeLevel::Full, ..kind.core_config() }
}

/// Serializes a result to JSON so EVERY field (seconds bits via cycles,
/// stats counters, flags) participates in the bit-identity comparison.
fn digest(r: &KernelResult) -> String {
    format!("{}|{}", r.seconds.to_bits(), serde_json::to_string(r).expect("serialize result"))
}

/// Guarantee 1: `quantum == 1` (however many threads are requested) is the
/// lockstep engine, bit-for-bit, for every operating point under the Full
/// sanitizer.
#[test]
fn quantum_one_is_bit_identical_to_lockstep() {
    let w = tiny("q1-oracle");
    for kind in ConfigKind::ALL {
        let cfg = full_sanitized(kind);
        let lockstep = verified(&w, cfg, machine(4, 1, 0), 5).run(None).expect("lockstep");
        for threads in [1usize, 4, 9] {
            let relaxed =
                verified(&w, cfg, machine(4, 1, threads), 5).run(None).expect("quantum=1");
            assert_eq!(
                digest(&relaxed),
                digest(&lockstep),
                "kind {kind:?} threads {threads}"
            );
        }
    }
}

/// The Full sanitizer accepts relaxed-sync execution at large quanta for
/// every operating point (cores run the identical cycle loop, only the
/// uncore view changes).
#[test]
fn full_sanitizer_accepts_relaxed_execution() {
    let w = tiny("relaxed-sanitized");
    for kind in ConfigKind::ALL {
        let cfg = full_sanitized(kind);
        let r =
            verified(&w, cfg, machine(4, 300, 2), 13).run(None).expect("relaxed sanitized run");
        assert!(r.completed && r.verified, "kind {kind:?}");
    }
}

/// Trace record/replay (DESIGN.md §5h) composes with the relaxed engine:
/// the replayed cell is bit-identical to the recording cell.
#[test]
fn trace_replay_is_pure_under_relaxed() {
    let w = tiny("relaxed-trace");
    let m = machine(4, 250, 2);
    let spec = CellSpec::custom(w, ConfigKind::Save2Vpu.core_config(), m, 21);
    let direct = spec.run(None).expect("direct");
    let store = TraceStore::new();
    let recorded = spec.run_traced(None, &store).expect("record");
    // A store holding only the trace, so the cell replays instead of being
    // served from the first store's result memo.
    let key = spec.trace_key().expect("trace key");
    let replay_store = TraceStore::new();
    replay_store.insert(key, (*store.get(key).expect("recorded trace")).clone());
    let replayed = spec.run_traced(None, &replay_store).expect("replay");
    assert_eq!(replay_store.hits(), 1, "the second cell must replay the trace");
    assert_eq!(digest(&recorded), digest(&direct), "record-and-use must not drift");
    assert_eq!(digest(&replayed), digest(&direct), "replay must not drift");
}

/// The 28-core contention signals the lockstep 4-core machine could never
/// surface: per-link flits, DRAM queue depths and L3 traffic all appear in
/// the [`save_sim::KernelRun`] uncore report.
#[test]
fn contention_stats_surface_at_28_cores() {
    let w = GemmWorkload {
        b_panel_tiles: 1, // stream B: guarantees DRAM + NoC traffic
        ..tiny("mesh-28")
    };
    let run = run_kernel_full(&w, ConfigKind::Baseline, &machine(28, 500, 0), 3, false, None)
        .expect("28-core relaxed run");
    assert!(run.result.completed);
    let u = &run.uncore;
    assert!(u.l3_hits + u.l3_misses > 0, "no L3 traffic recorded");
    assert!(u.max_link_flits > 0, "detailed mesh must count link flits");
    assert!(u.mean_link_flits > 0.0);
    assert!(!u.hottest_links(4).is_empty());
    assert_eq!(u.mshr_conflicts.len(), 28, "one MSHR counter per slice");
    assert!(u.dram.queue_samples > 0, "DRAM queue depth must be sampled");
    // The report is part of the JSON surface for netreport/mesh binaries.
    let js = serde_json::to_string(u).expect("serialize uncore report");
    assert!(js.contains("link_flits") && js.contains("max_queue_depth"), "{js}");
}

#[derive(Debug, Clone)]
struct Cell {
    quantum: u64,
    cores: usize,
    seed: u64,
    kind: usize,
    a_sparsity: f64,
}

fn cell_strategy() -> impl Strategy<Value = Cell> {
    (2u64..1500, 1usize..6, 0u64..1000, 0usize..3, 0.0f64..0.9).prop_map(
        |(quantum, cores, seed, kind, a_sparsity)| Cell {
            quantum,
            cores,
            seed,
            kind,
            a_sparsity,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Guarantee 2: for random (quantum, cores, seed, operating point,
    /// sparsity), host thread counts 1, 2 and 5 produce bit-identical
    /// results.
    #[test]
    fn host_threads_never_change_results(c in cell_strategy()) {
        let w = tiny("relaxed-prop").with_sparsity(c.a_sparsity, 0.3);
        let kind = ConfigKind::ALL[c.kind];
        let cell =
            |threads| CellSpec::new(w.clone(), kind, machine(c.cores, c.quantum, threads), c.seed);
        let base = cell(1).run(None).expect("threads=1");
        for threads in [2usize, 5] {
            let r = cell(threads).run(None).expect("threads>1");
            prop_assert_eq!(&digest(&r), &digest(&base), "cell {:?} threads {}", c, threads);
        }
    }
}
