//! The cancel poll attached with `Core::set_cancel` is pure: a poll that
//! never fires leaves a run bit-identical to one with no poll attached
//! (cycles, every `CoreStats` counter, the architectural registers and the
//! output matrix), fast-forward included; a poll that fires stops the run
//! as cancelled.

use save_core::{Core, CoreConfig, CoreStats, RunOutcome};
use save_kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
use save_mem::{CoreMemory, MemConfig, Uncore};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A sparse GEMM on cold memory: it runs many cancel quanta and its DRAM
/// misses leave inert cycles for fast-forward to jump over.
fn workload() -> GemmWorkload {
    GemmWorkload::dense(
        "cancel-poll",
        GemmKernelSpec {
            m_tiles: 4,
            n_vecs: 2,
            pattern: BroadcastPattern::Explicit,
            precision: Precision::F32,
        },
        256,
        16,
    )
    .with_sparsity(0.5, 0.3)
}

/// What a run leaves behind, as bits.
#[derive(Debug, PartialEq)]
struct Observed {
    completed: bool,
    cancelled: bool,
    stats: CoreStats,
    vregs: Vec<[u32; save_isa::LANES]>,
    output: Vec<u32>,
}

fn run(poll: Option<Box<dyn Fn() -> bool + Send>>) -> (RunOutcome, Observed) {
    let cfg = CoreConfig::save_2vpu();
    assert!(cfg.fast_forward, "the purity check must cover fast-forward jumps");
    let mut built = workload().build(11);
    let mcfg = MemConfig::default();
    let mut uncore = Uncore::new(&mcfg, 1);
    let mut cmem = CoreMemory::new(0, mcfg, cfg.freq_ghz);
    let mut core = Core::new(cfg);
    if let Some(poll) = poll {
        core.set_cancel(poll);
    }
    let out = core.run_mut(&built.program, &mut built.mem, &mut cmem, &mut uncore);
    let observed = Observed {
        completed: out.completed,
        cancelled: out.cancelled,
        stats: out.stats,
        vregs: core.arch_vregs().iter().map(|v| v.0.map(f32::to_bits)).collect(),
        output: (0..built.expected.len())
            .map(|i| built.mem.read_f32(built.c_base + 4 * i as u64).to_bits())
            .collect(),
    };
    (out, observed)
}

#[test]
fn a_poll_that_never_fires_is_bit_identical_to_no_poll() {
    let (plain_out, plain) = run(None);
    assert!(plain_out.completed);
    assert!(
        plain.stats.cycles > 4 * save_core::CANCEL_QUANTUM,
        "the run must span several quanta, got {} cycles",
        plain.stats.cycles
    );
    let polls = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&polls);
    let (_, polled) = run(Some(Box::new(move || {
        counter.fetch_add(1, Ordering::Relaxed);
        false
    })));
    // Quantum polls alone number cycles / quantum; more means the
    // fast-forward jumps were polled too.
    assert!(
        polls.load(Ordering::Relaxed) > plain.stats.cycles / save_core::CANCEL_QUANTUM,
        "no fast-forward jump was polled"
    );
    assert_eq!(polled, plain, "an idle cancel poll perturbed the run");
}

#[test]
fn a_poll_that_fires_cancels_the_run() {
    let (out, observed) = run(Some(Box::new(|| true)));
    assert!(observed.cancelled, "the run must report cancellation");
    assert!(!observed.completed, "a cancelled run is not complete");
    assert!(out.stall.is_none(), "cancellation is not a stall");
    assert!(out.violation.is_none());
    assert!(
        observed.stats.cycles <= 2 * save_core::CANCEL_QUANTUM,
        "the first poll stops the run, got {} cycles",
        observed.stats.cycles
    );
}
