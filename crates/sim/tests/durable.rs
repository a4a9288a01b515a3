//! Integration tests for the durable-execution layer (DESIGN.md §5f),
//! through `Executor::resolve_all` over a surface's grid cells: resume
//! bit-identity from the result store, cancellation with journal
//! flush, per-cell deadlines that fail a cell without failing the sweep,
//! two sweeps sharing one store, and a journal that cannot be written.

use save_kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
use save_sim::{
    CancelToken, CellSpec, ConfigKind, Executor, MachineConfig, ResultStore, RetryClass,
    RetryPolicy, SimError, Surface,
};
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn tiny() -> GemmWorkload {
    GemmWorkload::dense(
        "durable-tiny",
        GemmKernelSpec {
            m_tiles: 4,
            n_vecs: 2,
            pattern: BroadcastPattern::Explicit,
            precision: Precision::F32,
        },
        16,
        2,
    )
}

/// A workload large enough that one cell runs many cancel quanta, so a
/// sub-millisecond deadline reliably interrupts it.
fn big() -> GemmWorkload {
    GemmWorkload::dense(
        "durable-big",
        GemmKernelSpec {
            m_tiles: 4,
            n_vecs: 2,
            pattern: BroadcastPattern::Explicit,
            precision: Precision::F32,
        },
        256,
        64,
    )
}

fn machine() -> MachineConfig {
    MachineConfig { cores: 4, ..Default::default() }
}

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("save-durable-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn open(dir: &Path, resume: bool) -> Arc<ResultStore> {
    Arc::new(ResultStore::open(dir, resume).unwrap())
}

fn exec(store: &Arc<ResultStore>, policy: RetryPolicy, cancel: &CancelToken) -> Executor {
    Executor { store: Some(Arc::clone(store)), policy, cancel: cancel.clone() }
}

/// What resolving a grid's cells produced, settled in grid order.
struct Sweep {
    /// Seconds per cell; failed and cancelled cells are `NaN`.
    secs: Vec<f64>,
    /// Each failed cell's error and attempt count.
    failures: Vec<(SimError, u32)>,
    /// Cells served from the store instead of run.
    resumed: usize,
    /// Some cell came back cancelled.
    cancelled: bool,
    /// Simulated cycles over completed cells, served or run.
    total_cycles: u64,
}

fn sweep(
    w: &GemmWorkload,
    kind: ConfigKind,
    a_levels: &[f64],
    b_levels: &[f64],
    threads: usize,
    exec: &Executor,
) -> Sweep {
    let cells = Surface::grid_cells(w, kind, &machine(), a_levels, b_levels);
    let (secs, failures) = (Vec::new(), Vec::new());
    let mut out = Sweep { secs, failures, resumed: 0, cancelled: false, total_cycles: 0 };
    for result in exec.resolve_all(&cells, threads).unwrap() {
        match result {
            Ok(cell) => {
                out.secs.push(cell.rec.secs());
                out.total_cycles += cell.rec.cycles;
                out.resumed += cell.served as usize;
                out.failures.extend(cell.error.map(|e| (e, cell.rec.attempts)));
            }
            Err(e) => {
                assert_eq!(e.retry_class(), RetryClass::Cancelled, "resolve fails only if cancelled");
                out.secs.push(f64::NAN);
                out.cancelled = true;
            }
        }
    }
    out
}

/// The bit reference: every grid point run directly, `a`-major, seeded
/// with [`Surface::point_seed`].
fn direct_bits(w: &GemmWorkload, kind: ConfigKind, a_levels: &[f64], b_levels: &[f64]) -> Vec<u64> {
    let mut bits = Vec::new();
    for &a in a_levels {
        for &b in b_levels {
            let wk = w.clone().with_sparsity(a, b);
            let spec = CellSpec::new(wk, kind, machine(), Surface::point_seed(a, b));
            bits.push(spec.run(None).unwrap().seconds.to_bits());
        }
    }
    bits
}

fn bits(out: &Sweep) -> Vec<u64> {
    out.secs.iter().map(|s| s.to_bits()).collect()
}

const A: [f64; 2] = [0.0, 0.3];
const B: [f64; 2] = [0.0, 0.6];

#[test]
fn resume_skips_journaled_cells_and_is_bit_identical() {
    let dir = tmpdir("resume");
    let cancel = CancelToken::new();
    let first = sweep(
        &tiny(),
        ConfigKind::Save2Vpu,
        &A,
        &B,
        2,
        &exec(&open(&dir, false), RetryPolicy::default(), &cancel),
    );
    assert!(!first.cancelled);
    assert!(first.failures.is_empty());
    assert_eq!(first.resumed, 0);
    assert!(first.secs.iter().all(|s| !s.is_nan()));

    let second = sweep(
        &tiny(),
        ConfigKind::Save2Vpu,
        &A,
        &B,
        2,
        &exec(&open(&dir, true), RetryPolicy::default(), &cancel),
    );
    assert_eq!(second.resumed, 4, "every cell restored from the journal");
    assert_eq!(second.total_cycles, first.total_cycles, "cycle account is resume-invariant");
    assert_eq!(bits(&first), bits(&second), "resumed surface must be bit-identical");

    // And both match running each point directly: durability is
    // observationally free.
    assert_eq!(
        bits(&second),
        direct_bits(&tiny(), ConfigKind::Save2Vpu, &A, &B),
        "durable sweep must match CellSpec::run"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn partial_journal_resume_completes_the_remainder() {
    // Simulates "killed after two cells": run a full sweep into dir A, then
    // build dir B containing only the first two journal lines, and resume
    // from it.
    let dir_a = tmpdir("partial-a");
    let dir_b = tmpdir("partial-b");
    let cancel = CancelToken::new();
    let full = sweep(
        &tiny(),
        ConfigKind::Save1Vpu,
        &A,
        &B,
        1,
        &exec(&open(&dir_a, false), RetryPolicy::default(), &cancel),
    );
    assert!(full.failures.is_empty());

    fs::create_dir_all(&dir_b).unwrap();
    let journal = fs::read_to_string(dir_a.join("journal.jsonl")).unwrap();
    let two: Vec<&str> = journal.lines().take(2).collect();
    fs::write(dir_b.join("journal.jsonl"), format!("{}\n", two.join("\n"))).unwrap();

    let resumed = sweep(
        &tiny(),
        ConfigKind::Save1Vpu,
        &A,
        &B,
        1,
        &exec(&open(&dir_b, true), RetryPolicy::default(), &cancel),
    );
    assert_eq!(resumed.resumed, 2, "two journaled cells skipped");
    assert!(resumed.failures.is_empty());
    assert_eq!(resumed.total_cycles, full.total_cycles);
    assert_eq!(bits(&full), bits(&resumed));
    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

#[test]
fn cancelled_sweep_is_resumable_and_converges() {
    let dir = tmpdir("cancel");
    // Cancel before the sweep starts: deterministically, no cell is
    // claimed, the outcome is "cancelled", and nothing is journaled.
    let cancel = CancelToken::new();
    cancel.cancel();
    let out = sweep(
        &tiny(),
        ConfigKind::Baseline,
        &A,
        &B,
        2,
        &exec(&open(&dir, false), RetryPolicy::default(), &cancel),
    );
    assert!(out.cancelled);
    assert_eq!(out.resumed, 0);
    assert!(out.secs.iter().all(|s| s.is_nan()), "no timing escapes a cancelled run");
    assert!(
        out.failures.is_empty(),
        "cancelled cells are resumable, not failures: {:?}",
        out.failures
    );

    // A fresh token (fresh process, conceptually) resumes to completion.
    let cancel2 = CancelToken::new();
    let done = sweep(
        &tiny(),
        ConfigKind::Baseline,
        &A,
        &B,
        2,
        &exec(&open(&dir, true), RetryPolicy::default(), &cancel2),
    );
    assert!(!done.cancelled);
    assert!(done.failures.is_empty());

    let reference = tmpdir("cancel-ref");
    let fresh = sweep(
        &tiny(),
        ConfigKind::Baseline,
        &A,
        &B,
        2,
        &exec(&open(&reference, false), RetryPolicy::default(), &cancel2),
    );
    assert_eq!(bits(&fresh), bits(&done), "cancel+resume equals one uninterrupted run");
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&reference);
}

#[test]
fn deadline_overrun_is_retried_then_recorded_without_aborting_the_sweep() {
    let dir = tmpdir("deadline");
    let cancel = CancelToken::new();
    let policy = RetryPolicy {
        retries: 1,
        backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        deadline: Some(Duration::from_micros(100)),
    };
    let ex = exec(&open(&dir, false), policy, &cancel);
    let out = sweep(&big(), ConfigKind::Baseline, &[0.0], &[0.0, 0.5], 1, &ex);
    assert!(!out.cancelled, "a deadline is per-cell, not a sweep cancellation");
    assert_eq!(out.failures.len(), 2, "both cells exceed the 100µs deadline");
    for (error, attempts) in &out.failures {
        assert_eq!(error.kind(), "deadline", "{error}");
        assert_eq!(*attempts, 2, "1 try + 1 retry before giving up");
    }
    assert!(out.secs.iter().all(|s| s.is_nan()));

    // Deadline overruns are transient: journaled as history, never served.
    // A resume without the deadline completes both cells, bit-identical to
    // running them directly.
    let resumed = sweep(
        &big(),
        ConfigKind::Baseline,
        &[0.0],
        &[0.0, 0.5],
        1,
        &exec(&open(&dir, true), RetryPolicy::default(), &cancel),
    );
    assert_eq!(resumed.resumed, 0, "transient failures are recomputed, not served");
    assert!(resumed.failures.is_empty(), "{:?}", resumed.failures);
    assert_eq!(
        bits(&resumed),
        direct_bits(&big(), ConfigKind::Baseline, &[0.0], &[0.0, 0.5]),
        "resumed cells must match CellSpec::run"
    );
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sweeps_sharing_a_store_share_only_identical_cells() {
    let dir = tmpdir("shared");
    let cancel = CancelToken::new();
    let store = open(&dir, false);
    let ex = exec(&store, RetryPolicy::default(), &cancel);
    let first = sweep(&tiny(), ConfigKind::Save2Vpu, &A, &B, 2, &ex);
    assert!(first.failures.is_empty());
    assert_eq!(store.records(), 4);

    // A different grid on the same store: its b = 0.6 column is the first
    // sweep's, the b = 0.9 column is new.
    let b2 = [0.6, 0.9];
    let second = sweep(&tiny(), ConfigKind::Save2Vpu, &A, &b2, 2, &ex);
    assert!(second.failures.is_empty());
    assert_eq!(second.resumed, 2, "the two shared cells are served, not simulated");
    assert_eq!(store.records(), 6, "only the two new cells were journaled");
    for ai in 0..A.len() {
        assert_eq!(
            second.secs[ai * 2].to_bits(),
            first.secs[ai * 2 + 1].to_bits(),
            "a shared cell carries the first sweep's bits"
        );
    }
    assert_eq!(
        bits(&second),
        direct_bits(&tiny(), ConfigKind::Save2Vpu, &A, &b2),
        "the second sweep must match CellSpec::run"
    );

    // A different operating point shares nothing.
    let other = sweep(&tiny(), ConfigKind::Baseline, &A, &B, 2, &ex);
    assert_eq!(other.resumed, 0);
    let _ = fs::remove_dir_all(&dir);
}

/// A journal that opens but cannot be appended to (a full disk) costs the
/// resume, not the results: every computed cell keeps its seconds and the
/// sweep reports no failure.
#[cfg(unix)]
#[test]
fn failed_journal_append_keeps_computed_cells() {
    let dir = tmpdir("full");
    fs::create_dir_all(&dir).unwrap();
    // Writes to /dev/full fail with ENOSPC; opening it for append succeeds.
    std::os::unix::fs::symlink("/dev/full", ResultStore::journal_path(&dir)).unwrap();
    let ex = exec(&open(&dir, true), RetryPolicy::default(), &CancelToken::new());
    let out = sweep(&tiny(), ConfigKind::Save2Vpu, &[0.0], &[0.0, 0.6], 1, &ex);
    assert!(!out.cancelled);
    assert!(out.failures.is_empty(), "a failed append is not a failed cell: {:?}", out.failures);
    assert_eq!(
        bits(&out),
        direct_bits(&tiny(), ConfigKind::Save2Vpu, &[0.0], &[0.0, 0.6]),
        "computed cells survive a failed append bit for bit"
    );
    let _ = fs::remove_dir_all(&dir);
}
