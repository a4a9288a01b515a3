//! Integration tests for the durable-execution layer (DESIGN.md §5f):
//! resume bit-identity from the result store, cancellation with journal
//! flush, per-cell deadlines that fail a cell without failing the sweep,
//! and two sweeps sharing one store.

use save_kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
use save_sim::surface::DurableSweep;
use save_sim::{
    ConfigKind, MachineConfig, ResultStore, RetryPolicy, Supervisor, SupervisorHandle, Surface,
};
use std::fs;
use std::path::PathBuf;
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

/// A workload large enough that one cell takes well over the supervisor's
/// poll period, so a sub-millisecond deadline reliably interrupts it.
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

fn opts<'a>(
    store: &'a ResultStore,
    policy: RetryPolicy,
    sup: &'a SupervisorHandle,
) -> DurableSweep<'a> {
    DurableSweep { store: Some(store), policy, supervisor: sup }
}

const A: [f64; 2] = [0.0, 0.3];
const B: [f64; 2] = [0.0, 0.6];

#[test]
fn resume_skips_journaled_cells_and_is_bit_identical() {
    let dir = tmpdir("resume");
    let sup = Supervisor::start(false);
    let h = sup.handle();
    let first = Surface::sweep_durable(
        &tiny(),
        ConfigKind::Save2Vpu,
        &machine(),
        &A,
        &B,
        2,
        &opts(&ResultStore::open(&dir, false).unwrap(), RetryPolicy::default(), &h),
    )
    .unwrap();
    assert!(!first.cancelled);
    assert!(first.report.is_clean());
    assert_eq!(first.resumed, 0);
    assert!(first.surface.secs.iter().all(|s| !s.is_nan()));

    let second = Surface::sweep_durable(
        &tiny(),
        ConfigKind::Save2Vpu,
        &machine(),
        &A,
        &B,
        2,
        &opts(&ResultStore::open(&dir, true).unwrap(), RetryPolicy::default(), &h),
    )
    .unwrap();
    assert_eq!(second.resumed, 4, "every cell restored from the journal");
    assert_eq!(second.total_cycles, first.total_cycles, "cycle account is resume-invariant");
    for (a, b) in first.surface.secs.iter().zip(&second.surface.secs) {
        assert_eq!(a.to_bits(), b.to_bits(), "resumed surface must be bit-identical");
    }

    // And both match a plain (non-durable) sweep: durability is
    // observationally free.
    let plain =
        Surface::sweep(&tiny(), ConfigKind::Save2Vpu, &machine(), &A, &B, 2).unwrap();
    for (a, b) in plain.secs.iter().zip(&second.surface.secs) {
        assert_eq!(a.to_bits(), b.to_bits(), "durable sweep must match Surface::sweep");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn partial_journal_resume_completes_the_remainder() {
    // Simulates "killed after two cells": run a full sweep into dir A, then
    // build dir B containing only the first two journal lines, and resume
    // from it.
    let dir_a = tmpdir("partial-a");
    let dir_b = tmpdir("partial-b");
    let sup = Supervisor::start(false);
    let h = sup.handle();
    let full = Surface::sweep_durable(
        &tiny(),
        ConfigKind::Save1Vpu,
        &machine(),
        &A,
        &B,
        1,
        &opts(&ResultStore::open(&dir_a, false).unwrap(), RetryPolicy::default(), &h),
    )
    .unwrap();
    assert!(full.report.is_clean());

    fs::create_dir_all(&dir_b).unwrap();
    let journal = fs::read_to_string(dir_a.join("journal.jsonl")).unwrap();
    let two: Vec<&str> = journal.lines().take(2).collect();
    fs::write(dir_b.join("journal.jsonl"), format!("{}\n", two.join("\n"))).unwrap();

    let resumed = Surface::sweep_durable(
        &tiny(),
        ConfigKind::Save1Vpu,
        &machine(),
        &A,
        &B,
        1,
        &opts(&ResultStore::open(&dir_b, true).unwrap(), RetryPolicy::default(), &h),
    )
    .unwrap();
    assert_eq!(resumed.resumed, 2, "two journaled cells skipped");
    assert!(resumed.report.is_clean());
    assert_eq!(resumed.total_cycles, full.total_cycles);
    for (a, b) in full.surface.secs.iter().zip(&resumed.surface.secs) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
    let _ = fs::remove_dir_all(&dir_a);
    let _ = fs::remove_dir_all(&dir_b);
}

#[test]
fn cancelled_sweep_is_resumable_and_converges() {
    let dir = tmpdir("cancel");
    // Cancel before the sweep starts: deterministically, no cell is
    // claimed, the outcome is "cancelled", and nothing is journaled.
    let sup = Supervisor::start(false);
    let h = sup.handle();
    h.cancel_global();
    let out = Surface::sweep_durable(
        &tiny(),
        ConfigKind::Baseline,
        &machine(),
        &A,
        &B,
        2,
        &opts(&ResultStore::open(&dir, false).unwrap(), RetryPolicy::default(), &h),
    )
    .unwrap();
    assert!(out.cancelled);
    assert_eq!(out.resumed, 0);
    assert!(out.surface.secs.iter().all(|s| s.is_nan()), "no timing escapes a cancelled run");
    assert!(
        out.report.failures.is_empty(),
        "cancelled cells are resumable, not failures: {:?}",
        out.report.failures
    );

    // A fresh supervisor (fresh process, conceptually) resumes to completion.
    let sup2 = Supervisor::start(false);
    let h2 = sup2.handle();
    let done = Surface::sweep_durable(
        &tiny(),
        ConfigKind::Baseline,
        &machine(),
        &A,
        &B,
        2,
        &opts(&ResultStore::open(&dir, true).unwrap(), RetryPolicy::default(), &h2),
    )
    .unwrap();
    assert!(!done.cancelled);
    assert!(done.report.is_clean());

    let reference = tmpdir("cancel-ref");
    let fresh = Surface::sweep_durable(
        &tiny(),
        ConfigKind::Baseline,
        &machine(),
        &A,
        &B,
        2,
        &opts(&ResultStore::open(&reference, false).unwrap(), RetryPolicy::default(), &h2),
    )
    .unwrap();
    for (a, b) in fresh.surface.secs.iter().zip(&done.surface.secs) {
        assert_eq!(a.to_bits(), b.to_bits(), "cancel+resume equals one uninterrupted run");
    }
    let _ = fs::remove_dir_all(&dir);
    let _ = fs::remove_dir_all(&reference);
}

#[test]
fn deadline_overrun_is_retried_then_recorded_without_aborting_the_sweep() {
    let dir = tmpdir("deadline");
    let sup = Supervisor::start(false);
    let h = sup.handle();
    let policy = RetryPolicy {
        retries: 1,
        backoff: Duration::from_millis(1),
        max_backoff: Duration::from_millis(2),
        deadline: Some(Duration::from_micros(100)),
    };
    let out = Surface::sweep_durable(
        &big(),
        ConfigKind::Baseline,
        &machine(),
        &[0.0],
        &[0.0, 0.5],
        1,
        &opts(&ResultStore::open(&dir, false).unwrap(), policy, &h),
    )
    .unwrap();
    assert!(!out.cancelled, "a deadline is per-cell, not a sweep cancellation");
    assert_eq!(out.report.failures.len(), 2, "both cells exceed the 100µs deadline");
    for f in &out.report.failures {
        assert_eq!(f.error.kind(), "deadline", "{}", f.error);
        assert_eq!(f.attempts, 2, "1 try + 1 retry before giving up");
    }
    assert!(out.surface.secs.iter().all(|s| s.is_nan()));

    // Deadline overruns are transient: journaled as history, never served.
    // A resume without the deadline completes both cells, bit-identical to
    // a plain sweep.
    let resumed = Surface::sweep_durable(
        &big(),
        ConfigKind::Baseline,
        &machine(),
        &[0.0],
        &[0.0, 0.5],
        1,
        &opts(&ResultStore::open(&dir, true).unwrap(), RetryPolicy::default(), &h),
    )
    .unwrap();
    assert_eq!(resumed.resumed, 0, "transient failures are recomputed, not served");
    assert!(resumed.report.is_clean(), "{:?}", resumed.report.failures);
    let plain =
        Surface::sweep(&big(), ConfigKind::Baseline, &machine(), &[0.0], &[0.0, 0.5], 1).unwrap();
    for (a, b) in plain.secs.iter().zip(&resumed.surface.secs) {
        assert_eq!(a.to_bits(), b.to_bits(), "resumed cells must match Surface::sweep");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn sweeps_sharing_a_store_share_only_identical_cells() {
    let dir = tmpdir("shared");
    let sup = Supervisor::start(false);
    let h = sup.handle();
    let store = ResultStore::open(&dir, false).unwrap();
    let first = Surface::sweep_durable(
        &tiny(),
        ConfigKind::Save2Vpu,
        &machine(),
        &A,
        &B,
        2,
        &opts(&store, RetryPolicy::default(), &h),
    )
    .unwrap();
    assert!(first.report.is_clean());
    assert_eq!(store.records(), 4);

    // A different grid on the same store: its b = 0.6 column is the first
    // sweep's, the b = 0.9 column is new.
    let b2 = [0.6, 0.9];
    let second = Surface::sweep_durable(
        &tiny(),
        ConfigKind::Save2Vpu,
        &machine(),
        &A,
        &b2,
        2,
        &opts(&store, RetryPolicy::default(), &h),
    )
    .unwrap();
    assert!(second.report.is_clean());
    assert_eq!(second.resumed, 2, "the two shared cells are served, not simulated");
    assert_eq!(store.records(), 6, "only the two new cells were journaled");
    for ai in 0..A.len() {
        assert_eq!(
            second.surface.secs[ai * 2].to_bits(),
            first.surface.secs[ai * 2 + 1].to_bits(),
            "a shared cell carries the first sweep's bits"
        );
    }
    let plain = Surface::sweep(&tiny(), ConfigKind::Save2Vpu, &machine(), &A, &b2, 2).unwrap();
    for (a, b) in plain.secs.iter().zip(&second.surface.secs) {
        assert_eq!(a.to_bits(), b.to_bits(), "the second sweep must match Surface::sweep");
    }

    // A different operating point shares nothing.
    let other = Surface::sweep_durable(
        &tiny(),
        ConfigKind::Baseline,
        &machine(),
        &A,
        &B,
        2,
        &opts(&store, RetryPolicy::default(), &h),
    )
    .unwrap();
    assert_eq!(other.resumed, 0);
    let _ = fs::remove_dir_all(&dir);
}
