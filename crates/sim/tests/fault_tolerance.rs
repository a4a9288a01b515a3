//! Integration tests for the fault-isolation layer: the retire-progress
//! watchdog, typed config validation, panic-isolated parallel sweeps, and
//! the sweep-level failure report (DESIGN.md, "Error handling & fault
//! isolation").

use save_core::{CoreConfig, StallCause};
use save_kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
use save_sim::{
    parallel_try_map, CancelToken, CellSpec, ConfigKind, FailureReport, MachineConfig, SimError,
};

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
    .with_sparsity(0.3, 0.3)
}

/// A watchdog window far below the cold-DRAM round trip livelocks any
/// kernel that touches cold memory: the pipeline waits on the load, nothing
/// commits, and the watchdog must fire with a diagnosis that names the
/// memory system as the stalled resource.
#[test]
fn watchdog_fires_and_diag_names_the_stalled_resource() {
    let cfg = CoreConfig { watchdog_cycles: 3, ..CoreConfig::default() };
    cfg.validate().expect("a tiny watchdog window is still a valid config");
    let err = CellSpec::custom(tiny("livelock"), cfg, MachineConfig::default(), 1)
        .run(None)
        .expect_err("a 3-cycle watchdog cannot survive a DRAM access");
    match err {
        SimError::CycleBudgetExceeded { kernel, core, diag } => {
            assert_eq!(kernel, "livelock");
            assert_eq!(core, None);
            assert_eq!(diag.cause, StallCause::NoCommitProgress);
            assert!(
                diag.cycle - diag.last_commit_cycle >= 3,
                "watchdog fired early: {} vs {}",
                diag.cycle,
                diag.last_commit_cycle
            );
            assert_eq!(
                diag.stalled_resource(),
                "memory",
                "the pipeline is waiting on a cold load: {diag}"
            );
            assert!(diag.loads_in_flight > 0);
            assert!(diag.oldest_unretired.is_some(), "ROB head must be described");
        }
        other => panic!("expected CycleBudgetExceeded, got {other}"),
    }
}

/// Malformed operating points must fail fast with `InvalidConfig` naming
/// the offending field — before any cycle is simulated.
#[test]
fn invalid_operating_points_fail_fast() {
    let m = MachineConfig::default();
    for (cfg, field) in [
        (CoreConfig { num_vpus: 0, ..CoreConfig::default() }, "num_vpus"),
        (CoreConfig { issue_width: 0, ..CoreConfig::default() }, "issue_width"),
        (CoreConfig { rob_entries: 0, ..CoreConfig::default() }, "rob_entries"),
    ] {
        match CellSpec::custom(tiny("bad"), cfg, m, 1).run(None) {
            Err(SimError::InvalidConfig { what }) => {
                assert!(what.contains(field), "error {what:?} should name {field}")
            }
            other => panic!("expected InvalidConfig for {field}, got {other:?}"),
        }
    }
    let mut bad_mem = MachineConfig::default();
    bad_mem.mem.dram.channels = 0;
    match CellSpec::new(tiny("badmem"), ConfigKind::Baseline, bad_mem, 1).run(None) {
        Err(SimError::InvalidConfig { what }) => assert!(what.contains("dram.channels")),
        other => panic!("expected InvalidConfig for dram.channels, got {other:?}"),
    }
}

/// One panicking job must produce exactly one `Err` slot while every other
/// job completes.
#[test]
fn panicking_job_is_isolated_from_the_rest_of_the_sweep() {
    let sparsities: Vec<f64> = (0..8).map(|i| i as f64 * 0.1).collect();
    let m = MachineConfig::default();
    let results = parallel_try_map(&sparsities, 4, &CancelToken::new(), |_, &s| {
        if s > 0.55 && s < 0.65 {
            panic!("injected failure at sparsity {s}");
        }
        let seed = (s * 100.0) as u64;
        Ok(CellSpec::new(tiny("iso"), ConfigKind::Save2Vpu, m, seed).run(None)?.cycles)
    });
    assert_eq!(results.len(), 8, "sweep must complete every slot");
    let errs: Vec<usize> =
        results.iter().enumerate().filter(|(_, r)| r.is_err()).map(|(i, _)| i).collect();
    assert_eq!(errs, vec![6], "exactly the injected job fails");
    match &results[6] {
        Err(SimError::WorkerPanic { job, message }) => {
            assert_eq!(*job, 6);
            assert!(message.contains("injected failure"), "{message}");
        }
        other => panic!("expected WorkerPanic, got {other:?}"),
    }
    for (i, r) in results.iter().enumerate() {
        if i != 6 {
            assert!(r.as_ref().unwrap() > &0, "job {i} must have run");
        }
    }
}

/// The acceptance scenario: a sweep containing one panicking kernel and one
/// kernel that exceeds its cycle budget still completes, the failure report
/// carries a `StallDiag` for the budget overrun, and the sweep maps to a
/// non-zero exit code.
#[test]
fn sweep_with_panic_and_budget_overrun_completes_with_report() {
    struct Job {
        name: &'static str,
        max_cycles: u64,
        explode: bool,
    }
    let jobs = vec![
        Job { name: "ok-a", max_cycles: 500_000_000, explode: false },
        Job { name: "boom", max_cycles: 500_000_000, explode: true },
        Job { name: "ok-b", max_cycles: 500_000_000, explode: false },
        Job { name: "starved", max_cycles: 25, explode: false },
        Job { name: "ok-c", max_cycles: 500_000_000, explode: false },
    ];
    let m = MachineConfig::default();
    let results = parallel_try_map(&jobs, 2, &CancelToken::new(), |_, job| {
        if job.explode {
            panic!("kernel {} blew up", job.name);
        }
        let cfg = CoreConfig { max_cycles: job.max_cycles, ..CoreConfig::default() };
        let spec = CellSpec { verify: true, ..CellSpec::custom(tiny(job.name), cfg, m, 7) };
        Ok(spec.run(None)?.cycles)
    });
    assert_eq!(results.len(), jobs.len(), "every slot must be filled");

    let report =
        FailureReport::from_results(&results, |i| Some(jobs[i].name.to_string()));
    assert_eq!(report.total_jobs, 5);
    assert_eq!(report.succeeded, 3, "the three healthy kernels completed: {report}");
    assert_eq!(report.failures.len(), 2);
    assert_eq!(report.exit_code(), 1, "a lossy sweep must exit non-zero");

    let panic_failure =
        report.failures.iter().find(|f| f.label.as_deref() == Some("boom")).unwrap();
    assert!(matches!(panic_failure.error, SimError::WorkerPanic { .. }));

    let budget_failure =
        report.failures.iter().find(|f| f.label.as_deref() == Some("starved")).unwrap();
    match &budget_failure.error {
        SimError::CycleBudgetExceeded { diag, .. } => {
            assert_eq!(diag.cause, StallCause::CycleBudget);
            assert_eq!(diag.cycle, 25);
        }
        other => panic!("expected CycleBudgetExceeded for 'starved', got {other:?}"),
    }

    // The report renders readably for the sweep log.
    let rendered = report.to_string();
    assert!(rendered.contains("3/5 jobs succeeded"), "{rendered}");
    assert!(rendered.contains("boom") && rendered.contains("starved"), "{rendered}");
}
