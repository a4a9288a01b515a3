//! General-purpose kernel simulator CLI: run any GEMM workload described as
//! JSON on any machine operating point, and print (or emit as JSON) the
//! full statistics — the entry point for exploring configurations beyond
//! the paper's experiments.
//!
//! Usage:
//!   save-bench simulate --spec workload.json [--config baseline|save2|save1]
//!            [--cores N] [--detailed] [--seed S] [--json] [--example]
//!            [--sanitize off|periodic[:N]|full]
//!
//! `--example` prints a template workload JSON and exits. `--sanitize`
//! enables the cycle-level microarchitectural sanitizer (overriding the
//! `SAVE_SANITIZE` environment variable); a violation aborts the run with a
//! typed `invariant-violation` error carrying the sanitizer's witness.
//!
//! Every failure path (unreadable spec, malformed JSON, bad flag value,
//! rejected config, stalled or mismatching run) surfaces as a typed
//! [`SimError`] in the session's failure report (exit 1); a command line
//! with neither `--spec` nor `--example` is a usage error (exit 2).

use save_bench::Failure;
use save_core::{CoreConfig, SanitizeLevel};
use save_sim::{CellSpec, MachineConfig, MachineMode, SimError};

fn template() -> save_kernels::GemmWorkload {
    save_kernels::GemmWorkload::dense(
        "my-kernel",
        save_kernels::GemmKernelSpec {
            m_tiles: 7,
            n_vecs: 3,
            pattern: save_kernels::BroadcastPattern::Explicit,
            precision: save_kernels::Precision::F32,
        },
        128,
        6,
    )
    .with_sparsity(0.4, 0.6)
}

pub fn body(
    cli: &save_bench::BenchCli,
    session: &mut save_bench::SweepSession,
) -> Result<(), Failure> {
    let args = &cli.switches;
    if args.iter().any(|a| a == "--example") {
        let s = serde_json::to_string_pretty(&template())
            .map_err(|e| SimError::Io { what: format!("serialize template: {e}") })?;
        println!("{s}");
        return Ok(());
    }
    let Some(spec_path) = cli.flag::<String>("--spec")? else {
        return Err(Failure::Usage("needs --spec or --example".into()));
    };
    let spec = std::fs::read_to_string(&spec_path)
        .map_err(|e| SimError::Io { what: format!("cannot read {spec_path}: {e}") })?;
    let workload: save_kernels::GemmWorkload = serde_json::from_str(&spec)
        .map_err(|e| SimError::InvalidConfig { what: format!("invalid workload JSON: {e}") })?;

    let kind = crate::surface::config_kind(cli)?;
    let mut machine = MachineConfig::default();
    machine.cores = cli.flag("--cores")?.unwrap_or(machine.cores);
    if args.iter().any(|a| a == "--detailed") {
        machine.mode = MachineMode::Detailed;
    }
    let seed = cli.flag("--seed")?.unwrap_or(1);

    // The single simulated kernel still runs as a durable session cell, so
    // `--cell-deadline`, `--retries` and Ctrl-C behave exactly as in the
    // sweep binaries.
    let sanitize = match cli.flag::<String>("--sanitize")? {
        Some(level) => Some(SanitizeLevel::parse(&level).map_err(|e| SimError::InvalidConfig {
            what: format!("--sanitize: {e}"),
        })?),
        None => None,
    };
    let cell = match sanitize {
        Some(sanitize) => {
            let cfg = CoreConfig { sanitize, ..kind.core_config() };
            CellSpec::custom(workload.clone(), cfg, machine, seed)
        }
        None => CellSpec::new(workload.clone(), kind, machine, seed),
    };
    let cell = CellSpec { verify: true, ..cell };
    let Some(result) = session.run(&workload.name, |tok| cell.run(Some(tok))) else {
        return Ok(());
    };
    if args.iter().any(|a| a == "--json") {
        let s = serde_json::to_string_pretty(&result)
            .map_err(|e| SimError::Io { what: format!("serialize result: {e}") })?;
        println!("{s}");
        return Ok(());
    }
    let s = &result.stats;
    println!("kernel    : {}", workload.name);
    println!("machine   : {} cores ({:?}), {}", machine.cores, machine.mode, kind.label());
    println!("cycles    : {}   ({:.3} µs)", result.cycles, result.seconds * 1e6);
    println!("µops      : {}   (IPC {:.2})", s.uops_committed, s.ipc());
    println!("VFMAs     : {}   -> {} VPU ops (compaction {:.2}x)", s.fma_uops, s.vpu_ops, s.compaction_ratio());
    println!("lanes     : {} effectual of {} ({:.1}%), {:.1}/16 per op",
        s.lanes_effectual, s.lanes_total, s.effectual_fraction() * 100.0, s.mean_lanes_per_op());
    println!("BS skips  : {}", s.fmas_skipped_bs);
    println!("loads     : {} ({} broadcast, {} B$-served)", s.loads_issued, s.bcast_loads, s.bcast_hits);
    println!("mean CW   : {:.1}", s.mean_cw());
    println!("verified  : {}", result.verified);
    Ok(())
}
