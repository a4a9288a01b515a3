//! `save-bench surface` — standalone durable 2-D sparsity sweep.
//!
//! Sweeps one GEMM workload over the (BS x NBS) grid under the durable
//! execution layer and prints the resulting surface as one JSON line with
//! `secs_bits` (raw IEEE-754 bits per cell) and the total simulated cycle
//! count, so two runs can be compared for *bit* identity. This is the
//! binary the kill-and-resume integration test (and the CI smoke job)
//! drives: start it with `--checkpoint-dir`, SIGKILL it mid-sweep, rerun
//! with `--resume`, and the output must equal an uninterrupted run's. The
//! cells are journaled by content key in `--checkpoint-dir`'s result store,
//! so a `save-serve` cache directory resumes a sweep of the same cells too.
//!
//! Usage: `save-bench surface [--config baseline|save2|save1] [--cores N] [--k K]
//! [--tiles T]` plus the uniform durable flags. With `--serve ADDR` the
//! grid goes to a save-serve daemon as one batch like any binary's cells
//! (the daemon's memo cache makes re-runs free), `resumed` counts its cache
//! hits too, and an unreachable or failing daemon degrades the run to local
//! execution with the same output. `--fault-first` makes the first cell
//! sent to the daemon kill its worker, a crash drill the output must not
//! show.
//!
//! `save-bench surface fsck PATH [--repair]` instead audits a checkpoint journal:
//! torn tails, missing final newlines, and duplicate latest-record-wins
//! cells are reported as JSON; with `--repair` the tail damage is fixed in
//! place. Exits 1 when damage is found and left unrepaired.

use save_bench::{BenchCli, Failure, SweepSession};
use save_kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
use save_sim::{fsck_journal, ConfigKind, MachineConfig, SimError, Surface};
use serde::Serialize;

#[derive(Serialize)]
struct Out {
    a_levels: Vec<f64>,
    b_levels: Vec<f64>,
    /// `f64::to_bits` of each cell's seconds, row-major — bit-comparable.
    secs_bits: Vec<u64>,
    total_cycles: u64,
    resumed: usize,
}

/// `surface fsck PATH [--repair]`: audit (and optionally repair) a journal.
fn fsck(cli: &BenchCli) -> Result<(), Failure> {
    let repair = cli.switches.iter().any(|a| a == "--repair");
    let path = cli.positionals.get(1).ok_or_else(|| Failure::Usage("fsck needs a journal path".into()))?;
    let mut path = std::path::PathBuf::from(path);
    if path.is_dir() {
        path = path.join("journal.jsonl");
    }
    let report = fsck_journal(&path, repair)?;
    let line = serde_json::to_string_pretty(&report)
        .map_err(|e| SimError::Io { what: format!("serialize fsck report: {e}") })?;
    println!("{line}");
    if report.dirty() && !report.repaired {
        return Err(SimError::Io {
            what: format!(
                "journal {} has unrepaired damage (rerun with --repair)",
                path.display()
            ),
        }
        .into());
    }
    Ok(())
}

/// The operating point `--config` names: `save2` (the default), `save1` or `baseline`.
pub fn config_kind(cli: &BenchCli) -> Result<ConfigKind, SimError> {
    match cli.flag::<String>("--config")?.as_deref() {
        None | Some("save2") => Ok(ConfigKind::Save2Vpu),
        Some("save1") => Ok(ConfigKind::Save1Vpu),
        Some("baseline") => Ok(ConfigKind::Baseline),
        Some(other) => Err(SimError::InvalidConfig {
            what: format!("unknown config {other} (expected baseline|save2|save1)"),
        }),
    }
}

pub fn body(cli: &BenchCli, session: &mut SweepSession) -> Result<(), Failure> {
    match cli.positionals.first().map(String::as_str) {
        Some("fsck") => fsck(cli),
        Some(other) => Err(Failure::Usage(format!("unknown subcommand {other:?}"))),
        None => Ok(sweep(cli, session)?),
    }
}

/// The (BS x NBS) sweep: prints the surface as one JSON line.
fn sweep(cli: &BenchCli, session: &mut SweepSession) -> Result<(), SimError> {
    let num = |flag: &str, default: usize| cli.flag(flag).map(|v| v.unwrap_or(default));
    let kind = config_kind(cli)?;
    let machine = MachineConfig { cores: num("--cores", 4)?, ..Default::default() };
    let w = GemmWorkload::dense(
        "surface-cli",
        GemmKernelSpec {
            m_tiles: 4,
            n_vecs: 2,
            pattern: BroadcastPattern::Explicit,
            precision: Precision::F32,
        },
        num("--k", 64)?,
        num("--tiles", 16)?,
    );
    let grid = cli.grid();
    if cli.switches.iter().any(|a| a == "--fault-first") {
        session.kill_first_remote_worker();
    }
    let cells = Surface::grid_cells(&w, kind, &machine, &grid, &grid);
    let results = session.spec_seconds_batch(&cells);
    if session.is_cancelled() {
        return Ok(());
    }
    let payload = Out {
        a_levels: grid.clone(),
        b_levels: grid,
        secs_bits: results.iter().map(|(s, _)| s.to_bits()).collect(),
        total_cycles: results.iter().map(|&(_, cycles)| cycles).sum(),
        resumed: session.resumed(),
    };
    let line = serde_json::to_string(&payload)
        .map_err(|e| SimError::Io { what: format!("serialize surface: {e}") })?;
    println!("{line}");
    Ok(())
}
