//! surface — standalone durable 2-D sparsity sweep.
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
//! Usage: `surface [--config baseline|save2|save1] [--cores N] [--k K]
//! [--tiles T]` plus the uniform durable flags. With `--serve ADDR` the
//! whole grid is submitted to a save-serve daemon as one job (the daemon's
//! memo cache makes re-runs free) and the output JSON is identical in
//! shape, with `resumed` counting daemon cache hits.
//!
//! `surface fsck PATH [--repair]` instead audits a checkpoint journal:
//! torn tails, missing final newlines, and duplicate latest-record-wins
//! cells are reported as JSON; with `--repair` the tail damage is fixed in
//! place. Exits 1 when damage is found and left unrepaired.

use save_bench::{run_main, BenchCli, SweepSession};
use save_kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
use save_serve::{Client, NamedCell};
use save_sim::{fsck_journal, ConfigKind, MachineConfig, SimError, Surface};
use serde::Serialize;
use std::process::ExitCode;

#[derive(Serialize)]
struct Out {
    a_levels: Vec<f64>,
    b_levels: Vec<f64>,
    /// `f64::to_bits` of each cell's seconds, row-major — bit-comparable.
    secs_bits: Vec<u64>,
    total_cycles: u64,
    resumed: usize,
}

fn main() -> ExitCode {
    run_main("surface", body)
}

/// `surface fsck PATH [--repair]`: audit (and optionally repair) a journal.
fn fsck(cli: &BenchCli) -> Result<(), SimError> {
    let repair = cli.rest.iter().any(|a| a == "--repair");
    let path = cli
        .rest
        .iter()
        .skip(1) // the "fsck" token itself
        .find(|a| !a.starts_with("--"))
        .ok_or_else(|| SimError::InvalidConfig {
            what: "fsck needs a journal path: surface fsck PATH [--repair]".into(),
        })?;
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
        });
    }
    Ok(())
}

/// `--serve ADDR`: submit the whole grid to a daemon as one job. With
/// `--fault-first` the first cell carries a [`save_serve::Fault::KillWorker`]
/// injection — the daemon's worker must recover and requeue it, so the output
/// stays identical (this is what the CI serve-smoke job drives).
fn serve_sweep(
    addr: &str,
    session: &mut SweepSession,
    w: &GemmWorkload,
    kind: ConfigKind,
    machine: &MachineConfig,
    grid: &[f64],
    fault_first: bool,
) -> Result<(), SimError> {
    let mut cells: Vec<NamedCell> = Surface::grid_cells(w, kind, machine, grid, grid)
        .into_iter()
        .map(|(label, spec)| NamedCell { label, spec, fault: None })
        .collect();
    if fault_first {
        if let Some(first) = cells.first_mut() {
            first.fault = Some(save_serve::Fault::KillWorker);
        }
    }
    let n = cells.len();
    let mut secs_bits = vec![f64::NAN.to_bits(); n];
    let mut total_cycles = 0u64;
    let mut client = Client::connect(addr)?;
    let done = client.submit("surface", &cells, |r| {
        let i = r.index as usize;
        if i < n {
            secs_bits[i] = r.secs_bits;
            total_cycles += r.cycles;
        }
    })?;
    if done.cancelled {
        session.note_cancelled();
        return Ok(());
    }
    if done.failed > 0 {
        session.note_failure(
            "serve-sweep",
            SimError::Io { what: format!("{} remote cell(s) failed", done.failed) },
        );
    }
    let payload = Out {
        a_levels: grid.to_vec(),
        b_levels: grid.to_vec(),
        secs_bits,
        total_cycles,
        resumed: done.cached,
    };
    let line = serde_json::to_string(&payload)
        .map_err(|e| SimError::Io { what: format!("serialize surface: {e}") })?;
    println!("{line}");
    Ok(())
}

fn body(cli: &BenchCli, session: &mut SweepSession) -> Result<(), SimError> {
    if cli.rest.first().map(String::as_str) == Some("fsck") {
        return fsck(cli);
    }
    let get = |flag: &str| {
        cli.rest.iter().position(|a| a == flag).and_then(|i| cli.rest.get(i + 1)).cloned()
    };
    let num = |flag: &str, default: u64| -> Result<u64, SimError> {
        match get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| SimError::InvalidConfig {
                what: format!("{flag} takes a number, got {v:?}"),
            }),
        }
    };
    let kind = match get("--config").as_deref() {
        None | Some("save2") => ConfigKind::Save2Vpu,
        Some("save1") => ConfigKind::Save1Vpu,
        Some("baseline") => ConfigKind::Baseline,
        Some(other) => {
            return Err(SimError::InvalidConfig {
                what: format!("unknown config {other} (expected baseline|save2|save1)"),
            })
        }
    };
    let k_total = num("--k", 64)? as usize;
    let tiles = num("--tiles", 16)? as usize;
    let machine = MachineConfig { cores: num("--cores", 4)? as usize, ..Default::default() };
    let w = GemmWorkload::dense(
        "surface-cli",
        GemmKernelSpec {
            m_tiles: 4,
            n_vecs: 2,
            pattern: BroadcastPattern::Explicit,
            precision: Precision::F32,
        },
        k_total,
        tiles,
    );
    let grid = cli.grid();

    if let Some(addr) = cli.serve_addr.clone() {
        let fault_first = cli.rest.iter().any(|a| a == "--fault-first");
        return serve_sweep(&addr, session, &w, kind, &machine, &grid, fault_first);
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
