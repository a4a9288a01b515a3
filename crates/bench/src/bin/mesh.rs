//! mesh — the paper's 28-core NUCA/mesh machine, end to end.
//!
//! Runs a reference kernel pair (compute-bound and DRAM-streaming) on the
//! *detailed* multicore machine at each operating point under the
//! relaxed-sync engine (DESIGN.md §5i), and reports both the paper-facing
//! speedups and the uncore contention signals only the detailed mesh can
//! surface: per-link flit occupancy, per-slice MSHR conflicts and DRAM
//! queue depths. Results land in `target/experiments/mesh.json`.
//!
//! Flags (after the standard bench flags):
//! * `--cores N`            mesh size (default 28, the paper's Skylake-SP);
//! * `--quantum Q`          relaxed-sync quantum in core cycles (default 1000);
//! * `--threads T`          host threads (default 0 = shared budget);
//! * `--compare-lockstep`   also run `quantum = 1` (the lockstep engine) and
//!   report the relaxed engine's timing drift and wall-clock speedup.

use save_bench::print_table;
use save_kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
use save_sim::runner::run_kernel_full;
use save_sim::{
    ConfigKind, KernelRun, MachineConfig, MachineMode, MulticoreConfig, SimError,
};
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

/// One (workload, operating point) detailed-mesh measurement.
#[derive(Serialize)]
struct MeshPoint {
    workload: String,
    config: String,
    cores: usize,
    quantum: u64,
    cycles: u64,
    seconds: f64,
    host_seconds: f64,
    l3_hit_rate: f64,
    mshr_conflicts: u64,
    max_link_flits: u64,
    mean_link_flits: f64,
    dram_max_queue: u64,
    dram_mean_queue: f64,
    /// Relaxed-vs-lockstep simulated-cycle ratio (1.0 = no drift); only
    /// present under `--compare-lockstep`.
    lockstep_cycle_ratio: Option<f64>,
    /// Lockstep wall-clock divided by relaxed wall-clock; only present
    /// under `--compare-lockstep`.
    lockstep_speedup: Option<f64>,
}

/// The two reference kernels: one compute-bound (B panels resident in L2),
/// one streaming B from DRAM (the mesh/DRAM-contention worst case).
fn workloads() -> Vec<GemmWorkload> {
    let spec = GemmKernelSpec {
        m_tiles: 6,
        n_vecs: 4,
        pattern: BroadcastPattern::Explicit,
        precision: Precision::F32,
    };
    let compute = GemmWorkload::dense("mesh-compute", spec, 32, 4).with_sparsity(0.4, 0.5);
    let stream = GemmWorkload {
        b_panel_tiles: 1,
        ..GemmWorkload::dense("mesh-stream", spec, 32, 4).with_sparsity(0.6, 0.6)
    };
    vec![compute, stream]
}

fn machine(cores: usize, quantum: u64, threads: usize) -> MachineConfig {
    MachineConfig {
        cores,
        mode: MachineMode::Detailed,
        mc: MulticoreConfig { quantum, threads },
        ..Default::default()
    }
}

/// Runs one cell and wall-clocks it.
fn timed_run(
    w: &GemmWorkload,
    kind: ConfigKind,
    m: &MachineConfig,
    tok: &save_sim::CancelToken,
) -> Result<(KernelRun, f64), SimError> {
    let t0 = Instant::now();
    let run = run_kernel_full(w, kind, m, 1, false, Some(tok))?;
    Ok((run, t0.elapsed().as_secs_f64()))
}

fn main() -> ExitCode {
    save_bench::run_main("mesh", body)
}

fn body(
    cli: &save_bench::BenchCli,
    session: &mut save_bench::SweepSession,
) -> Result<(), SimError> {
    let cores = cli.flag("--cores")?.unwrap_or(28);
    let quantum = cli.flag("--quantum")?.unwrap_or(1000u64).max(1);
    let threads = cli.threads.unwrap_or(0);
    let compare = cli.rest.iter().any(|a| a == "--compare-lockstep");
    let relaxed = machine(cores, quantum, threads);
    let lockstep = machine(cores, 1, 0);

    let mut points: Vec<MeshPoint> = Vec::new();
    for w in workloads() {
        for kind in ConfigKind::ALL {
            let label = format!("{}-{}", w.name, kind.label());
            let Some(point) = session.run(&label, |tok| {
                let (run, host) = timed_run(&w, kind, &relaxed, tok)?;
                let (ratio, speedup) = if compare {
                    let (lock, lock_host) = timed_run(&w, kind, &lockstep, tok)?;
                    (
                        Some(run.result.cycles as f64 / lock.result.cycles.max(1) as f64),
                        Some(lock_host / host.max(1e-9)),
                    )
                } else {
                    (None, None)
                };
                let u = &run.uncore;
                let l3_total = (u.l3_hits + u.l3_misses).max(1);
                Ok(MeshPoint {
                    workload: w.name.clone(),
                    config: kind.label().to_string(),
                    cores,
                    quantum,
                    cycles: run.result.cycles,
                    seconds: run.result.seconds,
                    host_seconds: host,
                    l3_hit_rate: u.l3_hits as f64 / l3_total as f64,
                    mshr_conflicts: u.total_mshr_conflicts(),
                    max_link_flits: u.max_link_flits,
                    mean_link_flits: u.mean_link_flits,
                    dram_max_queue: u.dram.max_queue_depth,
                    dram_mean_queue: u.dram.queue_depth_sum as f64
                        / u.dram.queue_samples.max(1) as f64,
                    lockstep_cycle_ratio: ratio,
                    lockstep_speedup: speedup,
                })
            }) else {
                continue;
            };
            points.push(point);
        }
    }

    let rows: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            vec![
                p.workload.clone(),
                p.config.clone(),
                format!("{:.3e}", p.seconds),
                format!("{:.1}%", p.l3_hit_rate * 100.0),
                format!("{}", p.mshr_conflicts),
                format!("{}", p.max_link_flits),
                format!("{}", p.dram_max_queue),
                match p.lockstep_cycle_ratio {
                    Some(r) => format!("{r:.3}"),
                    None => "-".to_string(),
                },
                match p.lockstep_speedup {
                    Some(s) => format!("{s:.2}x"),
                    None => "-".to_string(),
                },
            ]
        })
        .collect();
    print_table(
        &format!("Detailed mesh: {cores} cores, quantum {quantum}"),
        &[
            "workload",
            "config",
            "seconds",
            "L3 hit",
            "MSHR conf",
            "max flits",
            "DRAM maxQ",
            "vs lockstep",
            "speedup",
        ],
        &rows,
    );

    // Paper-facing speedups per workload (baseline / SAVE seconds).
    for w in workloads() {
        let sec = |cfg: ConfigKind| {
            points
                .iter()
                .find(|p| p.workload == w.name && p.config == cfg.label())
                .map(|p| p.seconds)
        };
        if let (Some(b), Some(s2), Some(s1)) =
            (sec(ConfigKind::Baseline), sec(ConfigKind::Save2Vpu), sec(ConfigKind::Save1Vpu))
        {
            println!(
                "{}: 2 VPUs {:.2}x | 1 VPU {:.2}x over baseline at {cores} cores",
                w.name,
                b / s2,
                b / s1
            );
        }
    }
    save_bench::write_json("mesh", &points)?;
    Ok(())
}
