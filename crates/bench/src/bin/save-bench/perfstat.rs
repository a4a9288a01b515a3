//! `save-bench perfstat` — host-throughput measurement for the simulator itself.
//!
//! Runs a pinned reference GEMM sweep (compute-bound, memory-bound and
//! mixed-precision points across the three paper operating points, plus one
//! detailed 4-core point) and reports **simulated kilocycles per host
//! second** — the number that bounds how many sweep scenarios (Figs 12-19)
//! the repo can cover. Records append to `BENCH_PERF.json` at the repo
//! root, forming the host-performance trajectory EXPERIMENTS.md documents.
//!
//! Flags:
//! * `--quick`    smaller sweep (used by the CI perf-smoke job);
//! * `--update`   append this measurement to `BENCH_PERF.json`;
//! * `--check`    compare against the best committed record of the same
//!   sweep and exit non-zero when any point's simulated cycles differ from
//!   it (cycles are deterministic, so this is a bit-identity gate) or on a
//!   >25% throughput regression;
//! * `--scaling`  also measure the detailed-multicore scaling curve
//!   (cores × relaxed-sync quantum, DESIGN.md §5i) and gate the 28-core
//!   relaxed-vs-lockstep wall-clock speedup against a floor;
//! * `--label L`  free-form label stored with the record.
//!
//! Each record also stores the `git` revision it was measured at
//! (`SAVE_GIT_REV` overrides the `git rev-parse` probe for hermetic CI
//! runs), so the trajectory in `BENCH_PERF.json` can be correlated with
//! the commits that produced it.

use save_bench::{print_table, Failure};
use save_kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
use save_sim::runner::{ConfigKind, MachineConfig, MachineMode, MulticoreConfig};
use save_sim::{host_parallelism, CancelToken, CellSpec, SimError, TraceStore};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::time::Instant;

/// One (workload, operating point) measurement.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct PerfPoint {
    workload: String,
    config: String,
    cycles: u64,
    host_seconds: f64,
    kcycles_per_host_sec: f64,
}

/// Sweep-level "execute once, time N" measurement: one fig16-style cell
/// list timed twice per repetition — every cell executed directly, then
/// the same cells through a shared [`TraceStore`] (record once per
/// distinct functional key, replay/memoize the rest). Total simulated
/// cycles are asserted bit-identical between the two runs before the
/// record is produced.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct ReplaySweep {
    /// Number of cells in the sweep.
    cells: usize,
    /// Host seconds executing every cell directly, in the repetition
    /// whose ratio is the median.
    direct_host_seconds: f64,
    /// Host seconds through the trace store, in the same repetition.
    traced_host_seconds: f64,
    /// Median over repetitions of `direct / traced` — the sweep-level
    /// speedup.
    speedup: f64,
    /// Total simulated cycles (identical for both runs by construction).
    total_cycles: u64,
    /// Trace-store replay hits in the traced run.
    trace_hits: u64,
    /// Full-result memo hits in the traced run.
    memo_hits: u64,
    /// The gate the measurement was checked against.
    floor: f64,
}

/// One cell of the multicore scaling curve: the reference streaming kernel
/// on a detailed `cores`-core mesh at one relaxed-sync quantum
/// (`quantum == 1` is the lockstep engine).
#[derive(Clone, Debug, Serialize, Deserialize)]
struct ScalingPoint {
    cores: usize,
    quantum: u64,
    /// Slowest-core simulated cycles (the run's timing verdict).
    cycles: u64,
    /// Best-of-reps wall-clock for the whole machine.
    host_seconds: f64,
    /// Wall-clock speedup over the same machine under lockstep.
    speedup_vs_lockstep: f64,
}

/// The multicore scaling record (ISSUE 10): cores × quantum wall-clock
/// curve for the reference streaming workload, plus the gated 28-core
/// (or largest measured mesh's) relaxed-vs-lockstep speedup.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct MulticoreScaling {
    points: Vec<ScalingPoint>,
    /// Relaxed-engine speedup over lockstep at the largest measured mesh
    /// (best quantum): the number the floor gates.
    speedup_28: f64,
    /// The gate the measurement was checked against.
    floor: f64,
    /// `std::thread::available_parallelism` on the measuring host — the
    /// curve is only comparable between hosts of similar width.
    host_threads: usize,
}

/// One appended trajectory record. `git_rev` defaults to empty so records
/// written before the field existed keep parsing; `replay_sweep` and
/// `multicore_scaling` likewise.
#[derive(Clone, Debug, Serialize, Deserialize)]
struct PerfRecord {
    schema: u32,
    label: String,
    quick: bool,
    unix_time: u64,
    #[serde(default)]
    git_rev: String,
    points: Vec<PerfPoint>,
    total_cycles: u64,
    total_host_seconds: f64,
    total_kcycles_per_host_sec: f64,
    #[serde(default)]
    replay_sweep: Option<ReplaySweep>,
    #[serde(default)]
    multicore_scaling: Option<MulticoreScaling>,
}

/// The short git revision of the working tree: the `SAVE_GIT_REV`
/// environment variable when set (hermetic CI), else `git rev-parse
/// --short HEAD`, else `"unknown"`.
fn git_rev() -> String {
    if let Ok(rev) = std::env::var("SAVE_GIT_REV") {
        let rev = rev.trim().to_string();
        if !rev.is_empty() {
            return rev;
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Throughput ratio below which `--check` fails (the >25% regression gate).
const CHECK_FLOOR: f64 = 0.75;

fn trajectory_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_PERF.json")
}

/// The pinned reference sweep. Changing these points invalidates trajectory
/// comparability — add new points under new workload names instead.
fn reference_workloads(quick: bool) -> Vec<GemmWorkload> {
    let scale = if quick { 1 } else { 4 };
    let spec_f32 = GemmKernelSpec {
        m_tiles: 6,
        n_vecs: 4,
        pattern: BroadcastPattern::Explicit,
        precision: Precision::F32,
    };
    let spec_mp = GemmKernelSpec { precision: Precision::Mixed, ..spec_f32 };
    let compute = GemmWorkload::dense("ref-compute", spec_f32, 32, 8 * scale)
        .with_sparsity(0.3, 0.5);
    let stream = GemmWorkload {
        b_panel_tiles: 1, // stream B panels: DRAM-bound, long idle stretches
        ..GemmWorkload::dense("ref-stream", spec_f32, 32, 8 * scale).with_sparsity(0.6, 0.6)
    };
    let mixed = GemmWorkload::dense("ref-mixed", spec_mp, 32, 8 * scale)
        .with_sparsity(0.5, 0.5);
    vec![compute, stream, mixed]
}

/// Repetitions per point; the fastest is recorded. The simulation is
/// deterministic, so reps differ only in host noise (scheduling, frequency
/// ramp) — taking the minimum measures the host's ceiling, which is the
/// quantity the `--check` ratio needs to be stable run-to-run.
const REPS: usize = 3;

/// Runs `w` `REPS` times and returns (cycles, best host seconds).
fn time_point(
    w: &GemmWorkload,
    kind: ConfigKind,
    machine: MachineConfig,
    tok: &CancelToken,
) -> Result<(u64, f64), SimError> {
    let cell = CellSpec::new(w.clone(), kind, machine, 7);
    let mut cycles = 0;
    let mut best = f64::INFINITY;
    for _ in 0..REPS {
        let t0 = Instant::now();
        let r = cell.run(Some(tok))?;
        let host = t0.elapsed().as_secs_f64();
        cycles = r.cycles;
        if host < best {
            best = host;
        }
    }
    Ok((cycles, best))
}

fn measure(quick: bool, tok: &CancelToken) -> Result<Vec<PerfPoint>, SimError> {
    let sym = MachineConfig::default();
    let det = MachineConfig { cores: 4, mode: MachineMode::Detailed, ..MachineConfig::default() };
    let mut points = Vec::new();
    for w in reference_workloads(quick) {
        for kind in ConfigKind::ALL {
            let (cycles, host) = time_point(&w, kind, sym, tok)?;
            points.push(PerfPoint {
                workload: w.name.clone(),
                config: kind.label().to_string(),
                cycles,
                host_seconds: host,
                kcycles_per_host_sec: cycles as f64 / host.max(1e-9) / 1e3,
            });
        }
    }
    // One detailed multicore point: exercises the lockstep interleaving
    // (and its coordinated fast-forward) rather than the symmetric runner.
    let w = &reference_workloads(quick)[1];
    let (cycles, host) = time_point(w, ConfigKind::Save2Vpu, det, tok)?;
    points.push(PerfPoint {
        workload: format!("{}-4core", w.name),
        config: ConfigKind::Save2Vpu.label().to_string(),
        cycles,
        host_seconds: host,
        kcycles_per_host_sec: cycles as f64 / host.max(1e-9) / 1e3,
    });
    Ok(points)
}

/// Sweep-level speedup the replay benchmark must clear: a two-config quick
/// sweep has less sharing to exploit than the full four-panel sweep.
fn replay_floor(quick: bool) -> f64 {
    if quick {
        1.3
    } else {
        2.0
    }
}

/// The fig16-shaped cell list for the replay benchmark: five layer
/// instances drawn from three distinct shapes (VGG16 genuinely repeats
/// conv3_2/conv3_3, conv4_2/conv4_3, conv5_1..conv5_3 under different
/// names), submitted the way `fig16` submits them — one shared baseline
/// cell *per VPU panel* plus that panel's SAVE cell. Direct execution
/// runs every cell; the trace store records each distinct functional key
/// once and serves the rest by replay or full-result memo.
fn replay_sweep_cells(quick: bool) -> Vec<CellSpec> {
    let shape = |name: &str, m_tiles: usize, n_vecs: usize, k: usize| {
        GemmWorkload::dense(
            name,
            GemmKernelSpec {
                m_tiles,
                n_vecs,
                pattern: BroadcastPattern::Explicit,
                precision: Precision::F32,
            },
            k,
            4,
        )
        .with_sparsity(0.6, 0.6)
    };
    let instances = [
        shape("rs-conv-a.1", 6, 4, 32),
        shape("rs-conv-a.2", 6, 4, 32),
        shape("rs-conv-b.1", 4, 4, 48),
        shape("rs-conv-b.2", 4, 4, 48),
        shape("rs-conv-c.1", 6, 2, 64),
    ];
    let panels: &[ConfigKind] = if quick {
        &[ConfigKind::Save2Vpu]
    } else {
        &[ConfigKind::Save2Vpu, ConfigKind::Save1Vpu]
    };
    let machine = MachineConfig::default();
    let mut cells = Vec::new();
    for w in &instances {
        for &save in panels {
            cells.push(CellSpec::new(w.clone(), ConfigKind::Baseline, machine, 1000));
            cells.push(CellSpec::new(w.clone(), save, machine, 1000));
        }
    }
    cells
}

/// Repetitions of the replay benchmark. Each leg of one sweep lasts only
/// tens of milliseconds; timing both legs within one repetition and gating
/// on the median ratio keeps a slow moment of the host out of the gate.
const REPLAY_REPS: usize = 5;

/// Times the replay benchmark: each of [`REPLAY_REPS`] repetitions runs
/// every cell directly and then through a fresh trace store, and the
/// speedup is the median of the repetitions' direct/traced ratios. Also
/// returns the traced sweep's total simulated cycles, which the purity
/// gate requires to equal the direct sweep's.
fn replay_sweep(quick: bool, tok: &CancelToken) -> Result<(ReplaySweep, u64), SimError> {
    let cells = replay_sweep_cells(quick);
    let (mut direct_cycles, mut traced_cycles) = (0u64, 0u64);
    let (mut trace_hits, mut memo_hits) = (0u64, 0u64);
    // (direct / traced, direct s, traced s) per repetition.
    let mut reps = Vec::with_capacity(REPLAY_REPS);
    for _ in 0..REPLAY_REPS {
        let t0 = Instant::now();
        direct_cycles = 0;
        for c in &cells {
            direct_cycles += c.run(Some(tok))?.cycles;
        }
        let direct = t0.elapsed().as_secs_f64();
        // Traces for fig16-class cells are a few MB each; a small FIFO
        // bound is what the real sweeps use, and the kernel-major cell
        // order keeps the live trace in store until its last replay.
        let store = TraceStore::with_capacity(8);
        let t0 = Instant::now();
        traced_cycles = 0;
        for c in &cells {
            traced_cycles += c.run_traced(Some(tok), &store)?.cycles;
        }
        let traced = t0.elapsed().as_secs_f64();
        trace_hits = store.hits();
        memo_hits = store.result_hits();
        reps.push((direct / traced.max(1e-9), direct, traced));
    }
    reps.sort_by(|x, y| x.0.total_cmp(&y.0));
    let (speedup, direct, traced) = reps[REPLAY_REPS / 2];
    let sweep = ReplaySweep {
        cells: cells.len(),
        direct_host_seconds: direct,
        traced_host_seconds: traced,
        speedup,
        total_cycles: direct_cycles,
        trace_hits,
        memo_hits,
        floor: replay_floor(quick),
    };
    Ok((sweep, traced_cycles))
}

/// Speedup the largest mesh must reach under the relaxed engine, as a
/// function of host width. Lockstep and relaxed pay the *same* cost for
/// active core cycles and both skip inert stretches (lockstep per-core,
/// relaxed per-quantum), so on a serial host only the fast-forward
/// component remains (measured ~1.1-1.3x). The headline win is host
/// parallelism — 28 lanes spread over the worker threads — which an
/// `n`-thread host can only express up to `n`-fold. The gate therefore
/// scales with the host (0.6 per thread ≈ parallel efficiency after
/// barrier + reconcile costs) and reaches the full 2x (quick) / 4x (full)
/// targets on hosts with 8+ threads; a serial host just requires relaxed
/// to be no slower than lockstep.
fn scaling_floor(quick: bool, host_threads: usize) -> f64 {
    let target: f64 = if quick { 2.0 } else { 4.0 };
    target.min(0.6 * host_threads as f64).max(1.0)
}

/// The scaling reference workload: B streams from DRAM, so cores spend
/// most cycles waiting on memory at *per-core-divergent* times (distinct
/// data seeds → distinct sparsity patterns → drifting stall schedules).
/// Lockstep can only fast-forward when every core is simultaneously inert,
/// which drifting stalls defeat; the relaxed engine fast-forwards each
/// core independently inside its quantum — precisely the gap the scaling
/// curve measures.
fn scaling_workload(quick: bool) -> GemmWorkload {
    let spec = GemmKernelSpec {
        m_tiles: 6,
        n_vecs: 4,
        pattern: BroadcastPattern::Explicit,
        precision: Precision::F32,
    };
    let tiles = if quick { 8 } else { 16 };
    GemmWorkload {
        b_panel_tiles: 1,
        ..GemmWorkload::dense("scaling-stream", spec, 32, tiles).with_sparsity(0.6, 0.6)
    }
}

/// The measured grid. Quick keeps CI fast: the two mesh sizes that bound
/// the curve and the two quanta that matter (lockstep vs the default
/// relaxed quantum).
fn scaling_grid(quick: bool) -> (Vec<usize>, Vec<u64>) {
    if quick {
        (vec![4, 28], vec![1, 1000])
    } else {
        (vec![1, 4, 14, 28], vec![1, 100, 1000])
    }
}

/// Measures the cores × quantum wall-clock curve (best of [`REPS`] per
/// cell) and gates the largest mesh's relaxed-vs-lockstep speedup.
fn measure_scaling(quick: bool, tok: &CancelToken) -> Result<MulticoreScaling, SimError> {
    let w = scaling_workload(quick);
    let (cores_axis, quanta) = scaling_grid(quick);
    let mut points = Vec::new();
    for &cores in &cores_axis {
        let mut lockstep_host = f64::NAN;
        for &quantum in &quanta {
            let machine = MachineConfig {
                cores,
                mode: MachineMode::Detailed,
                mc: MulticoreConfig { quantum, threads: 0 },
                ..MachineConfig::default()
            };
            let (cycles, best) = time_point(&w, ConfigKind::Save2Vpu, machine, tok)?;
            if quantum == 1 {
                lockstep_host = best;
            }
            points.push(ScalingPoint {
                cores,
                quantum,
                cycles,
                host_seconds: best,
                speedup_vs_lockstep: lockstep_host / best.max(1e-9),
            });
        }
    }
    let top_cores = cores_axis.iter().copied().max().unwrap_or(0);
    let speedup_28 = points
        .iter()
        .filter(|p| p.cores == top_cores && p.quantum > 1)
        .map(|p| p.speedup_vs_lockstep)
        .fold(0.0, f64::max);
    let host_threads = host_parallelism();
    Ok(MulticoreScaling {
        points,
        speedup_28,
        floor: scaling_floor(quick, host_threads),
        host_threads,
    })
}

/// Each point's throughput over its own workload's baseline point from the
/// same run (`None` for a workload without one, e.g. the 4-core point).
/// Absolute kcyc/s swing between runs on a shared host; a same-run ratio
/// such as ref-stream 2 VPUs / baseline does not.
fn base_ratios(points: &[PerfPoint]) -> Vec<Option<f64>> {
    let base_label = ConfigKind::Baseline.label();
    points
        .iter()
        .map(|p| {
            points
                .iter()
                .find(|b| b.workload == p.workload && b.config == base_label)
                .map(|b| p.kcycles_per_host_sec / b.kcycles_per_host_sec.max(1e-9))
        })
        .collect()
}

/// The first point whose simulated cycles differ from the baseline's, with
/// the baseline's count. Both slices describe the same point set, in order.
fn first_cycle_mismatch<'a>(
    mine: &'a [PerfPoint],
    base: &[PerfPoint],
) -> Option<(&'a PerfPoint, u64)> {
    mine.iter().zip(base).find(|(m, b)| m.cycles != b.cycles).map(|(m, b)| (m, b.cycles))
}

fn load_trajectory(path: &PathBuf) -> Vec<PerfRecord> {
    match std::fs::read_to_string(path) {
        Ok(s) => serde_json::from_str(&s).unwrap_or_else(|e| {
            eprintln!("[perfstat] could not parse {}: {e}; starting fresh", path.display());
            Vec::new()
        }),
        Err(_) => Vec::new(),
    }
}

/// Fails `gate` when `value` is below `floor`; `what` says what the gate
/// protects.
fn floor_gate(gate: &'static str, value: f64, floor: f64, what: &str) -> Result<(), Failure> {
    if value < floor {
        return Err(Failure::Gate {
            gate,
            what: format!("{value:.2}x below the {floor:.2}x floor: {what}"),
        });
    }
    Ok(())
}

pub fn body(
    cli: &save_bench::BenchCli,
    session: &mut save_bench::SweepSession,
) -> Result<(), Failure> {
    let quick = cli.quick;
    let update = cli.switches.iter().any(|a| a == "--update");
    let check = cli.switches.iter().any(|a| a == "--check");
    let scaling = cli.switches.iter().any(|a| a == "--scaling");
    let label = cli.flag("--label")?.unwrap_or_else(|| "perfstat".to_string());

    // Warm-up: JIT-free, but first-touch page faults and frequency ramp
    // would otherwise land in the first measured point.
    let warm = GemmWorkload::dense(
        "warmup",
        GemmKernelSpec {
            m_tiles: 4,
            n_vecs: 2,
            pattern: BroadcastPattern::Explicit,
            precision: Precision::F32,
        },
        16,
        2,
    )
    .with_sparsity(0.3, 0.3);
    let _ = CellSpec::new(warm, ConfigKind::Save2Vpu, MachineConfig::default(), 7).run(None);

    let Some(points) = session.run("reference sweep", |tok| measure(quick, tok)) else {
        return Ok(());
    };
    let Some((replay, traced_cycles)) = session.run("replay sweep", |tok| replay_sweep(quick, tok))
    else {
        return Ok(());
    };
    if replay.total_cycles != traced_cycles {
        return Err(Failure::Gate {
            gate: "replay-purity",
            what: format!(
                "direct sweep simulated {} cycles but the traced sweep simulated {traced_cycles}",
                replay.total_cycles
            ),
        });
    }
    let mc_scaling = if scaling {
        let Some(s) = session.run("multicore scaling", |tok| measure_scaling(quick, tok)) else { return Ok(()) };
        Some(s)
    } else {
        None
    };
    let total_cycles: u64 = points.iter().map(|p| p.cycles).sum();
    let total_host: f64 = points.iter().map(|p| p.host_seconds).sum();
    let total_kcps = total_cycles as f64 / total_host.max(1e-9) / 1e3;
    let record = PerfRecord {
        schema: 1,
        label,
        quick,
        unix_time: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        git_rev: git_rev(),
        points: points.clone(),
        total_cycles,
        total_host_seconds: total_host,
        total_kcycles_per_host_sec: total_kcps,
        replay_sweep: Some(replay.clone()),
        multicore_scaling: mc_scaling.clone(),
    };

    let rows: Vec<Vec<String>> = points
        .iter()
        .zip(base_ratios(&points))
        .map(|(p, ratio)| {
            vec![
                p.workload.clone(),
                p.config.clone(),
                p.cycles.to_string(),
                format!("{:.3}", p.host_seconds),
                format!("{:.0}", p.kcycles_per_host_sec),
                ratio.map_or_else(|| "-".to_string(), |r| format!("{r:.2}x base")),
            ]
        })
        .collect();
    print_table(
        "perfstat — simulated kilocycles per host second",
        &["workload", "config", "sim cycles", "host s", "kcyc/s", "vs baseline"],
        &rows,
    );
    println!(
        "\ntotal: {total_cycles} cycles in {total_host:.3} s = {total_kcps:.0} kcycles/s"
    );
    println!(
        "replay sweep: {} cells, direct {:.3} s vs traced {:.3} s = {:.2}x \
         (floor {:.1}x; {} replay hits, {} memo hits, {} cycles bit-identical)",
        replay.cells,
        replay.direct_host_seconds,
        replay.traced_host_seconds,
        replay.speedup,
        replay.floor,
        replay.trace_hits,
        replay.memo_hits,
        replay.total_cycles,
    );
    floor_gate(
        "replay-floor",
        replay.speedup,
        replay.floor,
        "'execute once, time N' is not paying for itself",
    )?;
    if let Some(sc) = &mc_scaling {
        let rows: Vec<Vec<String>> = sc
            .points
            .iter()
            .map(|p| {
                vec![
                    p.cores.to_string(),
                    if p.quantum == 1 { "1 (lockstep)".to_string() } else { p.quantum.to_string() },
                    p.cycles.to_string(),
                    format!("{:.3}", p.host_seconds),
                    format!("{:.2}x", p.speedup_vs_lockstep),
                ]
            })
            .collect();
        print_table(
            &format!("multicore scaling — relaxed sync vs lockstep ({} host threads)", sc.host_threads),
            &["cores", "quantum", "sim cycles", "host s", "vs lockstep"],
            &rows,
        );
        println!(
            "largest mesh: relaxed engine {:.2}x over lockstep (floor {:.1}x)",
            sc.speedup_28, sc.floor
        );
        floor_gate(
            "scaling-floor",
            sc.speedup_28,
            sc.floor,
            "the relaxed-sync quantum engine is not paying for itself",
        )?;
    }

    let path = trajectory_path();
    let mut trajectory = load_trajectory(&path);

    if check {
        // Baseline = the *best* committed record measuring the same sweep:
        // same quick flag and the identical (workload, config) point set.
        // Comparing against the latest record instead lets one slow
        // measurement silently ratchet the floor down (the seed trajectory
        // did exactly that: a 931 kcyc/s record quietly became the bar
        // after a ~1100 kcyc/s one) — and comparing against a record of a
        // *different* point set is meaningless.
        let mine: Vec<(&str, &str)> =
            points.iter().map(|p| (p.workload.as_str(), p.config.as_str())).collect();
        let base = trajectory
            .iter()
            .filter(|r| {
                r.quick == quick
                    && r.points.len() == mine.len()
                    && r.points
                        .iter()
                        .zip(&mine)
                        .all(|(p, m)| (p.workload.as_str(), p.config.as_str()) == *m)
            })
            .max_by(|a, b| {
                a.total_kcycles_per_host_sec.total_cmp(&b.total_kcycles_per_host_sec)
            });
        match base {
            Some(base) => {
                let rev = if base.git_rev.is_empty() { "?" } else { &base.git_rev };
                if let Some((p, want)) = first_cycle_mismatch(&points, &base.points) {
                    return Err(Failure::Gate {
                        gate: "cycles",
                        what: format!(
                            "simulated cycles changed: {} / {} ran {} cycles, \
                             the baseline record ({} rev {rev}) has {want}",
                            p.workload, p.config, p.cycles, base.label
                        ),
                    });
                }
                println!(
                    "check: cycles bit-identical to the baseline ({} cycles over {} points)",
                    total_cycles,
                    points.len()
                );
                let ratio = total_kcps / base.total_kcycles_per_host_sec;
                println!(
                    "check: {:.0} kcyc/s vs best committed {:.0} kcyc/s ({} @ {} rev {rev}) = {ratio:.2}x",
                    total_kcps, base.total_kcycles_per_host_sec, base.label, base.unix_time,
                );
                floor_gate(
                    "throughput-floor",
                    ratio,
                    CHECK_FLOOR,
                    "throughput against the best committed record",
                )?;
            }
            None => {
                println!(
                    "check: no committed record matches this sweep's point set \
                     (quick={quick}); passing trivially"
                );
            }
        }
    }
    if update {
        trajectory.push(record);
        let s = serde_json::to_string_pretty(&trajectory)
            .map_err(|e| SimError::Io { what: format!("serialize trajectory: {e}") })?;
        std::fs::write(&path, s + "\n")
            .map_err(|e| SimError::Io { what: format!("write {}: {e}", path.display()) })?;
        println!("appended record to {}", path.display());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(workload: &str, cycles: u64) -> PerfPoint {
        PerfPoint {
            workload: workload.to_string(),
            config: "2 VPUs".to_string(),
            cycles,
            host_seconds: 1.0,
            kcycles_per_host_sec: 1.0,
        }
    }

    #[test]
    fn ratios_divide_by_the_same_workloads_baseline() {
        let at = |workload: &str, config: &str, kcps: f64| PerfPoint {
            config: config.to_string(),
            kcycles_per_host_sec: kcps,
            ..point(workload, 1)
        };
        let points = [
            at("s", "baseline", 2000.0),
            at("s", "2 VPUs", 1100.0),
            at("c", "baseline", 400.0),
            at("c", "1 VPU", 200.0),
            at("s-4core", "2 VPUs", 100.0),
        ];
        assert_eq!(base_ratios(&points), vec![Some(1.0), Some(0.55), Some(1.0), Some(0.5), None]);
    }

    #[test]
    fn cycle_gate_names_the_first_differing_point() {
        let base = [point("a", 10), point("b", 20), point("c", 30)];
        assert!(first_cycle_mismatch(&base, &base).is_none());
        let mine = [point("a", 10), point("b", 21), point("c", 31)];
        let (p, want) = first_cycle_mismatch(&mine, &base).expect("cycles differ");
        assert_eq!((p.workload.as_str(), p.cycles, want), ("b", 21, 20));
    }

    #[test]
    fn gate_failures_name_their_gate_not_io() {
        assert!(floor_gate("replay-floor", 2.03, 2.0, "speedup").is_ok());
        let shown = floor_gate("replay-floor", 1.94, 2.0, "speedup").unwrap_err().to_string();
        assert!(shown.starts_with("[gate replay-floor] 1.94x below the 2.00x floor"), "{shown}");
        assert!(!shown.contains("io"), "{shown}");
        let io = Failure::from(SimError::Io { what: "disk full".into() }).to_string();
        assert!(io.starts_with("[io]"), "{io}");
    }
}
