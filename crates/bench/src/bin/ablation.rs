//! Ablation studies for the design choices DESIGN.md calls out — beyond
//! the paper's own ablations (Figs 17-19), these sweep the structures SAVE
//! depends on:
//!
//! * reservation-station size — bounds the combination window (§III says
//!   the CW is capped by the 32 ISA registers at 24-28; a small RS caps it
//!   earlier);
//! * allocation width — the front-end headroom SAVE exploits (§I's
//!   5-wide-allocation vs 2-VPU observation);
//! * broadcast-cache size — the paper picks 32 entries to match the
//!   architectural register count (§IV-A);
//! * stream-prefetch depth — the memory substrate SAVE sits on;
//! * mixed-precision forwarding overlap (§V-B).

use save_bench::print_table;
use save_core::CoreConfig;
use save_kernels::{GemmWorkload, Phase, Precision};
use save_sim::{CellSpec, MachineConfig, SimError};
use std::process::ExitCode;

/// The cell running `w` under `cfg` on `m`, with the fixed data seed every
/// study uses.
fn spec(w: &GemmWorkload, cfg: CoreConfig, m: MachineConfig) -> CellSpec {
    CellSpec::custom(w.clone(), cfg, m, 1)
}

fn main() -> ExitCode {
    save_bench::run_main("ablation", body)
}

fn body(
    _cli: &save_bench::BenchCli,
    session: &mut save_bench::SweepSession,
) -> Result<(), SimError> {
    let machine = MachineConfig::default();
    let shape = save_kernels::shapes::conv_by_name("ResNet3_2").ok_or_else(|| {
        SimError::InvalidConfig { what: "ablation: ResNet3_2 missing from the shape table".into() }
    })?;
    let fwd = shape.workload(Phase::Forward, Precision::F32).with_sparsity(0.0, 0.6);
    let wgrad = shape.workload(Phase::BackwardWeights, Precision::F32).with_sparsity(0.4, 0.4);
    let mut base_machine = machine;
    base_machine.mem.bcast = None;
    let mp_shape = save_kernels::shapes::conv_by_name("ResNet4_1a").ok_or_else(|| {
        SimError::InvalidConfig { what: "ablation: ResNet4_1a missing from the shape table".into() }
    })?;
    let mp = mp_shape.workload(Phase::BackwardInput, Precision::Mixed).with_sparsity(0.0, 0.6);
    let widths = [3usize, 4, 5, 6];
    let overlaps = [0u64, 1, 2, 3];

    // The journaled timings — three baselines, the width study's
    // (baseline, SAVE) pairs and the overlap study — as one batch.
    let mut batch = vec![
        ("baseline fwd".to_string(), spec(&fwd, CoreConfig::baseline(), machine)),
        ("baseline wgrad".to_string(), spec(&wgrad, CoreConfig::baseline(), base_machine)),
        ("baseline mp".to_string(), spec(&mp, CoreConfig::baseline(), machine)),
    ];
    for width in widths {
        let base = CoreConfig { issue_width: width, commit_width: width, ..CoreConfig::baseline() };
        let cfg = CoreConfig { issue_width: width, commit_width: width, ..CoreConfig::save_2vpu() };
        batch.push((format!("width={width} baseline"), spec(&fwd, base, machine)));
        batch.push((format!("width={width}"), spec(&fwd, cfg, machine)));
    }
    for overlap in overlaps {
        let cfg = CoreConfig { mp_forward_overlap: overlap, ..CoreConfig::save_1vpu() };
        batch.push((format!("overlap={overlap}"), spec(&mp, cfg, machine)));
    }
    let secs = session.spec_seconds_batch(&batch);
    let (base_time, tb_wgrad, tb_mp) = (secs[0], secs[1], secs[2]);
    let (width_secs, overlap_secs) = secs[3..].split_at(2 * widths.len());

    // 1. RS size: the combination window is RS-bound until the 32-register
    // limit takes over.
    let mut rows = Vec::new();
    for rs in [24usize, 48, 64, 97, 128] {
        let cfg = CoreConfig { rs_entries: rs, ..CoreConfig::save_2vpu() };
        let cell = spec(&fwd, cfg, machine);
        let Some(r) = session.run(&format!("rs={rs}"), |tok| cell.run(Some(tok))) else {
            continue;
        };
        rows.push(vec![
            format!("{rs}"),
            format!("{:.2}x", base_time / r.seconds),
            format!("{:.1}", r.stats.mean_cw()),
        ]);
    }
    print_table(
        "Ablation: reservation-station size (ResNet3_2 fwd FP32, 60% NBS)",
        &["RS entries", "speedup", "mean CW"],
        &rows,
    );

    // 2. Allocation width.
    let mut rows = Vec::new();
    for (width, pair) in widths.iter().zip(width_secs.chunks(2)) {
        let speedup = pair[0] / pair[1];
        rows.push(vec![format!("{width}-wide"), format!("{speedup:.2}x")]);
    }
    print_table(
        "Ablation: allocation width (speedup vs same-width baseline)",
        &["front end", "speedup"],
        &rows,
    );

    // 3. Broadcast-cache entries, on the embedded-broadcast wgrad kernel.
    let mut rows = Vec::new();
    for entries in [4usize, 8, 16, 32, 64] {
        let mut m = machine;
        m.mem.bcast_entries = entries;
        let cell = spec(&wgrad, CoreConfig::save_2vpu(), m);
        let Some(r) = session.run(&format!("bcast={entries}"), |tok| cell.run(Some(tok))) else {
            continue;
        };
        let hit_rate = if r.stats.bcast_loads == 0 {
            0.0
        } else {
            r.stats.bcast_hits as f64 / r.stats.bcast_loads as f64
        };
        rows.push(vec![
            format!("{entries}"),
            format!("{:.2}x", tb_wgrad / r.seconds),
            format!("{:.1}%", hit_rate * 100.0),
        ]);
    }
    print_table(
        "Ablation: B$ entries (ResNet3_2 wgrad FP32, embedded broadcast, 40%/40%)",
        &["B$ entries", "speedup", "B$ hit rate"],
        &rows,
    );

    // 4. Prefetch depth.
    let mut rows = Vec::new();
    for depth in [0u64, 8, 16, 64] {
        let mut m = machine;
        m.mem.prefetch_degree = depth;
        let Some((tbb, ts)) = session.run(&format!("prefetch={depth}"), |tok| {
            let tbb = spec(&fwd, CoreConfig::baseline(), m).run(Some(tok))?.seconds;
            let ts = spec(&fwd, CoreConfig::save_2vpu(), m).run(Some(tok))?.seconds;
            Ok((tbb, ts))
        }) else {
            continue;
        };
        rows.push(vec![
            format!("{depth}"),
            format!("{:.2}", tbb / base_time),
            format!("{:.2}x", tbb / ts),
        ]);
    }
    print_table(
        "Ablation: stream-prefetch depth (baseline time vs depth-64 baseline; SAVE speedup)",
        &["depth", "baseline slowdown", "SAVE speedup"],
        &rows,
    );

    // 5. MP partial-result forwarding overlap (§V-B).
    let mut rows = Vec::new();
    for (overlap, ts) in overlaps.iter().zip(overlap_secs) {
        rows.push(vec![format!("{overlap} cycles"), format!("{:.2}x", tb_mp / ts)]);
    }
    print_table(
        "Ablation: MP partial-result forwarding overlap (ResNet4_1a MP bwd-input, 1 VPU)",
        &["overlap", "speedup"],
        &rows,
    );
    Ok(())
}
