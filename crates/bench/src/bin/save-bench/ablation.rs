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
//!
//! Width, prefetch and overlap are the `ablation` figure of
//! [`save_bench::figures`]. The RS and B$ studies read `CoreStats`, which
//! the result store does not journal, so they run as plain session cells.

use save_bench::figures::{self, Figure, Table};
use save_bench::{print_table, SweepSession};
use save_core::CoreConfig;
use save_kernels::{GemmWorkload, Phase, Precision};
use save_sim::{CellSpec, KernelResult, MachineConfig, SimError};

/// One study's rows `[param, speedup, stat]`: each `(param, cfg, machine)`
/// SAVE cell on `w` against the baseline on `base_machine`. A failed cell
/// is left out.
fn study(
    session: &mut SweepSession,
    name: &str,
    w: &GemmWorkload,
    base_machine: MachineConfig,
    cells: impl IntoIterator<Item = (String, CoreConfig, MachineConfig)>,
    stat: impl Fn(&KernelResult) -> String,
) -> Vec<Vec<String>> {
    let mut run = |label: String, cfg, m| {
        let cell = CellSpec::custom(w.clone(), cfg, m, 1);
        session.run(&label, |tok| cell.run(Some(tok)))
    };
    let base_time = run(format!("{name} baseline"), CoreConfig::baseline(), base_machine).map_or(f64::NAN, |r| r.seconds);
    let mut rows = Vec::new();
    for (param, cfg, m) in cells {
        if let Some(r) = run(format!("{name}={param}"), cfg, m) {
            rows.push(vec![param, format!("{:.2}x", base_time / r.seconds), stat(&r)]);
        }
    }
    rows
}

pub fn body(cli: &save_bench::BenchCli, session: &mut SweepSession) -> Result<(), SimError> {
    let report = Figure::build("ablation", cli)?.run(session);
    let machine = MachineConfig::default();
    let shape = figures::conv("ResNet3_2")?;
    let fwd = shape.workload(Phase::Forward, Precision::F32).with_sparsity(0.0, 0.6);
    let wgrad = shape.workload(Phase::BackwardWeights, Precision::F32).with_sparsity(0.4, 0.4);

    // 1. RS size: the combination window is RS-bound until the 32-register
    // limit takes over.
    let rs = [24usize, 48, 64, 97, 128]
        .map(|rs| (rs.to_string(), CoreConfig { rs_entries: rs, ..CoreConfig::save_2vpu() }, machine));
    let rows = study(session, "rs", &fwd, machine, rs, |r| format!("{:.1}", r.stats.mean_cw()));
    let title = "Ablation: reservation-station size (ResNet3_2 fwd FP32, 60% NBS)";
    print_table(title, &["RS entries", "speedup", "mean CW"], &rows);

    // 2. Allocation width.
    report.tables[0].print();

    // 3. Broadcast-cache entries, on the embedded-broadcast wgrad kernel.
    let mut base_machine = machine;
    base_machine.mem.bcast = None;
    let entries = [4usize, 8, 16, 32, 64].map(|entries| {
        let mut m = machine;
        m.mem.bcast_entries = entries;
        (entries.to_string(), CoreConfig::save_2vpu(), m)
    });
    let rows = study(session, "bcast", &wgrad, base_machine, entries, |r| {
        format!("{:.1}%", r.stats.bcast_hits as f64 / r.stats.bcast_loads.max(1) as f64 * 100.0)
    });
    let title = "Ablation: B$ entries (ResNet3_2 wgrad FP32, embedded broadcast, 40%/40%)";
    print_table(title, &["B$ entries", "speedup", "B$ hit rate"], &rows);

    // 4. Prefetch depth. 5. MP partial-result forwarding overlap (§V-B).
    report.tables[1..].iter().for_each(Table::print);
    Ok(())
}
