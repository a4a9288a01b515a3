//! Per-layer network report: for one network and precision, the per-layer
//! inference sparsity and speedups under each SAVE operating point — the
//! layer-resolved view behind Fig 14's aggregates. The layers are the
//! [`save_sim::Estimator`]'s inference cells, resolved as one batch and
//! reduced by it, so the whole-network line equals fig14's inference row.
//!
//! With `--mesh`, the heaviest layer additionally runs on the detailed
//! NUCA/mesh machine under the relaxed-sync engine and the uncore
//! contention report (per-link flit occupancy, per-slice MSHR conflicts,
//! DRAM queue depth — DESIGN.md §5i) is printed and saved as JSON.
//!
//! Usage: `netreport [vgg16|resnet50|resnet50-pruned|gnmt] [--mp]
//!                   [--mesh] [--cores N] [--quantum Q]`

use save_bench::print_table;
use save_kernels::{GemmWorkload, Phase, Precision};
use save_sim::runner::run_kernel_full;
use save_sim::{
    ConfigKind, Estimator, EstimatorConfig, MachineConfig, MachineMode, MulticoreConfig, Network,
    SimError,
};
use save_sparsity::NetKind;
use serde::Serialize;
use std::process::ExitCode;

/// One operating point's mesh-contention measurement (the JSON surface).
#[derive(Serialize)]
struct MeshRecord {
    layer: String,
    kind: String,
    cores: usize,
    quantum: u64,
    seconds: f64,
    l3_hit_rate: f64,
    mshr_conflicts: u64,
    max_link_flits: u64,
    mean_link_flits: f64,
    hottest_links: Vec<(usize, usize, u64)>,
    dram_max_queue: u64,
    dram_mean_queue: f64,
}

const DIR_NAMES: [&str; 4] = ["E", "W", "S", "N"];

fn main() -> ExitCode {
    save_bench::run_main("netreport", body)
}

/// Runs the network's heaviest layer on the detailed NUCA/mesh `machine`
/// at every operating point and surfaces the uncore contention counters.
fn mesh_report(
    session: &mut save_bench::SweepSession,
    layer_name: &str,
    w: &GemmWorkload,
    machine: &MachineConfig,
) -> Result<(), SimError> {
    let (cores, quantum) = (machine.cores, machine.mc.quantum);
    let mut records = Vec::new();
    let mut rows = Vec::new();
    for kind in ConfigKind::ALL {
        let Some(run) = session.run(&format!("mesh-{kind:?}"), |tok| {
            run_kernel_full(w, kind, machine, 1, false, Some(tok))
        }) else {
            continue;
        };
        let u = &run.uncore;
        let l3_total = (u.l3_hits + u.l3_misses).max(1);
        let rec = MeshRecord {
            layer: layer_name.to_string(),
            kind: format!("{kind:?}"),
            cores,
            quantum,
            seconds: run.result.seconds,
            l3_hit_rate: u.l3_hits as f64 / l3_total as f64,
            mshr_conflicts: u.total_mshr_conflicts(),
            max_link_flits: u.max_link_flits,
            mean_link_flits: u.mean_link_flits,
            hottest_links: u.hottest_links(4),
            dram_max_queue: u.dram.max_queue_depth,
            dram_mean_queue: u.dram.queue_depth_sum as f64 / u.dram.queue_samples.max(1) as f64,
        };
        rows.push(vec![
            rec.kind.clone(),
            format!("{:.3e}", rec.seconds),
            format!("{:.1}%", rec.l3_hit_rate * 100.0),
            format!("{}", rec.mshr_conflicts),
            format!("{}", rec.max_link_flits),
            format!("{:.1}", rec.mean_link_flits),
            format!("{}", rec.dram_max_queue),
            format!("{:.2}", rec.dram_mean_queue),
            rec.hottest_links
                .iter()
                .map(|&(tile, dir, f)| format!("t{tile}{}:{f}", DIR_NAMES[dir]))
                .collect::<Vec<_>>()
                .join(" "),
        ]);
        records.push(rec);
    }
    print_table(
        &format!("Mesh contention: {layer_name} ({cores} cores, quantum {quantum})"),
        &[
            "config",
            "seconds",
            "L3 hit",
            "MSHR conf",
            "max flits",
            "mean flits",
            "DRAM maxQ",
            "DRAM meanQ",
            "hottest links",
        ],
        &rows,
    );
    save_bench::write_json("netreport_mesh", &records)?;
    Ok(())
}

fn body(
    cli: &save_bench::BenchCli,
    session: &mut save_bench::SweepSession,
) -> Result<(), SimError> {
    let kind = match cli.rest.first().map(|s| s.as_str()) {
        Some("vgg16") => NetKind::Vgg16Dense,
        Some("resnet50") => NetKind::ResNet50Dense,
        Some("gnmt") => NetKind::GnmtPruned,
        _ => NetKind::ResNet50Pruned,
    };
    let precision =
        if cli.rest.iter().any(|a| a == "--mp") { Precision::Mixed } else { Precision::F32 };
    // The `--mesh` machine, parsed before any cell runs.
    let mesh = MachineConfig {
        cores: cli.flag("--cores")?.unwrap_or(28),
        mode: MachineMode::Detailed,
        mc: MulticoreConfig { quantum: cli.flag("--quantum")?.unwrap_or(1000), threads: 0 },
        ..Default::default()
    };
    let net = Network::build(kind);
    // The default machine and the forward kernels at end-of-training
    // sparsity: the cells fig14's inference row reads.
    let est = Estimator::new(EstimatorConfig::default());
    let cells = est.inference_cells(&net, precision);
    let secs: Vec<f64> = session.spec_seconds_batch(&cells).into_iter().map(|(s, _)| s).collect();
    let inf = est.inference(&net, precision, &secs);
    let total_b = inf.baseline.total();

    let per_layer = est.inference_layers(&net, precision, &secs);
    let rows: Vec<Vec<String>> = per_layer
        .iter()
        .enumerate()
        .map(|(li, &[tb, t2, t1])| {
            let p = net.inference_point(li);
            vec![
                net.layers[li].name().to_string(),
                format!("{:.0}%", p.a * 100.0),
                format!("{:.0}%", p.b * 100.0),
                format!("{:.2}x", tb / t2),
                format!("{:.2}x", tb / t1),
                format!("{:.2}x", tb / t2.min(t1)),
                format!("{:.1}%", tb / total_b * 100.0),
            ]
        })
        .collect();
    print_table(
        &format!("Per-layer inference report: {} ({precision})", kind.label()),
        &["layer", "BS", "NBS", "2 VPUs", "1 VPU", "dynamic", "time share"],
        &rows,
    );
    println!(
        "\nwhole network: 2 VPUs {:.2}x | 1 VPU {:.2}x | dynamic {:.2}x",
        total_b / inf.save2.total(),
        total_b / inf.save1.total(),
        total_b / inf.dynamic.total()
    );
    if cli.rest.iter().any(|a| a == "--mesh") {
        // The layer with the most baseline time.
        let heaviest = |h: usize, li: usize| if per_layer[li][0] > per_layer[h][0] { li } else { h };
        if let Some(li) = (0..per_layer.len()).reduce(heaviest) {
            let p = net.inference_point(li);
            let w = net.layers[li].workload(Phase::Forward, precision).with_sparsity(p.a, p.b);
            println!();
            mesh_report(session, net.layers[li].name(), &w, &mesh)?;
        }
    }
    Ok(())
}
