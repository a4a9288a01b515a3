//! Fig 18 — load-balancing techniques for VPU lanes: vertical coalescing
//! (VC), rotate-vertical coalescing (RVC), lane-wise dependence (LWD),
//! their combination, and the impractical horizontal compression (HC,
//! +6 cycles latency), on the two backward-input kernels of pruned
//! ResNet-50 (the paper's only NBS-without-BS case), with one VPU.
//!
//! Paper landmarks: on ResNet3_2 (28 accumulators, non-broadcast register
//! reused 28x, effective CW ~ 1) RVC dominates VC+LWD; on ResNet5_1a
//! (21 accumulators, reuse 7, effective CW ~ 3) VC+LWD gains more than
//! RVC; RVC+LWD is best everywhere; HC wins slightly at medium sparsity but
//! loses at high sparsity where its extra latency bites.

use save_bench::print_table;
use save_core::{CoreConfig, SchedulerKind};
use save_kernels::{Phase, Precision};
use save_sim::{CellSpec, MachineConfig, SimError};
use serde::Serialize;
use std::process::ExitCode;

#[derive(Serialize)]
// Fields are consumed via `Serialize` in the session JSON dump only.
#[allow(dead_code)]
struct Point {
    kernel: String,
    technique: String,
    nbs: f64,
    speedup: f64,
}

fn techniques() -> Vec<(&'static str, CoreConfig)> {
    let base = CoreConfig::save_1vpu();
    vec![
        ("VC", CoreConfig { rotate: false, lane_wise: false, ..base }),
        ("RVC", CoreConfig { rotate: true, lane_wise: false, ..base }),
        ("VC+LWD", CoreConfig { rotate: false, lane_wise: true, ..base }),
        ("RVC+LWD", CoreConfig { rotate: true, lane_wise: true, ..base }),
        (
            "HC",
            CoreConfig {
                scheduler: SchedulerKind::Horizontal,
                rotate: false,
                lane_wise: true,
                ..base
            },
        ),
    ]
}

fn main() -> ExitCode {
    save_bench::run_main("fig18", body)
}

fn body(
    cli: &save_bench::BenchCli,
    session: &mut save_bench::SweepSession,
) -> Result<(), SimError> {
    let grid = cli.grid();
    let machine = MachineConfig::default();
    let kernels = ["ResNet3_2", "ResNet5_1a"];
    let mut shapes = Vec::new();
    // One batch of (baseline, technique) cell pairs over both kernels; the
    // five techniques share each baseline, which the batch runs once.
    let mut batch = Vec::new();
    for name in kernels {
        let shape = save_kernels::shapes::conv_by_name(name).ok_or_else(|| {
            SimError::InvalidConfig { what: format!("fig18: {name} missing from the shape table") }
        })?;
        let w0 = shape.workload(Phase::BackwardInput, Precision::F32);
        for (label, cfg) in techniques() {
            for &nbs in &grid {
                let w = w0.clone().with_sparsity(0.0, nbs);
                let seed = (nbs * 100.0) as u64;
                let spec = |cfg| CellSpec::custom(w.clone(), cfg, machine, seed);
                batch.push((format!("{name} baseline nbs={nbs:.1}"), spec(CoreConfig::baseline())));
                batch.push((format!("{name} {label} nbs={nbs:.1}"), spec(cfg)));
            }
        }
        shapes.push(shape);
    }
    let secs = session.spec_seconds_batch(&batch);
    let mut speedups = secs.chunks(2).map(|p| p[0] / p[1]);

    let mut points = Vec::new();
    for (name, shape) in kernels.into_iter().zip(shapes) {
        let (m, n) = shape.blocking(Phase::BackwardInput);
        println!(
            "\nkernel {name} bwd-input: {} accumulators, register reuse {}, effective CW ~ {}",
            m * n,
            m,
            n
        );
        let mut rows = Vec::new();
        for (label, _) in techniques() {
            let mut row = vec![label.to_string()];
            for &nbs in &grid {
                let speedup = speedups.next().unwrap_or(f64::NAN);
                row.push(format!("{speedup:.2}"));
                points.push(Point {
                    kernel: name.into(),
                    technique: label.into(),
                    nbs,
                    speedup,
                });
            }
            rows.push(row);
        }
        let mut headers: Vec<String> = vec!["technique".into()];
        headers.extend(grid.iter().map(|b| format!("NBS {:.0}%", b * 100.0)));
        let hrefs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
        print_table(
            &format!("Fig 18: {name} FP32 bwd-input, 1 VPU, speedup over 2-VPU baseline"),
            &hrefs,
            &rows,
        );
    }
    save_bench::write_json("fig18", &points)
}
