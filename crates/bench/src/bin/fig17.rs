//! Fig 17 — broadcast-cache designs on an embedded-broadcast kernel:
//! SAVE speedups on the FP32 backward-weights kernel of ResNet3_2 with two
//! VPUs, with no B$, a mask-design B$, and a data-design B$, at 0% and 40%
//! broadcasted sparsity across non-broadcasted sparsity levels.
//!
//! Paper landmarks: without a B$ there is no speedup at any sparsity; both
//! designs help as BS grows; only the data design keeps improving with NBS
//! (the mask design still burns an L1-D port on non-zero broadcasts).

use save_bench::print_table;
use save_core::CoreConfig;
use save_kernels::{Phase, Precision};
use save_mem::BcastDesign;
use save_sim::{CellSpec, MachineConfig, SimError};
use serde::Serialize;
use std::process::ExitCode;

#[derive(Serialize)]
// Fields are consumed via `Serialize` in the session JSON dump only.
#[allow(dead_code)]
struct Point {
    design: String,
    bs: f64,
    nbs: f64,
    speedup: f64,
}

fn main() -> ExitCode {
    save_bench::run_main("fig17", body)
}

fn body(
    cli: &save_bench::BenchCli,
    session: &mut save_bench::SweepSession,
) -> Result<(), SimError> {
    let grid = cli.grid();
    let shape = save_kernels::shapes::conv_by_name("ResNet3_2").ok_or_else(|| {
        SimError::InvalidConfig { what: "fig17: ResNet3_2 missing from the shape table".into() }
    })?;
    let w0 = shape.workload(Phase::BackwardWeights, Precision::F32);
    assert_eq!(w0.spec.pattern, save_kernels::BroadcastPattern::Embedded);

    let designs: [(&str, Option<BcastDesign>); 3] =
        [("No B$", None), ("B$ w/ masks", Some(BcastDesign::Masks)), ("B$ w/ data", Some(BcastDesign::Data))];

    // One batch of (baseline, SAVE) cell pairs, row-major. The baseline
    // never has a B$ (it is a SAVE structure), so the three designs share
    // it: the batch runs each baseline once.
    let mut base_machine = MachineConfig::default();
    base_machine.mem.bcast = None;
    let mut batch = Vec::new();
    for bs in [0.0, 0.4] {
        for (label, design) in designs {
            let mut machine = MachineConfig::default();
            machine.mem.bcast = design;
            for &nbs in &grid {
                let w = w0.clone().with_sparsity(bs, nbs);
                let seed = ((bs * 100.0) as u64) << 8 | (nbs * 100.0) as u64;
                let cell = format!("bs={bs:.1} nbs={nbs:.1}");
                batch.push((
                    format!("baseline {cell}"),
                    CellSpec::custom(w.clone(), CoreConfig::baseline(), base_machine, seed),
                ));
                batch.push((
                    format!("{label} {cell}"),
                    CellSpec::custom(w, CoreConfig::save_2vpu(), machine, seed),
                ));
            }
        }
    }
    let secs = session.spec_seconds_batch(&batch);
    let mut speedups = secs.chunks(2).map(|p| p[0] / p[1]);

    let mut points = Vec::new();
    let mut rows = Vec::new();
    for bs in [0.0, 0.4] {
        for (label, _) in designs {
            let mut row = vec![format!("{label} @ {:.0}% BS", bs * 100.0)];
            for &nbs in &grid {
                let speedup = speedups.next().unwrap_or(f64::NAN);
                row.push(format!("{speedup:.2}"));
                points.push(Point { design: label.into(), bs, nbs, speedup });
            }
            rows.push(row);
        }
    }
    let mut headers: Vec<String> = vec!["config".into()];
    headers.extend(grid.iter().map(|b| format!("NBS {:.0}%", b * 100.0)));
    let hrefs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table("Fig 17: ResNet3_2 FP32 bwd-weights (embedded broadcast), 2 VPUs", &hrefs, &rows);
    save_bench::write_json("fig17", &points)
}
