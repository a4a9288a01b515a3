//! Power/energy report (extension of §IV-D): energy per kernel and mean
//! power for the three operating points across sparsity levels, using the
//! Table II B$ figures and a documented core power model. Shows the §IV-D
//! claim quantitatively: at high sparsity, disabling one VPU saves energy
//! at little or no performance cost.

use save_bench::print_table;
use save_kernels::{Phase, Precision};
use save_sim::{CellSpec, ConfigKind, MachineConfig, PowerModel, SimError};
use std::process::ExitCode;

fn main() -> ExitCode {
    save_bench::run_main("power", body)
}

fn body(
    _cli: &save_bench::BenchCli,
    session: &mut save_bench::SweepSession,
) -> Result<(), SimError> {
    let machine = MachineConfig::default();
    let pm = PowerModel::default();
    let w0 = save_bench::figures::conv("ResNet3_2")?.workload(Phase::Forward, Precision::F32);

    let mut rows = Vec::new();
    for sparsity in [0.0, 0.3, 0.6, 0.9] {
        let w = w0.clone().with_sparsity(sparsity, sparsity);
        for (kind, vpus) in
            [(ConfigKind::Baseline, 2), (ConfigKind::Save2Vpu, 2), (ConfigKind::Save1Vpu, 1)]
        {
            let label = format!("{} @ {:.0}%", kind.label(), sparsity * 100.0);
            let cell = CellSpec::new(w.clone(), kind, machine, 2);
            let Some(r) = session.run(&label, |tok| cell.run(Some(tok))) else {
                continue;
            };
            let e = pm.estimate(&r, vpus);
            rows.push(vec![
                format!("{:.0}%", sparsity * 100.0),
                kind.label().to_string(),
                format!("{:.2} µJ", e.total_j() * 1e6),
                format!("{:.2} W", e.mean_power_w(r.seconds)),
                format!("{:.2} µs", r.seconds * 1e6),
                format!("{:.1}%", 100.0 * e.vpu_j / e.total_j()),
            ]);
        }
    }
    print_table(
        "Power report: ResNet3_2 fwd FP32 (energy per scaled-down kernel run)",
        &["sparsity", "config", "energy", "mean power", "time", "VPU share"],
        &rows,
    );
    save_bench::write_json("power", &rows)?;
    println!("\n§IV-D takeaway: at high sparsity the 1-VPU point matches or beats the");
    println!("2-VPU point in time while drawing less power — the frequency boost is free.");
    Ok(())
}
