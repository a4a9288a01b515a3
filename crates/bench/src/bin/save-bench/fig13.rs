//! Fig 13 — weight-pruning schedules for ResNet-50 and GNMT training.

use save_sim::SimError;
use save_sparsity::PruningSchedule;

pub fn body() -> Result<(), SimError> {
    let rn = PruningSchedule::resnet50();
    println!("== Fig 13 (top): ResNet-50 training with pruning ==");
    println!("epoch: weight sparsity");
    for (t, s) in rn.series(6) {
        println!("{:>6.0}: {:>5.1}%", t, s * 100.0);
    }
    save_bench::write_json("fig13_resnet50", &rn.series(1))?;

    let g = PruningSchedule::gnmt();
    println!("\n== Fig 13 (bottom): GNMT training with pruning ==");
    println!("iteration: weight sparsity");
    for (t, s) in g.series(20_000) {
        println!("{:>9.1E}: {:>5.1}%", t, s * 100.0);
    }
    save_bench::write_json("fig13_gnmt", &g.series(5_000))?;

    assert!((rn.final_sparsity() - 0.8).abs() < 1e-9);
    assert!((g.final_sparsity() - 0.9).abs() < 1e-9);
    println!("\nFinal sparsities: ResNet-50 80%, GNMT 90% — matching §VI.");
    Ok(())
}
