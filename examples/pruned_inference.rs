//! Whole-network inference on pruned ResNet-50 (the Fig 14a scenario):
//! estimates the end-to-end speedup of SAVE at realistic end-of-training
//! sparsity, including the per-kernel dynamic 1-vs-2-VPU selection.
//!
//! Run with: `cargo run --release --example pruned_inference`
//! (takes a couple of minutes: it sweeps every unique layer shape).

use save::kernels::Precision;
use save::sim::{Estimator, EstimatorConfig, Executor, Network, SimError, Supervisor};
use save::sparsity::NetKind;

fn main() -> Result<(), SimError> {
    let cfg = EstimatorConfig { grid: vec![0.0, 0.3, 0.6, 0.9], ..Default::default() };
    // The supervisor enforces deadlines and cancellation for the sweeps.
    let sup = Supervisor::start(false);
    let est = Estimator::new(cfg, Executor::new(sup.handle()));

    let net = Network::build(NetKind::ResNet50Pruned);
    println!(
        "pruned ResNet-50: {} unique conv shapes, final weight sparsity {:.0}%",
        net.layers.len(),
        net.schedule.final_sparsity() * 100.0
    );
    for prec in [Precision::F32, Precision::Mixed] {
        let inf = est.estimate_inference(&net, prec)?;
        let base = inf.baseline.total();
        println!("\n{prec} inference, normalized execution time (baseline = 1.00):");
        println!("  SAVE 2 VPUs : {:.2}  ({:.2}x)", inf.save2.total() / base, base / inf.save2.total());
        println!("  SAVE 1 VPU  : {:.2}  ({:.2}x)", inf.save1.total() / base, base / inf.save1.total());
        println!("  dynamic     : {:.2}  ({:.2}x)", inf.dynamic.total() / base, base / inf.dynamic.total());
        println!(
            "  first layer (dense input, no BS): {:.0}% of baseline time",
            inf.baseline.first_layer / base * 100.0
        );
    }
    println!("\npaper (Fig 14a, MP dynamic): 1.59x");
    Ok(())
}
