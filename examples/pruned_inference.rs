//! Whole-network inference on pruned ResNet-50 (the Fig 14a scenario):
//! estimates the end-to-end speedup of SAVE at realistic end-of-training
//! sparsity, including the per-kernel dynamic 1-vs-2-VPU selection.
//!
//! Run with: `cargo run --release --example pruned_inference`
//! (it simulates every unique layer shape at three operating points).

use save::kernels::Precision;
use save::sim::{CancelToken, CellSpec, Estimator, EstimatorConfig, Executor, Network, SimError};
use save::sparsity::NetKind;

/// Resolves every cell on all host threads, with no journal and a token no
/// signal cancels (Ctrl-C ends the process); the first failed cell fails
/// the estimate.
fn resolve(cells: &[(String, CellSpec)]) -> Result<Vec<f64>, SimError> {
    let exec = Executor::new(CancelToken::new());
    exec.resolve_all(cells, 0)?
        .into_iter()
        .map(|r| r.and_then(|cell| cell.error.map_or(Ok(cell.rec.secs()), Err)))
        .collect()
}

fn main() -> Result<(), SimError> {
    let cfg = EstimatorConfig { grid: vec![0.0, 0.3, 0.6, 0.9], ..Default::default() };
    let est = Estimator::new(cfg);

    let net = Network::build(NetKind::ResNet50Pruned);
    println!(
        "pruned ResNet-50: {} unique conv shapes, final weight sparsity {:.0}%",
        net.layers.len(),
        net.schedule.final_sparsity() * 100.0
    );
    for prec in [Precision::F32, Precision::Mixed] {
        let inf = est.inference(&net, prec, &resolve(&est.inference_cells(&net, prec))?);
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
