//! Quickstart: simulate one sparse GEMM kernel on the baseline machine and
//! on SAVE, verify the numerical result, and print the speedup.
//!
//! Run with: `cargo run --release --example quickstart`

use save::kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
use save::sim::{CellSpec, ConfigKind, MachineConfig, SimError};

fn main() -> Result<(), SimError> {
    // A DNNL-style register-blocked GEMM micro-kernel: 7x3 accumulators,
    // explicit broadcasts, FP32; 40% broadcasted sparsity (zero activations)
    // and 60% non-broadcasted sparsity (pruned weights).
    let workload = GemmWorkload::dense(
        "quickstart",
        GemmKernelSpec {
            m_tiles: 7,
            n_vecs: 3,
            pattern: BroadcastPattern::Explicit,
            precision: Precision::F32,
        },
        128, // reduction length
        6,   // tiles
    )
    .with_sparsity(0.4, 0.6);

    // The paper's 28-core machine, in the fast symmetric mode.
    let machine = MachineConfig::default();

    println!("simulating `{}` ({} VFMA µops)...", workload.name, workload.fma_count());
    // One self-contained cell per operating point, with output verification.
    let run = |kind| {
        CellSpec { verify: true, ..CellSpec::new(workload.clone(), kind, machine, 42) }.run(None)
    };
    let baseline = run(ConfigKind::Baseline)?;
    let save2 = run(ConfigKind::Save2Vpu)?;
    let save1 = run(ConfigKind::Save1Vpu)?;

    println!("baseline (2 VPUs @ 1.7 GHz): {:>8} cycles", baseline.cycles);
    println!(
        "SAVE     (2 VPUs @ 1.7 GHz): {:>8} cycles  -> {:.2}x speedup",
        save2.cycles,
        baseline.seconds / save2.seconds
    );
    println!(
        "SAVE     (1 VPU  @ 2.1 GHz): {:>8} cycles  -> {:.2}x speedup",
        save1.cycles,
        baseline.seconds / save1.seconds
    );
    println!(
        "VPU ops: baseline {} -> SAVE {} ({:.1}% skipped or coalesced away)",
        baseline.stats.vpu_ops,
        save2.stats.vpu_ops,
        100.0 * (1.0 - save2.stats.vpu_ops as f64 / baseline.stats.vpu_ops as f64)
    );
    println!("numerical outputs verified against the scalar reference on every run.");
    Ok(())
}
