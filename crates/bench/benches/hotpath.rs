//! Criterion micro-benchmarks of the cycle-loop hot path itself: whole
//! small kernels driven through `CellSpec::run`, which exercises the
//! scheduler (window masks + select), rename/allocate, the MGU sync path,
//! and write-back every cycle. The `_ff_off` variants pin the raw cost of
//! an executed cycle; the `_ff_on` variants show what event-driven
//! fast-forward recovers on idle-heavy workloads. The baseline stream and
//! mixed-precision variants cover the two slowest cell classes: one run
//! gives the stream 2-VPU/baseline cost ratio, and the mixed-precision
//! loop isolates the MP select. The 1-VPU compute loop isolates vertical
//! select at its most contended (every lane position competes for one
//! temp). Tracked over time via
//! `perfstat` (see BENCH_PERF.json); these exist to localize a regression
//! the trajectory only detects in aggregate.

use criterion::{criterion_group, criterion_main, Criterion};
use save_core::CoreConfig;
use save_kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Precision};
use save_sim::{CellSpec, ConfigKind, MachineConfig};

fn spec() -> GemmKernelSpec {
    GemmKernelSpec {
        m_tiles: 6,
        n_vecs: 4,
        pattern: BroadcastPattern::Explicit,
        precision: Precision::F32,
    }
}

/// Compute-bound: B panels resident, nearly every cycle does work, so
/// fast-forward barely engages and the number measures the step loop.
fn compute_workload() -> GemmWorkload {
    GemmWorkload::dense("hot-compute", spec(), 32, 2).with_sparsity(0.3, 0.5)
}

/// Memory-streaming: B panels stream from DRAM, leaving long inert
/// stretches — the fast-forward target case.
fn stream_workload() -> GemmWorkload {
    GemmWorkload {
        b_panel_tiles: 1,
        ..GemmWorkload::dense("hot-stream", spec(), 32, 2).with_sparsity(0.6, 0.6)
    }
}

/// Mixed precision: BF16 chains through the multiplicand-lane compression
/// select, the most expensive per-cycle scheduler.
fn mixed_workload() -> GemmWorkload {
    let spec_mp = GemmKernelSpec { precision: Precision::Mixed, ..spec() };
    GemmWorkload::dense("hot-mixed", spec_mp, 32, 2).with_sparsity(0.5, 0.5)
}

fn run(w: &GemmWorkload, cfg: &CoreConfig) -> u64 {
    let cell = CellSpec::custom(w.clone(), *cfg, MachineConfig::default(), 7);
    cell.run(None).expect("bench kernel must run clean").cycles
}

fn bench_step_loop(c: &mut Criterion) {
    let on = ConfigKind::Save2Vpu.core_config();
    let off = CoreConfig { fast_forward: false, ..on };
    let compute = compute_workload();
    let stream = stream_workload();
    c.bench_function("hotpath/compute_step_loop", |b| {
        b.iter(|| std::hint::black_box(run(&compute, &off)))
    });
    c.bench_function("hotpath/stream_step_loop_ff_off", |b| {
        b.iter(|| std::hint::black_box(run(&stream, &off)))
    });
    c.bench_function("hotpath/stream_step_loop_ff_on", |b| {
        b.iter(|| std::hint::black_box(run(&stream, &on)))
    });
    c.bench_function("hotpath/stream_baseline_ff_on", |b| {
        let cfg = ConfigKind::Baseline.core_config();
        b.iter(|| std::hint::black_box(run(&stream, &cfg)))
    });
    c.bench_function("hotpath/compute_save1vpu_step_loop", |b| {
        let cfg = CoreConfig { fast_forward: false, ..ConfigKind::Save1Vpu.core_config() };
        b.iter(|| std::hint::black_box(run(&compute, &cfg)))
    });
    let mixed = mixed_workload();
    c.bench_function("hotpath/mixed_save1vpu_step_loop", |b| {
        let cfg = CoreConfig { fast_forward: false, ..ConfigKind::Save1Vpu.core_config() };
        b.iter(|| std::hint::black_box(run(&mixed, &cfg)))
    });
}

fn bench_baseline_vs_save(c: &mut Criterion) {
    // Scheduler cost comparison: the Baseline selector walks a plain ready
    // scan, the SAVE selector additionally coalesces and compresses — both
    // go through the same zero-allocation scratch and remove only the
    // entries they issued or finished, by ROB id (`Rs::remove`), so their
    // gap is the price of sparsity awareness, not of the harness or of
    // whole-station RS upkeep.
    let compute = compute_workload();
    c.bench_function("hotpath/select_baseline", |b| {
        let cfg = ConfigKind::Baseline.core_config();
        b.iter(|| std::hint::black_box(run(&compute, &cfg)))
    });
    c.bench_function("hotpath/select_save2vpu", |b| {
        let cfg = ConfigKind::Save2Vpu.core_config();
        b.iter(|| std::hint::black_box(run(&compute, &cfg)))
    });
}

criterion_group! {
    name = hotpath;
    config = Criterion::default().sample_size(10);
    targets = bench_step_loop, bench_baseline_vs_save
}
criterion_main!(hotpath);
