//! Criterion benchmarks — one group per table/figure of the paper.
//!
//! Each group runs a single representative point of the corresponding
//! experiment (the full sweeps live in the `figN`/`tableN` regeneration
//! binaries) so `cargo bench` exercises every experiment's code path with
//! statistical timing of the simulator itself.

use criterion::{criterion_group, criterion_main, Criterion};
use save_core::CoreConfig;
use save_kernels::{Phase, Precision};
use save_mem::energy::{PrecisionSupport, StorageModel};
use save_sim::{CellSpec, ConfigKind, MachineConfig, Network};
use save_sparsity::{ActivationModel, NetKind, PruningSchedule};

fn quick_machine() -> MachineConfig {
    MachineConfig::default()
}

fn small(name: &str, phase: Phase, prec: Precision, a: f64, b: f64) -> save_kernels::GemmWorkload {
    let mut w = save_kernels::shapes::conv_by_name(name)
        .expect("shape")
        .workload(phase, prec)
        .with_sparsity(a, b);
    w.tiles = 2;
    w.k_total = 32;
    w
}

fn bench_table1_table2(c: &mut Criterion) {
    c.bench_function("table2/storage_model", |b| {
        let m = StorageModel::default();
        b.iter(|| {
            std::hint::black_box(
                m.temp_bytes(PrecisionSupport::Fp32AndMixed)
                    + m.bcast_mask_bytes(PrecisionSupport::Fp32Only)
                    + m.bcast_data_bytes(PrecisionSupport::Fp32Only),
            )
        })
    });
}

fn bench_table3(c: &mut Criterion) {
    c.bench_function("table3/sparsity_roles", |b| {
        let net = Network::build(NetKind::ResNet50Pruned);
        b.iter(|| {
            let mut acc = 0.0;
            for phase in Phase::ALL {
                let p = net.sparsity_point(5, phase, 1.0);
                acc += p.a + p.b;
            }
            std::hint::black_box(acc)
        })
    });
}

fn bench_fig12_fig13(c: &mut Criterion) {
    c.bench_function("fig12/activation_series", |b| {
        let m = ActivationModel::new(NetKind::Vgg16Dense);
        b.iter(|| std::hint::black_box(m.series(12, 13, 90)))
    });
    c.bench_function("fig13/pruning_schedule", |b| {
        let s = PruningSchedule::gnmt();
        b.iter(|| std::hint::black_box(s.series(5_000)))
    });
}

fn bench_fig14(c: &mut Criterion) {
    c.bench_function("fig14/inference_layer_point", |b| {
        let w = small("ResNet3_2", Phase::Forward, Precision::F32, 0.4, 0.8);
        let mut cell = CellSpec::new(w, ConfigKind::Save2Vpu, quick_machine(), 0);
        b.iter(|| {
            cell.seed += 1;
            std::hint::black_box(cell.run(None).map(|r| r.cycles))
        })
    });
}

fn bench_fig15(c: &mut Criterion) {
    c.bench_function("fig15/mp_forward_sweep_point", |b| {
        let cell = CellSpec::new(small("ResNet2_2", Phase::Forward, Precision::Mixed, 0.4, 0.4), ConfigKind::Save1Vpu, quick_machine(), 1);
        b.iter(|| std::hint::black_box(cell.run(None).map(|r| r.cycles)))
    });
}

fn bench_fig16(c: &mut Criterion) {
    c.bench_function("fig16/speedup_cap_point", |b| {
        let cell = CellSpec::new(small("VGG3_2", Phase::Forward, Precision::F32, 0.9, 0.9), ConfigKind::Save1Vpu, quick_machine(), 1);
        b.iter(|| std::hint::black_box(cell.run(None).map(|r| r.cycles)))
    });
}

fn bench_fig17(c: &mut Criterion) {
    c.bench_function("fig17/embedded_broadcast_with_bcache", |b| {
        let cell = CellSpec::new(small("ResNet3_2", Phase::BackwardWeights, Precision::F32, 0.4, 0.4), ConfigKind::Save2Vpu, quick_machine(), 1);
        b.iter(|| std::hint::black_box(cell.run(None).map(|r| r.cycles)))
    });
}

fn bench_fig18(c: &mut Criterion) {
    let m = quick_machine();
    for (label, cfg) in [
        ("vc", CoreConfig { rotate: false, lane_wise: false, ..CoreConfig::save_1vpu() }),
        ("rvc_lwd", CoreConfig::save_1vpu()),
        (
            "hc",
            CoreConfig {
                scheduler: save_core::SchedulerKind::Horizontal,
                ..CoreConfig::save_1vpu()
            },
        ),
    ] {
        c.bench_function(&format!("fig18/{label}"), |b| {
            let cell = CellSpec::custom(small("ResNet3_2", Phase::BackwardInput, Precision::F32, 0.0, 0.5), cfg, m, 1);
            b.iter(|| std::hint::black_box(cell.run(None).map(|r| r.cycles)))
        });
    }
}

fn bench_fig19(c: &mut Criterion) {
    let m = quick_machine();
    for (label, compress) in [("without_mp_technique", false), ("with_mp_technique", true)] {
        let cfg = CoreConfig { mp_compress: compress, ..CoreConfig::save_1vpu() };
        c.bench_function(&format!("fig19/{label}"), |b| {
            let cell = CellSpec::custom(small("ResNet4_1a", Phase::BackwardInput, Precision::Mixed, 0.0, 0.6), cfg, m, 1);
            b.iter(|| std::hint::black_box(cell.run(None).map(|r| r.cycles)))
        });
    }
}

criterion_group! {
    name = experiments;
    config = Criterion::default().sample_size(10);
    targets = bench_table1_table2, bench_table3, bench_fig12_fig13, bench_fig14,
              bench_fig15, bench_fig16, bench_fig17, bench_fig18, bench_fig19
}
criterion_main!(experiments);
