//! Criterion benchmarks — one group per table/figure of the paper.
//!
//! Each group runs a single representative point of the corresponding
//! experiment (the full sweeps live in the `figN`/`tableN` regeneration
//! binaries) so `cargo bench` exercises every experiment's code path with
//! statistical timing of the simulator itself.

use criterion::{criterion_group, criterion_main, Criterion};
use save_bench::figures::Figure;
use save_bench::BenchCli;
use save_kernels::{Phase, Precision};
use save_mem::energy::{PrecisionSupport, StorageModel};
use save_sim::{CellSpec, ConfigKind, MachineConfig, Network};
use save_sparsity::{ActivationModel, NetKind, PruningSchedule};

/// Shrinks a cell to two tiles of K=32 so one iteration stays fast.
fn small(mut cell: CellSpec) -> CellSpec {
    cell.workload.tiles = 2;
    cell.workload.k_total = 32;
    cell
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
        let shape = save_bench::figures::conv("ResNet3_2").expect("shape");
        let w = shape.workload(Phase::Forward, Precision::F32).with_sparsity(0.4, 0.8);
        let mut cell = small(CellSpec::new(w, ConfigKind::Save2Vpu, MachineConfig::default(), 0));
        b.iter(|| {
            cell.seed += 1;
            std::hint::black_box(cell.run(None).map(|r| r.cycles))
        })
    });
}

/// Figs 15-19: the SAVE cell of one pair of each figure at default scale.
fn bench_figures(c: &mut Criterion) {
    for (id, figure, label) in [
        ("fig15/mp_forward_sweep_point", "fig15", "bs=0.4 nbs=0.4 1 VPU"),
        ("fig16/speedup_cap_point", "fig16", "VGG3_2 fwd FP32 1vpu corner2"),
        ("fig17/embedded_broadcast_with_bcache", "fig17", "B$ w/ data bs=0.4 nbs=0.4"),
        ("fig18/vc", "fig18", "ResNet3_2 VC nbs=0.6"),
        ("fig18/rvc_lwd", "fig18", "ResNet3_2 RVC+LWD nbs=0.6"),
        ("fig18/hc", "fig18", "ResNet3_2 HC nbs=0.6"),
        ("fig19/without_mp_technique", "fig19", "w/o MP techniques nbs=0.6"),
        ("fig19/with_mp_technique", "fig19", "w/ MP techniques nbs=0.6"),
    ] {
        let fig = Figure::build(figure, &BenchCli::default()).expect("figure builds");
        // A pair's SAVE cell carries the pair's label.
        let (_, save) = fig.cells.into_iter().find(|(l, _)| l == label).expect("pair in figure");
        let cell = small(save);
        c.bench_function(id, |b| b.iter(|| std::hint::black_box(cell.run(None).map(|r| r.cycles))));
    }
}

criterion_group! {
    name = experiments;
    config = Criterion::default().sample_size(10);
    targets = bench_table1_table2, bench_table3, bench_fig12_fig13, bench_fig14, bench_figures
}
criterion_main!(experiments);
