//! Cross-crate integration: simulation determinism (both machine modes)
//! and serde round-trips of the public configuration/data types.

use save::core::CoreConfig;
use save::kernels::{BroadcastPattern, GemmKernelSpec, GemmWorkload, Phase, Precision};
use save::mem::MemConfig;
use save::sim::{CellSpec, ConfigKind, MachineConfig, MachineMode, Surface};
use save::sparsity::PruningSchedule;

fn workload() -> GemmWorkload {
    GemmWorkload::dense(
        "det",
        GemmKernelSpec {
            m_tiles: 5,
            n_vecs: 2,
            pattern: BroadcastPattern::Embedded,
            precision: Precision::F32,
        },
        24,
        2,
    )
    .with_sparsity(0.35, 0.45)
}

#[test]
fn symmetric_mode_is_deterministic() {
    let spec = CellSpec::new(workload(), ConfigKind::Save2Vpu, MachineConfig::default(), 77);
    let spec = CellSpec { verify: true, ..spec };
    let a = spec.run(None).unwrap();
    let b = spec.run(None).unwrap();
    assert_eq!(a.cycles, b.cycles);
    assert_eq!(a.stats.vpu_ops, b.stats.vpu_ops);
    assert_eq!(a.stats.lanes_issued, b.stats.lanes_issued);
}

#[test]
fn detailed_mode_is_deterministic() {
    let m = MachineConfig { cores: 3, mode: MachineMode::Detailed, ..Default::default() };
    let spec = CellSpec { verify: true, ..CellSpec::new(workload(), ConfigKind::Save1Vpu, m, 99) };
    let a = spec.run(None).unwrap();
    let b = spec.run(None).unwrap();
    assert_eq!(a.cycles, b.cycles);
}

#[test]
fn seeds_change_data_not_workload_shape() {
    let run = |seed| {
        let spec = CellSpec::new(workload(), ConfigKind::Baseline, MachineConfig::default(), seed);
        CellSpec { verify: true, ..spec }.run(None).unwrap()
    };
    let a = run(1);
    let b = run(2);
    // Baseline timing is sparsity-insensitive; different data, same work.
    assert_eq!(a.stats.fma_uops, b.stats.fma_uops);
    assert!((a.cycles as f64 / b.cycles as f64 - 1.0).abs() < 0.05);
}

#[test]
fn config_types_roundtrip_through_serde() {
    let core = CoreConfig::save_1vpu();
    let s = serde_json::to_string(&core).expect("serialize");
    let back: CoreConfig = serde_json::from_str(&s).expect("deserialize");
    assert_eq!(core, back);

    let mem = MemConfig::default();
    let s = serde_json::to_string(&mem).expect("serialize");
    let back: MemConfig = serde_json::from_str(&s).expect("deserialize");
    assert_eq!(mem, back);

    let w = workload();
    let s = serde_json::to_string(&w).expect("serialize");
    let back: GemmWorkload = serde_json::from_str(&s).expect("deserialize");
    assert_eq!(w.spec, back.spec);
    assert_eq!(w.k_total, back.k_total);

    let sched = PruningSchedule::gnmt();
    let s = serde_json::to_string(&sched).expect("serialize");
    let back: PruningSchedule = serde_json::from_str(&s).expect("deserialize");
    assert_eq!(sched, back);
}

#[test]
fn surfaces_roundtrip_through_serde() {
    let surf = Surface {
        a_levels: vec![0.0, 0.5],
        b_levels: vec![0.0, 1.0],
        secs: vec![4.0, 3.0, 2.0, 1.0],
    };
    let s = serde_json::to_string(&surf).expect("serialize");
    let back: Surface = serde_json::from_str(&s).expect("deserialize");
    assert_eq!(back.interp(0.25, 0.5), surf.interp(0.25, 0.5));
}

#[test]
fn workload_phase_coverage_across_the_shape_tables() {
    // Every shape in every table produces buildable workloads for every
    // phase and precision — no panics, register budget always respected.
    for shape in save::kernels::shapes::vgg16().iter().chain(save::kernels::shapes::resnet50().iter())
    {
        for phase in Phase::ALL {
            for prec in [Precision::F32, Precision::Mixed] {
                let mut w = shape.workload(phase, prec);
                w.tiles = 1;
                w.k_total = 16;
                let b = w.build(1);
                assert!(b.program.fma_count() > 0, "{} {phase} {prec}", shape.name);
            }
        }
    }
    for cell in save::kernels::shapes::gnmt(32) {
        for phase in [Phase::Forward, Phase::BackwardInput] {
            let mut w = cell.workload(phase, Precision::F32);
            w.tiles = 2;
            w.k_total = 16;
            w.b_panel_tiles = 1;
            assert!(w.build(1).program.fma_count() > 0);
        }
    }
}
