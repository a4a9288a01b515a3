//! Workspace-level integration tests: real layer kernels through the full
//! simulator stack, estimator sanity, and cheap versions of the paper's
//! qualitative landmarks.

use save::core::{CoreConfig, SchedulerKind};
use save::kernels::{GemmWorkload, Phase, Precision};
use save::sim::{
    CellSpec, ConfigKind, Estimator, EstimatorConfig, Executor, KernelResult, MachineConfig,
    MachineMode, Network, Supervisor,
};
use save::sparsity::NetKind;

/// Runs `w` at `kind` on `machine`.
fn run(w: &GemmWorkload, kind: ConfigKind, machine: MachineConfig, seed: u64, verify: bool) -> KernelResult {
    CellSpec { verify, ..CellSpec::new(w.clone(), kind, machine, seed) }.run(None).unwrap()
}

fn small_workload(name: &str, phase: Phase, prec: Precision) -> GemmWorkload {
    let mut w = save::kernels::shapes::conv_by_name(name).expect("shape").workload(phase, prec);
    w.tiles = 2;
    w.k_total = 48;
    w
}

#[test]
fn named_kernels_run_correctly_on_every_operating_point() {
    let machine = MachineConfig::default();
    for name in ["ResNet2_2", "ResNet3_2", "ResNet4_1a", "ResNet5_1a"] {
        for phase in [Phase::Forward, Phase::BackwardInput] {
            for prec in [Precision::F32, Precision::Mixed] {
                let w = small_workload(name, phase, prec).with_sparsity(0.3, 0.5);
                for kind in ConfigKind::ALL {
                    let r = run(&w, kind, machine, 5, true);
                    assert!(r.completed && r.verified, "{name} {phase} {prec} {kind:?}");
                }
            }
        }
    }
}

#[test]
fn detailed_multicore_matches_reference_for_lstm() {
    let cell = save::kernels::shapes::gnmt(64).remove(0);
    let mut w = cell.workload(Phase::Forward, Precision::F32).with_sparsity(0.2, 0.9);
    w.tiles = 4;
    w.b_panel_tiles = 2;
    w.k_total = 32;
    let m = MachineConfig { cores: 4, mode: MachineMode::Detailed, ..Default::default() };
    let r = run(&w, ConfigKind::Save2Vpu, m, 11, true);
    assert!(r.completed && r.verified);
}

#[test]
fn landmark_bs_and_nbs_both_deliver_speedup() {
    let machine = MachineConfig::default();
    let dense = small_workload("ResNet3_2", Phase::Forward, Precision::F32);
    let t_dense = run(&dense, ConfigKind::Save2Vpu, machine, 3, false).seconds;
    let bs = dense.clone().with_sparsity(0.6, 0.0);
    let nbs = dense.clone().with_sparsity(0.0, 0.6);
    let t_bs = run(&bs, ConfigKind::Save2Vpu, machine, 3, false).seconds;
    let t_nbs = run(&nbs, ConfigKind::Save2Vpu, machine, 3, false).seconds;
    assert!(t_bs < t_dense * 0.9, "BS must speed up SAVE ({t_bs} vs {t_dense})");
    assert!(t_nbs < t_dense * 0.9, "NBS must speed up SAVE ({t_nbs} vs {t_dense})");
    // The baseline is insensitive to sparsity.
    let b_dense = run(&dense, ConfigKind::Baseline, machine, 3, false).seconds;
    let b_sparse = run(&nbs, ConfigKind::Baseline, machine, 3, false).seconds;
    assert!((b_dense / b_sparse - 1.0).abs() < 0.05, "baseline must not exploit sparsity");
}

#[test]
fn landmark_speedup_monotone_in_nbs() {
    let machine = MachineConfig::default();
    let w0 = small_workload("ResNet5_1a", Phase::BackwardInput, Precision::F32);
    let mut last = f64::INFINITY;
    for nbs in [0.0, 0.3, 0.6, 0.9] {
        let w = w0.clone().with_sparsity(0.0, nbs);
        let t = run(&w, ConfigKind::Save2Vpu, machine, 7, false).seconds;
        assert!(t <= last * 1.03, "time must not grow with sparsity (nbs={nbs})");
        last = t;
    }
}

#[test]
fn hc_pays_latency_vc_preserves_lane_order() {
    // Horizontal compression must carry its +6-cycle crossbar penalty.
    let machine = MachineConfig::default();
    let w = small_workload("ResNet3_2", Phase::Forward, Precision::F32); // dense
    let run_custom = |cfg| {
        CellSpec { verify: true, ..CellSpec::custom(w.clone(), cfg, machine, 9) }.run(None).unwrap()
    };
    let vc = run_custom(CoreConfig::save_2vpu());
    let hc = run_custom(CoreConfig { scheduler: SchedulerKind::Horizontal, ..CoreConfig::save_2vpu() });
    assert!(vc.verified && hc.verified);
    assert!(hc.cycles >= vc.cycles, "dense HC must not beat VC (no imbalance to fix)");
}

#[test]
fn estimator_reproduces_fig14_ordering_on_truncated_nets() {
    // With 3 layers per net and a 3-level grid this runs in seconds and
    // still shows the qualitative Fig 14 ordering: pruned ResNet-50 beats
    // dense ResNet-50; every SAVE config beats baseline.
    let mut cfg = EstimatorConfig::default();
    cfg.machine.cores = 8;
    cfg.grid = vec![0.0, 0.45, 0.9];
    let sup = Supervisor::start(false);
    let est = Estimator::new(cfg, Executor::new(sup.handle()));
    let mut speedups = std::collections::HashMap::new();
    for kind in [NetKind::ResNet50Dense, NetKind::ResNet50Pruned] {
        let mut net = Network::build(kind);
        net.layers = net.layers.into_iter().skip(2).take(3).collect();
        net.epochs = 4;
        let inf = est.estimate_inference(&net, Precision::F32).unwrap();
        let sp = inf.baseline.total() / inf.dynamic.total();
        assert!(sp > 1.0, "{kind:?} must speed up, got {sp}");
        speedups.insert(kind, sp);
    }
    assert!(
        speedups[&NetKind::ResNet50Pruned] > speedups[&NetKind::ResNet50Dense],
        "pruning must increase the inference speedup"
    );
}

#[test]
fn mixed_precision_training_estimate_is_finite_and_ordered() {
    let mut cfg = EstimatorConfig::default();
    cfg.machine.cores = 8;
    cfg.grid = vec![0.0, 0.45, 0.9];
    let sup = Supervisor::start(false);
    let est = Estimator::new(cfg, Executor::new(sup.handle()));
    let mut net = Network::build(NetKind::GnmtPruned);
    net.layers.truncate(1);
    net.epochs = 6;
    let tr = est.estimate_training(&net, Precision::Mixed).unwrap();
    for t in [tr.baseline, tr.save2, tr.save1, tr.static_, tr.dynamic] {
        assert!(t.total().is_finite() && t.total() > 0.0);
    }
    assert!(tr.dynamic.total() <= tr.baseline.total());
    assert!(tr.dynamic.total() <= tr.static_.total() + 1e-15);
}
