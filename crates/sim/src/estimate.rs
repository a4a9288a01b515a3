//! End-to-end inference and training estimation (the §VI methodology
//! behind Fig 14).
//!
//! The [`Estimator`] runs nothing. It lists the cells an estimate reads —
//! per layer and phase, a sparsity surface's grid cells (degenerate axes
//! collapsed per Table III) under each operating point — and the caller
//! resolves them as one batch. Pure reducers then map the per-epoch
//! realistic sparsity onto the surfaces by bilinear interpolation, sum
//! across layers, and average over epochs. The VPU-count policies of §IV-D
//! are evaluated exactly as the paper does: *static* picks the better of 1
//! or 2 VPUs per epoch for the whole network, *dynamic* per kernel, both
//! with negligible switching overhead.

use crate::net::Network;
use crate::runner::{ConfigKind, MachineConfig};
use crate::spec::CellSpec;
use crate::surface::Surface;
use save_kernels::{Phase, Precision};
use serde::{Deserialize, Serialize};

/// Estimator settings.
#[derive(Clone, Debug)]
pub struct EstimatorConfig {
    /// Machine to simulate.
    pub machine: MachineConfig,
    /// Sparsity grid for surface axes that vary.
    pub grid: Vec<f64>,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            machine: MachineConfig::default(),
            grid: crate::surface::coarse_grid(),
        }
    }
}

/// Inference time split: the first layer has no input-activation sparsity
/// and is reported separately (Fig 14a).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct SplitTimes {
    /// First layer's time in (estimated full-scale) seconds.
    pub first_layer: f64,
    /// All other layers.
    pub rest: f64,
}

impl SplitTimes {
    /// Total time.
    pub fn total(&self) -> f64 {
        self.first_layer + self.rest
    }
}

/// Whole-network inference estimate (Fig 14a/b).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct InferenceEstimate {
    /// Conventional machine.
    pub baseline: SplitTimes,
    /// SAVE, 2 VPUs @ 1.7 GHz.
    pub save2: SplitTimes,
    /// SAVE, 1 VPU @ 2.1 GHz.
    pub save1: SplitTimes,
    /// Per-kernel better of the two SAVE points (§IV-D "dynamic").
    pub dynamic: SplitTimes,
}

/// Per-phase training time buckets (Fig 14c/d stacking).
#[derive(Clone, Copy, Debug, Default, Serialize, Deserialize)]
pub struct PhaseTimes {
    /// Forward propagation (layers 2+).
    pub forward: f64,
    /// Backward propagation of input.
    pub backward_input: f64,
    /// Backward propagation of weights.
    pub backward_weights: f64,
    /// The first layer's total contribution (all its phases).
    pub first_layer: f64,
}

impl PhaseTimes {
    /// Total time.
    pub fn total(&self) -> f64 {
        self.forward + self.backward_input + self.backward_weights + self.first_layer
    }

    fn add(&mut self, layer: usize, phase: Phase, t: f64) {
        if layer == 0 {
            self.first_layer += t;
            return;
        }
        match phase {
            Phase::Forward => self.forward += t,
            Phase::BackwardInput => self.backward_input += t,
            Phase::BackwardWeights => self.backward_weights += t,
        }
    }

    fn scale(&mut self, f: f64) {
        self.forward *= f;
        self.backward_input *= f;
        self.backward_weights *= f;
        self.first_layer *= f;
    }
}

/// Whole-network end-to-end training estimate (mean over epochs).
#[derive(Clone, Copy, Debug, Serialize, Deserialize)]
pub struct TrainingEstimate {
    /// Conventional machine.
    pub baseline: PhaseTimes,
    /// SAVE, 2 VPUs.
    pub save2: PhaseTimes,
    /// SAVE, 1 VPU.
    pub save1: PhaseTimes,
    /// Better of the two SAVE points per epoch (§IV-D "static").
    pub static_: PhaseTimes,
    /// Better of the two SAVE points per kernel (§IV-D "dynamic").
    pub dynamic: PhaseTimes,
}

/// The estimator: lists the cells an estimate reads and reduces their
/// seconds. It runs nothing; the caller resolves the cells (one batch, any
/// thread count) and hands their seconds back in cell order.
pub struct Estimator {
    cfg: EstimatorConfig,
}

/// One kernel an estimate reads: a (layer, phase) workload, its rescale to
/// the layer's full FLOPs, and the sparsity axes its surface spans.
struct Kernel {
    layer: usize,
    phase: Phase,
    w: save_kernels::GemmWorkload,
    scale: f64,
    a_levels: Vec<f64>,
    b_levels: Vec<f64>,
}

/// `a.min(b)`, except that a `NaN` (a failed cell) wins.
fn min_or_nan(a: f64, b: f64) -> f64 {
    if a.is_nan() || b.is_nan() {
        f64::NAN
    } else {
        a.min(b)
    }
}

impl Estimator {
    /// Creates an estimator for `cfg`'s machine and sparsity grid.
    pub fn new(cfg: EstimatorConfig) -> Self {
        Estimator { cfg }
    }

    /// Axis levels for a (layer, phase): the full grid if the sparsity
    /// varies over training, a single level otherwise (Table III
    /// degeneracy).
    fn axis_levels(&self, samples: impl Iterator<Item = f64> + Clone) -> Vec<f64> {
        let min = samples.clone().fold(f64::INFINITY, f64::min);
        let max = samples.fold(0.0f64, f64::max);
        if max - min < 1e-9 {
            vec![max]
        } else {
            self.cfg.grid.clone()
        }
    }

    /// The kernels an estimate reads. Inference reads each layer's forward
    /// kernel at its end-of-training point; training reads each (layer,
    /// phase) over the axes its sparsity spans during training.
    fn kernels(&self, net: &Network, precision: Precision, training: bool) -> Vec<Kernel> {
        let mut out = Vec::new();
        for (li, layer) in net.layers.iter().enumerate() {
            let phases = if training { net.phases(li) } else { vec![Phase::Forward] };
            for phase in phases {
                let w = layer.workload(phase, precision);
                let (a_levels, b_levels) = if training {
                    let samples: Vec<_> =
                        (0..8).map(|i| net.sparsity_point(li, phase, i as f64 / 7.0)).collect();
                    (
                        self.axis_levels(samples.iter().map(|p| p.a)),
                        self.axis_levels(samples.iter().map(|p| p.b)),
                    )
                } else {
                    let p = net.inference_point(li);
                    (vec![p.a], vec![p.b])
                };
                let scale = layer.flops() / w.flops();
                out.push(Kernel { layer: li, phase, w, scale, a_levels, b_levels });
            }
        }
        out
    }

    /// Every kernel's [`Surface::grid_cells`] under each of
    /// [`ConfigKind::ALL`], labelled by layer, phase and operating point.
    fn cells(&self, net: &Network, kernels: &[Kernel]) -> Vec<(String, CellSpec)> {
        let mut out = Vec::new();
        for k in kernels {
            for kind in ConfigKind::ALL {
                let cells =
                    Surface::grid_cells(&k.w, kind, &self.cfg.machine, &k.a_levels, &k.b_levels);
                out.extend(cells.into_iter().map(|(point, spec)| {
                    let name = net.layers[k.layer].name();
                    (format!("{name} {:?} {} {point}", k.phase, kind.label()), spec)
                }));
            }
        }
        out
    }

    /// Cuts `secs` (one per cell, in cell order) into each kernel's
    /// surfaces, one per operating point of [`ConfigKind::ALL`].
    fn surfaces(kernels: &[Kernel], secs: &[f64]) -> Vec<[Surface; 3]> {
        let n: usize = kernels.iter().map(|k| k.a_levels.len() * k.b_levels.len()).sum();
        assert_eq!(secs.len(), n * ConfigKind::ALL.len(), "one second per cell, in cell order");
        let mut rest = secs;
        let mut take = |k: &Kernel| {
            let (head, tail) = rest.split_at(k.a_levels.len() * k.b_levels.len());
            rest = tail;
            let (a_levels, b_levels) = (k.a_levels.clone(), k.b_levels.clone());
            Surface { a_levels, b_levels, secs: head.to_vec() }
        };
        kernels.iter().map(|k| [take(k), take(k), take(k)]).collect()
    }

    /// The cells whole-network inference reads: each layer's forward kernel
    /// at the end-of-training sparsity, under each operating point.
    pub fn inference_cells(
        &self,
        net: &Network,
        precision: Precision,
    ) -> Vec<(String, CellSpec)> {
        self.cells(net, &self.kernels(net, precision, false))
    }

    /// The cells end-to-end training reads: each (layer, phase) surface,
    /// degenerate axes collapsed, under each operating point.
    pub fn training_cells(
        &self,
        net: &Network,
        precision: Precision,
    ) -> Vec<(String, CellSpec)> {
        self.cells(net, &self.kernels(net, precision, true))
    }

    /// Per-layer inference seconds `[baseline, 2 VPUs, 1 VPU]`, rescaled to
    /// each layer's full FLOPs, from the seconds of
    /// [`Estimator::inference_cells`] in cell order.
    pub fn inference_layers(
        &self,
        net: &Network,
        precision: Precision,
        secs: &[f64],
    ) -> Vec<[f64; 3]> {
        let kernels = self.kernels(net, precision, false);
        let surfaces = Self::surfaces(&kernels, secs);
        let scaled = |(k, s): (&Kernel, &[Surface; 3])| s.each_ref().map(|s| s.secs[0] * k.scale);
        kernels.iter().zip(&surfaces).map(scaled).collect()
    }

    /// Whole-network inference (end-of-training sparsity, forward phase
    /// only) from the seconds of [`Estimator::inference_cells`] in cell
    /// order. A `NaN` cell makes every total it feeds `NaN`.
    pub fn inference(
        &self,
        net: &Network,
        precision: Precision,
        secs: &[f64],
    ) -> InferenceEstimate {
        let mut out = InferenceEstimate {
            baseline: SplitTimes::default(),
            save2: SplitTimes::default(),
            save1: SplitTimes::default(),
            dynamic: SplitTimes::default(),
        };
        let layers = self.inference_layers(net, precision, secs);
        for (li, [tb, t2, t1]) in layers.into_iter().enumerate() {
            let td = min_or_nan(t2, t1);
            let (b, s2, s1, d) = (&mut out.baseline, &mut out.save2, &mut out.save1, &mut out.dynamic);
            for (split, t) in [(b, tb), (s2, t2), (s1, t1), (d, td)] {
                *if li == 0 { &mut split.first_layer } else { &mut split.rest } += t;
            }
        }
        out
    }

    /// End-to-end training from the seconds of [`Estimator::training_cells`]
    /// in cell order: per-epoch interpolation on the surfaces and summation,
    /// mean over epochs (§VI). A `NaN` cell makes every total it feeds
    /// `NaN`; the static policy's per-epoch choice reads both fixed
    /// configurations, so a `NaN` in either makes all of static `NaN`.
    pub fn training(
        &self,
        net: &Network,
        precision: Precision,
        secs: &[f64],
    ) -> TrainingEstimate {
        let kernels = self.kernels(net, precision, true);
        let surfaces = Self::surfaces(&kernels, secs);
        let epochs = net.epochs.max(2);
        let progress_of = |e: usize| e as f64 / (epochs - 1) as f64;

        let mut baseline = PhaseTimes::default();
        let mut save2 = PhaseTimes::default();
        let mut save1 = PhaseTimes::default();
        let mut static_ = PhaseTimes::default();
        let mut dynamic = PhaseTimes::default();
        for e in 0..epochs {
            let prog = progress_of(e);
            let mut e2 = PhaseTimes::default();
            let mut e1 = PhaseTimes::default();
            for (k, surf) in kernels.iter().zip(&surfaces) {
                let p = net.sparsity_point(k.layer, k.phase, prog);
                let [tb, t2, t1] = surf.each_ref().map(|s| s.interp(p.a, p.b) * k.scale);
                baseline.add(k.layer, k.phase, tb);
                save2.add(k.layer, k.phase, t2);
                save1.add(k.layer, k.phase, t1);
                dynamic.add(k.layer, k.phase, min_or_nan(t2, t1));
                e2.add(k.layer, k.phase, t2);
                e1.add(k.layer, k.phase, t1);
            }
            let mut pick = if e1.total() < e2.total() { e1 } else { e2 };
            if e1.total().is_nan() || e2.total().is_nan() {
                pick.scale(f64::NAN);
            }
            static_.forward += pick.forward;
            static_.backward_input += pick.backward_input;
            static_.backward_weights += pick.backward_weights;
            static_.first_layer += pick.first_layer;
        }
        let inv = 1.0 / epochs as f64;
        for t in [&mut baseline, &mut save2, &mut save1, &mut static_, &mut dynamic] {
            t.scale(inv);
        }
        TrainingEstimate { baseline, save2, save1, static_, dynamic }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::CancelToken;
    use crate::durable::Executor;
    use save_sparsity::NetKind;

    /// A 4-core machine and a 3-level grid: fast enough for unit tests.
    fn small_estimator() -> Estimator {
        let mut cfg = EstimatorConfig::default();
        cfg.machine.cores = 4;
        cfg.grid = vec![0.0, 0.5, 0.9];
        Estimator::new(cfg)
    }

    /// A two-layer toy network reusing real shapes, to exercise the
    /// estimator end to end without sweeping a full CNN.
    fn toy_net(kind: NetKind) -> Network {
        let mut net = Network::build(kind);
        net.layers.truncate(2);
        net.epochs = 5;
        net
    }

    /// Every cell's seconds, resolved on all host threads; each must succeed.
    fn resolve(cells: &[(String, CellSpec)]) -> Vec<f64> {
        let exec = Executor::new(CancelToken::new());
        let resolved = exec.resolve_all(cells, 0).unwrap().into_iter().map(Result::unwrap);
        resolved.map(|cell| cell.error.map_or(cell.rec.secs(), |e| panic!("{e}"))).collect()
    }

    #[test]
    fn inference_estimate_shows_save_speedup() {
        let est = small_estimator();
        let net = toy_net(NetKind::ResNet50Pruned);
        let secs = resolve(&est.inference_cells(&net, Precision::F32));
        let inf = est.inference(&net, Precision::F32, &secs);
        assert!(inf.baseline.total() > 0.0);
        assert!(
            inf.dynamic.total() < inf.baseline.total(),
            "SAVE must beat baseline on pruned inference"
        );
        // Dynamic is at least as good as either fixed configuration.
        assert!(inf.dynamic.total() <= inf.save2.total() + 1e-12);
        assert!(inf.dynamic.total() <= inf.save1.total() + 1e-12);
    }

    #[test]
    fn training_estimate_orders_policies() {
        let est = small_estimator();
        let net = toy_net(NetKind::ResNet50Pruned);
        let secs = resolve(&est.training_cells(&net, Precision::F32));
        let tr = est.training(&net, Precision::F32, &secs);
        let (b, s2, st, dy) =
            (tr.baseline.total(), tr.save2.total(), tr.static_.total(), tr.dynamic.total());
        assert!(s2 < b, "SAVE 2-VPU training must beat baseline");
        assert!(st <= s2.min(tr.save1.total()) + 1e-12, "static picks the better fixed config");
        assert!(dy <= st + 1e-12, "dynamic refines static");
    }

    /// Synthetic seconds: per (layer, phase) and operating point a
    /// constant, so every surface is flat. The baseline takes 8, 2 VPUs
    /// take 4, and 1 VPU takes 2 on layer 0's forward and layer 1's
    /// backward-input kernels (it wins) and 6 elsewhere (it loses).
    fn constant(layer: usize, phase: Phase, kind: usize) -> f64 {
        let one_vpu_wins =
            matches!((layer, phase), (0, Phase::Forward) | (1, Phase::BackwardInput));
        [8.0, 4.0, if one_vpu_wins { 2.0 } else { 6.0 }][kind]
    }

    /// One second per cell, in cell order, each from `secs_of(kernel, kind)`.
    fn synthetic(kernels: &[Kernel], secs_of: impl Fn(&Kernel, usize) -> f64) -> Vec<f64> {
        let mut out = Vec::new();
        for k in kernels {
            for kind in 0..ConfigKind::ALL.len() {
                let n = k.a_levels.len() * k.b_levels.len();
                out.extend(std::iter::repeat_n(secs_of(k, kind), n));
            }
        }
        out
    }

    /// The mean over two epochs of per-epoch sums of `terms`, in the
    /// reducer's order: epoch-major, kernels in order, then halved.
    fn two_epochs(terms: &[f64]) -> f64 {
        let mut sum = 0.0;
        for _ in 0..2 {
            for t in terms {
                sum += t;
            }
        }
        sum * 0.5
    }

    #[test]
    fn reducers_are_exact_on_synthetic_seconds() {
        let est = small_estimator();
        let mut net = toy_net(NetKind::ResNet50Dense);
        net.epochs = 2;
        let p = Precision::F32;
        let scale =
            |l: usize, ph: Phase| net.layers[l].flops() / net.layers[l].workload(ph, p).flops();
        let t = |l: usize, ph: Phase, kind: usize| constant(l, ph, kind) * scale(l, ph);
        let flat = |k: &Kernel, kind: usize| constant(k.layer, k.phase, kind);

        let kernels = est.kernels(&net, p, false);
        let inf = est.inference(&net, p, &synthetic(&kernels, flat));
        let f = Phase::Forward;
        for (split, kind) in [(inf.baseline, 0), (inf.save2, 1), (inf.save1, 2)] {
            assert_eq!(split.first_layer, t(0, f, kind), "first layer alone, point {kind}");
            assert_eq!(split.rest, t(1, f, kind), "every other layer, operating point {kind}");
        }
        assert_eq!(inf.dynamic.first_layer, t(0, f, 2), "1 VPU wins layer 0's forward");
        assert_eq!(inf.dynamic.rest, t(1, f, 1), "2 VPUs win layer 1's forward");

        let kernels = est.kernels(&net, p, true);
        let tr = est.training(&net, p, &synthetic(&kernels, flat));
        let (bi, bw) = (Phase::BackwardInput, Phase::BackwardWeights);
        let buckets = |pick: &dyn Fn(usize, Phase) -> f64| PhaseTimes {
            forward: two_epochs(&[pick(1, f)]),
            backward_input: two_epochs(&[pick(1, bi)]),
            backward_weights: two_epochs(&[pick(1, bw)]),
            first_layer: two_epochs(&[pick(0, f), pick(0, bw)]),
        };
        let bits = |x: PhaseTimes| {
            [x.forward, x.backward_input, x.backward_weights, x.first_layer].map(f64::to_bits)
        };
        assert_eq!(bits(tr.baseline), bits(buckets(&|l, ph| t(l, ph, 0))));
        assert_eq!(bits(tr.save2), bits(buckets(&|l, ph| t(l, ph, 1))));
        assert_eq!(bits(tr.save1), bits(buckets(&|l, ph| t(l, ph, 2))));
        let per_kernel_min = buckets(&|l, ph| t(l, ph, 1).min(t(l, ph, 2)));
        assert_eq!(bits(tr.dynamic), bits(per_kernel_min), "dynamic takes the per-kernel min");
        assert_eq!(tr.dynamic.backward_input, two_epochs(&[t(1, bi, 2)]), "1 VPU wins here");
        assert_eq!(tr.dynamic.forward, two_epochs(&[t(1, f, 1)]), "2 VPUs win here");
        // Every epoch reads the same flat surfaces, so static is the fixed
        // configuration with the lower total, bucket for bucket.
        let fixed = if tr.save1.total() < tr.save2.total() { tr.save1 } else { tr.save2 };
        assert_eq!(bits(tr.static_), bits(fixed), "static takes the per-epoch min of the totals");
        assert!(tr.dynamic.total() < tr.static_.total(), "mixed winners: dynamic beats static");
    }

    #[test]
    fn a_nan_cell_only_poisons_the_totals_that_read_it() {
        let est = small_estimator();
        let mut net = toy_net(NetKind::ResNet50Dense);
        net.epochs = 2;
        let p = Precision::F32;
        let flat = |k: &Kernel, kind: usize| constant(k.layer, k.phase, kind);

        // Inference: 1 VPU's cell of layer 1.
        let kernels = est.kernels(&net, p, false);
        let mut secs = synthetic(&kernels, flat);
        secs[ConfigKind::ALL.len() + 2] = f64::NAN;
        let inf = est.inference(&net, p, &secs);
        assert!(inf.save1.rest.is_nan() && inf.dynamic.rest.is_nan());
        for (what, v) in [
            ("1 VPU first layer", inf.save1.first_layer),
            ("dynamic first layer", inf.dynamic.first_layer),
            ("baseline", inf.baseline.total()),
            ("2 VPUs", inf.save2.total()),
        ] {
            assert!(v.is_finite(), "{what} does not read the failed cell");
        }

        // Training: one cell of layer 1's forward 2-VPU surface, the one
        // the first epoch's point reads.
        let kernels = est.kernels(&net, p, true);
        let mut secs = synthetic(&kernels, flat);
        let size = |k: &Kernel| k.a_levels.len() * k.b_levels.len();
        let ki = kernels.iter().position(|k| (k.layer, k.phase) == (1, Phase::Forward)).unwrap();
        let k = &kernels[ki];
        let at = net.sparsity_point(1, Phase::Forward, 0.0);
        let lower = |levels: &[f64], x: f64| levels.iter().rposition(|&l| l <= x).unwrap_or(0);
        let point = lower(&k.a_levels, at.a) * k.b_levels.len() + lower(&k.b_levels, at.b);
        let before: usize = kernels[..ki].iter().map(|k| ConfigKind::ALL.len() * size(k)).sum();
        // Skip the kernel's baseline surface to reach its 2-VPU one.
        secs[before + size(k) + point] = f64::NAN;
        let tr = est.training(&net, p, &secs);
        assert!(tr.save2.forward.is_nan() && tr.dynamic.forward.is_nan());
        assert!(tr.static_.total().is_nan(), "static's per-epoch choice reads both totals");
        for (what, v) in [
            ("baseline", tr.baseline.total()),
            ("1 VPU", tr.save1.total()),
            ("2 VPUs backward", tr.save2.backward_input + tr.save2.backward_weights),
            ("2 VPUs first layer", tr.save2.first_layer),
            ("dynamic backward", tr.dynamic.backward_input + tr.dynamic.backward_weights),
            ("dynamic first layer", tr.dynamic.first_layer),
        ] {
            assert!(v.is_finite(), "{what} does not read the failed cell");
        }
    }
}
