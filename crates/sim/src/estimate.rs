//! End-to-end inference and training estimation (the §VI methodology
//! behind Fig 14).
//!
//! Per layer and phase, a sparsity surface is swept once (degenerate axes
//! collapsed per Table III) and cached; the per-epoch realistic sparsity is
//! then mapped onto the surfaces by bilinear interpolation, summed across
//! layers, and averaged over epochs. The VPU-count policies of §IV-D are
//! evaluated exactly as the paper does: *static* picks the better of 1 or 2
//! VPUs per epoch for the whole network, *dynamic* per kernel, both with
//! negligible switching overhead.

use crate::durable::Executor;
use crate::error::SimError;
use crate::net::Network;
use crate::runner::{ConfigKind, MachineConfig};
use crate::surface::Surface;
use save_kernels::{Phase, Precision};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Estimator settings.
#[derive(Clone, Debug)]
pub struct EstimatorConfig {
    /// Machine to simulate.
    pub machine: MachineConfig,
    /// Sparsity grid for surface axes that vary.
    pub grid: Vec<f64>,
    /// Host threads for sweeps (0 = all).
    pub threads: usize,
}

impl Default for EstimatorConfig {
    fn default() -> Self {
        EstimatorConfig {
            machine: MachineConfig::default(),
            grid: crate::surface::coarse_grid(),
            threads: 0,
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

/// The estimator: sweeps, caches and interpolates kernel surfaces.
pub struct Estimator {
    cfg: EstimatorConfig,
    exec: Executor,
    surfaces: Mutex<HashMap<String, Arc<Surface>>>,
}

impl Estimator {
    /// Creates an estimator whose surface cells are resolved by `exec`
    /// (DESIGN.md §5f): journaled in its store, if it has one, under its
    /// deadline/retry policy and supervisor.
    pub fn new(cfg: EstimatorConfig, exec: Executor) -> Self {
        Estimator { cfg, exec, surfaces: Mutex::new(HashMap::new()) }
    }

    /// The configuration.
    pub fn config(&self) -> &EstimatorConfig {
        &self.cfg
    }

    /// Number of distinct surfaces swept so far (deduplication metric).
    pub fn surfaces_built(&self) -> usize {
        self.lock_surfaces().len()
    }

    /// A poisoned cache lock only means another sweep panicked mid-insert;
    /// the map itself is always in a consistent state, so keep going.
    fn lock_surfaces(&self) -> std::sync::MutexGuard<'_, HashMap<String, Arc<Surface>>> {
        self.surfaces.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Sweeps (or fetches from cache) the surface of `w` under `kind` with
    /// the given axes.
    ///
    /// # Errors
    /// The estimator interpolates, so it needs a complete surface:
    /// cancellation or the first failing grid point
    /// ([`crate::SweepOutcome::into_surface`]); nothing is cached on failure.
    pub fn surface(
        &self,
        w: &save_kernels::GemmWorkload,
        kind: ConfigKind,
        a_levels: &[f64],
        b_levels: &[f64],
    ) -> Result<Arc<Surface>, SimError> {
        let mut key_w = w.clone();
        key_w.name = String::new();
        key_w.a_sparsity = 0.0;
        key_w.b_sparsity = 0.0;
        let key = format!(
            "{:?}|{:?}|{:?}|{:?}|{}c{:?}",
            key_w,
            kind,
            a_levels,
            b_levels,
            self.cfg.machine.cores,
            self.cfg.machine.mode,
        );
        if let Some(s) = self.lock_surfaces().get(&key) {
            return Ok(Arc::clone(s));
        }
        let (machine, threads) = (&self.cfg.machine, self.cfg.threads);
        let out = Surface::sweep(w, kind, machine, a_levels, b_levels, threads, &self.exec)?;
        let s = Arc::new(out.into_surface()?);
        self.lock_surfaces().insert(key, Arc::clone(&s));
        Ok(s)
    }

    /// Convenience: the execution time of one kernel at one exact sparsity
    /// point (a single-point "surface", cached).
    ///
    /// # Errors
    /// Propagates the simulation failure for the point.
    pub fn kernel_time(
        &self,
        w: &save_kernels::GemmWorkload,
        kind: ConfigKind,
        a: f64,
        b: f64,
    ) -> Result<f64, SimError> {
        Ok(self.surface(w, kind, &[a], &[b])?.secs[0])
    }

    /// Axis levels for a (layer, phase): the full grid if the sparsity
    /// varies over training, a single level otherwise (Table III
    /// degeneracy).
    fn axis_levels(&self, samples: &[f64]) -> Vec<f64> {
        let min = samples.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = samples.iter().cloned().fold(0.0f64, f64::max);
        if max - min < 1e-9 {
            vec![max]
        } else {
            self.cfg.grid.clone()
        }
    }

    /// Estimates whole-network inference (end-of-training sparsity, forward
    /// phase only), rescaling each kernel to the layer's full FLOPs.
    ///
    /// # Errors
    /// Fails on the first layer whose simulation fails.
    pub fn estimate_inference(
        &self,
        net: &Network,
        precision: Precision,
    ) -> Result<InferenceEstimate, SimError> {
        let mut out = InferenceEstimate {
            baseline: SplitTimes::default(),
            save2: SplitTimes::default(),
            save1: SplitTimes::default(),
            dynamic: SplitTimes::default(),
        };
        for (li, layer) in net.layers.iter().enumerate() {
            let w = layer.workload(Phase::Forward, precision);
            let p = net.inference_point(li);
            let scale = layer.flops() / w.flops();
            let tb = self.kernel_time(&w, ConfigKind::Baseline, p.a, p.b)? * scale;
            let t2 = self.kernel_time(&w, ConfigKind::Save2Vpu, p.a, p.b)? * scale;
            let t1 = self.kernel_time(&w, ConfigKind::Save1Vpu, p.a, p.b)? * scale;
            let td = t2.min(t1);
            let (bucket_b, bucket_2, bucket_1, bucket_d) = if li == 0 {
                (&mut out.baseline.first_layer, &mut out.save2.first_layer, &mut out.save1.first_layer, &mut out.dynamic.first_layer)
            } else {
                (&mut out.baseline.rest, &mut out.save2.rest, &mut out.save1.rest, &mut out.dynamic.rest)
            };
            *bucket_b += tb;
            *bucket_2 += t2;
            *bucket_1 += t1;
            *bucket_d += td;
        }
        Ok(out)
    }

    /// Estimates end-to-end training: surfaces per (layer, phase, config),
    /// per-epoch interpolation and summation, mean over epochs (§VI).
    ///
    /// # Errors
    /// Fails on the first (layer, phase, config) surface whose sweep fails.
    pub fn estimate_training(
        &self,
        net: &Network,
        precision: Precision,
    ) -> Result<TrainingEstimate, SimError> {
        let epochs = net.epochs.max(2);
        let progress_of = |e: usize| e as f64 / (epochs - 1) as f64;

        // Pre-sweep surfaces for every (layer, phase, config).
        struct LayerPhase {
            layer: usize,
            phase: Phase,
            scale: f64,
            surf: [Arc<Surface>; 3],
        }
        let mut lps: Vec<LayerPhase> = Vec::new();
        for (li, layer) in net.layers.iter().enumerate() {
            for phase in net.phases(li) {
                let w = layer.workload(phase, precision);
                let samples_a: Vec<f64> =
                    (0..8).map(|i| net.sparsity_point(li, phase, i as f64 / 7.0).a).collect();
                let samples_b: Vec<f64> =
                    (0..8).map(|i| net.sparsity_point(li, phase, i as f64 / 7.0).b).collect();
                let a_levels = self.axis_levels(&samples_a);
                let b_levels = self.axis_levels(&samples_b);
                let surf = [
                    self.surface(&w, ConfigKind::Baseline, &a_levels, &b_levels)?,
                    self.surface(&w, ConfigKind::Save2Vpu, &a_levels, &b_levels)?,
                    self.surface(&w, ConfigKind::Save1Vpu, &a_levels, &b_levels)?,
                ];
                lps.push(LayerPhase { layer: li, phase, scale: layer.flops() / w.flops(), surf });
            }
        }

        let mut baseline = PhaseTimes::default();
        let mut save2 = PhaseTimes::default();
        let mut save1 = PhaseTimes::default();
        let mut static_ = PhaseTimes::default();
        let mut dynamic = PhaseTimes::default();
        for e in 0..epochs {
            let prog = progress_of(e);
            let mut e2 = PhaseTimes::default();
            let mut e1 = PhaseTimes::default();
            for lp in &lps {
                let p = net.sparsity_point(lp.layer, lp.phase, prog);
                let tb = lp.surf[0].interp(p.a, p.b) * lp.scale;
                let t2 = lp.surf[1].interp(p.a, p.b) * lp.scale;
                let t1 = lp.surf[2].interp(p.a, p.b) * lp.scale;
                baseline.add(lp.layer, lp.phase, tb);
                save2.add(lp.layer, lp.phase, t2);
                save1.add(lp.layer, lp.phase, t1);
                dynamic.add(lp.layer, lp.phase, t2.min(t1));
                e2.add(lp.layer, lp.phase, t2);
                e1.add(lp.layer, lp.phase, t1);
            }
            let pick = if e1.total() < e2.total() { e1 } else { e2 };
            static_.forward += pick.forward;
            static_.backward_input += pick.backward_input;
            static_.backward_weights += pick.backward_weights;
            static_.first_layer += pick.first_layer;
        }
        let inv = 1.0 / epochs as f64;
        for t in [&mut baseline, &mut save2, &mut save1, &mut static_, &mut dynamic] {
            t.scale(inv);
        }
        Ok(TrainingEstimate { baseline, save2, save1, static_, dynamic })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cancel::Supervisor;
    use crate::store::ResultStore;
    use save_sparsity::NetKind;

    /// A 4-core machine and a 3-level grid: fast enough for unit tests.
    fn small_estimator(exec: Executor) -> Estimator {
        let mut cfg = EstimatorConfig::default();
        cfg.machine.cores = 4;
        cfg.grid = vec![0.0, 0.5, 0.9];
        Estimator::new(cfg, exec)
    }

    /// A two-layer toy network reusing real shapes, to exercise the
    /// estimator end to end without sweeping a full CNN.
    fn toy_net(kind: NetKind) -> Network {
        let mut net = Network::build(kind);
        net.layers.truncate(2);
        net.epochs = 5;
        net
    }

    #[test]
    fn inference_estimate_shows_save_speedup() {
        let sup = Supervisor::start(false);
        let est = small_estimator(Executor::new(sup.handle()));
        let net = toy_net(NetKind::ResNet50Pruned);
        let inf = est.estimate_inference(&net, Precision::F32).unwrap();
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
        let sup = Supervisor::start(false);
        let est = small_estimator(Executor::new(sup.handle()));
        let net = toy_net(NetKind::ResNet50Pruned);
        let tr = est.estimate_training(&net, Precision::F32).unwrap();
        let (b, s2, st, dy) =
            (tr.baseline.total(), tr.save2.total(), tr.static_.total(), tr.dynamic.total());
        assert!(s2 < b, "SAVE 2-VPU training must beat baseline");
        assert!(st <= s2.min(tr.save1.total()) + 1e-12, "static picks the better fixed config");
        assert!(dy <= st + 1e-12, "dynamic refines static");
    }

    #[test]
    fn durable_estimator_checkpoints_and_resumes_bit_identically() {
        let dir = std::env::temp_dir().join(format!("save-est-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let sup = Supervisor::start(false);
        let net = toy_net(NetKind::ResNet50Dense);
        let w = net.layers[1].workload(Phase::Forward, Precision::F32);
        let mk = |store: ResultStore| {
            let store = Some(Arc::new(store));
            small_estimator(Executor { store, ..Executor::new(sup.handle()) })
        };
        let t1 = mk(ResultStore::open(&dir, false).unwrap())
            .kernel_time(&w, ConfigKind::Baseline, 0.3, 0.0)
            .unwrap();
        let entries: Vec<_> =
            std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(
            entries,
            vec![ResultStore::journal_path(&dir)],
            "the surface's cells land in the store's one journal, no subdirectories"
        );
        let store = ResultStore::open(&dir, true).unwrap();
        assert_eq!(store.recovered(), 1, "the resume loads the journaled cell");
        let t2 = mk(store).kernel_time(&w, ConfigKind::Baseline, 0.3, 0.0).unwrap();
        assert_eq!(t1.to_bits(), t2.to_bits(), "resumed estimate must be bit-identical");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn surfaces_are_cached_and_deduplicated() {
        let sup = Supervisor::start(false);
        let est = small_estimator(Executor::new(sup.handle()));
        let net = toy_net(NetKind::ResNet50Dense);
        let w = net.layers[1].workload(Phase::Forward, Precision::F32);
        let before = est.surfaces_built();
        est.kernel_time(&w, ConfigKind::Baseline, 0.3, 0.0).unwrap();
        est.kernel_time(&w, ConfigKind::Baseline, 0.3, 0.0).unwrap();
        assert_eq!(est.surfaces_built(), before + 1);
    }
}
