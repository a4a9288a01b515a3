//! The five workloads: the cells each runs, and how one pass of it is timed,
//! traced and checked.
//!
//! Every workload is a closed loop driven by one load-generator thread:
//! the next cell (or serve job) starts when the previous one has returned.
//! A pass is a fixed list of cells, so two commits do identical work per
//! pass; `--seed` picks the sparsity jitter and the operand data.

use crate::stats;
use crate::sut::{
    self, BcastDesign, BroadcastPattern, CellSpec, ConfigKind, CoreConfig, CoreStats,
    GemmKernelSpec, GemmWorkload, MachineConfig, Precision, Reuse, SchedulerKind, TraceStore,
};
use crate::trace::{self, Tracer};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

/// The seed whose per-pass cycle totals are pinned in `golden.json`.
pub const DEFAULT_SEED: u64 = 1;

/// Half-width of the seeded jitter added to every sparsity level. Small, so
/// that a workload's host cost barely depends on the seed.
const JITTER: f64 = 0.01;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// L3-warm reuse-B GEMM sparsity grid: core pipeline bound.
    Compute,
    /// DRAM-streaming GEMM grid: fast-forward, LSU and memory bound.
    Stream,
    /// Figs 17/18-shaped ablation through a trace store: record, replay, memo.
    Ablation,
    /// Detailed 8-core machine: shared uncore and both multicore engines.
    Mesh,
    /// In-process daemon: admission, memo cache, journal, workers.
    Serve,
}

impl Workload {
    /// All workloads, in run order.
    pub const ALL: [Workload; 5] = [
        Workload::Compute,
        Workload::Stream,
        Workload::Ablation,
        Workload::Mesh,
        Workload::Serve,
    ];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Compute => "compute",
            Workload::Stream => "stream",
            Workload::Ablation => "ablation",
            Workload::Mesh => "mesh",
            Workload::Serve => "serve",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Deterministic generator (splitmix64) for the seeded inputs.
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, on an independent `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// `level` moved by a uniform jitter of at most [`JITTER`], kept in
    /// `[0, 0.95]`.
    pub fn jitter(&mut self, level: f64) -> f64 {
        let u = (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        (level + (2.0 * u - 1.0) * JITTER).clamp(0.0, 0.95)
    }
}

/// One cell of a pass.
#[derive(Clone, Debug)]
pub struct Cell {
    /// Human-readable label.
    pub label: String,
    /// What to simulate.
    pub spec: CellSpec,
}

fn gemm(
    name: String,
    m: usize,
    n: usize,
    k: usize,
    tiles: usize,
    precision: Precision,
) -> GemmWorkload {
    let spec = GemmKernelSpec {
        m_tiles: m,
        n_vecs: n,
        pattern: BroadcastPattern::Explicit,
        precision,
    };
    GemmWorkload::dense(name, spec, k, tiles)
}

fn cell(label: String, mut spec: CellSpec) -> Cell {
    spec.verify = true;
    Cell { label, spec }
}

const GRID5: [f64; 5] = [0.1, 0.3, 0.5, 0.7, 0.9];
const GRID4: [f64; 4] = [0.1, 0.35, 0.6, 0.85];
const GRID3: [f64; 3] = [0.2, 0.5, 0.8];

/// The operating points of the Figs 17/18 ablation, in submission order.
/// The baseline appears twice: the second copy is a memo hit.
fn ablation_configs() -> Vec<(&'static str, CoreConfig, Option<BcastDesign>)> {
    let one = CoreConfig::save_1vpu();
    let two = CoreConfig::save_2vpu();
    let data = Some(BcastDesign::Data);
    vec![
        ("baseline", CoreConfig::baseline(), None),
        ("baseline", CoreConfig::baseline(), None),
        (
            "VC",
            CoreConfig {
                rotate: false,
                lane_wise: false,
                ..one
            },
            data,
        ),
        (
            "RVC",
            CoreConfig {
                rotate: true,
                lane_wise: false,
                ..one
            },
            data,
        ),
        (
            "VC+LWD",
            CoreConfig {
                rotate: false,
                lane_wise: true,
                ..one
            },
            data,
        ),
        (
            "RVC+LWD",
            CoreConfig {
                rotate: true,
                lane_wise: true,
                ..one
            },
            data,
        ),
        (
            "HC",
            CoreConfig {
                scheduler: SchedulerKind::Horizontal,
                rotate: false,
                lane_wise: true,
                ..one
            },
            data,
        ),
        ("no-B$", two, None),
        ("B$-masks", two, Some(BcastDesign::Masks)),
        ("B$-data", two, data),
    ]
}

/// Twelve convolution GEMMs of distinct geometry (blocking, broadcast
/// pattern, precision, reduction length), taken in table order from VGG16
/// and ResNet-50 across the three training phases.
fn ablation_shapes() -> Vec<GemmWorkload> {
    let mut seen = Vec::new();
    let mut out = Vec::new();
    for w in sut::conv_workloads() {
        let key = (w.spec, w.k_total);
        if !seen.contains(&key) {
            seen.push(key);
            out.push(w);
        }
    }
    out.truncate(12);
    out
}

/// The cells of one pass of `w` (every workload but `serve`, whose jobs
/// come from [`serve_cell`]). `smoke` keeps a short slice of the pass.
pub fn cells(w: Workload, seed: u64, smoke: bool) -> Vec<Cell> {
    let mut rng = Rng::new(seed, w as u64);
    let mut out = Vec::new();
    match w {
        Workload::Compute => {
            for precision in [Precision::F32, Precision::Mixed] {
                for &a in &GRID5 {
                    for &b in &GRID4 {
                        let (a, b, data) = (rng.jitter(a), rng.jitter(b), rng.next_u64());
                        for kind in ConfigKind::ALL {
                            let name = format!("compute {precision} a{a:.3} b{b:.3}");
                            let w = gemm(name, 6, 4, 64, 16, precision).with_sparsity(a, b);
                            let label = format!("{} {}", w.name, kind.label());
                            out.push(cell(
                                label,
                                CellSpec::new(w, kind, MachineConfig::default(), data),
                            ));
                        }
                    }
                }
            }
        }
        Workload::Stream => {
            // Four data sets per grid point give 108 cells, enough for a
            // 90th percentile with ten cells above it.
            for &a in &GRID3 {
                for &b in &GRID3 {
                    for _ in 0..4 {
                        let (a, b, data) = (rng.jitter(a), rng.jitter(b), rng.next_u64());
                        for kind in ConfigKind::ALL {
                            let name = format!("stream a{a:.3} b{b:.3}");
                            let mut w = gemm(name, 6, 4, 64, 4, Precision::F32).with_sparsity(a, b);
                            w.b_panel_tiles = 1;
                            let label = format!("{} {}", w.name, kind.label());
                            out.push(cell(
                                label,
                                CellSpec::new(w, kind, MachineConfig::default(), data),
                            ));
                        }
                    }
                }
            }
        }
        Workload::Ablation => {
            // Kernel-major: each shape's configurations run back to back, so
            // the first records a trace the others replay.
            for (i, shape) in ablation_shapes().into_iter().enumerate() {
                let (a, b, data) = (
                    rng.jitter(GRID3[i % 3]),
                    rng.jitter(GRID3[(i / 3) % 3]),
                    rng.next_u64(),
                );
                let w = shape.with_sparsity(a, b);
                for (name, config, bcast) in ablation_configs() {
                    let mut machine = MachineConfig::default();
                    machine.mem.bcast = bcast;
                    let label = format!("{} a{a:.3} b{b:.3} {name}", w.name);
                    out.push(cell(
                        label,
                        CellSpec::custom(w.clone(), config, machine, data),
                    ));
                }
            }
        }
        Workload::Mesh => {
            // Nine data sets per sparsity level give 108 cells (see stream).
            for &s in &GRID3 {
                for _ in 0..9 {
                    let (a, b, data) = (rng.jitter(s), rng.jitter(s), rng.next_u64());
                    for kind in [ConfigKind::Baseline, ConfigKind::Save2Vpu] {
                        for quantum in [1, 1000] {
                            let name = format!("mesh a{a:.3} b{b:.3}");
                            let mut w = gemm(name, 6, 4, 32, 3, Precision::F32).with_sparsity(a, b);
                            w.b_panel_tiles = 1;
                            let label = format!("{} {} q{quantum}", w.name, kind.label());
                            let machine = sut::detailed_machine(8, quantum, 1);
                            out.push(cell(label, CellSpec::new(w, kind, machine, data)));
                        }
                    }
                }
            }
        }
        Workload::Serve => unreachable!("serve jobs come from serve_cell"),
    }
    if smoke {
        let keep = match w {
            Workload::Ablation => 3 * ablation_configs().len(),
            _ => out.len() / 4,
        };
        out.truncate(keep.max(1));
    }
    out
}

/// New cells per serve job (each also carries this many repeats).
const SERVE_NEW: u64 = 8;
/// Serve jobs per pass. 12 × 8 = 96 new cells per pass, a multiple of the
/// 16-point sparsity grid and of the 3 operating points, so every pass
/// submits the same mix of cells in the same positions.
const SERVE_JOBS: u64 = 12;

/// The `i`-th distinct cell the serve workload submits for `seed`.
pub fn serve_cell(seed: u64, i: u64) -> CellSpec {
    let mut rng = Rng::new(seed, 0x5E4E_0000 + i);
    let (a, b) = (
        rng.jitter(GRID4[(i % 4) as usize]),
        rng.jitter(GRID4[((i / 4) % 4) as usize]),
    );
    let w = gemm(
        format!("serve a{a:.3} b{b:.3}"),
        6,
        4,
        32,
        8,
        Precision::F32,
    )
    .with_sparsity(a, b);
    let kind = ConfigKind::ALL[(i % 3) as usize];
    let mut spec = CellSpec::new(w, kind, MachineConfig::default(), rng.next_u64());
    spec.verify = true;
    spec
}

/// Host-side measurements of one pass.
#[derive(Clone, Debug, Default)]
pub struct Pass {
    /// Host time spent in cells (or serve jobs), in ns.
    pub host_ns: u64,
    /// Simulated cycles of the cells that completed.
    pub cycles: u64,
    /// Cells completed.
    pub cells: u64,
    /// Host latency of each cell, in ms: from its start, or for `serve` from
    /// its job's submission, to its result; in the same order every pass,
    /// NaN for a cell that failed.
    pub lat_ms: Vec<f64>,
    /// Host time of each unit of work (a cell, or a `serve` job), in ms, in
    /// the same order every pass; NaN for a cell that failed.
    pub unit_ms: Vec<f64>,
}

impl Pass {
    fn add(&mut self, dt: Duration, cycles: u64) {
        let ms = dt.as_secs_f64() * 1e3;
        self.host_ns += dt.as_nanos() as u64;
        self.cycles += cycles;
        self.cells += 1;
        self.lat_ms.push(ms);
        self.unit_ms.push(ms);
    }

    fn miss(&mut self) {
        self.lat_ms.push(f64::NAN);
        self.unit_ms.push(f64::NAN);
    }
}

/// Attempted and failed operations: cells run plus oracle checks made.
#[derive(Clone, Debug, Default)]
pub struct Checks {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// The first few failures, for the report.
    pub notes: Vec<String>,
    /// Results offered to [`Checks::sample_direct`] so far.
    offered: u64,
}

impl Checks {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.notes.len() < 20 {
            self.notes.push(what);
        }
    }

    /// Counts one check; records a failure when `ok` is false.
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Checks a result against a direct local execution of the same cell,
    /// for one in eight of the results it is offered.
    fn sample_direct(&mut self, spec: &CellSpec, cycles: u64, secs_bits: u64, what: &str) {
        self.offered += 1;
        if self.offered % 8 != 1 {
            return;
        }
        let local = sut::run(spec);
        let same =
            matches!(&local, Ok(l) if l.cycles == cycles && l.seconds.to_bits() == secs_bits);
        let name = &spec.workload.name;
        self.check(same, || {
            format!("{what} {name} differs from direct execution: {local:?}")
        });
    }
}

/// A served cell and its latency from its job's submission.
type Served = Option<(sut::ServedCell, Duration)>;

/// Per-layer values of one traced pass, by metric name.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// A set-up workload, ready to run passes.
pub struct Runner {
    w: Workload,
    seed: u64,
    smoke: bool,
    cells: Vec<Cell>,
    /// Core counters of each cell's first untimed-path result, for the
    /// determinism and traced-path oracles.
    stats: Vec<Option<CoreStats>>,
    daemon: Option<sut::Daemon>,
    serve_next: u64,
    serve_prev: Vec<CellSpec>,
    golden: Option<u64>,
    /// Operations attempted and failed so far.
    pub checks: Checks,
    /// Simulated cycles of each untraced pass, in order.
    pub pass_cycles: Vec<u64>,
}

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

impl Runner {
    /// Generates the workload's inputs, starts what it needs and runs one
    /// untimed warm-up cell (a warm-up job for `serve`). `scratch` is a
    /// private directory for the serve cache; `golden` the pinned per-pass
    /// cycle total for this seed, if any.
    pub fn setup(
        w: Workload,
        seed: u64,
        smoke: bool,
        scratch: &Path,
        golden: Option<u64>,
    ) -> Result<Runner, String> {
        let cells = if w == Workload::Serve {
            Vec::new()
        } else {
            cells(w, seed, smoke)
        };
        let mut r = Runner {
            w,
            seed,
            smoke,
            stats: vec![None; cells.len()],
            cells,
            daemon: None,
            serve_next: 0,
            serve_prev: Vec::new(),
            golden,
            checks: Checks::default(),
            pass_cycles: Vec::new(),
        };
        match w {
            Workload::Serve => {
                r.daemon = Some(sut::Daemon::start(&scratch.join("serve-cache"), 2)?);
                let warm = r.new_serve_cells();
                r.daemon_mut().submit("warm-up", &warm, |_| {})?;
                r.serve_prev = warm;
            }
            Workload::Ablation => {
                sut::run_traced(&r.cells[0].spec, &TraceStore::with_capacity(8))?;
            }
            _ => {
                sut::run(&r.cells[0].spec)?;
            }
        }
        Ok(r)
    }

    /// Stops the daemon, if any.
    pub fn finish(self) -> Result<(), String> {
        self.daemon.map_or(Ok(()), sut::Daemon::stop)
    }

    fn daemon_mut(&mut self) -> &mut sut::Daemon {
        self.daemon.as_mut().expect("serve workload has a daemon")
    }

    fn new_serve_cells(&mut self) -> Vec<CellSpec> {
        let first = self.serve_next;
        self.serve_next += SERVE_NEW;
        (first..self.serve_next)
            .map(|i| serve_cell(self.seed, i))
            .collect()
    }

    /// The next serve job: fresh cells interleaved with the previous job's.
    fn next_serve_job(&mut self) -> Vec<CellSpec> {
        let fresh = self.new_serve_cells();
        let job = fresh
            .iter()
            .zip(&self.serve_prev)
            .flat_map(|(n, r)| [n.clone(), r.clone()])
            .collect();
        self.serve_prev = fresh;
        job
    }

    fn serve_jobs(&self) -> u64 {
        if self.smoke {
            3
        } else {
            SERVE_JOBS
        }
    }

    /// Compares a cell's core counters with the first ones it produced.
    fn check_stats(&mut self, i: usize, stats: CoreStats) {
        match self.stats[i] {
            None => self.stats[i] = Some(stats),
            Some(first) => {
                let label = &self.cells[i].label;
                let note =
                    || format!("{label}: core counters differ between runs of the same cell");
                self.checks.check(first == stats, note);
            }
        }
    }

    /// Runs one untraced pass.
    pub fn pass(&mut self) -> Pass {
        let mut p = Pass::default();
        if self.w == Workload::Serve {
            self.serve_pass(&mut p);
        } else {
            // A fresh store per pass, so every pass records its traces anew.
            let store = (self.w == Workload::Ablation).then(|| TraceStore::with_capacity(8));
            for i in 0..self.cells.len() {
                let spec = &self.cells[i].spec;
                let t = Instant::now();
                let r = match &store {
                    Some(store) => sut::run_traced(spec, store).map(|(r, reuse)| (r, Some(reuse))),
                    None => sut::run(spec).map(|r| (r, None)),
                };
                let dt = t.elapsed();
                self.checks.attempted += 1;
                match r {
                    Ok((res, reuse)) if res.verified => {
                        p.add(dt, res.cycles);
                        if reuse == Some(Reuse::Replay) {
                            let bits = res.seconds.to_bits();
                            self.checks
                                .sample_direct(spec, res.cycles, bits, "replayed cell");
                        }
                        self.check_stats(i, res.stats);
                    }
                    Ok(_) => {
                        p.miss();
                        let label = &self.cells[i].label;
                        self.checks.fail(format!("{label}: output not verified"));
                    }
                    Err(e) => {
                        p.miss();
                        self.checks.fail(format!("{}: {e}", self.cells[i].label));
                    }
                }
            }
        }
        self.check_golden(p.cycles);
        p
    }

    fn serve_pass(&mut self, p: &mut Pass) {
        for j in 0..self.serve_jobs() {
            let job = self.next_serve_job();
            let (served, dt) = self.submit(j, &job);
            p.host_ns += dt.as_nanos() as u64;
            p.unit_ms.push(dt.as_secs_f64() * 1e3);
            for (spec, got) in job.iter().zip(served) {
                let Some((c, at)) = got else {
                    p.lat_ms.push(f64::NAN);
                    continue;
                };
                p.cycles += c.cycles;
                p.cells += 1;
                p.lat_ms.push(at.as_secs_f64() * 1e3);
                self.checks
                    .sample_direct(spec, c.cycles, c.secs_bits, "served cell");
            }
        }
    }

    /// Submits one serve job; returns each cell's result with its latency
    /// from submission (`None` for a cell that failed), and the job's wall
    /// time. Missing and failed cells count as failed operations.
    fn submit(&mut self, j: u64, job: &[CellSpec]) -> (Vec<Served>, Duration) {
        let mut got = vec![None; job.len()];
        let t0 = Instant::now();
        let r = self.daemon_mut().submit(&format!("job-{j}"), job, |c| {
            if let Some(slot) = got.get_mut(c.index) {
                *slot = Some((c, t0.elapsed()));
            }
        });
        let dt = t0.elapsed();
        if let Err(e) = r {
            self.checks.fail(format!("job {j}: {e}"));
        }
        for (spec, g) in job.iter().zip(got.iter_mut()) {
            self.checks.attempted += 1;
            match g {
                Some((c, _)) if c.ok => {}
                Some(_) => {
                    self.checks
                        .fail(format!("{}: failed in the daemon", spec.workload.name));
                    *g = None;
                }
                None => self
                    .checks
                    .fail(format!("{}: no result", spec.workload.name)),
            }
        }
        (got, dt)
    }

    /// Compares a pass's cycle total with the pinned one (default seed,
    /// full passes only; serve pins its first pass, later ones run new
    /// cells).
    fn check_golden(&mut self, cycles: u64) {
        let first = self.pass_cycles.is_empty();
        self.pass_cycles.push(cycles);
        let pinned =
            self.seed == DEFAULT_SEED && !self.smoke && (first || self.w != Workload::Serve);
        if let (true, Some(want)) = (pinned, self.golden) {
            let w = self.w.name();
            self.checks.check(cycles == want, || {
                format!("{w}: pass simulated {cycles} cycles, golden.json pins {want}")
            });
        }
    }

    /// Runs one traced pass, recording spans into `tr`; returns the pass's
    /// host measurements and its per-layer values.
    pub fn traced_pass(&mut self, tr: &mut Tracer) -> (Pass, LayerValues) {
        let first = tr.spans().len();
        let mut p = Pass::default();
        let mut v = LayerValues::new();
        match self.w {
            Workload::Compute | Workload::Stream => self.traced_direct(tr, &mut p, &mut v),
            Workload::Ablation => self.traced_ablation(tr, &mut p, &mut v),
            Workload::Mesh => self.traced_mesh(tr, &mut p, &mut v),
            Workload::Serve => self.traced_serve(tr, &mut p, &mut v),
        }
        let selfs = trace::self_times(tr.spans());
        let (spans, selfs) = (&tr.spans()[first..], &selfs[first..]);
        let roots: Vec<usize> = (0..spans.len())
            .filter(|&i| spans[i].parent.is_none())
            .collect();
        let wall: u64 = roots.iter().map(|&i| spans[i].dur_ns()).sum();
        p.host_ns = wall;
        p.unit_ms = roots
            .iter()
            .map(|&i| spans[i].dur_ns() as f64 / 1e6)
            .collect();
        // Share of each root's wall time that its layers' self times cover.
        let attributed: u64 = roots.iter().map(|&i| spans[i].dur_ns() - selfs[i]).sum();
        let min_frac = roots
            .iter()
            .map(|&i| {
                ratio(
                    (spans[i].dur_ns() - selfs[i]) as f64,
                    spans[i].dur_ns() as f64,
                )
            })
            .fold(f64::INFINITY, f64::min);
        v.insert(
            "bench.attributed_frac",
            ratio(attributed as f64, wall as f64),
        );
        v.insert(
            "bench.attributed_min_frac",
            if roots.is_empty() { 0.0 } else { min_frac },
        );
        let self_ms = |name| ms(trace::self_ns_of(spans, selfs, name));
        for (metric, span) in [
            ("core.run_ms", "core.run"),
            ("mem.warm_ms", "mem.warm"),
            ("mem.uncore_ms", "mem.uncore"),
            ("kernels.build_ms", "kernels.build"),
            ("kernels.verify_ms", "kernels.verify"),
            ("sim.record_ms", "sim.record"),
            ("sim.replay_ms", "sim.replay"),
            ("sim.lockstep_ms", "sim.lockstep"),
            ("sim.relaxed_ms", "sim.relaxed"),
        ] {
            v.insert(metric, self_ms(span));
        }
        v.insert(
            "kernels.build_frac",
            ratio(self_ms("kernels.build"), ms(wall)),
        );
        let run_ns = self_ms("core.run") * 1e6;
        let steps = trace::counter_sum(spans, "core.run", "steps");
        let calls = trace::counter_sum(spans, "core.run", "uncore_calls");
        v.insert("core.steps", steps);
        v.insert("core.step_ns", ratio(run_ns, steps));
        v.insert(
            "core.ns_per_cycle",
            ratio(run_ns, trace::counter_sum(spans, "core.run", "cycles")),
        );
        v.insert(
            "core.ff_jumps",
            trace::counter_sum(spans, "core.run", "ff_jumps"),
        );
        v.insert(
            "core.ff_cycle_frac",
            ratio(
                trace::counter_sum(spans, "core.run", "ff_cycles"),
                trace::counter_sum(spans, "core.run", "cycles"),
            ),
        );
        v.insert("mem.uncore_calls", calls);
        v.insert(
            "mem.uncore_ns_per_call",
            ratio(self_ms("mem.uncore") * 1e6, calls),
        );
        for (metric, span) in [
            ("sim.record_ns_per_cycle", "sim.record"),
            ("sim.replay_ns_per_cycle", "sim.replay"),
        ] {
            v.insert(
                metric,
                ratio(
                    self_ms(span) * 1e6,
                    trace::counter_sum(spans, span, "cycles"),
                ),
            );
        }
        v.insert(
            "sim.relaxed_speedup",
            ratio(self_ms("sim.lockstep"), self_ms("sim.relaxed")),
        );
        (p, v)
    }

    fn traced_direct(&mut self, tr: &mut Tracer, p: &mut Pass, v: &mut LayerValues) {
        let (mut l1, mut l2, mut l3) = ((0, 0), (0, 0), (0, 0));
        for i in 0..self.cells.len() {
            let root = tr.open("bench.cell", None, i as u64);
            let d = sut::drive(&self.cells[i].spec, tr, root, i as u64);
            tr.close(root);
            self.checks.attempted += 1;
            let label = &self.cells[i].label;
            let d = match d {
                Ok(d) if d.verified => d,
                Ok(_) => {
                    self.checks
                        .fail(format!("{label}: traced output not verified"));
                    continue;
                }
                Err(e) => {
                    self.checks.fail(format!("{label}: {e}"));
                    continue;
                }
            };
            p.cycles += d.stats.cycles;
            p.cells += 1;
            if let Some(first) = self.stats[i] {
                let note = || format!("{label}: traced core counters differ from the untraced run");
                self.checks.check(first == d.stats, note);
            }
            add_core(v, &d.stats);
            *v.entry("kernels.builds").or_default() += 1.0;
            *v.entry("mem.loads").or_default() += d.private.loads as f64;
            *v.entry("mem.prefetches").or_default() += d.private.prefetches as f64;
            l1 = (l1.0 + d.private.l1.0, l1.1 + d.private.l1.1);
            l2 = (l2.0 + d.private.l2.0, l2.1 + d.private.l2.1);
            l3 = (l3.0 + d.uncore.l3_hits, l3.1 + d.uncore.l3_misses);
            add_uncore(v, &d.uncore);
        }
        v.insert("mem.l1_hit_frac", ratio(l1.0 as f64, (l1.0 + l1.1) as f64));
        v.insert("mem.l2_hit_frac", ratio(l2.0 as f64, (l2.0 + l2.1) as f64));
        v.insert("mem.l3_hit_frac", ratio(l3.0 as f64, (l3.0 + l3.1) as f64));
    }

    fn traced_ablation(&mut self, tr: &mut Tracer, p: &mut Pass, v: &mut LayerValues) {
        let store = TraceStore::with_capacity(8);
        for i in 0..self.cells.len() {
            let root = tr.open("bench.cell", None, i as u64);
            let t0 = Instant::now();
            let r = sut::run_traced(&self.cells[i].spec, &store);
            let t1 = Instant::now();
            self.checks.attempted += 1;
            match r {
                Ok((res, reuse)) => {
                    let name = match reuse {
                        Reuse::Record => "sim.record",
                        Reuse::Replay => "sim.replay",
                        Reuse::Memo => "sim.memo",
                    };
                    let span = tr.record(name, Some(root), i as u64, t0, t1);
                    tr.count(span, "cycles", res.cycles as f64);
                    p.cycles += res.cycles;
                    p.cells += 1;
                    add_core(v, &res.stats);
                    if reuse == Reuse::Record {
                        *v.entry("kernels.builds").or_default() += 1.0;
                    }
                }
                Err(e) => self.checks.fail(format!("{}: {e}", self.cells[i].label)),
            }
            tr.close(root);
        }
        let [lookups, hits, memo_lookups, memo_hits] =
            sut::store_counters(&store).map(|c| c as f64);
        v.insert("sim.trace_hit_frac", ratio(hits, lookups));
        v.insert("sim.memo_hit_frac", ratio(memo_hits, memo_lookups));
    }

    fn traced_mesh(&mut self, tr: &mut Tracer, p: &mut Pass, v: &mut LayerValues) {
        let (mut hits, mut misses) = (0, 0);
        for i in 0..self.cells.len() {
            let spec = &self.cells[i].spec;
            let root = tr.open("bench.cell", None, i as u64);
            let t0 = Instant::now();
            let r = sut::run_full(spec);
            let t1 = Instant::now();
            let name = if spec.machine.mc.quantum == 1 {
                "sim.lockstep"
            } else {
                "sim.relaxed"
            };
            tr.record(name, Some(root), i as u64, t0, t1);
            tr.close(root);
            self.checks.attempted += 1;
            match r {
                Ok((res, uncore)) => {
                    p.cycles += res.cycles;
                    p.cells += 1;
                    add_core(v, &res.stats);
                    add_uncore(v, &uncore);
                    *v.entry("kernels.builds").or_default() += spec.machine.cores as f64;
                    hits += uncore.l3_hits;
                    misses += uncore.l3_misses;
                }
                Err(e) => self.checks.fail(format!("{}: {e}", self.cells[i].label)),
            }
        }
        v.insert(
            "mem.l3_hit_frac",
            ratio(hits as f64, (hits + misses) as f64),
        );
    }

    fn traced_serve(&mut self, tr: &mut Tracer, p: &mut Pass, v: &mut LayerValues) {
        let (mut hit_ms, mut miss_ms, mut first_ms) = (Vec::new(), Vec::new(), Vec::new());
        for j in 0..self.serve_jobs() {
            let job = self.next_serve_job();
            let root = tr.open("bench.job", None, j);
            let t0 = Instant::now();
            let (served, _) = self.submit(j, &job);
            tr.close(root);
            let mut first = f64::INFINITY;
            for (c, at) in served.into_iter().flatten() {
                let name = if c.cached { "serve.hit" } else { "serve.miss" };
                tr.record(name, Some(root), j, t0, t0 + at);
                let at_ms = at.as_secs_f64() * 1e3;
                first = first.min(at_ms);
                let by_kind = if c.cached { &mut hit_ms } else { &mut miss_ms };
                by_kind.push(at_ms);
                p.cycles += c.cycles;
                p.cells += 1;
                *v.entry("core.sim_cycles").or_default() += c.cycles as f64;
            }
            if first.is_finite() {
                first_ms.push(first);
            }
        }
        let n = (hit_ms.len() + miss_ms.len()) as f64;
        v.insert("serve.hit_p50_ms", stats::median(&hit_ms));
        v.insert("serve.miss_p50_ms", stats::median(&miss_ms));
        v.insert("serve.first_result_ms", stats::median(&first_ms));
        v.insert("serve.cached_frac", ratio(hit_ms.len() as f64, n));
        v.insert("kernels.builds", miss_ms.len() as f64);
        match self.daemon_mut().counts() {
            Ok(c) => {
                v.insert("serve.rejected", c.rejected as f64);
                v.insert("serve.respawned", c.respawned as f64);
                v.insert("serve.journal_records", c.journal_records as f64);
            }
            Err(e) => self.checks.fail(format!("daemon status: {e}")),
        }
    }
}

fn add_core(v: &mut LayerValues, s: &CoreStats) {
    *v.entry("core.sim_cycles").or_default() += s.cycles as f64;
    *v.entry("core.uops").or_default() += s.uops_committed as f64;
    *v.entry("core.vpu_ops").or_default() += s.vpu_ops as f64;
}

fn add_uncore(v: &mut LayerValues, u: &sut::UncoreCounts) {
    *v.entry("mem.dram_fills").or_default() += u.dram_fills as f64;
    *v.entry("mem.mshr_conflicts").or_default() += u.mshr_conflicts as f64;
    let q = v.entry("mem.dram_max_queue").or_default();
    *q = q.max(u.dram_max_queue as f64);
    let f = v.entry("mem.max_link_flits").or_default();
    *f = f.max(u.max_link_flits as f64);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn keys(cells: &[Cell]) -> Vec<u64> {
        cells
            .iter()
            .map(|c| c.spec.cache_key().expect("cache key"))
            .collect()
    }

    #[test]
    fn generation_is_deterministic_per_seed_and_differs_across_seeds() {
        for w in [
            Workload::Compute,
            Workload::Stream,
            Workload::Ablation,
            Workload::Mesh,
        ] {
            let a = keys(&cells(w, 7, false));
            assert_eq!(a, keys(&cells(w, 7, false)), "{}", w.name());
            let b = keys(&cells(w, 8, false));
            assert_eq!(
                a.len(),
                b.len(),
                "{}: the pass size does not depend on the seed",
                w.name()
            );
            assert!(
                a.iter().zip(&b).all(|(x, y)| x != y),
                "{}: every cell changes with the seed",
                w.name()
            );
        }
        let serve = |seed| {
            (0..16)
                .map(|i| serve_cell(seed, i).cache_key().expect("key"))
                .collect::<Vec<_>>()
        };
        assert_eq!(serve(7), serve(7));
        assert!(serve(7).iter().zip(serve(8)).all(|(x, y)| *x != y));
    }

    #[test]
    fn workloads_have_their_documented_shape() {
        let n = |w| cells(w, DEFAULT_SEED, false).len();
        assert_eq!(n(Workload::Compute), 120);
        assert_eq!(n(Workload::Stream), 108);
        assert_eq!(n(Workload::Ablation), 12 * 10);
        assert_eq!(n(Workload::Mesh), 108);
        // The ablation's duplicate baseline shares its predecessor's key
        // (a memo hit); every other cell is distinct.
        let k = keys(&cells(Workload::Ablation, DEFAULT_SEED, false));
        let mut distinct = k.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 12 * 9);
        assert!(k.chunks(10).all(|c| c[0] == c[1]));
        // Serve cells are all new to the cache.
        let mut s: Vec<u64> = (0..200)
            .map(|i| serve_cell(DEFAULT_SEED, i).cache_key().expect("key"))
            .collect();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 200);
    }

    #[test]
    fn seed_jitter_stays_small() {
        let mut r = Rng::new(3, 0);
        for _ in 0..1000 {
            let x = r.jitter(0.5);
            assert!((0.49..=0.51).contains(&x));
        }
    }
}
