//! Figures as data: Fig 14's whole-network estimates (§VI), the speedup
//! sweeps of §VII (Figs 15-19), the §VIII extensions and the ablation's
//! batch studies, each a [`Figure`] — its labelled cells for one grid, and
//! a pure reducer from their seconds to the printed [`Table`]s and the JSON
//! records. The speedup figures list their cells as (baseline, SAVE)
//! pairs and reduce each pair's time ratio; Fig 14 lists the
//! [`Estimator`]'s cells and reduces them with its sums.
//!
//! [`Figure::run`] resolves every cell in one
//! [`SweepSession::spec_seconds_batch`], so a figure is journaled, resumed
//! and sent to a `--serve` daemon as one unit, cells that share a key (a
//! baseline several pairs compare against) run once, and its local cells
//! run in parallel on `--threads` workers through one
//! `Executor::resolve_all` call. The result does not depend on the thread
//! count. [`main`] is the whole body of a figure command; tests read the
//! same [`Report`] in-process.

use crate::{print_table, write_json, BenchCli, CommandArgs, SweepSession};
use save_core::{CoreConfig, SchedulerKind};
use save_kernels::{BroadcastPattern, ConvShape, GemmKernelSpec, GemmWorkload, Phase, Precision};
use save_mem::BcastDesign;
use save_sim::{CellSpec, ConfigKind, Estimator, EstimatorConfig, MachineConfig, Network, SimError};
use save_sparsity::NetKind;
use serde::Serialize;
use std::process::ExitCode;

/// Two cells whose time ratio `t(base) / t(save)` is one reported value:
/// the speedup of `save` over `base`.
struct Pair {
    /// Names the pair in lookups, failure reports and daemon jobs.
    label: String,
    /// The reference cell: the 2-VPU baseline unless the figure says otherwise.
    base: CellSpec,
    /// The cell whose speedup over `base` is reported.
    save: CellSpec,
}

/// One table row: a label and its values.
#[derive(Clone, Serialize)]
pub struct Row {
    /// The label column.
    pub label: String,
    /// The numbers behind the printed cells.
    pub values: Vec<f64>,
}

/// How a table prints its values: `1.23`, `1.23x`, Fig 16's (conv, LSTM)
/// kernel counts per bin as `3+2` then the geomean as `1.23x`, the
/// prefetch study's plain slowdown then `1.23x` speedup, or Fig 14's
/// `1.23x` speedups then a fraction as a `3%` share.
#[derive(Clone, Copy, Serialize)]
enum Format {
    Plain,
    Times,
    Histogram,
    Prefetch,
    Share,
}

/// A printed table of numbers. The speedup-table figures save their tables
/// as their JSON artifact.
#[derive(Clone, Serialize)]
pub struct Table {
    /// The title line.
    pub title: String,
    /// The rows, in print order.
    pub rows: Vec<Row>,
    /// Lines printed before the title.
    preamble: Vec<String>,
    /// Column headers, the label column's first.
    headers: Vec<String>,
    /// The sparsity levels of a grid table's columns; empty otherwise.
    grid: Vec<f64>,
    format: Format,
}

impl Table {
    fn new(title: &str, headers: &[&str], format: Format) -> Table {
        let headers = headers.iter().map(|h| h.to_string()).collect();
        Table { preamble: Vec::new(), title: title.into(), headers, grid: Vec::new(), rows: Vec::new(), format }
    }

    /// An empty table of speedups over `grid` along `axis` ("BS" or "NBS").
    fn grid(title: &str, corner: &str, axis: &str, grid: &[f64]) -> Table {
        let mut t = Table::new(title, &[corner], Format::Plain);
        t.headers.extend(grid.iter().map(|x| format!("{axis} {:.0}%", x * 100.0)));
        t.grid = grid.to_vec();
        t
    }

    /// Appends a row of `n` values for [`fill`] to fill in.
    fn push(&mut self, label: String, n: usize) {
        self.rows.push(Row { label, values: vec![f64::NAN; n] });
    }

    /// Prints the preamble and the aligned table.
    pub fn print(&self) {
        for line in &self.preamble {
            println!("{line}");
        }
        let fixed = |v: &[f64], unit: &str| v.iter().map(|x| format!("{x:.2}{unit}")).collect::<Vec<_>>();
        let rows: Vec<Vec<String>> = self.rows.iter().map(|r| {
            let v = &r.values;
            let cells = match self.format {
                Format::Plain => fixed(v, ""),
                Format::Times => fixed(v, "x"),
                Format::Histogram => {
                    let (counts, geomean) = v.split_at(v.len() - 1);
                    let counts = counts.chunks(2).map(|c| format!("{}+{}", c[0], c[1]));
                    counts.chain(fixed(geomean, "x")).collect()
                }
                Format::Prefetch => [fixed(&v[..1], ""), fixed(&v[1..], "x")].concat(),
                Format::Share => {
                    let (speedups, share) = v.split_at(v.len() - 1);
                    fixed(speedups, "x").into_iter().chain([format!("{:.0}%", share[0] * 100.0)]).collect()
                }
            };
            std::iter::once(r.label.clone()).chain(cells).collect()
        }).collect();
        let headers: Vec<&str> = self.headers.iter().map(String::as_str).collect();
        print_table(&self.title, &headers, &rows);
    }
}

/// One kernel's Fig 16 cap in one panel: its best finite speedup over the corners, else `NaN`.
#[derive(Clone, Serialize)]
struct Cap {
    name: String,
    is_lstm: bool,
    precision: String,
    vpus: usize,
    cap: f64,
}

/// One Fig 14 estimate: a network's times at one precision, normalized to
/// the baseline, and the dynamic policy's training time split by phase.
#[derive(Clone, Serialize)]
struct NetResult {
    network: String,
    precision: String,
    inference_norm: Vec<(String, f64)>,
    inference_first_layer_frac: f64,
    training_norm: Vec<(String, f64)>,
    training_breakdown_dynamic: Vec<(String, f64)>,
}

/// The JSON artifact a figure writes to `target/experiments/<name>.json`.
#[derive(Clone)]
enum Json {
    None,
    Tables,
    Caps(Vec<Cap>),
    Nets(Vec<NetResult>),
}

/// What a figure prints and saves.
pub struct Report {
    /// The tables, in print order.
    pub tables: Vec<Table>,
    /// Lines printed after the tables.
    pub notes: Vec<String>,
    json: Json,
}

impl Report {
    /// Prints every table and note, then saves the JSON artifact as `name`.
    ///
    /// # Errors
    /// [`SimError::Io`] if the artifact cannot be written.
    pub fn emit(&self, name: &str) -> Result<(), SimError> {
        self.tables.iter().for_each(Table::print);
        self.notes.iter().for_each(|line| println!("{line}"));
        match &self.json {
            Json::None => Ok(()),
            Json::Tables => write_json(name, &self.tables),
            Json::Caps(caps) => write_json(name, caps),
            Json::Nets(nets) => write_json(name, nets),
        }
    }
}

/// A figure's reducer: one seconds value per cell, in cell order, to its report.
type Reduce = Box<dyn Fn(&[f64]) -> Report>;

/// One figure: its labelled cells for one grid and the reducer of their seconds.
pub struct Figure {
    /// The labelled cells, in batch order: the order the reducer reads
    /// their seconds in. A pair figure lists each pair's baseline cell,
    /// labelled `"<pair> baseline"`, then its SAVE cell, labelled `"<pair>"`.
    pub cells: Vec<(String, CellSpec)>,
    reduce: Reduce,
}

impl Figure {
    /// Builds the figure `name` (`fig14`-`fig19`, `extensions`, `ablation`)
    /// at the scale `cli` asks for: its grid, and `--quick`'s one Fig 16 corner.
    ///
    /// # Errors
    /// [`SimError::InvalidConfig`] for an unknown figure or a kernel
    /// missing from the shape table.
    pub fn build(name: &str, cli: &BenchCli) -> Result<Figure, SimError> {
        let grid = cli.grid();
        match name {
            "fig14" => Ok(fig14(grid)),
            "fig15" => fig15(grid),
            "fig16" => Ok(fig16(cli.quick)),
            "fig17" => fig17(&grid),
            "fig18" => fig18(&grid),
            "fig19" => fig19(&grid),
            "extensions" => Ok(extensions(&grid)),
            "ablation" => ablation(),
            _ => Err(SimError::InvalidConfig { what: format!("no figure named {name}") }),
        }
    }

    /// A figure of `pairs` whose `reduce` reads one speedup per pair, in pair order.
    fn pairs(pairs: Vec<Pair>, reduce: impl Fn(&[f64]) -> Report + 'static) -> Figure {
        let cells = pairs.into_iter().flat_map(|p| [(format!("{} baseline", p.label), p.base), (p.label, p.save)]);
        let reduce = move |secs: &[f64]| reduce(&secs.chunks(2).map(|t| t[0] / t[1]).collect::<Vec<_>>());
        Figure { cells: cells.collect(), reduce: Box::new(reduce) }
    }

    /// A pair figure whose table rows take one speedup per pair, in pair order.
    fn filled(pairs: Vec<Pair>, tables: Vec<Table>, notes: &[&str], json: Json) -> Figure {
        let notes: Vec<String> = notes.iter().map(|n| n.to_string()).collect();
        Figure::pairs(pairs, move |s| Report { tables: fill(&tables, s), notes: notes.clone(), json: json.clone() })
    }

    /// Reduces one seconds value per cell, in cell order, to the report.
    pub fn reduce(&self, secs: &[f64]) -> Report {
        (self.reduce)(secs)
    }

    /// Runs every cell as one batch and reduces their seconds. A failed
    /// cell's seconds are `NaN`; the session records the failure.
    pub fn run(&self, session: &mut SweepSession) -> Report {
        let secs: Vec<f64> = session.spec_seconds_batch(&self.cells).into_iter().map(|(s, _)| s).collect();
        self.reduce(&secs)
    }
}

/// `tables` with every row value, in order, taken from `speedups`.
fn fill(tables: &[Table], speedups: &[f64]) -> Vec<Table> {
    let mut tables = tables.to_vec();
    let mut s = speedups.iter();
    for v in tables.iter_mut().flat_map(|t| &mut t.rows).flat_map(|r| &mut r.values) {
        *v = s.next().copied().unwrap_or(f64::NAN);
    }
    tables
}

/// The figure command `name`: builds the figure for the uniform flags in
/// `argv` (it reads no others), runs it, prints its tables and saves its JSON.
pub fn main(name: &'static str, argv: Vec<String>) -> ExitCode {
    crate::run_main(name, argv, &CommandArgs::default(), |cli, session| Figure::build(name, cli)?.run(session).emit(name))
}

/// The named convolution shape.
///
/// # Errors
/// [`SimError::InvalidConfig`] if the shape table has none.
pub fn conv(name: &str) -> Result<ConvShape, SimError> {
    save_kernels::shapes::conv_by_name(name)
        .ok_or_else(|| SimError::InvalidConfig { what: format!("{name} missing from the shape table") })
}

/// The data seed of a (BS, NBS) point.
fn seed(bs: f64, nbs: f64) -> u64 {
    ((bs * 100.0) as u64) << 8 | (nbs * 100.0) as u64
}

/// Fig 14 — whole-network performance at realistic sparsity: the summed
/// time of all conv layers / LSTM cells for inference (a, b) and end-to-end
/// training (c, d), as speedups over the baseline at the SAVE operating
/// points (2 VPUs @ 1.7 GHz, 1 VPU @ 2.1 GHz, per-epoch *static* and
/// per-kernel *dynamic* selection), for four networks at both precisions.
/// The cells and the sums are the [`Estimator`]'s (§VI); the JSON records
/// each estimate's times normalized to the baseline.
///
/// Paper landmarks (dynamic, mixed precision): inference speedups 1.68x
/// (dense VGG16), 1.37x (dense ResNet-50), 1.59x (pruned ResNet-50), 1.39x
/// (pruned GNMT); end-to-end training 1.64x / 1.29x / 1.42x / 1.28x.
fn fig14(grid: Vec<f64>) -> Figure {
    let est = Estimator::new(EstimatorConfig { grid, ..Default::default() });
    let kinds = [NetKind::Vgg16Dense, NetKind::ResNet50Dense, NetKind::ResNet50Pruned, NetKind::GnmtPruned];
    let estimates: Vec<(Precision, NetKind, Network)> =
        PRECISIONS.into_iter().flat_map(|p| kinds.map(|kind| (p, kind, Network::build(kind)))).collect();
    // Every estimate's inference then training cells.
    let (mut cells, mut spans) = (Vec::new(), Vec::new());
    for (prec, kind, net) in &estimates {
        let (inf, tr) = (est.inference_cells(net, *prec), est.training_cells(net, *prec));
        spans.push((inf.len(), tr.len()));
        let name = format!("{} {prec}", kind.label());
        cells.extend(inf.into_iter().chain(tr).map(|(label, spec)| (format!("{name} {label}"), spec)));
    }
    let title = "Fig 14a/b: inference speedup over baseline";
    let inference = Table::new(title, &["network", "2 VPUs", "1 VPU", "dynamic", "1st-layer share"], Format::Share);
    let title = "Fig 14c/d: end-to-end training speedup over baseline";
    let training = Table::new(title, &["network", "2 VPUs", "1 VPU", "static", "dynamic"], Format::Times);
    // Policy totals as speedups over `base`, and as times normalized to it.
    let speedups = |base: f64, totals: &[(&str, f64)]| totals.iter().map(|&(_, t)| base / t).collect::<Vec<_>>();
    let norm = |base: f64, totals: &[(&str, f64)]| {
        let totals = totals.iter().map(|&(n, t)| (n.to_string(), t / base));
        std::iter::once(("baseline".to_string(), 1.0)).chain(totals).collect()
    };
    let reduce = move |secs: &[f64]| {
        let (mut tables, mut nets, mut rest) = ([inference.clone(), training.clone()], Vec::new(), secs);
        for ((prec, kind, net), &(n_inf, n_tr)) in estimates.iter().zip(&spans) {
            let (inf_secs, tail) = rest.split_at(n_inf);
            let (tr_secs, tail) = tail.split_at(n_tr);
            rest = tail;
            let (inf, tr) = (est.inference(net, *prec, inf_secs), est.training(net, *prec, tr_secs));
            let inf_totals = [("2 VPUs", inf.save2), ("1 VPU", inf.save1), ("dynamic", inf.dynamic)];
            let inf_totals = inf_totals.map(|(n, t)| (n, t.total()));
            let tr_totals = [("2 VPUs", tr.save2), ("1 VPU", tr.save1), ("static", tr.static_), ("dynamic", tr.dynamic)];
            let tr_totals = tr_totals.map(|(n, t)| (n, t.total()));
            let (ib, tb) = (inf.baseline.total(), tr.baseline.total());
            let share = inf.baseline.first_layer / ib;
            let label = format!("{} {prec}", kind.label());
            tables[0].rows.push(Row { label: label.clone(), values: [speedups(ib, &inf_totals), vec![share]].concat() });
            tables[1].rows.push(Row { label, values: speedups(tb, &tr_totals) });
            let d = tr.dynamic;
            let phases = [
                ("forward", d.forward),
                ("backward input", d.backward_input),
                ("backward weight", d.backward_weights),
                ("1st layer", d.first_layer),
            ];
            nets.push(NetResult {
                network: kind.label().to_string(),
                precision: prec.to_string(),
                inference_norm: norm(ib, &inf_totals),
                inference_first_layer_frac: share,
                training_norm: norm(tb, &tr_totals),
                training_breakdown_dynamic: phases.map(|(n, t)| (n.to_string(), t / d.total())).into(),
            });
        }
        let notes = vec![
            "\npaper (dynamic, MP): inference 1.68x VGG16 / 1.37x RN50 dense / 1.59x RN50 pruned / 1.39x GNMT".into(),
            "                     training  1.64x        / 1.29x          / 1.42x           / 1.28x".into(),
        ];
        Report { tables: tables.into(), notes, json: Json::Nets(nets) }
    };
    Figure { cells, reduce: Box::new(reduce) }
}

/// Fig 15 — speedups over the full (NBS x BS) grid on the mixed-precision
/// forward propagation of ResNet2_2, with 2 VPUs @ 1.7 GHz and 1 VPU @
/// 2.1 GHz.
///
/// Paper landmarks: the 2-VPU benefit caps at ~1.49x once either sparsity
/// type reaches ~60%; 1 VPU is 29% slower when dense, reaches ~1.96x, and
/// overtakes 2 VPUs past ~70% sparsity.
fn fig15(grid: Vec<f64>) -> Result<Figure, SimError> {
    let w0 = conv("ResNet2_2")?.workload(Phase::Forward, Precision::Mixed);
    let mut tables = [
        Table::grid("Fig 15a: ResNet2_2 MP fwd speedup, 2 VPUs @ 1.7GHz", "", "BS", &grid),
        Table::grid("Fig 15b: ResNet2_2 MP fwd speedup, 1 VPU @ 2.1GHz", "", "BS", &grid),
    ];
    let mut pairs = Vec::new();
    // Grid-point-major: a point's three operating points sit together.
    for &nbs in &grid {
        tables.iter_mut().for_each(|t| t.push(format!("NBS {:>3.0}%", nbs * 100.0), grid.len()));
        for &bs in &grid {
            let w = w0.clone().with_sparsity(bs, nbs);
            let cell = |kind| CellSpec::new(w.clone(), kind, MachineConfig::default(), seed(bs, nbs));
            for kind in [ConfigKind::Save2Vpu, ConfigKind::Save1Vpu] {
                let label = format!("bs={bs:.1} nbs={nbs:.1} {}", kind.label());
                pairs.push(Pair { label, base: cell(ConfigKind::Baseline), save: cell(kind) });
            }
        }
    }
    let reduce = move |s: &[f64]| {
        let (two, one): (Vec<f64>, Vec<f64>) = s.chunks(2).map(|p| (p[0], p[1])).unzip();
        let max = |v: &[f64]| v.iter().copied().fold(0.0f64, f64::max);
        // Every grid starts at 0% BS and 0% NBS.
        let notes = vec![
            format!("\nlandmarks: 2-VPU cap {:.2}x (paper ~1.49x); 1-VPU max {:.2}x (paper ~1.96x);", max(&two), max(&one)),
            format!("           1-VPU dense {:.2}x (paper ~0.71x, i.e. 29% slowdown)", one[0]),
        ];
        Report { tables: fill(&tables, &[two, one].concat()), notes, json: Json::Tables }
    };
    Ok(Figure::pairs(pairs, reduce))
}

/// Fig 16's 93 kernels at precision `p` as (name, is LSTM, workload): 62
/// convolution kernels and 31 LSTM cell kernels.
fn kernel_set(p: Precision) -> Vec<(String, bool, GemmWorkload)> {
    let mut set = Vec::new();
    // 38 VGG16 kernels: 13 fwd + 12 bwd-input (no first layer) + 13 bwd-w.
    for (i, s) in save_kernels::shapes::vgg16().into_iter().enumerate() {
        for phase in Phase::ALL.into_iter().filter(|&ph| i > 0 || ph != Phase::BackwardInput) {
            set.push((format!("{} {phase}", s.name), false, s.workload(phase, p)));
        }
    }
    // 24 unique ResNet-50 shapes, forward.
    for s in save_kernels::shapes::resnet50() {
        set.push((format!("{} fwd", s.name), false, s.workload(Phase::Forward, p)));
    }
    // 31 LSTM kernels: 3 GNMT cells x {fwd, bwd} x 5 batch-reuse settings,
    // plus one long-sequence decoder variant.
    let cells = save_kernels::shapes::gnmt(64);
    for c in &cells {
        for phase in [Phase::Forward, Phase::BackwardInput] {
            for reuse in [1usize, 2, 4, 8, 16] {
                let w = GemmWorkload { b_panel_tiles: reuse, ..c.workload(phase, p) };
                set.push((format!("{} {phase} r{reuse}", c.name), true, w));
            }
        }
    }
    if let Some(dec) = cells.last() {
        let w = GemmWorkload { tiles: 24, b_panel_tiles: 8, ..dec.workload(Phase::Forward, p) };
        set.push(("GNMT dec fwd long".into(), true, w));
    }
    set
}

const PRECISIONS: [Precision; 2] = [Precision::F32, Precision::Mixed];
const PANELS: [(usize, ConfigKind); 2] = [(2, ConfigKind::Save2Vpu), (1, ConfigKind::Save1Vpu)];
const BINS: [(f64, f64); 6] = [(1.0, 1.2), (1.2, 1.4), (1.4, 1.6), (1.6, 1.8), (1.8, 2.0), (2.0, f64::MAX)];

/// Fig 16 — histogram of per-kernel speedup caps: each kernel's best
/// speedup over the high-sparsity corner points, for FP32 and mixed
/// precision with 2 VPUs @ 1.7 GHz and 1 VPU @ 2.1 GHz.
///
/// Paper landmarks (geometric means of the caps): FP32 1.39x (2 VPUs) /
/// 1.62x (1 VPU); MP 1.48x / 1.77x; using 1 VPU at higher frequency lifts
/// the caps; LSTM kernels cap lower than conv kernels (memory bound).
fn fig16(quick: bool) -> Figure {
    let corners = if quick { vec![(0.8, 0.8)] } else { vec![(0.6, 0.6), (0.8, 0.8), (0.9, 0.9)] };
    // Kernel-major: one kernel x corner's baseline and both VPU panels sit
    // together.
    let mut pairs = Vec::new();
    for prec in PRECISIONS {
        for (name, _, w0) in kernel_set(prec) {
            for (i, &(a, b)) in corners.iter().enumerate() {
                let w = w0.clone().with_sparsity(a, b);
                let cell = |kind| CellSpec::new(w.clone(), kind, MachineConfig::default(), 1000 + i as u64);
                for (vpus, kind) in PANELS {
                    let label = format!("{name} {prec} {vpus}vpu corner{i}");
                    pairs.push(Pair { label, base: cell(ConfigKind::Baseline), save: cell(kind) });
                }
            }
        }
    }
    let kernels: Vec<(String, bool)> =
        kernel_set(Precision::F32).into_iter().map(|(name, is_lstm, _)| (name, is_lstm)).collect();
    let lstm = kernels.iter().filter(|k| k.1).count();
    let title = "Fig 16: speedup-cap histogram (cells are conv+LSTM kernel counts)";
    let bins = ["panel", "1.0-1.2x", "1.2-1.4x", "1.4-1.6x", "1.6-1.8x", "1.8-2.0x", ">2.0x", "geomean"];
    let mut table = Table::new(title, &bins, Format::Histogram);
    table.preamble.push(format!("kernel set: {} kernels ({} conv, {lstm} LSTM)", kernels.len(), kernels.len() - lstm));
    let reduce = move |s: &[f64]| {
        let (mut table, mut caps) = (table.clone(), Vec::new());
        // Pair `((p * kernels + k) * corners + i) * panels + v`.
        let stride = corners.len() * PANELS.len();
        for (p, prec) in PRECISIONS.iter().enumerate() {
            for (v, (vpus, _)) in PANELS.iter().enumerate() {
                let panel: Vec<Cap> = kernels.iter().enumerate().map(|(k, (name, is_lstm))| {
                    let ratios = s[(p * kernels.len() + k) * stride..][..stride].iter().skip(v).step_by(PANELS.len());
                    let cap = ratios.copied().filter(|r| r.is_finite()).fold(f64::NAN, f64::max);
                    Cap { name: name.clone(), is_lstm: *is_lstm, precision: prec.to_string(), vpus: *vpus, cap }
                }).collect();
                table.rows.push(histogram(format!("{prec} {vpus} VPU(s)"), &panel));
                caps.extend(panel);
            }
        }
        Report { tables: vec![table], notes: Vec::new(), json: Json::Caps(caps) }
    };
    Figure::pairs(pairs, reduce)
}

/// One panel's histogram row: conv and LSTM kernel counts per bin,
/// interleaved, then the geometric mean of the caps. A kernel without a
/// finite cap (every corner failed) is in no bin and not in the mean; a
/// finite cap below the first bin counts in it.
fn histogram(label: String, panel: &[Cap]) -> Row {
    let caps: Vec<&Cap> = panel.iter().filter(|c| c.cap.is_finite()).collect();
    let mut values = vec![0.0; 2 * BINS.len()];
    for c in &caps {
        let bin = BINS.iter().position(|&(lo, hi)| c.cap >= lo && c.cap < hi).unwrap_or(0);
        values[2 * bin + usize::from(c.is_lstm)] += 1.0;
    }
    values.push((caps.iter().map(|c| c.cap.ln()).sum::<f64>() / caps.len() as f64).exp());
    Row { label, values }
}

/// Fig 17 — broadcast-cache designs on an embedded-broadcast kernel: the
/// FP32 backward-weights kernel of ResNet3_2 with two VPUs, with no B$, a
/// mask-design B$ and a data-design B$, at 0% and 40% broadcasted sparsity.
///
/// Paper landmarks: without a B$ there is no speedup at any sparsity; both
/// designs help as BS grows; only the data design keeps improving with NBS
/// (the mask design still burns an L1-D port on non-zero broadcasts).
fn fig17(grid: &[f64]) -> Result<Figure, SimError> {
    let w0 = conv("ResNet3_2")?.workload(Phase::BackwardWeights, Precision::F32);
    assert_eq!(w0.spec.pattern, BroadcastPattern::Embedded);
    let title = "Fig 17: ResNet3_2 FP32 bwd-weights (embedded broadcast), 2 VPUs";
    let mut table = Table::grid(title, "config", "NBS", grid);
    let designs = [("No B$", None), ("B$ w/ masks", Some(BcastDesign::Masks)), ("B$ w/ data", Some(BcastDesign::Data))];
    // The baseline never has a B$ (it is a SAVE structure), so the three
    // designs share it.
    let mut base_machine = MachineConfig::default();
    base_machine.mem.bcast = None;
    let mut pairs = Vec::new();
    for bs in [0.0, 0.4] {
        for (label, bcast) in designs {
            let mut machine = MachineConfig::default();
            machine.mem.bcast = bcast;
            for &nbs in grid {
                let w = w0.clone().with_sparsity(bs, nbs);
                pairs.push(Pair {
                    label: format!("{label} bs={bs:.1} nbs={nbs:.1}"),
                    base: CellSpec::custom(w.clone(), CoreConfig::baseline(), base_machine, seed(bs, nbs)),
                    save: CellSpec::custom(w, CoreConfig::save_2vpu(), machine, seed(bs, nbs)),
                });
            }
            table.push(format!("{label} @ {:.0}% BS", bs * 100.0), grid.len());
        }
    }
    Ok(Figure::filled(pairs, vec![table], &[], Json::Tables))
}

/// Fig 18 — load-balancing techniques for VPU lanes: vertical coalescing
/// (VC), rotate-vertical coalescing (RVC), lane-wise dependence (LWD),
/// their combination, and the impractical horizontal compression (HC, +6
/// cycles latency), on the two backward-input kernels of pruned ResNet-50
/// (the paper's only NBS-without-BS case), with one VPU.
///
/// Paper landmarks: on ResNet3_2 (28 accumulators, non-broadcast register
/// reused 28x, effective CW ~ 1) RVC dominates VC+LWD; on ResNet5_1a (21
/// accumulators, reuse 7, effective CW ~ 3) VC+LWD gains more than RVC;
/// RVC+LWD is best everywhere; HC wins slightly at medium sparsity but
/// loses at high sparsity where its extra latency bites.
fn fig18(grid: &[f64]) -> Result<Figure, SimError> {
    let base = CoreConfig::save_1vpu();
    let techniques = [
        ("VC", CoreConfig { rotate: false, lane_wise: false, ..base }),
        ("RVC", CoreConfig { rotate: true, lane_wise: false, ..base }),
        ("VC+LWD", CoreConfig { rotate: false, lane_wise: true, ..base }),
        ("RVC+LWD", CoreConfig { rotate: true, lane_wise: true, ..base }),
        ("HC", CoreConfig { scheduler: SchedulerKind::Horizontal, rotate: false, lane_wise: true, ..base }),
    ];
    let (mut pairs, mut tables) = (Vec::new(), Vec::new());
    for name in ["ResNet3_2", "ResNet5_1a"] {
        let shape = conv(name)?;
        let title = format!("Fig 18: {name} FP32 bwd-input, 1 VPU, speedup over 2-VPU baseline");
        let mut table = Table::grid(&title, "technique", "NBS", grid);
        let (m, n) = shape.blocking(Phase::BackwardInput);
        table.preamble.push(format!(
            "\nkernel {name} bwd-input: {} accumulators, register reuse {m}, effective CW ~ {n}",
            m * n
        ));
        let w0 = shape.workload(Phase::BackwardInput, Precision::F32);
        // The five techniques share each baseline.
        for (label, cfg) in techniques {
            for &nbs in grid {
                let w = w0.clone().with_sparsity(0.0, nbs);
                let cell = |cfg| CellSpec::custom(w.clone(), cfg, MachineConfig::default(), seed(0.0, nbs));
                let label = format!("{name} {label} nbs={nbs:.1}");
                pairs.push(Pair { label, base: cell(CoreConfig::baseline()), save: cell(cfg) });
            }
            table.push(label.into(), grid.len());
        }
        tables.push(table);
    }
    Ok(Figure::filled(pairs, tables, &[], Json::Tables))
}

/// Fig 19 — the mixed-precision technique (§V): speedups on the
/// mixed-precision backward-input kernel of ResNet4_1a with one VPU, with
/// and without multiplicand-lane compression.
///
/// Without the technique an accumulator lane can only be skipped when both
/// of its BF16 multiplicand lanes are ineffectual, so exploitable sparsity
/// is roughly squared; ML compression recovers it at every level.
fn fig19(grid: &[f64]) -> Result<Figure, SimError> {
    let w0 = conv("ResNet4_1a")?.workload(Phase::BackwardInput, Precision::Mixed);
    let title = "Fig 19: ResNet4_1a MP bwd-input, 1 VPU, speedup over 2-VPU baseline";
    let mut table = Table::grid(title, "config", "NBS", grid);
    // Both rows share each baseline.
    let mut pairs = Vec::new();
    for (label, mp_compress) in [("w/o MP techniques", false), ("w/ MP techniques", true)] {
        let cfg = CoreConfig { mp_compress, ..CoreConfig::save_1vpu() };
        for &nbs in grid {
            let w = w0.clone().with_sparsity(0.0, nbs);
            let cell = |cfg| CellSpec::custom(w.clone(), cfg, MachineConfig::default(), seed(0.0, nbs));
            let label = format!("{label} nbs={nbs:.1}");
            pairs.push(Pair { label, base: cell(CoreConfig::baseline()), save: cell(cfg) });
        }
        table.push(label.into(), grid.len());
    }
    Ok(Figure::filled(pairs, vec![table], &[], Json::Tables))
}

/// Related-work synergies from §VIII, made quantitative:
///
/// 1. **SparseTrain** (software BS skipping, Gong et al. PACT'20): branches
///    around zero-broadcast VFMA groups in software. Exploits BS only, on
///    unmodified hardware — and *composes* with SAVE because it relieves
///    the front-end bandwidth SAVE is bound by at high BS.
/// 2. **ZCOMP** (compressed vector loads, Akin et al. MICRO'19): stores
///    streamed panels compressed, so memory traffic shrinks proportionally
///    to NBS — exactly the reduction SAVE makes in computation, lifting the
///    bandwidth cap of memory-bound (LSTM-like) kernels.
fn extensions(grid: &[f64]) -> Figure {
    let spec = GemmKernelSpec { m_tiles: 6, n_vecs: 3, pattern: BroadcastPattern::Explicit, precision: Precision::F32 };
    let cell = |w: &GemmWorkload, kind, seed| CellSpec::new(w.clone(), kind, MachineConfig::default(), seed);
    let title = "Extension: SparseTrain-style software skipping vs SAVE (speedup over baseline)";
    let mut skipping = Table::grid(title, "approach", "BS", grid);
    let title = "Extension: ZCOMP compressed streaming on a bandwidth-bound kernel (speedup over baseline)";
    let mut zcomp = Table::grid(title, "approach", "NBS", grid);
    // Rows that compare against the same baseline share it.
    let mut pairs = Vec::new();
    // 1. SparseTrain-style software skipping vs / with SAVE, across BS,
    // under uniform-random and clustered (ReLU-like) sparsity.
    for (label, software_bs_skip, kind, a_cluster) in [
        ("software skip, uniform zeros", true, ConfigKind::Baseline, 1usize),
        ("software skip, clustered zeros", true, ConfigKind::Baseline, 16),
        ("SAVE (hardware), uniform", false, ConfigKind::Save2Vpu, 1),
        ("SAVE (hardware), clustered", false, ConfigKind::Save2Vpu, 16),
        ("SAVE + software skip, clustered", true, ConfigKind::Save2Vpu, 16),
    ] {
        for &bs in grid {
            let plain = GemmWorkload { a_cluster, ..GemmWorkload::dense("st", spec, 64, 3).with_sparsity(bs, 0.0) };
            let w = GemmWorkload { software_bs_skip, ..plain.clone() };
            let (label, seed) = (format!("{label} bs={bs:.1}"), seed(0.0, bs));
            pairs.push(Pair { label, base: cell(&plain, ConfigKind::Baseline, seed), save: cell(&w, kind, seed) });
        }
        skipping.push(label.into(), grid.len());
    }
    // 2. ZCOMP compressed streaming on a bandwidth-bound kernel, across NBS.
    let streaming = |nbs: f64, compressed_b: bool| GemmWorkload {
        b_panel_tiles: 1,
        compressed_b,
        ..GemmWorkload::dense("zc", spec, 64, 8).with_sparsity(0.2, nbs)
    };
    for (label, compressed, kind) in [
        ("SAVE 2 VPUs", false, ConfigKind::Save2Vpu),
        ("SAVE 2 VPUs + ZCOMP", true, ConfigKind::Save2Vpu),
        ("SAVE 1 VPU", false, ConfigKind::Save1Vpu),
        ("SAVE 1 VPU + ZCOMP", true, ConfigKind::Save1Vpu),
    ] {
        for &nbs in grid {
            pairs.push(Pair {
                label: format!("{label} nbs={nbs:.1}"),
                base: cell(&streaming(nbs, false), ConfigKind::Baseline, seed(0.0, nbs)),
                save: cell(&streaming(nbs, compressed), kind, seed(0.0, nbs)),
            });
        }
        zcomp.push(label.into(), grid.len());
    }
    let notes = [
        "\nReadings: software zero-skipping lives and dies by branch prediction —",
        "clustered (ReLU-like) zeros predict well, uniform random zeros do not —",
        "while SAVE is insensitive to sparsity structure; and ZCOMP keeps",
        "memory-bound kernels scaling with NBS where SAVE alone hits the",
        "bandwidth roof (§VIII).",
    ];
    Figure::filled(pairs, vec![skipping, zcomp], &notes, Json::None)
}

/// The ablation's batch studies, on ResNet3_2 fwd FP32 and ResNet4_1a MP
/// bwd-input at 60% NBS: allocation width, stream-prefetch depth, and MP
/// partial-result forwarding overlap (§V-B).
fn ablation() -> Result<Figure, SimError> {
    let m = MachineConfig::default();
    let fwd = conv("ResNet3_2")?.workload(Phase::Forward, Precision::F32).with_sparsity(0.0, 0.6);
    let mp = conv("ResNet4_1a")?.workload(Phase::BackwardInput, Precision::Mixed).with_sparsity(0.0, 0.6);
    let cell = |w: &GemmWorkload, cfg, m| CellSpec::custom(w.clone(), cfg, m, 1);
    let (base, save) = (CoreConfig::baseline(), CoreConfig::save_2vpu());
    let mut tables = [
        ("Ablation: allocation width (speedup vs same-width baseline)", &["front end", "speedup"][..], Format::Times),
        (
            "Ablation: stream-prefetch depth (baseline time vs depth-64 baseline; SAVE speedup)",
            &["depth", "baseline slowdown", "SAVE speedup"],
            Format::Prefetch,
        ),
        ("Ablation: MP partial-result forwarding overlap (ResNet4_1a MP bwd-input, 1 VPU)", &["overlap", "speedup"], Format::Times),
    ]
    .map(|(title, headers, format)| Table::new(title, headers, format));
    let mut pairs = Vec::new();
    for w in [3usize, 4, 5, 6] {
        let (b, s) = (CoreConfig { issue_width: w, commit_width: w, ..base }, CoreConfig { issue_width: w, commit_width: w, ..save });
        pairs.push(Pair { label: format!("width={w}"), base: cell(&fwd, b, m), save: cell(&fwd, s, m) });
        tables[0].push(format!("{w}-wide"), 1);
    }
    // The default machine prefetches 64 deep, so the depth-64 cells are the
    // 5-wide ones. The first pair of each depth is the baseline's slowdown.
    for depth in [0u64, 8, 16, 64] {
        let mut md = m;
        md.mem.prefetch_degree = depth;
        pairs.push(Pair { label: format!("prefetch={depth} slowdown"), base: cell(&fwd, base, md), save: cell(&fwd, base, m) });
        pairs.push(Pair { label: format!("prefetch={depth}"), base: cell(&fwd, base, md), save: cell(&fwd, save, md) });
        tables[1].push(depth.to_string(), 2);
    }
    for o in [0u64, 1, 2, 3] {
        let cfg = CoreConfig { mp_forward_overlap: o, ..CoreConfig::save_1vpu() };
        pairs.push(Pair { label: format!("overlap={o}"), base: cell(&mp, base, m), save: cell(&mp, cfg, m) });
        tables[2].push(format!("{o} cycles"), 1);
    }
    Ok(Figure::filled(pairs, tables.to_vec(), &[], Json::None))
}
