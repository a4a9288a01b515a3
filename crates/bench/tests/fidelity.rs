//! Paper-shape gate: Figs 14-19 on the `--quick` grid (0/30/60/90%), run
//! in-process through `save_bench::figures` and read from the same
//! `Report` tables the binaries print, must keep the shapes the paper
//! reports (EXPERIMENTS.md). Each test is named for the mechanism it pins,
//! so switching a mechanism off in the core fails a test by name. Values in
//! the comments are the quick-grid speedups these bounds were set against.

use save_bench::figures::{Figure, Report, Row, Table};
use save_bench::{BenchCli, SweepSession};
use std::sync::OnceLock;

fn quick() -> BenchCli {
    BenchCli::parse_from(["--quick"]).expect("--quick parses")
}

/// Runs figure `name` at quick scale; every cell must succeed.
fn run(name: &str) -> Report {
    let mut session = SweepSession::new(name);
    let report = Figure::build(name, &quick()).expect("figure builds").run(&mut session);
    assert!(session.is_clean(), "{name}: {}", session.report());
    report
}

/// Each figure runs once per test binary, shared by the tests that read it.
macro_rules! figure {
    ($f:ident) => {
        fn $f() -> &'static Report {
            static REPORT: OnceLock<Report> = OnceLock::new();
            REPORT.get_or_init(|| run(stringify!($f)))
        }
    };
}
figure!(fig14);
figure!(fig15);
figure!(fig16);
figure!(fig17);
figure!(fig18);
figure!(fig19);

/// The table whose title starts with `table`.
fn table<'a>(report: &'a Report, table: &str) -> &'a Table {
    report.tables.iter().find(|t| t.title.starts_with(table)).unwrap_or_else(|| panic!("no table {table:?}"))
}

/// The values of row `row` in the table whose title starts with `table`.
fn row<'a>(report: &'a Report, table: &str, row: &str) -> &'a [f64] {
    let t = self::table(report, table);
    let r = t.rows.iter().find(|r| r.label == row).unwrap_or_else(|| panic!("no row {row:?} in {table:?}"));
    &r.values
}

fn max(values: impl IntoIterator<Item = f64>) -> f64 {
    values.into_iter().fold(f64::NAN, f64::max)
}

/// Every value of the table whose title starts with `table`.
fn all(report: &Report, table: &str) -> Vec<f64> {
    self::table(report, table).rows.iter().flat_map(|r| r.values.iter().copied()).collect()
}

#[test]
fn fig15_two_vpu_speedup_caps_at_the_front_end_bound() {
    // 1.49x (paper ~1.49x).
    let cap = max(all(fig15(), "Fig 15a"));
    assert!((1.40..=1.60).contains(&cap), "2-VPU cap {cap}");
}

#[test]
fn fig15_one_vpu_trades_a_dense_slowdown_for_a_higher_cap() {
    // Dense 0.64x (paper 0.71x); max 1.75x vs the 2-VPU 1.49x.
    let dense = row(fig15(), "Fig 15b", "NBS   0%")[0];
    assert!(dense < 1.0, "1-VPU dense point {dense}");
    let (one, two) = (max(all(fig15(), "Fig 15b")), max(all(fig15(), "Fig 15a")));
    assert!(one > two, "1-VPU max {one} vs 2-VPU max {two}");
}

#[test]
fn fig16_frequency_boost_lifts_the_one_vpu_geomean_in_both_precisions() {
    // FP32 1.52x vs 1.36x, MP 1.48x vs 1.33x.
    let geomean = |panel: &str| *row(fig16(), "Fig 16", panel).last().expect("geomean");
    for prec in ["FP32", "MP"] {
        let (one, two) = (geomean(&format!("{prec} 1 VPU(s)")), geomean(&format!("{prec} 2 VPU(s)")));
        assert!(one > two, "{prec}: 1-VPU geomean {one} vs 2-VPU {two}");
    }
}

#[test]
fn fig16_failed_kernel_is_left_out_of_bins_and_geomean() {
    // The reducer alone, fed synthetic speedups: the first kernel's every
    // corner failed (NaN), every other kernel has a finite cap. A pair's
    // cells are its baseline then its SAVE cell, which carries the pair's
    // label; seconds `(s, 1.0)` make its speedup `s`.
    let fig = Figure::build("fig16", &quick()).expect("figure builds");
    let pairs: Vec<&str> = fig.cells.chunks(2).map(|c| c[1].0.as_str()).collect();
    let dead = format!("{} ", pairs[0].split(" FP32 ").next().expect("kernel name"));
    let speedups: Vec<f64> = (0..pairs.len()).map(|i| 0.9 + (i % 23) as f64 * 0.06).collect();
    let failed: Vec<f64> =
        pairs.iter().zip(&speedups).map(|(p, &s)| if p.starts_with(&dead) { f64::NAN } else { s }).collect();
    let report = fig.reduce(&failed.iter().flat_map(|&s| [s, 1.0]).collect::<Vec<_>>());
    for prec in ["FP32", "MP"] {
        for vpus in [2, 1] {
            let panel = format!(" {prec} {vpus}vpu ");
            let caps: Vec<f64> = pairs
                .iter()
                .zip(&failed)
                .filter(|(p, s)| p.contains(&panel) && s.is_finite())
                .map(|(_, &s)| s)
                .collect();
            assert_eq!(caps.len(), 92);
            let values = row(&report, "Fig 16", &format!("{prec} {vpus} VPU(s)"));
            let (counts, geomean) = values.split_at(values.len() - 1);
            assert_eq!(counts.iter().sum::<f64>(), 92.0, "{prec} {vpus}: every other kernel binned once");
            let want = (caps.iter().map(|c| c.ln()).sum::<f64>() / 92.0).exp();
            assert!((geomean[0] - want).abs() < 1e-12, "{prec} {vpus}: geomean {} vs {want}", geomean[0]);
        }
    }
}

#[test]
fn fig17_without_bcache_embedded_broadcast_gains_nothing() {
    for bs in ["0%", "40%"] {
        for &s in row(fig17(), "Fig 17", &format!("No B$ @ {bs} BS")) {
            assert!((0.99..=1.01).contains(&s), "No B$ @ {bs} BS: {s}");
        }
    }
}

#[test]
fn fig17_data_design_beats_mask_design_at_every_nbs() {
    for bs in ["0%", "40%"] {
        let data = row(fig17(), "Fig 17", &format!("B$ w/ data @ {bs} BS"));
        let masks = row(fig17(), "Fig 17", &format!("B$ w/ masks @ {bs} BS"));
        for (i, (d, m)) in data.iter().zip(masks).enumerate() {
            assert!(d > m, "{bs} BS, NBS point {i}: data {d} vs masks {m}");
        }
    }
}

#[test]
fn fig18_rotation_fixes_the_reuse_imbalance_on_resnet3_2() {
    // RVC 0.78/1.05/1.95 vs VC 0.69/0.82/1.49 at 30/60/90% NBS.
    let table = "Fig 18: ResNet3_2";
    let (vc, rvc) = (row(fig18(), table, "VC"), row(fig18(), table, "RVC"));
    for i in 1..vc.len() {
        assert!(rvc[i] > vc[i], "NBS point {i}: RVC {} vs VC {}", rvc[i], vc[i]);
    }
}

#[test]
fn fig18_lane_wise_dependence_beats_rotation_on_resnet5_1a() {
    // VC+LWD 0.86/1.21/1.72 vs VC 0.78/1.04/1.69 and RVC 0.79/1.03/1.70.
    let table = "Fig 18: ResNet5_1a";
    let lwd = row(fig18(), table, "VC+LWD");
    for other in ["VC", "RVC"] {
        let o = row(fig18(), table, other);
        for i in 1..lwd.len() {
            assert!(lwd[i] > o[i], "NBS point {i}: VC+LWD {} vs {other} {}", lwd[i], o[i]);
        }
    }
}

#[test]
fn fig18_horizontal_compression_latency_loses_at_90pct_on_resnet5_1a() {
    // HC 1.65 vs VC+LWD 1.72.
    let table = "Fig 18: ResNet5_1a";
    let (hc, lwd) = (row(fig18(), table, "HC")[3], row(fig18(), table, "VC+LWD")[3]);
    assert!(hc < lwd, "90% NBS: HC {hc} vs VC+LWD {lwd}");
}

#[test]
fn fig19_multiplicand_lane_compression_recovers_mp_sparsity() {
    // 0.87/1.18 vs 0.71/0.94 at 30/60% NBS.
    let with = row(fig19(), "Fig 19", "w/ MP techniques");
    let without = row(fig19(), "Fig 19", "w/o MP techniques");
    for i in [1, 2] {
        assert!(with[i] > without[i], "NBS point {i}: {} vs {}", with[i], without[i]);
    }
}

#[test]
fn speedup_is_monotone_in_nbs() {
    let mut rows: Vec<(String, &[f64])> = Vec::new();
    for report in [fig18(), fig19()] {
        for t in &report.tables {
            rows.extend(t.rows.iter().map(|r| (format!("{}: {}", t.title, r.label), r.values.as_slice())));
        }
    }
    for bs in ["0%", "40%"] {
        let label = format!("B$ w/ data @ {bs} BS");
        rows.push((label.clone(), row(fig17(), "Fig 17", &label)));
    }
    for (label, values) in rows {
        assert!(values.windows(2).all(|w| w[1] >= w[0]), "{label}: {values:?}");
    }
}

/// Fig 14's rows, one per (network, precision) estimate: inference
/// speedups of 2 VPUs, 1 VPU and dynamic, then the baseline's first-layer
/// share.
fn inference() -> &'static [Row] {
    &table(fig14(), "Fig 14a/b").rows
}

/// Fig 14's rows, one per estimate: training speedups of 2 VPUs, 1 VPU,
/// static and dynamic.
fn training() -> &'static [Row] {
    &table(fig14(), "Fig 14c/d").rows
}

/// `a <= b` up to the rounding of summing the same buckets in another order.
fn at_most(a: f64, b: f64) -> bool {
    a <= b * (1.0 + 1e-12)
}

#[test]
fn fig14_two_vpus_static_and_dynamic_beat_the_baseline_everywhere() {
    // Quick grid: inference dynamic 1.24x (GNMT MP) to 1.73x, training
    // static 1.19x (dense ResNet-50 MP) to 1.54x.
    for r in inference() {
        for (what, s) in [("2 VPUs", r.values[0]), ("dynamic", r.values[2])] {
            assert!(s > 1.0, "{}: inference {what} speedup {s}", r.label);
        }
    }
    for r in training() {
        for (what, s) in [("2 VPUs", r.values[0]), ("static", r.values[2]), ("dynamic", r.values[3])] {
            assert!(s > 1.0, "{}: training {what} speedup {s}", r.label);
        }
    }
}

#[test]
fn fig14_one_vpu_beats_the_baseline_in_inference() {
    // 1.10x (dense ResNet-50 MP) to 1.73x. In training it does not: dense
    // ResNet-50 reads 0.88x FP32 and 0.86x MP.
    for r in inference() {
        assert!(r.values[1] > 1.0, "{}: inference 1 VPU speedup {}", r.label, r.values[1]);
    }
}

#[test]
fn fig14_training_speedup_orders_vgg16_over_pruned_over_dense_resnet50() {
    // FP32 1.57x > 1.39x > 1.21x, MP 1.55x > 1.36x > 1.19x (dynamic).
    for p in ["FP32", "MP"] {
        let dynamic = |net: &str| row(fig14(), "Fig 14c/d", &format!("{net} {p}"))[3];
        let vgg = dynamic("dense VGG16");
        let (pruned, dense) = (dynamic("pruned ResNet-50"), dynamic("dense ResNet-50"));
        assert!(vgg > pruned && pruned > dense, "{p}: VGG16 {vgg}, pruned {pruned}, dense {dense}");
    }
}

#[test]
fn fig14_dense_resnet50_is_the_lowest_cnn_for_inference() {
    // FP32 1.44x vs 1.61x / 1.70x, MP 1.43x vs 1.58x / 1.73x (dynamic).
    for p in ["FP32", "MP"] {
        let dynamic = |net: &str| row(fig14(), "Fig 14a/b", &format!("{net} {p}"))[2];
        let dense = dynamic("dense ResNet-50");
        for other in ["dense VGG16", "pruned ResNet-50"] {
            let s = dynamic(other);
            assert!(dense < s, "{p}: dense ResNet-50 {dense} vs {other} {s}");
        }
    }
}

#[test]
fn fig14_static_picks_the_better_fixed_config_per_epoch() {
    for r in training() {
        let (two, one, st) = (r.values[0], r.values[1], r.values[2]);
        assert!(at_most(two, st) && at_most(one, st), "{}: static {st} vs {two}, {one}", r.label);
    }
}

#[test]
fn fig14_dynamic_picks_the_better_config_per_kernel() {
    for r in inference() {
        let (two, one, dy) = (r.values[0], r.values[1], r.values[2]);
        assert!(at_most(two, dy) && at_most(one, dy), "{}: inference dynamic {dy} vs {two}, {one}", r.label);
    }
    for r in training() {
        let (st, dy) = (r.values[2], r.values[3]);
        assert!(at_most(st, dy), "{}: training dynamic {dy} vs static {st}", r.label);
    }
}

#[test]
fn fig14_first_layer_share_of_inference() {
    // CNNs 1-3%, GNMT 10%: the first layer has no input-activation sparsity.
    for r in inference() {
        let share = r.values[3];
        let range = if r.label.starts_with("pruned GNMT") { 0.05..0.15 } else { 0.0..0.05 };
        assert!(range.contains(&share), "{}: first-layer share {share}", r.label);
    }
}
