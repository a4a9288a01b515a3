//! Fig 14 — whole-network performance at realistic sparsity: normalized
//! execution time of all conv layers / LSTM cells for inference (a, b) and
//! end-to-end training (c, d), across the baseline and the SAVE operating
//! points (2 VPUs @ 1.7 GHz, 1 VPU @ 2.1 GHz, per-epoch *static* and
//! per-kernel *dynamic* selection).
//!
//! Paper landmarks (dynamic, mixed precision): inference speedups 1.68x
//! (dense VGG16), 1.37x (dense ResNet-50), 1.59x (pruned ResNet-50), 1.39x
//! (pruned GNMT); end-to-end training 1.64x / 1.29x / 1.42x / 1.28x.

use save_bench::print_table;
use save_kernels::Precision;
use save_sim::{Estimator, EstimatorConfig, Network};
use save_sparsity::NetKind;
use serde::Serialize;
use std::process::ExitCode;

#[derive(Serialize)]
// Fields are consumed via `Serialize` in the session JSON dump only.
#[allow(dead_code)]
struct NetResult {
    network: String,
    precision: String,
    inference_norm: Vec<(String, f64)>,
    inference_first_layer_frac: f64,
    training_norm: Vec<(String, f64)>,
    training_breakdown_dynamic: Vec<(String, f64)>,
}

fn main() -> ExitCode {
    save_bench::run_main("fig14", body)
}

fn body(
    cli: &save_bench::BenchCli,
    session: &mut save_bench::SweepSession,
) -> Result<(), save_sim::SimError> {
    let est = Estimator::new(EstimatorConfig { grid: cli.grid(), ..Default::default() });
    let kinds = [
        NetKind::Vgg16Dense,
        NetKind::ResNet50Dense,
        NetKind::ResNet50Pruned,
        NetKind::GnmtPruned,
    ];
    let estimates: Vec<(Precision, NetKind, Network)> = [Precision::F32, Precision::Mixed]
        .into_iter()
        .flat_map(|prec| kinds.map(|kind| (prec, kind, Network::build(kind))))
        .collect();

    // Every estimate's inference then training cells, resolved as one batch.
    let mut cells = Vec::new();
    let mut spans = Vec::new();
    for (prec, kind, net) in &estimates {
        let inf = est.inference_cells(net, *prec);
        let tr = est.training_cells(net, *prec);
        spans.push((inf.len(), tr.len()));
        let name = format!("{} {prec}", kind.label());
        let labelled = inf.into_iter().chain(tr).map(|(label, spec)| (format!("{name} {label}"), spec));
        cells.extend(labelled);
    }
    let secs: Vec<f64> = session.spec_seconds_batch(&cells).into_iter().map(|(s, _)| s).collect();

    let mut inf_rows = Vec::new();
    let mut train_rows = Vec::new();
    let mut results = Vec::new();
    let mut rest = &secs[..];
    for (&(prec, kind, ref net), (n_inf, n_tr)) in estimates.iter().zip(spans) {
        let (inf_secs, tail) = rest.split_at(n_inf);
        let (tr_secs, tail) = tail.split_at(n_tr);
        rest = tail;
        let inf = est.inference(net, prec, inf_secs);
        let tr = est.training(net, prec, tr_secs);

        let ib = inf.baseline.total();
        let inf_norm = vec![
            ("baseline".to_string(), 1.0),
            ("2 VPUs".to_string(), inf.save2.total() / ib),
            ("1 VPU".to_string(), inf.save1.total() / ib),
            ("dynamic".to_string(), inf.dynamic.total() / ib),
        ];
        inf_rows.push(vec![
            format!("{} {prec}", kind.label()),
            format!("{:.2}x", ib / inf.save2.total()),
            format!("{:.2}x", ib / inf.save1.total()),
            format!("{:.2}x", ib / inf.dynamic.total()),
            format!("{:.0}%", inf.baseline.first_layer / ib * 100.0),
        ]);

        let tb = tr.baseline.total();
        let train_norm = vec![
            ("baseline".to_string(), 1.0),
            ("2 VPUs".to_string(), tr.save2.total() / tb),
            ("1 VPU".to_string(), tr.save1.total() / tb),
            ("static".to_string(), tr.static_.total() / tb),
            ("dynamic".to_string(), tr.dynamic.total() / tb),
        ];
        train_rows.push(vec![
            format!("{} {prec}", kind.label()),
            format!("{:.2}x", tb / tr.save2.total()),
            format!("{:.2}x", tb / tr.save1.total()),
            format!("{:.2}x", tb / tr.static_.total()),
            format!("{:.2}x", tb / tr.dynamic.total()),
        ]);
        let dyn_total = tr.dynamic.total();
        results.push(NetResult {
            network: kind.label().to_string(),
            precision: prec.to_string(),
            inference_norm: inf_norm,
            inference_first_layer_frac: inf.baseline.first_layer / ib,
            training_norm: train_norm,
            training_breakdown_dynamic: vec![
                ("forward".into(), tr.dynamic.forward / dyn_total),
                ("backward input".into(), tr.dynamic.backward_input / dyn_total),
                ("backward weight".into(), tr.dynamic.backward_weights / dyn_total),
                ("1st layer".into(), tr.dynamic.first_layer / dyn_total),
            ],
        });
    }
    print_table(
        "Fig 14a/b: inference speedup over baseline",
        &["network", "2 VPUs", "1 VPU", "dynamic", "1st-layer share"],
        &inf_rows,
    );
    print_table(
        "Fig 14c/d: end-to-end training speedup over baseline",
        &["network", "2 VPUs", "1 VPU", "static", "dynamic"],
        &train_rows,
    );
    println!(
        "\npaper (dynamic, MP): inference 1.68x VGG16 / 1.37x RN50 dense / 1.59x RN50 pruned / 1.39x GNMT"
    );
    println!(
        "                     training  1.64x        / 1.29x          / 1.42x           / 1.28x"
    );
    save_bench::write_json("fig14", &results)
}
