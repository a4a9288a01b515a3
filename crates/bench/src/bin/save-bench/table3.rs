//! Table III — types of sparsity (BS / NBS) present per network and phase,
//! derived from the live role mapping in `save-sim` rather than hard-coded.

use save_bench::print_table;
use save_kernels::Phase;
use save_sim::Network;
use save_sparsity::NetKind;

fn mark(level: f64) -> &'static str {
    if level > 1e-9 {
        "X"
    } else {
        ""
    }
}

pub fn body() -> Result<(), save_sim::SimError> {
    let mut rows = Vec::new();
    for kind in [NetKind::Vgg16Dense, NetKind::ResNet50Dense, NetKind::ResNet50Pruned] {
        let net = Network::build(kind);
        // A representative non-first layer at end of training.
        let li = 5;
        let mut row = vec![kind.label().to_string()];
        for phase in [Phase::Forward, Phase::BackwardInput, Phase::BackwardWeights] {
            let p = net.sparsity_point(li, phase, 1.0);
            row.push(mark(p.a).into());
            row.push(mark(p.b).into());
        }
        rows.push(row);
    }
    print_table(
        "Table III (CNNs): sparsity types per phase",
        &["network", "fwd BS", "fwd NBS", "bwd-in BS", "bwd-in NBS", "bwd-w BS", "bwd-w NBS"],
        &rows,
    );

    let net = Network::build(NetKind::GnmtPruned);
    let mut lstm_rows = Vec::new();
    let mut row = vec![NetKind::GnmtPruned.label().to_string()];
    for phase in [Phase::Forward, Phase::BackwardInput] {
        let p = net.sparsity_point(1, phase, 1.0);
        row.push(mark(p.a).into());
        row.push(mark(p.b).into());
    }
    lstm_rows.push(row);
    print_table(
        "Table III (LSTM): sparsity types per phase",
        &["network", "fwd BS", "fwd NBS", "bwd BS", "bwd NBS"],
        &lstm_rows,
    );
    save_bench::write_json("table3", &(rows, lstm_rows))?;
    Ok(())
}
