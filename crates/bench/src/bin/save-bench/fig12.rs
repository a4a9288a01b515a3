//! Fig 12 — activation sparsity during end-to-end training: per-layer
//! series from the first epoch to the last.

use save_sim::SimError;
use save_sparsity::{ActivationModel, NetKind};

fn panel(kind: NetKind, layers: usize, epochs: usize, segments: usize) -> Result<(), SimError> {
    println!("\n== Fig 12: {} training, input-activation sparsity ==", kind.label());
    println!("(each segment is one layer; within a segment, first epoch -> last epoch)");
    let m = ActivationModel::new(kind);
    // Sub-sample 5 epochs per segment for readable text output; the JSON
    // carries the full series.
    let mut all = Vec::new();
    for layer in 1..=segments {
        let series = m.series(layer, layers, epochs);
        let pick: Vec<String> = [0, epochs / 4, epochs / 2, 3 * epochs / 4, epochs - 1]
            .iter()
            .map(|&e| format!("{:>4.0}%", series[e] * 100.0))
            .collect();
        println!("layer {layer:>2}: {}", pick.join(" -> "));
        all.push(series);
    }
    save_bench::write_json(&format!("fig12_{:?}", kind), &all)
}

pub fn body() -> Result<(), SimError> {
    // VGG16: 12 segments (13 convs minus the dense-input first layer).
    panel(NetKind::Vgg16Dense, 13, 90, 12)?;
    // ResNet-50: 49 segments in the paper (conv layers along the main path).
    panel(NetKind::ResNet50Dense, 50, 90, 49)?;
    panel(NetKind::ResNet50Pruned, 50, 102, 49)?;
    println!("\n(GNMT omitted as in the paper: its activation sparsity is constant 20%.)");
    Ok(())
}
