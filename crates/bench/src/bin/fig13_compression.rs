//! Fig. 13 — compression ratio of input signed bit-slices under the three
//! modes (no compression / RLE / hybrid) on the dense DNN benchmarks.

use sibia::compress::{CompressionMode, CompressionReport};
use sibia::prelude::*;
use sibia_bench::{header, paper_hybrid_compression, Table};

fn main() {
    header("fig13", "input compression ratio on dense DNNs");
    println!("MAC-weighted over layers; ratio = fixed-point baseline / stored bits\n");
    let mut t = Table::new(&["network", "no compression", "RLE", "hybrid (paper)"]);
    for net in zoo::dense_benchmarks() {
        if net.name().contains("SST-2") || net.name().contains("MNLI") {
            continue;
        }
        let mut src = SynthSource::new(1);
        let mut ratios = [0.0f64; 3];
        let mut total = 0.0f64;
        for layer in net.layers() {
            let acts = src.activations(layer, 16_384);
            let w = layer.macs() as f64;
            for (i, mode) in [
                CompressionMode::None,
                CompressionMode::Rle,
                CompressionMode::Hybrid,
            ]
            .iter()
            .enumerate()
            {
                let r =
                    CompressionReport::analyze(acts.codes().data(), layer.input_precision(), *mode);
                ratios[i] += w * r.ratio();
            }
            total += w;
        }
        for r in &mut ratios {
            *r /= total;
        }
        t.row(&[
            &net.name(),
            &format!("{:.2}x", ratios[0]),
            &format!("{:.2}x", ratios[1]),
            &format!(
                "{:.2}x ({:.2}x)",
                ratios[2],
                paper_hybrid_compression(net.name())
            ),
        ]);
    }
    t.print();
    println!("\n(no compression < 1: the per-slice sign bit inflates raw signed slices;");
    println!(" hybrid leaves dense low-order planes raw and recovers the ratio)");
}
