//! Writes `results/REPORT.md`: a compact, regenerable summary of the
//! headline reproduction results (speedups, efficiency, speculation,
//! compression) in one Markdown file.

use std::fmt::Write as _;
use std::fs;

use sibia::compress::{CompressionMode, CompressionReport};
use sibia::nn::zoo::{self, GlueTask};
use sibia::prelude::*;
use sibia::speculate::scenario::MaxPoolScenario;
use sibia::speculate::SliceRepr;
use sibia_bench::{fig_archs, fig_networks};

/// Index of Sibia's hybrid-skipping core in [`fig_archs`].
const HYBRID: usize = 4;

fn main() -> std::io::Result<()> {
    let mut md = String::new();
    let w = &mut md;
    writeln!(w, "# Sibia reproduction — headline results\n").unwrap();
    writeln!(
        w,
        "Regenerate with `cargo run -p sibia-bench --bin report_all --release`."
    )
    .unwrap();
    writeln!(
        w,
        "All runs seeded (seed 1); see EXPERIMENTS.md for methodology.\n"
    )
    .unwrap();

    // ── Speedups (Fig. 10 / 11) ─────────────────────────────────────────
    writeln!(w, "## Speedup over Bit-fusion (Fig. 10 / Fig. 11)\n").unwrap();
    writeln!(
        w,
        "| network | HNPU | Sibia w/o SBR | input skip | hybrid | paper hybrid |"
    )
    .unwrap();
    writeln!(w, "|---|---|---|---|---|---|").unwrap();
    let paper = |n: &str| match n {
        "Albert (SST-2)" => 4.50,
        "Albert (QQP)" => 5.07,
        "Albert (MNLI)" => 4.50,
        "ViT" => 4.73,
        "YoloV3" => 2.79,
        "MonoDepth2" => 2.48,
        "DGCNN" => 3.67,
        "MobileNetV2" => 2.83,
        "ResNet-18" => 3.65,
        "VoteNet" => 2.42,
        _ => f64::NAN,
    };
    // One grid for the whole table: each network is synthesized once, its
    // layers measured under both slice representations, and the five
    // variants share those statistics.
    let archs = fig_archs();
    let nets = fig_networks();
    let grid = ParallelEngine::new().simulate_grid(&Simulator::new(1), &archs, &nets, &[1]);
    for (n, net) in nets.iter().enumerate() {
        let speedup = |arch: usize| grid.get(arch, n, 0).speedup_over(grid.get(0, n, 0));
        writeln!(
            w,
            "| {} | {:.2}x | {:.2}x | {:.2}x | {:.2}x | {:.2}x |",
            net.name(),
            speedup(1),
            speedup(2),
            speedup(3),
            speedup(HYBRID),
            paper(net.name()),
        )
        .unwrap();
    }

    // Speculation and compression share nothing, so the compression
    // section runs on a second thread beside speculation. Both start only
    // after the grid, whose workers already keep every core busy.
    let (speculation, compression) = std::thread::scope(|scope| {
        let compression = scope.spawn(compression_section);
        let speculation = speculation_section();
        (
            speculation,
            compression
                .join()
                .expect("the compression section panicked"),
        )
    });
    md.push_str(&speculation);
    md.push_str(&compression);

    fs::create_dir_all("results")?;
    fs::write("results/REPORT.md", md)?;
    println!("wrote results/REPORT.md");

    // Per-layer CSV traces for external plotting, from the grid's hybrid
    // cells.
    for (file, net) in [
        ("results/layers_resnet18.csv", zoo::resnet18()),
        ("results/layers_albert_qqp.csv", zoo::albert(GlueTask::Qqp)),
    ] {
        let n = nets
            .iter()
            .position(|candidate| *candidate == net)
            .expect("a Fig. 10/11 network");
        fs::write(file, sibia::sim::trace::network_csv(grid.get(HYBRID, n, 0)))?;
        println!("wrote {file}");
    }
    Ok(())
}

/// The Fig. 2 section: 32-to-1 max-pool speculation success per candidate
/// count under both slice representations, from one synthesis.
fn speculation_section() -> String {
    let mut w = String::new();
    writeln!(w, "\n## Max-pool speculation success (Fig. 2, 32-to-1)\n").unwrap();
    writeln!(w, "| candidates | signed (SBR) | conventional |").unwrap();
    writeln!(w, "|---|---|---|").unwrap();
    let candidates = [1usize, 4, 8];
    let stats = MaxPoolScenario::votenet_32to1(1)
        .run_candidates(&[SliceRepr::Signed, SliceRepr::Conventional], &candidates);
    for ((c, sbr), conv) in candidates.iter().zip(&stats[0]).zip(&stats[1]) {
        writeln!(
            w,
            "| {c} | {:.1}% | {:.1}% |",
            sbr.success_rate * 100.0,
            conv.success_rate * 100.0
        )
        .unwrap();
    }
    w
}

/// The Fig. 13 section: the MAC-weighted hybrid input compression ratio of
/// four networks.
fn compression_section() -> String {
    let mut w = String::new();
    writeln!(w, "\n## Hybrid input compression ratio (Fig. 13)\n").unwrap();
    writeln!(w, "| network | hybrid ratio | paper |").unwrap();
    writeln!(w, "|---|---|---|").unwrap();
    let paper_cmp = |n: &str| match n {
        "Albert (QQP)" => 1.31,
        "YoloV3" => 1.57,
        "MonoDepth2" => 1.54,
        "DGCNN" => 1.15,
        "ViT" => 1.32,
        _ => f64::NAN,
    };
    for net in [
        zoo::albert(GlueTask::Qqp),
        zoo::yolov3(),
        zoo::monodepth2(),
        zoo::dgcnn(),
    ] {
        let mut src = SynthSource::new(1);
        let mut ratio = 0.0;
        let mut total = 0.0;
        for layer in net.layers() {
            let acts = src.activations(layer, 8192);
            let r = CompressionReport::analyze(
                acts.codes().data(),
                layer.input_precision(),
                CompressionMode::Hybrid,
            );
            ratio += layer.macs() as f64 * r.ratio();
            total += layer.macs() as f64;
        }
        writeln!(
            w,
            "| {} | {:.2}x | {:.2}x |",
            net.name(),
            ratio / total,
            paper_cmp(net.name())
        )
        .unwrap();
    }
    w
}
