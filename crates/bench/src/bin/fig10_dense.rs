//! Fig. 10 — speedup and energy-efficiency comparison among bit-slice
//! accelerators on the dense DNN benchmarks (Bit-fusion = 1).

use sibia::prelude::*;
use sibia_bench::{fig_archs, header, Table};

/// Paper speedups: (HNPU, input skipping, hybrid skipping) and the paper's
/// peak efficiency gain where reported.
fn paper(net: &str) -> (f64, f64, f64) {
    match net {
        "Albert (SST-2)" => (1.18, 3.65, 4.50),
        "Albert (QQP)" => (1.18, 4.41, 5.07),
        "Albert (MNLI)" => (1.19, 3.65, 4.50),
        "ViT" => (1.31, 3.83, 4.73),
        "YoloV3" => (1.35, 1.88, 2.79),
        "MonoDepth2" => (1.08, 1.86, 2.48),
        "DGCNN" => (1.63, 2.56, 3.67),
        _ => (f64::NAN, f64::NAN, f64::NAN),
    }
}

fn main() {
    header("fig10", "dense DNN speedup and energy-efficiency (BF = 1)");
    println!("seed 1; measured (paper) per column\n");
    let mut t = Table::new(&[
        "network",
        "HNPU",
        "Sibia w/o SBR",
        "input skip",
        "hybrid",
        "eff HNPU",
        "eff hybrid",
    ]);
    // The whole sweep is one (arch × network) grid: cells run on the worker
    // pool and the five variants of a network share its statistics, so each
    // layer is synthesized once and measured once per slice representation.
    let archs = fig_archs();
    let nets = zoo::dense_benchmarks();
    let grid = ParallelEngine::new().simulate_grid(&Simulator::new(1), &archs, &nets, &[1]);
    for (ni, net) in nets.iter().enumerate() {
        let bf = grid.get(0, ni, 0);
        let hnpu = grid.get(1, ni, 0);
        let no_sbr = grid.get(2, ni, 0);
        let input = grid.get(3, ni, 0);
        let hybrid = grid.get(4, ni, 0);
        let p = paper(net.name());
        t.row(&[
            &net.name(),
            &format!("{:.2} ({:.2})", hnpu.speedup_over(bf), p.0),
            &format!("{:.2}", no_sbr.speedup_over(bf)),
            &format!("{:.2} ({:.2})", input.speedup_over(bf), p.1),
            &format!("{:.2} ({:.2})", hybrid.speedup_over(bf), p.2),
            &format!("{:.2}", hnpu.efficiency_gain_over(bf)),
            &format!("{:.2}", hybrid.efficiency_gain_over(bf)),
        ]);
    }
    t.print();
    println!("\n(paper's highest dense efficiency gain: 3.40x on Albert QQP hybrid)");
}
