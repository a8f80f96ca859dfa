//! Fig. 11 — speedup and energy-efficiency comparison among bit-slice
//! accelerators on the sparse (ReLU) DNN benchmarks (Bit-fusion = 1).

use sibia::prelude::*;
use sibia_bench::{fig_archs, header, Table};

/// Paper totals with the SBR (input/hybrid bars are close on sparse nets).
fn paper(net: &str) -> f64 {
    match net {
        "MobileNetV2" => 2.83,
        "ResNet-18" => 3.65,
        "VoteNet" => 2.42,
        _ => f64::NAN,
    }
}

fn main() {
    header("fig11", "sparse DNN speedup and energy-efficiency (BF = 1)");
    println!("seed 1; measured (paper total) per column\n");
    let mut t = Table::new(&[
        "network",
        "HNPU",
        "Sibia w/o SBR",
        "input skip",
        "hybrid (paper)",
        "eff HNPU",
        "eff hybrid",
    ]);
    // One (arch × network) grid over the worker pool with a shared
    // decomposition cache (see fig10).
    let archs = fig_archs();
    let nets = zoo::sparse_benchmarks();
    let grid = ParallelEngine::new().simulate_grid(&Simulator::new(1), &archs, &nets, &[1]);
    for (ni, net) in nets.iter().enumerate() {
        let bf = grid.get(0, ni, 0);
        let hnpu = grid.get(1, ni, 0);
        let no_sbr = grid.get(2, ni, 0);
        let input = grid.get(3, ni, 0);
        let hybrid = grid.get(4, ni, 0);
        t.row(&[
            &net.name(),
            &format!("{:.2}", hnpu.speedup_over(bf)),
            &format!("{:.2}", no_sbr.speedup_over(bf)),
            &format!("{:.2}", input.speedup_over(bf)),
            &format!("{:.2} ({:.2})", hybrid.speedup_over(bf), paper(net.name())),
            &format!("{:.2}", hnpu.efficiency_gain_over(bf)),
            &format!("{:.2}", hybrid.efficiency_gain_over(bf)),
        ]);
    }
    t.print();
    println!("\n(paper's highest sparse efficiency gain: 3.59x on ResNet-18 hybrid)");
}
