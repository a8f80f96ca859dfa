//! Fig. 2 — balanced vs unbalanced bit-slices in output speculation.
//!
//! Reproduces the worked example ((-25)·25 + 25·25) and the §II-B claim:
//! 32-to-1 max-pool speculation with 4-bit high slices is 19.9 % wrong
//! conventionally but ~95 % successful with the SBR.

use sibia::prelude::*;
use sibia::speculate::scenario::MaxPoolScenario;
use sibia_bench::{header, pct, section, Table};

fn main() {
    header(
        "fig02",
        "balanced signed slices enable accurate speculation",
    );

    section("worked example (paper Fig. 2)");
    let p = Precision::BITS7;
    let spec_sbr = Speculator::new(SliceRepr::Signed, 1, 1);
    let spec_conv = Speculator::new(SliceRepr::Conventional, 1, 1);
    let xs = [-25, 25];
    let ws = [25, 25];
    println!(
        "  true result of (-25)(25) + (25)(25) = {}",
        Speculator::exact_dot(&xs, &ws)
    );
    println!(
        "  conventional speculation (high slices -4, +3): {}",
        spec_conv.speculate_dot(&xs, &ws, p, p)
    );
    println!(
        "  signed speculation (high slices -3, +3):       {}",
        spec_sbr.speculate_dot(&xs, &ws, p, p)
    );

    section("32-to-1 max-pool speculation success rate (VoteNet setting)");
    let mut t = Table::new(&["candidates", "signed (SBR)", "conventional", "paper"]);
    let counts = [1usize, 2, 4, 8];
    let stats = MaxPoolScenario::votenet_32to1(1)
        .run_candidates(&[SliceRepr::Signed, SliceRepr::Conventional], &counts);
    for ((&candidates, sbr), conv) in counts.iter().zip(&stats[0]).zip(&stats[1]) {
        let paper = if candidates == 4 {
            "~95% vs 80.1%"
        } else {
            "—"
        };
        t.row(&[
            &candidates,
            &pct(sbr.success_rate),
            &pct(conv.success_rate),
            &paper,
        ]);
    }
    t.print();

    section("speculation bias over random mixed-sign dot products");
    let mut sum_sbr = 0i64;
    let mut sum_conv = 0i64;
    let mut n = 0i64;
    for trial in 0..400i64 {
        let xs: Vec<i32> = (0..64)
            .map(|i| (((trial * 131 + i) * 37 + 11) % 127) as i32 - 63)
            .collect();
        let ws: Vec<i32> = (0..64)
            .map(|i| (((trial * 71 + i) * 53 + 29) % 127) as i32 - 63)
            .collect();
        let truth = Speculator::exact_dot(&xs, &ws);
        sum_sbr += spec_sbr.speculate_dot(&xs, &ws, p, p) - truth;
        sum_conv += spec_conv.speculate_dot(&xs, &ws, p, p) - truth;
        n += 64;
    }
    println!(
        "  mean per-term speculation error: signed {:+.2}, conventional {:+.2}",
        sum_sbr as f64 / n as f64,
        sum_conv as f64 / n as f64
    );
    println!("  (balanced slices are unbiased; conventional slices carry a systematic bias)");
}
