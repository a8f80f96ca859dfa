//! Fig. 12 — performance enhancement of output skipping over hybrid
//! skipping, swept over the number of maximal candidates, with the
//! speculation-accuracy cost of each representation.

use sibia::nn::zoo::{self, GlueTask};
use sibia::prelude::*;
use sibia::speculate::scenario::MaxPoolScenario;
use sibia::speculate::SliceRepr;
use sibia_bench::{header, pct, section, Table};

fn main() {
    header(
        "fig12",
        "output skipping over hybrid skipping vs candidates",
    );

    section("throughput over hybrid skipping");
    // Transformer output speculation propagates: once the softmax
    // speculation identifies the attention-relevant tokens, later blocks
    // only process those — the SpAtten-style cascade schedule of
    // `speculate::cascade`.
    use sibia::speculate::cascade::TokenPruning;
    let mut t = Table::new(&["network", "cand", "speedup over hybrid", "paper"]);
    enum Prop {
        None,
        Cascade {
            prefix: usize,
            blocks: usize,
            per_block: usize,
        },
    }
    let cases: [(&str, Network, &[usize], Prop, &str); 4] = [
        (
            "Albert (MNLI)",
            zoo::albert(GlueTask::Mnli),
            &[1],
            Prop::Cascade {
                prefix: 0,
                blocks: 12,
                per_block: 8,
            },
            "1.15x @1",
        ),
        (
            "ViT",
            zoo::vit(),
            &[64, 32],
            Prop::Cascade {
                prefix: 1,
                blocks: 12,
                per_block: 8,
            },
            "1.84x @32",
        ),
        (
            "VoteNet",
            zoo::votenet(),
            &[16, 8, 4],
            Prop::None,
            "1.27x @4",
        ),
        ("DGCNN", zoo::dgcnn(), &[16, 8, 4], Prop::None, "1.25x @4"),
    ];
    for (name, net, candidates, prop, paper) in cases {
        let hybrid = Accelerator::sibia().with_seed(1).run_network(&net);
        for &c in candidates {
            let acc = Accelerator::sibia_output_skip(c).with_seed(1);
            let scales = match prop {
                Prop::Cascade {
                    prefix,
                    blocks,
                    per_block,
                } => {
                    let pruning = if name.starts_with("Albert") {
                        TokenPruning::albert()
                    } else {
                        TokenPruning::vit(c)
                    };
                    Some(pruning.layer_scales(prefix, blocks, per_block))
                }
                Prop::None => None,
            };
            let scales = scales.as_deref();
            let grid = ParallelEngine::with_threads(1).run(GridRequest {
                scales: scales.as_ref().map(std::slice::from_ref),
                ..GridRequest::cell(acc.simulator(), acc.spec(), &net)
            });
            t.row(&[
                &name,
                &c,
                &format!("{:.2}x", grid.get(0, 0, 0).speedup_over(&hybrid)),
                &paper,
            ]);
        }
    }
    t.print();
    println!("(transformer rows include the SpAtten-style cascade token pruning of");
    println!(" speculate::cascade; see EXPERIMENTS.md note 5)");

    section("speculation accuracy cost (32-to-1 pooling, 4b/4b pre-compute)");
    println!("wrong-pool rate by candidates — signed slices keep the loss small while");
    println!("conventional slices degrade rapidly (paper: 45.0%p Albert-MNLI accuracy");
    println!("collapse with unbalanced I_H x W_H; <2%p loss with the SBR):\n");
    let mut t = Table::new(&["candidates", "signed wrong-rate", "conventional wrong-rate"]);
    let counts = [8usize, 4, 2, 1];
    let stats = MaxPoolScenario::votenet_32to1(1)
        .run_candidates(&[SliceRepr::Signed, SliceRepr::Conventional], &counts);
    for ((c, sbr), conv) in counts.iter().zip(&stats[0]).zip(&stats[1]) {
        t.row(&[c, &pct(sbr.wrong_rate()), &pct(conv.wrong_rate())]);
    }
    t.print();
    println!("\n(wrong-pool rate is the upstream driver of DNN accuracy loss; absolute");
    println!(" accuracy requires real datasets, unavailable here — see EXPERIMENTS.md)");
}
