//! Robustness exhibit: tolerance of each base algorithm's preparation to
//! volumetric split errors.
//!
//! Electrowetting splits yield daughter volumes `1 ± ε`. This binary
//! propagates that uncertainty through base trees and streaming forests
//! (interval arithmetic, `MixGraph::cf_error_bounds`) and reports the
//! largest ε for which every emitted target stays within the paper's
//! `1/2^d` accuracy band.

// Binary/example target: the workspace `unwrap_used`/`expect_used`/`panic`
// deny wall applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmf_forest::{build_forest, ReusePolicy};
use dmf_mixalgo::{AlgorithmId, MinMix, MixingAlgorithm};
use dmf_workloads::protocols;

fn main() {
    println!("Split-error margins: largest ε keeping every target within 1/2^d\n");
    println!(
        "{:<6} {:>8} {:>8} {:>8} {:>8} | {:>14}",
        "Ratio", "MM", "RMA", "MTCS", "RSM", "MM forest D=32"
    );
    for protocol in protocols::table2_examples() {
        print!("{:<6}", protocol.id);
        for algorithm in AlgorithmId::BASELINES {
            match algorithm.build_graph(&protocol.ratio) {
                Ok(graph) => print!(" {:>7.4}", graph.split_error_margin(1e-4)),
                Err(_) => print!(" {:>8}", "-"),
            }
        }
        let template = MinMix.build_template(&protocol.ratio).expect("published ratios build");
        let forest = build_forest(&template, &protocol.ratio, 32, ReusePolicy::AcrossTrees)
            .expect("forest builds");
        println!(" | {:>14.4}", forest.split_error_margin(1e-4));
    }
    println!(
        "\n(deeper trees compound split errors: higher-accuracy targets tolerate \
         smaller ε; droplet reuse does not change the bound because reused \
         droplets carry the same worst-case interval)"
    );
}
