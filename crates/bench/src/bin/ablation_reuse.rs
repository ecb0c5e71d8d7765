//! Ablation: waste-reuse policy in forest construction.
//!
//! The paper's forest only reuses droplets *across* component trees
//! (each tree is a literal partial copy of the base tree). The `Eager`
//! policy also shares content-identical subtrees *within* a tree. This
//! ablation quantifies what the relaxation buys over the synthetic corpus.
//!
//! Optional first argument: sample size (default 400).

// Binary/example target: the workspace `unwrap_used`/`expect_used`/`panic`
// deny wall applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmf_forest::{build_forest, ReusePolicy};
use dmf_mixalgo::{MinMix, MixingAlgorithm};
use dmf_workloads::synthetic;

fn main() {
    let sample: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(400);
    let corpus = synthetic::sampled_corpus(sample, 77);
    println!("Reuse-policy ablation over {} ratios (L = 32, D = 20, MM templates)\n", corpus.len());
    let mut totals = [[0u64; 3]; 2]; // [policy][Tms, I, W]
    let mut wins = 0usize;
    let mut evaluated = 0usize;
    for target in &corpus {
        let Ok(template) = MinMix.build_template(target) else {
            continue;
        };
        let mut per_policy = Vec::with_capacity(2);
        for policy in [ReusePolicy::AcrossTrees, ReusePolicy::Eager] {
            let forest = build_forest(&template, target, 20, policy).expect("forest builds");
            let stats = forest.stats();
            per_policy.push((stats.mix_splits as u64, stats.input_total, stats.waste as u64));
        }
        evaluated += 1;
        for (row, (tms, inputs, waste)) in per_policy.iter().enumerate() {
            totals[row][0] += tms;
            totals[row][1] += inputs;
            totals[row][2] += waste;
        }
        if per_policy[1].0 < per_policy[0].0 {
            wins += 1;
        }
    }
    println!("{:<14} {:>12} {:>12} {:>12}", "policy", "avg Tms", "avg I", "avg W");
    for (row, name) in ["across-trees", "eager"].iter().enumerate() {
        println!(
            "{:<14} {:>12.2} {:>12.2} {:>12.2}",
            name,
            totals[row][0] as f64 / evaluated as f64,
            totals[row][1] as f64 / evaluated as f64,
            totals[row][2] as f64 / evaluated as f64
        );
    }
    println!(
        "\neager strictly reduced Tms on {wins}/{evaluated} ratios \
         (ratios whose MM trees carry duplicate sub-mixtures)"
    );
}
