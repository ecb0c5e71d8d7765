//! The dilution engine: droplet streaming for the two-fluid special case
//! (Roy et al., IET-CDT 2013 — the only prior MDST-capable system, per the
//! paper's Table 1), plus a multi-target dilution gradient.
//!
//! Dilution is an ordinary engine request: a `k : 2^d - k` target planned
//! with a dilution algorithm (`--algo bitscan|dmrw` on the CLI) or any
//! other base algorithm. The gradient is a multi-target forest over the
//! MinMix dilution trees with eager droplet reuse.
//!
//! ```bash
//! cargo run --example dilution_engine
//! ```

// Binary/example target: the workspace `unwrap_used`/`expect_used`/`panic`
// deny wall applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmfstream::engine::{repeated, EngineConfig, StreamingEngine};
use dmfstream::forest::{build_multi_target_forest, ReusePolicy};
use dmfstream::mixalgo::{dilution_ratio, AlgorithmId, MinMix, MixingAlgorithm};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Stream 16 droplets of a 5/16 sample dilution with each algorithm.
    println!("streaming 16 droplets of CF 5/16 on 2 mixers:\n");
    println!(
        "{:<8} {:>6} {:>6} {:>6} {:>6} {:>10} {:>10}",
        "algo", "Tms", "I", "W", "Tc", "I(repeat)", "Tc(repeat)"
    );
    let target = dilution_ratio(5, 4)?;
    for algorithm in [AlgorithmId::BitScan, AlgorithmId::Dmrw, AlgorithmId::MinMix] {
        let config = EngineConfig::default().with_algorithm(algorithm).with_mixers(2);
        let plan = StreamingEngine::new(config).plan(&target, 16)?;
        let baseline = repeated(algorithm, &target, 16, 2)?;
        println!(
            "{:<8} {:>6} {:>6} {:>6} {:>6} {:>10} {:>10}",
            format!("{algorithm:?}"),
            plan.total_mix_splits,
            plan.total_inputs,
            plan.total_waste,
            plan.total_cycles,
            baseline.total_inputs,
            baseline.total_cycles
        );
    }

    // A dilution gradient: one droplet pair per CF, waste shared across
    // targets (the SDMT objective).
    let cfs = [2u64, 4, 6, 8, 10, 12, 14];
    let mut pairs = Vec::new();
    for &k in &cfs {
        let target = dilution_ratio(k, 4)?;
        pairs.push((MinMix.build_template(&target)?, target));
    }
    let separate_inputs: u64 =
        pairs.iter().map(|(template, _)| template.leaf_counts().iter().sum::<u64>()).sum();
    let graph = build_multi_target_forest(&pairs, ReusePolicy::Eager)?;
    let stats = graph.stats();
    println!(
        "\ngradient over CFs {:?}/16: Tms={} I={} W={} (separate preparation: I={})",
        cfs, stats.mix_splits, stats.input_total, stats.waste, separate_inputs
    );
    println!("gradient graph has {} component trees", graph.tree_count());
    Ok(())
}
