//! Corpus-level consistency: engine aggregates, baseline dominance and
//! multi-target sharing over a deterministic sample of the synthetic
//! corpus.

// Test target: the workspace `unwrap_used`/`expect_used`/`panic` deny wall
// applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmfstream::engine::{repeated, EngineConfig, StreamingEngine};
use dmfstream::forest::{build_multi_target_forest, ReusePolicy};
use dmfstream::mixalgo::{AlgorithmId, MinMix, MixingAlgorithm};
use dmfstream::workloads::synthetic;

#[test]
fn plan_aggregates_equal_pass_sums_across_corpus_sample() {
    for target in synthetic::sampled_corpus(60, 11) {
        let engine = StreamingEngine::new(EngineConfig::default().with_storage_limit(4));
        let Ok(plan) = engine.plan(&target, 24) else {
            continue; // budget infeasible for this ratio: separately tested
        };
        let mut cycles = 0u64;
        let mut mixes = 0u64;
        let mut inputs = 0u64;
        let mut waste = 0u64;
        let mut covered = 0u64;
        for pass in &plan.passes {
            pass.schedule.validate(&pass.forest).expect("valid pass schedule");
            let stats = pass.forest.stats();
            stats.assert_conservation();
            cycles += u64::from(pass.cycles());
            mixes += stats.mix_splits as u64;
            inputs += stats.input_total;
            waste += stats.waste as u64;
            covered += pass.demand;
            assert!(pass.storage_units() <= 4, "{target}: q over budget");
        }
        assert_eq!(cycles, plan.total_cycles, "{target}");
        assert_eq!(mixes, plan.total_mix_splits, "{target}");
        assert_eq!(inputs, plan.total_inputs, "{target}");
        assert_eq!(waste, plan.total_waste, "{target}");
        assert_eq!(covered, plan.demand, "{target}");
        assert_eq!(plan.inputs.iter().sum::<u64>(), plan.total_inputs, "{target}");
    }
}

#[test]
fn streaming_dominates_repeated_on_inputs_across_corpus_sample() {
    for target in synthetic::sampled_corpus(60, 23) {
        let engine = StreamingEngine::new(EngineConfig::default());
        let plan = engine.plan(&target, 32).expect("unconstrained plans succeed");
        let baseline =
            repeated(AlgorithmId::MINMIX, &target, 32, plan.mixers).expect("baseline runs");
        assert!(plan.total_inputs <= baseline.total_inputs, "{target}");
        assert!(plan.total_cycles <= baseline.total_cycles, "{target}");
        assert!(plan.total_waste <= baseline.total_waste, "{target}");
    }
}

#[test]
fn serial_dilution_series_shares_heavily_as_multi_target_forest() {
    let series = synthetic::serial_dilution_series(6);
    let pairs: Vec<_> = series
        .iter()
        .map(|t| (MinMix.build_template(t).expect("dilutions build"), t.clone()))
        .collect();
    let forest =
        build_multi_target_forest(&pairs, ReusePolicy::AcrossTrees).expect("series builds");
    forest.validate().expect("valid forest");
    let shared = forest.stats();
    let separate: u64 = pairs.iter().map(|(t, _)| t.leaf_counts().iter().sum::<u64>()).sum();
    assert!(
        shared.input_total < separate,
        "the 1/2^k series nests, so sharing must save reactant: {} vs {separate}",
        shared.input_total
    );
    shared.assert_conservation();
}
