//! Randomized invariants over random target ratios, demands and mixer
//! counts: droplet conservation, schedule validity, storage accounting and
//! approximation error bounds.
//!
//! Each test draws its cases from a fixed-seed [`dmf_rng::StdRng`], so the
//! suite is deterministic and self-contained (no network-fetched property
//! testing framework), while still sweeping a broad random sample of the
//! input space on every run.

// Test target: the workspace `unwrap_used`/`expect_used`/`panic` deny wall
// applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmf_rng::{Rng, SeedableRng, StdRng};
use dmfstream::forest::{build_forest, ReusePolicy};
use dmfstream::mixalgo::{AlgorithmId, MinMix, MixingAlgorithm};
use dmfstream::ratio::TargetRatio;
use dmfstream::sched::{mms_schedule, oms_schedule, srs_schedule};

/// A random valid multi-fluid target ratio with sum `2^d`, `d <= 6`,
/// built as a composition of `2^d` into `n` parts from random cut points.
fn random_target(rng: &mut StdRng) -> TargetRatio {
    loop {
        let d = rng.gen_range(2u32..=6);
        let n = rng.gen_range(2usize..=8);
        let total = 1u64 << d;
        let mut cuts: Vec<u64> = (0..n - 1).map(|_| rng.gen_range(1..=total - 1)).collect();
        cuts.sort_unstable();
        cuts.dedup();
        let mut parts = Vec::with_capacity(cuts.len() + 1);
        let mut prev = 0;
        for c in cuts {
            parts.push(c - prev);
            prev = c;
        }
        parts.push(total - prev);
        let target = TargetRatio::new(parts).expect("composition sums to 2^d");
        if target.active_fluid_count() >= 2 {
            return target;
        }
    }
}

/// Mixture arithmetic: every base algorithm realises the target and
/// conserves droplets.
#[test]
fn base_trees_realise_the_target() {
    let mut rng = StdRng::seed_from_u64(0xB45E);
    for _ in 0..64 {
        let target = random_target(&mut rng);
        for algorithm in AlgorithmId::BASELINES {
            let graph = algorithm.algorithm().build_graph(&target).unwrap();
            graph.validate().unwrap();
            let stats = graph.stats();
            stats.assert_conservation();
            // The depth-d guarantee is a property of the *tree* algorithms;
            // subgraph sharing (MTCS/RSM) may park a reused droplet at a
            // structurally deeper producer without changing its content.
            if !algorithm.algorithm().shares_subgraphs() {
                assert!(stats.depth <= target.accuracy(), "target {target:?}");
            }
        }
    }
}

/// Forest construction conserves droplets for any demand and both
/// reuse policies, and never uses more reactant than the repeated
/// baseline would.
#[test]
fn forests_conserve_droplets() {
    let mut rng = StdRng::seed_from_u64(0xF03E);
    for _ in 0..64 {
        let target = random_target(&mut rng);
        let demand = rng.gen_range(1u64..40);
        let template = MinMix.build_template(&target).unwrap();
        let base_inputs = template.leaf_counts().iter().sum::<u64>();
        for policy in [ReusePolicy::AcrossTrees, ReusePolicy::Eager] {
            let forest = build_forest(&template, &target, demand, policy).unwrap();
            forest.validate().unwrap();
            let stats = forest.stats();
            stats.assert_conservation();
            assert_eq!(stats.trees as u64, demand.div_ceil(2));
            let repeated_inputs = demand.div_ceil(2) * base_inputs;
            assert!(stats.input_total <= repeated_inputs, "target {target:?} demand {demand}");
        }
    }
}

/// Full-cycle demands leave zero waste (paper §4.1).
#[test]
fn full_cycle_demand_is_waste_free() {
    let mut rng = StdRng::seed_from_u64(0xFC1C);
    for _ in 0..64 {
        let target = random_target(&mut rng);
        let p = rng.gen_range(1u64..4);
        let template = MinMix.build_template(&target).unwrap();
        let d = template.depth();
        let demand = p << d;
        let forest = build_forest(&template, &target, demand, ReusePolicy::AcrossTrees).unwrap();
        assert_eq!(forest.stats().waste, 0, "target {target:?} demand {demand}");
    }
}

/// Every scheduler yields a valid schedule whose makespan respects the
/// work and critical-path lower bounds.
#[test]
fn schedules_are_valid_and_bounded() {
    let mut rng = StdRng::seed_from_u64(0x5C4E);
    for _ in 0..64 {
        let target = random_target(&mut rng);
        let demand = rng.gen_range(2u64..24);
        let mixers = rng.gen_range(1usize..6);
        let template = MinMix.build_template(&target).unwrap();
        let forest = build_forest(&template, &target, demand, ReusePolicy::AcrossTrees).unwrap();
        let lb = (forest.node_count() as u32).div_ceil(mixers as u32).max(forest.depth());
        for schedule in [
            mms_schedule(&forest, mixers).unwrap(),
            srs_schedule(&forest, mixers).unwrap(),
            oms_schedule(&forest, mixers).unwrap(),
        ] {
            schedule.validate(&forest).unwrap();
            assert!(schedule.makespan() >= lb);
            assert!(
                schedule.makespan() as usize <= forest.node_count().max(forest.depth() as usize)
            );
            // Storage occupancy is internally consistent: the profile
            // length equals the makespan and the peak is its maximum.
            let storage = schedule.storage(&forest);
            assert_eq!(storage.occupancy.len(), schedule.makespan() as usize);
            assert_eq!(storage.peak as u32, storage.occupancy.iter().copied().max().unwrap_or(0));
        }
    }
}

/// OMS with unlimited mixers always reaches the critical path on trees.
#[test]
fn oms_reaches_critical_path() {
    let mut rng = StdRng::seed_from_u64(0x0117);
    for _ in 0..64 {
        let target = random_target(&mut rng);
        let tree = MinMix.build_graph(&target).unwrap();
        let schedule = oms_schedule(&tree, tree.node_count().max(1)).unwrap();
        assert_eq!(schedule.makespan(), tree.depth(), "target {target:?}");
    }
}

/// Grid approximation keeps the paper's error bound `1/2^d` per fluid.
#[test]
fn approximation_error_bound() {
    let mut rng = StdRng::seed_from_u64(0xE880);
    for _ in 0..64 {
        let n = rng.gen_range(2usize..10);
        let weights: Vec<f64> = (0..n).map(|_| 0.01 + rng.gen::<f64>() * 99.99).collect();
        let d = rng.gen_range(3u32..10);
        let target = TargetRatio::approximate(&weights, d).unwrap();
        let bound = 1.0 / (1u64 << d) as f64 + 1e-12;
        assert!(target.max_cf_error(&weights) <= bound, "weights {weights:?} d {d}");
    }
}

/// Mixing is commutative at the content level.
#[test]
fn mixing_is_commutative() {
    use dmfstream::ratio::Mixture;
    for a_parts in 1u64..15 {
        for b_parts in 1u64..15 {
            let a = Mixture::new(4, vec![a_parts, 16 - a_parts]).unwrap();
            let b = Mixture::new(4, vec![b_parts, 16 - b_parts]).unwrap();
            assert_eq!(a.mix(&b).unwrap(), b.mix(&a).unwrap());
        }
    }
}
