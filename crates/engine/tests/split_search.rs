//! Differential test of the §6 storage-split search (`PlanContext::split_passes`).
//!
//! The reference below is the plain linear scan of the paper's multi-pass
//! engine, written against the public stage methods: for every pass it
//! builds each candidate demand 2, 4, 6, … (up to what remains) from
//! scratch, keeps the largest one whose schedule fits `q'`, stops after
//! four consecutive misses, then builds the chosen pass once more. The
//! engine must plan the same passes with the same figures, fail with the
//! same `StorageInfeasible { limit, needed }`, and build each distinct
//! candidate demand exactly once (plus once more for a partial pass whose
//! demand an earlier scan built and dropped).

// Test target: the workspace `unwrap_used`/`expect_used`/`panic` deny wall
// applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmf_engine::{EngineConfig, EngineError, PassPlan, PlanContext, StreamPlan, StreamingEngine};
use dmf_ratio::TargetRatio;
use dmf_rng::{Rng, SeedableRng, StdRng};
use dmf_workloads::{protocols, synthetic};
use std::collections::BTreeSet;
use std::sync::{Mutex, PoisonError};

/// The span-count test enables the process-global recorder; holding this
/// lock keeps the other tests' spans out of its trace window.
static GLOBAL_RECORDER: Mutex<()> = Mutex::new(());

/// The reference scan's plan; every demand it built a pass for goes into
/// `visited`.
fn reference_split(
    config: EngineConfig,
    target: &TargetRatio,
    demand: u64,
    visited: &mut BTreeSet<u64>,
) -> Result<StreamPlan, EngineError> {
    let limit = config.storage_limit.expect("the split search needs a storage budget");
    let mut ctx = PlanContext::new(config, target, demand)?;
    ctx.build_tree()?;
    let mut build = |ctx: &mut PlanContext<'_>, demand: u64| -> Result<PassPlan, EngineError> {
        visited.insert(demand);
        let forest = ctx.build_forest(demand)?;
        ctx.schedule(forest, demand)
    };
    let mut passes = Vec::new();
    let mut remaining = demand;
    while remaining > 0 {
        let first = build(&mut ctx, remaining.min(2))?;
        if first.storage_units() > limit {
            return Err(EngineError::StorageInfeasible { limit, needed: first.storage_units() });
        }
        let mut best = remaining.min(2);
        let mut candidate = best + 2;
        let mut misses = 0;
        while candidate <= remaining && misses < 4 {
            if build(&mut ctx, candidate)?.storage_units() > limit {
                misses += 1;
            } else {
                best = candidate;
                misses = 0;
            }
            candidate += 2;
        }
        passes.push(build(&mut ctx, best)?);
        remaining -= best;
    }
    let mut inputs = vec![0u64; target.fluid_count()];
    let (mut waste, mut mix_splits) = (0, 0);
    for pass in &passes {
        let stats = pass.forest.stats();
        waste += stats.waste as u64;
        mix_splits += stats.mix_splits as u64;
        for (acc, v) in inputs.iter_mut().zip(&stats.inputs) {
            *acc += v;
        }
    }
    Ok(StreamPlan {
        target: target.clone(),
        demand,
        mixers: ctx.mixers().unwrap(),
        total_cycles: passes.iter().map(|p| u64::from(p.cycles())).sum(),
        total_mix_splits: mix_splits,
        total_waste: waste,
        total_inputs: inputs.iter().sum(),
        inputs,
        storage_peak: passes.iter().map(PassPlan::storage_units).max().unwrap_or(0),
        passes,
    })
}

/// Plans `(target, demand)` under `config` both ways and asserts they
/// agree pass by pass. Returns whether the budget was infeasible.
fn assert_matches_reference(config: EngineConfig, target: &TargetRatio, demand: u64) -> bool {
    let engine = StreamingEngine::new(config).plan(target, demand);
    let reference = reference_split(config, target, demand, &mut BTreeSet::new());
    let case =
        format!("{target} D={demand} q'={:?} mixers={:?}", config.storage_limit, config.mixers);
    match (engine, reference) {
        (Ok(engine), Ok(reference)) => {
            assert_eq!(engine.to_string(), reference.to_string(), "{case}");
            assert_eq!(engine.inputs, reference.inputs, "{case}");
            let shape = |plan: &StreamPlan| -> Vec<_> {
                plan.passes
                    .iter()
                    .map(|p| (p.demand, p.cycles(), p.storage_units(), p.forest.stats()))
                    .collect()
            };
            assert_eq!(shape(&engine), shape(&reference), "{case}");
            false
        }
        (Err(engine), Err(reference)) => {
            assert!(matches!(engine, EngineError::StorageInfeasible { .. }), "{case}: {engine:?}");
            assert_eq!(engine, reference, "{case}");
            true
        }
        (engine, reference) => {
            panic!("{case}: engine {:?} vs reference {:?}", engine.err(), reference.err())
        }
    }
}

fn budgeted(limit: usize) -> EngineConfig {
    EngineConfig::default().with_storage_limit(limit)
}

#[test]
fn table4_grid_matches_the_reference_scan() {
    let _guard = GLOBAL_RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    for d in [4, 5, 6] {
        let target = TargetRatio::paper_approximate(&protocols::PCR_MASTER_MIX_PERCENT, d).unwrap();
        for limit in [3, 5, 7] {
            for demand in [2, 16, 20, 32] {
                assert!(!assert_matches_reference(budgeted(limit).with_mixers(3), &target, demand));
            }
        }
    }
}

#[test]
fn table2_examples_match_the_reference_scan() {
    let _guard = GLOBAL_RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let mut infeasible = 0;
    for protocol in protocols::table2_examples() {
        for limit in [1, 5, 9] {
            for demand in [7, 24] {
                if assert_matches_reference(budgeted(limit), &protocol.ratio, demand) {
                    infeasible += 1;
                }
            }
        }
    }
    // q' = 1 is too small for most of the L = 256 examples.
    assert!(infeasible > 0, "no infeasible case exercised");
}

#[test]
fn corpus_sample_matches_the_reference_scan() {
    let _guard = GLOBAL_RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let mut rng = StdRng::seed_from_u64(0x5EA2C4);
    let mut odd = 0;
    for target in synthetic::sampled_corpus(16, 61) {
        for limit in [3, 5, 7, 9] {
            let demand = rng.gen_range(2..=128u64);
            odd += demand % 2;
            assert_matches_reference(budgeted(limit), &target, demand);
        }
    }
    assert!(odd > 0, "the sample drew no odd demand");
}

#[test]
fn loose_budget_large_passes_match_the_reference_scan() {
    let _guard = GLOBAL_RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    // Every demand fits q' = 16, so one pass of 300 droplets and one of 1.
    let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
    assert!(!assert_matches_reference(budgeted(16).with_mixers(3), &target, 301));
}

#[test]
fn each_candidate_demand_is_built_once_per_plan() {
    let _guard = GLOBAL_RECORDER.lock().unwrap_or_else(PoisonError::into_inner);
    let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
    let recorder = dmf_obs::global();
    // (q', D, passes, partial passes whose demand an earlier scan dropped,
    // so built twice). At q' = 5 the search revisits the same demands pass
    // after pass; at q' = 16 every scanned demand fits; at q' = 3 the
    // passes are 12, 12, 4, 1 and the first scan built and dropped 4.
    for (limit, demand, passes, rebuilt) in [(5, 128, 4, 0), (16, 301, 2, 0), (3, 29, 4, 1)] {
        let config = budgeted(limit).with_mixers(3);
        let mut visited = BTreeSet::new();
        let reference = reference_split(config, &target, demand, &mut visited).unwrap();

        recorder.set_enabled(true);
        let root = recorder.span("test_root");
        let (trace_id, _) = root.ids().unwrap();
        let plan = StreamingEngine::new(config).plan(&target, demand).unwrap();
        drop(root);
        recorder.set_enabled(false);

        let forest_builds =
            recorder.trace_spans(trace_id).iter().filter(|s| s.name == "forest_build").count();
        assert_eq!(plan.to_string(), reference.to_string());
        assert_eq!(plan.pass_count(), passes);
        assert_eq!(forest_builds, visited.len() + rebuilt, "q'={limit} D={demand}");
    }
}
