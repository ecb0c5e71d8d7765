//! Integration oracles taken directly from the paper's figures and tables.
//!
//! These values are hard-coded from the published text; a failure here
//! means the reproduction has drifted from the paper.

// Test target: the workspace `unwrap_used`/`expect_used`/`panic` deny wall
// applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmfstream::chip::presets::pcr_chip;
use dmfstream::engine::{
    improvement_over_baseline, realize_pass, repeated, EngineConfig, StreamingEngine,
};
use dmfstream::forest::{build_forest, ReusePolicy};
use dmfstream::mixalgo::{AlgorithmId, MinMix, MixingAlgorithm};
use dmfstream::ratio::TargetRatio;
use dmfstream::sched::{mixer_lower_bound, oms_schedule, srs_schedule};
use dmfstream::sim::Simulator;

fn pcr_d4() -> TargetRatio {
    TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).expect("paper ratio")
}

/// Fig. 1: mixing forest for D = 16 — |F| = 8, Tms = 19, W = 0, I = 16,
/// I[] = [2,1,1,1,1,1,9].
#[test]
fn fig1_forest_demand_16() {
    let target = pcr_d4();
    let template = MinMix.build_template(&target).unwrap();
    let forest = build_forest(&template, &target, 16, ReusePolicy::AcrossTrees).unwrap();
    let s = forest.stats();
    assert_eq!((s.trees, s.mix_splits, s.waste, s.input_total), (8, 19, 0, 16));
    assert_eq!(s.inputs, vec![2, 1, 1, 1, 1, 1, 9]);
}

/// Fig. 2: mixing forest for D = 20 — |F| = 10, Tms = 27, W = 5, I = 25,
/// I[] = [3,2,2,2,2,2,12].
#[test]
fn fig2_forest_demand_20() {
    let target = pcr_d4();
    let template = MinMix.build_template(&target).unwrap();
    let forest = build_forest(&template, &target, 20, ReusePolicy::AcrossTrees).unwrap();
    let s = forest.stats();
    assert_eq!((s.trees, s.mix_splits, s.waste, s.input_total), (10, 27, 5, 25));
    assert_eq!(s.inputs, vec![3, 2, 2, 2, 2, 2, 12]);
}

/// Figs. 3–4: SRS on three mixers completes the D = 20 forest in Tc = 11
/// cycles using q = 5 storage units.
#[test]
fn fig3_fig4_srs_schedule() {
    let target = pcr_d4();
    let template = MinMix.build_template(&target).unwrap();
    let forest = build_forest(&template, &target, 20, ReusePolicy::AcrossTrees).unwrap();
    let schedule = srs_schedule(&forest, 3).unwrap();
    schedule.validate(&forest).unwrap();
    assert_eq!(schedule.makespan(), 11);
    assert_eq!(schedule.storage(&forest).peak, 5);
}

/// §5: the PCR MinMix base tree needs Mlb = 3 mixers and finishes in its
/// critical-path time d = 4 with them.
#[test]
fn section5_mlb_is_three() {
    let tree = MinMix.build_graph(&pcr_d4()).unwrap();
    assert_eq!(mixer_lower_bound(&tree), 3);
    assert_eq!(oms_schedule(&tree, 3).unwrap().makespan(), 4);
}

/// Abstract + Table 3: ~72.5% faster on the PCR stream. Our engine hits
/// exactly 72.5% on the D = 20 PCR run and comparable reactant savings.
#[test]
fn headline_improvement_on_pcr() {
    let target = pcr_d4();
    let plan = StreamingEngine::new(EngineConfig::default()).plan(&target, 20).unwrap();
    let baseline = repeated(AlgorithmId::MinMix, &target, 20, plan.mixers).unwrap();
    let imp = improvement_over_baseline(&plan, &baseline);
    assert!((imp.time_pct - 72.5).abs() < 0.1, "ΔTc = {:.2}%", imp.time_pct);
    assert!(imp.input_pct > 60.0, "ΔI = {:.2}%", imp.input_pct);
}

/// Table 4, D = 32, d = 4 rows: q' = 3 needs three passes with 17 total
/// cycles and 7 waste droplets; q' ∈ {5, 7} fits one pass (14 cycles,
/// zero waste).
#[test]
fn table4_d4_rows() {
    let target = pcr_d4();
    let q3 = StreamingEngine::new(EngineConfig::default().with_storage_limit(3))
        .plan(&target, 32)
        .unwrap();
    assert_eq!((q3.pass_count(), q3.total_cycles, q3.total_waste), (3, 17, 7));
    for limit in [5, 7] {
        let plan = StreamingEngine::new(EngineConfig::default().with_storage_limit(limit))
            .plan(&target, 32)
            .unwrap();
        assert_eq!((plan.pass_count(), plan.total_cycles, plan.total_waste), (1, 14, 0));
    }
}

/// Table 4, D = 2 row: a single base-tree pass for any budget and any
/// accuracy — 4 cycles and 6 waste droplets at d = 4.
#[test]
fn table4_demand_2_row() {
    let target = pcr_d4();
    for limit in [3, 5, 7] {
        let plan = StreamingEngine::new(EngineConfig::default().with_storage_limit(limit))
            .plan(&target, 2)
            .unwrap();
        assert_eq!((plan.pass_count(), plan.total_cycles, plan.total_waste), (1, 4, 6));
    }
}

/// Fig. 5, simulated on this repository's preset PCR chip at D = 20: the
/// streaming pass spends 775 electrode actuations (27 mixes, 20 targets
/// emitted), repeated MinMix 1830 (ten demand-2 passes of 183 each). The
/// paper's module-level count on its published matrix is 386 vs 980.
#[test]
fn fig5_simulated_actuations() {
    let target = pcr_d4();
    let chip = pcr_chip();
    let simulate = |demand: u64| {
        let plan = StreamingEngine::new(EngineConfig::default()).plan(&target, demand).unwrap();
        assert_eq!(plan.pass_count(), 1);
        let program = realize_pass(&plan.passes[0], &chip).unwrap();
        Simulator::new(&chip).run(&program).unwrap()
    };
    let streaming = simulate(20);
    assert_eq!(
        (streaming.transport_actuations, streaming.mix_splits, streaming.emitted),
        (775, 27, 20)
    );
    let single = simulate(2);
    assert_eq!(single.transport_actuations, 183);
    assert_eq!(10 * single.transport_actuations, 1830);
}
