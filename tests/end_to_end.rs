//! Cross-crate integration: every protocol workload, every base algorithm
//! and both schedulers, planned, (where sized to fit) realized onto chips,
//! and simulated.

// Test target: the workspace `unwrap_used`/`expect_used`/`panic` deny wall
// applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmfstream::chip::presets::streaming_chip;
use dmfstream::engine::{
    realize_pass, repeated, EngineConfig, EngineError, StreamPlan, StreamingEngine,
};
use dmfstream::mixalgo::{AlgorithmId, MixAlgoError};
use dmfstream::sched::SchedulerKind;
use dmfstream::sim::Simulator;
use dmfstream::workloads::protocols;

#[test]
fn all_protocols_all_algorithms_all_schedulers_plan_cleanly() {
    for protocol in protocols::table2_examples() {
        for algorithm in AlgorithmId::BASELINES {
            for scheduler in SchedulerKind::ALL {
                let config =
                    EngineConfig::default().with_algorithm(algorithm).with_scheduler(scheduler);
                let engine = StreamingEngine::new(config);
                let plan = engine
                    .plan(&protocol.ratio, 32)
                    .unwrap_or_else(|e| panic!("{} {} {}: {e}", protocol.id, algorithm, scheduler));
                assert_eq!(plan.pass_count(), 1);
                // Droplet conservation: I = targets + W, targets >= demand.
                let targets = plan.total_inputs - plan.total_waste;
                assert!(targets >= 32, "{}: {targets} targets", protocol.id);
                // Every pass's schedule is structurally valid.
                for pass in &plan.passes {
                    pass.schedule.validate(&pass.forest).unwrap();
                    pass.forest.stats().assert_conservation();
                }
            }
        }
    }
}

#[test]
fn streaming_always_beats_its_repeated_baseline_on_reactant() {
    use dmfstream::engine::repeated;
    for protocol in protocols::table2_examples() {
        for algorithm in AlgorithmId::BASELINES {
            let config = EngineConfig::default().with_algorithm(algorithm);
            let engine = StreamingEngine::new(config);
            let plan = engine.plan(&protocol.ratio, 32).unwrap();
            let baseline = repeated(algorithm, &protocol.ratio, 32, plan.mixers).unwrap();
            assert!(
                plan.total_inputs <= baseline.total_inputs,
                "{} {}: I {} vs Ir {}",
                protocol.id,
                algorithm,
                plan.total_inputs,
                baseline.total_inputs
            );
            assert!(
                plan.total_cycles <= baseline.total_cycles,
                "{} {}: Tc {} vs Tr {}",
                protocol.id,
                algorithm,
                plan.total_cycles,
                baseline.total_cycles
            );
        }
    }
}

#[test]
fn three_fluid_protocol_realizes_and_simulates() {
    // Ex.2 (phenol/chloroform/isoamylalcohol) end to end on an
    // appropriately sized chip.
    let protocol = protocols::one_step_miniprep();
    let engine = StreamingEngine::new(EngineConfig::default());
    let plan = engine.plan(&protocol.ratio, 8).unwrap();
    let chip = streaming_chip(protocol.ratio.fluid_count(), plan.mixers, plan.storage_peak.max(1))
        .unwrap();
    let mut emitted = 0;
    for pass in &plan.passes {
        let program = realize_pass(pass, &chip).unwrap();
        let report = Simulator::new(&chip).run(&program).unwrap();
        emitted += report.emitted;
        assert_eq!(report.mix_splits as usize, pass.forest.node_count());
        assert_eq!(report.storage_peak, pass.storage_units());
    }
    assert!(emitted >= 8);
}

#[test]
fn pcr_at_higher_accuracy_realizes_with_enough_storage() {
    let ratio = protocols::pcr_master_mix_256().ratio;
    let engine = StreamingEngine::new(EngineConfig::default());
    let plan = engine.plan(&ratio, 4).unwrap();
    let chip = streaming_chip(7, plan.mixers, plan.storage_peak.max(1)).unwrap();
    for pass in &plan.passes {
        let program = realize_pass(pass, &chip).unwrap();
        let report = Simulator::new(&chip).run(&program).unwrap();
        assert_eq!(report.emitted, 2 * pass.forest.tree_count() as u64);
    }
}

#[test]
fn dilution_is_a_special_case_of_the_engine() {
    // The dilution-engine use case (Roy et al., IET-CDT 2013): N = 2.
    let target = dmfstream::mixalgo::dilution_ratio(5, 4).unwrap();
    let plan = StreamingEngine::new(EngineConfig::default()).plan(&target, 16).unwrap();
    assert!(plan.total_inputs < 16 * 4, "streaming reuses dilution waste");
    let targets = plan.total_inputs - plan.total_waste;
    assert!(targets >= 16);
}

/// A dilution stream through the engine: CF `k / 2^d`, `demand` droplets,
/// `mixers` fixed mixers, seeded by `algorithm`.
fn dilution_plan(
    algorithm: AlgorithmId,
    k: u64,
    d: u32,
    demand: u64,
    mixers: usize,
) -> Result<StreamPlan, Box<dyn std::error::Error>> {
    let target = dmfstream::mixalgo::dilution_ratio(k, d)?;
    let config = EngineConfig::default().with_algorithm(algorithm).with_mixers(mixers);
    Ok(StreamingEngine::new(config).plan(&target, demand)?)
}

/// Target droplets a plan emits, counted from its forests.
fn emitted(plan: &StreamPlan) -> u64 {
    plan.passes.iter().map(|p| p.forest.stats().targets() as u64).sum()
}

#[test]
fn dilution_streaming_beats_repetition_for_every_dilution_seed() {
    for algorithm in [AlgorithmId::BitScan, AlgorithmId::Dmrw, AlgorithmId::MinMix] {
        let plan = dilution_plan(algorithm, 5, 4, 16, 2).unwrap();
        let target = dmfstream::mixalgo::dilution_ratio(5, 4).unwrap();
        let baseline = repeated(algorithm, &target, 16, 2).unwrap();
        assert!(emitted(&plan) >= 16);
        assert!(
            plan.total_inputs <= baseline.total_inputs,
            "{algorithm:?}: {} vs {}",
            plan.total_inputs,
            baseline.total_inputs
        );
        assert!(plan.total_cycles <= baseline.total_cycles);
    }
}

#[test]
fn full_cycle_dilution_demand_is_waste_free() {
    // d(reduced) = 4 for 5/16: demand 16 consumes every droplet.
    let plan = dilution_plan(AlgorithmId::BitScan, 5, 4, 16, 2).unwrap();
    assert_eq!(plan.total_waste, 0);
    assert_eq!(plan.total_inputs, 16);
}

#[test]
fn unmixable_dilution_cfs_are_rejected() {
    for k in [0, 16, 17] {
        assert!(dilution_plan(AlgorithmId::BitScan, k, 4, 8, 1).is_err(), "k = {k}");
    }
}

#[test]
fn dilution_streams_conserve_droplets() {
    let plan = dilution_plan(AlgorithmId::Dmrw, 7, 5, 20, 3).unwrap();
    assert_eq!(plan.total_inputs, emitted(&plan) + plan.total_waste);
}

#[test]
fn dilution_algorithms_reject_mixtures_of_more_than_two_fluids() {
    let pcr = dmfstream::ratio::TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
    for algorithm in [AlgorithmId::BitScan, AlgorithmId::Dmrw] {
        let engine = StreamingEngine::new(EngineConfig::default().with_algorithm(algorithm));
        match engine.plan(&pcr, 4) {
            Err(EngineError::Algo(MixAlgoError::NotADilution { active: 7 })) => {}
            other => panic!("{algorithm:?}: expected NotADilution, got {other:?}"),
        }
    }
}
