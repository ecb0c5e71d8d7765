//! Cross-crate integration: every protocol workload, every base algorithm
//! and both schedulers, planned, (where sized to fit) realized onto chips,
//! and simulated.

// Test target: the workspace `unwrap_used`/`expect_used`/`panic` deny wall
// applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmfstream::chip::presets::streaming_chip;
use dmfstream::engine::{realize_pass, EngineConfig, StreamingEngine};
use dmfstream::mixalgo::AlgorithmId;
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
