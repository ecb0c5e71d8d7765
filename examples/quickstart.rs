//! Quickstart: stream droplets of the PCR master mix and compare against
//! the repeated-baseline approach.
//!
//! ```bash
//! cargo run --example quickstart
//! ```

// Binary/example target: the workspace `unwrap_used`/`expect_used`/`panic`
// deny wall applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmfstream::engine::{improvement_over_baseline, repeated, EngineConfig, StreamingEngine};
use dmfstream::mixalgo::AlgorithmId;
use dmfstream::ratio::TargetRatio;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The PCR master mix {10 : 8 : 0.8 : 0.8 : 1 : 1 : 78.4}% approximated
    // at accuracy d = 4 — the paper's running example (2:1:1:1:1:1:9).
    let percents = [10.0, 8.0, 0.8, 0.8, 1.0, 1.0, 78.4];
    let target = TargetRatio::paper_approximate(&percents, 4)?;
    println!("target ratio: {target}  (d = {})", target.accuracy());

    // Plan a stream of 20 target droplets with the default engine
    // (MinMix base tree, SRS scheduling, Mlb mixers).
    let engine = StreamingEngine::new(EngineConfig::default());
    let plan = engine.plan(&target, 20)?;
    println!("\nstreaming plan: {plan}");
    println!("per-fluid inputs I[] = {:?}", plan.inputs);

    // Show the schedule as a Gantt chart (paper Fig. 4).
    let pass = &plan.passes[0];
    println!("\n{}", pass.schedule.gantt(&pass.forest));

    // The naive alternative: rerun the MinMix tree 10 times.
    let baseline = repeated(AlgorithmId::MINMIX, &target, 20, plan.mixers)?;
    println!(
        "repeated-MM baseline: passes={} Tc={} W={} I={}",
        baseline.passes, baseline.total_cycles, baseline.total_waste, baseline.total_inputs
    );
    let improvement = improvement_over_baseline(&plan, &baseline);
    println!("streaming vs baseline: {improvement}");
    Ok(())
}
