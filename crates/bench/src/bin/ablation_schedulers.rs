//! Ablation: all five schedulers head to head.
//!
//! Compares the paper's MMS and SRS with Hu's HLF rule, path scheduling
//! (Grissom–Brisk) and GA-based scheduling (Su–Chakrabarty) over a corpus
//! sample — average completion time and storage on MinMix forests.
//!
//! Optional first argument: sample size (default 150; GA is the slow one).

// Binary/example target: the workspace `unwrap_used`/`expect_used`/`panic`
// deny wall applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmf_forest::{build_forest, ReusePolicy};
use dmf_mixalgo::{MinMix, MixingAlgorithm};
use dmf_sched::{ga_schedule, mms_schedule, oms_schedule, path_schedule, srs_schedule, GaConfig};
use dmf_workloads::synthetic;

fn main() {
    let sample: usize = std::env::args().nth(1).and_then(|s| s.parse().ok()).unwrap_or(150);
    let corpus = synthetic::sampled_corpus(sample, 42);
    let mixers = 3usize;
    let demand = 20u64;
    println!(
        "Scheduler comparison over {} ratios (L = 32, D = {demand}, {mixers} mixers)\n",
        corpus.len()
    );
    let names = ["MMS", "SRS", "HLF", "Path", "GA"];
    let mut tc = [0u64; 5];
    let mut q = [0u64; 5];
    let mut evaluated = 0usize;
    let ga_config = GaConfig { generations: 30, population: 24, ..GaConfig::default() };
    for target in &corpus {
        let Ok(template) = MinMix.build_template(target) else {
            continue;
        };
        let Ok(forest) = build_forest(&template, target, demand, ReusePolicy::AcrossTrees) else {
            continue;
        };
        let schedules = [
            mms_schedule(&forest, mixers).expect("schedules"),
            srs_schedule(&forest, mixers).expect("schedules"),
            oms_schedule(&forest, mixers).expect("schedules"),
            path_schedule(&forest, mixers).expect("schedules"),
            ga_schedule(&forest, mixers, &ga_config).expect("schedules"),
        ];
        evaluated += 1;
        for (k, s) in schedules.iter().enumerate() {
            tc[k] += u64::from(s.makespan());
            q[k] += s.storage(&forest).peak as u64;
        }
    }
    println!("{:<6} {:>10} {:>10}", "sched", "avg Tc", "avg q");
    for (k, name) in names.iter().enumerate() {
        println!(
            "{:<6} {:>10.2} {:>10.2}",
            name,
            tc[k] as f64 / evaluated.max(1) as f64,
            q[k] as f64 / evaluated.max(1) as f64
        );
    }
    println!("\n({evaluated} forests; GA fitness = Tc + 0.5 q, 24x30 evolution)");
}
