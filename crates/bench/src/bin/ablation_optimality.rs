//! Ablation: heuristic schedulers versus the exact optimum.
//!
//! For every small forest (≤ 20 mix-splits) derived from two-fluid targets
//! of the corpus, compare MMS, SRS and HLF makespans against the exact DP
//! optimum, per mixer count.

// Binary/example target: the workspace `unwrap_used`/`expect_used`/`panic`
// deny wall applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmf_forest::{build_forest, ReusePolicy};
use dmf_mixalgo::{MinMix, MixingAlgorithm};
use dmf_sched::{mms_schedule, oms_schedule, optimal_makespan, srs_schedule, OPTIMAL_LIMIT};
use dmf_workloads::synthetic;

fn main() {
    let corpus = synthetic::paper_corpus();
    println!("Scheduler optimality ablation (forests with <= {OPTIMAL_LIMIT} mix-splits)\n");
    println!(
        "{:>3} {:>9} {:>12} {:>12} {:>12}",
        "M", "forests", "MMS gap avg", "SRS gap avg", "HLF gap avg"
    );
    for mixers in 1..=4usize {
        let mut gaps = [0u64; 3];
        let mut optimal_total = 0u64;
        let mut count = 0usize;
        for target in &corpus {
            let Ok(template) = MinMix.build_template(target) else {
                continue;
            };
            for demand in [4u64, 8] {
                let Ok(forest) = build_forest(&template, target, demand, ReusePolicy::AcrossTrees)
                else {
                    continue;
                };
                if forest.node_count() > OPTIMAL_LIMIT {
                    continue;
                }
                let Some(optimal) = optimal_makespan(&forest, mixers) else { continue };
                let mms = mms_schedule(&forest, mixers).expect("schedules").makespan();
                let srs = srs_schedule(&forest, mixers).expect("schedules").makespan();
                let hlf = oms_schedule(&forest, mixers).expect("schedules").makespan();
                gaps[0] += u64::from(mms - optimal);
                gaps[1] += u64::from(srs - optimal);
                gaps[2] += u64::from(hlf - optimal);
                optimal_total += u64::from(optimal);
                count += 1;
                if count >= 4000 {
                    break;
                }
            }
            if count >= 4000 {
                break;
            }
        }
        let avg = |g: u64| g as f64 / count.max(1) as f64;
        println!(
            "{:>3} {:>9} {:>12.3} {:>12.3} {:>12.3}   (avg optimal Tc {:.2})",
            mixers,
            count,
            avg(gaps[0]),
            avg(gaps[1]),
            avg(gaps[2]),
            optimal_total as f64 / count.max(1) as f64
        );
    }
    println!("\n(gap = heuristic makespan - exact optimum, in cycles)");
}
