//! Property tests: the checker agrees with the producers on every seeded
//! random workload.
//!
//! Two properties, each over a seeded stream of random `2^d`-grid ratios
//! and demands:
//!
//! 1. **Storage recount** — the checker's event-sweep
//!    [`dmf_check::recount_storage_units`] equals the producer's
//!    interval-walk `Schedule::storage(..).peak` (the paper's Algorithm 3
//!    `q'`), for both MMS and SRS schedules.
//! 2. **Clean pipeline** — every (forest, schedule) pair the pipeline
//!    emits gets **zero** diagnostics from [`dmf_check::check_pass`].

// Test target: the workspace `unwrap_used`/`expect_used`/`panic` deny wall
// applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use dmf_check::{check_pass, recount_storage_units};
use dmf_forest::{build_forest, ReusePolicy};
use dmf_mixalgo::{MinMix, MixingAlgorithm};
use dmf_mixgraph::MixGraph;
use dmf_ratio::TargetRatio;
use dmf_rng::{Rng, SeedableRng, StdRng};
use dmf_sched::{mms_schedule, srs_schedule, Schedule};

/// A random ratio whose parts sum to `2^d` for `d` in `2..=6`.
fn random_ratio(rng: &mut StdRng) -> TargetRatio {
    let d = rng.gen_range(2..=6u32);
    let total = 1u64 << d;
    let fluids = rng.gen_range(2..=4usize.min(total as usize));
    // Give every fluid one unit, then scatter the rest at random.
    let mut parts = vec![1u64; fluids];
    for _ in 0..(total - fluids as u64) {
        let i = rng.gen_range(0..fluids);
        parts[i] += 1;
    }
    TargetRatio::new(parts).expect("parts sum to 2^d by construction")
}

fn random_forest(rng: &mut StdRng) -> (TargetRatio, u64, MixGraph) {
    let target = random_ratio(rng);
    let demand = 2 * rng.gen_range(1..=12u64);
    let template = MinMix.build_template(&target).expect("MinMix handles every 2^d ratio");
    let forest =
        build_forest(&template, &target, demand, ReusePolicy::AcrossTrees).expect("forest");
    (target, demand, forest)
}

fn schedules(forest: &MixGraph) -> Vec<(&'static str, Schedule)> {
    vec![
        ("mms", mms_schedule(forest, 3).expect("mms")),
        ("srs", srs_schedule(forest, 3).expect("srs")),
    ]
}

#[test]
fn storage_recount_matches_algorithm_3() {
    let mut rng = StdRng::seed_from_u64(0xC0FF_EE01);
    for case in 0..60 {
        let (_, _, forest) = random_forest(&mut rng);
        for (name, schedule) in schedules(&forest) {
            let produced = schedule.storage(&forest).peak;
            let recounted = recount_storage_units(&forest, &schedule);
            assert_eq!(
                recounted, produced,
                "case {case} ({name}): event-sweep recount {recounted} \
                 != Algorithm 3 peak {produced}"
            );
        }
    }
}

#[test]
fn pipeline_output_is_always_clean() {
    let mut rng = StdRng::seed_from_u64(0xDAC_2014);
    for case in 0..40 {
        let (target, demand, forest) = random_forest(&mut rng);
        for (name, schedule) in schedules(&forest) {
            let claimed = schedule.storage(&forest).peak;
            let report = check_pass(&target, demand, &forest, &schedule, Some(claimed));
            assert!(
                report.is_clean(),
                "case {case} ({name}, target {target}, D={demand}) \
                 must be diagnostic-free:\n{report}"
            );
        }
    }
}
