//! Independent static verification of DMF synthesis artifacts.
//!
//! The paper's central claims are invariants: CF-vector conservation at
//! every mix-split, zero waste for `D = p·2^d` forests (§4.1), mixer
//! occupancy within `Mc` under MMS/SRS (Algorithms 1–2), storage within the
//! `Counting_Storage_Units` bound `q'` (Algorithm 3), guard-banded
//! placements and fluidically safe timed routes. The producing crates each
//! enforce their own invariants — but a producer bug and its "validation"
//! then share one implementation. Following the translation-validation
//! stance, this crate re-derives every invariant from first principles:
//!
//! * **Forests** ([`check_forest`]) re-implement the dyadic (1:1)-mix
//!   arithmetic and re-derive consumer lists from the node operands —
//!   no calls into [`dmf_mixgraph::MixGraph::validate`] or `stats`.
//! * **Schedules** ([`check_schedule`]) re-derive precedence and occupancy
//!   from raw assignments, and [`recount_storage_units`] is an event-sweep
//!   second implementation of Algorithm 3.
//! * **Placements** ([`check_placement`]) re-check bounds, guard bands and
//!   dead electrodes with local coordinate arithmetic.
//! * **Routes** ([`check_routes`]) re-check grid membership, hop legality
//!   and the static + dynamic fluidic constraints cell by cell.
//! * **Pin backends** ([`check_pins`], [`check_routes_pinned`],
//!   [`check_program_pins`]) audit shared-pin assignments and re-derive
//!   the ghost co-activation hazard from raw group data (`PIN001`–
//!   `PIN004`).
//! * **Program dataflow** ([`check_program_flow`]) replays a realized
//!   instruction stream into a droplet-lineage graph and runs the
//!   contamination, soundness and conservation analyses (`FLOW001`–
//!   `FLOW003`) over it — whole-program properties no per-artifact rule
//!   can see.
//! * **Feasibility** ([`check_feasibility`] / [`assert_feasible`]) is a
//!   mixability pre-pass over the *raw* parts of a requested ratio
//!   (`FEAS001`/`FEAS002`), run by the CLI, `StreamingEngine::plan`,
//!   `plan_batch` and dmf-serve before any planning work starts.
//!
//! Every violation is a typed [`Diagnostic`] with a [`Severity`], a stable
//! [`RuleCode`] (`CF001`, `SCH003`, `RT002`, …) and a span-like
//! [`Location`]; a [`CheckReport`] renders them through the shared
//! [`dmf_obs::Table`] writer and exports JSONL. The `dmfstream check` CLI
//! verb and the engine's debug-assertion hook wire the checker over every
//! plan the system emits; `tests/check_mutations.rs` pits it against
//! deliberately corrupted artifacts.
//!
//! The independence requirement is deliberate and load-bearing: see
//! DESIGN.md §11 before adding a rule.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod diag;
mod feas;
mod flow;
mod forest;
mod pins;
mod place;
mod route;
mod sched;

pub use diag::{CheckReport, Diagnostic, Location, RuleCode, Severity};
pub use feas::{assert_feasible, check_feasibility, Infeasibility};
pub use flow::{analyze_program_flow, check_program_flow, FlowExpectation, FlowLedger};
pub use forest::{check_forest, recount_forest, ForestCounts};
pub use pins::{check_pins, check_program_pins, check_routes_pinned};
pub use place::check_placement;
pub use route::check_routes;
pub use sched::{check_schedule, recount_storage_units};

use dmf_mixgraph::MixGraph;
use dmf_ratio::TargetRatio;
use dmf_sched::Schedule;

/// Checks one pass of a streaming plan: its forest against the target and
/// pass demand, and its schedule (with the claimed storage peak `q'`)
/// against the forest.
///
/// This is the per-pass composition the engine's debug hook and the
/// `dmfstream check` verb run; placement and routes are separate artifacts
/// checked via [`check_placement`] and [`check_routes`].
pub fn check_pass(
    target: &TargetRatio,
    demand: u64,
    forest: &MixGraph,
    schedule: &Schedule,
    claimed_storage: Option<usize>,
) -> CheckReport {
    let _span = dmf_obs::span!("check_pass");
    let mut report = check_forest(forest, target, demand);
    report.merge(check_schedule(forest, schedule, claimed_storage));
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_forest::{build_forest, ReusePolicy};
    use dmf_mixalgo::{MinMix, MixingAlgorithm};
    use dmf_sched::SchedulerKind;

    #[test]
    fn pass_composition_is_clean_on_good_artifacts() {
        let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).expect("valid ratio");
        let template = MinMix.build_template(&target).expect("template");
        let forest =
            build_forest(&template, &target, 20, ReusePolicy::AcrossTrees).expect("forest");
        let schedule = SchedulerKind::Srs.run(&forest, 3).expect("schedule");
        let q = schedule.storage(&forest).peak;
        let report = check_pass(&target, 20, &forest, &schedule, Some(q));
        assert!(report.is_empty(), "{report}");
    }
}
