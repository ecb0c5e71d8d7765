//! Schedule rules (`SCH001`–`SCH005`).
//!
//! Precedence and occupancy are re-derived from the node operands and the
//! raw cycle/mixer assignment; the storage recount is an event-sweep
//! re-implementation of the paper's `Counting_Storage_Units` (Algorithm 3)
//! that never calls [`dmf_sched::Schedule::storage`] or reads the
//! producer's consumer lists.

use crate::{CheckReport, Location, RuleCode};
use dmf_mixgraph::{MixGraph, Operand};
use dmf_sched::Schedule;

/// Independent re-count of the storage units (`q'`) a schedule needs.
///
/// For every droplet handed from a producer to a consumer, the droplet
/// occupies a storage unit during cycles `produced+1 ..= consumed-1`. The
/// recount registers each such interval as a `+1`/`-1` event pair and takes
/// the running-sum maximum — a deliberately different algorithm from the
/// per-cell interval loops in `dmf_sched::StorageProfile`, with consumers
/// re-derived from the operand lists.
pub fn recount_storage_units(graph: &MixGraph, schedule: &Schedule) -> usize {
    if schedule.len() != graph.node_count() {
        return 0;
    }
    let horizon = schedule.makespan() as usize + 2;
    let mut events = vec![0i64; horizon + 1];
    for (id, node) in graph.iter() {
        let consumed_at = schedule.cycle_of(id);
        for op in node.operands() {
            if let Operand::Droplet(src) = op {
                if src.index() >= graph.node_count() {
                    continue;
                }
                let produced_at = schedule.cycle_of(src);
                let start = (produced_at + 1) as usize;
                let end = consumed_at as usize; // exclusive
                if start < end && end <= horizon {
                    events[start] += 1;
                    events[end] -= 1;
                }
            }
        }
    }
    let mut occupancy = 0i64;
    let mut peak = 0i64;
    for delta in events {
        occupancy += delta;
        peak = peak.max(occupancy);
    }
    peak as usize
}

/// Checks a schedule against the graph it claims to execute. Covers rules
/// `SCH001`–`SCH005`; `claimed_storage` is the producer's `q'` (Algorithm 3
/// output) to cross-check, or `None` to skip `SCH005`.
pub fn check_schedule(
    graph: &MixGraph,
    schedule: &Schedule,
    claimed_storage: Option<usize>,
) -> CheckReport {
    let mut report = CheckReport::new();
    if schedule.len() != graph.node_count() {
        report.report(
            RuleCode::Sch001,
            Location::Artifact,
            format!(
                "schedule covers {} node(s) but the graph has {}",
                schedule.len(),
                graph.node_count()
            ),
        );
        return report;
    }
    let mixers = schedule.mixer_count();
    let mut per_slot: std::collections::HashMap<(u32, usize), u32> =
        std::collections::HashMap::new();
    let mut per_cycle: std::collections::HashMap<u32, u32> = std::collections::HashMap::new();
    for (id, node) in graph.iter() {
        let cycle = schedule.cycle_of(id);
        let loc = Location::Node(id.index() as u32);
        if cycle == 0 {
            report.report(RuleCode::Sch001, loc, "node is unscheduled (cycle 0)");
            continue;
        }
        for op in node.operands() {
            if let Operand::Droplet(src) = op {
                if src.index() >= graph.node_count() {
                    continue; // CF004 territory; nothing to time-check.
                }
                let src_cycle = schedule.cycle_of(src);
                if src_cycle >= cycle {
                    report.report(
                        RuleCode::Sch002,
                        Location::Node(id.index() as u32),
                        format!(
                            "runs at t={cycle} but operand {src} only finishes at t={src_cycle}"
                        ),
                    );
                }
            }
        }
        let mixer = schedule.mixer_of(id).0;
        if mixer >= mixers {
            report.report(
                RuleCode::Sch004,
                Location::Cycle(cycle),
                format!("{id} assigned to mixer index {mixer}, only {mixers} mixer(s) exist"),
            );
        } else {
            let slot = per_slot.entry((cycle, mixer)).or_insert(0);
            *slot += 1;
            if *slot == 2 {
                report.report(
                    RuleCode::Sch004,
                    Location::Cycle(cycle),
                    format!("mixer M{} double-booked", mixer + 1),
                );
            }
        }
        *per_cycle.entry(cycle).or_insert(0) += 1;
    }
    let mut cycles: Vec<(u32, u32)> = per_cycle.into_iter().collect();
    cycles.sort_unstable();
    for (cycle, count) in cycles {
        if count as usize > mixers {
            report.report(
                RuleCode::Sch003,
                Location::Cycle(cycle),
                format!("{count} mix-splits run concurrently but Mc = {mixers}"),
            );
        }
    }
    if let Some(claimed) = claimed_storage {
        let recount = recount_storage_units(graph, schedule);
        if recount != claimed {
            report.report(
                RuleCode::Sch005,
                Location::Artifact,
                format!("independent storage recount q' = {recount}, producer claims {claimed}"),
            );
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_forest::{build_forest, ReusePolicy};
    use dmf_mixalgo::{MinMix, MixingAlgorithm};
    use dmf_ratio::TargetRatio;
    use dmf_sched::SchedulerKind;

    fn pcr_forest(demand: u64) -> (MixGraph, TargetRatio) {
        let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).expect("valid ratio");
        let template = MinMix.build_template(&target).expect("template");
        let forest =
            build_forest(&template, &target, demand, ReusePolicy::AcrossTrees).expect("forest");
        (forest, target)
    }

    #[test]
    fn good_schedules_are_clean_and_recount_matches() {
        for demand in [2, 16, 20] {
            for kind in [SchedulerKind::Mms, SchedulerKind::Srs] {
                let (forest, _) = pcr_forest(demand);
                let schedule = kind.run(&forest, 3).expect("schedule");
                let q = schedule.storage(&forest).peak;
                assert_eq!(recount_storage_units(&forest, &schedule), q);
                let report = check_schedule(&forest, &schedule, Some(q));
                assert!(report.is_empty(), "D={demand} {kind:?}: {report}");
            }
        }
    }

    #[test]
    fn fig3_oracle_storage_recount() {
        // Fig. 3: PCR d=4, D=20, SRS on 3 mixers stores at most 5 droplets.
        let (forest, _) = pcr_forest(20);
        let schedule = SchedulerKind::Srs.run(&forest, 3).expect("schedule");
        assert_eq!(recount_storage_units(&forest, &schedule), 5);
    }

    #[test]
    fn wrong_claimed_storage_trips_sch005() {
        let (forest, _) = pcr_forest(8);
        let schedule = SchedulerKind::Srs.run(&forest, 3).expect("schedule");
        let q = schedule.storage(&forest).peak;
        let report = check_schedule(&forest, &schedule, Some(q + 1));
        assert!(report.has(RuleCode::Sch005), "{report}");
    }
}
