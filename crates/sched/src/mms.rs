use crate::list::list_schedule;
use crate::{SchedError, Schedule};
use dmf_mixgraph::{MixGraph, NodeId};
use std::collections::VecDeque;

/// `M_Mixers_Schedule` (paper Algorithm 1): level-synchronous FIFO
/// scheduling of a mixing forest with `mixers` on-chip mixers.
///
/// Each time-cycle the newly schedulable vertices (those whose operand
/// droplets are already produced or come straight from reservoirs) are
/// appended to a FIFO queue ordered by ascending level, and up to `Mc`
/// vertices are dispatched from its front.
///
/// *Fidelity note*: the paper sweeps the levels `ℓ = 1..d` and then drains
/// the queue, and its pseudo-code stops enqueuing new schedulable vertices
/// in the drain loop, which starves vertices that only become schedulable
/// late when `Mc` is small. We keep enqueuing while draining, which is the
/// evident intent; the sweep and the drain then run the same step, so one
/// loop does both (see DESIGN.md §3.7).
///
/// MMS is the latency-oriented scheduler: it completes no later than
/// [`crate::srs_schedule`] but typically holds more droplets in storage.
///
/// # Errors
///
/// Returns [`SchedError::NoMixers`] when `mixers == 0`.
///
/// # Examples
///
/// ```
/// use dmf_forest::{build_forest, ReusePolicy};
/// use dmf_mixalgo::{MinMix, MixingAlgorithm};
/// use dmf_ratio::TargetRatio;
/// use dmf_sched::mms_schedule;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9])?;
/// let template = MinMix.build_template(&target)?;
/// let forest = build_forest(&template, &target, 20, ReusePolicy::AcrossTrees)?;
/// let schedule = mms_schedule(&forest, 3)?;
/// schedule.validate(&forest)?;
/// # Ok(())
/// # }
/// ```
pub fn mms_schedule(graph: &MixGraph, mixers: usize) -> Result<Schedule, SchedError> {
    let _span = dmf_obs::span!("sched_mms");
    let mut queue: VecDeque<usize> = VecDeque::new();
    list_schedule(graph, mixers, |fresh, batch| {
        // "Enqueue all new schedulable nodes ordered from level ℓ upwards":
        // ascending level, arena index as the tie-break.
        fresh.sort_unstable_by_key(|&i| (graph.node(NodeId::new(i as u32)).level(), i));
        queue.extend(fresh.drain(..));
        let take = queue.len().min(mixers);
        batch.extend(queue.drain(..take));
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oms_schedule;
    use dmf_forest::{build_forest, ReusePolicy};
    use dmf_mixalgo::{MinMix, MixingAlgorithm};
    use dmf_ratio::TargetRatio;

    fn pcr_forest(demand: u64) -> MixGraph {
        let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        let template = MinMix.build_template(&target).unwrap();
        build_forest(&template, &target, demand, ReusePolicy::AcrossTrees).unwrap()
    }

    #[test]
    fn schedules_are_valid_across_mixer_counts() {
        let g = pcr_forest(20);
        for m in 1..=6 {
            let s = mms_schedule(&g, m).unwrap();
            s.validate(&g).unwrap();
            assert!(s.makespan() as usize >= g.node_count() / m);
        }
    }

    #[test]
    fn base_tree_mms_matches_oms_with_enough_mixers() {
        // On a single base tree with Mlb mixers the level-synchronous sweep
        // is as fast as the optimal scheduler.
        let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        let tree = MinMix.build_graph(&target).unwrap();
        let mms = mms_schedule(&tree, 3).unwrap();
        let oms = oms_schedule(&tree, 3).unwrap();
        assert_eq!(mms.makespan(), oms.makespan());
    }

    #[test]
    fn single_mixer_is_fully_serial() {
        let g = pcr_forest(8);
        let s = mms_schedule(&g, 1).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(s.makespan() as usize, g.node_count().max(g.depth() as usize));
    }

    #[test]
    fn rejects_zero_mixers() {
        let g = pcr_forest(4);
        assert!(matches!(mms_schedule(&g, 0), Err(SchedError::NoMixers)));
    }

    #[test]
    fn makespan_never_below_level_count() {
        // A chain through every level runs one level per cycle.
        let g = pcr_forest(16);
        let s = mms_schedule(&g, 16).unwrap();
        assert!(s.makespan() >= g.depth());
    }
}
