use crate::list::list_schedule;
use crate::{SchedError, Schedule};
use dmf_mixgraph::{MixGraph, NodeId, Operand};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// `Storage_Reduced_Scheduling` (paper Algorithm 2): storage-oriented
/// priority scheduling of a mixing forest with `mixers` on-chip mixers.
///
/// Schedulable vertices are split by the storage cost of stalling them:
///
/// * **Type-A/B** (at least one operand is a stored droplet) go to `Qint`,
///   served first, *higher level first* — finishing them early both frees
///   their stored operands and unblocks the chains above them;
/// * **Type-C** (both operands straight from fluid reservoirs) go to
///   `Qleaf`, served with leftover mixers only, *lower level first* —
///   stalling them costs no storage at all.
///
/// Compared to [`crate::mms_schedule`] this may take a few extra cycles but
/// needs fewer storage units (paper Table 3: ~25% fewer on average for ~5%
/// more time).
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
/// use dmf_sched::srs_schedule;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The paper's Fig. 3: PCR forest for D = 20 on three mixers.
/// let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9])?;
/// let template = MinMix.build_template(&target)?;
/// let forest = build_forest(&template, &target, 20, ReusePolicy::AcrossTrees)?;
/// let schedule = srs_schedule(&forest, 3)?;
/// schedule.validate(&forest)?;
/// # Ok(())
/// # }
/// ```
pub fn srs_schedule(graph: &MixGraph, mixers: usize) -> Result<Schedule, SchedError> {
    let _span = dmf_obs::span!("sched_srs");
    // Qint: higher level first; Qleaf: lower level first. Ties broken by
    // arrival order (sequence number, an index into `by_seq`) to stay
    // deterministic.
    let mut q_int: BinaryHeap<(u32, Reverse<usize>)> = BinaryHeap::new();
    let mut q_leaf: BinaryHeap<(Reverse<u32>, Reverse<usize>)> = BinaryHeap::new();
    let mut by_seq: Vec<usize> = Vec::new();
    list_schedule(graph, mixers, |fresh, batch| {
        fresh.sort_unstable();
        for i in fresh.drain(..) {
            let seq = Reverse(by_seq.len());
            by_seq.push(i);
            let node = graph.node(NodeId::new(i as u32));
            // Type-C: both operands are reservoir inputs.
            if node.operands().iter().all(|op| matches!(op, Operand::Input(_))) {
                q_leaf.push((Reverse(node.level()), seq));
            } else {
                q_int.push((node.level(), seq));
            }
        }
        while batch.len() < mixers {
            let Some(Reverse(seq)) =
                q_int.pop().map(|(_, s)| s).or_else(|| q_leaf.pop().map(|(_, s)| s))
            else {
                break;
            };
            batch.push(by_seq[seq]);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mms_schedule;
    use dmf_forest::{build_forest, ReusePolicy};
    use dmf_mixalgo::{MinMix, MixingAlgorithm, Rma};
    use dmf_ratio::TargetRatio;

    fn pcr_forest(demand: u64) -> MixGraph {
        let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        let template = MinMix.build_template(&target).unwrap();
        build_forest(&template, &target, demand, ReusePolicy::AcrossTrees).unwrap()
    }

    #[test]
    fn fig3_oracle_three_mixers_demand_20() {
        // Paper Figs. 2-4: Tc = 11, q = 5.
        let g = pcr_forest(20);
        let s = srs_schedule(&g, 3).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(s.makespan(), 11, "Tc");
        assert_eq!(s.storage(&g).peak, 5, "q");
    }

    #[test]
    fn storage_is_reduced_on_aggregate() {
        // SRS trades completion time for storage. It is a heuristic, so it
        // need not dominate MMS on every instance (the paper reports a
        // ~25% *average* reduction); we require a clear aggregate win over
        // a sweep of demands and mixer counts, with MMS never slower.
        let mut srs_total = 0usize;
        let mut mms_total = 0usize;
        for demand in [8u64, 16, 20, 32] {
            let g = pcr_forest(demand);
            for m in 1..=5 {
                let srs = srs_schedule(&g, m).unwrap();
                let mms = mms_schedule(&g, m).unwrap();
                srs.validate(&g).unwrap();
                mms.validate(&g).unwrap();
                assert!(mms.makespan() <= srs.makespan(), "MMS is the latency-oriented one");
                srs_total += srs.storage(&g).peak;
                mms_total += mms.storage(&g).peak;
            }
        }
        assert!(
            (srs_total as f64) < 0.85 * mms_total as f64,
            "expected a clear storage win: srs={srs_total} mms={mms_total}"
        );
    }

    #[test]
    fn storage_win_grows_with_demand() {
        // Where the forest actually carries cross-tree waste (D = 20, 32),
        // SRS with the paper's three mixers needs strictly less storage.
        for demand in [20u64, 32] {
            let g = pcr_forest(demand);
            let srs = srs_schedule(&g, 3).unwrap();
            let mms = mms_schedule(&g, 3).unwrap();
            assert!(
                srs.storage(&g).peak < mms.storage(&g).peak,
                "D={demand}: srs={} mms={}",
                srs.storage(&g).peak,
                mms.storage(&g).peak
            );
        }
    }

    #[test]
    fn completion_no_faster_than_critical_work() {
        let g = pcr_forest(16);
        for m in 1..=4 {
            let s = srs_schedule(&g, m).unwrap();
            let lb = (g.node_count() as u32).div_ceil(m as u32).max(g.depth());
            assert!(s.makespan() >= lb);
        }
    }

    #[test]
    fn works_on_rma_seeded_forests() {
        let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        let template = Rma.build_template(&target).unwrap();
        let g = build_forest(&template, &target, 32, ReusePolicy::AcrossTrees).unwrap();
        let s = srs_schedule(&g, 3).unwrap();
        s.validate(&g).unwrap();
    }

    #[test]
    fn rejects_zero_mixers() {
        let g = pcr_forest(4);
        assert!(matches!(srs_schedule(&g, 0), Err(SchedError::NoMixers)));
    }
}
