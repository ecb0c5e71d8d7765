use dmf_mixgraph::{MixGraph, Operand};

/// Exact minimum makespan of a mixing graph on `mixers` machines, by
/// dynamic programming over executed-vertex subsets.
///
/// Exponential in the vertex count and therefore restricted to graphs with
/// at most [`OPTIMAL_LIMIT`] vertices; returns `None` beyond that (or for
/// zero mixers). Used by the test-suite and the ablation benchmarks to
/// certify how far the heuristic schedulers ([`crate::mms_schedule`],
/// [`crate::srs_schedule`]) and Hu's rule ([`crate::oms_schedule`]) sit
/// from the true optimum.
///
/// # Examples
///
/// ```
/// use dmf_mixalgo::{MinMix, MixingAlgorithm};
/// use dmf_ratio::TargetRatio;
/// use dmf_sched::{optimal_makespan, oms_schedule};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9])?;
/// let tree = MinMix.build_graph(&target)?;
/// let optimal = optimal_makespan(&tree, 3).expect("small tree");
/// assert_eq!(optimal, oms_schedule(&tree, 3)?.makespan()); // HLF is optimal on trees
/// # Ok(())
/// # }
/// ```
pub fn optimal_makespan(graph: &MixGraph, mixers: usize) -> Option<u32> {
    let n = graph.node_count();
    if mixers == 0 || n > OPTIMAL_LIMIT {
        return None;
    }
    if n == 0 {
        return Some(0);
    }
    // Predecessor masks: vertex i may run once preds[i] ⊆ done.
    let mut preds = vec![0u32; n];
    for (id, node) in graph.iter() {
        for op in node.operands() {
            if let Operand::Droplet(src) = op {
                preds[id.index()] |= 1 << src.index();
            }
        }
    }
    let full: u32 = if n == 32 { u32::MAX } else { (1u32 << n) - 1 };
    let mut dp = vec![u32::MAX; (full as usize) + 1];
    dp[0] = 0;
    for mask in 0u32..=full {
        if dp[mask as usize] == u32::MAX {
            continue;
        }
        // Ready vertices: not yet done, all predecessors done.
        let mut ready = 0u32;
        for (i, &pred) in preds.iter().enumerate().take(n) {
            let bit = 1u32 << i;
            if mask & bit == 0 && pred & !mask == 0 {
                ready |= bit;
            }
        }
        if ready == 0 {
            continue;
        }
        let next_cost = dp[mask as usize] + 1;
        // Enumerate non-empty batches of up to `mixers` ready vertices.
        let mut batch = ready;
        loop {
            if batch != 0 && (batch.count_ones() as usize) <= mixers {
                let next = (mask | batch) as usize;
                if next_cost < dp[next] {
                    dp[next] = next_cost;
                }
            }
            if batch == 0 {
                break;
            }
            batch = (batch - 1) & ready;
        }
    }
    (dp[full as usize] != u32::MAX).then_some(dp[full as usize])
}

/// Upper bound on the vertex count [`optimal_makespan`] accepts.
pub const OPTIMAL_LIMIT: usize = 20;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mms_schedule, oms_schedule, srs_schedule};
    use dmf_forest::{build_forest, ReusePolicy};
    use dmf_mixalgo::{MinMix, MixingAlgorithm};
    use dmf_ratio::TargetRatio;

    #[test]
    fn optimal_matches_hand_counted_cases() {
        // Single mix: 1 cycle regardless of mixers.
        let target = TargetRatio::new(vec![1, 1]).unwrap();
        let g = MinMix.build_graph(&target).unwrap();
        assert_eq!(optimal_makespan(&g, 1), Some(1));
        assert_eq!(optimal_makespan(&g, 4), Some(1));
        // PCR tree: 7 nodes, critical path 4, width 3.
        let pcr = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        let t = MinMix.build_graph(&pcr).unwrap();
        assert_eq!(optimal_makespan(&t, 1), Some(7));
        assert_eq!(optimal_makespan(&t, 2), Some(5));
        assert_eq!(optimal_makespan(&t, 3), Some(4));
    }

    #[test]
    fn hlf_is_optimal_on_trees() {
        for parts in [
            vec![2, 1, 1, 1, 1, 1, 9],
            vec![3, 5],
            vec![5, 11],
            vec![1, 1, 2, 4, 8],
            vec![9, 7],
            vec![1, 2, 13],
        ] {
            let target = TargetRatio::new(parts.clone()).unwrap();
            let tree = MinMix.build_graph(&target).unwrap();
            if tree.node_count() > OPTIMAL_LIMIT {
                continue;
            }
            for m in 1..=4usize {
                let optimal = optimal_makespan(&tree, m).unwrap();
                let hlf = oms_schedule(&tree, m).unwrap().makespan();
                assert_eq!(hlf, optimal, "{parts:?} m={m}");
            }
        }
    }

    #[test]
    fn heuristics_stay_close_to_optimal_on_small_forests() {
        let target = TargetRatio::new(vec![3, 5]).unwrap();
        let template = MinMix.build_template(&target).unwrap();
        for demand in [4u64, 8, 12] {
            let forest =
                build_forest(&template, &target, demand, ReusePolicy::AcrossTrees).unwrap();
            if forest.node_count() > OPTIMAL_LIMIT {
                continue;
            }
            for m in 1..=3usize {
                let optimal = optimal_makespan(&forest, m).unwrap();
                let mms = mms_schedule(&forest, m).unwrap().makespan();
                let srs = srs_schedule(&forest, m).unwrap().makespan();
                assert!(mms <= optimal + 2, "MMS {mms} vs opt {optimal} (D={demand} m={m})");
                assert!(srs <= optimal + 2, "SRS {srs} vs opt {optimal} (D={demand} m={m})");
                assert!(mms >= optimal && srs >= optimal);
            }
        }
    }

    #[test]
    fn oversized_graphs_are_refused() {
        let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        let template = MinMix.build_template(&target).unwrap();
        let forest = build_forest(&template, &target, 32, ReusePolicy::AcrossTrees).unwrap();
        assert!(forest.node_count() > OPTIMAL_LIMIT);
        assert_eq!(optimal_makespan(&forest, 3), None);
        let small = MinMix.build_graph(&TargetRatio::new(vec![1, 1]).unwrap()).unwrap();
        assert_eq!(optimal_makespan(&small, 0), None);
    }
}
