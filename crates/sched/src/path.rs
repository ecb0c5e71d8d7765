use crate::list::lowest_key_first;
use crate::{SchedError, Schedule};
use dmf_mixgraph::{MixGraph, NodeId, Operand};

/// Path scheduling of a mixing graph, after Grissom & Brisk (DAC 2012) —
/// the storage-lean alternative scheduler the paper cites for mapping
/// mixing trees onto biochips (§2.2).
///
/// Vertices are prioritised by depth-first completion order: the scheduler
/// finishes one root-to-leaf path before widening, the mixing-tree
/// analogue of register-lean Sethi–Ullman expression evaluation. Droplets
/// therefore flow producer-to-consumer with minimal dwell time, at the
/// cost of a longer makespan than [`crate::mms_schedule`] when many mixers
/// are available.
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
/// use dmf_sched::path_schedule;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9])?;
/// let template = MinMix.build_template(&target)?;
/// let forest = build_forest(&template, &target, 16, ReusePolicy::AcrossTrees)?;
/// let schedule = path_schedule(&forest, 3)?;
/// schedule.validate(&forest)?;
/// # Ok(())
/// # }
/// ```
pub fn path_schedule(graph: &MixGraph, mixers: usize) -> Result<Schedule, SchedError> {
    let n = graph.node_count();
    // Depth-first completion order over every component tree: children
    // (subtree producers) complete immediately before their parent.
    let mut priority = vec![0u32; n];
    let mut next_rank = 0u32;
    let mut stack: Vec<(NodeId, bool)> = Vec::new();
    for &root in graph.roots() {
        stack.push((root, false));
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                priority[id.index()] = next_rank;
                next_rank += 1;
                continue;
            }
            stack.push((id, true));
            for op in graph.node(id).operands() {
                if let Operand::Droplet(src) = op {
                    // Only descend tree edges; reuse edges point at vertices
                    // owned by (and ranked with) an earlier tree.
                    if graph.node(src).tree() == graph.node(id).tree() {
                        stack.push((src, false));
                    }
                }
            }
        }
    }
    lowest_key_first(graph, mixers, |i| priority[i])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mms_schedule;
    use dmf_forest::{build_forest, ReusePolicy};
    use dmf_mixalgo::{MinMix, MixingAlgorithm};
    use dmf_ratio::TargetRatio;

    fn pcr_forest(demand: u64) -> MixGraph {
        let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        let template = MinMix.build_template(&target).unwrap();
        build_forest(&template, &target, demand, ReusePolicy::AcrossTrees).unwrap()
    }

    #[test]
    fn schedules_are_valid() {
        for demand in [2u64, 8, 20, 32] {
            let g = pcr_forest(demand);
            for m in 1..=4 {
                let s = path_schedule(&g, m).unwrap();
                s.validate(&g).unwrap();
            }
        }
    }

    #[test]
    fn single_mixer_needs_minimal_storage() {
        // With one mixer, depth-first order keeps at most a handful of
        // droplets waiting — never more than the tree depth.
        let g = pcr_forest(16);
        let path = path_schedule(&g, 1).unwrap();
        let mms = mms_schedule(&g, 1).unwrap();
        assert!(
            path.storage(&g).peak <= mms.storage(&g).peak,
            "path {} vs mms {}",
            path.storage(&g).peak,
            mms.storage(&g).peak
        );
    }

    #[test]
    fn rejects_zero_mixers() {
        let g = pcr_forest(4);
        assert!(matches!(path_schedule(&g, 0), Err(SchedError::NoMixers)));
    }

    #[test]
    fn dfs_priority_finishes_paths_contiguously() {
        // On a single tree with one mixer, a parent executes right after
        // its second child's subtree completes.
        let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        let tree = MinMix.build_graph(&target).unwrap();
        let s = path_schedule(&tree, 1).unwrap();
        s.validate(&tree).unwrap();
        assert_eq!(s.makespan() as usize, tree.node_count());
    }
}
