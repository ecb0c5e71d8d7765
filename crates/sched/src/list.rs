use crate::{SchedError, Schedule};
use dmf_mixgraph::{MixGraph, NodeId, Operand};

/// List scheduling, the one loop behind every scheduler of this crate.
///
/// Cycle by cycle, `pick` receives the vertices that became ready since
/// its previous call (every vertex without droplet operands on the first
/// call) in `fresh`, must take all of them into its own ready set, and
/// moves at most `mixers` of its ready vertices into `batch` — never none
/// while vertices remain, which a DAG guarantees it can. The `k`-th vertex
/// of `batch` runs in the current cycle on mixer `k`; its consumers become
/// ready once all their droplet operands are produced.
///
/// # Errors
///
/// Returns [`SchedError::NoMixers`] when `mixers == 0`.
pub(crate) fn list_schedule(
    graph: &MixGraph,
    mixers: usize,
    mut pick: impl FnMut(&mut Vec<usize>, &mut Vec<usize>),
) -> Result<Schedule, SchedError> {
    if mixers == 0 {
        return Err(SchedError::NoMixers);
    }
    let n = graph.node_count();
    // Unproduced droplet operands per vertex.
    let mut deps: Vec<usize> = graph
        .iter()
        .map(|(_, node)| {
            node.operands().iter().filter(|op| matches!(op, Operand::Droplet(_))).count()
        })
        .collect();
    let mut node_cycle = vec![0u32; n];
    let mut node_mixer = vec![0u32; n];
    let mut fresh: Vec<usize> = (0..n).filter(|&i| deps[i] == 0).collect();
    let mut batch = Vec::new();
    let mut scheduled = 0usize;
    let mut t = 1u32;
    while scheduled < n {
        batch.clear();
        pick(&mut fresh, &mut batch);
        debug_assert!(fresh.is_empty(), "the pick rule takes every fresh vertex");
        debug_assert!(
            !batch.is_empty() && batch.len() <= mixers,
            "a DAG always has a ready vertex, and a cycle has `mixers` slots"
        );
        for (mixer, &i) in batch.iter().enumerate() {
            node_cycle[i] = t;
            node_mixer[i] = mixer as u32;
            for &c in graph.consumers(NodeId::new(i as u32)) {
                deps[c.index()] -= 1;
                if deps[c.index()] == 0 {
                    fresh.push(c.index());
                }
            }
        }
        scheduled += batch.len();
        t += 1;
    }
    Ok(Schedule::from_parts(mixers, node_cycle, node_mixer))
}

/// List scheduling under a static priority: each cycle runs the `mixers`
/// ready vertices of lowest `(key(i), i)` — arena index `i` breaks ties.
///
/// # Errors
///
/// Returns [`SchedError::NoMixers`] when `mixers == 0`.
pub(crate) fn lowest_key_first<K: Ord>(
    graph: &MixGraph,
    mixers: usize,
    key: impl Fn(usize) -> K,
) -> Result<Schedule, SchedError> {
    let mut ready: Vec<usize> = Vec::new();
    list_schedule(graph, mixers, |fresh, batch| {
        ready.append(fresh);
        ready.sort_unstable_by_key(|&i| (key(i), i));
        let take = ready.len().min(mixers);
        batch.extend(ready.drain(..take));
    })
}
