use crate::{SchedError, StorageProfile};
use dmf_mixgraph::{MixGraph, NodeId, Operand};

/// Index of an on-chip mixer module (`M1` is `MixerId(0)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MixerId(pub usize);

impl std::fmt::Display for MixerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "M{}", self.0 + 1)
    }
}

/// A complete assignment of time-cycles and mixers to every mix-split vertex
/// of a mixing graph.
///
/// Cycles are 1-based, matching the paper's Gantt chart (Fig. 4). Produced
/// by [`crate::oms_schedule`], [`crate::mms_schedule`] or
/// [`crate::srs_schedule`]; consumers should call [`Schedule::validate`]
/// before trusting externally supplied schedules.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    pub(crate) mixers: usize,
    pub(crate) node_cycle: Vec<u32>,
    pub(crate) node_mixer: Vec<u32>,
    pub(crate) makespan: u32,
}

impl Schedule {
    /// Builds a schedule from raw per-node cycle and mixer assignments
    /// (`node_cycle[i]` / `node_mixer[i]` belong to the node with arena
    /// index `i`; cycles are 1-based).
    ///
    /// No validation is performed — this is the entry point for externally
    /// supplied schedules and for tests that need deliberately corrupt
    /// assignments (e.g. the `dmf-check` mutation suite). Run
    /// [`Schedule::validate`] or `dmf-check`'s `check_schedule` before
    /// trusting the result.
    pub fn from_parts(mixers: usize, node_cycle: Vec<u32>, node_mixer: Vec<u32>) -> Self {
        let makespan = node_cycle.iter().copied().max().unwrap_or(0);
        Schedule { mixers, node_cycle, node_mixer, makespan }
    }

    /// Raw per-node assignments `(cycle, mixer)` in arena order — the
    /// inverse of [`Schedule::from_parts`].
    pub fn assignments(&self) -> Vec<(u32, u32)> {
        self.node_cycle.iter().copied().zip(self.node_mixer.iter().copied()).collect()
    }

    /// Number of mixers the schedule was computed for (`Mc`).
    pub fn mixer_count(&self) -> usize {
        self.mixers
    }

    /// Completion time `Tc` in time-cycles.
    pub fn makespan(&self) -> u32 {
        self.makespan
    }

    /// Number of scheduled vertices.
    pub fn len(&self) -> usize {
        self.node_cycle.len()
    }

    /// Whether the schedule is empty.
    pub fn is_empty(&self) -> bool {
        self.node_cycle.is_empty()
    }

    /// The 1-based cycle in which vertex `id` executes.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the scheduled graph.
    pub fn cycle_of(&self, id: NodeId) -> u32 {
        self.node_cycle[id.index()]
    }

    /// The mixer executing vertex `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is outside the scheduled graph.
    pub fn mixer_of(&self, id: NodeId) -> MixerId {
        MixerId(self.node_mixer[id.index()] as usize)
    }

    /// The vertices of every cycle, bucketed in one pass: entry `t` lists
    /// the vertices executed in cycle `t`, ordered by mixer index, for
    /// `t` in `1..=makespan` (entry 0 holds unscheduled vertices, so it is
    /// empty for a valid schedule).
    pub fn by_cycle(&self) -> Vec<Vec<NodeId>> {
        let mut cycles = vec![Vec::new(); self.makespan as usize + 1];
        for (i, &cycle) in self.node_cycle.iter().enumerate() {
            cycles[cycle as usize].push(NodeId::new(i as u32));
        }
        for nodes in &mut cycles {
            nodes.sort_by_key(|&node| self.node_mixer[node.index()]);
        }
        cycles
    }

    /// Cycles at which target droplets are emitted (one entry per component
    /// tree, in ascending order) — the droplet *emission sequence* of the
    /// streaming engine.
    pub fn emission_cycles(&self, graph: &MixGraph) -> Vec<u32> {
        let mut cycles: Vec<u32> =
            graph.roots().iter().map(|&r| self.node_cycle[r.index()]).collect();
        cycles.sort_unstable();
        cycles
    }

    /// Gaps between consecutive target emissions, in cycles — the streaming
    /// *cadence*. A demand-driven engine wants these small and steady; the
    /// repeated baseline emits in bursts of one pass-length each.
    pub fn emission_intervals(&self, graph: &MixGraph) -> Vec<u32> {
        let cycles = self.emission_cycles(graph);
        cycles.windows(2).map(|w| w[1] - w[0]).collect()
    }

    /// Cycle of the first emitted target pair (the engine's start-up
    /// latency), or 0 for an empty schedule.
    pub fn first_emission(&self, graph: &MixGraph) -> u32 {
        self.emission_cycles(graph).first().copied().unwrap_or(0)
    }

    /// Checks the schedule against `graph`: complete coverage, precedence,
    /// mixer capacity and conflict-freedom.
    ///
    /// # Errors
    ///
    /// Returns the first violated rule as a [`SchedError`].
    pub fn validate(&self, graph: &MixGraph) -> Result<(), SchedError> {
        if self.node_cycle.len() != graph.node_count() {
            return Err(SchedError::SizeMismatch {
                scheduled: self.node_cycle.len(),
                graph: graph.node_count(),
            });
        }
        let mut per_cycle: std::collections::HashMap<u32, Vec<u32>> =
            std::collections::HashMap::new();
        for (id, node) in graph.iter() {
            let cycle = self.node_cycle[id.index()];
            if cycle == 0 {
                return Err(SchedError::Unscheduled { node: id });
            }
            for op in node.operands() {
                if let Operand::Droplet(src) = op {
                    if self.node_cycle[src.index()] >= cycle {
                        return Err(SchedError::PrecedenceViolated { node: id, operand: src });
                    }
                }
            }
            per_cycle.entry(cycle).or_default().push(self.node_mixer[id.index()]);
        }
        for (&cycle, mixers) in &per_cycle {
            if mixers.len() > self.mixers {
                return Err(SchedError::MixerOverSubscribed { cycle });
            }
            let mut seen = vec![false; self.mixers];
            for &m in mixers {
                let m = m as usize;
                if m >= self.mixers || seen[m] {
                    return Err(SchedError::MixerConflict { cycle, mixer: m });
                }
                seen[m] = true;
            }
        }
        Ok(())
    }

    /// On-chip storage demand of this schedule (generalised Algorithm 3).
    pub fn storage(&self, graph: &MixGraph) -> StorageProfile {
        let _span = dmf_obs::span!("sched_storage");
        StorageProfile::compute(self, graph)
    }
}

#[cfg(test)]
mod tests {
    use crate::{srs_schedule, MixerId};
    use dmf_forest::{build_forest, ReusePolicy};
    use dmf_mixalgo::{MinMix, MixingAlgorithm};
    use dmf_ratio::TargetRatio;

    #[test]
    fn emission_metrics_cover_every_tree() {
        let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        let template = MinMix.build_template(&target).unwrap();
        let forest = build_forest(&template, &target, 20, ReusePolicy::AcrossTrees).unwrap();
        let schedule = srs_schedule(&forest, 3).unwrap();
        let cycles = schedule.emission_cycles(&forest);
        assert_eq!(cycles.len(), forest.tree_count());
        assert!(cycles.windows(2).all(|w| w[0] <= w[1]));
        assert_eq!(*cycles.last().unwrap(), schedule.makespan());
        let intervals = schedule.emission_intervals(&forest);
        assert_eq!(intervals.len(), cycles.len() - 1);
        assert_eq!(
            schedule.first_emission(&forest) + intervals.iter().sum::<u32>(),
            schedule.makespan()
        );
    }

    #[test]
    fn by_cycle_round_trips_assignments() {
        let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        let template = MinMix.build_template(&target).unwrap();
        let forest = build_forest(&template, &target, 20, ReusePolicy::AcrossTrees).unwrap();
        let schedule = srs_schedule(&forest, 3).unwrap();
        let cycles = schedule.by_cycle();
        assert!(cycles.iter().any(|nodes| nodes.len() == 3));
        assert_eq!(cycles.len(), schedule.makespan() as usize + 1);
        assert!(cycles[0].is_empty());
        let mut seen = 0;
        for (t, nodes) in cycles.iter().enumerate() {
            let mixers: Vec<MixerId> = nodes.iter().map(|&n| schedule.mixer_of(n)).collect();
            assert!(mixers.windows(2).all(|w| w[0] < w[1]), "cycle {t}: {mixers:?}");
            for &node in nodes {
                assert_eq!(schedule.cycle_of(node) as usize, t);
                seen += 1;
            }
        }
        assert_eq!(seen, forest.node_count());
    }
}
