use crate::{MixGraph, Operand};
use std::fmt;

/// Aggregate figures of merit of a mixing tree or forest, matching the
/// paper's notation: `Tms` mix-splits, `W` waste droplets, `I[]`/`I` input
/// droplets, `|F|` component trees.
///
/// Droplet conservation ties these together: each mix consumes 2 droplets
/// and produces 2, so `I = targets + W` always holds
/// (`targets = 2 * trees`). [`GraphStats::assert_conservation`] checks this.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphStats {
    /// Total number of (1:1) mix-split operations, `Tms`.
    pub mix_splits: usize,
    /// Total number of waste droplets, `W`.
    pub waste: usize,
    /// Input droplets required per fluid, `I[]`.
    pub inputs: Vec<u64>,
    /// Total input droplets, `I`.
    pub input_total: u64,
    /// Number of component trees, `|F|` (each emits two target droplets).
    pub trees: usize,
    /// Structural depth of the graph (accuracy level `d` for a base tree).
    pub depth: u32,
}

impl GraphStats {
    pub(crate) fn collect(graph: &MixGraph) -> GraphStats {
        let mut inputs = vec![0u64; graph.fluid_count()];
        let mut waste = 0usize;
        for (id, node) in graph.iter() {
            for op in node.operands() {
                if let Operand::Input(f) = op {
                    // An unvalidated graph may name a fluid outside its set.
                    if let Some(count) = inputs.get_mut(f.0) {
                        *count += 1;
                    }
                }
            }
            waste += graph.waste_of(id);
        }
        GraphStats {
            mix_splits: graph.node_count(),
            waste,
            input_total: inputs.iter().sum(),
            inputs,
            trees: graph.tree_count(),
            depth: graph.depth(),
        }
    }

    /// Number of emitted target droplets (`2 |F|`).
    pub fn targets(&self) -> usize {
        self.trees * 2
    }

    /// Asserts the droplet-conservation identity `I = targets + W`.
    ///
    /// # Panics
    ///
    /// Panics when conservation is violated, which would indicate a
    /// construction bug.
    pub fn assert_conservation(&self) {
        assert_eq!(
            self.input_total as usize,
            self.targets() + self.waste,
            "droplet conservation violated: I = {} but targets + W = {} + {}",
            self.input_total,
            self.targets(),
            self.waste
        );
    }
}

impl fmt::Display for GraphStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "|F|={} Tms={} W={} I={} I[]=[{}]",
            self.trees,
            self.mix_splits,
            self.waste,
            self.input_total,
            self.inputs.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use crate::{GraphBuilder, Operand};
    use dmf_ratio::{FluidId, TargetRatio};

    #[test]
    fn stats_of_small_tree() {
        // 3:1 dilution: two mixes, three inputs, one waste (inner node's
        // second droplet), two targets.
        let target = TargetRatio::new(vec![3, 1]).unwrap();
        let mut b = GraphBuilder::new(2);
        let half = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1))).unwrap();
        let root = b.mix(Operand::Input(FluidId(0)), Operand::Droplet(half)).unwrap();
        b.finish_tree(root);
        let g = b.finish(&target).unwrap();
        let s = g.stats();
        assert_eq!(s.mix_splits, 2);
        assert_eq!(s.waste, 1);
        assert_eq!(s.inputs, vec![2, 1]);
        assert_eq!(s.input_total, 3);
        assert_eq!(s.trees, 1);
        assert_eq!(s.depth, 2);
        s.assert_conservation();
    }

    #[test]
    fn display_is_informative() {
        let target = TargetRatio::new(vec![1, 1]).unwrap();
        let mut b = GraphBuilder::new(2);
        let root = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1))).unwrap();
        b.finish_tree(root);
        let g = b.finish(&target).unwrap();
        let text = g.stats().to_string();
        assert!(text.contains("Tms=1"));
        assert!(text.contains("W=0"));
    }
}
