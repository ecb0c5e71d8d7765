//! Mixing-forest rules (`CF001`–`CF006`).
//!
//! Everything here is re-derived from the raw node operands: the dyadic
//! (1:1)-mix arithmetic is re-implemented locally rather than calling
//! [`dmf_ratio::Mixture::mix`], and consumer lists come from scanning the
//! operands rather than from [`dmf_mixgraph::MixGraph::consumers`], so a bug
//! in the producer's accounting cannot hide from the checker.

use crate::{CheckReport, Location, RuleCode};
use dmf_mixgraph::{MixGraph, Operand};
use dmf_ratio::TargetRatio;

/// A CF vector re-derived by the checker: `parts[i] / 2^level`, kept in the
/// same canonical form as [`dmf_ratio::Mixture`] (no common factor of two).
#[derive(Debug, Clone, PartialEq, Eq)]
struct Vector {
    level: u32,
    parts: Vec<u64>,
}

impl Vector {
    fn pure(fluid: usize, fluid_count: usize) -> Option<Vector> {
        if fluid >= fluid_count {
            return None;
        }
        let mut parts = vec![0u64; fluid_count];
        parts[fluid] = 1;
        Some(Vector { level: 0, parts })
    }

    fn canonicalise(mut self) -> Vector {
        while self.level > 0 && self.parts.iter().all(|p| p % 2 == 0) {
            for p in &mut self.parts {
                *p /= 2;
            }
            self.level -= 1;
        }
        self
    }

    /// The checker's own (1:1)-mix: scale both operands to the common
    /// level, add component-wise, bump the level. `None` on overflow or a
    /// fluid-set mismatch.
    fn mix(&self, other: &Vector) -> Option<Vector> {
        if self.parts.len() != other.parts.len() {
            return None;
        }
        let common = self.level.max(other.level);
        if common + 1 >= 63 {
            return None;
        }
        let ls = common - self.level;
        let rs = common - other.level;
        let parts =
            self.parts.iter().zip(&other.parts).map(|(&a, &b)| (a << ls) + (b << rs)).collect();
        Some(Vector { level: common + 1, parts }.canonicalise())
    }

    fn render(&self) -> String {
        let cells: Vec<String> = self.parts.iter().map(u64::to_string).collect();
        format!("<{}>/{}", cells.join(":"), 1u64 << self.level)
    }
}

/// Independent recount of a forest's aggregate droplet bookkeeping, derived
/// purely from the node operands.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ForestCounts {
    /// Mix-split operations `Tms` (one per node).
    pub mix_splits: u64,
    /// Waste droplets `W`: unconsumed outputs of non-root nodes.
    pub waste: u64,
    /// Input droplets per fluid, `I[]`.
    pub inputs: Vec<u64>,
    /// Total input droplets `I`.
    pub input_total: u64,
    /// Component trees `|F|`.
    pub trees: u64,
}

/// Recounts `Tms`, `W`, `I[]`, `I` and `|F|` from the operand lists alone.
///
/// This is the checker's second implementation of the bookkeeping that
/// [`dmf_mixgraph::MixGraph::stats`] performs; the two must agree on any
/// valid graph, and plan-level rules (`PLN002`) compare producers against
/// this recount.
pub fn recount_forest(graph: &MixGraph) -> ForestCounts {
    let n = graph.node_count();
    let mut consumed = vec![0u64; n];
    let mut inputs = vec![0u64; graph.fluid_count()];
    for (_, node) in graph.iter() {
        for op in node.operands() {
            match op {
                Operand::Input(f) => {
                    if let Some(slot) = inputs.get_mut(f.0) {
                        *slot += 1;
                    }
                }
                Operand::Droplet(src) => {
                    if let Some(slot) = consumed.get_mut(src.index()) {
                        *slot += 1;
                    }
                }
            }
        }
    }
    let mut waste = 0u64;
    for (id, _) in graph.iter() {
        if !graph.is_root(id) {
            waste += 2u64.saturating_sub(consumed[id.index()]);
        }
    }
    let input_total = inputs.iter().sum();
    ForestCounts {
        mix_splits: n as u64,
        waste,
        inputs,
        input_total,
        trees: graph.tree_count() as u64,
    }
}

/// Checks a mixing forest against the target it claims to prepare and the
/// demand it was built for. Covers rules `CF001`–`CF006`.
pub fn check_forest(graph: &MixGraph, target: &TargetRatio, demand: u64) -> CheckReport {
    let mut report = CheckReport::new();
    let n = graph.node_count();
    let d = target.accuracy();
    let fluid_count = graph.fluid_count();

    // Re-derive every node's content bottom-up. The arena is in
    // construction order, so operands of a well-formed graph precede their
    // consumer; a forward (or self) reference is a conservation defect.
    let mut derived: Vec<Option<Vector>> = vec![None; n];
    let mut consumed = vec![0u32; n];
    for (id, node) in graph.iter() {
        let mut operand_vec = |op: Operand| -> Option<Vector> {
            match op {
                Operand::Input(f) => {
                    let v = Vector::pure(f.0, fluid_count);
                    if v.is_none() {
                        report.report(
                            RuleCode::Cf004,
                            Location::Node(id.index() as u32),
                            format!("operand references fluid x{} outside the fluid set", f.0 + 1),
                        );
                    }
                    v
                }
                Operand::Droplet(src) => {
                    if src.index() >= id.index() {
                        report.report(
                            RuleCode::Cf004,
                            Location::Node(id.index() as u32),
                            format!("operand {src} is not an earlier node (cycle or dangling ref)"),
                        );
                        return None;
                    }
                    consumed[src.index()] += 1;
                    derived[src.index()].clone()
                }
            }
        };
        let left = operand_vec(node.left());
        let right = operand_vec(node.right());
        if let (Some(left), Some(right)) = (left, right) {
            match left.mix(&right) {
                Some(mixed) => {
                    let stored = Vector {
                        level: node.mixture().level(),
                        parts: node.mixture().parts().to_vec(),
                    }
                    .canonicalise();
                    if mixed != stored {
                        report.report(
                            RuleCode::Cf001,
                            Location::Node(id.index() as u32),
                            format!(
                                "stored {} but operands mix to {}",
                                stored.render(),
                                mixed.render()
                            ),
                        );
                    }
                    if mixed.level > d {
                        report.report(
                            RuleCode::Cf002,
                            Location::Node(id.index() as u32),
                            format!("denominator 2^{} does not divide 2^{d}", mixed.level),
                        );
                    }
                    derived[id.index()] = Some(mixed);
                }
                None => report.report(
                    RuleCode::Cf002,
                    Location::Node(id.index() as u32),
                    "mix result overflows the dyadic level range".to_string(),
                ),
            }
        }
    }

    // Root/target agreement, re-deriving the target CF vector from the raw
    // ratio parts.
    let target_vec = Vector { level: d, parts: target.parts().to_vec() }.canonicalise();
    for &root in graph.roots() {
        if root.index() >= n {
            report.report(
                RuleCode::Cf004,
                Location::Artifact,
                format!("root {root} is outside the graph"),
            );
            continue;
        }
        if let Some(derived_root) = &derived[root.index()] {
            if *derived_root != target_vec {
                report.report(
                    RuleCode::Cf003,
                    Location::Node(root.index() as u32),
                    format!(
                        "root prepares {} but the target is {}",
                        derived_root.render(),
                        target_vec.render()
                    ),
                );
            }
        }
    }

    // Droplet conservation: each node's two outputs feed at most two
    // consumers; roots feed none (their droplets are emitted targets);
    // non-roots feed at least one (else the node is dead weight).
    let mut waste = 0u64;
    for (id, _) in graph.iter() {
        let uses = consumed[id.index()];
        let loc = Location::Node(id.index() as u32);
        if graph.is_root(id) {
            if uses != 0 {
                report.report(
                    RuleCode::Cf004,
                    loc,
                    format!("root droplets are targets but {uses} operand(s) consume them"),
                );
            }
        } else {
            if uses == 0 {
                report.report(RuleCode::Cf004, loc, "non-root node feeds no consumer");
            } else if uses > 2 {
                report.report(
                    RuleCode::Cf004,
                    loc,
                    format!("droplet pair consumed {uses} times (max 2)"),
                );
            }
            waste += u64::from(2u32.saturating_sub(uses));
        }
    }

    // Forest shape and the zero-waste theorem (§4.1).
    let expected_trees = demand.div_ceil(2);
    if graph.tree_count() as u64 != expected_trees {
        report.report(
            RuleCode::Cf006,
            Location::Artifact,
            format!(
                "demand {demand} needs ceil(D/2) = {expected_trees} trees, found {}",
                graph.tree_count()
            ),
        );
    }
    let full_cycle = d < 63 && demand.is_multiple_of(1u64 << d);
    if full_cycle && waste > 0 {
        report.report(
            RuleCode::Cf005,
            Location::Artifact,
            format!("D = {demand} is a multiple of 2^{d} yet the forest wastes {waste} droplets"),
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_forest::{build_forest, ReusePolicy};
    use dmf_mixalgo::{MinMix, MixingAlgorithm};

    fn pcr_d4() -> TargetRatio {
        TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).expect("valid ratio")
    }

    fn forest(demand: u64) -> MixGraph {
        let target = pcr_d4();
        let template = MinMix.build_template(&target).expect("template");
        build_forest(&template, &target, demand, ReusePolicy::AcrossTrees).expect("forest")
    }

    #[test]
    fn good_forests_are_clean() {
        for demand in [2, 16, 20, 32] {
            let graph = forest(demand);
            let report = check_forest(&graph, &pcr_d4(), demand);
            assert!(report.is_empty(), "D={demand}: {report}");
        }
    }

    #[test]
    fn recount_agrees_with_producer_stats() {
        for demand in [2, 16, 20, 32] {
            let graph = forest(demand);
            let counts = recount_forest(&graph);
            let stats = graph.stats();
            assert_eq!(counts.mix_splits, stats.mix_splits as u64);
            assert_eq!(counts.waste, stats.waste as u64);
            assert_eq!(counts.input_total, stats.input_total);
            assert_eq!(counts.inputs, stats.inputs);
            assert_eq!(counts.trees, stats.trees as u64);
        }
    }

    #[test]
    fn zero_waste_holds_at_full_cycle_demand() {
        let graph = forest(16);
        assert_eq!(recount_forest(&graph).waste, 0);
        assert!(check_forest(&graph, &pcr_d4(), 16).is_empty());
    }

    #[test]
    fn wrong_demand_trips_cf006() {
        let graph = forest(20);
        let report = check_forest(&graph, &pcr_d4(), 18);
        assert!(report.has(RuleCode::Cf006), "{report}");
    }

    #[test]
    fn wrong_target_trips_cf003() {
        let graph = forest(4);
        let other = TargetRatio::new(vec![1, 1, 1, 1, 1, 1, 10]).expect("valid ratio");
        let report = check_forest(&graph, &other, 4);
        assert!(report.has(RuleCode::Cf003), "{report}");
    }
}
