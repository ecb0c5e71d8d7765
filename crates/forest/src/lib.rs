//! Mixing-forest construction — the core contribution of the DAC 2014
//! paper (§4.1).
//!
//! A *mixing forest* `F` answers the MDST problem ("multiple droplets of a
//! single target"): given a base mixing tree `T1` of depth `d` and a demand
//! `D > 2`, it contains `⌈D/2⌉` component trees `T1 … T|F|`, each emitting
//! two target droplets. Every component tree after the first is a *rebuild*
//! of `T1` in which any subtree whose droplet content is already available
//! as an earlier tree's waste droplet collapses to a reuse edge — the brown
//! nodes of the paper's figures. For `D = p·2^d` every intermediate droplet
//! is consumed and the waste `W` drops to **zero**.
//!
//! The numbers of the paper's worked example (PCR master mix
//! `2:1:1:1:1:1:9`, `d = 4`) are reproduced exactly and locked in as unit
//! tests:
//!
//! | demand | `|F|` | `Tms` | `W` | `I` | `I[]` |
//! |--------|-------|-------|-----|-----|-------|
//! | 16 (Fig. 1) | 8 | 19 | 0 | 16 | `[2,1,1,1,1,1,9]` |
//! | 20 (Fig. 2) | 10 | 27 | 5 | 25 | `[3,2,2,2,2,2,12]` |
//!
//! # Examples
//!
//! ```
//! use dmf_forest::{build_forest, ReusePolicy};
//! use dmf_mixalgo::{MinMix, MixingAlgorithm};
//! use dmf_ratio::TargetRatio;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9])?;
//! let template = MinMix.build_template(&target)?;
//! let forest = build_forest(&template, &target, 16, ReusePolicy::AcrossTrees)?;
//! let stats = forest.stats();
//! assert_eq!(stats.trees, 8);
//! assert_eq!(stats.mix_splits, 19);
//! assert_eq!(stats.waste, 0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
mod error;
mod multi;
mod report;

pub use error::ForestError;
pub use multi::build_multi_target_forest;
pub use report::ForestReport;

use dmf_mixalgo::{rebuild_tree, Template, WastePool};
use dmf_mixgraph::{GraphBuilder, MixGraph};
use dmf_ratio::TargetRatio;
use std::sync::Arc;

/// When a component tree may consume another mix-split's spare droplet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ReusePolicy {
    /// Paper-faithful: a tree only consumes waste droplets of *earlier*
    /// component trees, so each tree is a literal (partial) copy of the
    /// base tree.
    #[default]
    AcrossTrees,
    /// Ablation: spare droplets become available immediately, enabling
    /// additional sharing *within* a component tree when the base tree
    /// contains content-identical subtrees. Never worse in `Tms`/`I`.
    Eager,
}

impl std::fmt::Display for ReusePolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReusePolicy::AcrossTrees => f.write_str("across-trees"),
            ReusePolicy::Eager => f.write_str("eager"),
        }
    }
}

/// Builds the mixing forest for `demand` target droplets of `target`, using
/// `template` as the base mixing tree `T1`.
///
/// The forest has `⌈demand/2⌉` component trees (each emits two targets); for
/// odd demands one droplet is surplus, reported by [`ForestReport`].
///
/// # Errors
///
/// Returns [`ForestError::ZeroDemand`] for `demand == 0`,
/// [`ForestError::PureTarget`] when `template` is a bare leaf, and
/// propagates structural failures (which would indicate a template that does
/// not realise `target`).
pub fn build_forest(
    template: &Template,
    target: &TargetRatio,
    demand: u64,
    policy: ReusePolicy,
) -> Result<MixGraph, ForestError> {
    let _span = dmf_obs::span!("forest_build");
    if demand == 0 {
        return Err(ForestError::ZeroDemand);
    }
    if template.is_leaf() {
        return Err(ForestError::PureTarget);
    }
    let trees = demand.div_ceil(2);
    let eager = policy == ReusePolicy::Eager;
    // Over the template's own class table every mix is a pair-memo hit:
    // the forest copies template classes and computes no mixture.
    let mut builder = GraphBuilder::with_table(Arc::clone(template.class_table()));
    let mut pool = WastePool::new();
    for _ in 0..trees {
        let root = rebuild_tree(template, &mut builder, &mut pool, eager)?;
        builder.finish_tree(root);
        if !eager {
            pool.commit();
        }
    }
    builder.finish(target).map_err(ForestError::Graph)
}

/// Convenience wrapper: builds the forest and its [`ForestReport`] in one
/// call.
///
/// # Errors
///
/// Same conditions as [`build_forest`].
pub fn build_forest_report(
    template: &Template,
    target: &TargetRatio,
    demand: u64,
    policy: ReusePolicy,
) -> Result<(MixGraph, ForestReport), ForestError> {
    let graph = build_forest(template, target, demand, policy)?;
    let report = ForestReport::new(&graph, demand);
    Ok((graph, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_mixalgo::{MinMix, MixingAlgorithm, Rma};

    fn pcr_d4() -> (Template, TargetRatio) {
        let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        let template = MinMix.build_template(&target).unwrap();
        (template, target)
    }

    #[test]
    fn fig1_demand_16_oracle() {
        let (template, target) = pcr_d4();
        let forest = build_forest(&template, &target, 16, ReusePolicy::AcrossTrees).unwrap();
        let s = forest.stats();
        assert_eq!(s.trees, 8, "|F|");
        assert_eq!(s.mix_splits, 19, "Tms");
        assert_eq!(s.waste, 0, "W");
        assert_eq!(s.input_total, 16, "I");
        assert_eq!(s.inputs, vec![2, 1, 1, 1, 1, 1, 9], "I[]");
        s.assert_conservation();
    }

    #[test]
    fn fig2_demand_20_oracle() {
        let (template, target) = pcr_d4();
        let forest = build_forest(&template, &target, 20, ReusePolicy::AcrossTrees).unwrap();
        let s = forest.stats();
        assert_eq!(s.trees, 10, "|F|");
        assert_eq!(s.mix_splits, 27, "Tms");
        assert_eq!(s.waste, 5, "W");
        assert_eq!(s.input_total, 25, "I");
        assert_eq!(s.inputs, vec![3, 2, 2, 2, 2, 2, 12], "I[]");
        s.assert_conservation();
    }

    #[test]
    fn demand_two_is_just_the_base_tree() {
        let (template, target) = pcr_d4();
        let forest = build_forest(&template, &target, 2, ReusePolicy::AcrossTrees).unwrap();
        let s = forest.stats();
        assert_eq!(s.trees, 1);
        assert_eq!(s.mix_splits, 7);
        assert_eq!(s.waste, 6);
        assert_eq!(s.input_total, 8);
    }

    #[test]
    fn full_cycle_demand_has_zero_waste_and_repeats() {
        let (template, target) = pcr_d4();
        // D = p * 2^d keeps W = 0 and scales Tms / I linearly (paper §4.1).
        let base = build_forest(&template, &target, 16, ReusePolicy::AcrossTrees).unwrap().stats();
        for p in 2..=4u64 {
            let s =
                build_forest(&template, &target, 16 * p, ReusePolicy::AcrossTrees).unwrap().stats();
            assert_eq!(s.waste, 0, "p={p}");
            assert_eq!(s.mix_splits, base.mix_splits * p as usize);
            assert_eq!(s.input_total, base.input_total * p);
        }
    }

    #[test]
    fn odd_demand_rounds_up_to_tree_pairs() {
        let (template, target) = pcr_d4();
        let (_, report) =
            build_forest_report(&template, &target, 5, ReusePolicy::AcrossTrees).unwrap();
        assert_eq!(report.trees, 3);
        assert_eq!(report.targets_emitted, 6);
        assert_eq!(report.surplus, 1);
    }

    #[test]
    fn zero_demand_rejected() {
        let (template, target) = pcr_d4();
        assert!(matches!(
            build_forest(&template, &target, 0, ReusePolicy::AcrossTrees),
            Err(ForestError::ZeroDemand)
        ));
    }

    #[test]
    fn rma_seeded_forest_is_valid_and_waste_free_at_full_cycle() {
        let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        let template = Rma.build_template(&target).unwrap();
        let forest = build_forest(&template, &target, 16, ReusePolicy::AcrossTrees).unwrap();
        let s = forest.stats();
        assert_eq!(s.waste, 0);
        assert_eq!(s.input_total, 16);
        s.assert_conservation();
    }

    #[test]
    fn eager_policy_never_does_worse() {
        for parts in [vec![3, 3, 2], vec![2, 1, 1, 1, 1, 1, 9], vec![5, 11]] {
            let target = TargetRatio::new(parts).unwrap();
            let template = MinMix.build_template(&target).unwrap();
            for demand in [4u64, 10, 16, 20] {
                let across = build_forest(&template, &target, demand, ReusePolicy::AcrossTrees)
                    .unwrap()
                    .stats();
                let eager =
                    build_forest(&template, &target, demand, ReusePolicy::Eager).unwrap().stats();
                assert!(eager.mix_splits <= across.mix_splits);
                assert!(eager.input_total <= across.input_total);
            }
        }
    }

    #[test]
    fn reuse_edges_cross_trees_under_paper_policy() {
        let (template, target) = pcr_d4();
        let forest = build_forest(&template, &target, 16, ReusePolicy::AcrossTrees).unwrap();
        let mut cross_tree_edges = 0;
        for (_, node) in forest.iter() {
            for op in node.operands() {
                if let dmf_mixgraph::Operand::Droplet(src) = op {
                    if forest.node(src).tree() != node.tree() {
                        cross_tree_edges += 1;
                    }
                }
            }
        }
        // T1 produces 6 waste droplets; all are reused downstream, plus the
        // later trees' own spares: every one of the 12 non-T1 reuse slots.
        assert!(cross_tree_edges >= 6, "got {cross_tree_edges}");
    }
}
