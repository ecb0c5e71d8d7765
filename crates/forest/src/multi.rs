use crate::{ForestError, ReusePolicy};
use dmf_mixalgo::{rebuild_tree, Template, WastePool};
use dmf_mixgraph::{GraphBuilder, MixGraph};
use dmf_ratio::TargetRatio;
use std::sync::Arc;

/// Builds a *multi-target* forest: one component tree (two droplets) per
/// entry of `targets`, with waste droplets shared across all of them.
///
/// This extends the paper's MDST engine toward the SDMT objective (one
/// droplet per target over multiple targets, Table 1): targets over the
/// same fluid set frequently share intermediate mixtures — most of a PCR
/// dilution series, for example — and the shared pool turns those overlaps
/// into reuse edges exactly like the single-target forest does.
///
/// Targets are processed in the given order. With
/// [`ReusePolicy::AcrossTrees`] a tree only consumes earlier trees' waste
/// (paper-faithful); [`ReusePolicy::Eager`] also shares within a tree.
///
/// # Errors
///
/// Returns [`ForestError::ZeroDemand`] for an empty target list,
/// [`ForestError::PureTarget`] if any template is a bare leaf, and
/// propagates structural failures.
///
/// # Examples
///
/// ```
/// use dmf_forest::{build_multi_target_forest, ReusePolicy};
/// use dmf_mixalgo::{MinMix, MixingAlgorithm};
/// use dmf_ratio::TargetRatio;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // Two related 3-fluid targets.
/// let a = TargetRatio::new(vec![2, 1, 1])?;
/// let b = TargetRatio::new(vec![1, 2, 1])?;
/// let pairs = vec![
///     (MinMix.build_template(&a)?, a),
///     (MinMix.build_template(&b)?, b),
/// ];
/// let forest = build_multi_target_forest(&pairs, ReusePolicy::AcrossTrees)?;
/// assert_eq!(forest.tree_count(), 2);
/// # Ok(())
/// # }
/// ```
pub fn build_multi_target_forest(
    targets: &[(Template, TargetRatio)],
    policy: ReusePolicy,
) -> Result<MixGraph, ForestError> {
    if targets.is_empty() {
        return Err(ForestError::ZeroDemand);
    }
    if targets.iter().any(|(template, _)| template.is_leaf()) {
        return Err(ForestError::PureTarget);
    }
    // One class table for all templates, so reuse across targets still
    // matches droplets by content.
    let templates = Template::intern_together(targets.iter().map(|(template, _)| template))?;
    let eager = policy == ReusePolicy::Eager;
    let mut builder = GraphBuilder::with_table(Arc::clone(templates[0].class_table()));
    let mut pool = WastePool::new();
    for template in &templates {
        let root = rebuild_tree(template, &mut builder, &mut pool, eager)?;
        builder.finish_tree(root);
        if !eager {
            pool.commit();
        }
    }
    builder.finish_multi(targets.iter().map(|(_, t)| t)).map_err(ForestError::Graph)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_mixalgo::{MinMix, MixingAlgorithm};

    fn pair(parts: Vec<u64>) -> (Template, TargetRatio) {
        let target = TargetRatio::new(parts).unwrap();
        (MinMix.build_template(&target).unwrap(), target)
    }

    #[test]
    fn shares_waste_across_related_targets() {
        // A PCR-like series: all targets share the x1/x2 backbone.
        let pairs = vec![pair(vec![2, 1, 1, 4]), pair(vec![1, 2, 1, 4]), pair(vec![1, 1, 2, 4])];
        let forest = build_multi_target_forest(&pairs, ReusePolicy::AcrossTrees).unwrap();
        forest.validate().unwrap();
        let shared = forest.stats();
        let separate: u64 = pairs.iter().map(|(t, _)| t.leaf_counts().iter().sum::<u64>()).sum();
        assert!(shared.input_total <= separate);
        shared.assert_conservation();
        assert_eq!(forest.targets().len(), 3);
    }

    #[test]
    fn identical_targets_degenerate_to_mdst() {
        // Three copies of one target = MDST with D = 6.
        let (template, target) = pair(vec![2, 1, 1, 1, 1, 1, 9]);
        let pairs = vec![
            (template.clone(), target.clone()),
            (template.clone(), target.clone()),
            (template.clone(), target.clone()),
        ];
        let multi = build_multi_target_forest(&pairs, ReusePolicy::AcrossTrees).unwrap();
        let mdst = crate::build_forest(&template, &target, 6, ReusePolicy::AcrossTrees).unwrap();
        assert_eq!(multi.stats().mix_splits, mdst.stats().mix_splits);
        assert_eq!(multi.stats().input_total, mdst.stats().input_total);
    }

    #[test]
    fn empty_target_list_is_rejected() {
        assert!(matches!(
            build_multi_target_forest(&[], ReusePolicy::AcrossTrees),
            Err(ForestError::ZeroDemand)
        ));
    }

    #[test]
    fn each_root_realises_its_own_target() {
        let pairs = vec![pair(vec![3, 1]), pair(vec![1, 3]), pair(vec![1, 1])];
        let forest = build_multi_target_forest(&pairs, ReusePolicy::Eager).unwrap();
        for (i, (_, target)) in pairs.iter().enumerate() {
            let root = forest.roots()[i];
            assert_eq!(forest.mixture(root), &target.to_mixture());
        }
    }
}
