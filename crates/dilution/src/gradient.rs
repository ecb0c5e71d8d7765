use crate::engine::DilutionError;
use dmf_mixalgo::{dilution_ratio, rebuild_tree, MinMix, MixingAlgorithm, Template, WastePool};
use dmf_mixgraph::{GraphBuilder, MixGraph};
use dmf_ratio::TargetRatio;
use std::sync::Arc;

/// Result of a dilution-gradient run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GradientReport {
    /// The CF numerators realised (one droplet pair each).
    pub cf_numerators: Vec<u64>,
    /// Mix-splits of the shared gradient graph.
    pub mix_splits: u64,
    /// Input droplets of the shared gradient graph.
    pub inputs: u64,
    /// Waste droplets of the shared gradient graph.
    pub waste: u64,
    /// Input droplets if every CF were prepared independently.
    pub separate_inputs: u64,
}

/// Prepares one droplet pair for *each* of several dilution CFs, sharing
/// waste droplets across the targets through a single eager pool — the
/// SDMT objective (single droplet, multiple targets) of the multi-target
/// dilution literature ([5, 11, 23] in the paper's Table 1), built from
/// the same rebuild machinery as the MDST engine.
///
/// CFs are processed in the given order; a CF whose content was already
/// produced as someone's waste costs nothing beyond its final mix.
///
/// # Errors
///
/// Returns [`DilutionError::Ratio`] for out-of-range CFs and propagates
/// construction failures. Duplicate CFs are allowed.
///
/// # Examples
///
/// ```
/// use dmf_dilution::dilution_gradient;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // A 4-point gradient at d = 4.
/// let (_, report) = dilution_gradient(&[3, 5, 7, 9], 4)?;
/// assert!(report.inputs <= report.separate_inputs);
/// # Ok(())
/// # }
/// ```
pub fn dilution_gradient(
    cf_numerators: &[u64],
    accuracy: u32,
) -> Result<(MixGraph, GradientReport), DilutionError> {
    if cf_numerators.is_empty() {
        return Err(DilutionError::Ratio(dmf_ratio::RatioError::Empty));
    }
    let mut targets: Vec<TargetRatio> = Vec::with_capacity(cf_numerators.len());
    let mut templates = Vec::with_capacity(cf_numerators.len());
    let mut separate_inputs = 0u64;
    for &k in cf_numerators {
        let target = dilution_ratio(k, accuracy)?;
        let template = MinMix.build_template(&target)?;
        separate_inputs += template.leaf_counts().iter().sum::<u64>();
        targets.push(target);
        templates.push(template);
    }
    // One class table for every template, so reuse across the gradient's
    // targets matches droplets by content.
    let templates = Template::intern_together(&templates)?;
    let mut builder = GraphBuilder::with_table(Arc::clone(templates[0].class_table()));
    let mut pool = WastePool::new();
    for template in &templates {
        let root = rebuild_tree(template, &mut builder, &mut pool, true)?;
        builder.finish_tree(root);
    }
    let graph = builder
        .finish_multi(&targets)
        .map_err(|e| DilutionError::Algo(dmf_mixalgo::MixAlgoError::Graph(e)))?;
    let stats = graph.stats();
    let report = GradientReport {
        cf_numerators: cf_numerators.to_vec(),
        mix_splits: stats.mix_splits as u64,
        inputs: stats.input_total,
        waste: stats.waste as u64,
        separate_inputs,
    };
    Ok((graph, report))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gradient_shares_across_targets() {
        let (graph, report) = dilution_gradient(&[3, 5, 7, 9, 11, 13], 4).unwrap();
        graph.validate().unwrap();
        assert_eq!(graph.tree_count(), 6);
        assert!(
            report.inputs < report.separate_inputs,
            "{} vs {}",
            report.inputs,
            report.separate_inputs
        );
        assert_eq!(report.inputs, 2 * 6 + report.waste);
    }

    #[test]
    fn single_cf_gradient_equals_plain_tree() {
        let (graph, report) = dilution_gradient(&[5], 4).unwrap();
        assert_eq!(graph.tree_count(), 1);
        assert_eq!(report.inputs, report.separate_inputs);
    }

    #[test]
    fn duplicate_cfs_reuse_heavily() {
        let (_, twice) = dilution_gradient(&[5, 5], 4).unwrap();
        let (_, once) = dilution_gradient(&[5], 4).unwrap();
        // The second copy rebuilds from the first one's waste droplets.
        assert!(twice.inputs < 2 * once.inputs);
    }

    #[test]
    fn rejects_empty_and_invalid() {
        assert!(dilution_gradient(&[], 4).is_err());
        assert!(dilution_gradient(&[0], 4).is_err());
        assert!(dilution_gradient(&[99], 4).is_err());
    }

    #[test]
    fn targets_are_individually_correct() {
        let ks = [1u64, 6, 10, 15];
        let (graph, _) = dilution_gradient(&ks, 4).unwrap();
        for (i, &k) in ks.iter().enumerate() {
            let root = graph.roots()[i];
            let reduced = dilution_ratio(k, 4).unwrap().reduced();
            assert_eq!(graph.mixture(root).parts(), reduced.parts());
        }
    }
}
