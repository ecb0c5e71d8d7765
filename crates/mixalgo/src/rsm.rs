use crate::{Capabilities, MixAlgoError, MixingAlgorithm, Template};
use dmf_mixgraph::{GraphBuilder, Operand};
use dmf_ratio::{FluidId, TargetRatio};

/// Reagent-saving mixing in the spirit of Hsieh et al. (IEEE TCAD 2012) —
/// the paper's `RSM` baseline, reimplemented from its published description.
///
/// Builds a *balanced* top-down partition tree — every component of the
/// ratio vector is halved at every level, odd leftovers alternating sides —
/// and then shares content-identical subgraphs: the balanced split
/// deliberately creates many repeated sub-mixtures (especially for ratios
/// with several equal components), and each repeat consumes an existing
/// spare droplet instead of fresh reagent. That droplet-reuse is the
/// "reagent-saving" objective of the original algorithm.
///
/// # Examples
///
/// ```
/// use dmf_mixalgo::{MixingAlgorithm, Rsm};
/// use dmf_ratio::TargetRatio;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let target = TargetRatio::new(vec![5, 5, 5, 5, 12])?;
/// let graph = Rsm.build_graph(&target)?;
/// graph.stats().assert_conservation();
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rsm;

impl MixingAlgorithm for Rsm {
    fn name(&self) -> &'static str {
        "RSM"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::RSM
    }

    fn build_template(&self, target: &TargetRatio) -> Result<Template, MixAlgoError> {
        if target.active_fluid_count() <= 1 {
            return Err(MixAlgoError::PureTarget);
        }
        let mut builder = GraphBuilder::new(target.fluid_count());
        let root = build(target.parts().to_vec(), target.accuracy(), &mut builder)?;
        Template::new(builder, root)
    }

    fn shares_subgraphs(&self) -> bool {
        true
    }
}

fn build(
    mut vector: Vec<u64>,
    mut level: u32,
    builder: &mut GraphBuilder,
) -> Result<Operand, MixAlgoError> {
    let sole_active = {
        let mut active = vector.iter().enumerate().filter(|&(_, &v)| v > 0);
        match (active.next(), active.next()) {
            (Some((fluid, _)), None) => Some(fluid),
            _ => None,
        }
    };
    if let Some(fluid) = sole_active {
        return Ok(Operand::Input(FluidId(fluid)));
    }
    while level > 0 && vector.iter().all(|v| v % 2 == 0) {
        for v in &mut vector {
            *v /= 2;
        }
        level -= 1;
    }
    debug_assert!(level > 0, "multi-fluid vector implies level > 0");
    let (left, right) = balanced_halve(&vector);
    let lt = build(left, level - 1, builder)?;
    let rt = build(right, level - 1, builder)?;
    Ok(Operand::Droplet(builder.mix(lt, rt)?))
}

/// Halves every component, granting odd leftovers alternately to the left
/// and right half — the duplicate-maximising split that sharing then
/// exploits.
fn balanced_halve(vector: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let mut left = Vec::with_capacity(vector.len());
    let mut right = Vec::with_capacity(vector.len());
    let mut grant_left = true;
    for &v in vector {
        let mut l = v / 2;
        let mut r = v / 2;
        if v % 2 == 1 {
            if grant_left {
                l += 1;
            } else {
                r += 1;
            }
            grant_left = !grant_left;
        }
        left.push(l);
        right.push(r);
    }
    (left, right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materialize;

    #[test]
    fn sharing_saves_reagent_over_the_unshared_partition_tree() {
        for parts in [
            vec![5, 5, 5, 5, 12],
            vec![3, 3, 2],
            vec![26, 21, 2, 2, 3, 3, 199],
            vec![25, 5, 5, 5, 5, 13, 13, 25, 1, 159],
        ] {
            let target = TargetRatio::new(parts.clone()).unwrap();
            let template = Rsm.build_template(&target).unwrap();
            let shared = materialize(&template, &target, true).unwrap().stats();
            let plain = materialize(&template, &target, false).unwrap().stats();
            assert!(shared.input_total <= plain.input_total, "{parts:?}");
            assert!(shared.mix_splits <= plain.mix_splits, "{parts:?}");
            shared.assert_conservation();
        }
    }

    #[test]
    fn symmetric_ratio_shares_strictly() {
        // Four equal components create identical sub-mixtures on both
        // sides of every balanced split.
        let target = TargetRatio::new(vec![5, 5, 5, 5, 12]).unwrap();
        let template = Rsm.build_template(&target).unwrap();
        let shared = materialize(&template, &target, true).unwrap().stats();
        let plain = materialize(&template, &target, false).unwrap().stats();
        assert!(
            shared.input_total < plain.input_total,
            "shared {} vs plain {}",
            shared.input_total,
            plain.input_total
        );
    }

    #[test]
    fn balanced_halve_alternates_odd_grants() {
        let (l, r) = balanced_halve(&[3, 3, 3, 3]);
        assert_eq!(l.iter().sum::<u64>(), 6);
        assert_eq!(r.iter().sum::<u64>(), 6);
        assert_eq!(l, vec![2, 1, 2, 1]);
        assert_eq!(r, vec![1, 2, 1, 2]);
    }

    #[test]
    fn valid_on_all_table2_examples() {
        for parts in [
            vec![26, 21, 2, 2, 3, 3, 199],
            vec![128, 123, 5],
            vec![25, 5, 5, 5, 5, 13, 13, 25, 1, 159],
            vec![9, 17, 26, 9, 195],
            vec![57, 28, 6, 6, 6, 3, 150],
        ] {
            let target = TargetRatio::new(parts).unwrap();
            let graph = Rsm.build_graph(&target).unwrap();
            graph.validate().unwrap();
            graph.stats().assert_conservation();
        }
    }
}
