use crate::{Capabilities, MixAlgoError, MixingAlgorithm, Template};
use dmf_mixgraph::{GraphBuilder, Operand};
use dmf_ratio::{FluidId, TargetRatio};

/// The Min-Mix algorithm of Thies et al. (*Natural Computing*, 2008) — the
/// paper's `MM` baseline.
///
/// Each set bit `2^j` in component `a_i` of the target contributes one pure
/// droplet of fluid `i` as a leaf at depth `d - j` of the mixing tree; the
/// Kraft equality `Σ 2^{-depth} = 1` (a consequence of `Σ a_i = 2^d`)
/// guarantees that greedily pairing the deepest pending subtrees yields a
/// binary tree of depth exactly `d` whose root realises the target.
///
/// The resulting tree uses `#leaves - 1` mix-splits, where `#leaves` is the
/// total popcount of the ratio components.
///
/// # Examples
///
/// ```
/// use dmf_mixalgo::{MinMix, MixingAlgorithm};
/// use dmf_ratio::TargetRatio;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9])?;
/// let template = MinMix.build_template(&target)?;
/// assert_eq!(template.depth(), 4);
/// assert_eq!(template.mix_count(), 7); // Fig. 1, T1
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MinMix;

impl MixingAlgorithm for MinMix {
    fn name(&self) -> &'static str {
        "MM"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::SDST_ONLY
    }

    fn build_template(&self, target: &TargetRatio) -> Result<Template, MixAlgoError> {
        let fluid_count = target.fluid_count();
        let d = target.accuracy();
        if target.active_fluid_count() <= 1 {
            return Err(MixAlgoError::PureTarget);
        }
        // Bucket the leaves by depth: bit j of a_i puts a leaf of fluid i at
        // depth d - j. Leaves are inserted in ascending fluid order so the
        // construction is deterministic.
        let mut builder = GraphBuilder::new(fluid_count);
        let mut buckets: Vec<Vec<Operand>> = vec![Vec::new(); d as usize + 1];
        for (i, &a) in target.parts().iter().enumerate() {
            for j in 0..=d {
                if (a >> j) & 1 == 1 {
                    buckets[(d - j) as usize].push(Operand::Input(FluidId(i)));
                }
            }
        }
        // Merge deepest-first; the Kraft equality makes every bucket even
        // when its turn comes.
        for k in (1..=d as usize).rev() {
            let items = std::mem::take(&mut buckets[k]);
            debug_assert!(items.len().is_multiple_of(2), "Kraft parity violated at depth {k}");
            let mut it = items.into_iter();
            while let (Some(a), Some(b)) = (it.next(), it.next()) {
                buckets[k - 1].push(Operand::Droplet(builder.mix(a, b)?));
            }
        }
        debug_assert_eq!(buckets[0].len(), 1, "Kraft equality leaves exactly one root");
        let root = buckets[0].first().copied().ok_or(MixAlgoError::PureTarget)?;
        Template::new(builder, root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::materialize;

    #[test]
    fn pcr_d4_matches_fig1_base_tree() {
        let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        let g = MinMix.build_graph(&target).unwrap();
        let s = g.stats();
        assert_eq!(s.mix_splits, 7);
        assert_eq!(s.input_total, 8);
        assert_eq!(s.waste, 6);
        assert_eq!(s.depth, 4);
        // Per-fluid leaves: x7 appears twice (bits 0 and 3 of 9), others once.
        assert_eq!(s.inputs, vec![1, 1, 1, 1, 1, 1, 2]);
        s.assert_conservation();
    }

    #[test]
    fn simple_dilution_tree() {
        // 3:1 => leaves x1@1, x1@2, x2@2 => two mixes.
        let target = TargetRatio::new(vec![3, 1]).unwrap();
        let t = MinMix.build_template(&target).unwrap();
        assert_eq!(t.mix_count(), 2);
        assert_eq!(t.depth(), 2);
        assert_eq!(t.leaf_counts(), vec![2, 1]);
    }

    #[test]
    fn rejects_pure_targets() {
        let target = TargetRatio::new(vec![4, 0]).unwrap();
        assert!(matches!(MinMix.build_template(&target), Err(MixAlgoError::PureTarget)));
    }

    #[test]
    fn handles_unreduced_ratios() {
        // 2:2 (d = 2) reduces to the single mix 1:1.
        let target = TargetRatio::new(vec![2, 2]).unwrap();
        let g = MinMix.build_graph(&target).unwrap();
        assert_eq!(g.stats().mix_splits, 1);
    }

    #[test]
    fn depth_bound_holds_for_many_ratios() {
        // Every valid ratio must give a tree of depth <= d whose root
        // realises the target (validated inside materialize).
        for parts in [
            vec![1, 1, 2, 4, 8],
            vec![5, 11],
            vec![1, 1, 1, 1, 1, 1, 1, 9],
            vec![26, 21, 2, 2, 3, 3, 199],
            vec![128, 123, 5],
        ] {
            let target = TargetRatio::new(parts).unwrap();
            let t = MinMix.build_template(&target).unwrap();
            assert!(t.depth() <= target.accuracy());
            materialize(&t, &target, false).unwrap();
        }
    }
}
