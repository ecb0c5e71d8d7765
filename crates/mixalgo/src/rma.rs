use crate::{Capabilities, MixAlgoError, MixingAlgorithm, Template};
use dmf_mixgraph::{GraphBuilder, Operand};
use dmf_ratio::{FluidId, TargetRatio};

/// The ratio-halving mixing algorithm of Roy et al. (VLSID 2011) — the
/// paper's `RMA` baseline, reimplemented from its published description.
///
/// Works top-down: a node carrying the integer vector `a` with `Σa = 2^k`
/// is produced by mixing two children carrying vectors `b` and `c` with
/// `b + c = a` and `Σb = Σc = 2^{k-1}`. The partition is made at fluid
/// granularity — components are assigned whole to the left half in
/// descending order, and **at most one** component is split where the
/// halves meet. All-even vectors are reduced before splitting (their
/// content already exists one level down).
///
/// Compared to [`crate::MinMix`]'s popcount-optimal leaf placement this
/// yields equal or **more intermediate waste droplets** — the property the
/// DAC 2014 paper exploits: "RMA constructs a base mixing tree with a
/// larger number of waste droplets … an engine based on RMA is likely to
/// produce a stream of target droplets more efficiently" (§4).
///
/// # Examples
///
/// ```
/// use dmf_mixalgo::{MinMix, MixingAlgorithm, Rma};
/// use dmf_ratio::TargetRatio;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let target = TargetRatio::new(vec![9, 17, 26, 9, 195])?;
/// let rma = Rma.build_template(&target)?;
/// let mm = MinMix.build_template(&target)?;
/// assert!(rma.mix_count() >= mm.mix_count());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Rma;

impl MixingAlgorithm for Rma {
    fn name(&self) -> &'static str {
        "RMA"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::SDST_ONLY
    }

    fn build_template(&self, target: &TargetRatio) -> Result<Template, MixAlgoError> {
        if target.active_fluid_count() <= 1 {
            return Err(MixAlgoError::PureTarget);
        }
        let mut builder = GraphBuilder::new(target.fluid_count());
        let root = build(target.parts().to_vec(), target.accuracy(), &mut builder)?;
        Template::new(builder, root)
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
    // Reduce: an all-even vector denotes the same content one level down,
    // so recurse there instead of splitting into two identical halves
    // (which would waste a mix re-creating a droplet we already have).
    while level > 0 && vector.iter().all(|v| v % 2 == 0) {
        for v in &mut vector {
            *v /= 2;
        }
        level -= 1;
    }
    debug_assert!(level > 0, "multi-fluid vector implies level > 0");
    let (left, right) = halve(&vector);
    let lt = build(left, level - 1, builder)?;
    let rt = build(right, level - 1, builder)?;
    Ok(Operand::Droplet(builder.mix(lt, rt)?))
}

/// Splits `vector` into two vectors of equal sum. Components are assigned
/// whole to the left half in descending-value order (ties by index); the
/// component crossing the half-way mark is split; the remainder goes right.
fn halve(vector: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let half: u64 = vector.iter().sum::<u64>() / 2;
    let mut order: Vec<usize> = (0..vector.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(vector[i]), i));
    let mut left = vec![0u64; vector.len()];
    let mut acc = 0u64;
    for i in order {
        if acc >= half {
            break;
        }
        let take = vector[i].min(half - acc);
        left[i] = take;
        acc += take;
    }
    let right: Vec<u64> = vector.iter().zip(&left).map(|(&v, &l)| v - l).collect();
    (left, right)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{materialize, MinMix};

    #[test]
    fn halve_splits_at_most_one_component() {
        let v = [2u64, 1, 1, 1, 1, 1, 9];
        let (l, r) = halve(&v);
        assert_eq!(l.iter().sum::<u64>(), 8);
        assert_eq!(r.iter().sum::<u64>(), 8);
        let split_components =
            v.iter().zip(l.iter().zip(&r)).filter(|(_, (a, b))| **a > 0 && **b > 0).count();
        assert!(split_components <= 1);
        for (a, (b, c)) in v.iter().zip(l.iter().zip(&r)) {
            assert_eq!(*a, b + c);
        }
    }

    #[test]
    fn pcr_tree_is_valid() {
        let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        let t = Rma.build_template(&target).unwrap();
        let g = materialize(&t, &target, false).unwrap();
        let s = g.stats();
        s.assert_conservation();
        assert_eq!(s.depth, 4);
        // Never leaner than the popcount-optimal MinMix tree.
        let mm = MinMix.build_graph(&target).unwrap().stats();
        assert!(s.mix_splits >= mm.mix_splits);
    }

    #[test]
    fn splinkerette_tree_wastes_more_than_minmix() {
        // Ex.4: the halving must fragment components, so RMA pays extra
        // leaves and waste over MinMix — the property the paper relies on.
        let target = TargetRatio::new(vec![9, 17, 26, 9, 195]).unwrap();
        let rma = Rma.build_graph(&target).unwrap().stats();
        let mm = MinMix.build_graph(&target).unwrap().stats();
        assert!(rma.waste > mm.waste, "rma {} vs mm {}", rma.waste, mm.waste);
        assert!(rma.input_total > mm.input_total);
    }

    #[test]
    fn depth_never_exceeds_accuracy() {
        for parts in [
            vec![3, 5],
            vec![9, 17, 26, 9, 195],
            vec![57, 28, 6, 6, 6, 3, 150],
            vec![25, 5, 5, 5, 5, 13, 13, 25, 1, 159],
            vec![26, 21, 2, 2, 3, 3, 199],
        ] {
            let target = TargetRatio::new(parts).unwrap();
            let t = Rma.build_template(&target).unwrap();
            assert!(t.depth() <= target.accuracy());
            materialize(&t, &target, false).unwrap();
        }
    }

    #[test]
    fn rejects_pure_targets() {
        let target = TargetRatio::new(vec![0, 8]).unwrap();
        assert!(matches!(Rma.build_template(&target), Err(MixAlgoError::PureTarget)));
    }
}
