use crate::{Capabilities, MixAlgoError, MixingAlgorithm, Template};
use dmf_mixgraph::{GraphBuilder, Operand};
use dmf_ratio::{FluidId, RatioError, TargetRatio};

/// Builds the two-fluid dilution target `k : 2^d - k` (sample at
/// concentration factor `k / 2^d` in buffer).
///
/// Dilution is the `N = 2` special case of mixture preparation (paper
/// §2.1); feeding the returned ratio to any [`crate::MixingAlgorithm`]
/// yields the classic bit-scanning dilution tree, and feeding it to the
/// streaming engine reproduces the dilution-engine use case of
/// Roy et al. (IET-CDT 2013) as a special case of MDST.
///
/// # Errors
///
/// Returns [`RatioError::AllZero`] when `k == 0`,
/// [`RatioError::SumNotPowerOfTwo`]-style failures never occur (the sum is
/// `2^d` by construction) but `k > 2^d` is rejected as
/// [`RatioError::InvalidWeight`].
///
/// # Examples
///
/// ```
/// use dmf_mixalgo::{dilution_ratio, MinMix, MixingAlgorithm};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // 5/16 sample in buffer.
/// let target = dilution_ratio(5, 4)?;
/// assert_eq!(target.parts(), &[5, 11]);
/// let tree = MinMix.build_graph(&target)?;
/// // Bit-scan: popcount(5) + popcount(11) - 1 = 2 + 3 - 1 mixes.
/// assert_eq!(tree.stats().mix_splits, 4);
/// # Ok(())
/// # }
/// ```
pub fn dilution_ratio(k: u64, accuracy: u32) -> Result<TargetRatio, RatioError> {
    if accuracy >= 63 {
        return Err(RatioError::AccuracyTooLarge { accuracy });
    }
    let total = 1u64 << accuracy;
    if k > total {
        return Err(RatioError::InvalidWeight { index: 0 });
    }
    TargetRatio::new(vec![k, total - k])
}

/// Index convention for two-fluid dilution targets `[sample, buffer]`.
const SAMPLE: usize = 0;
const BUFFER: usize = 1;

fn dilution_parts(target: &TargetRatio) -> Result<(u64, u32), MixAlgoError> {
    let active = target.active_fluid_count();
    if active <= 1 {
        return Err(MixAlgoError::PureTarget);
    }
    if target.fluid_count() != 2 || active != 2 {
        return Err(MixAlgoError::NotADilution { active });
    }
    let reduced = target.reduced();
    Ok((reduced.parts()[SAMPLE], reduced.accuracy()))
}

/// The d-step binary-scan dilution chain (Thies et al. 2008): start from
/// pure buffer and fold in one pure droplet per bit of the (reduced) sample
/// CF numerator, LSB first. Exactly `d` mix-splits, `d + 1` input droplets.
///
/// # Examples
///
/// ```
/// use dmf_mixalgo::{dilution_ratio, BitScan, MixingAlgorithm};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let target = dilution_ratio(5, 4)?; // CF 5/16
/// let tree = BitScan.build_graph(&target)?;
/// assert_eq!(tree.stats().mix_splits, 4); // d mixes
/// assert_eq!(tree.stats().input_total, 5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BitScan;

impl MixingAlgorithm for BitScan {
    fn name(&self) -> &'static str {
        "BS"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            sdst_dilution: true,
            sdst_mixing: false,
            mdst_dilution: false,
            mdst_mixing: false,
            sdmt_dilution: false,
            sdmt_mixing: false,
        }
    }

    fn build_template(&self, target: &TargetRatio) -> Result<Template, MixAlgoError> {
        let (k, d) = dilution_parts(target)?;
        // v_0 = pure buffer; v_{j+1} = (v_j + pure(bit_j ? sample : buffer)) / 2.
        // After d steps the sample CF is Σ bit_j 2^j / 2^d = k / 2^d.
        let mut builder = GraphBuilder::new(2);
        let mut chain = Operand::Input(FluidId(BUFFER));
        for j in 0..d {
            let fluid = if (k >> j) & 1 == 1 { SAMPLE } else { BUFFER };
            chain = Operand::Droplet(builder.mix(chain, Operand::Input(FluidId(fluid)))?);
        }
        Template::new(builder, chain)
    }
}

/// Dilution by binary search of the CF interval — `DMRW`
/// (Roy et al., IEEE TCAD 2010).
///
/// Maintains the invariant `lo/2^d < k/2^d < hi/2^d` with droplets of both
/// boundary CFs on hand; each step produces the midpoint by mixing the two
/// boundaries and halves the interval toward the target. Boundary droplets
/// recur across steps, so the algorithm shares subgraphs
/// ([`MixingAlgorithm::shares_subgraphs`]) and typically beats the plain
/// [`BitScan`] chain on reactant for CFs whose binary expansion alternates.
///
/// # Examples
///
/// ```
/// use dmf_mixalgo::{dilution_ratio, Dmrw, MixingAlgorithm};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let target = dilution_ratio(5, 4)?;
/// let graph = Dmrw.build_graph(&target)?;
/// graph.stats().assert_conservation();
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Dmrw;

impl MixingAlgorithm for Dmrw {
    fn name(&self) -> &'static str {
        "DMRW"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            sdst_dilution: true,
            sdst_mixing: false,
            mdst_dilution: false,
            mdst_mixing: false,
            sdmt_dilution: false,
            sdmt_mixing: false,
        }
    }

    fn shares_subgraphs(&self) -> bool {
        true
    }

    fn build_template(&self, target: &TargetRatio) -> Result<Template, MixAlgoError> {
        let (k, d) = dilution_parts(target)?;
        // The interval-bisection template re-derives each boundary from the
        // top, so its size grows roughly like Fibonacci in d (the sharing
        // that keeps the *graph* small only happens at materialisation).
        // Cap the accuracy to keep template construction tractable.
        if d > DMRW_MAX_ACCURACY {
            return Err(MixAlgoError::Ratio(dmf_ratio::RatioError::AccuracyTooLarge {
                accuracy: d,
            }));
        }
        let total = 1u64 << d;
        let mut builder = GraphBuilder::new(2);
        let root = build_interval(k, 0, total, d, &mut builder)?;
        Template::new(builder, root)
    }
}

/// Largest (reduced) accuracy level [`Dmrw`] accepts; beyond this the
/// bisection template would blow up exponentially before sharing applies.
pub const DMRW_MAX_ACCURACY: u32 = 24;

/// Recursive DMRW template: the droplet at `k/2^d` is the mix of the
/// current interval boundaries; boundaries are themselves interval
/// midpoints (or pure fluids at 0 and 2^d).
fn build_interval(
    k: u64,
    lo: u64,
    hi: u64,
    d: u32,
    builder: &mut GraphBuilder,
) -> Result<Operand, MixAlgoError> {
    if k == 0 {
        return Ok(Operand::Input(FluidId(BUFFER)));
    }
    if k == 1u64 << d {
        return Ok(Operand::Input(FluidId(SAMPLE)));
    }
    let mid = (lo + hi) / 2;
    if k == mid {
        let left = boundary(lo, d, builder)?;
        let right = boundary(hi, d, builder)?;
        return Ok(Operand::Droplet(builder.mix(left, right)?));
    }
    if k < mid {
        build_interval(k, lo, mid, d, builder)
    } else {
        build_interval(k, mid, hi, d, builder)
    }
}

/// A boundary droplet is either pure or the midpoint of the dyadic
/// interval that generated it; rebuild it from the top-level search.
fn boundary(value: u64, d: u32, builder: &mut GraphBuilder) -> Result<Operand, MixAlgoError> {
    if value == 0 {
        return Ok(Operand::Input(FluidId(BUFFER)));
    }
    if value == 1u64 << d {
        return Ok(Operand::Input(FluidId(SAMPLE)));
    }
    build_interval(value, 0, 1u64 << d, d, builder)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MinMix;

    #[test]
    fn builds_sample_buffer_pairs() {
        let t = dilution_ratio(3, 3).unwrap();
        assert_eq!(t.parts(), &[3, 5]);
        assert!(t.is_dilution());
    }

    #[test]
    fn rejects_out_of_range_cf() {
        assert!(dilution_ratio(17, 4).is_err());
        // k = 0 is pure buffer: a valid ratio, but not mixable.
        let pure_buffer = dilution_ratio(0, 4).unwrap();
        assert!(MinMix.build_template(&pure_buffer).is_err());
    }

    #[test]
    fn full_concentration_is_pure_and_unmixable() {
        let t = dilution_ratio(16, 4).unwrap();
        assert!(MinMix.build_template(&t).is_err());
    }

    #[test]
    fn dilution_trees_have_bit_scan_size() {
        for (k, d) in [(1u64, 4u32), (5, 4), (7, 3), (9, 5), (21, 6)] {
            let t = dilution_ratio(k, d).unwrap();
            let g = MinMix.build_graph(&t).unwrap();
            let leaves = (k.count_ones() + ((1u64 << d) - k).count_ones()) as usize;
            assert_eq!(g.stats().mix_splits, leaves - 1);
        }
    }

    #[test]
    fn bitscan_realises_every_cf() {
        for d in 2..=6u32 {
            for k in 1..(1u64 << d) {
                let target = dilution_ratio(k, d).unwrap();
                let graph = BitScan.build_graph(&target).unwrap();
                graph.validate().unwrap();
                let reduced = target.reduced();
                assert_eq!(graph.stats().mix_splits as u32, reduced.accuracy(), "k={k} d={d}");
            }
        }
    }

    #[test]
    fn dmrw_realises_every_cf() {
        for d in 2..=6u32 {
            for k in 1..(1u64 << d) {
                let target = dilution_ratio(k, d).unwrap();
                let graph = Dmrw.build_graph(&target).unwrap();
                graph.validate().unwrap();
                graph.stats().assert_conservation();
            }
        }
    }

    #[test]
    fn dmrw_sharing_saves_reagent_on_alternating_cfs() {
        // 5/16 = 0101b alternates, so boundary droplets recur.
        let target = dilution_ratio(5, 4).unwrap();
        let dmrw = Dmrw.build_graph(&target).unwrap().stats();
        let chain = BitScan.build_graph(&target).unwrap().stats();
        assert!(dmrw.input_total <= chain.input_total);
    }

    #[test]
    fn dmrw_caps_accuracy_to_stay_tractable() {
        // 1 : 2^30 - 1 is a valid dilution target but its bisection
        // template would be astronomically large.
        let target = dilution_ratio(1, 30).unwrap();
        assert!(matches!(
            Dmrw.build_template(&target),
            Err(MixAlgoError::Ratio(dmf_ratio::RatioError::AccuracyTooLarge { accuracy: 30 }))
        ));
        // BitScan has no such limit (its chain is linear in d).
        assert!(BitScan.build_template(&target).is_ok());
    }

    #[test]
    fn rejects_non_dilution_targets() {
        let target = TargetRatio::new(vec![1, 1, 2]).unwrap();
        assert!(matches!(
            BitScan.build_template(&target),
            Err(MixAlgoError::NotADilution { active: 3 })
        ));
        let pure = TargetRatio::new(vec![8, 0]).unwrap();
        assert!(matches!(BitScan.build_template(&pure), Err(MixAlgoError::PureTarget)));
    }

    #[test]
    fn reduced_cfs_shrink_the_chain() {
        // 8/16 reduces to 1/2: a single mix.
        let target = dilution_ratio(8, 4).unwrap();
        let graph = BitScan.build_graph(&target).unwrap();
        assert_eq!(graph.stats().mix_splits, 1);
    }
}
