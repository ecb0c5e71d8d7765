//! Base mixing-tree construction algorithms for DMF sample preparation.
//!
//! The DAC 2014 streaming engine is algorithm-agnostic: any procedure that
//! turns a [`TargetRatio`] into a *base mixing tree* can seed its mixing
//! forest. This crate provides the four algorithms the paper builds on:
//!
//! * [`MinMix`] (`MM`, Thies et al. 2008) — binary-expansion tree; each set
//!   bit `2^j` of component `a_i` becomes a leaf at depth `d - j`, merged
//!   deepest-first. Guaranteed depth `d` and `#leaves - 1` mix-splits.
//! * [`Rma`] (Roy et al. VLSID 2011) — top-down balanced halving of the
//!   ratio vector. Produces bushier trees with more waste droplets, which is
//!   precisely the property that makes it the best forest seed (paper §4).
//! * [`Mtcs`] (Kumar et al. DDECS 2013) — MinMix followed by common-subtree
//!   sharing: content-identical subtrees are built once and their spare
//!   droplet feeds the second parent, turning the tree into a DAG.
//! * [`Rsm`] (Hsieh et al. TCAD 2012) — reagent-saving mixing: common-
//!   subgraph sharing applied to the top-down partition tree.
//!
//! `RMA`, `MTCS` and `RSM` have no public reference implementations; they are
//! reimplemented here from their published descriptions (see `DESIGN.md` §5
//! for the fidelity argument). All four satisfy the contract checked by
//! [`MixGraph::validate`]: leaves are pure reagents, the root realises the
//! target, droplets are conserved.
//!
//! The crate also exposes the building blocks shared with the
//! mixing-forest constructor:
//!
//! * [`Template`] — a binary mix tree as a post-order arena whose
//!   contents are interned in a shared [`dmf_mixgraph::ClassTable`];
//! * [`WastePool`] — a multiset of spare droplets indexed by content
//!   class, with tree-boundary commit semantics;
//! * [`materialize`] / [`rebuild_tree`] — template-to-graph lowering with
//!   optional droplet reuse.
//!
//! # Examples
//!
//! ```
//! use dmf_mixalgo::{MinMix, MixingAlgorithm};
//! use dmf_ratio::TargetRatio;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The PCR master mix at accuracy d = 4 (paper Fig. 1).
//! let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9])?;
//! let tree = MinMix.build_graph(&target)?;
//! let stats = tree.stats();
//! assert_eq!(stats.mix_splits, 7);
//! assert_eq!(stats.input_total, 8);
//! assert_eq!(stats.waste, 6);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod capabilities;
mod dilution;
mod error;
mod minmix;
mod mtcs;
mod pool;
mod rebuild;
mod registry;
mod rma;
mod rsm;
mod template;

pub use capabilities::Capabilities;
pub use dilution::dilution_ratio;
pub use error::MixAlgoError;
pub use minmix::MinMix;
pub use mtcs::Mtcs;
pub use pool::WastePool;
pub use rebuild::{materialize, rebuild_tree};
pub use registry::{
    AlgorithmEntry, AlgorithmId, DuplicateAlgorithmError, MixingAlgorithmRegistry,
    UnknownAlgorithmError,
};
pub use rma::Rma;
pub use rsm::Rsm;
pub use template::Template;

use dmf_mixgraph::MixGraph;
use dmf_ratio::TargetRatio;

/// A base mixing-tree construction algorithm.
///
/// Implementations build a [`Template`] realising the target ratio;
/// [`MixingAlgorithm::build_graph`] lowers it to a validated single-tree
/// [`MixGraph`] (for [`Mtcs`]/[`Rsm`] a DAG with shared subgraphs).
pub trait MixingAlgorithm {
    /// Short identifier used in reports ("MM", "RMA", …).
    fn name(&self) -> &'static str;

    /// Capability flags matching the paper's Table 1 taxonomy.
    fn capabilities(&self) -> Capabilities;

    /// Builds the base mixing tree as a [`Template`].
    ///
    /// # Errors
    ///
    /// Returns [`MixAlgoError::PureTarget`] when the target is a single pure
    /// fluid (no mixing required) and propagates ratio arithmetic failures.
    fn build_template(&self, target: &TargetRatio) -> Result<Template, MixAlgoError>;

    /// Whether [`MixingAlgorithm::build_graph`] shares content-identical
    /// subgraphs (droplet reuse *within* the base graph).
    fn shares_subgraphs(&self) -> bool {
        false
    }

    /// Builds and validates the base mixing graph.
    ///
    /// # Errors
    ///
    /// Same conditions as [`MixingAlgorithm::build_template`], plus
    /// structural validation failures (which would indicate an algorithm
    /// bug).
    fn build_graph(&self, target: &TargetRatio) -> Result<MixGraph, MixAlgoError> {
        let _span = dmf_obs::span!("mixalgo_build");
        let template = self.build_template(target)?;
        materialize(&template, target, self.shares_subgraphs())
    }
}
