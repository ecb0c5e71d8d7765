//! Mixing-tree and mixing-forest data structures for DMF sample preparation.
//!
//! A *mixing tree* (paper §2.1) is a binary task graph of (1:1) mix-split
//! operations whose leaves are pure-reagent input droplets and whose root is
//! the target mixture. A *mixing forest* (paper §4.1) generalises this to
//! several component trees whose waste droplets feed one another, so that a
//! stream of target droplets can be produced with minimal reactant usage.
//!
//! Both are represented by a single arena-backed DAG, [`MixGraph`]: every
//! vertex is a mix-split operation producing **two** identical unit droplets,
//! every operand is either a fresh reservoir input ([`Operand::Input`]) or a
//! droplet produced by another vertex ([`Operand::Droplet`]) — the latter
//! covers both ordinary tree edges and the cross-tree *waste-reuse* edges
//! that make the streaming engine efficient.
//!
//! Vertices name their content by a dense [`ClassId`] into a shared
//! [`ClassTable`] of the distinct mixtures in use; [`GraphBuilder::mix`]
//! interns each new content once, so graphs rebuilt from one template copy
//! class ids instead of recomputing CF vectors.
//!
//! The key quantities of the paper are all derivable here and exposed via
//! [`GraphStats`]: `Tms` (mix-split count), `W` (waste droplets), `I[]`/`I`
//! (per-fluid and total input droplets) and the target surplus.
//!
//! # Examples
//!
//! Build the two-fluid 1:1 mixture "by hand":
//!
//! ```
//! use dmf_mixgraph::{GraphBuilder, Operand};
//! use dmf_ratio::{FluidId, TargetRatio};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let target = TargetRatio::new(vec![1, 1])?;
//! let mut b = GraphBuilder::new(2);
//! let root = b.mix(Operand::Input(FluidId(0)), Operand::Input(FluidId(1)))?;
//! b.finish_tree(root);
//! let graph = b.finish(&target)?;
//! let stats = graph.stats();
//! assert_eq!(stats.mix_splits, 1);
//! assert_eq!(stats.input_total, 2);
//! assert_eq!(stats.waste, 0); // both root droplets are targets
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
mod builder;
mod class;
mod dot;
mod error;
mod error_model;
mod graph;
mod stats;

pub use builder::GraphBuilder;
pub use class::{ClassId, ClassTable};
pub use error::GraphError;
pub use error_model::CfInterval;
pub use graph::{MixGraph, MixNode, NodeId, Operand};
pub use stats::GraphStats;
