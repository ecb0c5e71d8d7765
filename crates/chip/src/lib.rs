//! Digital-microfluidic biochip model: electrode grid, on-chip modules,
//! layouts, droplet-transport costs and resource placement.
//!
//! The DAC 2014 paper validates its streaming engine on a simulated PCR
//! chip (Fig. 5) with seven fluid reservoirs, three 2×2 mixers, five storage
//! cells and two waste reservoirs, where the relative positions of modules
//! are optimised for total droplet-transportation cost (measured in the
//! number of electrodes a droplet traverses). This crate provides that
//! substrate:
//!
//! * [`ChipSpec`] — a rectangular electrode array plus a set of placed
//!   [`Module`]s, with geometric validation (bounds, overlap, reachability);
//! * [`CostMatrix`] — module-to-mixer transport costs;
//!   [`CostMatrix::fig5_pcr`] encodes the matrix published in the paper;
//! * [`Placer`] — a greedy + simulated-annealing placement optimiser that
//!   reproduces the paper's "relative positions of reservoirs and mixers
//!   are optimized considering the total droplet-transportation cost"
//!   design step;
//! * [`presets::pcr_chip`] — a ready-made chip with the Fig. 5 resource
//!   inventory, used by the examples and the end-to-end simulator.
//!
//! # Examples
//!
//! ```
//! use dmf_chip::presets::pcr_chip;
//!
//! let chip = pcr_chip();
//! assert_eq!(chip.mixers().count(), 3);
//! assert_eq!(chip.reservoirs().count(), 7);
//! assert_eq!(chip.storage_cells().count(), 5);
//! chip.validate().expect("preset chip is well-formed");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod error;
mod geom;
mod module;
mod place;
pub mod presets;
mod spec;
mod svg;

pub use cost::CostMatrix;
pub use error::ChipError;
pub use geom::{CellIndex, Coord, Rect};
pub use module::{Module, ModuleId, ModuleKind};
pub use place::{FlowMatrix, PlacementConfig, PlacementContext, PlacementRequest, Placer, WearMap};
pub use spec::ChipSpec;
