//! # dmfstream
//!
//! A from-scratch Rust reproduction of **"Demand-Driven Mixture Preparation
//! and Droplet Streaming using Digital Microfluidic Biochips"** (Roy, Kumar,
//! Chakrabarti, Bhattacharya, Chakrabarty — DAC 2014).
//!
//! Digital-microfluidic (DMF) biochips prepare fluid mixtures through
//! sequences of (1:1) mix-split operations. Classic sample-preparation
//! algorithms emit at most **two** droplets of the target mixture per pass;
//! protocols like PCR need a *stream* of them. This workspace implements the
//! paper's solution — the **mixing forest**, which feeds waste droplets of
//! earlier trees into later ones — together with every substrate it needs:
//!
//! | layer | crate | highlights |
//! |-------|-------|------------|
//! | ratios | [`ratio`] | dyadic CF vectors, `2^d` grid approximation |
//! | task graphs | [`mixgraph`] | arena mixing trees/forests, `Tms`/`W`/`I[]` stats |
//! | base algorithms | [`mixalgo`] | MinMix, RMA, MTCS, RSM; BitScan and DMRW for dilution |
//! | the contribution | [`forest`] | mixing-forest construction (paper §4.1) |
//! | scheduling | [`sched`] | OMS/Hu, MMS (Alg. 1), SRS (Alg. 2), storage counting (Alg. 3), Gantt charts |
//! | chip model | [`chip`] | electrode grids, modules, placement optimiser, Fig. 5 cost matrix |
//! | pin backends | [`pins`] | direct / row-column / broadcast pin assignment, co-activation constraints |
//! | routing | [`route`] | A* + space-time multi-droplet routing with fluidic constraints |
//! | simulation | [`sim`] | strict cycle-level executor, electrode-actuation accounting |
//! | the engine | [`engine`] | demand-driven multi-pass streaming under storage budgets |
//! | fault tolerance | [`fault`] | seeded fault injection, sensor checkpoints, demand-level recovery |
//! | workloads | [`workloads`] | five bioprotocol ratios, 6k-ratio synthetic corpus |
//!
//! # Quickstart
//!
//! ```
//! use dmfstream::engine::{EngineConfig, StreamingEngine};
//! use dmfstream::ratio::TargetRatio;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! // The PCR master mix at accuracy d = 4 (the paper's running example).
//! let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9])?;
//! let engine = StreamingEngine::new(EngineConfig::default());
//!
//! // Stream 20 droplets of the mixture.
//! let plan = engine.plan(&target, 20)?;
//! println!("{plan}");
//! assert_eq!(plan.total_cycles, 11); // paper Fig. 3
//! assert_eq!(plan.storage_peak, 5);
//! # Ok(())
//! # }
//! ```
//!
//! See `examples/` for end-to-end walkthroughs (chip placement, routing and
//! simulation included) and the `dmf-bench` crate for the binaries that
//! regenerate every table and figure of the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Observability: spans, counters, gauges, JSONL export ([`dmf_obs`]).
pub mod obs {
    pub use dmf_obs::*;
}

/// Exact concentration-factor arithmetic ([`dmf_ratio`]).
pub mod ratio {
    pub use dmf_ratio::*;
}

/// Mixing-tree / mixing-forest data structures ([`dmf_mixgraph`]).
pub mod mixgraph {
    pub use dmf_mixgraph::*;
}

/// Base mixing algorithms ([`dmf_mixalgo`]).
pub mod mixalgo {
    pub use dmf_mixalgo::*;
}

/// Mixing-forest construction ([`dmf_forest`]).
pub mod forest {
    pub use dmf_forest::*;
}

/// Forest schedulers and storage accounting ([`dmf_sched`]).
pub mod sched {
    pub use dmf_sched::*;
}

/// Biochip model, layout and placement ([`dmf_chip`]).
pub mod chip {
    pub use dmf_chip::*;
}

/// Pin-constrained chip backends and co-activation constraints
/// ([`dmf_pins`]).
pub mod pins {
    pub use dmf_pins::*;
}

/// Droplet routing ([`dmf_route`]).
pub mod route {
    pub use dmf_route::*;
}

/// Cycle-level chip simulation ([`dmf_sim`]).
pub mod sim {
    pub use dmf_sim::*;
}

/// The demand-driven streaming engine ([`dmf_engine`]).
pub mod engine {
    pub use dmf_engine::*;
}

/// Fault injection and error recovery ([`dmf_fault`]).
pub mod fault {
    pub use dmf_fault::*;
}

/// Evaluation workloads ([`dmf_workloads`]).
pub mod workloads {
    pub use dmf_workloads::*;
}

/// Independent static verification of synthesis artifacts ([`dmf_check`]).
pub mod check {
    pub use dmf_check::*;
}

/// Concurrent planning service over line-delimited JSON ([`dmf_serve`]).
pub mod serve {
    pub use dmf_serve::*;
}
