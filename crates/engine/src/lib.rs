//! The demand-driven droplet-streaming engine — the DAC 2014 paper's
//! mixture-preparation engine for MDST ("multiple droplets of a single
//! target").
//!
//! Given a target ratio, a demand `D`, a base mixing algorithm and a
//! scheduler, [`StreamingEngine::plan`] produces a [`StreamPlan`]: one or
//! more *passes*, each a mixing forest scheduled onto `Mc` on-chip mixers,
//! with droplet-exact accounting of completion time `Tc`, storage units
//! `q`, reactant usage `I`/`I[]` and waste `W`. When an on-chip storage
//! budget `q'` is given, the engine splits the demand into the fewest
//! passes whose schedules each fit the budget — the multi-pass streaming
//! technique of the paper's §6 (Table 4).
//!
//! [`realize_pass`] then lowers a pass onto a concrete
//! [`dmf_chip::ChipSpec`]: reservoir dispenses, A*-routed droplet
//! transports, storage cell allocation, mix-splits, waste disposal and
//! target emission — a [`dmf_sim::ChipProgram`] that the strict simulator
//! executes while counting electrode actuations (the paper's Fig. 5
//! reliability comparison).
//!
//! # Examples
//!
//! ```
//! use dmf_engine::{EngineConfig, StreamingEngine};
//! use dmf_ratio::TargetRatio;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9])?;
//! let engine = StreamingEngine::new(EngineConfig::default());
//! let plan = engine.plan(&target, 20)?;
//! assert_eq!(plan.passes.len(), 1);
//! assert_eq!(plan.total_inputs, 25); // paper Fig. 2
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod cache;
mod check;
mod compare;
mod config;
mod error;
mod pipeline;
mod plan;
mod realize;
mod recovery;

pub use batch::{plan_batch, BatchOptions, PlanRequest};
pub use cache::{
    default_shard_count, CacheStats, PlanCache, PlanKey, DEFAULT_PLAN_CACHE_CAPACITY,
    MAX_PLAN_CACHE_SHARDS,
};
pub use check::static_check;
pub use compare::{improvement_over_baseline, repeated, Improvement};
pub use config::{EngineConfig, MixerBudget};
pub use error::EngineError;
pub use pipeline::{PlanContext, MAX_MIXERS};
pub use plan::{PassPlan, StreamPlan, StreamingEngine, MAX_DEMAND};
pub use realize::realize_pass;
pub use recovery::{RecoveryPlan, RecoveryPolicy};
