//! The planner: one [`PlanContext`] per `(target, demand)` request,
//! advanced by plain steps in a fixed order.
//!
//! 1. [`PlanContext::build_tree`] builds the base-algorithm template for
//!    the target and resolves the mixer budget (`Mc`, the MinMix `Mlb`
//!    under [`crate::MixerBudget::MmLowerBound`]). It must run first and
//!    is idempotent.
//! 2. [`PlanContext::split_passes`] splits the demand into the fewest
//!    passes whose schedules each fit the storage budget `q'` (the
//!    paper's §6 multi-pass streaming; one pass covers the whole demand
//!    when unconstrained). Per candidate pass it runs
//!    [`PlanContext::build_forest`], which expands the template into a
//!    mixing forest under the engine's reuse policy, and
//!    [`PlanContext::schedule`], which schedules that forest onto the
//!    mixer budget and derives its storage profile.
//! 3. [`PlanContext::into_plan`] folds the passes into a [`StreamPlan`]
//!    with droplet-exact aggregates.
//!
//! [`crate::StreamingEngine::plan`] runs exactly these steps. Each of the
//! four steps opens one `dmf-obs` span and bumps one counter, both named
//! `stage_build_tree`, `stage_split_passes`, `stage_build_forest` and
//! `stage_schedule`; the forest and schedule spans nest under
//! `stage_split_passes`. The names are stable because the layer
//! benchmark, served traces and the profiler key on them (see `DESIGN.md`
//! §12 and §17).

use crate::plan::check_demand;
use crate::{EngineConfig, EngineError, MixerBudget, PassPlan, StreamPlan};
use dmf_mixalgo::{MinMix, MixingAlgorithm, Template};
use dmf_mixgraph::MixGraph;
use dmf_ratio::TargetRatio;
use dmf_sched::mixer_lower_bound;
use std::collections::HashMap;

/// The planning state of one `(target, demand)` request: the base-tree
/// template and mixer budget once [`PlanContext::build_tree`] ran, then
/// the passes [`PlanContext::split_passes`] planned, consumed by
/// [`PlanContext::into_plan`].
#[derive(Debug)]
pub struct PlanContext<'a> {
    config: EngineConfig,
    target: &'a TargetRatio,
    demand: u64,
    template: Option<Template>,
    mixers: Option<usize>,
    passes: Vec<PassPlan>,
}

/// The largest fixed mixer budget the engine plans for. The schedulers
/// allocate per mixer up front, so an unchecked budget from one request
/// line could exhaust memory; the paper's exhibits use at most 7 mixers.
pub const MAX_MIXERS: usize = 1024;

/// Resolves the mixer budget for `target` under `config` (the `Mlb` of its
/// MinMix tree for [`MixerBudget::MmLowerBound`]).
///
/// A fixed budget above [`MAX_MIXERS`] is rejected as
/// [`EngineError::LimitExceeded`].
pub(crate) fn resolve_mixers(
    config: &EngineConfig,
    target: &TargetRatio,
) -> Result<usize, EngineError> {
    match config.mixers {
        MixerBudget::Fixed(m) if m > MAX_MIXERS => Err(EngineError::LimitExceeded {
            what: "mixer budget",
            requested: m as u64,
            limit: MAX_MIXERS as u64,
        }),
        MixerBudget::Fixed(m) => Ok(m),
        MixerBudget::MmLowerBound => {
            let mm = MinMix.build_graph(target)?;
            Ok(mixer_lower_bound(&mm))
        }
    }
}

/// Runs one planner step under a `dmf-obs` span named `name` (parented
/// under the caller's current span) and bumps the counter of that name.
fn step<T>(name: &'static str, body: impl FnOnce() -> T) -> T {
    let _span = dmf_obs::span!(name);
    let obs = dmf_obs::global();
    if obs.is_enabled() {
        obs.count(name, 1);
    }
    body()
}

/// What one [`PlanContext::split_passes`] run knows of its candidate
/// passes. A pass is a pure function of its demand within one context, so
/// the storage need of every built candidate is recorded and no candidate
/// is built twice for the scan. Only the plans of chosen passes are kept
/// (they repeat pass after pass); a fitting candidate that loses its scan
/// is dropped, so memory stays flat however many demands a loose budget
/// admits.
#[derive(Default)]
struct Candidates {
    needed: HashMap<u64, usize>,
    chosen: HashMap<u64, PassPlan>,
}

impl<'a> PlanContext<'a> {
    /// Opens a planning context for `demand` droplets of `target`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ZeroDemand`] for `demand == 0` and
    /// [`EngineError::LimitExceeded`] for a demand above
    /// [`crate::MAX_DEMAND`] — the same demand check as
    /// [`crate::StreamingEngine::preflight`].
    pub fn new(
        config: EngineConfig,
        target: &'a TargetRatio,
        demand: u64,
    ) -> Result<Self, EngineError> {
        check_demand(demand)?;
        Ok(PlanContext { config, target, demand, template: None, mixers: None, passes: Vec::new() })
    }

    /// The resolved mixer budget, once [`PlanContext::build_tree`] ran.
    pub fn mixers(&self) -> Option<usize> {
        self.mixers
    }

    fn ready_template(&self) -> Result<&Template, EngineError> {
        self.template.as_ref().ok_or_else(|| EngineError::Internal {
            what: "pipeline stage ran before build_tree".into(),
        })
    }

    fn ready_mixers(&self) -> Result<usize, EngineError> {
        self.mixers.ok_or_else(|| EngineError::Internal {
            what: "pipeline stage ran before build_tree".into(),
        })
    }

    /// Step 1 — builds the base-algorithm template and resolves the mixer
    /// budget. Idempotent.
    ///
    /// # Errors
    ///
    /// Propagates base-tree construction and mixer-bound failures.
    pub fn build_tree(&mut self) -> Result<(), EngineError> {
        step("stage_build_tree", || {
            if self.template.is_none() {
                let _span = dmf_obs::span!("mixalgo_build");
                self.template = Some(self.config.algorithm.build_template(self.target)?);
            }
            if self.mixers.is_none() {
                self.mixers = Some(resolve_mixers(&self.config, self.target)?);
            }
            Ok(())
        })
    }

    /// Expands the template into a mixing forest covering `demand`
    /// droplets under the engine's reuse policy.
    ///
    /// # Errors
    ///
    /// Fails before [`PlanContext::build_tree`] has run; propagates forest
    /// construction failures.
    pub fn build_forest(&self, demand: u64) -> Result<MixGraph, EngineError> {
        step("stage_build_forest", || {
            // Subgraph-sharing base algorithms (MTCS, RSM) reuse droplets
            // even within one tree; their forests must too, or the engine
            // would lose the sharing the repeated baseline enjoys.
            let reuse = if self.config.algorithm.shares_subgraphs() {
                dmf_forest::ReusePolicy::Eager
            } else {
                self.config.reuse
            };
            Ok(dmf_forest::build_forest(self.ready_template()?, self.target, demand, reuse)?)
        })
    }

    /// Schedules `forest` (built for `demand` droplets) onto the mixer
    /// budget and derives its storage profile, completing one
    /// [`PassPlan`].
    ///
    /// # Errors
    ///
    /// Fails before [`PlanContext::build_tree`] has run; propagates
    /// scheduling failures.
    pub fn schedule(&self, forest: MixGraph, demand: u64) -> Result<PassPlan, EngineError> {
        step("stage_schedule", || {
            let schedule = self.config.scheduler.run(&forest, self.ready_mixers()?)?;
            let storage = schedule.storage(&forest);
            Ok(PassPlan { demand, forest, schedule, storage })
        })
    }

    /// One pass of `demand` droplets: a forest, then its schedule.
    fn build_pass(&self, demand: u64) -> Result<PassPlan, EngineError> {
        let forest = self.build_forest(demand)?;
        self.schedule(forest, demand)
    }

    /// Step 2 — splits the demand into the fewest passes whose schedules
    /// each fit the storage budget `q'` (one pass covers everything when
    /// unconstrained), appending them to the context. Under a budget, each
    /// candidate pass demand is built at most once per run and later
    /// passes reuse it.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::StorageInfeasible`] when even a demand-2
    /// pass exceeds the budget; propagates forest and scheduling failures.
    pub fn split_passes(&mut self) -> Result<(), EngineError> {
        step("stage_split_passes", || {
            let mut remaining = self.demand;
            let mut memo = Candidates::default();
            while remaining > 0 {
                let pass = match self.config.storage_limit {
                    None => self.build_pass(remaining)?,
                    Some(limit) => self.max_pass(&mut memo, remaining, limit)?,
                };
                remaining = remaining.saturating_sub(pass.demand);
                self.passes.push(pass);
            }
            Ok(())
        })
    }

    /// The paper's `D'` pass: the largest demand (up to `remaining`) whose
    /// single-pass schedule fits the storage budget.
    fn max_pass(
        &self,
        memo: &mut Candidates,
        remaining: u64,
        limit: usize,
    ) -> Result<PassPlan, EngineError> {
        // The scan rises, so the last fitting pass it builds is its largest.
        let mut built = None;
        let mut storage = |demand: u64| -> Result<usize, EngineError> {
            if let Some(&needed) = memo.needed.get(&demand) {
                return Ok(needed);
            }
            let pass = self.build_pass(demand)?;
            let needed = pass.storage_units();
            memo.needed.insert(demand, needed);
            if needed <= limit {
                built = Some(pass);
            }
            Ok(needed)
        };
        let mut best = remaining.min(2);
        let first = storage(best)?;
        if first > limit {
            return Err(EngineError::StorageInfeasible { limit, needed: first });
        }
        // SRS storage is not strictly monotone in the demand (see the
        // Fig. 7 jitter), so keep scanning past the first infeasible
        // demand for a short window before giving up.
        let mut candidate = best + 2;
        let mut misses = 0u32;
        while candidate <= remaining && misses < 4 {
            if storage(candidate)? > limit {
                misses += 1;
            } else {
                best = candidate;
                misses = 0;
            }
            candidate += 2;
        }
        if let Some(pass) = memo.chosen.get(&best) {
            return Ok(pass.clone());
        }
        // A partial pass may choose a demand an earlier scan built and dropped.
        let pass = match built {
            Some(pass) if pass.demand == best => pass,
            _ => self.build_pass(best)?,
        };
        memo.chosen.insert(best, pass.clone());
        Ok(pass)
    }

    /// Step 3 — folds the planned passes into a [`StreamPlan`] with
    /// droplet-exact aggregates, publishing the `plan.*` gauges. In debug
    /// builds the independent checker vets the emitted plan.
    ///
    /// # Errors
    ///
    /// Fails when no pass was planned ([`PlanContext::split_passes`] has
    /// not run).
    pub fn into_plan(self) -> Result<StreamPlan, EngineError> {
        if self.passes.is_empty() {
            return Err(EngineError::Internal { what: "into_plan ran before split_passes".into() });
        }
        let mixers = self.ready_mixers()?;
        let passes = self.passes;
        let total_cycles = passes.iter().map(|p| u64::from(p.cycles())).sum();
        let mut inputs = vec![0u64; self.target.fluid_count()];
        let mut total_waste = 0u64;
        let mut total_mix_splits = 0u64;
        for pass in &passes {
            let stats = pass.forest.stats();
            total_waste += stats.waste as u64;
            total_mix_splits += stats.mix_splits as u64;
            for (acc, v) in inputs.iter_mut().zip(&stats.inputs) {
                *acc += v;
            }
        }
        let plan = StreamPlan {
            target: self.target.clone(),
            demand: self.demand,
            mixers,
            total_cycles,
            total_mix_splits,
            total_waste,
            total_inputs: inputs.iter().sum(),
            inputs,
            storage_peak: passes.iter().map(PassPlan::storage_units).max().unwrap_or(0),
            passes,
        };
        let obs = dmf_obs::global();
        if obs.is_enabled() {
            obs.gauge_set("plan.demand", plan.demand);
            obs.gauge_set("plan.passes", plan.passes.len() as u64);
            obs.gauge_set("plan.cycles", plan.total_cycles);
            obs.gauge_set("plan.mix_splits", plan.total_mix_splits);
            obs.gauge_set("plan.waste", plan.total_waste);
            obs.gauge_set("plan.inputs", plan.total_inputs);
            obs.gauge_set("plan.storage_peak", plan.storage_peak as u64);
        }
        // Translation validation: in debug builds every emitted plan must
        // satisfy the independent checker's invariants.
        #[cfg(debug_assertions)]
        {
            let report = crate::static_check(&plan);
            debug_assert!(report.is_clean(), "engine emitted an unsound plan:\n{report}");
        }
        Ok(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pcr_d4() -> TargetRatio {
        TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap()
    }

    #[test]
    fn stages_compose_to_the_facade_output() {
        let target = pcr_d4();
        let mut ctx = PlanContext::new(EngineConfig::default(), &target, 20).unwrap();
        ctx.build_tree().unwrap();
        ctx.split_passes().unwrap();
        let plan = ctx.into_plan().unwrap();
        assert_eq!(plan.total_cycles, 11);
        assert_eq!(plan.storage_peak, 5);
        assert_eq!(plan.total_inputs, 25);
    }

    #[test]
    fn a_context_checks_demand_like_preflight() {
        let target = pcr_d4();
        let open = |demand| PlanContext::new(EngineConfig::default(), &target, demand).err();
        for demand in [0, crate::MAX_DEMAND, crate::MAX_DEMAND + 1, u64::MAX] {
            let preflight = crate::StreamingEngine::preflight(&target, demand).err();
            assert_eq!(open(demand), preflight, "D={demand}");
        }
        assert_eq!(
            open(crate::MAX_DEMAND + 1),
            Some(EngineError::LimitExceeded {
                what: "demand",
                requested: crate::MAX_DEMAND + 1,
                limit: crate::MAX_DEMAND,
            })
        );
    }

    #[test]
    fn stages_out_of_order_are_internal_errors() {
        let target = pcr_d4();
        let ctx = PlanContext::new(EngineConfig::default(), &target, 20).unwrap();
        assert!(matches!(ctx.build_forest(2), Err(EngineError::Internal { .. })));
        assert!(matches!(ctx.into_plan(), Err(EngineError::Internal { .. })));
    }

    #[test]
    fn zero_demand_rejected_at_the_door() {
        let target = pcr_d4();
        assert!(matches!(
            PlanContext::new(EngineConfig::default(), &target, 0),
            Err(EngineError::ZeroDemand)
        ));
    }

    #[test]
    fn build_tree_is_idempotent() {
        let target = pcr_d4();
        let mut ctx = PlanContext::new(EngineConfig::default(), &target, 4).unwrap();
        ctx.build_tree().unwrap();
        let mixers = ctx.mixers();
        ctx.build_tree().unwrap();
        assert_eq!(ctx.mixers(), mixers);
    }
}
