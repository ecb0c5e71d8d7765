//! The staged planning pipeline: `BuildTree → BuildForest → Schedule →
//! SplitPasses`, as uniform [`Stage`] implementors driven by a
//! [`Pipeline`] runner.
//!
//! [`crate::StreamingEngine::plan`] is a thin facade over
//! [`Pipeline::standard`]. Every stage implements the [`Stage`] trait —
//! `name()` plus `run(&mut PlanContext)` — and is executed through a
//! [`MetaStage`] wrapper that owns the cross-cutting concerns the stage
//! bodies would otherwise duplicate: the per-stage `dmf-obs` span (the
//! legacy names `stage_build_tree`, `stage_build_forest`,
//! `stage_schedule`, `stage_split_passes`, so golden traces are
//! unchanged) and a per-stage run counter under the same name. The
//! pipeline performs exactly the calls the former monolithic planner
//! made, in the same order — stage dispatch changes no droplet of output.
//!
//! Stage contract (see `DESIGN.md` §12 and §17):
//!
//! 1. [`BuildTree`] — builds the base-algorithm template for the target
//!    and resolves the mixer budget (`Mc`, the MinMix `Mlb` under
//!    [`crate::MixerBudget::MmLowerBound`]). Must run first. Idempotent.
//! 2. [`BuildForest`] — expands the template into a mixing forest
//!    covering the pass demand in [`PlanContext`]'s scratch slot,
//!    applying the engine's droplet reuse policy (subgraph-sharing base
//!    algorithms force eager reuse).
//! 3. [`Schedule`] — schedules the pending forest onto the mixer budget
//!    and derives its storage profile, yielding a candidate [`PassPlan`].
//! 4. [`SplitPasses`] — drives stages 2–3 (each through its own
//!    [`MetaStage`], so their spans nest under `stage_split_passes`) to
//!    split the demand into the fewest passes fitting the storage budget
//!    `q'` (the paper's §6 multi-pass streaming; the whole demand in one
//!    pass when unconstrained).
//!
//! [`PlanContext::into_plan`] then folds the passes into a [`StreamPlan`]
//! with droplet-exact aggregates.
//!
//! Stages communicate through typed scratch slots on [`PlanContext`]
//! (`pass_demand` in, `pending_forest` between 2 and 3, a candidate pass
//! out of 3); a stage that finds its input slot empty fails with a typed
//! [`EngineError::Internal`], never a panic. The legacy stage methods
//! ([`PlanContext::build_tree`] and friends) remain as thin wrappers that
//! route through the same `MetaStage`-wrapped stages.

use crate::{EngineConfig, EngineError, MixerBudget, PassPlan, StreamPlan};
use dmf_mixalgo::{MinMix, MixingAlgorithm, Template};
use dmf_mixgraph::MixGraph;
use dmf_ratio::TargetRatio;
use dmf_sched::mixer_lower_bound;
use std::collections::HashMap;

/// A pipeline stage: a named unit of planning work advancing a
/// [`PlanContext`].
///
/// Stage bodies contain **only** the planning logic; span emission and
/// per-stage metrics live in [`MetaStage`], so a stage never reports
/// itself twice and every stage is observed identically.
pub trait Stage {
    /// The stage's span/counter name (`"stage_build_tree"`, …). Must be
    /// stable: traces, metrics and the profile exporters key on it.
    fn name(&self) -> &'static str;

    /// Runs the stage against `ctx`.
    ///
    /// # Errors
    ///
    /// Stage-specific planning failures, or [`EngineError::Internal`] when
    /// a required upstream slot has not been filled (stages ran out of
    /// order).
    fn run(&self, ctx: &mut PlanContext<'_>) -> Result<(), EngineError>;
}

/// Wraps a [`Stage`] with the cross-cutting concerns every stage shares:
/// one `dmf-obs` span per run (named [`Stage::name`], parented under the
/// caller's current span, so golden traces keep their legacy shape) and a
/// per-stage run counter under the same name.
///
/// `MetaStage<S>` is itself a [`Stage`], so pipelines can nest meta-wrapped
/// stages (as [`SplitPasses`] does for its per-pass inner stages).
#[derive(Debug, Clone, Copy)]
pub struct MetaStage<S> {
    inner: S,
}

impl<S: Stage> MetaStage<S> {
    /// Wraps `inner`.
    pub const fn new(inner: S) -> Self {
        MetaStage { inner }
    }
}

impl<S: Stage> Stage for MetaStage<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn run(&self, ctx: &mut PlanContext<'_>) -> Result<(), EngineError> {
        let _span = dmf_obs::span!(self.inner.name());
        let obs = dmf_obs::global();
        if obs.is_enabled() {
            obs.count(self.inner.name(), 1);
        }
        self.inner.run(ctx)
    }
}

/// An ordered sequence of [`MetaStage`]-wrapped stages.
///
/// [`Pipeline::standard`] is the planner the engine facade runs; custom
/// pipelines (extra stages, reordered stages for experiments) compose via
/// [`Pipeline::with_stage`].
#[derive(Default)]
pub struct Pipeline {
    stages: Vec<Box<dyn Stage + Send + Sync>>,
}

impl Pipeline {
    /// An empty pipeline.
    pub fn new() -> Self {
        Pipeline::default()
    }

    /// The engine's standard planner: [`BuildTree`] then [`SplitPasses`]
    /// (which drives [`BuildForest`] and [`Schedule`] per pass).
    pub fn standard() -> Self {
        Pipeline::new().with_stage(BuildTree).with_stage(SplitPasses)
    }

    /// Appends `stage`, wrapped in a [`MetaStage`].
    #[must_use]
    pub fn with_stage(mut self, stage: impl Stage + Send + Sync + 'static) -> Self {
        self.stages.push(Box::new(MetaStage::new(stage)));
        self
    }

    /// The stage names, in execution order.
    pub fn stage_names(&self) -> Vec<&'static str> {
        self.stages.iter().map(|s| s.name()).collect()
    }

    /// Runs every stage in order, stopping at the first failure.
    ///
    /// # Errors
    ///
    /// Propagates the failing stage's error.
    pub fn run(&self, ctx: &mut PlanContext<'_>) -> Result<(), EngineError> {
        for stage in &self.stages {
            stage.run(ctx)?;
        }
        Ok(())
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline").field("stages", &self.stage_names()).finish()
    }
}

/// Shared state threaded through the pipeline stages.
///
/// A context is created per `(target, demand)` planning request, advanced
/// by the stages, and consumed by [`PlanContext::into_plan`]. The scratch
/// slots (`pass_demand`, pending forest, candidate pass) carry data
/// between [`BuildForest`] and [`Schedule`] within one pass.
#[derive(Debug)]
pub struct PlanContext<'a> {
    config: EngineConfig,
    target: &'a TargetRatio,
    demand: u64,
    template: Option<Template>,
    mixers: Option<usize>,
    passes: Vec<PassPlan>,
    /// Scratch: the demand the next [`BuildForest`]/[`Schedule`] run
    /// plans for.
    pass_demand: Option<u64>,
    /// Scratch: the forest [`BuildForest`] produced, awaiting
    /// [`Schedule`].
    pending_forest: Option<MixGraph>,
    /// Scratch: the pass [`Schedule`] produced, awaiting collection.
    candidate: Option<PassPlan>,
}

/// Resolves the mixer budget for `target` under `config` (the `Mlb` of its
/// MinMix tree for [`MixerBudget::MmLowerBound`]).
pub(crate) fn resolve_mixers(
    config: &EngineConfig,
    target: &TargetRatio,
) -> Result<usize, EngineError> {
    match config.mixers {
        MixerBudget::Fixed(m) => Ok(m),
        MixerBudget::MmLowerBound => {
            let mm = MinMix.build_graph(target)?;
            Ok(mixer_lower_bound(&mm)?)
        }
    }
}

fn internal(what: &str) -> EngineError {
    EngineError::Internal { what: what.to_owned() }
}

/// Stage 1 — builds the base-algorithm template and resolves the mixer
/// budget. Idempotent.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTree;

impl Stage for BuildTree {
    fn name(&self) -> &'static str {
        "stage_build_tree"
    }

    fn run(&self, ctx: &mut PlanContext<'_>) -> Result<(), EngineError> {
        if ctx.template.is_none() {
            let _span = dmf_obs::span!("mixalgo_build");
            ctx.template = Some(ctx.config.algorithm.algorithm().build_template(ctx.target)?);
        }
        if ctx.mixers.is_none() {
            ctx.mixers = Some(resolve_mixers(&ctx.config, ctx.target)?);
        }
        Ok(())
    }
}

/// Stage 2 — expands the template into a mixing forest covering the
/// scratch `pass_demand` under the engine's reuse policy, leaving it in
/// the pending-forest slot.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildForest;

impl Stage for BuildForest {
    fn name(&self) -> &'static str {
        "stage_build_forest"
    }

    fn run(&self, ctx: &mut PlanContext<'_>) -> Result<(), EngineError> {
        let demand =
            ctx.pass_demand.ok_or_else(|| internal("build_forest ran without a pass demand"))?;
        // Subgraph-sharing base algorithms (MTCS, RSM) reuse droplets even
        // within one tree; their forests must too, or the engine would lose
        // the sharing the repeated baseline enjoys.
        let reuse = if ctx.config.algorithm.algorithm().shares_subgraphs() {
            dmf_forest::ReusePolicy::Eager
        } else {
            ctx.config.reuse
        };
        let forest = dmf_forest::build_forest(ctx.ready_template()?, ctx.target, demand, reuse)?;
        ctx.pending_forest = Some(forest);
        Ok(())
    }
}

/// Stage 3 — schedules the pending forest onto the mixer budget and
/// derives its storage profile, leaving a candidate [`PassPlan`] in the
/// context.
#[derive(Debug, Clone, Copy, Default)]
pub struct Schedule;

impl Stage for Schedule {
    fn name(&self) -> &'static str {
        "stage_schedule"
    }

    fn run(&self, ctx: &mut PlanContext<'_>) -> Result<(), EngineError> {
        let demand =
            ctx.pass_demand.ok_or_else(|| internal("schedule ran without a pass demand"))?;
        let forest =
            ctx.pending_forest.take().ok_or_else(|| internal("schedule ran without a forest"))?;
        let schedule = ctx.config.scheduler.run(&forest, ctx.ready_mixers()?)?;
        let storage = schedule.storage(&forest);
        ctx.candidate = Some(PassPlan { demand, forest, schedule, storage });
        Ok(())
    }
}

/// Stage 4 — splits the demand into the fewest passes whose schedules
/// each fit the storage budget `q'` (one pass covers everything when
/// unconstrained), appending them to the context. Drives stages 2–3
/// through their own [`MetaStage`]s, so per-pass forest/schedule spans
/// nest under this stage's span. Under a budget, each candidate pass
/// demand is built at most once per run and later passes reuse it.
#[derive(Debug, Clone, Copy, Default)]
pub struct SplitPasses;

impl Stage for SplitPasses {
    fn name(&self) -> &'static str {
        "stage_split_passes"
    }

    fn run(&self, ctx: &mut PlanContext<'_>) -> Result<(), EngineError> {
        let mut remaining = ctx.demand;
        let mut memo = Candidates::default();
        while remaining > 0 {
            let pass = match ctx.config.storage_limit {
                None => build_pass(ctx, remaining)?,
                Some(limit) => max_pass(ctx, &mut memo, remaining, limit)?,
            };
            remaining = remaining.saturating_sub(pass.demand);
            ctx.passes.push(pass);
        }
        Ok(())
    }
}

/// Stages 2+3 for one pass, each through its [`MetaStage`] wrapper.
fn build_pass(ctx: &mut PlanContext<'_>, demand: u64) -> Result<PassPlan, EngineError> {
    const FOREST: MetaStage<BuildForest> = MetaStage::new(BuildForest);
    const SCHEDULE: MetaStage<Schedule> = MetaStage::new(Schedule);
    ctx.pass_demand = Some(demand);
    let result = FOREST.run(ctx).and_then(|()| SCHEDULE.run(ctx));
    ctx.pass_demand = None;
    result?;
    ctx.candidate.take().ok_or_else(|| internal("schedule did not produce a pass"))
}

/// What one [`SplitPasses`] run knows of its candidate passes. A pass is a
/// pure function of its demand within one context, so the storage need of
/// every built candidate is recorded and no candidate is built twice for
/// the scan. Only the plans of chosen passes are kept (they repeat pass
/// after pass); a fitting candidate that loses its scan is dropped, so
/// memory stays flat however many demands a loose budget admits.
#[derive(Default)]
struct Candidates {
    needed: HashMap<u64, usize>,
    chosen: HashMap<u64, PassPlan>,
}

/// The paper's `D'` pass: the largest demand (up to `remaining`) whose
/// single-pass schedule fits the storage budget.
fn max_pass(
    ctx: &mut PlanContext<'_>,
    memo: &mut Candidates,
    remaining: u64,
    limit: usize,
) -> Result<PassPlan, EngineError> {
    // The scan rises, so the last fitting pass it builds is its largest.
    let mut built = None;
    let mut storage = |ctx: &mut PlanContext<'_>, demand: u64| -> Result<usize, EngineError> {
        if let Some(&needed) = memo.needed.get(&demand) {
            return Ok(needed);
        }
        let pass = build_pass(ctx, demand)?;
        let needed = pass.storage_units();
        memo.needed.insert(demand, needed);
        if needed <= limit {
            built = Some(pass);
        }
        Ok(needed)
    };
    let mut best = remaining.min(2);
    let first = storage(ctx, best)?;
    if first > limit {
        return Err(EngineError::StorageInfeasible { limit, needed: first });
    }
    // SRS storage is not strictly monotone in the demand (see the
    // Fig. 7 jitter), so keep scanning past the first infeasible
    // demand for a short window before giving up.
    let mut candidate = best + 2;
    let mut misses = 0u32;
    while candidate <= remaining && misses < 4 {
        if storage(ctx, candidate)? > limit {
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
        _ => build_pass(ctx, best)?,
    };
    memo.chosen.insert(best, pass.clone());
    Ok(pass)
}

impl<'a> PlanContext<'a> {
    /// Opens a planning context for `demand` droplets of `target`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ZeroDemand`] for `demand == 0`.
    pub fn new(
        config: EngineConfig,
        target: &'a TargetRatio,
        demand: u64,
    ) -> Result<Self, EngineError> {
        if demand == 0 {
            return Err(EngineError::ZeroDemand);
        }
        Ok(PlanContext {
            config,
            target,
            demand,
            template: None,
            mixers: None,
            passes: Vec::new(),
            pass_demand: None,
            pending_forest: None,
            candidate: None,
        })
    }

    /// The engine configuration this context plans under.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// The target ratio being planned.
    pub fn target(&self) -> &TargetRatio {
        self.target
    }

    /// The requested demand `D`.
    pub fn demand(&self) -> u64 {
        self.demand
    }

    /// The resolved mixer budget, once [`BuildTree`] ran.
    pub fn mixers(&self) -> Option<usize> {
        self.mixers
    }

    /// The passes planned so far, in execution order.
    pub fn passes(&self) -> &[PassPlan] {
        &self.passes
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

    /// Stage 1 — [`BuildTree`] through its [`MetaStage`]. Idempotent.
    ///
    /// # Errors
    ///
    /// Propagates base-tree construction and mixer-bound failures.
    pub fn build_tree(&mut self) -> Result<(), EngineError> {
        MetaStage::new(BuildTree).run(self)
    }

    /// Stage 2 — [`BuildForest`] through its [`MetaStage`]: expands the
    /// template into a mixing forest covering `demand` droplets under the
    /// engine's reuse policy.
    ///
    /// # Errors
    ///
    /// Fails before [`PlanContext::build_tree`] has run; propagates forest
    /// construction failures.
    pub fn build_forest(&mut self, demand: u64) -> Result<MixGraph, EngineError> {
        self.pass_demand = Some(demand);
        let result = MetaStage::new(BuildForest).run(self);
        self.pass_demand = None;
        result?;
        self.pending_forest.take().ok_or_else(|| internal("build_forest produced no forest"))
    }

    /// Stage 3 — [`Schedule`] through its [`MetaStage`]: schedules
    /// `forest` onto the mixer budget and derives its storage profile,
    /// completing one [`PassPlan`].
    ///
    /// # Errors
    ///
    /// Fails before [`PlanContext::build_tree`] has run; propagates
    /// scheduling failures.
    pub fn schedule(&mut self, forest: MixGraph, demand: u64) -> Result<PassPlan, EngineError> {
        self.pass_demand = Some(demand);
        self.pending_forest = Some(forest);
        let result = MetaStage::new(Schedule).run(self);
        self.pass_demand = None;
        result?;
        self.candidate.take().ok_or_else(|| internal("schedule produced no pass"))
    }

    /// Stage 4 — [`SplitPasses`] through its [`MetaStage`].
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::StorageInfeasible`] when even a demand-2
    /// pass exceeds the budget; propagates stage-2/3 failures.
    pub fn split_passes(&mut self) -> Result<(), EngineError> {
        MetaStage::new(SplitPasses).run(self)
    }

    /// Folds the planned passes into a [`StreamPlan`] with droplet-exact
    /// aggregates, publishing the `plan.*` gauges. In debug builds the
    /// independent checker vets the emitted plan.
    ///
    /// # Errors
    ///
    /// Fails when no pass was planned ([`SplitPasses`] has not run).
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
    fn pipeline_runner_matches_the_stage_methods() {
        let target = pcr_d4();
        let mut ctx = PlanContext::new(EngineConfig::default(), &target, 20).unwrap();
        Pipeline::standard().run(&mut ctx).unwrap();
        let plan = ctx.into_plan().unwrap();
        assert_eq!(plan.total_cycles, 11);
        assert_eq!(plan.storage_peak, 5);
        assert_eq!(plan.total_inputs, 25);
        assert_eq!(
            Pipeline::standard().stage_names(),
            vec!["stage_build_tree", "stage_split_passes"]
        );
    }

    #[test]
    fn stages_out_of_order_are_internal_errors() {
        let target = pcr_d4();
        let mut ctx = PlanContext::new(EngineConfig::default(), &target, 20).unwrap();
        assert!(matches!(ctx.build_forest(2), Err(EngineError::Internal { .. })));
        let ctx = PlanContext::new(EngineConfig::default(), &target, 20).unwrap();
        assert!(matches!(ctx.into_plan(), Err(EngineError::Internal { .. })));
        // A bare Schedule stage with no pending forest fails typed, too.
        let mut ctx = PlanContext::new(EngineConfig::default(), &target, 20).unwrap();
        ctx.build_tree().unwrap();
        assert!(matches!(
            MetaStage::new(Schedule).run(&mut ctx),
            Err(EngineError::Internal { .. })
        ));
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
