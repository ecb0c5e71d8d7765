//! The offline workloads: `corpus_batch`, `pcr_storage` and `stream_sim`.
//!
//! Each sets up [`SETUPS`] times (generate the inputs, then one warm-up
//! pass over them; the last pass's outputs are checked and become the
//! expected answers), then measures rounds over the same inputs until the
//! run's seconds are spent, keeping every op's fastest time. Every
//! measured output is compared, outside the timed region, with the
//! expected one.

use crate::inputs::{self, PcrRequest};
use crate::layers::{Traced, Tracer};
use crate::stats::{self, Digest, Rounds};
use crate::{Outcome, Run};
use dmf_chip::presets::streaming_chip;
use dmf_engine::{
    plan_batch, realize_pass, BatchOptions, EngineConfig, EngineError, PlanCache, PlanContext,
    PlanKey, PlanRequest, StreamPlan, StreamingEngine,
};
use dmf_ratio::TargetRatio;
use dmf_sim::{SimReport, Simulator};
use std::fmt::Display;
use std::num::NonZeroUsize;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

/// Fewest measured rounds, however long they take.
const MIN_ROUNDS: usize = 3;

/// Worker threads of the `plan_batch` calls the traced `corpus_batch`
/// times (the box has two cores).
const BATCH_JOBS: usize = 2;

/// Requests per `plan_batch` call the traced `corpus_batch` times.
const SUB_BATCH: usize = 48;

/// One plan in this many also runs the independent static checker.
const DEEP_CHECK_EVERY: usize = 50;

/// Plans whose cache-hit cost the traced `corpus_batch` measures (four
/// times the default cache capacity).
const CACHE_SAMPLE: usize = 4096;

/// Counts checked outputs and the wrong ones.
#[derive(Debug, Default)]
pub struct Tally {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs found wrong.
    pub failed: u64,
}

impl Tally {
    /// Records one checked output; `fault` says what was wrong with it.
    pub fn check(&mut self, fault: Option<String>) {
        self.attempted += 1;
        if let Some(fault) = fault {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("wrong output: {fault}");
            }
        }
    }
}

/// What is wrong with `plan` as the answer to planning `demand` droplets
/// of `target`, if anything: the demand must be met, the per-fluid inputs
/// must add up to `I`, waste must be 0 when every pass demand is a
/// multiple of `2^d` (the paper's full-cycle forests), and with `deep` the
/// independent static checker must be clean.
pub fn plan_fault(
    plan: &StreamPlan,
    target: &TargetRatio,
    demand: u64,
    deep: bool,
) -> Option<String> {
    let covered: u64 = plan.passes.iter().map(|p| p.demand).sum();
    let what = if plan.target != *target || plan.demand != demand || covered != demand {
        format!("passes cover {covered} of D={}", plan.demand)
    } else if plan.inputs.iter().sum::<u64>() != plan.total_inputs {
        format!("per-fluid inputs {:?} do not add up to I={}", plan.inputs, plan.total_inputs)
    } else if plan.passes.iter().all(|p| p.demand % target.ratio_sum() == 0)
        && plan.total_waste != 0
    {
        format!("W={} although every pass demand is a multiple of 2^d", plan.total_waste)
    } else if deep && !plan.static_check().is_clean() {
        format!("static check: {}", plan.static_check())
    } else {
        return None;
    };
    Some(format!("{target} D={demand}: {what}"))
}

/// Whether a measured output equals the expected one.
fn same_output<T: Display, E: Display>(result: &Result<T, E>, expected: &str) -> Option<String> {
    match result {
        Ok(out) if out.to_string() == expected => None,
        Ok(out) => Some(format!("output changed: {out} instead of {expected}")),
        Err(e) => Some(format!("{e} instead of {expected}")),
    }
}

/// A workload's inputs, the checked output of each, and the median
/// set-up time in seconds.
struct Warm<I> {
    inputs: Vec<I>,
    expected: Vec<String>,
    setup_s: f64,
}

/// Set-up, [`SETUPS`] times: generate the inputs, then run every op once,
/// `chunk` inputs per call of `op`. Only the generation and the `op` calls
/// are timed. The outputs of the last set-up are checked by `check`
/// (index, input, output → fault), folded into `digest` and kept as the
/// expected outputs; each is dropped right after its check, so the
/// benchmark holds no plans of its own.
fn warm_up<I, T: Display, E: Display>(
    generate: impl Fn() -> Result<Vec<I>, String>,
    chunk: usize,
    mut op: impl FnMut(&[I]) -> Vec<Result<T, E>>,
    mut check: impl FnMut(usize, &I, &T) -> Option<String>,
    tally: &mut Tally,
    digest: &mut Digest,
) -> Result<Warm<I>, String> {
    let mut times = Vec::new();
    let mut warm = Warm { inputs: Vec::new(), expected: Vec::new(), setup_s: 0.0 };
    for setup in 1..=SETUPS {
        let start = Instant::now();
        let inputs = generate()?;
        let mut spent = start.elapsed();
        let mut expected = Vec::new();
        for (c, part) in inputs.chunks(chunk).enumerate() {
            let start = Instant::now();
            let outputs = op(part);
            spent += start.elapsed();
            if setup < SETUPS {
                continue;
            }
            for (j, (input, output)) in part.iter().zip(&outputs).enumerate() {
                tally.check(match output {
                    Ok(out) => check(c * chunk + j, input, out),
                    Err(e) => Some(e.to_string()),
                });
                let summary = output.as_ref().map_or_else(|e| format!("error: {e}"), T::to_string);
                digest.add(&summary);
                expected.push(summary);
            }
        }
        times.push(spent.as_secs_f64());
        warm = Warm { inputs, expected, setup_s: 0.0 };
    }
    warm.setup_s = stats::median(&times);
    Ok(warm)
}

fn elapsed_ns(start: Instant) -> f64 {
    start.elapsed().as_nanos() as f64
}

fn end_to_end(rounds: &Rounds, items_per_round: usize, setup_s: f64) -> Vec<(&'static str, f64)> {
    vec![
        ("p50_us", rounds.p50_us()),
        ("p90_us", rounds.p90_us()),
        ("throughput_per_s", rounds.per_second(items_per_round)),
        ("peak_rss_mb", stats::peak_rss_mb(None)),
        ("setup_s", setup_s),
    ]
}

/// [`StreamingEngine::plan`] decomposed into the public stage calls it
/// runs (preflight → build tree → split passes → fold), each under a span
/// of the benchmark's own, so the program's spans nest inside them.
pub fn traced_plan(
    config: EngineConfig,
    target: &TargetRatio,
    demand: u64,
) -> Result<StreamPlan, EngineError> {
    {
        let _span = dmf_obs::span!("engine.preflight");
        StreamingEngine::preflight(target, demand)?;
    }
    let mut ctx = PlanContext::new(config, target, demand)?;
    {
        let _span = dmf_obs::span!("engine.build_tree");
        ctx.build_tree()?;
    }
    {
        let _span = dmf_obs::span!("engine.split_passes");
        ctx.split_passes()?;
    }
    let _span = dmf_obs::span!("engine.into_plan");
    ctx.into_plan()
}

/// Interleaved untraced and traced executions of ops `0..n` until
/// `seconds` pass (two rounds at least). Returns the tracing overhead in
/// percent, over per-op minima, and the traced span totals.
fn traced_rounds(
    n: usize,
    seconds: f64,
    mut untraced: impl FnMut(usize),
    mut traced: impl FnMut(usize, &mut Tracer) -> f64,
) -> (f64, Traced) {
    let mut tracer = Tracer::new();
    let (mut plain, mut with) = (vec![f64::INFINITY; n], vec![f64::INFINITY; n]);
    let start = Instant::now();
    let mut rounds = 0;
    while rounds < 2 || start.elapsed().as_secs_f64() < seconds {
        for i in 0..n {
            let t = Instant::now();
            untraced(i);
            plain[i] = plain[i].min(elapsed_ns(t));
            with[i] = with[i].min(traced(i, &mut tracer));
        }
        rounds += 1;
    }
    let (plain, with): (f64, f64) = (plain.iter().sum(), with.iter().sum());
    (100.0 * (with - plain) / plain.max(1.0), tracer.finish())
}

/// Modelled quantities of the distinct plans of a workload; they repeat
/// exactly for a seed under any change that only claims speed.
#[derive(Debug, Default)]
struct Modelled {
    plans: u64,
    demand: u64,
    waste: u64,
    cycles: u64,
    passes: u64,
}

impl Modelled {
    fn add(&mut self, plan: &StreamPlan) {
        self.plans += 1;
        self.demand += plan.demand;
        self.waste += plan.total_waste;
        self.cycles += plan.total_cycles;
        self.passes += plan.pass_count() as u64;
    }

    fn per_plan(&self, total: u64) -> f64 {
        total as f64 / self.plans.max(1) as f64
    }
}

/// The per-layer metrics every planning workload reports.
fn plan_layers(
    traced: &Traced,
    modelled: &Modelled,
    overhead_pct: f64,
) -> Vec<(&'static str, f64)> {
    let forest_builds = traced.calls_per_op("forest_build");
    let passes = modelled.per_plan(modelled.passes);
    let mut metrics = traced.layer_metrics();
    metrics.extend([
        ("mixalgo.builds_per_plan", traced.calls_per_op("mixalgo_build")),
        ("forest.builds_per_plan", forest_builds),
        (
            "forest.target_yield",
            modelled.demand as f64 / (modelled.demand + modelled.waste).max(1) as f64,
        ),
        ("sched.oms_runs_per_plan", traced.calls_per_op("sched_oms")),
        ("sched.cycles_per_plan", modelled.per_plan(modelled.cycles)),
        ("engine.passes_per_plan", passes),
        ("engine.candidate_yield", if forest_builds > 0.0 { passes / forest_builds } else { 0.0 }),
        ("trace.overhead_pct", overhead_pct),
    ]);
    if traced.dropped > 0 {
        eprintln!("warning: {} spans fell out of the recorder window", traced.dropped);
    }
    metrics
}

/// One request through a plan cache, as `StreamingEngine::plan_shared`
/// runs it, with the plan decomposed into [`traced_plan`]'s stage calls
/// and the cache calls under spans of their own.
fn traced_cached_plan(
    cache: &PlanCache,
    req: &PlanRequest,
) -> Result<Arc<StreamPlan>, EngineError> {
    {
        let _span = dmf_obs::span!("engine.preflight");
        StreamingEngine::preflight(&req.target, req.demand)?;
    }
    let key = PlanKey::new(&req.config, &req.target, req.demand);
    let hit = {
        let _span = dmf_obs::span!("engine.cache_lookup");
        cache.lookup(&key)
    };
    if let Some(plan) = hit {
        return Ok(plan);
    }
    let plan = Arc::new(traced_plan(req.config, &req.target, req.demand)?);
    let _span = dmf_obs::span!("engine.cache_store");
    cache.store(key, Arc::clone(&plan));
    Ok(plan)
}

/// `corpus_batch`: one op is one request through `plan_shared` with a
/// plan cache of the default capacity, fresh each round, so every request
/// misses, plans and stores (evicting once the cache is full). The
/// requests are those a Table 3 / Fig. 6 sweep hands `plan_batch`; they
/// are timed one at a time because two-thread timings on the two-core box
/// swing with its neighbours, while the traced run reports what the
/// worker pool adds (`engine.batch_efficiency`).
pub fn corpus_batch(run: &Run) -> Result<Outcome, String> {
    let plan = |cache: &Arc<PlanCache>, req: &PlanRequest| {
        StreamingEngine::new(req.config)
            .with_cache(Arc::clone(cache))
            .plan_shared(&req.target, req.demand)
    };
    let (mut tally, mut digest, mut modelled) =
        (Tally::default(), Digest::default(), Modelled::default());
    let warm_cache = PlanCache::shared();
    let Warm { inputs: requests, expected, setup_s } = warm_up(
        || Ok(inputs::corpus_batch(run.seed, &run.sizes)),
        1,
        |part| part.iter().map(|req| plan(&warm_cache, req)).collect(),
        |i, req, plan| {
            modelled.add(plan);
            plan_fault(plan, &req.target, req.demand, i % DEEP_CHECK_EVERY == 0)
        },
        &mut tally,
        &mut digest,
    )?;
    drop(warm_cache);

    let metrics = if run.trace {
        let (mut plain_cache, mut traced_cache) = (PlanCache::shared(), PlanCache::shared());
        let (overhead_pct, traced) = traced_rounds(
            requests.len(),
            run.seconds,
            |i| {
                if i == 0 {
                    plain_cache = PlanCache::shared();
                }
                std::hint::black_box(plan(&plain_cache, &requests[i]).ok());
            },
            |i, tracer| {
                if i == 0 {
                    traced_cache = PlanCache::shared();
                }
                let (result, ns) = tracer.op(|| traced_cached_plan(&traced_cache, &requests[i]));
                tally.check(same_output(&result, &expected[i]));
                ns
            },
        );
        // What the worker pool adds: the same requests through plan_batch
        // in sub-batches, serial against two workers.
        let jobs = NonZeroUsize::new(BATCH_JOBS).unwrap_or(NonZeroUsize::MIN);
        let time_batches = |jobs| {
            let start = Instant::now();
            for chunk in requests.chunks(SUB_BATCH) {
                let options = BatchOptions::new().with_jobs(jobs).with_cache(PlanCache::shared());
                std::hint::black_box(plan_batch(chunk, &options));
            }
            elapsed_ns(start)
        };
        let (mut serial, mut parallel) = (f64::INFINITY, f64::INFINITY);
        for _ in 0..3 {
            serial = serial.min(time_batches(NonZeroUsize::MIN));
            parallel = parallel.min(time_batches(jobs));
        }
        let stores = traced.calls_per_op("engine.cache_store").max(f64::MIN_POSITIVE);
        let mut metrics = plan_layers(&traced, &modelled, overhead_pct);
        metrics.extend([
            ("engine.batch_efficiency", serial / (BATCH_JOBS as f64 * parallel)),
            ("engine.cache_store_ns", traced.self_ns_per_op("engine.cache_store") / stores),
            (
                "engine.cache_lookup_hit_ns",
                lookup_hit_ns(&requests[..requests.len().min(CACHE_SAMPLE)]),
            ),
        ]);
        metrics
    } else {
        let mut cache = PlanCache::shared();
        let rounds = Rounds::measure(requests.len(), MIN_ROUNDS, run.seconds, |i| {
            if i == 0 {
                cache = PlanCache::shared();
            }
            let start = Instant::now();
            let result = plan(&cache, &requests[i]);
            let ns = elapsed_ns(start);
            tally.check(same_output(&result, &expected[i]));
            ns
        });
        end_to_end(&rounds, requests.len(), setup_s)
    };
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        digest: digest.value(),
        metrics,
    })
}

/// Mean cost of a plan-cache lookup that hits, over `requests`' plans in
/// a default-capacity cache, nanoseconds (the fastest of three passes).
fn lookup_hit_ns(requests: &[PlanRequest]) -> f64 {
    let cache = PlanCache::new();
    let mut keys = Vec::new();
    for (plan, r) in plan_batch(requests, &BatchOptions::new()).into_iter().zip(requests) {
        if let Ok(plan) = plan {
            let key = PlanKey::new(&r.config, &r.target, r.demand);
            cache.store(key.clone(), plan);
            keys.push(key);
        }
    }
    keys.retain(|k| cache.lookup(k).is_some());
    (0..3)
        .map(|_| {
            let start = Instant::now();
            for key in &keys {
                std::hint::black_box(cache.lookup(key));
            }
            elapsed_ns(start) / keys.len().max(1) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// `pcr_storage`: one op is one storage-limited `StreamingEngine::plan`.
pub fn pcr_storage(run: &Run) -> Result<Outcome, String> {
    let plan = |r: &PcrRequest| StreamingEngine::new(r.config).plan(&r.target, r.demand);
    let (mut tally, mut digest, mut modelled) =
        (Tally::default(), Digest::default(), Modelled::default());
    let Warm { inputs: requests, expected, setup_s } = warm_up(
        || inputs::pcr_storage(run.seed, &run.sizes),
        1,
        |part| part.iter().map(plan).collect(),
        |i, req, p| {
            modelled.add(p);
            plan_fault(p, &req.target, req.demand, i % DEEP_CHECK_EVERY == 0).or_else(|| {
                let got = (p.pass_count(), p.total_cycles, p.total_waste);
                req.paper.filter(|&paper| paper != got).map(|paper| {
                    format!(
                        "Table 4 D={} q'={:?}: {got:?}, paper {paper:?}",
                        req.demand, req.config.storage_limit
                    )
                })
            })
        },
        &mut tally,
        &mut digest,
    )?;

    let metrics = if run.trace {
        let (overhead_pct, traced) = traced_rounds(
            requests.len(),
            run.seconds,
            |i| {
                std::hint::black_box(plan(&requests[i]).ok());
            },
            |i, tracer| {
                let r = &requests[i];
                let (result, ns) = tracer.op(|| traced_plan(r.config, &r.target, r.demand));
                tally.check(same_output(&result, &expected[i]));
                ns
            },
        );
        plan_layers(&traced, &modelled, overhead_pct)
    } else {
        let rounds = Rounds::measure(requests.len(), MIN_ROUNDS, run.seconds, |i| {
            let start = Instant::now();
            let result = plan(&requests[i]);
            let ns = elapsed_ns(start);
            tally.check(same_output(&result, &expected[i]));
            ns
        });
        end_to_end(&rounds, requests.len(), setup_s)
    };
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        digest: digest.value(),
        metrics,
    })
}

/// A plan carried down to droplets: every pass realized on a streaming
/// chip and simulated.
#[derive(Debug)]
struct Streamed {
    plan: StreamPlan,
    /// Per pass: instructions of the realized program, simulation report.
    passes: Vec<(usize, SimReport)>,
}

impl Display for Streamed {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.plan)?;
        for (instructions, report) in &self.passes {
            write!(f, " | {instructions} instructions {report}")?;
        }
        Ok(())
    }
}

/// Plan → `streaming_chip` → `realize_pass` → `Simulator::run` for every
/// pass. The plan goes through the stage calls of [`traced_plan`] when
/// `traced`, else through the engine facade.
fn stream(target: &TargetRatio, demand: u64, traced: bool) -> Result<Streamed, String> {
    let config = EngineConfig::default();
    let plan = if traced {
        traced_plan(config, target, demand)
    } else {
        StreamingEngine::new(config).plan(target, demand)
    }
    .map_err(|e| e.to_string())?;
    let chip = {
        let _span = dmf_obs::span!("chip.build");
        streaming_chip(target.fluid_count(), plan.mixers, plan.storage_peak.max(1))
    }
    .map_err(|e| e.to_string())?;
    let sim = Simulator::new(&chip);
    let mut passes = Vec::new();
    for pass in &plan.passes {
        let program = {
            let _span = dmf_obs::span!("engine.realize");
            realize_pass(pass, &chip)
        }
        .map_err(|e| e.to_string())?;
        let report = {
            let _span = dmf_obs::span!("sim.run");
            sim.run(&program)
        }
        .map_err(|e| e.to_string())?;
        passes.push((program.len(), report));
    }
    Ok(Streamed { plan, passes })
}

/// What is wrong with a streamed plan: the plan checks, and per pass the
/// simulator must emit `D`, dispense `I`, discard `W` and peak at `q`
/// storage cells.
fn stream_fault(out: &Streamed, target: &TargetRatio, demand: u64, deep: bool) -> Option<String> {
    plan_fault(&out.plan, target, demand, deep).or_else(|| {
        out.plan.passes.iter().zip(&out.passes).find_map(|(pass, (_, sim))| {
            let stats = pass.forest.stats();
            let inputs: u64 = stats.inputs.iter().sum();
            let expected = (pass.demand, inputs, stats.waste as u64, pass.storage_units());
            (expected != (sim.emitted, sim.dispensed, sim.discarded, sim.storage_peak)).then(|| {
                format!(
                    "{target} D={demand}: simulated {sim} for a pass (D, I, W, q) = {expected:?}"
                )
            })
        })
    })
}

/// `stream_sim`: one op is one [`stream`] of a ratio and demand.
pub fn stream_sim(run: &Run) -> Result<Outcome, String> {
    let (mut tally, mut digest, mut modelled) =
        (Tally::default(), Digest::default(), Modelled::default());
    let (mut emitted, mut instructions, mut cycles, mut actuations, mut peak) =
        (0u64, 0u64, 0u64, 0u64, 0u64);
    let Warm { inputs: requests, expected, setup_s } = warm_up(
        || Ok(inputs::stream_sim(run.seed, &run.sizes)),
        1,
        |part| part.iter().map(|(t, d)| stream(t, *d, false)).collect(),
        |i, (target, demand), out| {
            modelled.add(&out.plan);
            for (count, sim) in &out.passes {
                emitted += sim.emitted;
                instructions += *count as u64;
                cycles += u64::from(sim.cycles);
                actuations += sim.transport_actuations;
            }
            peak += out
                .passes
                .iter()
                .map(|(_, s)| u64::from(s.max_electrode_actuations()))
                .max()
                .unwrap_or(0);
            stream_fault(out, target, *demand, i % DEEP_CHECK_EVERY == 0)
        },
        &mut tally,
        &mut digest,
    )?;

    let metrics = if run.trace {
        let (overhead_pct, traced) = traced_rounds(
            requests.len(),
            run.seconds,
            |i| {
                let (target, demand) = &requests[i];
                std::hint::black_box(stream(target, *demand, false).ok());
            },
            |i, tracer| {
                let (target, demand) = &requests[i];
                let (result, ns) = tracer.op(|| stream(target, *demand, true));
                tally.check(same_output(&result, &expected[i]));
                ns
            },
        );
        let per_droplet = |total: u64| total as f64 / emitted.max(1) as f64;
        let sim_ns_per_op = traced.total_ns("sim.run") as f64 / traced.ops.max(1) as f64;
        let mut metrics = plan_layers(&traced, &modelled, overhead_pct);
        metrics.extend([
            ("engine.program_instructions_per_droplet", per_droplet(instructions)),
            (
                "sim.ns_per_actuation",
                sim_ns_per_op * requests.len() as f64 / actuations.max(1) as f64,
            ),
            ("sim.cycles_per_droplet", per_droplet(cycles)),
            ("sim.actuations_per_droplet", per_droplet(actuations)),
            ("sim.peak_electrode_actuations", peak as f64 / requests.len().max(1) as f64),
        ]);
        metrics
    } else {
        let rounds = Rounds::measure(requests.len(), MIN_ROUNDS, run.seconds, |i| {
            let (target, demand) = &requests[i];
            let start = Instant::now();
            let result = stream(target, *demand, false);
            let ns = elapsed_ns(start);
            tally.check(same_output(&result, &expected[i]));
            ns
        });
        end_to_end(&rounds, requests.len(), setup_s)
    };
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        digest: digest.value(),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Sizes;

    #[test]
    fn traced_decomposition_reproduces_engine_plan() {
        let _guard =
            crate::GLOBAL_RECORDER.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let corpus = inputs::corpus_batch(11, &Sizes { corpus_ratios: 60, ..Sizes::TINY });
        let storage =
            inputs::pcr_storage(11, &Sizes { pcr_demands_per_pair: 2, ..Sizes::TINY }).unwrap();
        let requests = corpus
            .iter()
            .map(|r| (r.config, &r.target, r.demand))
            .chain(storage.iter().map(|r| (r.config, &r.target, r.demand)));
        let mut tracer = Tracer::new();
        for (config, target, demand) in requests {
            let facade = StreamingEngine::new(config).plan(target, demand).unwrap();
            let (decomposed, _) = tracer.op(|| traced_plan(config, target, demand));
            let decomposed = decomposed.unwrap();
            assert_eq!(decomposed.to_string(), facade.to_string());
            assert_eq!(decomposed.inputs, facade.inputs);
            let shape = |p: &StreamPlan| -> Vec<_> {
                p.passes
                    .iter()
                    .map(|s| (s.demand, s.cycles(), s.storage_units(), s.forest.stats()))
                    .collect()
            };
            assert_eq!(shape(&decomposed), shape(&facade));
        }
        let traced = tracer.finish();
        // The default configuration builds the tree twice per plan (the
        // template, then MinMix again for Mlb); every op planned once.
        assert!(traced.calls_per_op("mixalgo_build") > 1.0);
        assert_eq!(traced.calls_per_op("engine.split_passes"), 1.0);
    }

    #[test]
    fn a_corrupted_plan_counts_as_failed() {
        let _guard =
            crate::GLOBAL_RECORDER.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let target: TargetRatio = "2:1:1:1:1:1:9".parse().unwrap();
        let plan = StreamingEngine::new(EngineConfig::default()).plan(&target, 32).unwrap();
        let mut tally = Tally::default();
        tally.check(plan_fault(&plan, &target, 32, true));
        assert_eq!((tally.attempted, tally.failed), (1, 0));
        let corruptions: [fn(&mut StreamPlan); 3] =
            [|p| p.total_inputs += 1, |p| p.total_waste = 1, |p| p.passes[0].demand -= 2];
        for corrupt in corruptions {
            let mut bad = plan.clone();
            corrupt(&mut bad);
            tally.check(plan_fault(&bad, &target, 32, false));
        }
        assert_eq!((tally.attempted, tally.failed), (4, 3));
        // A streamed pass whose simulation lost a droplet is wrong too.
        let mut out = stream(&target, 32, false).unwrap();
        assert_eq!(stream_fault(&out, &target, 32, false), None);
        out.passes[0].1.emitted -= 1;
        tally.check(stream_fault(&out, &target, 32, false));
        assert_eq!(tally.failed, 4);
    }
}
