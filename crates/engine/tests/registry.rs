//! Registry-dispatch guarantees of the pluggable pipeline:
//!
//! * every (algorithm, scheduler) pair plans the paper's five Table 2
//!   protocols byte-identically whether the config is built from the
//!   constant handles (`AlgorithmId::MINMIX`, `SchedulerKind::Srs`, …) or
//!   from handles resolved by wire key;
//! * each `MetaStage`-wrapped stage emits exactly one span per run under
//!   its legacy name, correctly parented (`stage_build_forest` and
//!   `stage_schedule` nest under `stage_split_passes`);
//! * a brand-new algorithm registered from the outside — no edits to the
//!   engine — reaches
//!   `PlanRequest::with_algorithm` and `plan_batch`.

// Test target: the workspace `unwrap_used`/`expect_used`/`panic` deny wall
// applies to library code only (see Cargo.toml).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
use dmf_engine::{plan_batch, BatchOptions, EngineConfig, PlanRequest, StreamingEngine};
use dmf_mixalgo::{
    AlgorithmEntry, AlgorithmId, Capabilities, MinMix, MixAlgoError, MixingAlgorithm,
    MixingAlgorithmRegistry, Template,
};
use dmf_ratio::TargetRatio;
use dmf_sched::SchedulerKind;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Every test here plans with the process-global recorder enabled, so one
/// test's planning moves another's counter readings. Each test holds this
/// lock for its whole body.
static GLOBAL_RECORDER: Mutex<()> = Mutex::new(());

fn exclusive() -> MutexGuard<'static, ()> {
    GLOBAL_RECORDER.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The five Table 2 bioprotocol ratios (Ex.1–Ex.5, all `L = 256`).
fn table2_ratios() -> Vec<TargetRatio> {
    [
        vec![26, 21, 2, 2, 3, 3, 199],
        vec![128, 123, 5],
        vec![25, 5, 5, 5, 5, 13, 13, 25, 1, 159],
        vec![9, 17, 26, 9, 195],
        vec![57, 28, 6, 6, 6, 3, 150],
    ]
    .into_iter()
    .map(|parts| TargetRatio::new(parts).unwrap())
    .collect()
}

/// A plan's full observable surface: summary line, inputs, and per-pass
/// forest/schedule figures.
fn render(plan: &dmf_engine::StreamPlan) -> String {
    let mut out = format!("{plan}\nI[] = {:?}\n", plan.inputs);
    for pass in &plan.passes {
        out.push_str(&format!(
            "pass: D'={} Tc={} q={} nodes={}\n",
            pass.demand,
            pass.cycles(),
            pass.storage_units(),
            pass.forest.node_count()
        ));
    }
    out
}

#[test]
fn resolved_handles_plan_byte_identically_to_constant_handles() {
    let _guard = exclusive();
    for algorithm in AlgorithmId::BASELINES {
        for scheduler in SchedulerKind::ALL {
            let via_constants =
                EngineConfig::default().with_algorithm(algorithm).with_scheduler(scheduler);
            let (algo_key, sched_key) = (algorithm.key(), scheduler.key());
            let via_keys = EngineConfig::default()
                .with_algorithm(MixingAlgorithmRegistry::resolve(algo_key).unwrap())
                .with_scheduler(SchedulerKind::resolve(sched_key).unwrap());
            assert_eq!(via_constants, via_keys);
            for ratio in table2_ratios() {
                let constant_plan = StreamingEngine::new(via_constants).plan(&ratio, 32).unwrap();
                let resolved_plan = StreamingEngine::new(via_keys).plan(&ratio, 32).unwrap();
                assert_eq!(
                    render(&constant_plan),
                    render(&resolved_plan),
                    "{algo_key}+{sched_key} diverged on {:?}",
                    ratio.parts()
                );
            }
        }
    }
}

#[test]
fn every_stage_emits_one_span_under_its_legacy_name() {
    let _guard = exclusive();
    let recorder = dmf_obs::global();
    recorder.set_enabled(true);
    let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
    let root = recorder.span("test_root");
    let (trace_id, root_id) = root.ids().unwrap();
    StreamingEngine::new(EngineConfig::default()).plan(&target, 20).unwrap();
    drop(root);
    let spans = recorder.trace_spans(trace_id);

    let find = |name: &str| -> Vec<&dmf_obs::SpanRecord> {
        spans.iter().filter(|s| s.name == name).collect()
    };
    // Exactly one span per stage, under the legacy stage names.
    let engine_plan = find("engine_plan");
    assert_eq!(engine_plan.len(), 1, "{spans:#?}");
    for stage in ["stage_build_tree", "stage_build_forest", "stage_schedule", "stage_split_passes"]
    {
        assert_eq!(find(stage).len(), 1, "expected exactly one {stage} span\n{spans:#?}");
    }
    // Parenting: engine_plan under the root; build_tree and split_passes
    // under engine_plan; the per-pass forest/schedule stages under
    // split_passes (SplitPasses drives them through their own MetaStage).
    assert_eq!(engine_plan[0].parent_id, root_id);
    let engine_id = engine_plan[0].span_id;
    assert_eq!(find("stage_build_tree")[0].parent_id, engine_id);
    let split = find("stage_split_passes")[0];
    assert_eq!(split.parent_id, engine_id);
    assert_eq!(find("stage_build_forest")[0].parent_id, split.span_id);
    assert_eq!(find("stage_schedule")[0].parent_id, split.span_id);
    // The base-tree construction span stays nested inside its stage.
    assert_eq!(
        find("mixalgo_build").first().map(|s| s.parent_id),
        Some(find("stage_build_tree")[0].span_id)
    );
}

#[test]
fn per_stage_counters_track_runs() {
    let _guard = exclusive();
    let recorder = dmf_obs::global();
    recorder.set_enabled(true);
    let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
    let before = recorder.counter("stage_build_tree");
    StreamingEngine::new(EngineConfig::default()).plan(&target, 20).unwrap();
    assert_eq!(recorder.counter("stage_build_tree"), before + 1);
}

/// A test-only algorithm that wraps MinMix under a new name — the
/// "register an algorithm without touching the engine" walkthrough of
/// DESIGN.md §17, exercised end to end.
struct MirrorMix;

impl MixingAlgorithm for MirrorMix {
    fn name(&self) -> &'static str {
        "MIRROR"
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities::SDST_ONLY
    }

    fn build_template(&self, target: &TargetRatio) -> Result<Template, MixAlgoError> {
        MinMix.build_template(target)
    }
}

#[test]
fn an_outside_algorithm_reaches_the_engine_through_the_registry() {
    let _guard = exclusive();
    static MIRROR: MirrorMix = MirrorMix;
    MixingAlgorithmRegistry::register(AlgorithmEntry {
        id: AlgorithmId::new("mirror", "MIRROR", &MIRROR),
        description: "test-only MinMix mirror",
        aliases: &["looking-glass"],
    })
    .unwrap();

    // Resolvable by key and alias; listed alongside the seeded baselines.
    let id = MixingAlgorithmRegistry::resolve("looking-glass").unwrap();
    assert_eq!(id.key(), "mirror");
    assert!(MixingAlgorithmRegistry::entries().iter().any(|e| e.id.key() == "mirror"));

    // Reaches plan_batch through PlanRequest::with_algorithm, and plans
    // byte-identically to the MinMix it mirrors.
    let target = TargetRatio::new(vec![26, 21, 2, 2, 3, 3, 199]).unwrap();
    let request = PlanRequest::new(target.clone(), 32).with_algorithm("mirror").unwrap();
    assert_eq!(request.config.algorithm.key(), "mirror");
    let plans = plan_batch(&[request], &BatchOptions::new());
    let mirrored = plans.into_iter().next().unwrap().unwrap();
    let minmix = StreamingEngine::new(EngineConfig::default()).plan(&target, 32).unwrap();
    assert_eq!(render(&mirrored), render(&minmix));

    // Unknown names keep failing typed, now listing the newcomer too.
    let err = PlanRequest::new(target, 32).with_algorithm("nonesuch").unwrap_err();
    match err {
        dmf_engine::EngineError::UnknownAlgorithm { name, known } => {
            assert_eq!(name, "nonesuch");
            assert!(known.contains(&"mirror") && known.contains(&"mm"));
        }
        other => panic!("expected UnknownAlgorithm, got {other:?}"),
    }
}
