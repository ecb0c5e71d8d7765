//! Per-layer attribution for traced runs.
//!
//! A traced op runs under a `bench.op` root span with the process-wide
//! `dmf-obs` recorder switched on. The benchmark's own spans wrap its
//! calls into each layer's public functions (`engine.build_tree`,
//! `chip.build`, `sim.run`, …); the spans the program already emits
//! (`mixalgo_build`, `forest_build`, `sched_oms`, the `stage_*` records, …)
//! nest inside them. [`Tracer`] folds the recorded trees with
//! [`ProfileReport`] and sums self time and calls by span name; [`LAYERS`]
//! maps span names to per-layer metrics. Self time partitions the root's
//! time, so whatever no listed span covers is reported as
//! `trace.unattributed_pct`.

use dmf_obs::{ProfileNode, ProfileReport};
use std::collections::HashMap;
use std::time::Instant;

/// Per-layer self-time metrics (microseconds per op) and the span names
/// whose self time each one sums.
pub const LAYERS: &[(&str, &[&str])] = &[
    ("mixalgo.build_us", &["mixalgo_build"]),
    ("forest.build_us", &["forest_build"]),
    ("sched.schedule_us", &["sched_srs", "sched_mms"]),
    ("sched.storage_us", &["sched_storage"]),
    ("sched.oms_us", &["sched_oms"]),
    ("engine.build_tree_us", &["engine.build_tree", "stage_build_tree"]),
    (
        "engine.split_passes_us",
        &["engine.split_passes", "stage_split_passes", "stage_build_forest", "stage_schedule"],
    ),
    ("engine.facade_us", &["engine.preflight", "engine.into_plan"]),
    ("engine.cache_us", &["engine.cache_lookup", "engine.cache_store"]),
    ("engine.realize_us", &["engine.realize", "engine_realize"]),
    ("chip.build_us", &["chip.build"]),
    ("sim.run_us", &["sim.run", "sim_execute"]),
];

/// Name of the root span of every traced op.
const ROOT: &str = "bench.op";

/// Ops between folds of the recorder's bounded span window.
const FOLD_EVERY: u64 = 16;

#[derive(Debug, Default, Clone, Copy)]
struct Totals {
    calls: u64,
    self_ns: u64,
    total_ns: u64,
}

/// Runs ops under the global recorder and accumulates per-name span
/// totals across them.
#[derive(Debug, Default)]
pub struct Tracer {
    by_name: HashMap<String, Totals>,
    ops: u64,
    dropped: u64,
}

impl Tracer {
    /// A tracer over a fresh, disabled global recorder.
    pub fn new() -> Tracer {
        let recorder = dmf_obs::global();
        recorder.set_enabled(false);
        recorder.reset();
        Tracer::default()
    }

    /// Runs `op` traced under a `bench.op` root span; returns its result
    /// and wall time in nanoseconds.
    pub fn op<T>(&mut self, op: impl FnOnce() -> T) -> (T, f64) {
        let recorder = dmf_obs::global();
        recorder.set_enabled(true);
        let start = Instant::now();
        let out = {
            let _root = dmf_obs::span!(ROOT);
            op()
        };
        let ns = start.elapsed().as_nanos() as f64;
        recorder.set_enabled(false);
        self.ops += 1;
        if self.ops.is_multiple_of(FOLD_EVERY) {
            self.fold();
        }
        (out, ns)
    }

    /// Moves the recorder's spans into the totals.
    fn fold(&mut self) {
        let recorder = dmf_obs::global();
        let report = ProfileReport::from_snapshot(&recorder.snapshot());
        recorder.reset();
        self.dropped += report.spans_dropped;
        fn walk(node: &ProfileNode, into: &mut HashMap<String, Totals>) {
            let t = into.entry(node.name.clone()).or_default();
            t.calls += node.calls;
            t.self_ns += node.self_ns;
            t.total_ns += node.total_ns;
            for child in &node.children {
                walk(child, into);
            }
        }
        for root in &report.roots {
            walk(root, &mut self.by_name);
        }
    }

    /// Finishes tracing; the returned summary answers per-op questions.
    pub fn finish(mut self) -> Traced {
        self.fold();
        Traced { by_name: self.by_name, ops: self.ops, dropped: self.dropped }
    }
}

/// Span totals of a finished traced run.
#[derive(Debug)]
pub struct Traced {
    by_name: HashMap<String, Totals>,
    /// Ops traced.
    pub ops: u64,
    /// Spans lost to the recorder's bounded window; non-zero means the
    /// attribution is incomplete.
    pub dropped: u64,
}

impl Traced {
    fn get(&self, name: &str) -> Totals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Spans named `name` per op.
    pub fn calls_per_op(&self, name: &str) -> f64 {
        self.get(name).calls as f64 / self.ops.max(1) as f64
    }

    /// Total time of the spans named `name`, nanoseconds.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.get(name).total_ns
    }

    /// Self time of the spans named `name` per op, nanoseconds.
    pub fn self_ns_per_op(&self, name: &str) -> f64 {
        self.get(name).self_ns as f64 / self.ops.max(1) as f64
    }

    /// Every [`LAYERS`] metric, then `trace.unattributed_pct`: the share
    /// of the traced op time that no listed span covers.
    pub fn layer_metrics(&self) -> Vec<(&'static str, f64)> {
        let ops = self.ops.max(1) as f64;
        let mut attributed = 0u64;
        let mut out = Vec::new();
        for (metric, names) in LAYERS {
            let self_ns: u64 = names.iter().map(|n| self.get(n).self_ns).sum();
            attributed += self_ns;
            out.push((*metric, self_ns as f64 / ops / 1e3));
        }
        let root = self.get(ROOT).total_ns.max(1) as f64;
        out.push(("trace.unattributed_pct", 100.0 * (root - attributed as f64).max(0.0) / root));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_summed_by_name_and_attributed_by_layer() {
        let _guard =
            crate::GLOBAL_RECORDER.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let mut tracer = Tracer::new();
        for _ in 0..20 {
            tracer.op(|| {
                let _a = dmf_obs::span!("chip.build");
                let _b = dmf_obs::span!("sim_execute");
                std::hint::black_box((0..1000).sum::<u64>())
            });
        }
        let traced = tracer.finish();
        assert_eq!(traced.ops, 20);
        assert_eq!(traced.dropped, 0);
        assert_eq!(traced.calls_per_op("chip.build"), 1.0);
        assert_eq!(traced.calls_per_op("sim_execute"), 1.0);
        let metrics = traced.layer_metrics();
        assert_eq!(metrics.len(), LAYERS.len() + 1);
        let get = |name| metrics.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(get("sim.run_us") > 0.0);
        assert_eq!(get("forest.build_us"), 0.0);
        let unattributed = get("trace.unattributed_pct");
        assert!((0.0..100.0).contains(&unattributed), "{unattributed}");
    }
}
