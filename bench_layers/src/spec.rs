//! The benchmark's contract, read from the repository's `BENCHMARK.json`:
//! workload names, and each metric's name, unit, direction and bound.
//!
//! The file is compiled in, so the program and the contract cannot drift
//! apart: a workload that reports a metric the file does not list, or
//! misses one it does, fails instead of printing a result.

use dmf_obs::json::{self, Json};

const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

/// One metric of the contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, e.g. `p50_us` or `sched.oms_us`.
    pub name: String,
    /// Unit, e.g. `us`.
    pub unit: String,
    /// Whether a lower value is better.
    pub lower_is_better: bool,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

/// The parsed contract.
#[derive(Debug, Clone, PartialEq)]
pub struct Spec {
    /// Seconds one workload run measures.
    pub run_seconds: f64,
    /// Workload names, in file order.
    pub workloads: Vec<String>,
    /// Metrics reported by untraced runs.
    pub end_to_end: Vec<Metric>,
    /// Metrics reported by traced runs.
    pub per_layer: Vec<Metric>,
}

impl Spec {
    /// The metrics a run reports: per-layer when traced, else end-to-end.
    pub fn metrics(&self, traced: bool) -> &[Metric] {
        if traced {
            &self.per_layer
        } else {
            &self.end_to_end
        }
    }
}

/// A JSON number as `f64`.
pub fn number(value: &Json) -> Option<f64> {
    match value {
        Json::Int(v) => Some(*v as f64),
        Json::Num(v) => Some(*v),
        _ => None,
    }
}

fn text<'a>(value: &'a Json, key: &str) -> Result<&'a str, String> {
    value.get(key).and_then(Json::as_str).ok_or_else(|| format!("missing string {key:?}"))
}

fn list<'a>(value: &'a Json, key: &str) -> Result<&'a [Json], String> {
    match value.get(key) {
        Some(Json::Arr(items)) => Ok(items),
        _ => Err(format!("missing array {key:?}")),
    }
}

fn metric(value: &Json) -> Result<Metric, String> {
    Ok(Metric {
        name: text(value, "name")?.to_owned(),
        unit: text(value, "unit")?.to_owned(),
        lower_is_better: text(value, "better")? == "lower",
        bound: value.get("bound").and_then(number),
    })
}

/// Parses a `BENCHMARK.json` document.
///
/// # Errors
///
/// Malformed JSON or a missing member.
pub fn parse(document: &str) -> Result<Spec, String> {
    let root = json::parse(document).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    Ok(Spec {
        run_seconds: root.get("run_seconds").and_then(number).ok_or("missing run_seconds")?,
        workloads: list(&root, "workloads")?
            .iter()
            .map(|w| text(w, "name").map(str::to_owned))
            .collect::<Result<_, _>>()?,
        end_to_end: list(&root, "end_to_end")?.iter().map(metric).collect::<Result<_, _>>()?,
        per_layer: list(&root, "per_layer")?.iter().map(metric).collect::<Result<_, _>>()?,
    })
}

/// The compiled-in contract.
///
/// # Errors
///
/// The compiled-in `BENCHMARK.json` does not parse.
pub fn spec() -> Result<Spec, String> {
    parse(BENCHMARK_JSON)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contract_lists_four_workloads_and_setup_time() {
        let spec = spec().unwrap();
        assert_eq!(spec.workloads, ["corpus_batch", "pcr_storage", "stream_sim", "serve_mixed"]);
        let setup = spec.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!(setup.unit, "s");
        assert!(setup.lower_is_better);
        let largest = spec.end_to_end.iter().filter_map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, Some(largest), "setup_s carries the largest bound");
        assert!(spec.per_layer.iter().all(|m| m.bound.is_none()));
    }
}
