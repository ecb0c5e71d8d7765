//! `bench_layers`: the end-to-end and per-layer benchmark of dmfstream.
//!
//! ```text
//! bench_layers --workload NAME --seed N --seconds S --trace 0|1
//! bench_layers run --seed N --out FILE [--repeat K] [--traced]
//! bench_layers compare PARENT.json CHANGE.json
//! ```
//!
//! The first form runs one workload and prints `output_digest <hex>`,
//! then, as its last line, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}` holding every
//! end-to-end metric of `BENCHMARK.json` (`--trace 0`) or every per-layer
//! metric (`--trace 1`). `run` runs every workload, each in its own child
//! process, one at a time, and collects the results in one file;
//! `compare` applies the bounds of `BENCHMARK.json` to two such files.
//! See `README.md` next to this crate.

mod compare;
mod inputs;
mod layers;
mod offline;
mod serve;
mod spec;
mod stats;

use inputs::Sizes;
use std::process::ExitCode;

/// One workload run's settings.
#[derive(Debug, Clone, Copy)]
pub struct Run {
    /// Seed all inputs are generated from.
    pub seed: u64,
    /// Measured time, seconds.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
    /// Input sizes.
    pub sizes: Sizes,
}

/// What a workload run produced.
#[derive(Debug)]
pub struct Outcome {
    /// Outputs checked.
    pub attempted: u64,
    /// Outputs that were wrong or missing.
    pub failed: u64,
    /// Digest of the outputs, equal across commits that compute the same
    /// answers for the same seed.
    pub digest: u64,
    /// Measured metrics by name. A per-layer metric the workload does not
    /// exercise may be left out; it is reported as 0.
    pub metrics: Vec<(&'static str, f64)>,
}

/// Runs one workload.
///
/// # Errors
///
/// An unknown workload name, or a failure that stops the workload from
/// measuring anything (the server would not start, say).
pub fn run_workload(name: &str, run: &Run) -> Result<Outcome, String> {
    match name {
        "corpus_batch" => offline::corpus_batch(run),
        "pcr_storage" => offline::pcr_storage(run),
        "stream_sim" => offline::stream_sim(run),
        "serve_mixed" => {
            let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
            serve::serve_mixed(run, &serve::Launcher::Binary(exe.with_file_name("dmfstream")))
        }
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// The result line: every metric of the run's kind, in contract order,
/// with its unit.
///
/// # Errors
///
/// A missing end-to-end metric, a metric the contract does not list, or
/// a value that is not a finite number.
pub fn result_line(outcome: &Outcome, spec: &spec::Spec, traced: bool) -> Result<String, String> {
    let listed = spec.metrics(traced);
    if let Some((name, _)) =
        outcome.metrics.iter().find(|(n, _)| !listed.iter().any(|m| m.name == *n))
    {
        return Err(format!("metric {name} is not listed in BENCHMARK.json"));
    }
    let mut body = Vec::new();
    for metric in listed {
        let value = match outcome.metrics.iter().find(|(n, _)| *n == metric.name) {
            Some((_, v)) if v.is_finite() => *v,
            Some((_, v)) => return Err(format!("{} is not a number: {v}", metric.name)),
            None if traced => 0.0,
            None => return Err(format!("workload did not report {}", metric.name)),
        };
        body.push(format!(
            "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            metric.name, metric.unit
        ));
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0 && outcome.attempted > 0,
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    ))
}

/// The value following `name` in `args`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter().position(|a| a == name).and_then(|i| args.get(i + 1)).map(String::as_str)
}

/// `name`'s value parsed, or `default` when absent.
fn parsed<T: std::str::FromStr>(
    args: &[String],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match (flag(args, name), default) {
        (Some(text), _) => text.parse().map_err(|_| format!("bad value for {name}: {text:?}")),
        (None, Some(value)) => Ok(value),
        (None, None) => Err(format!("missing {name}")),
    }
}

fn workload_main(args: &[String]) -> Result<ExitCode, String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    let run = Run {
        seed: parsed(args, "--seed", None)?,
        seconds: parsed(args, "--seconds", None)?,
        trace: match flag(args, "--trace") {
            Some("0") => false,
            Some("1") => true,
            other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
        },
        sizes: Sizes::FULL,
    };
    let outcome = run_workload(name, &run)?;
    let line = result_line(&outcome, &spec::spec()?, run.trace)?;
    println!("output_digest {:016x}", outcome.digest);
    println!("{line}");
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => compare::run(&args[1..]),
        Some("compare") => compare::compare(&args[1..]),
        _ => workload_main(&args),
    };
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        ExitCode::from(2)
    })
}

/// Serialises tests that switch the process-wide `dmf-obs` recorder.
#[cfg(test)]
pub static GLOBAL_RECORDER: std::sync::Mutex<()> = std::sync::Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    fn emitted_names(line: &str) -> Vec<String> {
        let value = dmf_obs::json::parse(line).unwrap();
        match value.get("metrics") {
            Some(dmf_obs::json::Json::Obj(map)) => map.keys().cloned().collect(),
            _ => panic!("no metrics in {line}"),
        }
    }

    #[test]
    fn each_workload_at_tiny_size_emits_exactly_the_listed_metrics() {
        let _guard = GLOBAL_RECORDER.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let spec = spec::spec().unwrap();
        for traced in [false, true] {
            let mut listed: Vec<String> =
                spec.metrics(traced).iter().map(|m| m.name.clone()).collect();
            listed.sort();
            for name in &spec.workloads {
                let run = Run { seed: 5, seconds: 0.3, trace: traced, sizes: Sizes::TINY };
                let outcome = if name == "serve_mixed" {
                    serve::serve_mixed(&run, &serve::Launcher::InProcess).unwrap()
                } else {
                    run_workload(name, &run).unwrap()
                };
                assert_eq!(outcome.failed, 0, "{name} traced={traced}");
                let line = result_line(&outcome, &spec, traced).unwrap();
                assert_eq!(emitted_names(&line), listed, "{name} traced={traced}");
                let parsed = dmf_obs::json::parse(&line).unwrap();
                assert_eq!(parsed.get("correct"), Some(&dmf_obs::json::Json::Bool(true)));
            }
        }
    }

    #[test]
    fn result_line_rejects_missing_or_unlisted_metrics() {
        let spec = spec::spec().unwrap();
        let outcome =
            Outcome { attempted: 1, failed: 0, digest: 0, metrics: vec![("p50_us", 1.0)] };
        assert!(result_line(&outcome, &spec, false).unwrap_err().contains("did not report"));
        let outcome = Outcome { attempted: 1, failed: 0, digest: 0, metrics: vec![("bogus", 1.0)] };
        assert!(result_line(&outcome, &spec, true).unwrap_err().contains("not listed"));
    }
}
