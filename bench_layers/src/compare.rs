//! `run` (every workload, each in its own child process, into one file)
//! and `compare` (two such files against the bounds of `BENCHMARK.json`).

use crate::spec::{self, Metric, Spec};
use crate::{flag, parsed, stats};
use dmf_obs::json::{self, Json};
use dmf_obs::Table;
use std::process::{Command, ExitCode, Stdio};

/// The seed `run` uses unless told otherwise.
const DEFAULT_SEED: u64 = 2014;

/// `run --seed N --out FILE [--repeat K] [--traced]`: runs every workload
/// K times (seeds N, N+1, …), each run in a child process measuring the
/// contract's `run_seconds`, and writes all results to FILE.
///
/// # Errors
///
/// Bad flags, a child that fails or prints no result, or an unwritable
/// FILE.
pub fn run(args: &[String]) -> Result<ExitCode, String> {
    let seed: u64 = parsed(args, "--seed", Some(DEFAULT_SEED))?;
    let repeat: u64 = parsed(args, "--repeat", Some(1))?;
    let spec = spec::spec()?;
    let seconds = spec.run_seconds;
    let out = flag(args, "--out").ok_or("missing --out")?;
    let traced = args.iter().any(|a| a == "--traced");
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate myself: {e}"))?;
    let mut runs = Vec::new();
    for rep in 0..repeat {
        for workload in &spec.workloads {
            let seed = seed + rep;
            let output = Command::new(&exe)
                .args([
                    "--workload",
                    workload,
                    "--seed",
                    &seed.to_string(),
                    "--seconds",
                    &seconds.to_string(),
                ])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {workload}: {e}"))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let result = stdout.lines().last().unwrap_or("");
            if !output.status.success() || json::parse(result).is_err() {
                return Err(format!("{workload} (seed {seed}) failed: {}", output.status));
            }
            let digest =
                stdout.lines().find_map(|l| l.strip_prefix("output_digest ")).unwrap_or("");
            eprintln!("{workload} seed {seed}: {result}");
            runs.push(format!(
                "    {{\"workload\": \"{workload}\", \"seed\": {seed}, \"output_digest\": \"{digest}\", \"result\": {result}}}"
            ));
        }
    }
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let document = format!(
        "{{\n  \"trace\": {traced},\n  \"seconds\": {seconds},\n  \"parallelism\": {parallelism},\n  \"runs\": [\n{}\n  ]\n}}\n",
        runs.join(",\n")
    );
    std::fs::write(out, document).map_err(|e| format!("cannot write {out}: {e}"))?;
    Ok(ExitCode::SUCCESS)
}

/// One workload run read back from a `run` file.
#[derive(Debug)]
struct Record {
    workload: String,
    seed: u64,
    digest: String,
    attempted: f64,
    failed: f64,
    metrics: Json,
}

/// A `run` file: whether it is traced, how long each run measured, and
/// its runs.
#[derive(Debug)]
struct Runs {
    traced: bool,
    seconds: Option<f64>,
    records: Vec<Record>,
}

impl Runs {
    fn load(path: &str) -> Result<Runs, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        Runs::parse(&text, path)
    }

    /// Parses the text of a `run` file; `path` names it in errors.
    fn parse(text: &str, path: &str) -> Result<Runs, String> {
        let root = json::parse(text).map_err(|e| format!("{path}: {e}"))?;
        let Some(Json::Arr(runs)) = root.get("runs") else {
            return Err(format!("{path}: no runs"));
        };
        let records = runs
            .iter()
            .map(|r| {
                let result =
                    r.get("result").ok_or_else(|| format!("{path}: run without result"))?;
                let count = |name| result.get(name).and_then(spec::number).unwrap_or(0.0);
                Ok(Record {
                    workload: r.get("workload").and_then(Json::as_str).unwrap_or("").to_owned(),
                    seed: r.get("seed").and_then(Json::as_u64).unwrap_or(0),
                    digest: r.get("output_digest").and_then(Json::as_str).unwrap_or("").to_owned(),
                    attempted: count("attempted"),
                    failed: count("failed"),
                    metrics: result.get("metrics").cloned().unwrap_or(Json::Null),
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Runs {
            traced: root.get("trace") == Some(&Json::Bool(true)),
            seconds: root.get("seconds").and_then(spec::number),
            records,
        })
    }

    fn of<'a>(&'a self, workload: &'a str) -> impl Iterator<Item = &'a Record> + 'a {
        self.records.iter().filter(move |r| r.workload == workload)
    }

    fn values(&self, workload: &str, metric: &str) -> Vec<f64> {
        self.of(workload)
            .filter_map(|r| r.metrics.get(metric)?.get("value").and_then(spec::number))
            .collect()
    }

    fn failure_share(&self, workload: &str) -> f64 {
        let (failed, attempted) =
            self.of(workload).fold((0.0, 0.0), |(f, a), r| (f + r.failed, a + r.attempted));
        failed / attempted.max(1.0)
    }
}

/// The verdict on one metric of one workload.
fn verdict(metric: &Metric, parent: &[f64], change: &[f64]) -> (&'static str, f64) {
    let (p, c) = (stats::median(parent), stats::median(change));
    let worse =
        (if metric.lower_is_better { c - p } else { p - c }) / p.abs().max(f64::MIN_POSITIVE);
    let Some(bound) = metric.bound else { return ("info", worse) };
    let better = |a: f64, b: f64| if metric.lower_is_better { a < b } else { a > b };
    let all_better = change.iter().all(|&c| parent.iter().all(|&p| better(c, p)));
    if stats::spread(parent) > bound && !all_better {
        ("unresolved", worse)
    } else if worse > bound {
        ("REGRESSION", worse)
    } else {
        ("ok", worse)
    }
}

/// Two run files compare only when both are traced or both untraced, and
/// their runs measured equally long.
fn comparable(parent: &Runs, change: &Runs) -> Result<(), String> {
    if parent.traced != change.traced {
        return Err("cannot compare a traced run file with an untraced one".into());
    }
    if parent.seconds != change.seconds {
        return Err(format!(
            "cannot compare runs of {:?} s with runs of {:?} s",
            parent.seconds, change.seconds
        ));
    }
    Ok(())
}

/// `compare PARENT CHANGE`: prints one row per workload and metric and
/// fails on a regression past a bound, a larger failure share, or an
/// output digest that differs for the same workload and seed.
///
/// # Errors
///
/// Bad arguments or unreadable files.
pub fn compare(args: &[String]) -> Result<ExitCode, String> {
    let [parent, change] = args else {
        return Err("usage: bench_layers compare PARENT.json CHANGE.json".into());
    };
    let (parent, change) = (Runs::load(parent)?, Runs::load(change)?);
    comparable(&parent, &change)?;
    let spec: Spec = spec::spec()?;
    let mut table = Table::new([
        "workload", "metric", "unit", "parent", "change", "worse by", "spread", "bound", "verdict",
    ]);
    let mut failed = false;
    for workload in &spec.workloads {
        for metric in spec.metrics(parent.traced) {
            let (p, c) =
                (parent.values(workload, &metric.name), change.values(workload, &metric.name));
            if p.is_empty() || c.is_empty() {
                table.row([
                    workload.as_str(),
                    metric.name.as_str(),
                    metric.unit.as_str(),
                    "",
                    "",
                    "",
                    "",
                    "",
                    "missing",
                ]);
                failed = true;
                continue;
            }
            let (word, worse) = verdict(metric, &p, &c);
            failed |= word == "REGRESSION";
            table.row([
                workload.clone(),
                metric.name.clone(),
                metric.unit.clone(),
                format!("{:.4}", stats::median(&p)),
                format!("{:.4}", stats::median(&c)),
                format!("{:+.1}%", 100.0 * worse),
                format!("{:.1}%", 100.0 * stats::spread(&p)),
                metric.bound.map_or(String::new(), |b| format!("{:.0}%", 100.0 * b)),
                word.to_owned(),
            ]);
        }
        let (pf, cf) = (parent.failure_share(workload), change.failure_share(workload));
        if cf > pf {
            println!("{workload}: failure share rose from {pf:.6} to {cf:.6}");
            failed = true;
        }
        for c in change.of(workload) {
            if let Some(p) = parent.of(workload).find(|p| p.seed == c.seed && p.digest != c.digest)
            {
                println!(
                    "{workload} seed {}: output digest {} differs from {}",
                    c.seed, c.digest, p.digest
                );
                failed = true;
            }
        }
    }
    print!("{table}");
    println!("{}", if failed { "compare: FAILED" } else { "compare: ok" });
    Ok(if failed { ExitCode::FAILURE } else { ExitCode::SUCCESS })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(lower_is_better: bool, bound: Option<f64>) -> Metric {
        Metric { name: "m".into(), unit: "us".into(), lower_is_better, bound }
    }

    #[test]
    fn verdicts_apply_bound_and_spread() {
        let lower = metric(true, Some(0.1));
        let parent = [100.0, 101.0, 99.0, 100.0, 100.5];
        assert_eq!(verdict(&lower, &parent, &[104.0, 105.0, 103.0]).0, "ok");
        assert_eq!(verdict(&lower, &parent, &[120.0, 121.0, 119.0]).0, "REGRESSION");
        assert_eq!(verdict(&metric(false, Some(0.1)), &parent, &[80.0, 81.0]).0, "REGRESSION");
        let noisy = [50.0, 100.0, 150.0, 70.0, 130.0];
        assert_eq!(verdict(&lower, &noisy, &[120.0, 125.0]).0, "unresolved");
        assert_eq!(
            verdict(&lower, &noisy, &[10.0, 12.0]).0,
            "ok",
            "every change run beats every parent run"
        );
        assert_eq!(verdict(&metric(true, None), &parent, &[200.0]).0, "info");
    }

    #[test]
    fn only_equally_long_runs_of_the_same_kind_compare() {
        let file = |trace, seconds| {
            Runs::parse(
                &format!("{{\"trace\": {trace}, \"seconds\": {seconds}, \"runs\": []}}"),
                "f",
            )
            .unwrap()
        };
        assert!(comparable(&file(false, 10), &file(false, 10)).is_ok());
        assert!(comparable(&file(false, 10), &file(false, 3)).unwrap_err().contains("3"));
        assert!(comparable(&file(false, 10), &file(true, 10)).unwrap_err().contains("traced"));
    }
}
