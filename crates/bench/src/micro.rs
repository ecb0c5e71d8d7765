//! Std-only micro-benchmark harness.
//!
//! The build is offline, so `bench_plan` uses this module instead of
//! Criterion.
//! Each benchmark warms up, picks an iteration count targeting a fixed
//! batch duration, then reports min / mean / max per-iteration wall time
//! over several batches through the shared [`dmf_obs::Table`] writer.

use dmf_obs::{fmt_ns, Table};
use std::hint::black_box;
use std::time::Instant;

/// Wall time budget for sizing one measurement batch.
const TARGET_BATCH_NS: u64 = 20_000_000;
/// Number of measured batches per benchmark.
const BATCHES: usize = 7;
/// Iteration count ceiling, keeping total runtime bounded for fast closures.
const MAX_ITERS: u64 = 100_000;

/// Per-benchmark timing statistics, per iteration, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MicroStats {
    /// Iterations executed per measured batch.
    pub iters: u64,
    /// Fastest batch, per iteration.
    pub min_ns: u64,
    /// Mean over all measured batches, per iteration.
    pub mean_ns: u64,
    /// Slowest batch, per iteration.
    pub max_ns: u64,
}

/// A named suite of micro-benchmarks that prints one summary table.
pub struct MicroBench {
    suite: &'static str,
    rows: Vec<(String, MicroStats)>,
}

impl MicroBench {
    /// Opens a suite; `suite` heads the printed output.
    pub fn new(suite: &'static str) -> Self {
        MicroBench { suite, rows: Vec::new() }
    }

    /// Runs `f` under the harness and records it as `id`.
    pub fn bench<T, F: FnMut() -> T>(&mut self, id: impl Into<String>, mut f: F) -> MicroStats {
        let id = id.into();
        // Warm-up and calibration: time single calls until the budget or a
        // call count cap is reached, then derive the batch iteration count.
        let calib = Instant::now();
        let mut calls = 0u64;
        while calib.elapsed().as_nanos() < TARGET_BATCH_NS as u128 && calls < 1_000 {
            black_box(f());
            calls += 1;
        }
        let per_call = (calib.elapsed().as_nanos() as u64 / calls.max(1)).max(1);
        let iters = (TARGET_BATCH_NS / per_call).clamp(1, MAX_ITERS);

        let mut batch_ns = Vec::with_capacity(BATCHES);
        for _ in 0..BATCHES {
            let t = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            batch_ns.push(t.elapsed().as_nanos() as u64 / iters);
        }
        let stats = MicroStats {
            iters,
            min_ns: batch_ns.iter().copied().min().unwrap_or(0),
            mean_ns: batch_ns.iter().sum::<u64>() / batch_ns.len().max(1) as u64,
            max_ns: batch_ns.iter().copied().max().unwrap_or(0),
        };
        eprintln!("  {id}: {} per iter ({iters} iters/batch)", fmt_ns(stats.mean_ns));
        self.rows.push((id, stats));
        stats
    }

    /// Prints the suite's summary table to stdout.
    pub fn finish(self) {
        let mut table = Table::new(["benchmark", "iters", "min", "mean", "max"]);
        for (id, s) in &self.rows {
            table.row([
                id.clone(),
                s.iters.to_string(),
                fmt_ns(s.min_ns),
                fmt_ns(s.mean_ns),
                fmt_ns(s.max_ns),
            ]);
        }
        println!("{} ({} batches per benchmark)", self.suite, BATCHES);
        println!("{table}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn harness_measures_and_reports() {
        let mut b = MicroBench::new("test-suite");
        let stats = b.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..64u64 {
                acc = acc.wrapping_add(i * i);
            }
            acc
        });
        assert!(stats.iters >= 1);
        assert!(stats.min_ns <= stats.mean_ns && stats.mean_ns <= stats.max_ns);
        assert_eq!(b.rows.len(), 1);
    }
}
