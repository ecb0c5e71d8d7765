//! Small numeric helpers: quantiles, per-slot minima over rounds, the
//! output digest and peak resident memory.

use dmf_hash::Fnv64;
use std::hash::Hasher;
use std::time::Instant;

/// The `q`-quantile of `values` (`0 <= q <= 1`), interpolating linearly
/// between the closest ranks; 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The three quartiles exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default "exclusive" method)
/// computes them, so spreads reported here match that tool. `None` for
/// fewer than two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    if ld < 2 {
        return None;
    }
    let (n, m) = (4usize, ld + 1);
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..n) {
        let j = (i * m / n).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * n) as f64;
        *slot = (data[j - 1] * (n as f64 - delta) + data[j] * delta) / n as f64;
    }
    Some(out)
}

/// Interquartile distance as a share of the median (0 when undefined).
pub fn spread(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([q1, q2, q3]) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// Per-slot minimum times over repeated rounds.
///
/// Interleaved rounds keep each request's fastest time, so a scheduler
/// interruption costs one sample of one request instead of a whole sweep;
/// on a small shared box whole-sweep walls swing far more than the cost
/// being measured.
#[derive(Debug)]
pub struct Rounds {
    /// Fastest time of each slot over all rounds, nanoseconds.
    pub minima: Vec<f64>,
    /// Rounds run.
    pub rounds: usize,
}

impl Rounds {
    /// Runs `op(slot)` (which returns the slot's time in nanoseconds) over
    /// every slot, round after round, until at least `min_rounds` rounds
    /// ran and `seconds` have passed.
    pub fn measure(
        slots: usize,
        min_rounds: usize,
        seconds: f64,
        mut op: impl FnMut(usize) -> f64,
    ) -> Rounds {
        let mut rounds = Rounds { minima: vec![f64::INFINITY; slots], rounds: 0 };
        let start = Instant::now();
        while rounds.rounds < min_rounds || start.elapsed().as_secs_f64() < seconds {
            for (slot, best) in rounds.minima.iter_mut().enumerate() {
                *best = best.min(op(slot));
            }
            rounds.rounds += 1;
        }
        rounds
    }

    /// Median slot time, microseconds.
    pub fn p50_us(&self) -> f64 {
        median(&self.minima) / 1e3
    }

    /// 90th-percentile slot time, microseconds.
    pub fn p90_us(&self) -> f64 {
        quantile(&self.minima, 0.9) / 1e3
    }

    /// `items` (the work of all slots) per second of the slots' summed
    /// minima.
    pub fn per_second(&self, items: usize) -> f64 {
        items as f64 / (self.minima.iter().sum::<f64>() / 1e9).max(f64::MIN_POSITIVE)
    }
}

/// FNV-1a digest of a workload's outputs; equal digests mean equal
/// outputs for the same seed.
#[derive(Debug, Default)]
pub struct Digest(Fnv64);

impl Digest {
    /// Folds one output record (length-delimited, so records cannot run
    /// into each other).
    pub fn add(&mut self, record: &str) {
        self.0.write_u64(record.len() as u64);
        self.0.write(record.as_bytes());
    }

    /// The digest so far.
    pub fn value(&self) -> u64 {
        self.0.finish()
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` (this process when
/// `None`), megabytes; 0 where `/proc` is unavailable.
pub fn peak_rss_mb(pid: Option<u32>) -> f64 {
    let path = pid.map_or_else(|| "/proc/self/status".to_owned(), |p| format!("/proc/{p}/status"));
    std::fs::read_to_string(path)
        .ok()
        .and_then(|status| {
            status.lines().find_map(|l| {
                l.strip_prefix("VmHWM:")?.trim().trim_end_matches("kB").trim().parse::<f64>().ok()
            })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn quantile_interpolates() {
        assert_eq!(quantile(&[4.0, 1.0, 3.0, 2.0], 0.5), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn rounds_keep_per_slot_minima() {
        let mut calls = 0;
        let r = Rounds::measure(2, 3, 0.0, |slot| {
            calls += 1;
            (10 * (slot + 1) + calls) as f64
        });
        assert_eq!(r.rounds, 3);
        assert_eq!(r.minima, vec![11.0, 22.0]);
        assert_eq!(r.per_second(6), 6.0 / 33e-9);
    }

    #[test]
    fn this_process_has_a_peak_rss() {
        assert!(peak_rss_mb(None) > 0.0);
    }
}
