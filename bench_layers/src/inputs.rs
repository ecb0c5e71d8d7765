//! Workload inputs. Every function here is a pure function of the seed
//! and the size: the same seed gives the same inputs, and the program
//! under test receives only what these functions generate.

use dmf_engine::{EngineConfig, EngineError, PlanRequest, StreamingEngine};
use dmf_ratio::TargetRatio;
use dmf_rng::{Rng, SeedableRng, SliceRandom, StdRng};
use dmf_workloads::protocols::{table2_examples, PCR_MASTER_MIX_PERCENT};
use dmf_workloads::synthetic::sampled_corpus;

/// How much input each workload generates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sizes {
    /// Corpus ratios of `corpus_batch` (each planned at four demands).
    pub corpus_ratios: usize,
    /// Seeded demands per (target, q') pair of `pcr_storage`.
    pub pcr_demands_per_pair: usize,
    /// Corpus ratios of `stream_sim`, next to Ex.1–Ex.5.
    pub stream_ratios: usize,
    /// Corpus ratios behind the `serve_mixed` key space (four demands
    /// each).
    pub serve_ratios: usize,
}

impl Sizes {
    /// The benchmark's sizes.
    pub const FULL: Sizes = Sizes {
        corpus_ratios: 3000,
        pcr_demands_per_pair: 32,
        stream_ratios: 250,
        serve_ratios: 1024,
    };
    /// Smoke-test sizes.
    pub const TINY: Sizes =
        Sizes { corpus_ratios: 12, pcr_demands_per_pair: 1, stream_ratios: 2, serve_ratios: 8 };
}

/// Demands every `corpus_batch` ratio is planned at.
pub const CORPUS_DEMANDS: [u64; 4] = [2, 16, 32, 64];

/// `corpus_batch`: seeded corpus ratios, each at every [`CORPUS_DEMANDS`]
/// value, under the default configuration.
pub fn corpus_batch(seed: u64, sizes: &Sizes) -> Vec<PlanRequest> {
    sampled_corpus(sizes.corpus_ratios, seed)
        .into_iter()
        .flat_map(|ratio| CORPUS_DEMANDS.map(|d| PlanRequest::new(ratio.clone(), d)))
        .collect()
}

/// The paper's Table 4 cells at d = 4 (D, q', passes, cycles, waste),
/// planned with three mixers.
pub const TABLE4_D4: [(u64, usize, usize, u64, u64); 12] = [
    (2, 3, 1, 4, 6),
    (2, 5, 1, 4, 6),
    (2, 7, 1, 4, 6),
    (16, 3, 2, 10, 7),
    (16, 5, 1, 7, 0),
    (16, 7, 1, 7, 0),
    (20, 3, 2, 11, 5),
    (20, 5, 1, 11, 5),
    (20, 7, 1, 11, 5),
    (32, 3, 3, 17, 7),
    (32, 5, 1, 14, 0),
    (32, 7, 1, 14, 0),
];

/// Storage budgets `q'` of `pcr_storage`.
pub const PCR_LIMITS: [usize; 4] = [3, 5, 7, 9];

/// Mixers of every `pcr_storage` request (Table 4 uses three).
pub const PCR_MIXERS: usize = 3;

/// One storage-limited planning request, with the paper's
/// `(passes, cycles, waste)` when it is a Table 4 cell.
#[derive(Debug, Clone, PartialEq)]
pub struct PcrRequest {
    /// Engine configuration: three mixers and the request's `q'`.
    pub config: EngineConfig,
    /// The target ratio.
    pub target: TargetRatio,
    /// The demand `D`.
    pub demand: u64,
    /// The paper's Table 4 cell, if this request is one.
    pub paper: Option<(usize, u64, u64)>,
}

/// The PCR master mix at accuracy `d`.
fn pcr(d: u32) -> Result<TargetRatio, String> {
    TargetRatio::paper_approximate(&PCR_MASTER_MIX_PERCENT, d)
        .map_err(|e| format!("PCR master mix at d={d}: {e}"))
}

/// `pcr_storage`: the twelve Table 4 cells at d = 4, then seeded even
/// demands in `[2, 128]` for every (target, q') pair over PCR at
/// d ∈ {4, 5, 6} and Ex.1–Ex.5 with q' ∈ [`PCR_LIMITS`]. A pair's demands
/// are drawn one from each of equally wide slices of the range, so every
/// seed spreads them alike and the work per seed varies little. Pairs
/// whose demand-2 pass already exceeds `q'` can never be planned and are
/// left out, so no request of the workload fails.
///
/// # Errors
///
/// The PCR master mix does not approximate at one of the accuracies.
pub fn pcr_storage(seed: u64, sizes: &Sizes) -> Result<Vec<PcrRequest>, String> {
    let config = |limit| EngineConfig::default().with_mixers(PCR_MIXERS).with_storage_limit(limit);
    let pcr4 = pcr(4)?;
    let mut requests: Vec<PcrRequest> = TABLE4_D4
        .iter()
        .map(|&(demand, limit, passes, cycles, waste)| PcrRequest {
            config: config(limit),
            target: pcr4.clone(),
            demand,
            paper: Some((passes, cycles, waste)),
        })
        .collect();
    let targets = [pcr4.clone(), pcr(5)?, pcr(6)?]
        .into_iter()
        .chain(table2_examples().into_iter().map(|p| p.ratio));
    let mut rng = StdRng::seed_from_u64(seed);
    for target in targets {
        for limit in PCR_LIMITS {
            let infeasible = matches!(
                StreamingEngine::new(config(limit)).plan(&target, 2),
                Err(EngineError::StorageInfeasible { .. })
            );
            let slices = sizes.pcr_demands_per_pair as u64;
            for k in 0..slices {
                let (lo, hi) = (1 + 64 * k / slices, 64 * (k + 1) / slices);
                let demand = 2 * rng.gen_range(lo..=hi.max(lo));
                if !infeasible {
                    requests.push(PcrRequest {
                        config: config(limit),
                        target: target.clone(),
                        demand,
                        paper: None,
                    });
                }
            }
        }
    }
    Ok(requests)
}

/// `stream_sim`: Ex.1–Ex.5 and seeded corpus ratios, each at D = 16 and
/// D = 32.
pub fn stream_sim(seed: u64, sizes: &Sizes) -> Vec<(TargetRatio, u64)> {
    table2_examples()
        .into_iter()
        .map(|p| p.ratio)
        .chain(sampled_corpus(sizes.stream_ratios, seed))
        .flat_map(|ratio| [16, 32].map(|d| (ratio.clone(), d)))
        .collect()
}

/// Demands of the `serve_mixed` key space.
pub const SERVE_DEMANDS: [u64; 4] = [8, 16, 32, 64];

/// Share of `serve_mixed` requests carrying an infeasible ratio.
pub const INFEASIBLE_SHARE: f64 = 0.01;

/// The `serve_mixed` key space and request stream generator.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeInputs {
    /// Keys in popularity order: index 0 is the hottest.
    pub keys: Vec<(TargetRatio, u64)>,
    /// Ratio texts whose component sum is not a power of two; the server
    /// must answer them `infeasible`.
    pub infeasible: Vec<String>,
    /// Cumulative Zipf(s = 1) weights over `keys`.
    cdf: Vec<f64>,
}

/// One request of the served stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Item {
    /// A plan request for `keys[i]`.
    Key(usize),
    /// A plan request for `infeasible[i]`.
    Infeasible(usize),
}

impl ServeInputs {
    /// Seeded corpus ratios × [`SERVE_DEMANDS`], shuffled into popularity
    /// order, plus 16 seeded infeasible ratios.
    pub fn new(seed: u64, sizes: &Sizes) -> ServeInputs {
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e);
        let mut keys: Vec<(TargetRatio, u64)> = sampled_corpus(sizes.serve_ratios, seed)
            .into_iter()
            .flat_map(|ratio| SERVE_DEMANDS.map(|d| (ratio.clone(), d)))
            .collect();
        keys.shuffle(&mut rng);
        let mut infeasible = Vec::new();
        while infeasible.len() < 16 {
            let parts: Vec<u64> =
                (0..rng.gen_range(2..=5usize)).map(|_| rng.gen_range(1..=20u64)).collect();
            if !parts.iter().sum::<u64>().is_power_of_two() {
                infeasible.push(parts.iter().map(u64::to_string).collect::<Vec<_>>().join(":"));
            }
        }
        let mut total = 0.0;
        let cdf = (1..=keys.len())
            .map(|rank| {
                total += 1.0 / rank as f64;
                total
            })
            .collect();
        ServeInputs { keys, infeasible, cdf }
    }

    /// `count` requests of stream `stream`: Zipf(s = 1) over the keys,
    /// with [`INFEASIBLE_SHARE`] infeasible lines mixed in.
    pub fn stream(&self, seed: u64, stream: u64, count: usize) -> Vec<Item> {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9).wrapping_add(stream));
        let total = self.cdf.last().copied().unwrap_or(0.0);
        (0..count)
            .map(|_| {
                if rng.gen_bool(INFEASIBLE_SHARE) {
                    Item::Infeasible(rng.gen_range(0..self.infeasible.len()))
                } else {
                    let u = rng.gen::<f64>() * total;
                    Item::Key(self.cdf.partition_point(|&c| c <= u).min(self.keys.len() - 1))
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let sizes = Sizes::TINY;
        let same = |a: &[PlanRequest], b: &[PlanRequest]| {
            a.iter().zip(b).all(|(x, y)| x.target == y.target && x.demand == y.demand)
        };
        assert!(same(&corpus_batch(7, &sizes), &corpus_batch(7, &sizes)));
        assert!(!same(&corpus_batch(7, &sizes), &corpus_batch(8, &sizes)));
        assert_eq!(pcr_storage(7, &sizes).unwrap(), pcr_storage(7, &sizes).unwrap());
        assert_ne!(pcr_storage(7, &sizes).unwrap(), pcr_storage(8, &sizes).unwrap());
        assert_eq!(stream_sim(7, &sizes), stream_sim(7, &sizes));
        assert_ne!(stream_sim(7, &sizes), stream_sim(8, &sizes));
        let (a, b) = (ServeInputs::new(7, &sizes), ServeInputs::new(8, &sizes));
        assert_eq!(a, ServeInputs::new(7, &sizes));
        assert_ne!(a, b);
        assert_eq!(a.stream(7, 0, 500), a.stream(7, 0, 500));
        assert_ne!(a.stream(7, 0, 500), a.stream(7, 1, 500));
    }

    #[test]
    fn serve_stream_is_skewed_and_one_percent_infeasible() {
        let inputs = ServeInputs::new(3, &Sizes::FULL);
        assert_eq!(inputs.keys.len(), 4096);
        let items = inputs.stream(3, 0, 100_000);
        let infeasible = items.iter().filter(|i| matches!(i, Item::Infeasible(_))).count();
        assert!((800..1200).contains(&infeasible), "{infeasible}");
        let hottest = items.iter().filter(|&&i| i == Item::Key(0)).count();
        let coldest = items.iter().filter(|&&i| i == Item::Key(4095)).count();
        assert!(hottest > 50 * coldest.max(1), "{hottest} vs {coldest}");
        for text in &inputs.infeasible {
            let sum: u64 = text.split(':').map(|p| p.parse::<u64>().unwrap()).sum();
            assert!(!sum.is_power_of_two());
        }
    }

    #[test]
    fn pcr_storage_starts_with_the_table4_cells() {
        let requests = pcr_storage(1, &Sizes::TINY).unwrap();
        assert!(requests[..12].iter().all(|r| r.paper.is_some()));
        assert!(requests[12..].iter().all(|r| r.paper.is_none() && r.demand % 2 == 0));
        // With 32 demands per pair, each pair draws one demand from every
        // slice {2, 4}, {6, 8}, …, {126, 128}.
        let sizes = Sizes { pcr_demands_per_pair: 32, ..Sizes::TINY };
        let requests = pcr_storage(1, &sizes).unwrap();
        for (k, pair) in requests[12..].chunks(32).enumerate() {
            for (slice, r) in pair.iter().enumerate() {
                assert!((4 * slice as u64 + 2..=4 * slice as u64 + 4).contains(&r.demand), "{k}");
            }
        }
    }
}
