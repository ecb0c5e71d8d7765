use crate::list::lowest_key_first;
use crate::{SchedError, Schedule};
use dmf_mixgraph::{MixGraph, NodeId};
use dmf_rng::{Rng, SeedableRng, SliceRandom, StdRng};

/// Configuration of the genetic-algorithm scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct GaConfig {
    /// Population size.
    pub population: usize,
    /// Number of generations.
    pub generations: usize,
    /// Per-gene swap-mutation probability.
    pub mutation_rate: f64,
    /// Tournament size for parent selection.
    pub tournament: usize,
    /// Weight of storage in the fitness (makespan counts 1 per cycle,
    /// storage counts `storage_weight` per unit of peak occupancy).
    pub storage_weight: f64,
    /// PRNG seed; runs are deterministic per seed.
    pub seed: u64,
}

impl Default for GaConfig {
    fn default() -> Self {
        GaConfig {
            population: 32,
            generations: 60,
            mutation_rate: 0.08,
            tournament: 3,
            storage_weight: 0.5,
            seed: 0x6A5C_4ED0,
        }
    }
}

/// Genetic-algorithm scheduling of a mixing graph, in the spirit of the
/// GA-based architectural synthesis of Su & Chakrabarty (ACM JETC 2008) —
/// one of the schedulers the paper lists as applicable to mixing trees
/// (§2.2).
///
/// A chromosome is a priority permutation of the vertices; decoding is
/// plain list scheduling (each cycle runs the `Mc` highest-priority ready
/// vertices), so every chromosome yields a *valid* schedule and evolution
/// only ever improves the `makespan + w·storage` fitness. Order crossover
/// and swap mutation preserve permutations.
///
/// Slower than [`crate::mms_schedule`]/[`crate::srs_schedule`] but able to
/// trade completion time against storage through
/// [`GaConfig::storage_weight`].
///
/// # Errors
///
/// Returns [`SchedError::NoMixers`] when `mixers == 0`.
///
/// # Examples
///
/// ```
/// use dmf_forest::{build_forest, ReusePolicy};
/// use dmf_mixalgo::{MinMix, MixingAlgorithm};
/// use dmf_ratio::TargetRatio;
/// use dmf_sched::{ga_schedule, GaConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9])?;
/// let template = MinMix.build_template(&target)?;
/// let forest = build_forest(&template, &target, 8, ReusePolicy::AcrossTrees)?;
/// let schedule = ga_schedule(&forest, 3, &GaConfig::default())?;
/// schedule.validate(&forest)?;
/// # Ok(())
/// # }
/// ```
pub fn ga_schedule(
    graph: &MixGraph,
    mixers: usize,
    config: &GaConfig,
) -> Result<Schedule, SchedError> {
    let n = graph.node_count();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let population = config.population.max(2);

    // Initial population: random permutations plus a level-ordered seed.
    let mut individuals: Vec<Vec<u32>> = Vec::with_capacity(population);
    let mut level_seed: Vec<usize> = (0..n).collect();
    level_seed.sort_by_key(|&i| (graph.node(NodeId::new(i as u32)).level(), i));
    let mut seed_priorities = vec![0u32; n];
    for (rank, &i) in level_seed.iter().enumerate() {
        seed_priorities[i] = rank as u32;
    }
    individuals.push(seed_priorities.clone());
    for _ in 1..population {
        let mut perm: Vec<u32> = (0..n as u32).collect();
        perm.shuffle(&mut rng);
        individuals.push(perm);
    }

    // Decoding is list scheduling with the chromosome as priority (lower
    // value runs first).
    let fitness = |priorities: &[u32]| -> Result<f64, SchedError> {
        let schedule = lowest_key_first(graph, mixers, |i| priorities[i])?;
        let storage = schedule.storage(graph).peak as f64;
        Ok(f64::from(schedule.makespan()) + config.storage_weight * storage)
    };

    let mut scored = Vec::with_capacity(population);
    for ind in individuals {
        scored.push((fitness(&ind)?, ind));
    }
    for _ in 0..config.generations {
        let mut next: Vec<(f64, Vec<u32>)> = Vec::with_capacity(population);
        // Elitism: keep the best individual.
        if let Some(best) = scored.iter().min_by(|a, b| a.0.total_cmp(&b.0)) {
            next.push(best.clone());
        }
        while next.len() < population {
            let (Some(a), Some(b)) = (
                tournament(&scored, config.tournament, &mut rng),
                tournament(&scored, config.tournament, &mut rng),
            ) else {
                break;
            };
            let mut child = order_crossover(a, b, &mut rng);
            for i in 0..n {
                if rng.gen::<f64>() < config.mutation_rate {
                    let j = rng.gen_range(0..n);
                    child.swap(i, j);
                }
            }
            next.push((fitness(&child)?, child));
        }
        scored = next;
    }
    // `scored` is never empty (population >= 2); decode the level-ordered
    // seed rather than panic if that invariant ever broke.
    let best = scored
        .into_iter()
        .min_by(|a, b| a.0.total_cmp(&b.0))
        .map_or(seed_priorities, |(_, priorities)| priorities);
    lowest_key_first(graph, mixers, |i| best[i])
}

fn tournament<'a>(
    scored: &'a [(f64, Vec<u32>)],
    size: usize,
    rng: &mut StdRng,
) -> Option<&'a [u32]> {
    if scored.is_empty() {
        return None;
    }
    let mut best = &scored[rng.gen_range(0..scored.len())];
    for _ in 1..size.max(1) {
        let candidate = &scored[rng.gen_range(0..scored.len())];
        if candidate.0 < best.0 {
            best = candidate;
        }
    }
    Some(&best.1)
}

/// Order crossover (OX) on priority permutations.
fn order_crossover(a: &[u32], b: &[u32], rng: &mut StdRng) -> Vec<u32> {
    let n = a.len();
    if n < 2 {
        return a.to_vec();
    }
    // Work on permutations of positions sorted by priority.
    let perm_of = |p: &[u32]| {
        let mut idx: Vec<usize> = (0..n).collect();
        idx.sort_by_key(|&i| (p[i], i));
        idx
    };
    let pa = perm_of(a);
    let pb = perm_of(b);
    let (mut lo, mut hi) = (rng.gen_range(0..n), rng.gen_range(0..n));
    if lo > hi {
        std::mem::swap(&mut lo, &mut hi);
    }
    let mut child_perm: Vec<Option<usize>> = vec![None; n];
    let mut used = vec![false; n];
    for i in lo..=hi {
        child_perm[i] = Some(pa[i]);
        used[pa[i]] = true;
    }
    let mut fill = pb.iter().copied().filter(|&v| !used[v]);
    let mut priorities = vec![0u32; n];
    for (rank, slot) in child_perm.into_iter().enumerate() {
        // Each empty slot has exactly one unused position left in `fill`
        // (a counting identity), so the fallback to `rank` never fires; it
        // only keeps the arithmetic total.
        let v = slot.or_else(|| fill.next()).unwrap_or(rank);
        priorities[v] = rank as u32;
    }
    priorities
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{mms_schedule, optimal_makespan};
    use dmf_forest::{build_forest, ReusePolicy};
    use dmf_mixalgo::{MinMix, MixingAlgorithm};
    use dmf_ratio::TargetRatio;

    fn pcr_forest(demand: u64) -> MixGraph {
        let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        let template = MinMix.build_template(&target).unwrap();
        build_forest(&template, &target, demand, ReusePolicy::AcrossTrees).unwrap()
    }

    #[test]
    fn ga_schedules_are_valid_and_deterministic() {
        let g = pcr_forest(16);
        let a = ga_schedule(&g, 3, &GaConfig::default()).unwrap();
        let b = ga_schedule(&g, 3, &GaConfig::default()).unwrap();
        a.validate(&g).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn ga_finds_the_optimum_on_small_graphs() {
        let target = TargetRatio::new(vec![3, 5]).unwrap();
        let template = MinMix.build_template(&target).unwrap();
        let forest = build_forest(&template, &target, 6, ReusePolicy::AcrossTrees).unwrap();
        let config = GaConfig { storage_weight: 0.0, ..GaConfig::default() };
        let ga = ga_schedule(&forest, 2, &config).unwrap();
        let optimal = optimal_makespan(&forest, 2).unwrap();
        assert_eq!(ga.makespan(), optimal);
    }

    #[test]
    fn storage_weight_trades_time_for_storage() {
        let g = pcr_forest(20);
        let fast =
            ga_schedule(&g, 3, &GaConfig { storage_weight: 0.0, ..Default::default() }).unwrap();
        let lean =
            ga_schedule(&g, 3, &GaConfig { storage_weight: 4.0, ..Default::default() }).unwrap();
        fast.validate(&g).unwrap();
        lean.validate(&g).unwrap();
        assert!(lean.storage(&g).peak <= fast.storage(&g).peak);
    }

    #[test]
    fn ga_is_competitive_with_mms() {
        let g = pcr_forest(20);
        let ga =
            ga_schedule(&g, 3, &GaConfig { storage_weight: 0.0, ..Default::default() }).unwrap();
        let mms = mms_schedule(&g, 3).unwrap();
        assert!(ga.makespan() <= mms.makespan() + 1);
    }

    #[test]
    fn rejects_zero_mixers() {
        let g = pcr_forest(4);
        assert!(matches!(ga_schedule(&g, 0, &GaConfig::default()), Err(SchedError::NoMixers)));
    }
}
