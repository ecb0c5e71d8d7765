use dmf_forest::ReusePolicy;
use dmf_mixalgo::AlgorithmId;
use dmf_sched::SchedulerKind;

/// How many on-chip mixers the engine may use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum MixerBudget {
    /// The paper's convention: the `Mlb` of the target's MinMix tree — the
    /// fewest mixers that let the MM base tree finish in critical-path time.
    #[default]
    MmLowerBound,
    /// A fixed mixer count.
    Fixed(usize),
}

/// Configuration of a [`crate::StreamingEngine`].
///
/// The default reproduces the paper's headline configuration: MinMix base
/// trees, SRS scheduling, `Mlb` mixers, paper-faithful across-tree droplet
/// reuse and no storage budget.
///
/// The algorithm is a registry id ([`dmf_mixalgo::AlgorithmId`]), so any
/// registered algorithm — not just the four paper baselines — can drive
/// the engine. The scheduler is one of the paper's two
/// ([`dmf_sched::SchedulerKind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EngineConfig {
    /// Base mixing-tree algorithm seeding the forest.
    pub algorithm: AlgorithmId,
    /// Forest scheduler (MMS for latency, SRS for storage).
    pub scheduler: SchedulerKind,
    /// Mixer budget.
    pub mixers: MixerBudget,
    /// On-chip storage budget `q'`; `None` means unconstrained
    /// (single-pass).
    pub storage_limit: Option<usize>,
    /// Waste-droplet reuse policy for forest construction.
    pub reuse: ReusePolicy,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            algorithm: AlgorithmId::MINMIX,
            scheduler: SchedulerKind::Srs,
            mixers: MixerBudget::MmLowerBound,
            storage_limit: None,
            reuse: ReusePolicy::AcrossTrees,
        }
    }
}

impl EngineConfig {
    /// Shorthand: this config with a fixed mixer count.
    pub fn with_mixers(mut self, mixers: usize) -> Self {
        self.mixers = MixerBudget::Fixed(mixers);
        self
    }

    /// Shorthand: this config with a storage budget.
    pub fn with_storage_limit(mut self, limit: usize) -> Self {
        self.storage_limit = Some(limit);
        self
    }

    /// Shorthand: this config with another base algorithm.
    pub fn with_algorithm(mut self, algorithm: AlgorithmId) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Shorthand: this config with another scheduler.
    pub fn with_scheduler(mut self, scheduler: SchedulerKind) -> Self {
        self.scheduler = scheduler;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper_headline() {
        let c = EngineConfig::default();
        assert_eq!(c.algorithm, AlgorithmId::MINMIX);
        assert_eq!(c.scheduler, SchedulerKind::Srs);
        assert_eq!(c.mixers, MixerBudget::MmLowerBound);
        assert_eq!(c.storage_limit, None);
    }

    #[test]
    fn builders_compose() {
        let c = EngineConfig::default()
            .with_mixers(5)
            .with_storage_limit(3)
            .with_algorithm(AlgorithmId::RMA)
            .with_scheduler(SchedulerKind::Mms);
        assert_eq!(c.mixers, MixerBudget::Fixed(5));
        assert_eq!(c.storage_limit, Some(3));
        assert_eq!(c.algorithm, AlgorithmId::RMA);
        assert_eq!(c.scheduler, SchedulerKind::Mms);
    }

    #[test]
    fn registry_ids_slot_in_directly() {
        let c = EngineConfig::default().with_algorithm(AlgorithmId::MTCS);
        assert_eq!(c.algorithm, AlgorithmId::MTCS);
        assert_eq!(c.algorithm.key(), "mtcs");
    }
}
