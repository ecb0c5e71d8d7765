//! Schedulers for mixing trees and mixing forests on DMF biochips.
//!
//! Maps every mix-split vertex of a [`dmf_mixgraph::MixGraph`] to a
//! `(time-cycle, mixer)` pair subject to precedence (operands first) and
//! mixer capacity (`Mc` concurrent mix-splits), and accounts for the on-chip
//! storage the schedule needs. Implements the three scheduling procedures of
//! the DAC 2014 paper:
//!
//! * [`oms_schedule`] — optimal scheduling of a *base mixing tree*. The
//!   paper uses OMS (Luo–Akella, IEEE TASE 2011); for unit-time tasks with
//!   in-forest precedence on identical machines, Hu's highest-level-first
//!   rule is makespan-optimal, so this is implemented as HLF list scheduling
//!   (see `DESIGN.md` §5 for the substitution argument). [`mixer_lower_bound`]
//!   computes `Mlb`, the fewest mixers achieving the critical-path makespan.
//! * [`mms_schedule`] — `M_Mixers_Schedule` (Algorithm 1): level-synchronous
//!   FIFO scheduling of a mixing forest, latency-oriented.
//! * [`srs_schedule`] — `Storage_Reduced_Scheduling` (Algorithm 2):
//!   two-queue priority scheduling that defers reservoir-fed mixes
//!   (Type-C) in favour of mixes consuming stored droplets (Type-A/B),
//!   trading a slightly longer completion time for fewer storage units.
//!
//! Storage accounting generalises `Counting_Storage_Units` (Algorithm 3) to
//! forest DAGs: every produced droplet occupies one storage unit from the
//! cycle after it is produced until the cycle before it is consumed; waste
//! droplets leave for the waste reservoir and targets are emitted, costing
//! nothing.
//!
//! Beyond the paper's two schedulers, the crate provides the alternatives
//! its related-work section points at, for ablation studies:
//!
//! * [`path_schedule`] — storage-lean depth-first path scheduling
//!   (Grissom–Brisk, DAC 2012);
//! * [`ga_schedule`] — genetic-algorithm search over priority permutations
//!   (after Su–Chakrabarty, ACM JETC 2008), tunable between latency and
//!   storage via [`GaConfig::storage_weight`];
//! * [`optimal_makespan`] — an exact subset-DP optimum for small graphs,
//!   used to certify the heuristics' gaps.
//!
//! # Examples
//!
//! ```
//! use dmf_forest::{build_forest, ReusePolicy};
//! use dmf_mixalgo::{MinMix, MixingAlgorithm};
//! use dmf_ratio::TargetRatio;
//! use dmf_sched::srs_schedule;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9])?;
//! let template = MinMix.build_template(&target)?;
//! let forest = build_forest(&template, &target, 20, ReusePolicy::AcrossTrees)?;
//! let schedule = srs_schedule(&forest, 3)?;
//! schedule.validate(&forest)?;
//! println!("Tc = {}, q = {}", schedule.makespan(), schedule.storage(&forest).peak);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod baseline;
mod error;
mod ga;
mod gantt;
mod hu;
mod mms;
mod optimal;
mod path;
mod schedule;
mod srs;
mod storage;
mod svg;

pub use baseline::{repeated_baseline, RepeatedBaseline};
pub use error::SchedError;
pub use ga::{ga_schedule, GaConfig};
pub use hu::{critical_path, mixer_lower_bound, oms_schedule};
pub use mms::mms_schedule;
pub use optimal::{optimal_makespan, OPTIMAL_LIMIT};
pub use path::path_schedule;
pub use schedule::{MixerId, Schedule};
pub use srs::srs_schedule;
pub use storage::StorageProfile;

/// Which forest scheduler to run — the engine's scheduler handle.
///
/// The paper defines exactly two forest schedulers, so the set is closed:
/// names resolve through [`SchedulerKind::resolve`] and dispatch is a
/// `match`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerKind {
    /// [`mms_schedule`] (Algorithm 1) — latency-oriented.
    Mms,
    /// [`srs_schedule`] (Algorithm 2) — storage-oriented.
    Srs,
}

impl SchedulerKind {
    /// Both schedulers, in the paper's order.
    pub const ALL: [SchedulerKind; 2] = [SchedulerKind::Mms, SchedulerKind::Srs];

    /// The stable wire key (`"mms"` / `"srs"`) used by `--scheduler` and
    /// the serve protocol.
    pub fn key(self) -> &'static str {
        match self {
            SchedulerKind::Mms => "mms",
            SchedulerKind::Srs => "srs",
        }
    }

    /// Short identifier ("MMS" / "SRS").
    pub fn name(self) -> &'static str {
        match self {
            SchedulerKind::Mms => "MMS",
            SchedulerKind::Srs => "SRS",
        }
    }

    /// One-line description shown by `--list-schedulers`.
    pub fn description(self) -> &'static str {
        match self {
            SchedulerKind::Mms => {
                "M_Mixers_Schedule (Algorithm 1): level-synchronous FIFO forest scheduling, \
                 latency-oriented"
            }
            SchedulerKind::Srs => {
                "Storage_Reduced_Scheduling (Algorithm 2): defers reservoir-fed mixes to cut \
                 on-chip storage"
            }
        }
    }

    /// Resolves `name` against keys and names, case-insensitively.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSchedulerError`] when nothing matches.
    pub fn resolve(name: &str) -> Result<SchedulerKind, UnknownSchedulerError> {
        SchedulerKind::ALL
            .into_iter()
            .find(|kind| {
                kind.key().eq_ignore_ascii_case(name) || kind.name().eq_ignore_ascii_case(name)
            })
            .ok_or_else(|| UnknownSchedulerError { name: name.to_owned() })
    }

    /// Runs the selected scheduler.
    ///
    /// # Errors
    ///
    /// Same conditions as [`mms_schedule`] / [`srs_schedule`].
    pub fn run(
        self,
        graph: &dmf_mixgraph::MixGraph,
        mixers: usize,
    ) -> Result<Schedule, SchedError> {
        match self {
            SchedulerKind::Mms => mms_schedule(graph, mixers),
            SchedulerKind::Srs => srs_schedule(graph, mixers),
        }
    }
}

/// Hashes the wire key as a `str`, not the discriminant, so the engine's
/// plan fingerprints (and with them cache shards and serve replies) do not
/// depend on the variant order.
impl std::hash::Hash for SchedulerKind {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl std::fmt::Display for SchedulerKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The name `name` matched neither scheduler.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownSchedulerError {
    /// The name that failed to resolve.
    pub name: String,
}

impl std::fmt::Display for UnknownSchedulerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let known: Vec<&str> = SchedulerKind::ALL.iter().map(|kind| kind.key()).collect();
        write!(f, "unknown scheduler {:?} (registered: {})", self.name, known.join(", "))
    }
}

impl std::error::Error for UnknownSchedulerError {}

#[cfg(test)]
mod tests {
    use super::*;
    use dmf_ratio::TargetRatio;

    #[test]
    fn schedulers_resolve_by_key_and_name_case_insensitively() {
        for (name, expected) in [
            ("mms", SchedulerKind::Mms),
            ("MMS", SchedulerKind::Mms),
            ("Mms", SchedulerKind::Mms),
            ("srs", SchedulerKind::Srs),
            ("SRS", SchedulerKind::Srs),
            ("sRs", SchedulerKind::Srs),
        ] {
            assert_eq!(SchedulerKind::resolve(name).unwrap(), expected, "{name}");
        }
        for kind in SchedulerKind::ALL {
            assert_eq!(SchedulerKind::resolve(kind.key()).unwrap(), kind);
            assert!(!kind.description().is_empty());
        }
    }

    #[test]
    fn unknown_scheduler_message_lists_both_keys() {
        let err = SchedulerKind::resolve("nonesuch").unwrap_err();
        assert_eq!(err.name, "nonesuch");
        assert_eq!(err.to_string(), r#"unknown scheduler "nonesuch" (registered: mms, srs)"#);
    }

    #[test]
    fn kind_dispatch_equals_direct_function_calls() {
        use dmf_mixalgo::{MinMix, MixingAlgorithm};
        let target = TargetRatio::new(vec![2, 1, 1, 1, 1, 1, 9]).unwrap();
        let graph = MinMix.build_graph(&target).unwrap();
        let direct = srs_schedule(&graph, 3).unwrap();
        let via_kind = SchedulerKind::Srs.run(&graph, 3).unwrap();
        assert_eq!(direct.makespan(), via_kind.makespan());
        assert_eq!(direct.storage(&graph).peak, via_kind.storage(&graph).peak);
    }
}
