//! Name-keyed registry of mixing algorithms — the pipeline's one open
//! extension point.
//!
//! The engine, the CLI, the serve protocol and the benchmark exhibits all
//! select a base algorithm through an [`AlgorithmId`]: a `Copy` handle
//! carrying a stable wire key (`"mm"`, `"rma"`, …), a display label
//! (`"MM"`, `"RMA"`, …) and the algorithm object itself. Dispatch through
//! an id is a plain vtable call — no registry lookup sits on the planning
//! hot path; the registry is only consulted to *resolve names* and to
//! *list* what is available.
//!
//! [`MixingAlgorithmRegistry`] is seeded with the paper's four baselines
//! (MinMix, RMA, MTCS, RSM, in citation order). New planners register at
//! runtime with [`MixingAlgorithmRegistry::register`] and immediately
//! reach every consumer that resolves by name, without touching the
//! engine core.

use crate::{MinMix, MixingAlgorithm, Mtcs, Rma, Rsm};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::{OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};

/// A registered mixing algorithm: stable wire key, display label and the
/// algorithm object.
///
/// Equality and hashing use the key **only** — the registry enforces key
/// uniqueness, so equal keys imply the same algorithm. This keeps ids
/// process-stable (a key string hashes the same in every process), which
/// the engine's content-addressed plan cache relies on.
#[derive(Clone, Copy)]
pub struct AlgorithmId {
    key: &'static str,
    label: &'static str,
    algorithm: &'static (dyn MixingAlgorithm + Send + Sync),
}

impl AlgorithmId {
    /// MinMix (`"mm"`).
    pub const MINMIX: AlgorithmId = AlgorithmId::new("mm", "MM", &MinMix);
    /// RMA (`"rma"`).
    pub const RMA: AlgorithmId = AlgorithmId::new("rma", "RMA", &Rma);
    /// MTCS (`"mtcs"`).
    pub const MTCS: AlgorithmId = AlgorithmId::new("mtcs", "MTCS", &Mtcs);
    /// RSM (`"rsm"`).
    pub const RSM: AlgorithmId = AlgorithmId::new("rsm", "RSM", &Rsm);
    /// The paper's four baselines, in citation order (the registry's seed).
    pub const BASELINES: [AlgorithmId; 4] =
        [AlgorithmId::MINMIX, AlgorithmId::RMA, AlgorithmId::MTCS, AlgorithmId::RSM];

    /// Creates an id. `key` should be short, lowercase and stable — it is
    /// the wire name used by the CLI (`--algo KEY`) and the serve protocol.
    pub const fn new(
        key: &'static str,
        label: &'static str,
        algorithm: &'static (dyn MixingAlgorithm + Send + Sync),
    ) -> Self {
        AlgorithmId { key, label, algorithm }
    }

    /// The stable wire key (`"mm"`, `"rma"`, …).
    pub fn key(self) -> &'static str {
        self.key
    }

    /// The display label (`"MM"`, `"RMA"`, …) used in reports and tables.
    pub fn label(self) -> &'static str {
        self.label
    }

    /// The algorithm object behind the id.
    pub fn algorithm(self) -> &'static dyn MixingAlgorithm {
        self.algorithm
    }
}

impl PartialEq for AlgorithmId {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}

impl Eq for AlgorithmId {}

impl Hash for AlgorithmId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key.hash(state);
    }
}

impl fmt::Debug for AlgorithmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("AlgorithmId").field(&self.key).finish()
    }
}

impl fmt::Display for AlgorithmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label)
    }
}

/// One registry row: the id, a one-line description for listings, and
/// accepted lookup aliases (always matched case-insensitively, alongside
/// the key and the label).
#[derive(Clone, Copy, Debug)]
pub struct AlgorithmEntry {
    /// The algorithm id.
    pub id: AlgorithmId,
    /// One-line description shown by `--list-algorithms`.
    pub description: &'static str,
    /// Extra accepted names (e.g. `"minmix"` for `"mm"`).
    pub aliases: &'static [&'static str],
}

/// The name `name` did not resolve to any registered algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAlgorithmError {
    /// The name that failed to resolve.
    pub name: String,
    /// The keys currently registered, in registration order.
    pub known: Vec<&'static str>,
}

impl fmt::Display for UnknownAlgorithmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown mixing algorithm {:?} (registered: {})",
            self.name,
            self.known.join(", ")
        )
    }
}

impl std::error::Error for UnknownAlgorithmError {}

/// An algorithm with the same key (or a clashing alias) is already
/// registered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DuplicateAlgorithmError {
    /// The clashing name.
    pub key: String,
}

impl fmt::Display for DuplicateAlgorithmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "mixing algorithm {:?} is already registered", self.key)
    }
}

impl std::error::Error for DuplicateAlgorithmError {}

/// The process-wide mixing-algorithm registry (see the module docs).
pub struct MixingAlgorithmRegistry;

static REGISTRY: OnceLock<RwLock<Vec<AlgorithmEntry>>> = OnceLock::new();

fn store() -> &'static RwLock<Vec<AlgorithmEntry>> {
    REGISTRY.get_or_init(|| {
        RwLock::new(vec![
            AlgorithmEntry {
                id: AlgorithmId::MINMIX,
                description: "MinMix (Thies et al. 2008): binary-expansion tree, \
                              minimal depth and mix count",
                aliases: &["minmix"],
            },
            AlgorithmEntry {
                id: AlgorithmId::RMA,
                description: "RMA (Roy et al. VLSID 2011): ratio-halving tree; extra \
                              waste droplets seed the mixing forest",
                aliases: &[],
            },
            AlgorithmEntry {
                id: AlgorithmId::MTCS,
                description: "MTCS (Kumar et al. DDECS 2013): MinMix with \
                              common-subtree sharing",
                aliases: &[],
            },
            AlgorithmEntry {
                id: AlgorithmId::RSM,
                description: "RSM (Hsieh et al. TCAD 2012): reagent-saving balanced \
                              partition with subgraph sharing",
                aliases: &[],
            },
        ])
    })
}

fn read() -> RwLockReadGuard<'static, Vec<AlgorithmEntry>> {
    store().read().unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn write() -> RwLockWriteGuard<'static, Vec<AlgorithmEntry>> {
    store().write().unwrap_or_else(std::sync::PoisonError::into_inner)
}

impl MixingAlgorithmRegistry {
    /// All registered algorithms, in registration order (the four paper
    /// baselines first).
    pub fn entries() -> Vec<AlgorithmEntry> {
        read().clone()
    }

    /// Resolves `name` against keys, labels and aliases,
    /// case-insensitively.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownAlgorithmError`] (listing the registered keys) when
    /// nothing matches.
    pub fn resolve(name: &str) -> Result<AlgorithmId, UnknownAlgorithmError> {
        let entries = read();
        for entry in entries.iter() {
            if entry.id.key.eq_ignore_ascii_case(name)
                || entry.id.label.eq_ignore_ascii_case(name)
                || entry.aliases.iter().any(|a| a.eq_ignore_ascii_case(name))
            {
                return Ok(entry.id);
            }
        }
        Err(UnknownAlgorithmError {
            name: name.to_owned(),
            known: entries.iter().map(|e| e.id.key).collect(),
        })
    }

    /// Registers a new algorithm.
    ///
    /// The entry's key, label and aliases must not clash (case-insensitively)
    /// with any already-registered name. Algorithms built at runtime can
    /// obtain the required `&'static` reference with `Box::leak`.
    ///
    /// # Errors
    ///
    /// Returns [`DuplicateAlgorithmError`] on a name clash; the registry is
    /// left unchanged.
    pub fn register(entry: AlgorithmEntry) -> Result<(), DuplicateAlgorithmError> {
        let mut entries = write();
        let mut new_names = vec![entry.id.key, entry.id.label];
        new_names.extend(entry.aliases);
        for existing in entries.iter() {
            let mut names = vec![existing.id.key, existing.id.label];
            names.extend(existing.aliases);
            for name in &names {
                if new_names.iter().any(|n| n.eq_ignore_ascii_case(name)) {
                    return Err(DuplicateAlgorithmError { key: (*name).to_owned() });
                }
            }
        }
        entries.push(entry);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baselines_resolve_by_key_label_and_alias() {
        for (name, expected) in [
            ("mm", AlgorithmId::MINMIX),
            ("MM", AlgorithmId::MINMIX),
            ("minmix", AlgorithmId::MINMIX),
            ("rma", AlgorithmId::RMA),
            ("MTCS", AlgorithmId::MTCS),
            ("rsm", AlgorithmId::RSM),
        ] {
            assert_eq!(MixingAlgorithmRegistry::resolve(name).unwrap(), expected, "{name}");
        }
    }

    #[test]
    fn unknown_names_list_the_registered_keys() {
        let err = MixingAlgorithmRegistry::resolve("nope").unwrap_err();
        assert_eq!(err.name, "nope");
        for key in ["mm", "rma", "mtcs", "rsm"] {
            assert!(err.known.contains(&key), "missing {key} in {:?}", err.known);
        }
        assert!(err.to_string().contains("nope"));
    }

    #[test]
    fn constant_ids_label_their_algorithm() {
        for id in AlgorithmId::BASELINES {
            assert_eq!(id.label(), id.algorithm().name());
            assert_eq!(id.to_string(), id.label());
        }
        assert_ne!(AlgorithmId::MINMIX, AlgorithmId::RSM);
    }

    #[test]
    fn duplicate_registration_is_rejected() {
        let clash = AlgorithmEntry {
            id: AlgorithmId::new("minmix", "MinMix2", &MinMix),
            description: "clashes with the mm alias",
            aliases: &[],
        };
        assert!(MixingAlgorithmRegistry::register(clash).is_err());
    }

    #[test]
    fn entries_seed_the_four_paper_baselines_in_order() {
        let entries = MixingAlgorithmRegistry::entries();
        let keys: Vec<&str> = entries.iter().take(4).map(|e| e.id.key()).collect();
        assert_eq!(keys, ["mm", "rma", "mtcs", "rsm"]);
        for entry in entries.iter().take(4) {
            assert!(!entry.description.is_empty());
        }
    }
}
