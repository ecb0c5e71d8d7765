//! [`AlgorithmId`]: the closed set of base mixing algorithms behind one
//! `Copy` handle.
//!
//! The engine, the CLI, the serve protocol and the benchmark exhibits all
//! select a base algorithm through an [`AlgorithmId`]: one variant per
//! algorithm this crate implements, each with a stable wire key (`"mm"`,
//! `"rma"`, …), a display label (`"MM"`, `"RMA"`, …) and a one-line
//! description. Dispatch is a `match` ([`AlgorithmId`] implements
//! [`MixingAlgorithm`] itself); names resolve by walking
//! [`AlgorithmId::ALL`].

use crate::{
    BitScan, Capabilities, Dmrw, MinMix, MixAlgoError, MixingAlgorithm, Mtcs, Rma, Rsm, Template,
};
use dmf_ratio::TargetRatio;
use std::fmt;
use std::hash::{Hash, Hasher};

/// One of the base mixing algorithms: the paper's four baselines plus the
/// two-fluid dilution constructions.
///
/// Equality compares variants; hashing uses the wire key, so the engine's
/// content-addressed plan cache fingerprints do not depend on the variant
/// order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlgorithmId {
    /// [`MinMix`] (`"mm"`).
    MinMix,
    /// [`Rma`] (`"rma"`).
    Rma,
    /// [`Mtcs`] (`"mtcs"`).
    Mtcs,
    /// [`Rsm`] (`"rsm"`).
    Rsm,
    /// [`BitScan`] (`"bitscan"`), two-fluid targets only.
    BitScan,
    /// [`Dmrw`] (`"dmrw"`), two-fluid targets only.
    Dmrw,
}

/// Runs `$body` with `$algo` bound to the algorithm object of `$id`.
macro_rules! dispatch {
    ($id:expr, $algo:ident => $body:expr) => {
        match $id {
            AlgorithmId::MinMix => {
                let $algo = MinMix;
                $body
            }
            AlgorithmId::Rma => {
                let $algo = Rma;
                $body
            }
            AlgorithmId::Mtcs => {
                let $algo = Mtcs;
                $body
            }
            AlgorithmId::Rsm => {
                let $algo = Rsm;
                $body
            }
            AlgorithmId::BitScan => {
                let $algo = BitScan;
                $body
            }
            AlgorithmId::Dmrw => {
                let $algo = Dmrw;
                $body
            }
        }
    };
}

impl AlgorithmId {
    /// Every algorithm, in listing order: the four baselines, then the
    /// dilution constructions.
    pub const ALL: [AlgorithmId; 6] = [
        AlgorithmId::MinMix,
        AlgorithmId::Rma,
        AlgorithmId::Mtcs,
        AlgorithmId::Rsm,
        AlgorithmId::BitScan,
        AlgorithmId::Dmrw,
    ];

    /// The paper's four baselines, in citation order.
    pub const BASELINES: [AlgorithmId; 4] =
        [AlgorithmId::MinMix, AlgorithmId::Rma, AlgorithmId::Mtcs, AlgorithmId::Rsm];

    /// The stable wire key (`"mm"`, `"rma"`, …) used by the CLI
    /// (`--algo KEY`) and the serve protocol.
    pub fn key(self) -> &'static str {
        match self {
            AlgorithmId::MinMix => "mm",
            AlgorithmId::Rma => "rma",
            AlgorithmId::Mtcs => "mtcs",
            AlgorithmId::Rsm => "rsm",
            AlgorithmId::BitScan => "bitscan",
            AlgorithmId::Dmrw => "dmrw",
        }
    }

    /// The display label (`"MM"`, `"RMA"`, …) used in reports and tables;
    /// equal to the algorithm's [`MixingAlgorithm::name`].
    pub fn label(self) -> &'static str {
        match self {
            AlgorithmId::MinMix => "MM",
            AlgorithmId::Rma => "RMA",
            AlgorithmId::Mtcs => "MTCS",
            AlgorithmId::Rsm => "RSM",
            AlgorithmId::BitScan => "BS",
            AlgorithmId::Dmrw => "DMRW",
        }
    }

    /// One-line description shown by `--list-algorithms`.
    pub fn description(self) -> &'static str {
        match self {
            AlgorithmId::MinMix => {
                "MinMix (Thies et al. 2008): binary-expansion tree, minimal depth and mix count"
            }
            AlgorithmId::Rma => {
                "RMA (Roy et al. VLSID 2011): ratio-halving tree; extra waste droplets seed the \
                 mixing forest"
            }
            AlgorithmId::Mtcs => {
                "MTCS (Kumar et al. DDECS 2013): MinMix with common-subtree sharing"
            }
            AlgorithmId::Rsm => {
                "RSM (Hsieh et al. TCAD 2012): reagent-saving balanced partition with subgraph \
                 sharing"
            }
            AlgorithmId::BitScan => {
                "BitScan (Thies et al. 2008): d-step binary-scan dilution chain; two-fluid \
                 targets only"
            }
            AlgorithmId::Dmrw => {
                "DMRW (Roy et al. TCAD 2010): dilution by interval bisection with shared \
                 boundary droplets; two-fluid targets only"
            }
        }
    }

    /// Extra accepted names, matched case-insensitively alongside the key
    /// and the label (e.g. `"minmix"` for `"mm"`).
    pub fn aliases(self) -> &'static [&'static str] {
        match self {
            AlgorithmId::MinMix => &["minmix"],
            _ => &[],
        }
    }

    /// Resolves `name` against keys, labels and aliases,
    /// case-insensitively.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownAlgorithmError`] (listing every key) when nothing
    /// matches.
    pub fn resolve(name: &str) -> Result<AlgorithmId, UnknownAlgorithmError> {
        AlgorithmId::ALL
            .into_iter()
            .find(|id| {
                id.key().eq_ignore_ascii_case(name)
                    || id.label().eq_ignore_ascii_case(name)
                    || id.aliases().iter().any(|a| a.eq_ignore_ascii_case(name))
            })
            .ok_or_else(|| UnknownAlgorithmError {
                name: name.to_owned(),
                known: AlgorithmId::ALL.map(AlgorithmId::key).to_vec(),
            })
    }
}

impl MixingAlgorithm for AlgorithmId {
    fn name(&self) -> &'static str {
        dispatch!(self, algo => algo.name())
    }

    fn capabilities(&self) -> Capabilities {
        dispatch!(self, algo => algo.capabilities())
    }

    fn build_template(&self, target: &TargetRatio) -> Result<Template, MixAlgoError> {
        dispatch!(self, algo => algo.build_template(target))
    }

    fn shares_subgraphs(&self) -> bool {
        dispatch!(self, algo => algo.shares_subgraphs())
    }
}

/// Hashes the wire key as a `str`, not the discriminant, so plan
/// fingerprints (and with them cache shards and serve replies) stay put.
impl Hash for AlgorithmId {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.key().hash(state);
    }
}

impl fmt::Display for AlgorithmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The name `name` matched no algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownAlgorithmError {
    /// The name that failed to resolve.
    pub name: String,
    /// Every key, in [`AlgorithmId::ALL`] order.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithms_resolve_by_key_label_and_alias() {
        for (name, expected) in [
            ("mm", AlgorithmId::MinMix),
            ("MM", AlgorithmId::MinMix),
            ("minmix", AlgorithmId::MinMix),
            ("rma", AlgorithmId::Rma),
            ("MTCS", AlgorithmId::Mtcs),
            ("rsm", AlgorithmId::Rsm),
            ("bitscan", AlgorithmId::BitScan),
            ("BS", AlgorithmId::BitScan),
            ("DMRW", AlgorithmId::Dmrw),
        ] {
            assert_eq!(AlgorithmId::resolve(name).unwrap(), expected, "{name}");
        }
    }

    #[test]
    fn unknown_names_list_every_key_in_order() {
        let err = AlgorithmId::resolve("nope").unwrap_err();
        assert_eq!(err.name, "nope");
        assert_eq!(err.known, ["mm", "rma", "mtcs", "rsm", "bitscan", "dmrw"]);
        assert_eq!(
            err.to_string(),
            "unknown mixing algorithm \"nope\" (registered: mm, rma, mtcs, rsm, bitscan, dmrw)"
        );
    }

    #[test]
    fn labels_name_their_algorithm() {
        for id in AlgorithmId::ALL {
            assert_eq!(id.label(), id.name());
            assert_eq!(id.to_string(), id.label());
            assert!(!id.description().is_empty());
        }
        assert_ne!(AlgorithmId::MinMix, AlgorithmId::Rsm);
    }

    #[test]
    fn all_lists_the_four_paper_baselines_first() {
        assert_eq!(AlgorithmId::ALL[..4], AlgorithmId::BASELINES);
        let keys = AlgorithmId::BASELINES.map(AlgorithmId::key);
        assert_eq!(keys, ["mm", "rma", "mtcs", "rsm"]);
    }
}
