use dmf_chip::ChipError;
use dmf_forest::ForestError;
use dmf_mixalgo::MixAlgoError;
use dmf_sched::SchedError;
use dmf_sim::SimError;
use std::error::Error;
use std::fmt;

/// Error raised by the streaming engine.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum EngineError {
    /// A demand of zero droplets was requested.
    ZeroDemand,
    /// The request failed the mixability pre-pass
    /// ([`dmf_check::check_feasibility`]): no planning was attempted
    /// because no plan can exist.
    Infeasible {
        /// The violated feasibility rule (`FEAS001`/`FEAS002`).
        rule: dmf_check::RuleCode,
        /// Human-readable detail from the pre-pass diagnostic.
        what: String,
    },
    /// Even the smallest pass (demand 2) exceeds the storage budget.
    StorageInfeasible {
        /// The budget `q'`.
        limit: usize,
        /// Storage a demand-2 pass needs.
        needed: usize,
    },
    /// The chip has fewer storage cells than the pass requires.
    StorageExhausted {
        /// Storage cells on the chip.
        available: usize,
    },
    /// An algorithm name did not resolve against the
    /// [`dmf_mixalgo::MixingAlgorithmRegistry`].
    UnknownAlgorithm {
        /// The name that failed to resolve.
        name: String,
        /// The registry keys at the time of the lookup.
        known: Vec<&'static str>,
    },
    /// Base-tree construction failed.
    Algo(MixAlgoError),
    /// Forest construction failed.
    Forest(ForestError),
    /// Scheduling failed.
    Sched(SchedError),
    /// Chip geometry is unusable for this plan.
    Chip(ChipError),
    /// Simulation of the realized program failed (indicates a compiler
    /// bug or an undersized chip).
    Sim(SimError),
    /// No route existed while realizing a transport.
    Unroutable {
        /// Human-readable description of the failing transport.
        what: String,
    },
    /// An internal invariant was violated — a bug in the engine itself
    /// (e.g. a planner step ran before `build_tree`, or the pass compiler lost
    /// track of a droplet), surfaced as a typed error instead of a panic.
    Internal {
        /// Human-readable description of the violated invariant.
        what: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::ZeroDemand => write!(f, "demand must be at least one droplet"),
            EngineError::Infeasible { rule, what } => {
                write!(f, "infeasible request ({rule}): {what}")
            }
            EngineError::StorageInfeasible { limit, needed } => {
                write!(f, "storage budget {limit} cannot fit even one pass (needs {needed})")
            }
            EngineError::StorageExhausted { available } => {
                write!(f, "chip has only {available} storage cells")
            }
            EngineError::UnknownAlgorithm { name, known } => {
                write!(f, "unknown mixing algorithm {:?} (registered: {})", name, known.join(", "))
            }
            EngineError::Algo(e) => write!(f, "base-tree construction failed: {e}"),
            EngineError::Forest(e) => write!(f, "forest construction failed: {e}"),
            EngineError::Sched(e) => write!(f, "scheduling failed: {e}"),
            EngineError::Chip(e) => write!(f, "chip error: {e}"),
            EngineError::Sim(e) => write!(f, "simulation failed: {e}"),
            EngineError::Unroutable { what } => write!(f, "unroutable transport: {what}"),
            EngineError::Internal { what } => {
                write!(f, "internal engine invariant violated (bug): {what}")
            }
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Algo(e) => Some(e),
            EngineError::Forest(e) => Some(e),
            EngineError::Sched(e) => Some(e),
            EngineError::Chip(e) => Some(e),
            EngineError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MixAlgoError> for EngineError {
    fn from(e: MixAlgoError) -> Self {
        EngineError::Algo(e)
    }
}

impl From<dmf_mixalgo::UnknownAlgorithmError> for EngineError {
    fn from(e: dmf_mixalgo::UnknownAlgorithmError) -> Self {
        EngineError::UnknownAlgorithm { name: e.name, known: e.known }
    }
}

impl From<ForestError> for EngineError {
    fn from(e: ForestError) -> Self {
        EngineError::Forest(e)
    }
}

impl From<SchedError> for EngineError {
    fn from(e: SchedError) -> Self {
        EngineError::Sched(e)
    }
}

impl From<ChipError> for EngineError {
    fn from(e: ChipError) -> Self {
        EngineError::Chip(e)
    }
}

impl From<SimError> for EngineError {
    fn from(e: SimError) -> Self {
        EngineError::Sim(e)
    }
}
