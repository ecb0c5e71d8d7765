use dmf_mixgraph::GraphError;
use dmf_ratio::RatioError;
use std::error::Error;
use std::fmt;

/// Error raised by base mixing-tree construction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum MixAlgoError {
    /// The target is a single pure fluid; no mixing is required and no
    /// mixing tree exists (a tree needs at least one mix-split).
    PureTarget,
    /// A dilution-only algorithm was given a target with more (or fewer)
    /// than two active fluids.
    NotADilution {
        /// Number of fluids with non-zero components.
        active: usize,
    },
    /// Two sub-templates range over different fluid sets.
    FluidSetMismatch {
        /// Fluid count of the left operand.
        left: usize,
        /// Fluid count of the right operand.
        right: usize,
    },
    /// A template was rebuilt into a graph builder working over another
    /// class table, whose content classes mean different mixtures.
    ForeignClassTable,
    /// Underlying ratio arithmetic failed.
    Ratio(RatioError),
    /// Lowering the template to a graph failed structural validation
    /// (indicates an algorithm bug).
    Graph(GraphError),
}

impl fmt::Display for MixAlgoError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MixAlgoError::PureTarget => {
                write!(f, "target is a single pure fluid; no mixing tree exists")
            }
            MixAlgoError::NotADilution { active } => {
                write!(f, "dilution algorithms need exactly two active fluids, got {active}")
            }
            MixAlgoError::FluidSetMismatch { left, right } => {
                write!(f, "sub-templates range over different fluid sets: {left} vs {right}")
            }
            MixAlgoError::ForeignClassTable => {
                write!(f, "template rebuilt over a builder with another class table")
            }
            MixAlgoError::Ratio(e) => write!(f, "ratio arithmetic failed: {e}"),
            MixAlgoError::Graph(e) => write!(f, "graph construction failed: {e}"),
        }
    }
}

impl Error for MixAlgoError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MixAlgoError::Ratio(e) => Some(e),
            MixAlgoError::Graph(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RatioError> for MixAlgoError {
    fn from(e: RatioError) -> Self {
        MixAlgoError::Ratio(e)
    }
}

impl From<GraphError> for MixAlgoError {
    fn from(e: GraphError) -> Self {
        MixAlgoError::Graph(e)
    }
}
