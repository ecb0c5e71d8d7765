use crate::DropletId;
use dmf_chip::{Coord, ModuleId};
use std::error::Error;
use std::fmt;

/// A physical-rule violation detected during simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// An instruction references a droplet that does not exist (not yet
    /// dispensed, already consumed, discarded or emitted).
    UnknownDroplet {
        /// The missing droplet.
        droplet: DropletId,
    },
    /// A droplet id was reused while the droplet still exists.
    DuplicateDroplet {
        /// The duplicated id.
        droplet: DropletId,
    },
    /// An instruction references a module of the wrong kind (e.g. mixing at
    /// a reservoir).
    WrongModuleKind {
        /// The offending module.
        module: ModuleId,
        /// What the instruction expected.
        expected: &'static str,
    },
    /// A transport path is malformed: does not start at the droplet's
    /// position, leaves the grid, or contains a non-adjacent hop.
    BadPath {
        /// The droplet being moved.
        droplet: DropletId,
        /// Human-readable reason.
        reason: String,
    },
    /// A moving droplet violated the fluidic spacing constraint against a
    /// parked droplet.
    FluidicViolation {
        /// The moving droplet.
        moving: DropletId,
        /// The parked droplet it approached (the lowest id when the hop
        /// approached several).
        parked: DropletId,
        /// Where the contact happened.
        at: Coord,
    },
    /// A droplet is not where the instruction needs it to be.
    Misplaced {
        /// The droplet.
        droplet: DropletId,
        /// Where it must be.
        expected: Coord,
        /// Where it is.
        actual: Coord,
    },
    /// A storage cell is already occupied (or freed while empty).
    StorageBusy {
        /// The storage cell.
        cell: ModuleId,
    },
    /// No route exists for a `TransportTo` instruction.
    NoRoute {
        /// The droplet being moved.
        droplet: DropletId,
        /// Destination module.
        module: ModuleId,
    },
    /// Under a pin-constrained backend, an actuation's ghost electrode
    /// (another member of the driven pin's group) fired inside a parked
    /// droplet's fluidic exclusion zone — a co-activation hazard that
    /// could drag or split it.
    PinConflict {
        /// The droplet whose dispense or hop drove the shared pin.
        moving: DropletId,
        /// The parked droplet endangered by the ghost actuation (the
        /// lowest id when it endangered several).
        parked: DropletId,
        /// The electrode intentionally actuated.
        actuated: Coord,
        /// Where the endangered droplet sits.
        at: Coord,
    },
    /// Droplets remained on-chip when the program ended.
    LeftoverDroplets {
        /// How many droplets were left behind.
        count: usize,
    },
    /// The simulator's own bookkeeping broke an internal invariant (e.g. a
    /// fault-mode handler ran without a fault context). Indicates a bug in
    /// the simulator, never in the program being executed.
    Internal {
        /// The invariant that did not hold.
        invariant: &'static str,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::UnknownDroplet { droplet } => write!(f, "droplet {droplet} does not exist"),
            SimError::DuplicateDroplet { droplet } => {
                write!(f, "droplet id {droplet} is already in use")
            }
            SimError::WrongModuleKind { module, expected } => {
                write!(f, "module {module} is not {expected}")
            }
            SimError::BadPath { droplet, reason } => {
                write!(f, "bad transport path for {droplet}: {reason}")
            }
            SimError::FluidicViolation { moving, parked, at } => {
                write!(f, "droplet {moving} touched parked droplet {parked} at {at}")
            }
            SimError::Misplaced { droplet, expected, actual } => {
                write!(f, "droplet {droplet} is at {actual}, needed at {expected}")
            }
            SimError::StorageBusy { cell } => write!(f, "storage cell {cell} occupancy conflict"),
            SimError::NoRoute { droplet, module } => {
                write!(f, "no route for droplet {droplet} to module {module}")
            }
            SimError::PinConflict { moving, parked, actuated, at } => {
                write!(
                    f,
                    "actuating {actuated} for droplet {moving} ghost-fires next to \
                     parked droplet {parked} at {at} (shared-pin co-activation hazard)"
                )
            }
            SimError::LeftoverDroplets { count } => {
                write!(f, "{count} droplet(s) left on chip at program end")
            }
            SimError::Internal { invariant } => {
                write!(f, "simulator invariant violated: {invariant}")
            }
        }
    }
}

impl Error for SimError {}
