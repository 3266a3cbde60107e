//! Classic distributed-coloring substrates and baselines.
//!
//! The paper's algorithms stand on a stack of classic results, all of which
//! are implemented here from scratch against the `ldc-sim` round engine:
//!
//! * [`coverfree`] — polynomial set systems over `F_q` (the combinatorial
//!   core of Linial's algorithm and of Kuhn's defective coloring),
//! * [`linial`] — Linial's `O(Δ²)`-coloring in `O(log* n)` rounds
//!   \[Lin87\] and Kuhn's `d`-defective `O((Δ/d)²)`-coloring \[Kuh09\],
//! * [`arbdefective`] — a `d`-arbdefective `q`-coloring substrate with the
//!   interface of \[BEG18\] (see DESIGN.md §S3 for the substitution note),
//! * [`reduction`] — standard color-class elimination from an `m`-coloring
//!   down to `(Δ+1)` colors (the `O(Δ² + log* n)`-style baseline),
//! * [`greedy`] — sequential greedy reference solvers,
//! * [`luby`] — a randomized `O(log n)`-style baseline,
//! * [`list_baseline`] — a LOCAL `(degree+1)`-list coloring baseline that
//!   ships whole color lists in its messages (`Θ(Δ·log|𝒞|)` bits), the
//!   regime Theorem 1.4 improves on in CONGEST.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbdefective;
pub mod coverfree;
pub mod greedy;
pub mod hpartition;
pub mod linial;
pub mod list_baseline;
pub mod luby;
pub mod reduction;

pub use arbdefective::{randomized_arbdefective, sequential_arbdefective, ArbdefectiveColoring};
pub use hpartition::{h_partition, HPartition};
pub use linial::{defective_coloring, linial_coloring, DefectiveColoring};

use ldc_graph::coloring::ColoringError;
use ldc_graph::NodeId;
use ldc_sim::SimError;

/// Failures of the classic color reductions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClassicError {
    /// Underlying simulator failure (CONGEST budget exceeded, …).
    Sim(SimError),
    /// A reduction that keeps a coloring proper on a flawless network
    /// ended with (or ran into) an improper one: a fault plan lost a
    /// color announcement the reduction relied on, or froze a node on a
    /// color from an earlier palette.
    Improper(ColoringError),
    /// A node never decided its color: a fault plan kept it from acting
    /// in the round the reduction scheduled it for (a crashed or
    /// sleeping node).
    Undecided(NodeId),
}

impl From<SimError> for ClassicError {
    fn from(e: SimError) -> Self {
        ClassicError::Sim(e)
    }
}

impl std::fmt::Display for ClassicError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClassicError::Sim(e) => write!(f, "simulation error: {e}"),
            ClassicError::Improper(e) => write!(f, "color reduction lost properness: {e}"),
            ClassicError::Undecided(v) => write!(f, "node {v} never decided its color"),
        }
    }
}

impl std::error::Error for ClassicError {}
