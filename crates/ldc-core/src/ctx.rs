//! Shared plumbing for the distributed OLDC algorithms of Section 3:
//! the call context (who participates, how conflicts are scoped), error
//! types, and the wire messages with their canonical bit costs.

use crate::problem::Color;
use ldc_classic::ClassicError;
use ldc_graph::coloring::ColoringError;
use ldc_graph::{DirectedView, NodeId};
use ldc_sim::{bits_for_value, MessageSize, SimError};
use std::sync::Arc;

/// Canonical span names of the phase-span trace taxonomy: **one span name
/// per paper artifact** (theorem, lemma, or phase), so a trace of any
/// pipeline reads like the paper's accounting. Every theorem pipeline pulls
/// the [`ldc_sim::Tracer`] off its [`ldc_sim::Network`] and opens these
/// spans at its artifact boundaries; see DESIGN.md §Observability.
pub mod span {
    /// Theorem 1.1 (`solve_oldc`): the OLDC algorithm.
    pub const THM11: &str = "thm1.1";
    /// Theorem 1.2 (`reduce_color_space`): recursive color-space reduction.
    pub const THM12: &str = "thm1.2";
    /// Theorem 1.3 (`solve_list_arbdefective`): the arbdefective driver.
    pub const THM13: &str = "thm1.3";
    /// Theorem 1.4 (`congest_degree_plus_one`): CONGEST (deg+1)-coloring.
    pub const THM14: &str = "thm1.4";
    /// The census round computing β / group degrees (Lemma 3.7 setup).
    pub const CENSUS: &str = "census";
    /// The auxiliary multi-defect instance assigning γ-classes (Thm 1.1).
    pub const AUX_CLASSES: &str = "aux-classes";
    /// Lemma 3.7 Phase 0: laggards commit their candidate sets.
    pub const PHASE0: &str = "phase0";
    /// Lemma 3.7 Phase I for γ-class `i` (ascending selection/verification).
    pub fn phase_i(class: u32) -> String {
        format!("phaseI[class={class}]")
    }
    /// Lemma 3.7 Phase II: descending decision rounds.
    pub const PHASE2: &str = "phaseII";
    /// §3.2's P2 selection / P1 verification loop (all retries, one span).
    pub const SELECTION: &str = "p2-selection";
    /// §3.2.3's decision rounds (trivial nodes + descending γ-classes).
    pub const DECIDE: &str = "decide";
    /// Laggard fallback chain (Lemma 3.8's sequential tail).
    pub const LAGGARD_CHAIN: &str = "laggard-chain";
    /// One recursion level of Theorem 1.2's color-space reduction.
    pub fn reduce_level(depth: usize) -> String {
        format!("colorspace-reduce[depth={depth}]")
    }
    /// The base-level OLDC solve under Theorem 1.2.
    pub const BASE_SOLVE: &str = "base-solve";
    /// One degree-halving stage of Theorem 1.3.
    pub fn stage(i: usize) -> String {
        format!("stage[{i}]")
    }
    /// The substrate arbdefective call inside a Theorem 1.3 stage.
    pub const SUBSTRATE: &str = "substrate";
    /// One per-bucket OLDC call inside a Theorem 1.3 stage.
    pub const BUCKET_OLDC: &str = "bucket-oldc";
    /// The announce/orientation-resolution rounds of a Theorem 1.3 stage.
    pub const ANNOUNCE: &str = "announce";
    /// Linial's O(log* n) initial coloring (ldc-classic).
    pub const LINIAL_INIT: &str = "linial-init";
    /// Color-class iteration list-coloring baseline (ldc-classic).
    pub const CLASS_ITERATION: &str = "class-iteration";
    /// Kuhn–Wattenhofer style palette reduction (ldc-classic).
    pub const KW_REDUCTION: &str = "kw-reduction";
    /// Luby-style randomized list coloring baseline (ldc-classic).
    pub const LUBY: &str = "luby";
    /// Kuhn'09 defective coloring baseline (ldc-classic).
    pub const DEFECTIVE: &str = "kuhn-defective";
    /// Sequential (color-by-color) arbdefective substrate (ldc-classic).
    pub const SEQ_ARBDEFECTIVE: &str = "seq-arbdefective";
    /// Randomized draw-and-settle arbdefective substrate (ldc-classic).
    pub const RAND_ARBDEFECTIVE: &str = "rand-arbdefective";

    /// Counter: selection/verification retries (`SeededSubset` redraws).
    pub const CTR_SELECTION_RETRIES: &str = "selection-retries";
    /// Counter: colors pruned by frequency capping in Phase II.
    pub const CTR_PRUNED_COLORS: &str = "pruned-colors";
    /// Counter: laggard chain iterations (high-water mark).
    pub const CTR_LAGGARD_CHAIN_DEPTH: &str = "laggard-chain-depth";
    /// Counter: sum over rounds of still-undecided nodes.
    pub const CTR_UNDECIDED_NODE_ROUNDS: &str = "undecided-node-rounds";
    /// Counter: recursion depth (high-water mark).
    pub const CTR_RECURSION_DEPTH: &str = "recursion-depth";
    /// Counter: number of OLDC sub-calls issued.
    pub const CTR_OLDC_CALLS: &str = "oldc-calls";
    /// Counter: degree-halving stages executed.
    pub const CTR_STAGES: &str = "stages";
}

/// Context for one invocation of an OLDC algorithm.
///
/// `active` and `group` realize the two scoping mechanisms the paper's
/// constructions rely on (iterating over color classes in Theorem 1.3, and
/// disjoint color subspaces in Theorem 1.2): only *active* nodes
/// participate, and defects/conflicts are only counted between out-neighbor
/// pairs in the **same group** — nodes in different groups can never pick
/// conflicting colors because their effective color spaces are disjoint.
#[derive(Clone, Copy)]
pub struct OldcCtx<'a, 'g> {
    /// The directed view (out-neighbors carry defects).
    pub view: &'a DirectedView<'g>,
    /// Color-space size `|𝒞|`.
    pub space: u64,
    /// The initial proper `m`-coloring (types are keyed on it).
    pub init: &'a [u64],
    /// Palette size `m` of the initial coloring.
    pub m: u64,
    /// Which nodes participate in this call.
    pub active: &'a [bool],
    /// Conflict group per node (see type-level docs).
    pub group: &'a [u64],
    /// Constant profile (DESIGN.md §S2).
    pub profile: crate::params::ParamProfile,
    /// Seed for the type-keyed selection strategy (DESIGN.md §S1).
    pub seed: u64,
}

/// Failures of the distributed algorithms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CoreError {
    /// A stated list-size / defect-mass precondition fails at `node`.
    Precondition {
        /// The violating node.
        node: NodeId,
        /// What was required.
        detail: String,
    },
    /// The candidate-set selection kept conflicting beyond the retry cap.
    SelectionExhausted {
        /// A node that never met its conflict budget.
        node: NodeId,
        /// Retry cap that was reached.
        attempts: u32,
    },
    /// No list color met the frequency budget in the decision phase.
    PigeonholeFailed {
        /// The stuck node.
        node: NodeId,
        /// Best achievable frequency.
        best: u64,
        /// The node's defect budget.
        budget: u64,
    },
    /// Underlying simulator failure (CONGEST budget exceeded, …).
    Sim(SimError),
    /// A classic color reduction (Linial's initialization, the
    /// arbdefective substrate) lost properness under a fault plan (see
    /// [`ldc_classic::ClassicError::Improper`]).
    Improper(ColoringError),
    /// A classic reduction ended with a node that never decided its color
    /// (see [`ldc_classic::ClassicError::Undecided`]).
    Undecided {
        /// The undecided node.
        node: NodeId,
    },
}

impl From<SimError> for CoreError {
    fn from(e: SimError) -> Self {
        CoreError::Sim(e)
    }
}

impl From<ClassicError> for CoreError {
    fn from(e: ClassicError) -> Self {
        match e {
            ClassicError::Sim(e) => CoreError::Sim(e),
            ClassicError::Improper(e) => CoreError::Improper(e),
            ClassicError::Undecided(node) => CoreError::Undecided { node },
            ClassicError::ListTooShort { node, len, degree } => CoreError::Precondition {
                node,
                detail: format!("class iteration needs more than {degree} list colors, got {len}"),
            },
        }
    }
}

impl std::fmt::Display for CoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoreError::Precondition { node, detail } => {
                write!(f, "precondition violated at node {node}: {detail}")
            }
            CoreError::SelectionExhausted { node, attempts } => {
                write!(f, "node {node} exhausted {attempts} selection attempts")
            }
            CoreError::PigeonholeFailed { node, best, budget } => write!(
                f,
                "node {node} found no color within budget (best frequency {best} > {budget})"
            ),
            CoreError::Sim(e) => write!(f, "simulation error: {e}"),
            CoreError::Improper(e) => write!(f, "color reduction lost properness: {e}"),
            CoreError::Undecided { node } => write!(f, "node {node} never decided its color"),
        }
    }
}

impl std::error::Error for CoreError {}

/// Wire message announcing a node's candidate set `C_v`.
///
/// On the wire this is the node's **type** — `(initial color, restricted
/// list, defect, attempt)` — from which any receiver can recompute `C_v`
/// (Lemma 3.6's encoding argument); the in-memory copy carries the set
/// itself for the simulator's convenience. The declared cost follows the
/// paper: `log m + min{ℓ·⌈log|𝒞|⌉, |𝒞|} + loglog β + O(1)` bits.
#[derive(Clone)]
pub struct CandidateMsg {
    /// Sender's γ-class.
    pub class: u32,
    /// Sender's conflict group.
    pub group: u64,
    /// The candidate set (sorted).
    pub set: Arc<[Color]>,
    /// Declared wire cost in bits.
    pub declared_bits: u64,
}

impl CandidateMsg {
    /// Canonical type-encoding cost for a node with a restricted list of
    /// length `ell`.
    pub fn type_bits(ell: u64, space: u64, m: u64, beta: u64) -> u64 {
        let list_bits = (ell * bits_for_value(space.saturating_sub(1)).max(1)).min(space);
        let m_bits = bits_for_value(m.saturating_sub(1)).max(1);
        let defect_bits = bits_for_value(bits_for_value(beta)).max(1); // loglog β
        list_bits + m_bits + defect_bits + 8 // class, attempt, flags
    }
}

impl MessageSize for CandidateMsg {
    fn bits(&self) -> u64 {
        self.declared_bits
    }
}

/// Wire message announcing a final color decision.
#[derive(Clone)]
pub struct DecisionMsg {
    /// The chosen color.
    pub color: Color,
    /// Sender's conflict group.
    pub group: u64,
    /// Color-space size (for sizing).
    pub space: u64,
}

impl MessageSize for DecisionMsg {
    fn bits(&self) -> u64 {
        bits_for_value(self.space.saturating_sub(1)).max(1) + 1
    }
}

/// Wire message used in the census round (β computation): "I am active, in
/// this group".
#[derive(Clone)]
pub struct CensusMsg {
    /// Sender's conflict group.
    pub group: u64,
}

impl MessageSize for CensusMsg {
    fn bits(&self) -> u64 {
        bits_for_value(self.group).max(1) + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn type_bits_uses_bitmap_crossover() {
        // Small space: bitmap wins (64 bits + log m + loglog β + framing).
        let small = CandidateMsg::type_bits(100, 64, 16, 8);
        assert_eq!(small, 64 + 4 + 3 + 8);
        // Large space: index list wins.
        let large = CandidateMsg::type_bits(10, 1 << 20, 16, 8);
        assert_eq!(large, 10 * 20 + 4 + 3 + 8);
    }

    #[test]
    fn decision_msg_costs_one_color() {
        let m = DecisionMsg {
            color: 5,
            group: 0,
            space: 1 << 10,
        };
        assert_eq!(m.bits(), 11);
    }
}
