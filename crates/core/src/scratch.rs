//! Reusable solver scratch: the buffers the per-request hot path needs.
//!
//! The streaming pipelines solve one augmentation instance per admitted
//! request; at ~µs solve times, per-request heap allocation is a first-order
//! cost. [`SolveScratch`] owns every working buffer the heuristic, greedy and
//! exact solvers (and the matching and LP layers underneath) touch, so a warm
//! scratch makes the solve loop allocation-free —
//! `crates/bench/benches/solve_alloc.rs` pins "0 heap allocations per request
//! after warm-up" with a counting global allocator.
//!
//! Ownership rules (also in DESIGN.md "Hot path"):
//!
//! * One `SolveScratch` per stream — never shared between threads.
//! * Buffers carry no information across solves: every solver clears or
//!   overwrites each buffer before reading it, so solver output is a pure
//!   function of `(instance, config, RNG state)` regardless of what ran on
//!   the scratch before. The one cache, [`SolveScratch::tables`], holds pure
//!   functions of a reliability value, so a hit equals a direct call.
//!   `tests/scratch_reuse.rs` pins exactly this: every algorithm solves each
//!   instance of a mixed-size set on a fresh scratch and on one shared
//!   scratch in forward and reverse order, bit-equal.
//! * Growth is high-water-mark only: a buffer grows to the largest instance
//!   seen and stays there.

use crate::ilp::IlpScratch;
use crate::reliability::LadderTables;
use crate::solution::Augmentation;
use matching::{LadderMatcher, Matching};
use mecnet::graph::NodeId;

/// Working buffers of the heuristic's matching loop (the greedy baseline
/// reuses `residual`).
#[derive(Debug, Clone, Default)]
pub struct HeuristicScratch {
    pub cap: Vec<usize>,
    pub next_k: Vec<usize>,
    /// Per function: its table in [`SolveScratch::tables`].
    pub table_of: Vec<usize>,
    pub residual: Vec<f64>,
    /// Right item index -> `(func, k)`.
    pub item_of: Vec<(usize, usize)>,
    pub placed_per_func: Vec<usize>,
}

/// Buffers of the stream engine's own per-request steps around the solve:
/// the request's demands, its primaries, its per-bin loads and its debit
/// list. The engine owns one next to its [`SolveScratch`].
#[derive(Debug, Clone, Default)]
pub(crate) struct CommitScratch {
    pub demands: Vec<f64>,
    /// `locations[i]` hosts the primary of chain position `i`.
    pub locations: Vec<NodeId>,
    pub loads: Vec<f64>,
    pub debits: Vec<(NodeId, f64)>,
}

/// All scratch state one stream owns.
#[derive(Debug, Clone, Default)]
pub struct SolveScratch {
    /// The solution under construction; every solver leaves its result here.
    pub sol: Augmentation,
    pub heur: HeuristicScratch,
    /// Output slot of the heuristic's round matcher.
    pub matching_out: Matching,
    /// The heuristic's round matcher; its input is rebuilt every round.
    pub ladder: LadderMatcher,
    /// `R`, `ln R` and Eq. 3 cost per instance reliability, read by the
    /// heuristic's round enumeration and stop check, every solver's trim and
    /// the exact solver's aggregated model.
    pub tables: LadderTables,
    /// LP workspace (computational form, factorization, eta file, node
    /// state) reused by the exact ILP path and the randomized algorithm's
    /// relaxation. [`milp::solve_milp_with_ws`] clears any carried basis at
    /// entry, and the randomized algorithm clears it before its solve, so
    /// only capacity — never state — survives across solves.
    pub lp: milp::LpWorkspace,
    /// The exact solver's component decomposition, sub-instance, aggregated
    /// model, warm start and branch-and-bound solution.
    pub ilp: IlpScratch,
}

impl SolveScratch {
    pub fn new() -> Self {
        Self::default()
    }
}
