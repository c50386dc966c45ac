//! Bipartite matching substrate for the SFC reliability-augmentation
//! heuristic.
//!
//! The paper's Algorithm 2 repeatedly computes a **minimum-cost maximum
//! matching** between cloudlets and candidate secondary VNF instances ("find a
//! minimum-cost maximum matching `M_l` in `G_l`, by the Hungarian algorithm").
//! The heuristic solves every round with [`ladder::LadderMatcher`]; the
//! general solvers below cross-validate it:
//!
//! * [`ladder::LadderMatcher`] — exact solver for the heuristic's
//!   round-structured graphs (per-function cost ladders over shared bins):
//!   the matroid greedy over bin-signature classes, with the cardinality and
//!   cost of [`bipartite::min_cost_max_matching`].
//! * [`bipartite::min_cost_max_matching`] — successive-shortest-path
//!   min-cost max-flow on sparse edge lists, backed by [`mcmf`]: the ladder
//!   matcher's property-test reference.
//! * [`hungarian::solve`] — classical dense-matrix assignment
//!   (Jonker–Volgenant style shortest augmenting paths), used by tests to
//!   confirm the sparse solver on complete instances.
//! * [`hopcroft_karp::max_cardinality`] — cardinality-only matching, used to
//!   verify the "maximum" part of min-cost maximum matching.
//! * [`brute`] — exponential exact search for tiny graphs, the property-test
//!   oracle.

pub mod bipartite;
pub mod brute;
pub mod hopcroft_karp;
pub mod hungarian;
pub mod ladder;
pub mod mcmf;

pub use bipartite::{min_cost_max_matching, Matching};
pub use ladder::LadderMatcher;
pub use mcmf::{FlowResult, McmfGraph};
