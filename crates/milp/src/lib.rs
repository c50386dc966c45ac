//! A self-contained linear-programming and mixed-integer-linear-programming
//! solver.
//!
//! This crate exists because the reproduction of the ICPP 2020 paper
//! *"Reliability Augmentation of Requests with Service Function Chain
//! Requirements in Mobile Edge-Cloud Networks"* needs an exact ILP solver and a
//! plain LP solver (for the randomized-rounding algorithm), and no mature
//! pure-Rust MILP crate was available in the build environment. The instances
//! produced by that paper are small — a few hundred binary variables after the
//! `l`-hop locality restriction — so a carefully-tested textbook implementation
//! is entirely adequate:
//!
//! * [`Model`] — a builder for LPs/MILPs with variable bounds, integrality
//!   markers and `≤` / `≥` / `=` constraints.
//! * [`simplex`] — a sparse revised simplex (CSC matrix, LU + eta-file basis
//!   updates with FTRAN/BTRAN over the factors' nonzeros, bounded variables)
//!   over the computational form produced by [`standard_form`], with Bland's
//!   anti-cycling rule and a dual-simplex warm-start entry point
//!   ([`simplex::solve_lp_warm`]).
//! * [`branch_bound`] — best-first branch and bound for the integer variables
//!   over one computational form per solve, warm-starting each child node's
//!   LP from its parent's basis, returning provably optimal solutions (within
//!   tolerance) together with node counts so callers can report solver
//!   effort. With a warm [`LpWorkspace`] and solution buffer
//!   ([`solve_milp_with_ws`]) a search allocates nothing.
//!
//! # Quick example
//!
//! ```
//! use milp::{Model, Sense, Relation};
//!
//! // maximize 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6,  0 <= x, y
//! let mut m = Model::new(Sense::Maximize);
//! let x = m.add_var(0.0, f64::INFINITY, 3.0);
//! let y = m.add_var(0.0, f64::INFINITY, 2.0);
//! m.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
//! m.add_constraint(vec![(x, 1.0), (y, 3.0)], Relation::Le, 6.0);
//! let sol = milp::solve_lp(&m).unwrap();
//! assert!((sol.objective - 12.0).abs() < 1e-6); // x = 4, y = 0
//! ```

pub mod branch_bound;
pub mod error;
pub mod problem;
pub mod simplex;
pub mod solution;
pub mod standard_form;

pub use branch_bound::{solve_milp, solve_milp_with, solve_milp_with_ws, BnbConfig, BnbStats};
pub use error::SolverError;
pub use problem::{ConstraintId, Model, Relation, Sense, VarId};
pub use simplex::{solve_lp, solve_lp_warm, BasisSnapshot, LpWorkspace};
pub use solution::{LpSolution, LpStatus, MilpSolution};

/// Absolute feasibility tolerance used throughout the crate.
pub const FEAS_TOL: f64 = 1e-8;
/// Tolerance below which a reduced cost is considered non-negative.
pub const COST_TOL: f64 = 1e-9;
/// Distance from an integer below which a value counts as integral.
pub const INT_TOL: f64 = 1e-6;
