//! Error type shared by the LP and MILP solvers.

use std::fmt;

/// Failure modes of the solvers.
///
/// Infeasibility and unboundedness of a *model* are not errors — they are
/// reported through [`crate::LpStatus`]. `SolverError` covers misuse of the API
/// and numerical breakdown.
#[derive(Debug, Clone, PartialEq)]
pub enum SolverError {
    /// A constraint references a variable id that does not belong to the model.
    UnknownVariable { var: usize, num_vars: usize },
    /// A variable was declared with `lower > upper`.
    InvertedBounds { var: usize, lower: f64, upper: f64 },
    /// A coefficient, bound, or right-hand side is NaN or infinite where a
    /// finite value is required.
    NonFiniteInput { what: &'static str },
    /// The simplex iteration limit was exceeded (cycling or a pathological
    /// instance).
    IterationLimit { iterations: usize },
    /// Branch and bound exhausted its node budget before proving optimality.
    NodeLimit { nodes: usize },
}

impl fmt::Display for SolverError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SolverError::UnknownVariable { var, num_vars } => {
                write!(f, "constraint references variable {var} but model has {num_vars}")
            }
            SolverError::InvertedBounds { var, lower, upper } => {
                write!(f, "variable {var} has lower bound {lower} > upper bound {upper}")
            }
            SolverError::NonFiniteInput { what } => {
                write!(f, "non-finite value supplied for {what}")
            }
            SolverError::IterationLimit { iterations } => {
                write!(f, "simplex exceeded {iterations} iterations")
            }
            SolverError::NodeLimit { nodes } => {
                write!(f, "branch and bound exceeded {nodes} nodes")
            }
        }
    }
}

impl std::error::Error for SolverError {}
