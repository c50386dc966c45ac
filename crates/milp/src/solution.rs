//! Solution containers for the LP and MILP solvers.

/// Outcome class of an LP solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LpStatus {
    Optimal,
    Infeasible,
    Unbounded,
}

/// Result of solving a (relaxed) linear program.
#[derive(Debug, Clone)]
pub struct LpSolution {
    pub status: LpStatus,
    /// Objective in the *original* sense; meaningful only when `Optimal`.
    pub objective: f64,
    /// Values of the original model variables; empty unless `Optimal`.
    pub x: Vec<f64>,
    /// Simplex iterations spent (both phases).
    pub iterations: usize,
    /// Dual value (shadow price) per model constraint, in the original
    /// sense: the rate of change of the optimal objective per unit increase
    /// of that constraint's rhs. `None` for equality rows (their slack is
    /// fixed at zero, so no sign convention prices them) and whenever the
    /// solve is not optimal.
    pub duals: Vec<Option<f64>>,
}

impl LpSolution {
    pub fn infeasible(iterations: usize) -> Self {
        LpSolution {
            status: LpStatus::Infeasible,
            objective: f64::NAN,
            x: Vec::new(),
            iterations,
            duals: Vec::new(),
        }
    }

    pub fn unbounded(iterations: usize) -> Self {
        LpSolution {
            status: LpStatus::Unbounded,
            objective: f64::NAN,
            x: Vec::new(),
            iterations,
            duals: Vec::new(),
        }
    }

    pub fn is_optimal(&self) -> bool {
        self.status == LpStatus::Optimal
    }
}

/// Result of a branch-and-bound MILP solve.
#[derive(Debug, Clone)]
pub struct MilpSolution {
    pub status: LpStatus,
    /// Objective in the original sense; meaningful only when `Optimal`.
    pub objective: f64,
    /// Values of the original model variables (integral entries snapped).
    pub x: Vec<f64>,
    /// Full search statistics: nodes, LP iterations, incumbent updates and
    /// prune counts by reason.
    pub stats: crate::branch_bound::BnbStats,
    /// `true` when the search closed (the solution is a proven optimum);
    /// `false` when the node limit stopped the search and the solution is
    /// the best incumbent found so far.
    pub proven: bool,
}

/// The empty result a reusable solution buffer starts from: no point,
/// infeasible, nothing searched.
impl Default for MilpSolution {
    fn default() -> Self {
        MilpSolution {
            status: LpStatus::Infeasible,
            objective: f64::NAN,
            x: Vec::new(),
            stats: Default::default(),
            proven: true,
        }
    }
}

impl MilpSolution {
    pub fn is_optimal(&self) -> bool {
        self.status == LpStatus::Optimal
    }
}
