//! Model builder: variables, bounds, integrality, linear constraints.

use crate::error::SolverError;

/// Optimization direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sense {
    Minimize,
    Maximize,
}

/// Relation of a linear constraint to its right-hand side.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Relation {
    Le,
    Ge,
    Eq,
}

/// Opaque handle to a model variable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub(crate) usize);

impl VarId {
    /// Index of the variable inside the model (also its index in solution
    /// vectors).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Opaque handle to a model constraint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ConstraintId(pub(crate) usize);

impl ConstraintId {
    pub fn index(self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
pub(crate) struct Variable {
    pub lower: f64,
    pub upper: f64,
    pub objective: f64,
    pub integer: bool,
}

/// A constraint's place in [`Model::terms`], its relation and its rhs.
#[derive(Debug, Clone)]
pub(crate) struct Row {
    pub start: usize,
    pub relation: Relation,
    pub rhs: f64,
}

/// A linear or mixed-integer linear program.
///
/// Variables are continuous by default; mark them integral with
/// [`Model::add_integer_var`] / [`Model::add_binary_var`]. All bounds may be
/// infinite except where integrality requires branching (branch and bound
/// rejects integer variables with two infinite bounds).
///
/// The constraints' terms live in one flat array, row after row, so
/// [`Model::clear`] and a refill reuse every buffer.
#[derive(Debug, Clone)]
pub struct Model {
    pub(crate) sense: Sense,
    pub(crate) vars: Vec<Variable>,
    pub(crate) terms: Vec<(VarId, f64)>,
    pub(crate) rows: Vec<Row>,
}

impl Model {
    pub fn new(sense: Sense) -> Self {
        Model { sense, vars: Vec::new(), terms: Vec::new(), rows: Vec::new() }
    }

    /// Remove every variable and constraint, keeping the sense and the
    /// buffers' capacity.
    pub fn clear(&mut self) {
        self.vars.clear();
        self.terms.clear();
        self.rows.clear();
    }

    pub fn sense(&self) -> Sense {
        self.sense
    }

    /// Add a continuous variable with bounds `[lower, upper]` and the given
    /// objective coefficient.
    pub fn add_var(&mut self, lower: f64, upper: f64, objective: f64) -> VarId {
        self.push_var(lower, upper, objective, false)
    }

    /// Add an integer variable with bounds `[lower, upper]`.
    pub fn add_integer_var(&mut self, lower: f64, upper: f64, objective: f64) -> VarId {
        self.push_var(lower, upper, objective, true)
    }

    /// Add a binary (0/1) variable.
    pub fn add_binary_var(&mut self, objective: f64) -> VarId {
        self.push_var(0.0, 1.0, objective, true)
    }

    fn push_var(&mut self, lower: f64, upper: f64, objective: f64, integer: bool) -> VarId {
        let id = VarId(self.vars.len());
        self.vars.push(Variable { lower, upper, objective, integer });
        id
    }

    /// Add the constraint `Σ coeff·var  <relation>  rhs`.
    ///
    /// Duplicate variable entries in `terms` are allowed and summed.
    pub fn add_constraint(
        &mut self,
        terms: impl IntoIterator<Item = (VarId, f64)>,
        relation: Relation,
        rhs: f64,
    ) -> ConstraintId {
        let id = ConstraintId(self.rows.len());
        self.rows.push(Row { start: self.terms.len(), relation, rhs });
        self.terms.extend(terms);
        id
    }

    /// The constraints in order: terms, relation and rhs of each.
    pub(crate) fn constraints(&self) -> impl Iterator<Item = (&[(VarId, f64)], Relation, f64)> {
        self.rows.iter().enumerate().map(|(r, row)| {
            let end = self.rows.get(r + 1).map_or(self.terms.len(), |next| next.start);
            (&self.terms[row.start..end], row.relation, row.rhs)
        })
    }

    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    pub fn num_constraints(&self) -> usize {
        self.rows.len()
    }

    /// Ids of all integer variables, in order.
    pub fn integer_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.vars.iter().enumerate().filter(|(_, v)| v.integer).map(|(i, _)| VarId(i))
    }

    pub fn var_bounds(&self, v: VarId) -> (f64, f64) {
        (self.vars[v.0].lower, self.vars[v.0].upper)
    }

    /// Evaluate the objective at a point (no feasibility check).
    pub fn eval_objective(&self, x: &[f64]) -> f64 {
        self.vars.iter().zip(x).map(|(v, xi)| v.objective * xi).sum()
    }

    /// Maximum constraint/bound violation of a point.
    pub fn max_violation(&self, x: &[f64]) -> f64 {
        let mut worst: f64 = 0.0;
        for (i, v) in self.vars.iter().enumerate() {
            worst = worst.max(v.lower - x[i]).max(x[i] - v.upper);
        }
        for (terms, relation, rhs) in self.constraints() {
            let lhs: f64 = terms.iter().map(|&(v, a)| a * x[v.0]).sum();
            let viol = match relation {
                Relation::Le => lhs - rhs,
                Relation::Ge => rhs - lhs,
                Relation::Eq => (lhs - rhs).abs(),
            };
            worst = worst.max(viol);
        }
        worst
    }

    /// Check a point against constraints and bounds with tolerance `tol`.
    pub fn is_feasible(&self, x: &[f64], tol: f64) -> bool {
        x.len() == self.vars.len() && self.max_violation(x) <= tol
    }

    /// Validate the model's internal consistency (finite coefficients, sane
    /// bounds, valid variable references).
    pub fn validate(&self) -> Result<(), SolverError> {
        for (i, v) in self.vars.iter().enumerate() {
            if v.lower > v.upper {
                return Err(SolverError::InvertedBounds { var: i, lower: v.lower, upper: v.upper });
            }
            if v.objective.is_nan() || v.objective.is_infinite() {
                return Err(SolverError::NonFiniteInput { what: "objective coefficient" });
            }
            if v.lower.is_nan() || v.upper.is_nan() {
                return Err(SolverError::NonFiniteInput { what: "variable bound" });
            }
        }
        for (terms, _, rhs) in self.constraints() {
            if !rhs.is_finite() {
                return Err(SolverError::NonFiniteInput { what: "constraint rhs" });
            }
            for &(v, a) in terms {
                if v.0 >= self.vars.len() {
                    return Err(SolverError::UnknownVariable {
                        var: v.0,
                        num_vars: self.vars.len(),
                    });
                }
                if !a.is_finite() {
                    return Err(SolverError::NonFiniteInput { what: "constraint coefficient" });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_and_validate() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, 10.0, 1.0);
        let y = m.add_binary_var(2.0);
        m.add_constraint(vec![(x, 1.0), (y, 3.0)], Relation::Le, 7.0);
        assert_eq!(m.num_vars(), 2);
        assert_eq!(m.num_constraints(), 1);
        assert_eq!(m.integer_vars().collect::<Vec<_>>(), vec![y]);
        assert!(m.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_bounds() {
        let mut m = Model::new(Sense::Minimize);
        m.add_var(3.0, 1.0, 0.0);
        assert!(matches!(m.validate(), Err(SolverError::InvertedBounds { .. })));
    }

    #[test]
    fn validate_rejects_unknown_var() {
        let mut m1 = Model::new(Sense::Minimize);
        let mut m2 = Model::new(Sense::Minimize);
        let x2 = m2.add_var(0.0, 1.0, 0.0);
        let _ = m2.add_var(0.0, 1.0, 0.0);
        // Use a var id from the larger model in the smaller one.
        m1.add_var(0.0, 1.0, 0.0);
        m1.add_constraint(vec![(VarId(5), 1.0)], Relation::Le, 1.0);
        assert!(matches!(m1.validate(), Err(SolverError::UnknownVariable { .. })));
        let _ = x2;
    }

    #[test]
    fn feasibility_and_violation() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, 5.0, 1.0);
        m.add_constraint(vec![(x, 2.0)], Relation::Le, 6.0);
        assert!(m.is_feasible(&[3.0], 1e-9));
        assert!(!m.is_feasible(&[3.1], 1e-9));
        assert!((m.max_violation(&[4.0]) - 2.0).abs() < 1e-12);
        assert!(!m.is_feasible(&[-0.5], 1e-9));
    }

    #[test]
    fn eval_objective_sums_terms() {
        let mut m = Model::new(Sense::Maximize);
        let _x = m.add_var(0.0, 1.0, 2.0);
        let _y = m.add_var(0.0, 1.0, -1.0);
        assert!((m.eval_objective(&[0.5, 1.0]) - 0.0).abs() < 1e-12);
    }
}
