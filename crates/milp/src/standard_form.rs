//! Conversion of a [`Model`] into the bounded-variable computational form
//! used by the revised simplex:
//!
//! `min c'x  s.t.  Ax + s = rhs,  lower <= (x, s) <= upper`.
//!
//! Unlike a textbook standard form there is no variable shifting, mirroring,
//! splitting, or explicit upper-bound rows: every structural variable keeps
//! its (possibly overridden) bounds in the variable file, and every row gets
//! exactly one logical (slack) column with coefficient `+1` whose bounds
//! encode the relation:
//!
//! * `a'x <= b`  →  `s ∈ [0, +inf)`
//! * `a'x >= b`  →  `s ∈ (-inf, 0]`
//! * `a'x  = b`  →  `s ∈ [0, 0]`
//!
//! The logical columns form the identity, so the all-slack basis is always a
//! valid (if primal-infeasible) starting basis and branch-and-bound bound
//! changes never alter the matrix — only the `lower`/`upper` files. The
//! matrix is stored in CSC (compressed sparse column) layout, slack columns
//! included, so pricing and FTRAN touch only structural nonzeros.
//!
//! Branch and bound builds the form once per solve and rewrites only the
//! structural bounds per node ([`SparseForm::set_bounds`]), so nodes never
//! clone the model or rebuild the matrix.

use crate::problem::{Model, Relation, Sense};

/// A program in bounded-variable form: CSC matrix (structural columns first,
/// then one slack column per row), minimization costs, and bound files.
///
/// [`SparseForm::fill`] rebuilds it in place, reusing every buffer.
#[derive(Debug, Clone, Default)]
pub struct SparseForm {
    /// Number of rows (= model constraints; no synthetic rows).
    pub nrows: usize,
    /// Number of structural columns (= model variables).
    pub nstruct: usize,
    /// Total columns: `nstruct + nrows` (slacks at the end).
    pub ncols: usize,
    /// CSC column pointers, length `ncols + 1`.
    pub col_ptr: Vec<usize>,
    /// CSC row indices, ascending within each column.
    pub row_ind: Vec<usize>,
    /// CSC values, parallel to `row_ind`.
    pub val: Vec<f64>,
    /// Minimization-sense objective, length `ncols` (zero on slacks).
    pub cost: Vec<f64>,
    /// Lower bounds, length `ncols` (`-inf` allowed).
    pub lower: Vec<f64>,
    /// Upper bounds, length `ncols` (`+inf` allowed).
    pub upper: Vec<f64>,
    /// Right-hand sides, length `nrows` (kept as given; never flipped).
    pub rhs: Vec<f64>,
    /// Per-row relation (used to suppress duals on equality rows).
    pub relations: Vec<Relation>,
    /// Whether the original model maximized (objective and duals are
    /// reported back in the original sense).
    pub maximize: bool,
    /// Buffers of [`SparseForm::fill`]: a dense accumulator over the
    /// structural columns, the columns one row touched, every row's merged
    /// terms with their row starts, and the CSC fill cursors.
    acc: Vec<f64>,
    touched: Vec<usize>,
    merged: Vec<(usize, f64)>,
    merged_start: Vec<usize>,
    cursor: Vec<usize>,
}

impl SparseForm {
    /// Rebuild the form of `model` in place: matrix, costs, right-hand
    /// sides and slack bounds. The structural bounds are left for
    /// [`SparseForm::set_bounds`].
    pub fn fill(&mut self, model: &Model) {
        let n = model.num_vars();
        let m = model.num_constraints();
        let ncols = n + m;
        self.nrows = m;
        self.nstruct = n;
        self.ncols = ncols;

        self.maximize = model.sense == Sense::Maximize;
        let sign = if self.maximize { -1.0 } else { 1.0 };
        self.cost.clear();
        self.cost.extend(model.vars.iter().map(|v| sign * v.objective));
        self.cost.resize(ncols, 0.0);

        // Merge duplicate terms per (row, col) with a dense accumulator so
        // the CSC build sees each coefficient once.
        let acc = &mut self.acc;
        acc.clear();
        acc.resize(n, 0.0);
        self.merged.clear();
        self.merged_start.clear();
        self.relations.clear();
        self.rhs.clear();
        for (terms, relation, rhs) in model.constraints() {
            self.merged_start.push(self.merged.len());
            self.touched.clear();
            for &(v, a) in terms {
                let j = v.index();
                if acc[j] == 0.0 {
                    self.touched.push(j);
                }
                acc[j] += a;
            }
            self.touched.sort_unstable();
            for &j in &self.touched {
                if acc[j] != 0.0 {
                    self.merged.push((j, acc[j]));
                }
                acc[j] = 0.0;
            }
            self.relations.push(relation);
            self.rhs.push(rhs);
        }
        self.merged_start.push(self.merged.len());

        // CSC: count nonzeros per column (+1 for each slack unit column),
        // prefix-sum, then fill in row order so row indices ascend within
        // every column.
        let col_ptr = &mut self.col_ptr;
        col_ptr.clear();
        col_ptr.resize(ncols + 1, 0);
        for &(j, _) in &self.merged {
            col_ptr[j + 1] += 1;
        }
        for r in 0..m {
            col_ptr[n + r + 1] += 1; // slack column of row r
        }
        for j in 0..ncols {
            col_ptr[j + 1] += col_ptr[j];
        }
        let nnz = col_ptr[ncols];
        self.row_ind.clear();
        self.row_ind.resize(nnz, 0);
        self.val.clear();
        self.val.resize(nnz, 0.0);
        let cursor = &mut self.cursor;
        cursor.clear();
        cursor.extend_from_slice(col_ptr);
        for r in 0..m {
            for &(j, a) in &self.merged[self.merged_start[r]..self.merged_start[r + 1]] {
                self.row_ind[cursor[j]] = r;
                self.val[cursor[j]] = a;
                cursor[j] += 1;
            }
        }
        for r in 0..m {
            self.row_ind[cursor[n + r]] = r;
            self.val[cursor[n + r]] = 1.0;
            cursor[n + r] += 1;
        }

        // Slack bounds encode the relation.
        self.lower.clear();
        self.lower.resize(n, 0.0);
        self.upper.clear();
        self.upper.resize(n, 0.0);
        for rel in &self.relations {
            let (lo, hi) = match rel {
                Relation::Le => (0.0, f64::INFINITY),
                Relation::Ge => (f64::NEG_INFINITY, 0.0),
                Relation::Eq => (0.0, 0.0),
            };
            self.lower.push(lo);
            self.upper.push(hi);
        }
    }

    /// Write the structural bounds: `model`'s, intersected with
    /// `overrides[i] = Some((lo, hi))` where given. Bounds inverted by less
    /// than `1e-12` are clamped to a fixed variable; `false` means some
    /// variable's bounds are inverted by more (an infeasible node). The
    /// form must have been [filled](SparseForm::fill) from `model`.
    pub fn set_bounds(&mut self, model: &Model, overrides: Option<&[Option<(f64, f64)>]>) -> bool {
        for (i, v) in model.vars.iter().enumerate() {
            let (mut lo, mut hi) = (v.lower, v.upper);
            if let Some((l, h)) = overrides.and_then(|ovr| ovr[i]) {
                lo = lo.max(l);
                hi = hi.min(h);
            }
            if lo > hi + 1e-12 {
                return false;
            }
            self.lower[i] = lo;
            self.upper[i] = hi.max(lo);
        }
        true
    }

    /// The nonzeros of column `j` as parallel `(row indices, values)` slices.
    #[inline]
    pub fn col(&self, j: usize) -> (&[usize], &[f64]) {
        let (s, e) = (self.col_ptr[j], self.col_ptr[j + 1]);
        (&self.row_ind[s..e], &self.val[s..e])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Model, Relation, Sense};

    /// The form of `model` under `overrides`; `None` for an infeasible node.
    fn build(model: &Model, overrides: Option<&[Option<(f64, f64)>]>) -> Option<SparseForm> {
        let mut f = SparseForm::default();
        f.fill(model);
        f.set_bounds(model, overrides).then_some(f)
    }

    #[test]
    fn slack_bounds_encode_relations() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 1.0, 1.0);
        m.add_constraint(vec![(x, 1.0)], Relation::Le, 5.0);
        m.add_constraint(vec![(x, 1.0)], Relation::Ge, -1.0);
        m.add_constraint(vec![(x, 1.0)], Relation::Eq, 0.5);
        let f = build(&m, None).unwrap();
        assert_eq!((f.nrows, f.nstruct, f.ncols), (3, 1, 4));
        // Le slack [0, inf), Ge slack (-inf, 0], Eq slack [0, 0].
        assert_eq!((f.lower[1], f.upper[1]), (0.0, f64::INFINITY));
        assert_eq!((f.lower[2], f.upper[2]), (f64::NEG_INFINITY, 0.0));
        assert_eq!((f.lower[3], f.upper[3]), (0.0, 0.0));
        // Rhs is never flipped.
        assert_eq!(f.rhs, vec![5.0, -1.0, 0.5]);
    }

    #[test]
    fn csc_columns_are_sorted_and_slacks_are_unit() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, f64::INFINITY, 1.0);
        let y = m.add_var(0.0, f64::INFINITY, 2.0);
        m.add_constraint(vec![(y, 3.0), (x, 1.0)], Relation::Le, 4.0);
        m.add_constraint(vec![(x, 2.0)], Relation::Ge, 1.0);
        let f = build(&m, None).unwrap();
        let (rows, vals) = f.col(0);
        assert_eq!(rows, &[0, 1]);
        assert_eq!(vals, &[1.0, 2.0]);
        let (rows, vals) = f.col(1);
        assert_eq!(rows, &[0]);
        assert_eq!(vals, &[3.0]);
        for r in 0..f.nrows {
            let (rows, vals) = f.col(f.nstruct + r);
            assert_eq!(rows, &[r]);
            assert_eq!(vals, &[1.0]);
        }
    }

    #[test]
    fn duplicate_terms_are_merged() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 1.0, 1.0);
        m.add_constraint(vec![(x, 1.0), (x, 2.5)], Relation::Le, 4.0);
        let f = build(&m, None).unwrap();
        let (rows, vals) = f.col(0);
        assert_eq!(rows, &[0]);
        assert!((vals[0] - 3.5).abs() < 1e-12);
    }

    #[test]
    fn maximize_negates_costs() {
        let mut m = Model::new(Sense::Maximize);
        let _x = m.add_var(0.0, 1.0, 3.0);
        let f = build(&m, None).unwrap();
        assert!(f.maximize);
        assert!((f.cost[0] + 3.0).abs() < 1e-12);
    }

    #[test]
    fn overrides_tighten_bounds() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_binary_var(1.0);
        let ovr = vec![Some((1.0, 1.0))];
        let f = build(&m, Some(&ovr)).unwrap();
        assert_eq!((f.lower[x.index()], f.upper[x.index()]), (1.0, 1.0));
    }

    #[test]
    fn inverted_override_is_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let _x = m.add_binary_var(1.0);
        let ovr = vec![Some((2.0, 2.0))];
        // Effective bounds [2,1] -> infeasible node.
        assert!(build(&m, Some(&ovr)).is_none());
    }

    #[test]
    fn near_equal_inverted_bounds_are_clamped() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, 1.0, 1.0);
        // Inverted by less than the 1e-12 slop: clamped to a fixed variable
        // rather than rejected.
        let ovr = vec![Some((0.5 + 5e-13, 0.5))];
        let f = build(&m, Some(&ovr)).unwrap();
        assert!(f.lower[x.index()] <= f.upper[x.index()]);
    }
}
