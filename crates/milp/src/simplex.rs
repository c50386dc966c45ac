//! Sparse revised simplex over the bounded-variable form of
//! [`SparseForm`](crate::standard_form::SparseForm).
//!
//! The solver keeps the basis as an LU factorization (dense partial
//! pivoting, row-pivoted — the instances here have at most a few hundred
//! rows) plus a product-form eta file that absorbs pivots between periodic
//! refactorizations. Variable bounds live in the variable file: a nonbasic
//! column sits at its lower or upper bound (or at zero when free), so binary
//! bounds never become rows and branch-and-bound bound changes leave the
//! matrix untouched.
//!
//! The factorization's elimination updates a row only at the columns where
//! the pivot row is nonzero, and after each factorization the nonzeros of L
//! (by column) and U (by row) are indexed, so FTRAN and BTRAN multiply only
//! nonzero entries. Every sum still runs in the dense loops' order
//! (ascending `k`), so a skipped term is `s − v·0`, which leaves a nonzero
//! `s` unchanged and can at most turn a `-0.0` into `+0.0`. The LU's and
//! FTRAN's sums never hold `-0.0`, so their results equal the dense
//! kernels' bit for bit; BTRAN's second pass starts from quotients that can
//! be `-0.0`, so its results equal the dense ones up to the sign of a zero.
//! No later step tells `±0` apart — every divisor is an LU pivot, an eta
//! pivot or a ratio-test entry, all bounded away from zero, and every
//! comparison treats `±0` alike — so pivots and iteration counts are the
//! dense kernels'. The dense kernels survive as the test oracle of the
//! sparse ones.
//!
//! Three entry points:
//!
//! * [`solve_lp`] — cold two-phase primal solve
//!   (composite phase 1 minimizing the sum of bound infeasibilities, then
//!   Dantzig pricing with Bland's rule after a degenerate streak).
//! * [`solve_lp_warm`] — restart from the basis cached in an
//!   [`LpWorkspace`]. After a bound change the parent basis stays *dual*
//!   feasible, so a handful of dual-simplex pivots reach the child optimum;
//!   any numerical trouble falls back to the cold path. This is what makes
//!   warm-started branch-and-bound node re-solves cheap.
//!
//! All solver state (computational form, basis, statuses, LU, eta file,
//! pricing buffers, the last solve's point, branch-and-bound node state)
//! lives in the caller-owned [`LpWorkspace`], so a warm workspace solves
//! without allocating. The entry points above return owned [`LpSolution`]s
//! built from it, duals included; branch and bound reads the point and
//! objective from the workspace directly and never computes duals.

use std::mem;

use crate::error::SolverError;
use crate::problem::{Model, Relation};
use crate::solution::{LpSolution, LpStatus};
use crate::standard_form::SparseForm;
use crate::{COST_TOL, FEAS_TOL};

/// Degenerate-pivot streak after which Bland's rule is engaged.
const BLAND_TRIGGER: usize = 64;
/// Pivots between basis refactorizations (eta-file length cap).
const REFACTOR_EVERY: usize = 64;
/// Smallest pivot magnitude accepted by the ratio tests.
const PIVOT_TOL: f64 = 1e-8;
/// Dual-feasibility tolerance for accepting a warm-start basis.
const DUAL_FEAS_TOL: f64 = 1e-7;

/// Status of a column relative to the current basis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VStat {
    Basic,
    /// Nonbasic at its lower bound.
    Lower,
    /// Nonbasic at its upper bound.
    Upper,
    /// Nonbasic free column, pinned at zero.
    Free,
}

/// An immutable copy of a basis (columns + statuses) that can be restored
/// into an [`LpWorkspace`] later — branch and bound keeps one per expanded
/// node, shared by both children, in a pool the workspace owns.
#[derive(Debug, Clone)]
pub struct BasisSnapshot {
    key: (usize, usize),
    basis: Vec<usize>,
    vstat: Vec<VStat>,
}

/// Reusable LP state: the computational form of the model being solved,
/// the cached basis of the last optimal solve with every buffer the solver
/// needs (LU factors, eta file, pricing vectors), the last solve's point,
/// and the branch-and-bound node state. Reusing one workspace across solves
/// avoids per-solve allocation; reusing the *basis* (via [`solve_lp_warm`])
/// additionally avoids most pivots when consecutive problems differ only in
/// bounds.
#[derive(Debug, Clone, Default)]
pub struct LpWorkspace {
    /// The form being solved. The `solve_lp*` entry points refill it from
    /// their model; branch and bound fills it once per solve and rewrites
    /// only its structural bounds per node.
    pub(crate) form: SparseForm,
    basis: Basis,
    /// Structural point and objective (original sense) of the last optimal
    /// solve.
    pub(crate) x: Vec<f64>,
    pub(crate) objective: f64,
    /// Simplex iterations of the last solve.
    pub(crate) iterations: usize,
    /// Branch-and-bound node state, reused across searches.
    pub(crate) tree: crate::branch_bound::Tree,
}

/// The basis, its factorization and the iteration buffers.
#[derive(Debug, Clone, Default)]
struct Basis {
    /// `(nrows, ncols)` of the form the cached basis belongs to; `None`
    /// when the workspace holds no usable basis.
    key: Option<(usize, usize)>,
    basis: Vec<usize>,
    vstat: Vec<VStat>,
    /// Dense LU factors of the basis at the last refactorization, row-major
    /// `m x m`: unit-lower L below the diagonal, U on and above.
    lu: Vec<f64>,
    /// Row permutation of the LU: `perm[i]` is the original row stored at
    /// elimination position `i`.
    perm: Vec<usize>,
    // Nonzeros of the factors, indexed at each factorization: L's column k
    // below the diagonal as `(row, value)` in `l_ent[l_ptr[k]..l_ptr[k+1]]`,
    // U's row i right of the diagonal as `(column, value)` likewise, both
    // ascending, and U's diagonal.
    l_ptr: Vec<usize>,
    l_ent: Vec<(usize, f64)>,
    u_ptr: Vec<usize>,
    u_ent: Vec<(usize, f64)>,
    diag: Vec<f64>,
    // Product-form eta file: one entry per pivot since the last
    // refactorization (pivot row, pivot value, off-pivot nonzeros in CSR).
    eta_row: Vec<usize>,
    eta_piv: Vec<f64>,
    eta_ptr: Vec<usize>,
    eta_ind: Vec<usize>,
    eta_val: Vec<f64>,
    // Iteration buffers, lent to the solver for the duration of a solve.
    xb: Vec<f64>,
    alpha: Vec<f64>,
    rho: Vec<f64>,
    y: Vec<f64>,
    work: Vec<f64>,
}

impl LpWorkspace {
    pub fn new() -> LpWorkspace {
        LpWorkspace::default()
    }

    /// Forget the cached basis (buffer capacity is kept). After `clear`,
    /// [`solve_lp_warm`] behaves exactly like a cold solve — callers that
    /// must stay history-independent clear before the first solve.
    pub fn clear(&mut self) {
        self.basis.key = None;
    }

    /// Copy out the current basis, if one is cached.
    pub fn snapshot(&self) -> Option<BasisSnapshot> {
        self.basis.key.map(|key| BasisSnapshot {
            key,
            basis: self.basis.basis.clone(),
            vstat: self.basis.vstat.clone(),
        })
    }

    /// Copy the current basis into `snap`, reusing its buffers; `false`
    /// (and `snap` untouched) when no basis is cached.
    pub(crate) fn snapshot_into(&self, snap: &mut BasisSnapshot) -> bool {
        let Some(key) = self.basis.key else { return false };
        snap.key = key;
        snap.basis.clone_from(&self.basis.basis);
        snap.vstat.clone_from(&self.basis.vstat);
        true
    }

    /// Load a snapshot back in, making it the warm-start candidate for the
    /// next [`solve_lp_warm`] on a same-shaped problem.
    pub fn restore(&mut self, snap: &BasisSnapshot) {
        self.basis.key = Some(snap.key);
        self.basis.basis.clone_from(&snap.basis);
        self.basis.vstat.clone_from(&snap.vstat);
    }

    /// Solve the LP of [`Self::form`] as its bounds stand, warm from the
    /// cached basis when its shape matches and it is still dual feasible,
    /// otherwise cold. `bounds_ok = false` (the form's bounds are inverted,
    /// see [`SparseForm::set_bounds`]) reports an infeasible LP without a
    /// pivot. Leaves the iteration count, and on an optimal finish the
    /// point and objective, in the workspace, and caches the new basis.
    pub(crate) fn solve_form(&mut self, bounds_ok: bool) -> Result<LpStatus, SolverError> {
        let LpWorkspace { form: f, basis: ws, x, objective, iterations, .. } = self;
        *iterations = 0;
        if !bounds_ok {
            ws.key = None;
            return Ok(LpStatus::Infeasible);
        }
        if f.nrows == 0 {
            ws.key = None;
            return Ok(no_rows_solve(f, x, objective));
        }
        let dims = (f.nrows, f.ncols);
        let try_warm = ws.key == Some(dims);
        let mut s = Rsx::new(f, ws);
        let mut status = if try_warm { s.warm_solve() } else { None };
        if status.is_none() {
            s.reset_cold();
            status = Some(s.primal()?);
        }
        let status = status.expect("a cold solve always ends with a status");
        *iterations = s.iterations;
        s.finish(status, dims, x, objective);
        Ok(status)
    }

    /// The owned [`LpSolution`] of the last [`Self::solve_form`], duals
    /// included.
    fn lp_solution(&mut self, status: LpStatus) -> LpSolution {
        match status {
            LpStatus::Optimal => LpSolution {
                status,
                objective: self.objective,
                x: self.x.clone(),
                iterations: self.iterations,
                duals: self.basis.duals(&self.form),
            },
            LpStatus::Infeasible => LpSolution::infeasible(self.iterations),
            LpStatus::Unbounded => LpSolution::unbounded(self.iterations),
        }
    }
}

impl Basis {
    fn eta_len(&self) -> usize {
        self.eta_row.len()
    }

    /// Refactorize: dense LU with partial pivoting of the current basis
    /// columns; clears the eta file. `Err(k)` reports the elimination step
    /// at which the basis turned out (numerically) singular — `perm[k..]`
    /// are the rows not yet pivoted on at that point. Either way the
    /// nonzeros of the factors as they stand are indexed for the kernels.
    fn lu_factor(&mut self, f: &SparseForm) -> Result<(), usize> {
        let m = self.basis.len();
        self.lu.clear();
        self.lu.resize(m * m, 0.0);
        self.perm.clear();
        self.perm.extend(0..m);
        self.eta_row.clear();
        self.eta_piv.clear();
        self.eta_ptr.clear();
        self.eta_ptr.push(0);
        self.eta_ind.clear();
        self.eta_val.clear();
        for (k, &j) in self.basis.iter().enumerate() {
            let (rows, vals) = f.col(j);
            for (&i, &v) in rows.iter().zip(vals) {
                self.lu[i * m + k] = v;
            }
        }
        self.u_ptr.clear();
        self.u_ent.clear();
        let lu = &mut self.lu;
        for k in 0..m {
            let mut p = k;
            let mut best = lu[k * m + k].abs();
            for i in (k + 1)..m {
                let a = lu[i * m + k].abs();
                if a > best {
                    best = a;
                    p = i;
                }
            }
            if best < 1e-11 {
                self.index_factors(m, k);
                return Err(k);
            }
            if p != k {
                for j in 0..m {
                    lu.swap(p * m + j, k * m + j);
                }
                self.perm.swap(p, k);
            }
            // Row k is U's final row k: index its nonzeros right of the
            // diagonal, and update the rows below only there.
            let start = self.u_ent.len();
            self.u_ptr.push(start);
            for j in (k + 1)..m {
                let v = lu[k * m + j];
                if v != 0.0 {
                    self.u_ent.push((j, v));
                }
            }
            let piv = lu[k * m + k];
            for i in (k + 1)..m {
                let factor = lu[i * m + k] / piv;
                lu[i * m + k] = factor;
                if factor != 0.0 {
                    for &(j, v) in &self.u_ent[start..] {
                        lu[i * m + j] -= factor * v;
                    }
                }
            }
        }
        self.index_factors(m, m);
        Ok(())
    }

    /// Index the nonzeros of the dense factors: U's rows `from..m` (rows
    /// before `from` were indexed as the elimination finished them), L's
    /// columns, and U's diagonal.
    fn index_factors(&mut self, m: usize, from: usize) {
        let lu = &self.lu;
        for i in from..m {
            self.u_ptr.push(self.u_ent.len());
            for j in (i + 1)..m {
                let v = lu[i * m + j];
                if v != 0.0 {
                    self.u_ent.push((j, v));
                }
            }
        }
        self.u_ptr.push(self.u_ent.len());
        self.l_ptr.clear();
        self.l_ent.clear();
        self.diag.clear();
        for k in 0..m {
            self.l_ptr.push(self.l_ent.len());
            self.diag.push(lu[k * m + k]);
            for i in (k + 1)..m {
                let v = lu[i * m + k];
                if v != 0.0 {
                    self.l_ent.push((i, v));
                }
            }
        }
        self.l_ptr.push(self.l_ent.len());
    }

    /// Factorize the current basis, swapping out linearly dependent columns
    /// for slack columns of not-yet-eliminated rows when the LU breaks
    /// down. Returns `None` if the basis could not be repaired, otherwise
    /// `Some(repaired)` — whether any column was replaced. Repair keeps the
    /// basis nonsingular but may lose primal feasibility (the ejected
    /// variable snaps to a bound), so callers must recheck.
    fn factor_with_repair(&mut self, f: &SparseForm) -> Option<bool> {
        let mut repaired = false;
        for _ in 0..=f.nrows {
            match self.lu_factor(f) {
                Ok(()) => return Some(repaired),
                Err(k) => {
                    // `basis[k]` is (numerically) dependent on the columns
                    // already eliminated. Swap in the slack of a row not
                    // yet pivoted on: its unit column is independent of
                    // every already-factored column by construction.
                    let slack = (k..f.nrows)
                        .map(|i| f.nstruct + self.perm[i])
                        .find(|&s| self.vstat[s] != VStat::Basic)?;
                    let old = self.basis[k];
                    self.vstat[old] = initial_status(f.lower[old], f.upper[old]);
                    self.vstat[slack] = VStat::Basic;
                    self.basis[k] = slack;
                    repaired = true;
                }
            }
        }
        None
    }

    /// Record the pivot `(row r, column alpha)` in the eta file; `alpha`
    /// is the FTRANed entering column with respect to the *old* basis.
    fn push_eta(&mut self, r: usize, alpha: &[f64]) {
        self.eta_row.push(r);
        self.eta_piv.push(alpha[r]);
        for (i, &v) in alpha.iter().enumerate() {
            if i != r && v.abs() > 1e-12 {
                self.eta_ind.push(i);
                self.eta_val.push(v);
            }
        }
        self.eta_ptr.push(self.eta_ind.len());
    }

    /// `x <- B^{-1} x`: LU solve, then the eta file oldest-first. L is
    /// applied column by column, skipping zero entries of the running
    /// vector, U row by row; each row's terms are subtracted in ascending
    /// column order, as the dense solve subtracts them.
    fn ftran(&self, x: &mut [f64], work: &mut [f64]) {
        let m = x.len();
        for i in 0..m {
            work[i] = x[self.perm[i]];
        }
        for k in 0..m {
            let t = work[k];
            if t != 0.0 {
                for &(i, v) in &self.l_ent[self.l_ptr[k]..self.l_ptr[k + 1]] {
                    work[i] -= v * t;
                }
            }
        }
        for i in (0..m).rev() {
            let mut s = work[i];
            for &(k, v) in &self.u_ent[self.u_ptr[i]..self.u_ptr[i + 1]] {
                s -= v * work[k];
            }
            work[i] = s / self.diag[i];
        }
        x.copy_from_slice(&work[..m]);
        for e in 0..self.eta_len() {
            let r = self.eta_row[e];
            let t = x[r] / self.eta_piv[e];
            for idx in self.eta_ptr[e]..self.eta_ptr[e + 1] {
                x[self.eta_ind[idx]] -= self.eta_val[idx] * t;
            }
            x[r] = t;
        }
    }

    /// `y <- B^{-T} y`: the eta file newest-first, then the LU transpose:
    /// Uᵀ row by row of U, skipping zero entries of the running vector, and
    /// Lᵀ column by column of L, each sum in ascending order as in the
    /// dense solve.
    fn btran(&self, y: &mut [f64], work: &mut [f64]) {
        let m = y.len();
        for e in (0..self.eta_len()).rev() {
            let r = self.eta_row[e];
            let mut s = y[r];
            for idx in self.eta_ptr[e]..self.eta_ptr[e + 1] {
                s -= self.eta_val[idx] * y[self.eta_ind[idx]];
            }
            y[r] = s / self.eta_piv[e];
        }
        work[..m].copy_from_slice(y);
        for k in 0..m {
            let t = work[k] / self.diag[k];
            work[k] = t;
            if t != 0.0 {
                for &(i, v) in &self.u_ent[self.u_ptr[k]..self.u_ptr[k + 1]] {
                    work[i] -= v * t;
                }
            }
        }
        for i in (0..m).rev() {
            let mut s = work[i];
            for &(k, v) in &self.l_ent[self.l_ptr[i]..self.l_ptr[i + 1]] {
                s -= v * work[k];
            }
            work[i] = s;
        }
        for i in 0..m {
            y[self.perm[i]] = work[i];
        }
    }

    /// Dual value per row of the cached optimal basis, in the original
    /// sense (`None` on equality rows): `y = B^{-T} c_B`.
    fn duals(&mut self, f: &SparseForm) -> Vec<Option<f64>> {
        if f.nrows == 0 {
            return Vec::new();
        }
        let (mut y, mut work) = (mem::take(&mut self.y), mem::take(&mut self.work));
        for (yi, &b) in y.iter_mut().zip(&self.basis) {
            *yi = f.cost[b];
        }
        self.btran(&mut y, &mut work);
        let duals = f
            .relations
            .iter()
            .zip(&y)
            .map(|(rel, &yi)| (*rel != Relation::Eq).then_some(if f.maximize { -yi } else { yi }))
            .collect();
        (self.y, self.work) = (y, work);
        duals
    }
}

/// Solve the continuous relaxation of `model` (integrality is ignored).
pub fn solve_lp(model: &Model) -> Result<LpSolution, SolverError> {
    model.validate()?;
    solve_lp_warm(model, None, &mut LpWorkspace::new())
}

/// Solve, warm-starting from the basis cached in `ws` when its shape matches
/// and it is still dual feasible; otherwise a cold solve (a fresh workspace
/// always solves cold). `overrides[i] = Some((lo, hi))` intersects the model
/// bounds. On an optimal finish the workspace caches the new basis for the
/// next call. Does not call `model.validate()`.
pub fn solve_lp_warm(
    model: &Model,
    overrides: Option<&[Option<(f64, f64)>]>,
    ws: &mut LpWorkspace,
) -> Result<LpSolution, SolverError> {
    ws.form.fill(model);
    let bounds_ok = ws.form.set_bounds(model, overrides);
    let status = ws.solve_form(bounds_ok)?;
    Ok(ws.lp_solution(status))
}

/// No constraints at all: every variable sits at its objective-best bound;
/// a variable pushed toward a missing bound makes the problem unbounded.
fn no_rows_solve(f: &SparseForm, x: &mut Vec<f64>, objective: &mut f64) -> LpStatus {
    x.clear();
    x.resize(f.nstruct, 0.0);
    for (j, xj) in x.iter_mut().enumerate() {
        let c = f.cost[j];
        let v = if c > COST_TOL {
            if !f.lower[j].is_finite() {
                return LpStatus::Unbounded;
            }
            f.lower[j]
        } else if c < -COST_TOL {
            if !f.upper[j].is_finite() {
                return LpStatus::Unbounded;
            }
            f.upper[j]
        } else if f.lower[j].is_finite() {
            f.lower[j]
        } else if f.upper[j].is_finite() {
            f.upper[j]
        } else {
            0.0
        };
        *xj = v;
    }
    let obj_min: f64 = f.cost[..f.nstruct].iter().zip(x.iter()).map(|(c, v)| c * v).sum();
    *objective = if f.maximize { -obj_min } else { obj_min };
    LpStatus::Optimal
}

enum PhaseEnd {
    /// No improving column: optimal for this phase's objective.
    Done,
    /// Improving direction with no blocking bound (phase 2: unbounded).
    NoBlock,
    /// A basis repair during refactorization knocked the phase-2 iterate
    /// out of the feasible box; the caller must re-enter phase 1.
    LostFeasibility,
}

enum DualEnd {
    Optimal,
    PrimalInfeasible,
    /// Pivot cap hit or numerics broke down: fall back to a cold solve.
    Trouble,
}

/// One revised-simplex solve in flight. Borrows the form and the basis;
/// iteration buffers are taken out of the basis on entry and returned by
/// [`Rsx::finish`].
struct Rsx<'a> {
    f: &'a SparseForm,
    ws: &'a mut Basis,
    xb: Vec<f64>,
    alpha: Vec<f64>,
    rho: Vec<f64>,
    y: Vec<f64>,
    work: Vec<f64>,
    iterations: usize,
    max_iterations: usize,
}

impl<'a> Rsx<'a> {
    fn new(f: &'a SparseForm, ws: &'a mut Basis) -> Rsx<'a> {
        let m = f.nrows;
        let grab = |v: &mut Vec<f64>| {
            let mut b = mem::take(v);
            b.clear();
            b.resize(m, 0.0);
            b
        };
        let xb = grab(&mut ws.xb);
        let alpha = grab(&mut ws.alpha);
        let rho = grab(&mut ws.rho);
        let y = grab(&mut ws.y);
        let work = grab(&mut ws.work);
        let max_iterations = 20_000 + 200 * (m + f.ncols);
        Rsx { f, ws, xb, alpha, rho, y, work, iterations: 0, max_iterations }
    }

    #[inline]
    fn nonbasic_value(&self, j: usize) -> f64 {
        match self.ws.vstat[j] {
            VStat::Lower => self.f.lower[j],
            VStat::Upper => self.f.upper[j],
            VStat::Free => 0.0,
            VStat::Basic => unreachable!("nonbasic_value on basic column"),
        }
    }

    #[inline]
    fn col_dot(&self, j: usize, v: &[f64]) -> f64 {
        let (rows, vals) = self.f.col(j);
        rows.iter().zip(vals).map(|(&i, &a)| a * v[i]).sum()
    }

    /// All-slack basis, nonbasics at their natural bound.
    fn reset_cold(&mut self) {
        let f = self.f;
        self.ws.key = None;
        self.ws.basis.clear();
        self.ws.basis.extend(f.nstruct..f.ncols);
        self.ws.vstat.clear();
        for j in 0..f.nstruct {
            self.ws.vstat.push(initial_status(f.lower[j], f.upper[j]));
        }
        for _ in 0..f.nrows {
            self.ws.vstat.push(VStat::Basic);
        }
        let ok = self.ws.lu_factor(f).is_ok();
        debug_assert!(ok, "all-slack basis is the identity");
        self.compute_xb();
    }

    /// Recompute `x_B = B^{-1}(rhs - A_N x_N)` from the current
    /// factorization (called right after each refactorization).
    fn compute_xb(&mut self) {
        self.alpha.copy_from_slice(&self.f.rhs);
        for j in 0..self.f.ncols {
            if self.ws.vstat[j] == VStat::Basic {
                continue;
            }
            let v = self.nonbasic_value(j);
            if v != 0.0 {
                let (rows, vals) = self.f.col(j);
                for (&i, &a) in rows.iter().zip(vals) {
                    self.alpha[i] -= a * v;
                }
            }
        }
        self.ws.ftran(&mut self.alpha, &mut self.work);
        self.xb.copy_from_slice(&self.alpha);
    }

    /// Refactorize (with basis repair) and recompute `x_B`. `None` means an
    /// unrecoverably singular basis; `Some(repaired)` reports whether
    /// repair replaced columns — which can silently drop primal
    /// feasibility, so callers that need it must recheck.
    fn refactor(&mut self) -> Option<bool> {
        let repaired = self.ws.factor_with_repair(self.f)?;
        self.compute_xb();
        Some(repaired)
    }

    /// FTRAN column `q` into `alpha`.
    fn load_alpha(&mut self, q: usize) {
        self.alpha.fill(0.0);
        let (rows, vals) = self.f.col(q);
        for (&i, &a) in rows.iter().zip(vals) {
            self.alpha[i] = a;
        }
        self.ws.ftran(&mut self.alpha, &mut self.work);
    }

    /// `y = B^{-T} c_B` for the requested phase's basic costs. Phase 1 uses
    /// the composite infeasibility costs: -1 below the lower bound, +1 above
    /// the upper, 0 when feasible.
    fn btran_costs(&mut self, phase1: bool) {
        for (i, &b) in self.ws.basis.iter().enumerate() {
            self.y[i] = if phase1 {
                let v = self.xb[i];
                if v < self.f.lower[b] - FEAS_TOL {
                    -1.0
                } else if v > self.f.upper[b] + FEAS_TOL {
                    1.0
                } else {
                    0.0
                }
            } else {
                self.f.cost[b]
            };
        }
        self.ws.btran(&mut self.y, &mut self.work);
    }

    /// Total bound violation of the basic variables.
    fn infeasibility(&self) -> f64 {
        let mut total = 0.0;
        for (i, &b) in self.ws.basis.iter().enumerate() {
            let v = self.xb[i];
            total += (self.f.lower[b] - v).max(0.0) + (v - self.f.upper[b]).max(0.0);
        }
        total
    }

    /// Cold two-phase primal solve from the current (reset) basis. A basis
    /// repair during phase 2 can knock the iterate back out of the feasible
    /// box; `LostFeasibility` loops back into phase 1 (the shared iteration
    /// cap bounds the whole loop).
    fn primal(&mut self) -> Result<LpStatus, SolverError> {
        loop {
            if self.infeasibility() > FEAS_TOL {
                match self.phase_loop(true)? {
                    PhaseEnd::Done => {}
                    PhaseEnd::LostFeasibility => continue,
                    PhaseEnd::NoBlock => {
                        // The phase-1 objective is bounded below by zero; an
                        // unblocked direction can only be numerical breakdown.
                        return Err(SolverError::IterationLimit { iterations: self.iterations });
                    }
                }
                if self.infeasibility() > FEAS_TOL.max(1e-7) {
                    return Ok(LpStatus::Infeasible);
                }
            }
            match self.phase_loop(false)? {
                PhaseEnd::Done => return Ok(LpStatus::Optimal),
                PhaseEnd::NoBlock => return Ok(LpStatus::Unbounded),
                PhaseEnd::LostFeasibility => continue,
            }
        }
    }

    /// Primal pivots until no improving column (Done) or an unblocked
    /// improving direction (NoBlock). Dantzig pricing, switching to Bland's
    /// rule after a streak of degenerate steps; the ratio test handles
    /// bound flips (entering column hits its opposite bound first) and, in
    /// phase 1, blocks infeasible basics at the violated bound they are
    /// moving toward.
    fn phase_loop(&mut self, phase1: bool) -> Result<PhaseEnd, SolverError> {
        let m = self.f.nrows;
        let mut degenerate_streak = 0usize;
        loop {
            self.iterations += 1;
            if self.iterations > self.max_iterations {
                return Err(SolverError::IterationLimit { iterations: self.max_iterations });
            }
            self.btran_costs(phase1);
            let bland = degenerate_streak >= BLAND_TRIGGER;
            // Entering column: direction +1 leaves a lower bound, -1 an
            // upper bound.
            let mut enter: Option<(usize, f64)> = None;
            let mut best_mag = COST_TOL;
            for j in 0..self.f.ncols {
                if self.ws.vstat[j] == VStat::Basic || self.f.upper[j] - self.f.lower[j] <= 1e-12 {
                    continue;
                }
                let base = if phase1 { 0.0 } else { self.f.cost[j] };
                let d = base - self.col_dot(j, &self.y);
                let dir = match self.ws.vstat[j] {
                    VStat::Lower if d < -COST_TOL => 1.0,
                    VStat::Upper if d > COST_TOL => -1.0,
                    VStat::Free if d < -COST_TOL => 1.0,
                    VStat::Free if d > COST_TOL => -1.0,
                    _ => continue,
                };
                if bland {
                    enter = Some((j, dir));
                    break;
                }
                if d.abs() > best_mag {
                    best_mag = d.abs();
                    enter = Some((j, dir));
                }
            }
            let Some((q, dir)) = enter else {
                return Ok(PhaseEnd::Done);
            };
            self.load_alpha(q);
            // Ratio test. The entering column's own span seeds the budget
            // (a bound flip needs no pivot at all).
            let span = self.f.upper[q] - self.f.lower[q];
            let mut t_best = if span.is_finite() { span } else { f64::INFINITY };
            let mut leave: Option<(usize, bool)> = None; // (row, leaves at upper)
            let mut best_piv = 0.0f64;
            for i in 0..m {
                let a = dir * self.alpha[i]; // decrease rate of xb[i].. sign flipped below
                if a.abs() <= PIVOT_TOL {
                    continue;
                }
                let bcol = self.ws.basis[i];
                let (lo, hi) = (self.f.lower[bcol], self.f.upper[bcol]);
                let v = self.xb[i];
                // `a > 0` means xb[i] decreases as the entering moves.
                let (t, at_upper) = if phase1 && v < lo - FEAS_TOL {
                    // Infeasible below: blocks only when moving up, at lo.
                    if a < 0.0 {
                        ((lo - v) / -a, false)
                    } else {
                        continue;
                    }
                } else if phase1 && v > hi + FEAS_TOL {
                    // Infeasible above: blocks only when moving down, at hi.
                    if a > 0.0 {
                        ((v - hi) / a, true)
                    } else {
                        continue;
                    }
                } else if a > 0.0 {
                    if lo.is_finite() {
                        ((v - lo).max(0.0) / a, false)
                    } else {
                        continue;
                    }
                } else if hi.is_finite() {
                    ((hi - v).max(0.0) / -a, true)
                } else {
                    continue;
                };
                // Ties go to the largest |pivot| for numerical stability —
                // except under Bland's rule, where the lowest basis column
                // must win to preserve the termination guarantee. A tie
                // with the entering column's own span keeps the bound flip
                // (it costs no pivot).
                let better = match leave {
                    None => t < t_best - 1e-12,
                    Some((l, _)) => {
                        t < t_best - 1e-12
                            || (t < t_best + 1e-12
                                && if bland { bcol < self.ws.basis[l] } else { a.abs() > best_piv })
                    }
                };
                if better {
                    t_best = t;
                    best_piv = a.abs();
                    leave = Some((i, at_upper));
                }
            }
            match leave {
                None if t_best.is_finite() => {
                    // Bound flip: the entering column crosses to its other
                    // bound; basis and factorization are untouched.
                    if t_best > 0.0 {
                        for i in 0..m {
                            self.xb[i] -= dir * t_best * self.alpha[i];
                        }
                    }
                    self.ws.vstat[q] = match self.ws.vstat[q] {
                        VStat::Lower => VStat::Upper,
                        VStat::Upper => VStat::Lower,
                        s => s,
                    };
                }
                None => {
                    // An unblocked direction computed against a stale
                    // (eta-updated) factorization can be an artifact of
                    // accumulated drift in `xb`/`y`. Re-verify against a
                    // fresh factorization before believing it.
                    if self.ws.eta_len() > 0 {
                        match self.refactor() {
                            None => {
                                return Err(SolverError::IterationLimit {
                                    iterations: self.iterations,
                                });
                            }
                            Some(true) if !phase1 && self.infeasibility() > FEAS_TOL => {
                                return Ok(PhaseEnd::LostFeasibility);
                            }
                            _ => {}
                        }
                        continue;
                    }
                    return Ok(PhaseEnd::NoBlock);
                }
                Some((r, at_upper)) => {
                    let t = t_best;
                    let piv_mag = self.alpha[r].abs();
                    for i in 0..m {
                        self.xb[i] -= dir * t * self.alpha[i];
                    }
                    let entering_val = self.nonbasic_value(q) + dir * t;
                    let leaving = self.ws.basis[r];
                    self.ws.vstat[leaving] = if at_upper { VStat::Upper } else { VStat::Lower };
                    self.ws.vstat[q] = VStat::Basic;
                    self.ws.push_eta(r, &self.alpha);
                    self.ws.basis[r] = q;
                    self.xb[r] = entering_val;
                    // A tiny pivot poisons every later eta application, so
                    // it forces an early refactorization; otherwise stay on
                    // the fixed cadence.
                    if piv_mag < 1e-7 || self.ws.eta_len() >= REFACTOR_EVERY {
                        match self.refactor() {
                            None => {
                                return Err(SolverError::IterationLimit {
                                    iterations: self.iterations,
                                });
                            }
                            Some(true) if !phase1 && self.infeasibility() > FEAS_TOL => {
                                return Ok(PhaseEnd::LostFeasibility);
                            }
                            _ => {}
                        }
                    }
                }
            }
            if t_best <= 1e-12 {
                degenerate_streak += 1;
            } else {
                degenerate_streak = 0;
            }
        }
    }

    /// Warm-start pipeline: load the cached basis, verify it is still dual
    /// feasible, run the dual simplex, then a (normally zero-pivot) primal
    /// polish pass. `None` means "fall back to a cold solve".
    fn warm_solve(&mut self) -> Option<LpStatus> {
        if !self.load_warm() || !self.dual_feasible() {
            return None;
        }
        match self.dual() {
            DualEnd::PrimalInfeasible => Some(LpStatus::Infeasible),
            DualEnd::Trouble => None,
            DualEnd::Optimal => match self.phase_loop(false) {
                Ok(PhaseEnd::Done) => Some(LpStatus::Optimal),
                _ => None,
            },
        }
    }

    /// Re-adopt the basis stored in the workspace for the current form:
    /// structural sanity checks, nonbasic statuses snapped to bounds that
    /// still exist, refactorize, recompute `x_B`.
    fn load_warm(&mut self) -> bool {
        let f = self.f;
        if self.ws.basis.len() != f.nrows || self.ws.vstat.len() != f.ncols {
            return false;
        }
        for &b in &self.ws.basis {
            if b >= f.ncols || self.ws.vstat[b] != VStat::Basic {
                return false;
            }
        }
        if self.ws.vstat.iter().filter(|&&s| s == VStat::Basic).count() != f.nrows {
            return false;
        }
        for j in 0..f.ncols {
            if self.ws.vstat[j] == VStat::Basic {
                continue;
            }
            self.ws.vstat[j] = match (f.lower[j].is_finite(), f.upper[j].is_finite()) {
                (true, true) => {
                    if self.ws.vstat[j] == VStat::Upper {
                        VStat::Upper
                    } else {
                        VStat::Lower
                    }
                }
                (true, false) => VStat::Lower,
                (false, true) => VStat::Upper,
                (false, false) => VStat::Free,
            };
        }
        if self.ws.lu_factor(f).is_err() {
            return false;
        }
        self.compute_xb();
        true
    }

    /// Are the phase-2 reduced costs consistent with every nonbasic status?
    fn dual_feasible(&mut self) -> bool {
        self.btran_costs(false);
        for j in 0..self.f.ncols {
            if self.ws.vstat[j] == VStat::Basic || self.f.upper[j] - self.f.lower[j] <= 1e-12 {
                continue;
            }
            let d = self.f.cost[j] - self.col_dot(j, &self.y);
            let bad = match self.ws.vstat[j] {
                VStat::Lower => d < -DUAL_FEAS_TOL,
                VStat::Upper => d > DUAL_FEAS_TOL,
                VStat::Free => d.abs() > DUAL_FEAS_TOL,
                VStat::Basic => false,
            };
            if bad {
                return false;
            }
        }
        true
    }

    /// Bounded-variable dual simplex: repair primal feasibility while
    /// keeping dual feasibility. Leaving row = largest bound violation;
    /// entering column = dual ratio test over the BTRANed pivot row.
    fn dual(&mut self) -> DualEnd {
        let m = self.f.nrows;
        let pivot_cap = 500 + 10 * m;
        let mut pivots = 0usize;
        loop {
            self.iterations += 1;
            pivots += 1;
            if pivots > pivot_cap || self.iterations > self.max_iterations {
                return DualEnd::Trouble;
            }
            let mut leave: Option<(usize, bool)> = None; // (row, below lower)
            let mut best_viol = FEAS_TOL;
            for i in 0..m {
                let bcol = self.ws.basis[i];
                let v = self.xb[i];
                let below = self.f.lower[bcol] - v;
                let above = v - self.f.upper[bcol];
                let (viol, is_below) = if below > above { (below, true) } else { (above, false) };
                let better = viol > best_viol + 1e-12
                    || (viol > best_viol - 1e-12
                        && leave.is_some_and(|(l, _)| bcol < self.ws.basis[l]));
                if better {
                    best_viol = viol;
                    leave = Some((i, is_below));
                }
            }
            let Some((r, below)) = leave else {
                return DualEnd::Optimal;
            };
            // rho = B^{-T} e_r gives the pivot row of B^{-1}A.
            self.rho.fill(0.0);
            self.rho[r] = 1.0;
            self.ws.btran(&mut self.rho, &mut self.work);
            self.btran_costs(false);
            let mut enter: Option<usize> = None;
            let mut best_ratio = f64::INFINITY;
            for j in 0..self.f.ncols {
                if self.ws.vstat[j] == VStat::Basic || self.f.upper[j] - self.f.lower[j] <= 1e-12 {
                    continue;
                }
                let arj = self.col_dot(j, &self.rho);
                if arj.abs() <= PIVOT_TOL {
                    continue;
                }
                // The leaving variable moves toward its violated bound; the
                // entering column must move off its own bound in a direction
                // consistent with that.
                let ok = match (below, self.ws.vstat[j]) {
                    (true, VStat::Lower) => arj < 0.0,
                    (true, VStat::Upper) => arj > 0.0,
                    (false, VStat::Lower) => arj > 0.0,
                    (false, VStat::Upper) => arj < 0.0,
                    (_, VStat::Free) => true,
                    (_, VStat::Basic) => unreachable!(),
                };
                if !ok {
                    continue;
                }
                let d = self.f.cost[j] - self.col_dot(j, &self.y);
                let num = match self.ws.vstat[j] {
                    VStat::Lower => d.max(0.0),
                    VStat::Upper => (-d).max(0.0),
                    VStat::Free => d.abs(),
                    VStat::Basic => unreachable!(),
                };
                let ratio = num / arj.abs();
                if ratio < best_ratio - 1e-12 {
                    best_ratio = ratio;
                    enter = Some(j);
                }
            }
            let Some(q) = enter else {
                // No column can absorb the violation: primal infeasible.
                return DualEnd::PrimalInfeasible;
            };
            self.load_alpha(q);
            let arq = self.alpha[r];
            if arq.abs() <= PIVOT_TOL {
                return DualEnd::Trouble;
            }
            let bcol = self.ws.basis[r];
            let bound = if below { self.f.lower[bcol] } else { self.f.upper[bcol] };
            let step = (self.xb[r] - bound) / arq;
            for i in 0..m {
                self.xb[i] -= step * self.alpha[i];
            }
            let entering_val = self.nonbasic_value(q) + step;
            self.ws.vstat[bcol] = if below { VStat::Lower } else { VStat::Upper };
            self.ws.vstat[q] = VStat::Basic;
            self.ws.push_eta(r, &self.alpha);
            self.ws.basis[r] = q;
            self.xb[r] = entering_val;
            if arq.abs() < 1e-7 || self.ws.eta_len() >= REFACTOR_EVERY {
                match self.refactor() {
                    // A repair invalidates the dual-feasibility certificate
                    // the warm start rests on; so does failure. Both fall
                    // back to a cold solve.
                    Some(false) => {}
                    _ => return DualEnd::Trouble,
                }
            }
        }
    }

    /// On an optimal finish, write the structural point and the objective
    /// (original sense) and cache the basis; return the iteration buffers
    /// to the basis.
    fn finish(
        mut self,
        status: LpStatus,
        dims: (usize, usize),
        x: &mut Vec<f64>,
        objective: &mut f64,
    ) {
        if status == LpStatus::Optimal {
            // Fresh factorization for the most accurate x_B — strict, no
            // repair: repairing the optimal basis would change the reported
            // solution. On (rare) failure the eta-updated iterate is
            // reported as-is.
            if self.ws.lu_factor(self.f).is_ok() {
                self.compute_xb();
            }
            let f = self.f;
            let n = f.nstruct;
            x.clear();
            x.resize(n, 0.0);
            for (j, xj) in x.iter_mut().enumerate() {
                if self.ws.vstat[j] != VStat::Basic {
                    *xj = self.nonbasic_value(j);
                }
            }
            for (i, &b) in self.ws.basis.iter().enumerate() {
                if b < n {
                    x[b] = self.xb[i].clamp(f.lower[b], f.upper[b]);
                }
            }
            let obj_min: f64 = f.cost[..n].iter().zip(x.iter()).map(|(c, v)| c * v).sum();
            *objective = if f.maximize { -obj_min } else { obj_min };
            self.ws.key = Some(dims);
        } else {
            self.ws.key = None;
        }
        self.ws.xb = mem::take(&mut self.xb);
        self.ws.alpha = mem::take(&mut self.alpha);
        self.ws.rho = mem::take(&mut self.rho);
        self.ws.y = mem::take(&mut self.y);
        self.ws.work = mem::take(&mut self.work);
    }
}

fn initial_status(lo: f64, hi: f64) -> VStat {
    match (lo.is_finite(), hi.is_finite()) {
        (true, _) => VStat::Lower,
        (false, true) => VStat::Upper,
        (false, false) => VStat::Free,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Model, Relation, Sense};

    fn assert_opt(m: &Model, expect_obj: f64, expect_x: Option<&[f64]>) {
        let sol = solve_lp(m).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal, "expected optimal");
        assert!(
            (sol.objective - expect_obj).abs() < 1e-6,
            "objective {} != {expect_obj}",
            sol.objective
        );
        if let Some(ex) = expect_x {
            for (a, b) in sol.x.iter().zip(ex) {
                assert!((a - b).abs() < 1e-6, "x = {:?}, expected {:?}", sol.x, ex);
            }
        }
        assert!(m.is_feasible(&sol.x, 1e-6));
    }

    #[test]
    fn textbook_max() {
        // max 3x + 2y s.t. x+y<=4, x+3y<=6 -> x=4, y=0, obj 12
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, f64::INFINITY, 3.0);
        let y = m.add_var(0.0, f64::INFINITY, 2.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 4.0);
        m.add_constraint(vec![(x, 1.0), (y, 3.0)], Relation::Le, 6.0);
        assert_opt(&m, 12.0, Some(&[4.0, 0.0]));
    }

    #[test]
    fn needs_phase_one_ge_rows() {
        // min x + y s.t. x + 2y >= 4, 3x + y >= 6 -> intersection (1.6, 1.2), obj 2.8
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, f64::INFINITY, 1.0);
        let y = m.add_var(0.0, f64::INFINITY, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 2.0)], Relation::Ge, 4.0);
        m.add_constraint(vec![(x, 3.0), (y, 1.0)], Relation::Ge, 6.0);
        assert_opt(&m, 2.8, Some(&[1.6, 1.2]));
    }

    #[test]
    fn equality_rows() {
        // max x + 4y s.t. x + y = 3, x - y <= 1 -> x in [0..], best y as big as
        // possible: y = 3 - x, obj = x + 12 - 4x = 12 - 3x -> x = 0, y = 3.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, f64::INFINITY, 1.0);
        let y = m.add_var(0.0, f64::INFINITY, 4.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 3.0);
        m.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Le, 1.0);
        assert_opt(&m, 12.0, Some(&[0.0, 3.0]));
    }

    #[test]
    fn detects_infeasible() {
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, f64::INFINITY, 1.0);
        m.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
        m.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
        let sol = solve_lp(&m).unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, f64::INFINITY, 1.0);
        let y = m.add_var(0.0, f64::INFINITY, 0.0);
        m.add_constraint(vec![(x, 1.0), (y, -1.0)], Relation::Le, 1.0);
        let sol = solve_lp(&m).unwrap();
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn bounded_vars_no_constraints() {
        let mut m = Model::new(Sense::Maximize);
        let _x = m.add_var(0.0, 2.5, 4.0);
        let _y = m.add_var(1.0, 3.0, -1.0);
        assert_opt(&m, 9.0, Some(&[2.5, 1.0]));
    }

    #[test]
    fn no_rows_unbounded() {
        let mut m = Model::new(Sense::Maximize);
        let _x = m.add_var(0.0, f64::INFINITY, 1.0);
        let sol = solve_lp(&m).unwrap();
        assert_eq!(sol.status, LpStatus::Unbounded);
    }

    #[test]
    fn no_rows_trivial_optimum() {
        let mut m = Model::new(Sense::Minimize);
        let _x = m.add_var(0.0, f64::INFINITY, 3.0);
        let sol = solve_lp(&m).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 0.0).abs() < 1e-9);
    }

    #[test]
    fn free_variable_lp() {
        // min x s.t. x >= -5 (free variable, handled without splitting)
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        m.add_constraint(vec![(x, 1.0)], Relation::Ge, -5.0);
        assert_opt(&m, -5.0, Some(&[-5.0]));
    }

    #[test]
    fn negative_rhs_flip() {
        // min x s.t. -x <= -3  (i.e. x >= 3)
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_var(0.0, f64::INFINITY, 1.0);
        m.add_constraint(vec![(x, -1.0)], Relation::Le, -3.0);
        assert_opt(&m, 3.0, Some(&[3.0]));
    }

    #[test]
    fn degenerate_lp_terminates() {
        // Classic degenerate instance (Beale-like structure); just verify
        // termination and optimality, not a specific vertex.
        let mut m = Model::new(Sense::Minimize);
        let x1 = m.add_var(0.0, f64::INFINITY, -0.75);
        let x2 = m.add_var(0.0, f64::INFINITY, 150.0);
        let x3 = m.add_var(0.0, f64::INFINITY, -0.02);
        let x4 = m.add_var(0.0, f64::INFINITY, 6.0);
        m.add_constraint(vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)], Relation::Le, 0.0);
        m.add_constraint(vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)], Relation::Le, 0.0);
        m.add_constraint(vec![(x3, 1.0)], Relation::Le, 1.0);
        let sol = solve_lp(&m).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - (-0.05)).abs() < 1e-6);
    }

    #[test]
    fn redundant_equality_rows() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, f64::INFINITY, 1.0);
        let y = m.add_var(0.0, f64::INFINITY, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Eq, 2.0);
        m.add_constraint(vec![(x, 2.0), (y, 2.0)], Relation::Eq, 4.0);
        let sol = solve_lp(&m).unwrap();
        assert_eq!(sol.status, LpStatus::Optimal);
        assert!((sol.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn fixed_vars_via_equal_bounds() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(2.0, 2.0, 5.0);
        let y = m.add_var(0.0, f64::INFINITY, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 6.0);
        assert_opt(&m, 14.0, Some(&[2.0, 4.0]));
    }

    // ---- warm-start / dual simplex ----

    fn knapsackish() -> Model {
        // max 5a + 4b + 3c s.t. 2a + 3b + c <= 5, 4a + b + 2c <= 11,
        // 3a + 4b + 2c <= 8, all vars in [0, 10].
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_var(0.0, 10.0, 5.0);
        let b = m.add_var(0.0, 10.0, 4.0);
        let c = m.add_var(0.0, 10.0, 3.0);
        m.add_constraint(vec![(a, 2.0), (b, 3.0), (c, 1.0)], Relation::Le, 5.0);
        m.add_constraint(vec![(a, 4.0), (b, 1.0), (c, 2.0)], Relation::Le, 11.0);
        m.add_constraint(vec![(a, 3.0), (b, 4.0), (c, 2.0)], Relation::Le, 8.0);
        m
    }

    #[test]
    fn warm_restart_matches_cold_after_bound_change() {
        let m = knapsackish();
        let mut ws = LpWorkspace::new();
        let root = solve_lp_warm(&m, None, &mut ws).unwrap();
        assert_eq!(root.status, LpStatus::Optimal);
        assert!(ws.snapshot().is_some());
        // Tighten one variable's bounds (a branch-and-bound child) and
        // re-solve warm; must match a cold solve.
        let ovr = vec![Some((0.0, 1.0)), None, None];
        let warm = solve_lp_warm(&m, Some(&ovr), &mut ws).unwrap();
        let cold = solve_lp_warm(&m, Some(&ovr), &mut LpWorkspace::new()).unwrap();
        assert_eq!(warm.status, cold.status);
        assert!((warm.objective - cold.objective).abs() < 1e-9);
        for (a, b) in warm.x.iter().zip(&cold.x) {
            assert!((a - b).abs() < 1e-7);
        }
        // Warm re-solve should be cheaper than the cold two-phase run.
        assert!(warm.iterations <= cold.iterations);
    }

    #[test]
    fn warm_restart_detects_infeasible_child() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_var(0.0, 1.0, 1.0);
        let y = m.add_var(0.0, 1.0, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 1.5);
        let mut ws = LpWorkspace::new();
        let root = solve_lp_warm(&m, None, &mut ws).unwrap();
        assert_eq!(root.status, LpStatus::Optimal);
        // Forcing both vars to 0 makes the >= row unsatisfiable.
        let ovr = vec![Some((0.0, 0.0)), Some((0.0, 0.0))];
        let warm = solve_lp_warm(&m, Some(&ovr), &mut ws).unwrap();
        assert_eq!(warm.status, LpStatus::Infeasible);
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let m = knapsackish();
        let mut ws = LpWorkspace::new();
        solve_lp_warm(&m, None, &mut ws).unwrap();
        let snap = ws.snapshot().expect("optimal solve caches a basis");
        ws.clear();
        assert!(ws.snapshot().is_none());
        ws.restore(&snap);
        assert!(ws.snapshot().is_some());
        let warm = solve_lp_warm(&m, None, &mut ws).unwrap();
        let cold = solve_lp(&m).unwrap();
        assert!((warm.objective - cold.objective).abs() < 1e-9);
    }

    #[test]
    fn workspace_reuse_across_different_models_is_safe() {
        let mut ws = LpWorkspace::new();
        let m1 = knapsackish();
        let a = solve_lp_warm(&m1, None, &mut ws).unwrap();
        // Different shape: the stale basis must be ignored, not crash.
        let mut m2 = Model::new(Sense::Minimize);
        let x = m2.add_var(0.0, f64::INFINITY, 1.0);
        m2.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
        let b = solve_lp_warm(&m2, None, &mut ws).unwrap();
        assert_eq!(a.status, LpStatus::Optimal);
        assert_eq!(b.status, LpStatus::Optimal);
        assert!((b.objective - 2.0).abs() < 1e-9);
        // And back again.
        let c = solve_lp_warm(&m1, None, &mut ws).unwrap();
        assert!((c.objective - a.objective).abs() < 1e-9);
    }

    // ---- sparse kernels against the dense reference ----

    /// The dense kernels the sparse ones replaced, kept as their oracle:
    /// partial-pivot LU updating every column right of the pivot, and
    /// triangular solves over every entry of the factors.
    impl Basis {
        fn lu_factor_dense(&mut self, f: &SparseForm) -> Result<(), usize> {
            let m = self.basis.len();
            self.lu.clear();
            self.lu.resize(m * m, 0.0);
            self.perm.clear();
            self.perm.extend(0..m);
            for (k, &j) in self.basis.iter().enumerate() {
                let (rows, vals) = f.col(j);
                for (&i, &v) in rows.iter().zip(vals) {
                    self.lu[i * m + k] = v;
                }
            }
            for k in 0..m {
                let mut p = k;
                let mut best = self.lu[k * m + k].abs();
                for i in (k + 1)..m {
                    let a = self.lu[i * m + k].abs();
                    if a > best {
                        best = a;
                        p = i;
                    }
                }
                if best < 1e-11 {
                    return Err(k);
                }
                if p != k {
                    for j in 0..m {
                        self.lu.swap(p * m + j, k * m + j);
                    }
                    self.perm.swap(p, k);
                }
                let piv = self.lu[k * m + k];
                for i in (k + 1)..m {
                    let factor = self.lu[i * m + k] / piv;
                    self.lu[i * m + k] = factor;
                    if factor != 0.0 {
                        for j in (k + 1)..m {
                            self.lu[i * m + j] -= factor * self.lu[k * m + j];
                        }
                    }
                }
            }
            Ok(())
        }

        #[allow(clippy::needless_range_loop)] // triangular solves couple work[k] to lu[i*m+k]
        fn ftran_dense(&self, x: &mut [f64], work: &mut [f64]) {
            let m = x.len();
            for i in 0..m {
                work[i] = x[self.perm[i]];
            }
            for i in 0..m {
                let mut s = work[i];
                for k in 0..i {
                    s -= self.lu[i * m + k] * work[k];
                }
                work[i] = s;
            }
            for i in (0..m).rev() {
                let mut s = work[i];
                for k in (i + 1)..m {
                    s -= self.lu[i * m + k] * work[k];
                }
                work[i] = s / self.lu[i * m + i];
            }
            x.copy_from_slice(&work[..m]);
            for e in 0..self.eta_len() {
                let r = self.eta_row[e];
                let t = x[r] / self.eta_piv[e];
                for idx in self.eta_ptr[e]..self.eta_ptr[e + 1] {
                    x[self.eta_ind[idx]] -= self.eta_val[idx] * t;
                }
                x[r] = t;
            }
        }

        #[allow(clippy::needless_range_loop)] // triangular solves couple work[k] to lu[k*m+i]
        fn btran_dense(&self, y: &mut [f64], work: &mut [f64]) {
            let m = y.len();
            for e in (0..self.eta_len()).rev() {
                let r = self.eta_row[e];
                let mut s = y[r];
                for idx in self.eta_ptr[e]..self.eta_ptr[e + 1] {
                    s -= self.eta_val[idx] * y[self.eta_ind[idx]];
                }
                y[r] = s / self.eta_piv[e];
            }
            for i in 0..m {
                let mut s = y[i];
                for k in 0..i {
                    s -= self.lu[k * m + i] * work[k];
                }
                work[i] = s / self.lu[i * m + i];
            }
            for i in (0..m).rev() {
                let mut s = work[i];
                for k in (i + 1)..m {
                    s -= self.lu[k * m + i] * work[k];
                }
                work[i] = s;
            }
            for i in 0..m {
                y[self.perm[i]] = work[i];
            }
        }
    }

    /// xorshift64*: the same cases on every run.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn unit(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }

        /// Log-uniform magnitude in `[1e-12, 1e3)`, random sign.
        fn wide(&mut self) -> f64 {
            let mag = 10f64.powf(-12.0 + 15.0 * self.unit());
            if self.next() & 1 == 0 {
                mag
            } else {
                -mag
            }
        }
    }

    /// Column styles of the random forms.
    #[derive(Clone, Copy, Debug)]
    enum Style {
        /// A few structural entries per row, small integer coefficients;
        /// bases mostly slacks.
        SlackHeavy,
        /// Dense rows of wide coefficients; bases all structural.
        Structural,
        /// The aggregated ILP's shape: per function a gain column and count
        /// columns over tangent-cut rows whose gains decay from ~1 to
        /// ~1e-12, a slot-cap row, and capacity rows with demands near
        /// 1e2–1e3; bases mixed.
        Ladder,
    }

    fn random_form(rng: &mut Rng, style: Style) -> SparseForm {
        let mut model = Model::new(Sense::Maximize);
        match style {
            Style::SlackHeavy | Style::Structural => {
                let m = 2 + rng.below(15);
                let n = m + rng.below(m + 1);
                let vars: Vec<_> = (0..n).map(|_| model.add_var(0.0, 1.0, 1.0)).collect();
                for _ in 0..m {
                    let terms: Vec<_> = match style {
                        Style::SlackHeavy => (0..1 + rng.below(3))
                            .map(|_| (vars[rng.below(n)], 1.0 + rng.below(5) as f64))
                            .collect(),
                        _ => {
                            let mut terms = Vec::new();
                            for &v in &vars {
                                if rng.below(10) < 7 {
                                    terms.push((v, rng.wide()));
                                }
                            }
                            terms
                        }
                    };
                    model.add_constraint(terms, Relation::Le, 1.0);
                }
            }
            Style::Ladder => {
                let bins = 1 + rng.below(3);
                let mut count_vars = Vec::new();
                for _ in 0..1 + rng.below(3) {
                    let r = 0.5 + 0.45 * rng.unit();
                    let demand = 100.0 + 900.0 * rng.unit();
                    let cap = 2 + rng.below(6);
                    let g = model.add_var(0.0, 10.0, 1.0);
                    let ns: Vec<_> = (0..bins)
                        .filter(|_| rng.below(4) > 0)
                        .map(|b| (b, model.add_integer_var(0.0, cap as f64, 0.0)))
                        .collect();
                    for k in 1..=cap {
                        // Gains fall geometrically to ~1e-12 at the last slot.
                        let gain = r * (1e-12f64 / r).powf((k - 1) as f64 / (cap - 1) as f64);
                        let terms = ns.iter().map(|&(_, v)| (v, -gain));
                        model.add_constraint(
                            std::iter::once((g, 1.0)).chain(terms),
                            Relation::Le,
                            0.5,
                        );
                    }
                    model.add_constraint(
                        ns.iter().map(|&(_, v)| (v, 1.0)),
                        Relation::Le,
                        cap as f64,
                    );
                    count_vars.extend(ns.iter().map(|&(b, v)| (b, v, demand)));
                }
                for b in 0..bins {
                    let terms = count_vars.iter().filter(|&&(nb, _, _)| nb == b);
                    model.add_constraint(terms.map(|&(_, v, d)| (v, d)), Relation::Le, 2000.0);
                }
            }
        }
        let mut f = SparseForm::default();
        f.fill(&model);
        assert!(f.set_bounds(&model, None));
        f
    }

    /// A random basis of `f`: each position is its row's slack with
    /// probability `slack`, otherwise a random unused structural column.
    fn random_basis(rng: &mut Rng, f: &SparseForm, slack: f64) -> Vec<usize> {
        let mut used = vec![false; f.ncols];
        (0..f.nrows)
            .map(|r| {
                let mut j = f.nstruct + r;
                if rng.unit() >= slack {
                    let free: Vec<usize> = (0..f.nstruct).filter(|&j| !used[j]).collect();
                    if !free.is_empty() {
                        j = free[rng.below(free.len())];
                    }
                }
                if used[j] {
                    j = (0..f.ncols).find(|&j| !used[j]).unwrap();
                }
                used[j] = true;
                j
            })
            .collect()
    }

    /// A test vector: a unit vector (the dual simplex's `e_r`), a column
    /// of the form, or wide random entries about half of them zero.
    fn random_vector(rng: &mut Rng, f: &SparseForm) -> Vec<f64> {
        let mut v = vec![0.0; f.nrows];
        match rng.below(3) {
            0 => v[rng.below(f.nrows)] = 1.0,
            1 => {
                let (rows, vals) = f.col(rng.below(f.ncols));
                for (&i, &a) in rows.iter().zip(vals) {
                    v[i] = a;
                }
            }
            _ => {
                for x in v.iter_mut() {
                    if rng.below(2) == 0 {
                        *x = rng.wide();
                    }
                }
            }
        }
        v
    }

    /// Bit patterns, so a comparison tells -0.0 from +0.0.
    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn sparse_kernels_equal_the_dense_reference() {
        let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
        let (mut factored, mut with_etas, mut vectors) = (0, 0, 0);
        for case in 0..1200 {
            let style = [Style::SlackHeavy, Style::Structural, Style::Ladder][case % 3];
            let f = random_form(&mut rng, style);
            let slack = match style {
                Style::SlackHeavy => 0.75,
                Style::Structural => 0.0,
                Style::Ladder => 0.4,
            };
            let mut sparse = Basis { basis: random_basis(&mut rng, &f, slack), ..Basis::default() };
            let mut dense = sparse.clone();
            let got = sparse.lu_factor(&f);
            assert_eq!(got, dense.lu_factor_dense(&f), "case {case} ({style:?})");
            assert_eq!(sparse.perm, dense.perm, "case {case} ({style:?})");
            assert_eq!(bits(&sparse.lu), bits(&dense.lu), "case {case} ({style:?})");
            if got.is_err() {
                continue;
            }
            factored += 1;
            let m = f.nrows;
            let mut work = vec![0.0; m];
            let etas = rng.below(6);
            for round in 0..=etas {
                for _ in 0..4 {
                    let v = random_vector(&mut rng, &f);
                    let (mut xs, mut xd) = (v.clone(), v.clone());
                    sparse.ftran(&mut xs, &mut work);
                    sparse.ftran_dense(&mut xd, &mut work);
                    assert_eq!(
                        bits(&xs),
                        bits(&xd),
                        "ftran, case {case} ({style:?}), {round} etas"
                    );
                    let (mut ys, mut yd) = (v.clone(), v);
                    sparse.btran(&mut ys, &mut work);
                    sparse.btran_dense(&mut yd, &mut work);
                    // Equal values, but a zero may carry the other sign: the
                    // L^T pass starts from U^T quotients, which can be -0.0,
                    // and a dense `s - v·0` the sparse pass skips can turn
                    // that into +0.0. `==` treats the two alike, as every
                    // step of the simplex does.
                    assert_eq!(ys, yd, "btran, case {case} ({style:?}), {round} etas");
                    vectors += 1;
                }
                if round == etas {
                    break;
                }
                // One product-form pivot: a random nonbasic column enters
                // at the row of its largest FTRANed entry.
                let q = loop {
                    let j = rng.below(f.ncols);
                    if !sparse.basis.contains(&j) {
                        break j;
                    }
                };
                let mut alpha = vec![0.0; m];
                let (rows, vals) = f.col(q);
                for (&i, &a) in rows.iter().zip(vals) {
                    alpha[i] = a;
                }
                sparse.ftran(&mut alpha, &mut work);
                let r = (0..m).max_by(|&a, &b| alpha[a].abs().total_cmp(&alpha[b].abs())).unwrap();
                if alpha[r].abs() < 1e-9 {
                    break;
                }
                sparse.push_eta(r, &alpha);
                sparse.basis[r] = q;
                with_etas += usize::from(round == 0);
            }
        }
        assert!(factored >= 400, "only {factored} nonsingular bases");
        assert!(with_etas >= 200, "only {with_etas} bases took eta updates");
        assert!(vectors >= 4000, "only {vectors} vectors compared");
    }
}
