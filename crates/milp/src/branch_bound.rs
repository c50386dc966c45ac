//! Best-first branch and bound for mixed-integer linear programs.
//!
//! Each node solves the LP relaxation with tightened variable bounds (the
//! model itself is never cloned). Nodes are explored best-bound-first, the
//! branching variable is the most fractional one, and an incumbent is seeded
//! by rounding node relaxations whenever the rounded point happens to be
//! feasible — cheap, and on the near-integral GAP-style LPs produced by the
//! reliability-augmentation problem it prunes most of the tree immediately.
//!
//! Node LPs are *warm-started*: when a node is expanded, its optimal basis is
//! snapshotted once and shared (via `Rc`) by both children, which differ from
//! the parent by a single variable-bound change. The child re-solve then runs
//! the dual simplex from the parent basis — typically a handful of pivots —
//! instead of a cold two-phase solve. The warm and cold paths reach the same
//! optimal objectives, so node evaluation order, branching decisions and
//! answers are unchanged; only the pivot count drops.

use std::collections::BinaryHeap;
use std::rc::Rc;

use crate::error::SolverError;
use crate::problem::{Model, Sense, VarId};
use crate::simplex::{solve_lp_warm, BasisSnapshot, LpWorkspace};
use crate::solution::{LpStatus, MilpSolution};
use crate::INT_TOL;

/// Knobs for the branch-and-bound search.
#[derive(Debug, Clone)]
pub struct BnbConfig {
    /// Stop searching after this many nodes. If an incumbent exists by then it
    /// is returned with [`MilpSolution::proven`]` = false`; otherwise the
    /// solve fails with [`SolverError::NodeLimit`]. The only budget: the
    /// search never reads the clock, so its result is a pure function of
    /// `(model, config)`.
    pub max_nodes: usize,
    /// Absolute optimality gap at which a node is pruned against the
    /// incumbent.
    pub gap_tol: f64,
    /// Optional feasible starting point (in model-variable space) used to
    /// seed the incumbent; silently ignored if infeasible. A good warm start
    /// — e.g. from a problem-specific heuristic — can prune most of the tree.
    pub warm_start: Option<Vec<f64>>,
    /// Optional per-variable branching priorities (higher = branch first
    /// among fractional variables; ties broken by fractionality). Callers
    /// that know a variable's impact — e.g. its resource demand in a packing
    /// model — can cut the tree substantially.
    pub branch_priority: Option<Vec<f64>>,
    /// Warm-start each child node's LP from its parent's optimal basis via
    /// the dual simplex (default). Disable to force a cold two-phase solve
    /// at every node — only useful for benchmarking the warm-start gain.
    pub warm_lp_nodes: bool,
}

impl Default for BnbConfig {
    fn default() -> Self {
        BnbConfig {
            max_nodes: 200_000,
            gap_tol: 1e-7,
            warm_start: None,
            branch_priority: None,
            warm_lp_nodes: true,
        }
    }
}

/// Search statistics, exposed for the paper's running-time figures and the
/// telemetry layer's solver-effort reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BnbStats {
    /// Branch-and-bound nodes expanded (LP relaxations solved).
    pub nodes: usize,
    /// Total simplex iterations across all node LPs.
    pub lp_iterations: usize,
    /// How many times a better incumbent was found (warm start included).
    pub incumbent_updates: usize,
    /// Nodes discarded because their bound could not beat the incumbent.
    pub pruned_bound: usize,
    /// Nodes discarded because their LP relaxation was infeasible.
    pub pruned_infeasible: usize,
}

/// Solve `model` to proven optimality with default configuration.
pub fn solve_milp(model: &Model) -> Result<MilpSolution, SolverError> {
    solve_milp_with(model, &BnbConfig::default())
}

struct Node {
    /// Bound on the achievable objective in *minimization* sense.
    bound: f64,
    overrides: Vec<Option<(f64, f64)>>,
    /// Optimal basis of the parent's LP relaxation, shared by both children.
    basis: Option<Rc<BasisSnapshot>>,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // BinaryHeap is a max-heap; we want the smallest minimization bound
        // first.
        other.bound.partial_cmp(&self.bound).unwrap_or(std::cmp::Ordering::Equal)
    }
}

/// Solve `model` to proven optimality.
pub fn solve_milp_with(model: &Model, config: &BnbConfig) -> Result<MilpSolution, SolverError> {
    solve_milp_with_ws(model, config, &mut LpWorkspace::new())
}

/// Solve `model` to proven optimality, reusing `ws` for every node LP.
///
/// The workspace is cleared on entry, so the result is a pure function of
/// `(model, config)` — passing a workspace only reuses its *allocations*
/// (basis vectors, LU factors, eta file, pricing buffers) across calls.
/// Within the solve, node LPs warm-start from their parent's basis when
/// [`BnbConfig::warm_lp_nodes`] is set.
pub fn solve_milp_with_ws(
    model: &Model,
    config: &BnbConfig,
    ws: &mut LpWorkspace,
) -> Result<MilpSolution, SolverError> {
    ws.clear();
    model.validate()?;
    let int_vars = model.integer_vars();
    for &v in &int_vars {
        let (lo, hi) = model.var_bounds(v);
        if !lo.is_finite() && !hi.is_finite() {
            return Err(SolverError::NonFiniteInput {
                what: "integer variable with two infinite bounds",
            });
        }
    }
    let to_min = |obj: f64| if model.sense() == Sense::Maximize { -obj } else { obj };

    let mut stats = BnbStats::default();
    let mut incumbent: Option<(f64, Vec<f64>)> = None; // (min-sense obj, x)
    if let Some(point) = &config.warm_start {
        if point.len() == model.num_vars()
            && model.is_feasible(point, 1e-6)
            && int_vars.iter().all(|&v| {
                let x = point[v.index()];
                (x - x.round()).abs() <= INT_TOL
            })
        {
            let x = snap(point, &int_vars);
            incumbent = Some((to_min(model.eval_objective(&x)), x));
            stats.incumbent_updates += 1;
        }
    }

    let root =
        Node { bound: f64::NEG_INFINITY, overrides: vec![None; model.num_vars()], basis: None };
    let mut heap = BinaryHeap::new();
    heap.push(root);
    let mut saw_unbounded_root = false;
    let mut proven = true;

    while let Some(node) = heap.pop() {
        if let Some((best, _)) = &incumbent {
            if node.bound >= best - config.gap_tol {
                stats.pruned_bound += 1;
                continue;
            }
        }
        stats.nodes += 1;
        if stats.nodes > config.max_nodes {
            if incumbent.is_some() {
                proven = false;
                break;
            }
            return Err(SolverError::NodeLimit { nodes: config.max_nodes });
        }

        // Warm-start from the parent's basis when available (one bound
        // changed, so it is still dual feasible); otherwise a cold solve.
        match (config.warm_lp_nodes, &node.basis) {
            (true, Some(snap)) => ws.restore(snap),
            _ => ws.clear(),
        }
        let lp = solve_lp_warm(model, Some(&node.overrides), ws)?;
        stats.lp_iterations += lp.iterations;
        match lp.status {
            LpStatus::Infeasible => {
                stats.pruned_infeasible += 1;
                continue;
            }
            LpStatus::Unbounded => {
                // An unbounded relaxation at the root means the MILP is
                // unbounded or infeasible; we report unbounded (standard
                // convention when the relaxation is unbounded).
                if stats.nodes == 1 {
                    saw_unbounded_root = true;
                    break;
                }
                continue;
            }
            LpStatus::Optimal => {}
        }
        let node_bound = to_min(lp.objective);
        if let Some((best, _)) = &incumbent {
            if node_bound >= best - config.gap_tol {
                stats.pruned_bound += 1;
                continue;
            }
        }

        // Branch variable: highest priority among fractional integer
        // variables; ties (and the default) fall back to most-fractional.
        let mut branch: Option<(VarId, f64, (f64, f64))> = None; // (var, value, (neg prio, frac dist))
        for &v in &int_vars {
            let val = lp.x[v.index()];
            let frac = (val - val.round()).abs();
            if frac > INT_TOL {
                let prio = config
                    .branch_priority
                    .as_ref()
                    .and_then(|p| p.get(v.index()).copied())
                    .unwrap_or(0.0);
                let key = (-prio, (frac - 0.5).abs());
                if branch.is_none_or(|(_, _, k)| key < k) {
                    branch = Some((v, val, key));
                }
            }
        }

        match branch {
            None => {
                // Integral relaxation: candidate incumbent.
                let x = snap(&lp.x, &int_vars);
                let obj = to_min(model.eval_objective(&x));
                if incumbent.as_ref().is_none_or(|(best, _)| obj < best - config.gap_tol) {
                    incumbent = Some((obj, x));
                    stats.incumbent_updates += 1;
                }
            }
            Some((v, val, _)) => {
                // Opportunistic incumbent from rounding before branching.
                let rounded = snap(&lp.x, &int_vars);
                if model.is_feasible(&rounded, 1e-7) {
                    let obj = to_min(model.eval_objective(&rounded));
                    if incumbent.as_ref().is_none_or(|(best, _)| obj < best - config.gap_tol) {
                        incumbent = Some((obj, rounded));
                        stats.incumbent_updates += 1;
                    }
                }
                let parent_basis =
                    if config.warm_lp_nodes { ws.snapshot().map(Rc::new) } else { None };
                let (lo, hi) = effective_bounds(model, &node.overrides, v);
                let floor = val.floor();
                if floor >= lo - 1e-12 {
                    let mut ovr = node.overrides.clone();
                    ovr[v.index()] = Some((lo, floor));
                    heap.push(Node {
                        bound: node_bound,
                        overrides: ovr,
                        basis: parent_basis.clone(),
                    });
                }
                let ceil = val.ceil();
                if ceil <= hi + 1e-12 {
                    let mut ovr = node.overrides.clone();
                    ovr[v.index()] = Some((ceil, hi));
                    heap.push(Node { bound: node_bound, overrides: ovr, basis: parent_basis });
                }
            }
        }
    }

    if saw_unbounded_root {
        return Ok(MilpSolution {
            status: LpStatus::Unbounded,
            objective: f64::NAN,
            x: Vec::new(),
            stats,
            proven: true,
        });
    }
    match incumbent {
        Some((obj_min, x)) => {
            let objective = if model.sense() == Sense::Maximize { -obj_min } else { obj_min };
            Ok(MilpSolution { status: LpStatus::Optimal, objective, x, stats, proven })
        }
        None => Ok(MilpSolution {
            status: LpStatus::Infeasible,
            objective: f64::NAN,
            x: Vec::new(),
            stats,
            proven: true,
        }),
    }
}

/// Round the integer entries of a relaxation point to the nearest integer.
fn snap(x: &[f64], int_vars: &[VarId]) -> Vec<f64> {
    let mut out = x.to_vec();
    for &v in int_vars {
        out[v.index()] = out[v.index()].round();
    }
    out
}

fn effective_bounds(model: &Model, overrides: &[Option<(f64, f64)>], v: VarId) -> (f64, f64) {
    let (mut lo, mut hi) = model.var_bounds(v);
    if let Some((l, h)) = overrides[v.index()] {
        lo = lo.max(l);
        hi = hi.min(h);
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::problem::{Model, Relation, Sense};

    #[test]
    fn knapsack_exact() {
        // max 10a + 13b + 7c s.t. 3a + 4b + 2c <= 6, binary.
        // Best: a + c (w 5, v 17)? b + c (w 6, v 20) -> 20.
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary_var(10.0);
        let b = m.add_binary_var(13.0);
        let c = m.add_binary_var(7.0);
        m.add_constraint(vec![(a, 3.0), (b, 4.0), (c, 2.0)], Relation::Le, 6.0);
        let sol = solve_milp(&m).unwrap();
        assert!(sol.is_optimal());
        assert!((sol.objective - 20.0).abs() < 1e-6);
        assert!((sol.x[b.index()] - 1.0).abs() < 1e-9);
        assert!((sol.x[c.index()] - 1.0).abs() < 1e-9);
    }

    #[test]
    fn integer_rounding_matters() {
        // max x + y s.t. 2x + 2y <= 5, integers: LP opt 2.5, ILP opt 2.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_integer_var(0.0, 10.0, 1.0);
        let y = m.add_integer_var(0.0, 10.0, 1.0);
        m.add_constraint(vec![(x, 2.0), (y, 2.0)], Relation::Le, 5.0);
        let sol = solve_milp(&m).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max 2x + y, x integer, 0<=x, 0<=y<=1.5, x + y <= 3.2
        // x=3 (int), y=0.2 -> 6.2. x=2,y=1.2->5.2. So 6.2.
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_integer_var(0.0, 10.0, 2.0);
        let y = m.add_var(0.0, 1.5, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 3.2);
        let sol = solve_milp(&m).unwrap();
        assert!((sol.objective - 6.2).abs() < 1e-6, "obj = {}", sol.objective);
        assert!((sol.x[x.index()] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_milp() {
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_binary_var(1.0);
        m.add_constraint(vec![(x, 1.0)], Relation::Ge, 2.0);
        let sol = solve_milp(&m).unwrap();
        assert_eq!(sol.status, LpStatus::Infeasible);
    }

    #[test]
    fn equality_forces_combination() {
        // min a + b + c s.t. 2a + 3b + 5c = 10, integers in [0, 10].
        // Solutions: (5,0,0)=5, (0,0,2)=2, (1,1,1)=3... best 2.
        let mut m = Model::new(Sense::Minimize);
        let a = m.add_integer_var(0.0, 10.0, 1.0);
        let b = m.add_integer_var(0.0, 10.0, 1.0);
        let c = m.add_integer_var(0.0, 10.0, 1.0);
        m.add_constraint(vec![(a, 2.0), (b, 3.0), (c, 5.0)], Relation::Eq, 10.0);
        let sol = solve_milp(&m).unwrap();
        assert!((sol.objective - 2.0).abs() < 1e-6);
    }

    #[test]
    fn gap_style_assignment() {
        // Two items, two bins, sizes/costs chosen so LP is fractional.
        // max 5*x11 + 4*x12 + 3*x21 + 6*x22
        // item rows: x11 + x12 <= 1; x21 + x22 <= 1
        // bin capacities: 2*x11 + 3*x21 <= 3 ; 2*x12 + 3*x22 <= 3
        let mut m = Model::new(Sense::Maximize);
        let x11 = m.add_binary_var(5.0);
        let x12 = m.add_binary_var(4.0);
        let x21 = m.add_binary_var(3.0);
        let x22 = m.add_binary_var(6.0);
        m.add_constraint(vec![(x11, 1.0), (x12, 1.0)], Relation::Le, 1.0);
        m.add_constraint(vec![(x21, 1.0), (x22, 1.0)], Relation::Le, 1.0);
        m.add_constraint(vec![(x11, 2.0), (x21, 3.0)], Relation::Le, 3.0);
        m.add_constraint(vec![(x12, 2.0), (x22, 3.0)], Relation::Le, 3.0);
        let sol = solve_milp(&m).unwrap();
        // x11 = 1 (bin1), x22 = 1 (bin2): obj 11, feasible. Best possible.
        assert!((sol.objective - 11.0).abs() < 1e-6);
    }

    #[test]
    fn respects_node_limit() {
        let mut m = Model::new(Sense::Maximize);
        // A knapsack with enough structure to need > 1 node.
        let vars: Vec<_> = (0..12).map(|i| m.add_binary_var(7.0 + (i as f64) * 0.3)).collect();
        m.add_constraint(vars.iter().map(|&v| (v, 3.0)).collect(), Relation::Le, 17.0);
        let cfg = BnbConfig { max_nodes: 1, ..Default::default() };
        // With 1 node we may or may not finish; accept either Ok or NodeLimit,
        // but with max_nodes=0 we must hit the limit.
        let cfg0 = BnbConfig { max_nodes: 0, ..Default::default() };
        assert!(matches!(solve_milp_with(&m, &cfg0), Err(SolverError::NodeLimit { .. })));
        let _ = solve_milp_with(&m, &cfg);
    }

    #[test]
    fn rejects_doubly_unbounded_integer() {
        let mut m = Model::new(Sense::Minimize);
        m.add_integer_var(f64::NEG_INFINITY, f64::INFINITY, 1.0);
        assert!(matches!(solve_milp(&m), Err(SolverError::NonFiniteInput { .. })));
    }

    #[test]
    fn warm_and_cold_node_solves_agree() {
        // Same answers; the trees may differ slightly (alternate LP optima
        // resolve differently under dual vs primal pivots) but the warm run
        // must not spend more total simplex work.
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..10).map(|i| m.add_binary_var(4.0 + (i as f64) * 0.7)).collect();
        m.add_constraint(vars.iter().map(|&v| (v, 2.0 + 0.1)).collect(), Relation::Le, 9.0);
        m.add_constraint(
            vars.iter().enumerate().map(|(i, &v)| (v, 1.0 + (i % 3) as f64)).collect(),
            Relation::Le,
            7.0,
        );
        let warm = solve_milp_with(&m, &BnbConfig::default()).unwrap();
        let cold =
            solve_milp_with(&m, &BnbConfig { warm_lp_nodes: false, ..Default::default() }).unwrap();
        assert_eq!(warm.status, cold.status);
        assert!((warm.objective - cold.objective).abs() < 1e-9);
        assert!(warm.stats.lp_iterations <= cold.stats.lp_iterations);
    }

    #[test]
    fn workspace_entry_point_matches_plain_solve() {
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary_var(10.0);
        let b = m.add_binary_var(13.0);
        let c = m.add_binary_var(7.0);
        m.add_constraint(vec![(a, 3.0), (b, 4.0), (c, 2.0)], Relation::Le, 6.0);
        let mut ws = crate::simplex::LpWorkspace::new();
        let one = solve_milp_with_ws(&m, &BnbConfig::default(), &mut ws).unwrap();
        // Second solve through the same workspace must be identical (the
        // workspace is cleared on entry; only allocations are reused).
        let two = solve_milp_with_ws(&m, &BnbConfig::default(), &mut ws).unwrap();
        let plain = solve_milp(&m).unwrap();
        assert_eq!(one.stats, two.stats);
        assert_eq!(one.stats, plain.stats);
        assert!((one.objective - plain.objective).abs() < 1e-12);
        assert_eq!(one.x, two.x);
    }

    #[test]
    fn maximize_and_minimize_agree() {
        // min -obj == -(max obj)
        let build = |sense| {
            let mut m = Model::new(sense);
            let s = if sense == Sense::Maximize { 1.0 } else { -1.0 };
            let a = m.add_binary_var(s * 4.0);
            let b = m.add_binary_var(s * 5.0);
            m.add_constraint(vec![(a, 2.0), (b, 3.0)], Relation::Le, 4.0);
            m
        };
        let mx = solve_milp(&build(Sense::Maximize)).unwrap();
        let mn = solve_milp(&build(Sense::Minimize)).unwrap();
        assert!((mx.objective + mn.objective).abs() < 1e-9);
        assert!((mx.objective - 5.0).abs() < 1e-6);
    }
}
