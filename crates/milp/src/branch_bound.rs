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
//! snapshotted once and shared by both children, which differ from the
//! parent by a single variable-bound change. The child re-solve then runs
//! the dual simplex from the parent basis — typically a handful of pivots —
//! instead of a cold two-phase solve. The warm and cold paths reach equal
//! optimal objectives, but where a node LP has alternate optima the dual
//! and the primal pivots can stop at different optimal vertices, so the
//! branching decisions, the tree and the optimal solution returned can
//! differ between the two paths.
//!
//! A search allocates nothing once its [`LpWorkspace`] is warm: the
//! computational form is built once per solve and each node rewrites only
//! its structural bounds; a node is its bound, its parent and its one bound
//! change in an arena, so its overrides are replayed from the path to the
//! root; basis snapshots live in a pool with a count of the children still
//! holding each; and the incumbent and rounded points are workspace
//! buffers. Node LPs read their point and objective from the workspace and
//! compute no duals.

use std::collections::BinaryHeap;

use crate::error::SolverError;
use crate::problem::{Model, Sense, VarId};
use crate::simplex::{BasisSnapshot, LpWorkspace};
use crate::solution::{LpStatus, MilpSolution};
use crate::INT_TOL;

/// Knobs for the branch-and-bound search.
#[derive(Debug, Clone)]
pub struct BnbConfig {
    /// Stop searching after this many nodes. If an incumbent exists by then it
    /// is returned with [`MilpSolution::proven`]` = false`; otherwise the
    /// solve fails with [`SolverError::NodeLimit`]. The only budget: the
    /// search never reads the clock, so its result is a pure function of
    /// `(model, config)` and the solve call's hints.
    pub max_nodes: usize,
    /// Absolute optimality gap at which a node is pruned against the
    /// incumbent.
    pub gap_tol: f64,
    /// Warm-start each child node's LP from its parent's optimal basis via
    /// the dual simplex (default). Disable to force a cold two-phase solve
    /// at every node — only useful for benchmarking the warm-start gain.
    pub warm_lp_nodes: bool,
}

impl Default for BnbConfig {
    fn default() -> Self {
        BnbConfig { max_nodes: 200_000, gap_tol: 1e-7, warm_lp_nodes: true }
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

/// Marks a missing parent, bound change or snapshot.
const NONE: usize = usize::MAX;

/// A queued node: the heap orders by `bound` alone.
#[derive(Debug, Clone, Copy)]
struct Node {
    /// Bound on the achievable objective in *minimization* sense.
    bound: f64,
    /// Index into [`Tree::nodes`].
    id: usize,
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

/// A node of the search tree: its parent, the one bound change that made
/// it (`var` replaces the variable's override with `bounds`), and the pool
/// slot of its parent's basis snapshot.
#[derive(Debug, Clone, Copy)]
struct NodeRec {
    parent: usize,
    var: usize,
    bounds: (f64, f64),
    snap: usize,
}

/// Branch-and-bound state an [`LpWorkspace`] keeps between searches; every
/// search starts by resetting it, so only capacity carries over.
#[derive(Debug, Clone, Default)]
pub(crate) struct Tree {
    heap: BinaryHeap<Node>,
    nodes: Vec<NodeRec>,
    /// Basis snapshots of expanded nodes; `refs[s]` counts the queued
    /// children still holding slot `s`, and `free` lists the slots at 0.
    snaps: Vec<BasisSnapshot>,
    refs: Vec<usize>,
    free: Vec<usize>,
    /// The current node's bound overrides, per model variable.
    ovr: Vec<Option<(f64, f64)>>,
    int_vars: Vec<VarId>,
    rounded: Vec<f64>,
    incumbent: Vec<f64>,
}

impl Tree {
    fn reset(&mut self) {
        self.heap.clear();
        self.nodes.clear();
        self.refs.clear();
        self.refs.resize(self.snaps.len(), 0);
        self.free.clear();
        self.free.extend((0..self.snaps.len()).rev());
    }

    /// Snapshot the workspace's basis into a pool slot held by `holders`
    /// children; [`NONE`] when no basis is cached.
    fn take_snapshot(&mut self, ws: &LpWorkspace, holders: usize) -> usize {
        let slot = match self.free.pop() {
            Some(slot) => {
                if !ws.snapshot_into(&mut self.snaps[slot]) {
                    self.free.push(slot);
                    return NONE;
                }
                slot
            }
            None => {
                let Some(snap) = ws.snapshot() else { return NONE };
                self.snaps.push(snap);
                self.refs.push(0);
                self.snaps.len() - 1
            }
        };
        self.refs[slot] = holders;
        slot
    }

    /// A child no longer needs its snapshot slot.
    fn release(&mut self, slot: usize) {
        if slot != NONE {
            self.refs[slot] -= 1;
            if self.refs[slot] == 0 {
                self.free.push(slot);
            }
        }
    }

    fn push(&mut self, parent: usize, var: VarId, bounds: (f64, f64), snap: usize, bound: f64) {
        self.nodes.push(NodeRec { parent, var: var.index(), bounds, snap });
        self.heap.push(Node { bound, id: self.nodes.len() - 1 });
    }

    /// Replay node `id`'s overrides: for each variable, the change nearest
    /// the node on its path to the root.
    fn load_overrides(&mut self, id: usize, num_vars: usize) {
        self.ovr.clear();
        self.ovr.resize(num_vars, None);
        let mut at = id;
        while at != NONE {
            let rec = self.nodes[at];
            if rec.var != NONE && self.ovr[rec.var].is_none() {
                self.ovr[rec.var] = Some(rec.bounds);
            }
            at = rec.parent;
        }
    }
}

/// Solve `model` to proven optimality.
pub fn solve_milp_with(model: &Model, config: &BnbConfig) -> Result<MilpSolution, SolverError> {
    let mut sol = MilpSolution::default();
    solve_milp_with_ws(model, config, None, None, &mut LpWorkspace::new(), &mut sol)?;
    Ok(sol)
}

/// Solve `model` to proven optimality into `sol`, reusing `ws` for every
/// node LP and the search state.
///
/// * `warm_start` — a feasible starting point (in model-variable space) that
///   seeds the incumbent; silently ignored if infeasible. A good warm start
///   — e.g. from a problem-specific heuristic — can prune most of the tree.
/// * `branch_priority` — per-variable branching priorities (higher = branch
///   first among fractional variables; ties broken by fractionality).
///   Callers that know a variable's impact — e.g. its resource demand in a
///   packing model — can cut the tree substantially.
///
/// The workspace is cleared on entry, so the result is a pure function of
/// `(model, config, warm_start, branch_priority)` — passing a workspace only
/// reuses its *allocations* across calls, and a warm workspace and `sol`
/// make the search allocation-free. Within the solve, node LPs warm-start
/// from their parent's basis when [`BnbConfig::warm_lp_nodes`] is set.
pub fn solve_milp_with_ws(
    model: &Model,
    config: &BnbConfig,
    warm_start: Option<&[f64]>,
    branch_priority: Option<&[f64]>,
    ws: &mut LpWorkspace,
    sol: &mut MilpSolution,
) -> Result<(), SolverError> {
    let mut tree = std::mem::take(&mut ws.tree);
    let result = search(model, config, warm_start, branch_priority, ws, &mut tree, sol);
    ws.tree = tree;
    result
}

fn search(
    model: &Model,
    config: &BnbConfig,
    warm_start: Option<&[f64]>,
    branch_priority: Option<&[f64]>,
    ws: &mut LpWorkspace,
    tree: &mut Tree,
    sol: &mut MilpSolution,
) -> Result<(), SolverError> {
    ws.clear();
    model.validate()?;
    tree.int_vars.clear();
    tree.int_vars.extend(model.integer_vars());
    for &v in &tree.int_vars {
        let (lo, hi) = model.var_bounds(v);
        if !lo.is_finite() && !hi.is_finite() {
            return Err(SolverError::NonFiniteInput {
                what: "integer variable with two infinite bounds",
            });
        }
    }
    let n = model.num_vars();
    let to_min = |obj: f64| if model.sense() == Sense::Maximize { -obj } else { obj };

    let mut stats = BnbStats::default();
    // Min-sense objective of `tree.incumbent`, once there is one.
    let mut best: Option<f64> = None;
    if let Some(point) = warm_start {
        if point.len() == n
            && model.is_feasible(point, 1e-6)
            && tree.int_vars.iter().all(|&v| {
                let x = point[v.index()];
                (x - x.round()).abs() <= INT_TOL
            })
        {
            round_into(point, &tree.int_vars, &mut tree.incumbent);
            best = Some(to_min(model.eval_objective(&tree.incumbent)));
            stats.incumbent_updates += 1;
        }
    }

    ws.form.fill(model);
    tree.reset();
    tree.nodes.push(NodeRec { parent: NONE, var: NONE, bounds: (0.0, 0.0), snap: NONE });
    tree.heap.push(Node { bound: f64::NEG_INFINITY, id: 0 });
    let mut saw_unbounded_root = false;
    let mut proven = true;

    while let Some(node) = tree.heap.pop() {
        let snap = tree.nodes[node.id].snap;
        if let Some(best) = best {
            if node.bound >= best - config.gap_tol {
                stats.pruned_bound += 1;
                tree.release(snap);
                continue;
            }
        }
        stats.nodes += 1;
        if stats.nodes > config.max_nodes {
            if best.is_some() {
                proven = false;
                break;
            }
            return Err(SolverError::NodeLimit { nodes: config.max_nodes });
        }

        // Warm-start from the parent's basis when available (one bound
        // changed, so it is still dual feasible); otherwise a cold solve.
        if snap != NONE {
            ws.restore(&tree.snaps[snap]);
        } else {
            ws.clear();
        }
        tree.release(snap);
        tree.load_overrides(node.id, n);
        let bounds_ok = ws.form.set_bounds(model, Some(&tree.ovr));
        let status = ws.solve_form(bounds_ok)?;
        stats.lp_iterations += ws.iterations;
        match status {
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
        let node_bound = to_min(ws.objective);
        if let Some(best) = best {
            if node_bound >= best - config.gap_tol {
                stats.pruned_bound += 1;
                continue;
            }
        }

        // Branch variable: highest priority among fractional integer
        // variables; ties (and the default) fall back to most-fractional.
        let mut branch: Option<(VarId, f64, (f64, f64))> = None; // (var, value, (neg prio, frac dist))
        for &v in &tree.int_vars {
            let val = ws.x[v.index()];
            let frac = (val - val.round()).abs();
            if frac > INT_TOL {
                let prio = branch_priority.and_then(|p| p.get(v.index()).copied()).unwrap_or(0.0);
                let key = (-prio, (frac - 0.5).abs());
                if branch.is_none_or(|(_, _, k)| key < k) {
                    branch = Some((v, val, key));
                }
            }
        }

        // An integral relaxation is a candidate incumbent; otherwise try
        // the rounded point opportunistically before branching.
        round_into(&ws.x, &tree.int_vars, &mut tree.rounded);
        if branch.is_none() || model.is_feasible(&tree.rounded, 1e-7) {
            let obj = to_min(model.eval_objective(&tree.rounded));
            if best.is_none_or(|best| obj < best - config.gap_tol) {
                std::mem::swap(&mut tree.rounded, &mut tree.incumbent);
                best = Some(obj);
                stats.incumbent_updates += 1;
            }
        }
        if let Some((v, val, _)) = branch {
            let (lo, hi) = effective_bounds(model, &tree.ovr, v);
            let (floor, ceil) = (val.floor(), val.ceil());
            let down = floor >= lo - 1e-12;
            let up = ceil <= hi + 1e-12;
            let holders = usize::from(down) + usize::from(up);
            let snap = if config.warm_lp_nodes && holders > 0 {
                tree.take_snapshot(ws, holders)
            } else {
                NONE
            };
            if down {
                tree.push(node.id, v, (lo, floor), snap, node_bound);
            }
            if up {
                tree.push(node.id, v, (ceil, hi), snap, node_bound);
            }
        }
    }

    sol.stats = stats;
    sol.x.clear();
    sol.proven = true;
    sol.objective = f64::NAN;
    sol.status = if saw_unbounded_root {
        LpStatus::Unbounded
    } else if let Some(obj_min) = best {
        sol.objective = if model.sense() == Sense::Maximize { -obj_min } else { obj_min };
        sol.x.extend_from_slice(&tree.incumbent);
        sol.proven = proven;
        LpStatus::Optimal
    } else {
        LpStatus::Infeasible
    };
    Ok(())
}

/// `x` with its integer entries rounded to the nearest integer, into `out`.
fn round_into(x: &[f64], int_vars: &[VarId], out: &mut Vec<f64>) {
    out.clear();
    out.extend_from_slice(x);
    for &v in int_vars {
        out[v.index()] = out[v.index()].round();
    }
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
        m.add_constraint(vars.iter().map(|&v| (v, 3.0)), Relation::Le, 17.0);
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
        m.add_constraint(vars.iter().map(|&v| (v, 2.0 + 0.1)), Relation::Le, 9.0);
        m.add_constraint(
            vars.iter().enumerate().map(|(i, &v)| (v, 1.0 + (i % 3) as f64)),
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
        // Models of different shapes, several of which branch; one
        // workspace and one solution buffer solve them in sequence, forward
        // and then in reverse, and every solve must equal a fresh solve
        // (the workspace is cleared on entry; only allocations are reused).
        let mut models = Vec::new();
        let mut m = Model::new(Sense::Maximize);
        let a = m.add_binary_var(10.0);
        let b = m.add_binary_var(13.0);
        let c = m.add_binary_var(7.0);
        m.add_constraint(vec![(a, 3.0), (b, 4.0), (c, 2.0)], Relation::Le, 6.0);
        models.push(m);
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = (0..12).map(|i| m.add_binary_var(7.0 + (i as f64) * 0.3)).collect();
        m.add_constraint(vars.iter().map(|&v| (v, 3.0)), Relation::Le, 17.0);
        m.add_constraint(vars.iter().step_by(2).map(|&v| (v, 1.5)), Relation::Le, 4.0);
        models.push(m);
        let mut m = Model::new(Sense::Minimize);
        let x = m.add_integer_var(0.0, 10.0, 1.0);
        let y = m.add_integer_var(0.0, 10.0, 1.0);
        let z = m.add_integer_var(0.0, 10.0, 1.0);
        m.add_constraint(vec![(x, 2.0), (y, 3.0), (z, 5.0)], Relation::Eq, 10.0);
        models.push(m);
        let mut m = Model::new(Sense::Maximize);
        let x = m.add_integer_var(0.0, 10.0, 2.0);
        let y = m.add_var(0.0, 1.5, 1.0);
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 3.2);
        models.push(m);
        let mut m = Model::new(Sense::Maximize);
        let _ = m.add_integer_var(0.0, 4.0, 1.0);
        models.push(m);

        let fresh: Vec<MilpSolution> = models.iter().map(|m| solve_milp(m).unwrap()).collect();
        assert!(fresh.iter().filter(|s| s.stats.nodes > 1).count() >= 2, "searches must branch");
        let mut ws = LpWorkspace::new();
        let mut sol = MilpSolution::default();
        let order: Vec<usize> = (0..models.len()).chain((0..models.len()).rev()).collect();
        for &i in &order {
            solve_milp_with_ws(&models[i], &BnbConfig::default(), None, None, &mut ws, &mut sol)
                .unwrap();
            assert_eq!(sol.status, fresh[i].status, "model {i}");
            assert_eq!(sol.stats, fresh[i].stats, "model {i}");
            assert_eq!(sol.objective.to_bits(), fresh[i].objective.to_bits(), "model {i}");
            assert_eq!(sol.x, fresh[i].x, "model {i}");
            assert_eq!(sol.proven, fresh[i].proven, "model {i}");
        }

        // Hints are arguments of the call, not workspace state: a hinted
        // solve between two plain ones changes neither.
        let prio: Vec<f64> = (0..12).map(|i| (i % 4) as f64).collect();
        let start = vec![0.0; 12];
        let hinted = |ws: &mut LpWorkspace, sol: &mut MilpSolution| {
            solve_milp_with_ws(
                &models[1],
                &BnbConfig::default(),
                Some(&start),
                Some(&prio),
                ws,
                sol,
            )
            .unwrap();
            (sol.stats, sol.x.clone())
        };
        let once = hinted(&mut LpWorkspace::new(), &mut MilpSolution::default());
        let again = hinted(&mut ws, &mut sol);
        assert_eq!(once, again);
        assert!(once.0.incumbent_updates >= 1);
        solve_milp_with_ws(&models[1], &BnbConfig::default(), None, None, &mut ws, &mut sol)
            .unwrap();
        assert_eq!(sol.stats, fresh[1].stats);
        assert_eq!(sol.x, fresh[1].x);
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
