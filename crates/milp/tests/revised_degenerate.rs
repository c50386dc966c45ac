//! Anti-cycling regression tests for the revised simplex.
//!
//! These LPs are heavily degenerate: many bases map to the same vertex, the
//! ratio test ties constantly, and a pure Dantzig rule with naive
//! tie-breaking can cycle forever on some of them (Beale's example is *the*
//! textbook cycling instance). The solver escalates to Bland's rule after a
//! streak of degenerate (zero-step) pivots, which guarantees termination —
//! these tests pin that the escalation engages and the solver still reaches
//! the true optimum in a modest number of iterations.

use milp::{solve_lp, solve_milp, LpStatus, Model, Relation, Sense};

/// Beale's classic cycling LP:
///
/// ```text
/// min  -3/4 x1 + 150 x2 - 1/50 x3 + 6 x4
/// s.t.  1/4 x1 -  60 x2 - 1/25 x3 + 9 x4 <= 0
///       1/2 x1 -  90 x2 - 1/50 x3 + 3 x4 <= 0
///                             x3          <= 1
///       x >= 0
/// ```
///
/// Dantzig pricing with lowest-index tie-breaking cycles through six bases
/// at the origin on the tableau form of this program. Optimum: `x = (1/25,
/// 0, 1, 0)` with objective `-1/20`.
#[test]
fn beale_cycling_example_terminates_at_optimum() {
    let mut m = Model::new(Sense::Minimize);
    let x1 = m.add_var(0.0, f64::INFINITY, -0.75);
    let x2 = m.add_var(0.0, f64::INFINITY, 150.0);
    let x3 = m.add_var(0.0, f64::INFINITY, -0.02);
    let x4 = m.add_var(0.0, f64::INFINITY, 6.0);
    m.add_constraint(vec![(x1, 0.25), (x2, -60.0), (x3, -0.04), (x4, 9.0)], Relation::Le, 0.0);
    m.add_constraint(vec![(x1, 0.5), (x2, -90.0), (x3, -0.02), (x4, 3.0)], Relation::Le, 0.0);
    m.add_constraint(vec![(x3, 1.0)], Relation::Le, 1.0);
    let sol = solve_lp(&m).expect("Beale's example must not hit the iteration limit");
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!((sol.objective - (-0.05)).abs() < 1e-8, "objective {}", sol.objective);
    assert!((sol.x[x1.index()] - 0.04).abs() < 1e-7);
    assert!((sol.x[x3.index()] - 1.0).abs() < 1e-7);
    // Termination must come from anti-cycling, not from luckily hitting the
    // iteration cap: the cap for this size is in the thousands.
    assert!(sol.iterations < 100, "took {} iterations", sol.iterations);
}

/// Kuhn's cycling example (another standard counterexample for Dantzig
/// pricing), boxed to keep it bounded. With `x <= 10` the optimum is `-10`
/// at `x = (10, 0, 10, 0)`: eliminating `x3 = x1 + 3 x2` (row 2 tight)
/// reduces the objective to `-x1`, and `x4 > 0` only ever trades a `-6`
/// relaxation for its `+12` cost.
#[test]
fn kuhn_cycling_example_terminates() {
    // min -2 x1 - 3 x2 + x3 + 12 x4
    // s.t. -2 x1 - 9 x2 + x3 + 9 x4        <= 0
    //       1/3 x1 + x2 - 1/3 x3 - 2 x4    <= 0
    //       x >= 0, x <= 10 (box to keep it bounded)
    let mut m = Model::new(Sense::Minimize);
    let x1 = m.add_var(0.0, 10.0, -2.0);
    let x2 = m.add_var(0.0, 10.0, -3.0);
    let x3 = m.add_var(0.0, 10.0, 1.0);
    let x4 = m.add_var(0.0, 10.0, 12.0);
    m.add_constraint(vec![(x1, -2.0), (x2, -9.0), (x3, 1.0), (x4, 9.0)], Relation::Le, 0.0);
    m.add_constraint(
        vec![(x1, 1.0 / 3.0), (x2, 1.0), (x3, -1.0 / 3.0), (x4, -2.0)],
        Relation::Le,
        0.0,
    );
    let sol = solve_lp(&m).expect("Kuhn's example must terminate");
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!(m.is_feasible(&sol.x, 1e-7));
    assert!((sol.objective - (-10.0)).abs() < 1e-8, "objective {}", sol.objective);
    assert!(sol.iterations < 200, "took {} iterations", sol.iterations);
}

/// A transportation-style LP where every basic feasible solution is
/// degenerate (supply exactly equals demand and the rhs has repeated
/// values), so nearly every pivot is a zero-step pivot.
#[test]
fn fully_degenerate_transportation_lp() {
    // 3 sources x 3 sinks, all supplies/demands = 1, costs chosen so the
    // optimum is the identity assignment with value 3.
    let mut m = Model::new(Sense::Minimize);
    let mut x = Vec::new();
    for i in 0..3 {
        for j in 0..3 {
            let cost = if i == j { 1.0 } else { 10.0 };
            x.push(m.add_var(0.0, f64::INFINITY, cost));
        }
    }
    let v = |i: usize, j: usize| x[3 * i + j];
    for i in 0..3 {
        m.add_constraint(vec![(v(i, 0), 1.0), (v(i, 1), 1.0), (v(i, 2), 1.0)], Relation::Eq, 1.0);
    }
    for j in 0..3 {
        m.add_constraint(vec![(v(0, j), 1.0), (v(1, j), 1.0), (v(2, j), 1.0)], Relation::Eq, 1.0);
    }
    let sol = solve_lp(&m).unwrap();
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!((sol.objective - 3.0).abs() < 1e-8, "objective {}", sol.objective);
}

/// Many duplicated rows all active at the optimum: the ratio test ties on
/// every duplicate, and the basis must shuffle through redundant slacks
/// without cycling.
#[test]
fn duplicated_rows_tie_the_ratio_test() {
    let mut m = Model::new(Sense::Maximize);
    let x = m.add_var(0.0, f64::INFINITY, 1.0);
    let y = m.add_var(0.0, f64::INFINITY, 1.0);
    for _ in 0..6 {
        m.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Le, 1.0);
    }
    m.add_constraint(vec![(x, 1.0)], Relation::Le, 1.0);
    m.add_constraint(vec![(y, 1.0)], Relation::Le, 1.0);
    let sol = solve_lp(&m).unwrap();
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!((sol.objective - 1.0).abs() < 1e-8);
    assert!(sol.iterations < 50, "took {} iterations", sol.iterations);
}

/// Degeneracy inside branch and bound: a set-partitioning MILP whose LP
/// relaxations are degenerate at every node. The warm-started dual re-solves
/// must still terminate and agree with the combinatorial optimum.
#[test]
fn degenerate_set_partitioning_milp() {
    // Pick exactly one of {a, b}, one of {c, d}, one of {e, f}; pairs share
    // a side constraint. Max profit with ties everywhere.
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> = (0..6).map(|_| m.add_binary_var(1.0)).collect();
    for p in 0..3 {
        m.add_constraint(vec![(vars[2 * p], 1.0), (vars[2 * p + 1], 1.0)], Relation::Eq, 1.0);
    }
    // Side constraint that is exactly tight for any feasible selection.
    m.add_constraint(vars.iter().map(|&v| (v, 1.0)), Relation::Le, 3.0);
    let sol = solve_milp(&m).unwrap();
    assert_eq!(sol.status, LpStatus::Optimal);
    assert!((sol.objective - 3.0).abs() < 1e-8);
}
