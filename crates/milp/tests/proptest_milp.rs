//! Property tests: the branch-and-bound solver must agree with exhaustive
//! enumeration on random small binary programs, and LP relaxations must always
//! bound the integer optimum.

use milp::{solve_lp, solve_milp, LpStatus, Model, Relation, Sense};
use proptest::prelude::*;

/// A small random binary maximization knapsack-with-side-constraints model.
#[derive(Debug, Clone)]
struct RandomBinaryProgram {
    profits: Vec<f64>,
    rows: Vec<(Vec<f64>, f64)>, // (coeffs, rhs), all `<=`
}

impl RandomBinaryProgram {
    fn to_model(&self) -> Model {
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = self.profits.iter().map(|&p| m.add_binary_var(p)).collect();
        for (coeffs, rhs) in &self.rows {
            m.add_constraint(vars.iter().zip(coeffs).map(|(&v, &c)| (v, c)), Relation::Le, *rhs);
        }
        m
    }

    /// Exhaustive optimum over all 2^n assignments.
    fn brute_force(&self) -> Option<(f64, Vec<f64>)> {
        let n = self.profits.len();
        let mut best: Option<(f64, Vec<f64>)> = None;
        for mask in 0..(1u32 << n) {
            let x: Vec<f64> =
                (0..n).map(|i| if mask & (1 << i) != 0 { 1.0 } else { 0.0 }).collect();
            let feasible = self.rows.iter().all(|(coeffs, rhs)| {
                let lhs: f64 = coeffs.iter().zip(&x).map(|(c, xi)| c * xi).sum();
                lhs <= rhs + 1e-9
            });
            if feasible {
                let obj: f64 = self.profits.iter().zip(&x).map(|(p, xi)| p * xi).sum();
                if best.as_ref().is_none_or(|(b, _)| obj > *b) {
                    best = Some((obj, x));
                }
            }
        }
        best
    }
}

fn arb_program() -> impl Strategy<Value = RandomBinaryProgram> {
    (2usize..=10, 1usize..=4).prop_flat_map(|(n, m)| {
        let profits = proptest::collection::vec(0.0f64..10.0, n);
        let rows =
            proptest::collection::vec((proptest::collection::vec(0.0f64..5.0, n), 0.5f64..12.0), m);
        (profits, rows).prop_map(|(profits, rows)| RandomBinaryProgram { profits, rows })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn bnb_matches_brute_force(prog in arb_program()) {
        let model = prog.to_model();
        let sol = solve_milp(&model).unwrap();
        // All-zeros is always feasible for `<=` rows with rhs > 0 here, so the
        // model can never be infeasible.
        prop_assert_eq!(sol.status, LpStatus::Optimal);
        let (best, _) = prog.brute_force().expect("zero vector always feasible");
        prop_assert!((sol.objective - best).abs() < 1e-6,
            "bnb found {} but brute force found {}", sol.objective, best);
        prop_assert!(model.is_feasible(&sol.x, 1e-6));
    }

    #[test]
    fn lp_relaxation_bounds_ilp(prog in arb_program()) {
        // `solve_lp` ignores integrality, so it solves the relaxation of
        // the integer model itself.
        let model = prog.to_model();
        let lp = solve_lp(&model).unwrap();
        prop_assert_eq!(lp.status, LpStatus::Optimal);
        let ilp = solve_milp(&model).unwrap();
        // Maximization: relaxation is an upper bound.
        prop_assert!(lp.objective >= ilp.objective - 1e-6,
            "LP {} should dominate ILP {}", lp.objective, ilp.objective);
        prop_assert!(model.is_feasible(&lp.x, 1e-6));
    }

    #[test]
    fn lp_solution_is_vertex_feasible(prog in arb_program()) {
        let model = prog.to_model();
        let lp = solve_lp(&model).unwrap();
        prop_assert_eq!(lp.status, LpStatus::Optimal);
        for (i, &xi) in lp.x.iter().enumerate() {
            prop_assert!((-1e-7..=1.0 + 1e-7).contains(&xi), "x[{i}] = {xi} out of [0,1]");
        }
    }
}

#[test]
fn minimization_duality_spotcheck() {
    // min 2x + 3y st x + y >= 4, x <= 3, y <= 3 -> x=3, y=1, obj 9.
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_var(0.0, 3.0, 2.0);
    let y = m.add_var(0.0, 3.0, 3.0);
    m.add_constraint(vec![(x, 1.0), (y, 1.0)], Relation::Ge, 4.0);
    let sol = solve_lp(&m).unwrap();
    assert!((sol.objective - 9.0).abs() < 1e-6);
    // Integer version identical here.
    let mut mi = Model::new(Sense::Minimize);
    let xi = mi.add_integer_var(0.0, 3.0, 2.0);
    let yi = mi.add_integer_var(0.0, 3.0, 3.0);
    mi.add_constraint(vec![(xi, 1.0), (yi, 1.0)], Relation::Ge, 4.0);
    let isol = solve_milp(&mi).unwrap();
    assert!((isol.objective - 9.0).abs() < 1e-6);
}

#[test]
fn larger_knapsack_against_dp() {
    // Deterministic 18-item 0/1 knapsack cross-checked against dynamic
    // programming (integer weights).
    let weights: [i64; 18] = [3, 7, 2, 9, 5, 4, 8, 6, 1, 10, 3, 7, 5, 2, 6, 4, 9, 8];
    let values: [f64; 18] = [
        4.0, 9.0, 3.0, 11.0, 6.0, 5.0, 10.0, 7.0, 1.5, 13.0, 4.5, 8.0, 6.5, 2.5, 7.5, 5.5, 12.0,
        9.5,
    ];
    let cap: i64 = 30;

    // DP over weights.
    let mut dp = vec![0.0f64; (cap + 1) as usize];
    for i in 0..18 {
        for w in (weights[i]..=cap).rev() {
            let cand = dp[(w - weights[i]) as usize] + values[i];
            if cand > dp[w as usize] {
                dp[w as usize] = cand;
            }
        }
    }
    let dp_best = dp[cap as usize];

    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> = values.iter().map(|&v| m.add_binary_var(v)).collect();
    m.add_constraint(
        vars.iter().zip(&weights).map(|(&v, &w)| (v, w as f64)),
        Relation::Le,
        cap as f64,
    );
    let sol = solve_milp(&m).unwrap();
    assert!((sol.objective - dp_best).abs() < 1e-6, "bnb {} vs dp {}", sol.objective, dp_best);
}
