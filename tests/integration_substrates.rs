//! Cross-substrate validation: the LP/MILP solver and the matching library
//! are independent implementations that must agree on problems both can
//! express.

use mec_sfc_reliability::matching::{hungarian, min_cost_max_matching};
use mec_sfc_reliability::milp::{solve_lp, solve_milp, Model, Relation, Sense};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The assignment polytope is integral: the *LP relaxation* of the
/// assignment problem solved by simplex must match the Hungarian algorithm
/// exactly.
#[test]
fn simplex_on_assignment_polytope_matches_hungarian() {
    for seed in 0..10u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(2..=6);
        let cost: Vec<Vec<f64>> =
            (0..n).map(|_| (0..n).map(|_| rng.gen_range(0.0..10.0)).collect()).collect();

        let mut m = Model::new(Sense::Minimize);
        let mut vars = vec![vec![]; n];
        for (vrow, crow) in vars.iter_mut().zip(&cost) {
            for &c in crow.iter().take(n) {
                vrow.push(m.add_var(0.0, f64::INFINITY, c));
            }
        }
        for (i, vrow) in vars.iter().enumerate() {
            m.add_constraint(vrow.iter().map(|&v| (v, 1.0)), Relation::Eq, 1.0);
            m.add_constraint((0..n).map(|j| (vars[j][i], 1.0)), Relation::Eq, 1.0);
        }
        let lp = solve_lp(&m).unwrap();
        let hung = hungarian::solve(&cost).unwrap();
        assert!(
            (lp.objective - hung.cost).abs() < 1e-6,
            "seed {seed}: simplex {} vs hungarian {}",
            lp.objective,
            hung.cost
        );
        // Birkhoff-von-Neumann: the simplex vertex is a permutation matrix.
        for row in &vars {
            for &v in row {
                let x = lp.x[v.index()];
                assert!(x < 1e-6 || (x - 1.0).abs() < 1e-6, "fractional vertex {x}");
            }
        }
    }
}

/// Min-cost maximum matching on a sparse bipartite graph vs the equivalent
/// MILP (maximize cardinality first via a large per-edge bonus, then
/// minimize cost).
#[test]
fn flow_matching_matches_milp_formulation() {
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(100 + seed);
        let nl = rng.gen_range(2..=4);
        let nr = rng.gen_range(2..=4);
        let mut edges = Vec::new();
        for l in 0..nl {
            for r in 0..nr {
                if rng.gen::<f64>() < 0.6 {
                    edges.push((l, r, rng.gen_range(0.5..8.0)));
                }
            }
        }
        let matching = min_cost_max_matching(nl, nr, &edges);

        // MILP: maximize BONUS*selected - cost so cardinality dominates.
        const BONUS: f64 = 1_000.0;
        let mut m = Model::new(Sense::Maximize);
        let vars: Vec<_> = edges.iter().map(|&(_, _, c)| m.add_binary_var(BONUS - c)).collect();
        for l in 0..nl {
            let terms: Vec<_> = edges
                .iter()
                .zip(&vars)
                .filter(|((el, _, _), _)| *el == l)
                .map(|(_, &v)| (v, 1.0))
                .collect();
            if !terms.is_empty() {
                m.add_constraint(terms, Relation::Le, 1.0);
            }
        }
        for r in 0..nr {
            let terms: Vec<_> = edges
                .iter()
                .zip(&vars)
                .filter(|((_, er, _), _)| *er == r)
                .map(|(_, &v)| (v, 1.0))
                .collect();
            if !terms.is_empty() {
                m.add_constraint(terms, Relation::Le, 1.0);
            }
        }
        let milp_sol = solve_milp(&m).unwrap();
        let milp_card = (milp_sol.objective / BONUS).round() as usize;
        let milp_cost = BONUS * milp_card as f64 - milp_sol.objective;
        assert_eq!(matching.cardinality(), milp_card, "seed {seed}: cardinality mismatch");
        assert!(
            (matching.cost - milp_cost).abs() < 1e-6,
            "seed {seed}: flow cost {} vs milp cost {}",
            matching.cost,
            milp_cost
        );
    }
}

/// The LP relaxation of a bipartite matching problem is integral, so simplex
/// alone (no branching) must already reproduce the flow solver's optimum.
#[test]
fn matching_lp_relaxation_is_integral() {
    let edges =
        [(0usize, 0usize, 2.0f64), (0, 1, 5.0), (1, 0, 4.0), (1, 2, 1.0), (2, 1, 3.0), (2, 2, 6.0)];
    let matching = min_cost_max_matching(3, 3, &edges);
    assert_eq!(matching.cardinality(), 3);

    const BONUS: f64 = 100.0;
    let mut m = Model::new(Sense::Maximize);
    let vars: Vec<_> = edges.iter().map(|&(_, _, c)| m.add_var(0.0, 1.0, BONUS - c)).collect();
    for side in 0..2 {
        for node in 0..3 {
            let terms: Vec<_> = edges
                .iter()
                .zip(&vars)
                .filter(|((l, r, _), _)| if side == 0 { *l == node } else { *r == node })
                .map(|(_, &v)| (v, 1.0))
                .collect();
            m.add_constraint(terms, Relation::Le, 1.0);
        }
    }
    let lp = solve_lp(&m).unwrap();
    let lp_cost = BONUS * 3.0 - lp.objective;
    assert!((lp_cost - matching.cost).abs() < 1e-6);
}
