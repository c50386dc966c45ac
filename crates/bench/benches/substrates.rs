//! Criterion microbenchmarks of the substrates: the simplex LP solver,
//! branch and bound, min-cost max matching, the Hungarian assignment solver,
//! and topology generation.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use matching::{hungarian, min_cost_max_matching};
use mecnet::topology::{waxman, WaxmanConfig};
use milp::{Model, Relation, Sense};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A random dense LP: maximize c'x s.t. Ax <= b.
fn random_lp(vars: usize, rows: usize, seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Model::new(Sense::Maximize);
    let xs: Vec<_> =
        (0..vars).map(|_| m.add_var(0.0, f64::INFINITY, rng.gen_range(0.1..5.0))).collect();
    for _ in 0..rows {
        let terms: Vec<_> = xs.iter().map(|&v| (v, rng.gen_range(0.1..3.0))).collect();
        m.add_constraint(terms, Relation::Le, rng.gen_range(5.0..40.0));
    }
    m
}

/// A random knapsack-style MILP.
fn random_milp(vars: usize, seed: u64) -> Model {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = Model::new(Sense::Maximize);
    let xs: Vec<_> = (0..vars).map(|_| m.add_binary_var(rng.gen_range(1.0..10.0))).collect();
    for _ in 0..3 {
        let terms: Vec<_> = xs.iter().map(|&v| (v, rng.gen_range(1.0..5.0))).collect();
        m.add_constraint(terms, Relation::Le, vars as f64);
    }
    m
}

fn bench_simplex(c: &mut Criterion) {
    let mut group = c.benchmark_group("simplex");
    for &(vars, rows) in &[(50usize, 25usize), (150, 60), (400, 120)] {
        let lp = random_lp(vars, rows, 42);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{vars}x{rows}")),
            &lp,
            |b, lp| b.iter(|| milp::solve_lp(lp).unwrap().objective),
        );
    }
    group.finish();
}

fn bench_bnb(c: &mut Criterion) {
    let mut group = c.benchmark_group("branch_bound");
    for &vars in &[15usize, 25, 40] {
        let m = random_milp(vars, 7);
        group.bench_with_input(BenchmarkId::from_parameter(vars), &m, |b, m| {
            b.iter(|| milp::solve_milp(m).unwrap().objective)
        });
    }
    group.finish();
}

fn bench_matching(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching");
    for &(nl, nr) in &[(10usize, 50usize), (10, 200), (20, 500)] {
        let mut rng = StdRng::seed_from_u64(3);
        let mut edges = Vec::new();
        for l in 0..nl {
            for r in 0..nr {
                if rng.gen::<f64>() < 0.3 {
                    edges.push((l, r, rng.gen_range(0.1..5.0)));
                }
            }
        }
        group.bench_with_input(
            BenchmarkId::new("mcmf", format!("{nl}x{nr}")),
            &edges,
            |b, edges| b.iter(|| min_cost_max_matching(nl, nr, edges).cost),
        );
    }
    // Dense square Hungarian.
    for &n in &[20usize, 60] {
        let mut rng = StdRng::seed_from_u64(5);
        let cost: Vec<Vec<f64>> =
            (0..n).map(|_| (0..n).map(|_| rng.gen_range(0.0..10.0)).collect()).collect();
        group.bench_with_input(BenchmarkId::new("hungarian", n), &cost, |b, cost| {
            b.iter(|| hungarian::solve(cost).unwrap().cost)
        });
    }
    group.finish();
}

fn bench_topology(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology");
    for &n in &[100usize, 400] {
        group.bench_with_input(BenchmarkId::new("waxman", n), &n, |b, &n| {
            let cfg = WaxmanConfig { nodes: n, ..Default::default() };
            let mut rng = StdRng::seed_from_u64(1);
            b.iter(|| waxman(&cfg, &mut rng).0.num_edges())
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5));
    targets = bench_simplex, bench_bnb, bench_matching, bench_topology
}
criterion_main!(benches);
