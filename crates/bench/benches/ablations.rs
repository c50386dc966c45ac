//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! * `lhop` — the locality radius `l` (1, 2, 3, and effectively-unbounded,
//!   which recovers the unrestricted placement of Lin et al. 2020) vs
//!   reliability and runtime of the heuristic.
//! * `rounding` — Algorithm 1 with 1 vs 8 independent rounding draws.
//! * `matching_vs_greedy` — what the min-cost-maximum-matching structure of
//!   Algorithm 2 buys over a plain greedy (the matching spreads instances
//!   across cloudlets per round; greedy commits one at a time).
//!
//! Reliability deltas are printed once per config at bench start (Criterion
//! measures only time; quality is what the ablation is about, so we log it).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mecnet::workload::{generate_scenario, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use relaug::instance::AugmentationInstance;
use relaug::randomized::RandomizedConfig;
use relaug::{greedy, heuristic, randomized};

fn scenarios(n: usize) -> Vec<mecnet::workload::Scenario> {
    let cfg = WorkloadConfig { sfc_len_range: (8, 8), ..Default::default() };
    (0..n)
        .map(|seed| {
            let mut rng = StdRng::seed_from_u64(seed as u64);
            generate_scenario(&cfg, &mut rng)
        })
        .collect()
}

fn bench_lhop(c: &mut Criterion) {
    let scens = scenarios(6);
    let mut group = c.benchmark_group("ablation_lhop");
    for &l in &[1u32, 2, 3, 99] {
        let insts: Vec<AugmentationInstance> =
            scens.iter().map(|s| AugmentationInstance::from_scenario(s, l)).collect();
        let mean_rel: f64 = insts
            .iter()
            .map(|i| heuristic::solve(i, &Default::default()).metrics.reliability)
            .sum::<f64>()
            / insts.len() as f64;
        let mean_items: f64 =
            insts.iter().map(|i| i.total_items() as f64).sum::<f64>() / insts.len() as f64;
        eprintln!("l={l}: heuristic mean reliability {mean_rel:.4}, mean N {mean_items:.0}");
        group.bench_with_input(BenchmarkId::from_parameter(l), &insts, |b, insts| {
            let mut i = 0;
            b.iter(|| {
                let out = heuristic::solve(&insts[i % insts.len()], &Default::default());
                i += 1;
                out.metrics.reliability
            })
        });
    }
    group.finish();
}

fn bench_rounding(c: &mut Criterion) {
    let scens = scenarios(6);
    let insts: Vec<AugmentationInstance> =
        scens.iter().map(|s| AugmentationInstance::from_scenario(s, 1)).collect();
    let mut group = c.benchmark_group("ablation_rounding");
    for &rounds in &[1usize, 8] {
        let cfg = RandomizedConfig { rounds, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(11);
        let mean_rel: f64 = insts
            .iter()
            .map(|i| randomized::solve(i, &cfg, &mut rng).unwrap().metrics.reliability)
            .sum::<f64>()
            / insts.len() as f64;
        eprintln!("rounds={rounds}: randomized mean reliability {mean_rel:.4}");
        group.bench_with_input(BenchmarkId::from_parameter(rounds), &cfg, |b, cfg| {
            let mut rng = StdRng::seed_from_u64(12);
            let mut i = 0;
            b.iter(|| {
                let out = randomized::solve(&insts[i % insts.len()], cfg, &mut rng).unwrap();
                i += 1;
                out.metrics.reliability
            })
        });
    }
    group.finish();
}

fn bench_matching_vs_greedy(c: &mut Criterion) {
    let scens = scenarios(6);
    let insts: Vec<AugmentationInstance> =
        scens.iter().map(|s| AugmentationInstance::from_scenario(s, 1)).collect();
    let heur_rel: f64 = insts
        .iter()
        .map(|i| heuristic::solve(i, &Default::default()).metrics.reliability)
        .sum::<f64>()
        / insts.len() as f64;
    let greedy_rel: f64 = insts
        .iter()
        .map(|i| greedy::solve(i, &Default::default()).metrics.reliability)
        .sum::<f64>()
        / insts.len() as f64;
    eprintln!("matching heuristic mean reliability {heur_rel:.4} vs greedy {greedy_rel:.4}");
    let mut group = c.benchmark_group("ablation_matching");
    group.bench_function("matching_heuristic", |b| {
        let mut i = 0;
        b.iter(|| {
            let out = heuristic::solve(&insts[i % insts.len()], &Default::default());
            i += 1;
            out.metrics.reliability
        })
    });
    group.bench_function("greedy_baseline", |b| {
        let mut i = 0;
        b.iter(|| {
            let out = greedy::solve(&insts[i % insts.len()], &Default::default());
            i += 1;
            out.metrics.reliability
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(std::time::Duration::from_secs(5));
    targets = bench_lhop, bench_rounding, bench_matching_vs_greedy
}
criterion_main!(benches);
