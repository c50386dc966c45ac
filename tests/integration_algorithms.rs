//! Cross-crate integration tests: the three algorithms run end-to-end on
//! generated MEC scenarios and respect the dominance and feasibility
//! relations the paper's analysis promises.

use mec_sfc_reliability::mecnet::workload::{generate_scenario, WorkloadConfig};
use mec_sfc_reliability::milp::BnbConfig;
use mec_sfc_reliability::relaug::heuristic::{HeuristicConfig, StopRule};
use mec_sfc_reliability::relaug::ilp::IlpConfig;
use mec_sfc_reliability::relaug::instance::AugmentationInstance;
use mec_sfc_reliability::relaug::{greedy, heuristic, ilp, randomized};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn scenario_instance(seed: u64, cfg: &WorkloadConfig) -> AugmentationInstance {
    let mut rng = StdRng::seed_from_u64(seed);
    let s = generate_scenario(cfg, &mut rng);
    AugmentationInstance::from_scenario(&s, 1)
}

fn small_cfg() -> WorkloadConfig {
    WorkloadConfig { nodes: 40, sfc_len_range: (4, 7), ..Default::default() }
}

/// Uncapped exact config (no expectation trim) for dominance checks.
fn uncapped_ilp() -> IlpConfig {
    IlpConfig { stop_at_expectation: false, ..Default::default() }
}

#[test]
fn ilp_dominates_feasible_algorithms() {
    for seed in 0..15 {
        let inst = scenario_instance(seed, &small_cfg());
        let exact = ilp::solve(&inst, &uncapped_ilp()).expect("ilp");
        let heur = heuristic::solve(&inst, &HeuristicConfig::with_stop(StopRule::Exhaust));
        let greed = greedy::solve(&inst, &Default::default());
        assert!(
            heur.metrics.reliability <= exact.metrics.reliability + 1e-9,
            "seed {seed}: heuristic {} beat exact {}",
            heur.metrics.reliability,
            exact.metrics.reliability
        );
        assert!(
            greed.metrics.reliability <= exact.metrics.reliability + 1e-9,
            "seed {seed}: greedy beat exact"
        );
    }
}

#[test]
fn feasible_algorithms_never_violate_capacity_or_locality() {
    for seed in 20..35 {
        let inst = scenario_instance(seed, &small_cfg());
        let exact = ilp::solve(&inst, &Default::default()).expect("ilp");
        let heur = heuristic::solve(&inst, &Default::default());
        let greed = greedy::solve(&inst, &Default::default());
        for (name, out) in [("ilp", &exact), ("heuristic", &heur), ("greedy", &greed)] {
            assert!(out.augmentation.is_capacity_feasible(&inst), "{name} violated capacity");
            assert!(out.augmentation.respects_locality(&inst), "{name} violated locality");
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let rand_out = randomized::solve(&inst, &Default::default(), &mut rng).expect("lp");
        // Randomized may violate capacity but never locality.
        assert!(rand_out.augmentation.respects_locality(&inst));
    }
}

#[test]
fn augmentation_never_decreases_reliability() {
    for seed in 40..55 {
        let inst = scenario_instance(seed, &small_cfg());
        let base = inst.base_reliability();
        let heur = heuristic::solve(&inst, &Default::default());
        assert!(heur.metrics.reliability >= base - 1e-12);
        let mut rng = StdRng::seed_from_u64(seed);
        let rand_out = randomized::solve(&inst, &Default::default(), &mut rng).expect("lp");
        assert!(rand_out.metrics.reliability >= base - 1e-12);
    }
}

#[test]
fn all_algorithms_stop_at_expectation_when_reachable() {
    // Plenty of capacity: everyone should reach (and barely exceed) rho.
    let cfg = WorkloadConfig {
        nodes: 40,
        sfc_len_range: (3, 4),
        residual_fraction: 1.0,
        expectation: 0.99,
        ..Default::default()
    };
    let mut reached = 0;
    for seed in 0..10 {
        let inst = scenario_instance(seed, &cfg);
        let exact = ilp::solve(&inst, &Default::default()).expect("ilp");
        let heur = heuristic::solve(&inst, &Default::default());
        if exact.metrics.met_expectation {
            reached += 1;
            // With trim semantics, neither algorithm should wildly overshoot:
            // removing any one secondary would drop below rho. We check a
            // loose bound: reliability < 1 - (1 - rho)/50.
            assert!(exact.metrics.reliability < 1.0 - (1.0 - inst.expectation) / 50.0);
        }
        if heur.metrics.met_expectation && exact.metrics.met_expectation {
            // Both met: achieved reliabilities differ by little.
            assert!((heur.metrics.reliability - exact.metrics.reliability).abs() < 0.02);
        }
    }
    assert!(reached >= 8, "abundant capacity should almost always reach rho ({reached}/10)");
}

#[test]
fn exact_solver_matches_exhaustive_search_on_tiny_scenarios() {
    // Tiny networks so exhaustive enumeration over per-function counts works.
    let cfg = WorkloadConfig {
        nodes: 12,
        cloudlet_fraction: 0.25,
        sfc_len_range: (2, 3),
        capacity_range: (500.0, 900.0),
        residual_fraction: 0.5,
        expectation: 0.999999, // effectively "maximize"
        ..Default::default()
    };
    for seed in 0..12 {
        let inst = scenario_instance(seed, &cfg);
        let exact = ilp::solve(&inst, &uncapped_ilp()).expect("ilp");
        let brute = brute_force_best(&inst);
        assert!(
            (exact.metrics.reliability - brute).abs() < 1e-9,
            "seed {seed}: ilp {} vs brute {}",
            exact.metrics.reliability,
            brute
        );
    }
}

/// Exhaustive search over all feasible per-(function, bin) count vectors.
fn brute_force_best(inst: &AugmentationInstance) -> f64 {
    fn recurse(
        inst: &AugmentationInstance,
        func: usize,
        residual: &mut Vec<f64>,
        counts: &mut Vec<usize>,
        best: &mut f64,
    ) {
        if func == inst.functions.len() {
            let rels: Vec<f64> = inst.functions.iter().map(|f| f.reliability).collect();
            let rel = mec_sfc_reliability::relaug::reliability::chain_reliability(&rels, counts);
            if rel > *best {
                *best = rel;
            }
            return;
        }
        // Enumerate allocations of function `func` across its eligible bins.
        fn alloc(
            inst: &AugmentationInstance,
            func: usize,
            bin_pos: usize,
            residual: &mut Vec<f64>,
            counts: &mut Vec<usize>,
            best: &mut f64,
        ) {
            if bin_pos == inst.functions[func].eligible_bins.len() {
                recurse(inst, func + 1, residual, counts, best);
                return;
            }
            let b = inst.functions[func].eligible_bins[bin_pos];
            let demand = inst.functions[func].demand;
            let max_here = (residual[b] / demand).floor() as usize;
            for take in 0..=max_here.min(8) {
                residual[b] -= demand * take as f64;
                counts[func] += take;
                alloc(inst, func, bin_pos + 1, residual, counts, best);
                counts[func] -= take;
                residual[b] += demand * take as f64;
            }
        }
        alloc(inst, func, 0, residual, counts, best);
    }
    let mut residual: Vec<f64> = inst.bins.iter().map(|b| b.residual).collect();
    let mut counts = vec![0usize; inst.functions.len()];
    let mut best = inst.base_reliability();
    recurse(inst, 0, &mut residual, &mut counts, &mut best);
    best
}

#[test]
fn node_limited_solver_still_returns_incumbent() {
    let inst = scenario_instance(99, &WorkloadConfig::default());
    let cfg =
        IlpConfig { bnb: BnbConfig { max_nodes: 3, ..Default::default() }, ..Default::default() };
    // With the greedy warm start an incumbent always exists, so a tiny node
    // budget degrades quality but never errors.
    let out = ilp::solve(&inst, &cfg).expect("incumbent fallback");
    assert!(out.augmentation.is_capacity_feasible(&inst));
}

#[test]
fn deterministic_across_runs() {
    let cfg = small_cfg();
    let run = |seed| {
        let inst = scenario_instance(seed, &cfg);
        let e = ilp::solve(&inst, &Default::default()).unwrap().metrics.reliability;
        let h = heuristic::solve(&inst, &Default::default()).metrics.reliability;
        let mut rng = StdRng::seed_from_u64(seed);
        let r =
            randomized::solve(&inst, &Default::default(), &mut rng).unwrap().metrics.reliability;
        (e, h, r)
    };
    assert_eq!(run(7), run(7));
    assert_eq!(run(8), run(8));
}
