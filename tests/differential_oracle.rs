//! Cross-algorithm differential test oracle.
//!
//! Property-based sweep over ~200 randomly generated small instances that
//! pins the algebraic relations between the paper's algorithms instead of
//! any single algorithm's absolute output:
//!
//! * exact ILP reliability ≥ heuristic reliability ≥ greedy reliability
//!   (under uncapped/maximizing configurations, so trim semantics cannot
//!   reorder the hierarchy);
//! * the feasible algorithms (ILP, heuristic, greedy) never violate
//!   capacity or locality;
//! * randomized rounding respects the stated violation bound: whenever
//!   Theorem 5.2's capacity premise holds, no cloudlet is loaded beyond 2×
//!   its residual — and locality is respected unconditionally;
//! * every reported reliability `u_j` is reproducible from the placements
//!   alone (recompute-from-solution matches solver-reported within 1e-9).
//!
//! The vendored proptest stub is deterministic (per-test-name seed, no
//! shrinking), so this suite exercises the same 200 instances on every run.

use mec_sfc_reliability::mecnet::workload::{generate_scenario, WorkloadConfig};
use mec_sfc_reliability::milp::BnbConfig;
use mec_sfc_reliability::relaug::heuristic::{HeuristicConfig, StopRule};
use mec_sfc_reliability::relaug::ilp::IlpConfig;
use mec_sfc_reliability::relaug::instance::AugmentationInstance;
use mec_sfc_reliability::relaug::solution::{Outcome, SolverInfo};
use mec_sfc_reliability::relaug::{greedy, heuristic, ilp, randomized, theory};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// A generated small instance plus the node count of its network (the
/// premise of Theorem 5.2 references `|V|`).
fn small_instance(
    nodes: usize,
    sfc_len: usize,
    residual_fraction: f64,
    expectation: f64,
    seed: u64,
) -> (AugmentationInstance, usize) {
    let cfg = WorkloadConfig {
        nodes,
        sfc_len_range: (2, sfc_len.max(2)),
        residual_fraction,
        expectation,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let scenario = generate_scenario(&cfg, &mut rng);
    (AugmentationInstance::from_scenario(&scenario, 1), nodes)
}

/// The reported `u_j` must be a pure function of the placements: recompute
/// it from the augmentation and compare.
fn assert_metrics_reproducible(name: &str, inst: &AugmentationInstance, out: &Outcome) {
    let recomputed = out.augmentation.reliability(inst);
    assert!(
        (recomputed - out.metrics.reliability).abs() <= 1e-9,
        "{name}: reported u_j {} != recomputed {}",
        out.metrics.reliability,
        recomputed,
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]
    #[test]
    fn differential_oracle(
        (nodes, sfc_len) in (12usize..=32, 2usize..=5),
        residual_fraction in prop_oneof![Just(0.25), Just(0.5), Just(1.0)],
        expectation in prop_oneof![Just(0.95), Just(0.99), Just(0.999)],
        seed in 0u64..1_000_000,
    ) {
        let (inst, num_nodes) = small_instance(nodes, sfc_len, residual_fraction, expectation, seed);

        // Maximizing configurations: no expectation trim, so the dominance
        // chain is a statement about achievable reliability mass, not about
        // where each algorithm chose to stop. No wall-clock limit (results
        // must not depend on machine speed); the node budget stays, and the
        // hierarchy is only asserted when the search completed within it.
        const MAX_NODES: usize = 50_000;
        let exact = ilp::solve(
            &inst,
            &IlpConfig {
                stop_at_expectation: false,
                bnb: BnbConfig { max_nodes: MAX_NODES, ..Default::default() },
                ..Default::default()
            },
        )
        .expect("ilp");
        let search_completed = matches!(exact.solver, SolverInfo::Ilp { nodes, .. } if nodes < MAX_NODES);
        let heur = heuristic::solve(&inst, &HeuristicConfig::with_stop(StopRule::Exhaust));
        let greed = greedy::solve(&inst, &Default::default());

        // --- Hierarchy: the exact optimum dominates both feasible
        // polynomial algorithms. (heuristic >= greedy is NOT a per-instance
        // theorem — the matching can commit capacity to placements greedy
        // avoids — so that leg is checked in aggregate below.)
        //
        // Tolerance: the branch and bound proves optimality only up to its
        // relative gap (default 1e-7) and compares bounds in log-gain space
        // with floating-point slack, so on near-tie instances the heuristic
        // can edge out the "exact" optimum by a sliver (observed: 1.4e-9).
        // 5e-7 sits above that slack and far below any genuine regression.
        const HIERARCHY_TOL: f64 = 5e-7;
        if search_completed {
            prop_assert!(
                heur.metrics.reliability <= exact.metrics.reliability + HIERARCHY_TOL,
                "heuristic {} beat exact {}", heur.metrics.reliability, exact.metrics.reliability,
            );
            prop_assert!(
                greed.metrics.reliability <= exact.metrics.reliability + HIERARCHY_TOL,
                "greedy {} beat exact {}",
                greed.metrics.reliability, exact.metrics.reliability,
            );
        }

        // --- Feasible algorithms never violate capacity or locality. ---
        for (name, out) in [("ilp", &exact), ("heuristic", &heur), ("greedy", &greed)] {
            prop_assert!(out.augmentation.is_capacity_feasible(&inst), "{name} violated capacity");
            prop_assert!(out.augmentation.respects_locality(&inst), "{name} violated locality");
            prop_assert!(out.metrics.max_violation_ratio <= 1.0 + 1e-9);
        }

        // --- Randomized rounding: locality always; the 2x capacity bound
        // whenever Theorem 5.2's premise holds. ---
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5eed);
        let rand_out = randomized::solve(&inst, &Default::default(), &mut rng).expect("lp");
        prop_assert!(rand_out.augmentation.respects_locality(&inst));
        if theory::capacity_premise(&inst, num_nodes) {
            prop_assert!(
                rand_out.metrics.max_violation_ratio <= 2.0 + 1e-9,
                "premise holds but violation ratio is {}",
                rand_out.metrics.max_violation_ratio,
            );
        }

        // --- Reported reliability is reproducible from placements. ---
        assert_metrics_reproducible("ilp", &inst, &exact);
        assert_metrics_reproducible("heuristic", &inst, &heur);
        assert_metrics_reproducible("greedy", &inst, &greed);
        assert_metrics_reproducible("randomized", &inst, &rand_out);

        // Augmentation never loses reliability relative to bare primaries.
        let base = inst.base_reliability();
        for out in [&exact, &heur, &greed, &rand_out] {
            prop_assert!(out.metrics.reliability >= base - 1e-12);
        }
    }
}

/// heuristic >= greedy holds in aggregate, not per instance: Algorithm 2's
/// per-round matching can occasionally commit capacity to placements the
/// greedy avoids (observed worst case: greedy ahead by ~6e-6 on ~1 in 100
/// instances). The differential claim worth pinning is that the heuristic
/// wins or ties almost always and never loses badly. The vendored proptest
/// RNG is deterministic, so these 200 instances — and hence the exact
/// counts — are stable across runs.
#[test]
fn heuristic_dominates_greedy_in_aggregate() {
    use proptest::test_runner::TestRng;
    let mut rng = TestRng::deterministic("differential_oracle::heuristic_vs_greedy");
    let strat = ((12usize..=32, 2usize..=5), 0.25f64..=1.0, 0u64..1_000_000);
    let mut greedy_wins = 0usize;
    let mut worst_gap = 0.0f64;
    const CASES: usize = 200;
    for _ in 0..CASES {
        let ((nodes, sfc_len), residual_fraction, seed) = Strategy::generate(&strat, &mut rng);
        let (inst, _) = small_instance(nodes, sfc_len, residual_fraction, 0.99, seed);
        let heur = heuristic::solve(&inst, &HeuristicConfig::with_stop(StopRule::Exhaust));
        let greed = greedy::solve(&inst, &Default::default());
        let gap = greed.metrics.reliability - heur.metrics.reliability;
        if gap > 1e-9 {
            greedy_wins += 1;
            worst_gap = worst_gap.max(gap);
        }
    }
    assert!(
        greedy_wins <= CASES / 20,
        "greedy beat the heuristic on {greedy_wins}/{CASES} instances (tolerated: 5%)"
    );
    assert!(
        worst_gap <= 1e-3,
        "greedy beat the heuristic by {worst_gap} — aggregate dominance broken"
    );
}
