//! The exact solver's fill on coupled components against branch and bound
//! on the same aggregated model.
//!
//! `ilp::solve_in` first tries to place every function of a component at its
//! target `T*_i = min(cap_i, Σ_b ⌊r_b/d_i⌋)`; when that fits the bin rows it
//! is the component's optimum and no search runs, and otherwise the
//! component goes to branch and bound as before. Instances here are one
//! component: 2–4 functions over 1–5 bins, every bin listed by some function
//! and each function sharing a bin with the one before it, so that the
//! component's sub-instance is the instance itself. Demands are multiples of
//! 25 up to 200, residuals run from below a listing function's demand to 20
//! times it, `r_i` lies in [0.5, 0.99] with 0–3 existing backups,
//! `max_secondaries` is the builder's `Σ_b ⌊r_b/d_i⌋` or set above or below
//! it by hand, and the gain floor is 0 or the solvers' 1e-12, with the trim
//! off.
//!
//! * When the fill fits (`ilp.closed_form` counts the component, no node is
//!   explored), every count is `T*_i`, capacity and locality hold, and the
//!   objective is at least that of `milp::solve_milp` on `AggModel::rebuild`
//!   minus 1e-12, both scored at their integral counts.
//! * When it does not, the placement equals the one branch and bound makes
//!   on the component's model with the greedy warm start and the demand
//!   priorities, entry order included.

use mecnet::graph::NodeId;
use mecnet::vnf::VnfTypeId;
use milp::{BnbConfig, LpWorkspace, MilpSolution};
use obs::Recorder;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relaug::greedy::{self, GreedyConfig};
use relaug::ilp::{self, AggModel, IlpConfig};
use relaug::instance::{Bin, FunctionSlot};
use relaug::reliability::LadderTables;
use relaug::{Augmentation, AugmentationInstance, SolveScratch};

/// A random coupled component and the gain floor to solve it with.
fn coupled(seed: u64) -> (AugmentationInstance, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (n_funcs, n_bins) = (rng.gen_range(2..=4usize), rng.gen_range(1..=5usize));
    let demands: Vec<f64> = (0..n_funcs).map(|_| rng.gen_range(1..=8u32) as f64 * 25.0).collect();
    let mut eligible: Vec<Vec<usize>> =
        (0..n_funcs).map(|_| (0..n_bins).filter(|_| rng.gen_bool(0.5)).collect()).collect();
    // Each function shares a bin with the one before it, and every bin is
    // listed: one component, whose bins are all the instance's.
    for i in 0..n_funcs {
        if i > 0 {
            let shared = match eligible[i - 1].as_slice() {
                [] => rng.gen_range(0..n_bins),
                prev => prev[rng.gen_range(0..prev.len())],
            };
            eligible[i].push(shared);
        } else if eligible[0].is_empty() {
            eligible[0].push(rng.gen_range(0..n_bins));
        }
    }
    for b in 0..n_bins {
        if !eligible.iter().any(|e| e.contains(&b)) {
            eligible[rng.gen_range(0..n_funcs)].push(b);
        }
    }
    for e in &mut eligible {
        e.sort_unstable();
        e.dedup();
    }
    let bins: Vec<Bin> = (0..n_bins)
        .map(|b| {
            let listing: Vec<usize> = (0..n_funcs).filter(|&i| eligible[i].contains(&b)).collect();
            let d = demands[listing[rng.gen_range(0..listing.len())]];
            Bin { node: NodeId(b), residual: d * rng.gen_range(0.3..=20.0) }
        })
        .collect();
    let functions = eligible
        .into_iter()
        .zip(&demands)
        .enumerate()
        .map(|(v, (eligible_bins, &demand))| {
            let fits: usize =
                eligible_bins.iter().map(|&b| (bins[b].residual / demand).floor() as usize).sum();
            let max_secondaries = match rng.gen_range(0..3u32) {
                0 => fits,
                1 => fits + rng.gen_range(1..=10usize),
                _ => rng.gen_range(0..=fits),
            };
            FunctionSlot {
                vnf: VnfTypeId(v),
                demand,
                reliability: rng.gen_range(0.5..=0.99),
                primary: NodeId(0),
                eligible_bins,
                max_secondaries,
                existing_backups: rng.gen_range(0..=3usize),
            }
        })
        .collect();
    // An expectation of 1 keeps the primaries' early exit out of the way.
    let inst = AugmentationInstance { functions, bins, l: 1, expectation: 1.0 };
    let gain_floor = if rng.gen_bool(0.5) { 0.0 } else { 1e-12 };
    (inst, gain_floor)
}

/// The objective of `aug` in `agg`, scored at its integral counts: at
/// integral counts the model's best `G_i` is `S_i(T_i)`, which
/// `point_from_augmentation` sets (branch and bound's own `objective` is
/// its LP value of `G_i`, which the simplex's tolerances can leave a few
/// 1e-11 above `S_i(T_i)`).
fn integral_objective(agg: &AggModel, inst: &AugmentationInstance, aug: &Augmentation) -> f64 {
    let mut point = Vec::new();
    agg.point_from_augmentation(inst, aug, &mut point);
    assert!(agg.model.is_feasible(&point, 1e-9), "an integral placement is a model point");
    agg.model.eval_objective(&point)
}

/// Solve `seed`'s component on `scratch` and check it against branch and
/// bound; returns whether the fill served it.
fn check(seed: u64, scratch: &mut SolveScratch, tables: &mut LadderTables) -> bool {
    let (inst, gain_floor) = coupled(seed);
    let cfg = IlpConfig { gain_floor, stop_at_expectation: false, ..IlpConfig::default() };
    let mut rec = Recorder::counters_only();
    ilp::solve_in(&inst, &cfg, &mut rec, scratch).unwrap();
    assert_eq!(rec.counter("ilp.components"), 1, "one component, seed {seed}");
    let fitted = rec.counter("ilp.closed_form") == 1;
    let sol = &scratch.sol;
    let n = inst.chain_len();
    let mut agg = AggModel::default();
    agg.rebuild(&inst, gain_floor, tables);
    if fitted {
        assert_eq!(rec.counter("ilp.nodes"), 0, "seed {seed}");
        for (i, f) in inst.functions.iter().enumerate() {
            let bound = |b: usize| (inst.bins[b].residual / f.demand).floor() as usize;
            let want =
                f.capped_slots(gain_floor).min(f.eligible_bins.iter().map(|&b| bound(b)).sum());
            assert_eq!(sol.counts()[i], want, "T* of f{i}, seed {seed}");
            for &(b, c) in sol.placements_of(i) {
                assert!(c <= bound(b), "f{i} holds {c} > {} on bin {b}, seed {seed}", bound(b));
            }
        }
        assert!(sol.is_capacity_feasible(&inst), "capacity, seed {seed}");
        assert!(sol.respects_locality(&inst), "locality, seed {seed}");
        let bnb = milp::solve_milp(&agg.model).unwrap();
        assert!(bnb.is_optimal() && bnb.proven, "seed {seed}");
        let mut searched = Augmentation::empty(n);
        for (i, b, c) in agg.extract(&bnb.x) {
            searched.add(i, b, c);
        }
        let (fill, search) =
            (integral_objective(&agg, &inst, sol), integral_objective(&agg, &inst, &searched));
        assert!(fill >= search - 1e-12, "fill {fill} < branch and bound {search}, seed {seed}");
    } else {
        assert_eq!(rec.counter("ilp.closed_form"), 0, "seed {seed}");
        // The branch and bound `solve_in` ran before the fill existed.
        let warm = greedy::solve(&inst, &GreedyConfig::default()).augmentation;
        let mut point = Vec::new();
        agg.point_from_augmentation(&inst, &warm, &mut point);
        let mut priority = vec![0.0; agg.model.num_vars()];
        for &(i, _, v) in &agg.n_vars {
            priority[v.index()] = inst.functions[i].demand;
        }
        let (mut lp, mut bnb) = (LpWorkspace::default(), MilpSolution::default());
        milp::solve_milp_with_ws(
            &agg.model,
            &BnbConfig::default(),
            Some(&point),
            Some(&priority),
            &mut lp,
            &mut bnb,
        )
        .unwrap();
        let mut searched = Augmentation::empty(n);
        for (i, b, c) in agg.extract(&bnb.x) {
            searched.add(i, b, c);
        }
        assert_eq!(sol, &searched, "branch-and-bound placement, seed {seed}");
    }
    fitted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn coupled_fill_is_optimal_or_leaves_branch_and_bound_unchanged(
        seeds in proptest::collection::vec(any::<u64>(), 1..=4)
    ) {
        // One warm scratch across the cases, as in a stream.
        let (mut scratch, mut tables) = (SolveScratch::new(), LadderTables::default());
        for &seed in &seeds {
            check(seed, &mut scratch, &mut tables);
        }
    }
}

#[test]
fn generator_reaches_both_outcomes() {
    let (mut scratch, mut tables) = (SolveScratch::new(), LadderTables::default());
    let fitted = (0..400).filter(|&seed| check(seed, &mut scratch, &mut tables)).count();
    assert!((40..=360).contains(&fitted), "{fitted} of 400 components fit");
}
