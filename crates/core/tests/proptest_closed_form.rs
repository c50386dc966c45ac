//! The exact solver's closed form for one-function components against
//! branch and bound on the same aggregated model.
//!
//! A one-function instance is one component, which `ilp::solve_in` solves in
//! closed form: `T* = min(cap_i, Σ_b ⌊r_b/d_i⌋)` secondaries, each placed on
//! the bin with the most room left. `milp::solve_milp` on
//! `AggModel::rebuild` of the same instance is the oracle: the closed form's
//! objective must reach that of branch and bound's placement, its count must
//! be `T*`, and its
//! placement must keep every bin within capacity and every secondary on an
//! eligible bin. Instances draw `r_i` in [0.5, 0.99], 0–3 existing backups
//! and 1–6 bins whose residuals run from below `d_i` to 20·`d_i`, so bins
//! that fit nothing are common. `max_secondaries` is the instance builder's
//! `Σ_b ⌊r_b/d_i⌋` or is set above or below it by hand, and the gain floor is
//! 0 or the solvers' 1e-12, with the trim off.

use mecnet::graph::NodeId;
use mecnet::vnf::VnfTypeId;
use obs::Recorder;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relaug::ilp::{self, AggModel, IlpConfig};
use relaug::instance::{Bin, FunctionSlot};
use relaug::reliability::LadderTables;
use relaug::{Augmentation, AugmentationInstance, SolveScratch};

/// A random one-function instance and the gain floor to solve it with.
fn one_function(seed: u64) -> (AugmentationInstance, f64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let demand = rng.gen_range(1..=8u32) as f64 * 25.0;
    let n_bins = rng.gen_range(1..=6usize);
    let bins: Vec<Bin> = (0..n_bins)
        .map(|v| Bin { node: NodeId(v), residual: demand * rng.gen_range(0.3..=20.0) })
        .collect();
    // A non-empty ascending subset of the bins, as the builders give.
    let mut eligible: Vec<usize> = (0..n_bins).filter(|_| rng.gen_bool(0.8)).collect();
    if eligible.is_empty() {
        eligible.push(rng.gen_range(0..n_bins));
    }
    let fits: usize = eligible.iter().map(|&b| (bins[b].residual / demand).floor() as usize).sum();
    let max_secondaries = match rng.gen_range(0..3u32) {
        0 => fits,
        1 => fits + rng.gen_range(1..=10usize),
        _ => rng.gen_range(0..=fits),
    };
    let function = FunctionSlot {
        vnf: VnfTypeId(0),
        demand,
        reliability: rng.gen_range(0.5..=0.99),
        primary: NodeId(0),
        eligible_bins: eligible,
        max_secondaries,
        existing_backups: rng.gen_range(0..=3usize),
    };
    // An expectation of 1 keeps the primaries' early exit out of the way.
    let inst = AugmentationInstance { functions: vec![function], bins, l: 1, expectation: 1.0 };
    let gain_floor = if rng.gen_bool(0.5) { 0.0 } else { 1e-12 };
    (inst, gain_floor)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn closed_form_reaches_branch_and_bound(seeds in proptest::collection::vec(any::<u64>(), 1..=4)) {
        // One warm scratch across the cases, as in a stream.
        let mut scratch = SolveScratch::new();
        let mut tables = LadderTables::default();
        for &seed in &seeds {
            let (inst, gain_floor) = one_function(seed);
            let cfg = IlpConfig { gain_floor, stop_at_expectation: false, ..IlpConfig::default() };
            let mut rec = Recorder::counters_only();
            ilp::solve_in(&inst, &cfg, &mut rec, &mut scratch).unwrap();
            prop_assert_eq!(rec.counter("ilp.closed_form"), 1, "seed {}", seed);
            prop_assert_eq!(rec.counter("ilp.nodes"), 0, "seed {}", seed);
            let sol = &scratch.sol;

            let f = &inst.functions[0];
            let fits: Vec<usize> = f
                .eligible_bins
                .iter()
                .map(|&b| (inst.bins[b].residual / f.demand).floor() as usize)
                .collect();
            let want = f.capped_slots(gain_floor).min(fits.iter().sum());
            prop_assert_eq!(sol.counts(), vec![want], "count, seed {}", seed);
            prop_assert!(sol.is_capacity_feasible(&inst), "capacity, seed {}", seed);
            prop_assert!(sol.respects_locality(&inst), "locality, seed {}", seed);
            for &(b, c) in sol.placements_of(0) {
                let at = f.eligible_bins.iter().position(|&e| e == b).unwrap();
                prop_assert!(c <= fits[at], "bin {} holds {} > {}, seed {}", b, c, fits[at], seed);
            }

            let mut agg = AggModel::default();
            agg.rebuild(&inst, gain_floor, &mut tables);
            let bnb = milp::solve_milp(&agg.model).unwrap();
            prop_assert!(bnb.is_optimal() && bnb.proven, "seed {}", seed);
            let mut searched = Augmentation::empty(1);
            for (i, b, c) in agg.extract(&bnb.x) {
                searched.add(i, b, c);
            }
            // Both integral points scored alike: at integral counts the
            // model's best `G_i` is `S_i(T)`, which `point_from_augmentation`
            // sets. Branch and bound's own `objective` is its LP value of
            // `G_i`, which the simplex's tolerances can leave a few 1e-11
            // above `S_i(T)`.
            let mut point = Vec::new();
            agg.point_from_augmentation(&inst, &searched, &mut point);
            let searched_objective = agg.model.eval_objective(&point);
            agg.point_from_augmentation(&inst, sol, &mut point);
            prop_assert!(agg.model.is_feasible(&point, 1e-9), "model point, seed {}", seed);
            let closed = agg.model.eval_objective(&point);
            prop_assert!(
                closed >= searched_objective - 1e-12,
                "closed form {} < branch and bound {}, seed {}",
                closed,
                searched_objective,
                seed
            );
        }
    }
}
