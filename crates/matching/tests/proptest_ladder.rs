//! Exactness of the class-aggregated ladder matcher.
//!
//! Random rounds — per-function ascending cost ladders over usable-bin
//! lists — are solved by `LadderMatcher` and by the successive-shortest-path
//! reference `min_cost_max_matching` on the expanded edge list (every item
//! joined to every usable bin of its function). The two must agree on
//! cardinality and, up to summation order, on cost; the ladder matching must
//! be a matching over usable bins whose items form a prefix of each ladder,
//! emitted in hand-out order (ascending item index).
//! The generator repeats functions verbatim (so costs tie across functions),
//! quantizes costs (ties between unrelated ladders), leaves some bins usable
//! by nobody, gives some functions no items, and runs chains longer than 64
//! functions.

use matching::{min_cost_max_matching, LadderMatcher, Matching};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One round: per function its usable bins and its ladder, plus the bins'
/// residuals.
#[derive(Debug, Clone)]
struct Round {
    funcs: Vec<(Vec<usize>, Vec<f64>)>,
    residual: Vec<f64>,
}

fn round(seed: u64, n_funcs: usize, n_bins: usize) -> Round {
    let mut rng = StdRng::seed_from_u64(seed);
    let dead: Vec<bool> = (0..n_bins).map(|_| rng.gen_bool(0.15)).collect();
    let density = rng.gen_range(0.1..0.9);
    let mut funcs: Vec<(Vec<usize>, Vec<f64>)> = Vec::with_capacity(n_funcs);
    for j in 0..n_funcs {
        if j > 0 && rng.gen_bool(0.2) {
            let twin = funcs[rng.gen_range(0..j)].clone();
            funcs.push(twin);
            continue;
        }
        let bins: Vec<usize> = (0..n_bins).filter(|&b| !dead[b] && rng.gen_bool(density)).collect();
        let len = if rng.gen_bool(0.15) { 0 } else { rng.gen_range(1..=6usize) };
        let mut cost = (rng.gen_range(0..16u32) as f64) * 0.25;
        let mut ladder = Vec::with_capacity(len);
        for _ in 0..len {
            ladder.push(cost);
            cost += (rng.gen_range(0..6u32) as f64) * 0.25;
        }
        funcs.push((bins, ladder));
    }
    let residual = (0..n_bins).map(|_| rng.gen_range(0..4u32) as f64 * 100.0).collect();
    Round { funcs, residual }
}

fn solve(m: &mut LadderMatcher, r: &Round) -> Matching {
    m.begin_round();
    for (bins, ladder) in &r.funcs {
        assert_eq!(m.push_bins(bins.iter().copied()), bins.len());
        for &c in ladder {
            m.push_cost(c);
        }
    }
    let mut out = Matching { pairs: Vec::new(), cost: 0.0 };
    m.solve_into(&r.residual, &mut out);
    out
}

/// Solve with `m` and check the result against the SSP reference.
fn check(m: &mut LadderMatcher, r: &Round) -> Matching {
    let got = solve(m, r);
    let mut edges = Vec::new();
    let mut owner = Vec::new();
    let mut first_item = Vec::new();
    for (j, (bins, ladder)) in r.funcs.iter().enumerate() {
        first_item.push(owner.len());
        for &c in ladder {
            for &b in bins {
                edges.push((b, owner.len(), c));
            }
            owner.push(j);
        }
    }
    let reference = min_cost_max_matching(r.residual.len(), owner.len(), &edges);
    assert_eq!(got.cardinality(), reference.cardinality(), "cardinality on {r:?}");
    let tol = 1e-9 * reference.cost.abs().max(1.0);
    assert!(
        (got.cost - reference.cost).abs() <= tol,
        "cost {} vs reference {} on {r:?}",
        got.cost,
        reference.cost
    );
    // Hand-out order: functions in push order, each in ladder order.
    assert!(got.pairs.windows(2).all(|w| w[0].1 < w[1].1), "items out of order on {r:?}");
    let mut bin_used = vec![false; r.residual.len()];
    let mut matched = vec![0usize; r.funcs.len()];
    let mut item_used = vec![false; owner.len()];
    for &(b, item) in &got.pairs {
        let j = owner[item];
        assert!(r.funcs[j].0.contains(&b), "item {item} on bin {b}, not usable by {j}");
        assert!(!bin_used[b], "bin {b} used twice");
        assert!(!item_used[item], "item {item} matched twice");
        bin_used[b] = true;
        item_used[item] = true;
        matched[j] += 1;
    }
    for (j, &n) in matched.iter().enumerate() {
        let prefix = first_item[j]..first_item[j] + n;
        assert!(prefix.clone().all(|i| item_used[i]), "function {j}: items not a prefix");
    }
    got
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn ladder_matches_ssp_reference(seed in any::<u64>(), n_funcs in 1usize..=8, n_bins in 1usize..=10) {
        check(&mut LadderMatcher::new(), &round(seed, n_funcs, n_bins));
    }

    #[test]
    fn warm_matcher_is_history_free(seeds in proptest::collection::vec(any::<u64>(), 2..=6)) {
        // One matcher across a sequence of differently-shaped rounds gives
        // exactly what a fresh matcher gives on each.
        let mut warm = LadderMatcher::new();
        for (t, &seed) in seeds.iter().enumerate() {
            let r = round(seed, 1 + t % 7, 1 + (seed % 12) as usize);
            let got = check(&mut warm, &r);
            let fresh = solve(&mut LadderMatcher::new(), &r);
            prop_assert_eq!(&got.pairs, &fresh.pairs);
            prop_assert_eq!(got.cost.to_bits(), fresh.cost.to_bits());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn ladder_matches_ssp_reference_on_long_chains(seed in any::<u64>(), n_funcs in 65usize..=90, n_bins in 8usize..=40) {
        let mut m = LadderMatcher::new();
        check(&mut m, &round(seed, n_funcs, n_bins));
        prop_assert!(m.classes() <= n_bins);
    }
}
