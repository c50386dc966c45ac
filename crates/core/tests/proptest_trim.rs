//! Count-first trim of a one-round solution against the reference trim.
//!
//! A one-round solution is what one unit matching round commits: every bin
//! holds at most one secondary, of one function, and each function's entries
//! arrive in row order. `Augmentation::commit_one_round_trimmed` must leave
//! exactly what adding the same placements one by one and calling
//! `Augmentation::trim_to_expectation` leaves: the same rows (entry order
//! included), the same counts and the same removed count. Residuals are drawn
//! from two or three values, so that load/residual ties inside a function —
//! where only the `swap_remove` order decides which bin goes — are the common
//! case. Chains run 1–8 functions with 0–2 existing backups each, and the
//! expectation sits up to 10% below the solution's reliability or equals the
//! reliability of a smaller solution.

use mecnet::graph::NodeId;
use mecnet::vnf::VnfTypeId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use relaug::instance::{Bin, FunctionSlot};
use relaug::reliability::LadderTables;
use relaug::solution::rel_from_counts;
use relaug::{Augmentation, AugmentationInstance};

/// A random one-round solution: the instance and its placements `(func,
/// bin)`, grouped by function.
fn one_round(seed: u64) -> (AugmentationInstance, Vec<(usize, usize)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let values: Vec<f64> =
        (0..rng.gen_range(2..=3usize)).map(|_| rng.gen_range(2..=8u32) as f64 * 125.0).collect();
    let n_bins = rng.gen_range(1..=48usize);
    let bins: Vec<Bin> = (0..n_bins)
        .map(|v| Bin { node: NodeId(v), residual: values[rng.gen_range(0..values.len())] })
        .collect();
    let mut free: Vec<usize> = (0..n_bins).collect();
    free.shuffle(&mut rng);
    let chain = rng.gen_range(1..=8usize);
    let mut functions = Vec::new();
    let mut placements = Vec::new();
    for i in 0..chain {
        let take = rng.gen_range(0..=free.len().min(16));
        let mine: Vec<usize> = free.drain(..take).collect();
        placements.extend(mine.iter().map(|&b| (i, b)));
        functions.push(FunctionSlot {
            vnf: VnfTypeId(i),
            demand: rng.gen_range(1..=4u32) as f64 * 50.0,
            reliability: rng.gen_range(0.5..0.99),
            primary: NodeId(0),
            eligible_bins: mine,
            max_secondaries: 16,
            existing_backups: rng.gen_range(0..=2usize),
        });
    }
    let mut inst = AugmentationInstance { functions, bins, l: 1, expectation: 0.0 };
    let mut full = Augmentation::empty(chain);
    for &(i, b) in &placements {
        full.add(i, b, 1);
    }
    inst.expectation = if rng.gen_bool(0.5) {
        full.reliability(&inst) * rng.gen_range(0.9..=1.0)
    } else {
        // Exactly the reliability of a smaller solution, so that a removal
        // landing on the expectation (`new_rel == ρ_j`) is common too.
        let counts: Vec<usize> = full.counts().iter().map(|&m| rng.gen_range(0..=m)).collect();
        rel_from_counts(&inst, &counts)
    };
    (inst, placements)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn count_first_trim_equals_the_reference_trim(seeds in proptest::collection::vec(any::<u64>(), 1..=4)) {
        // One warm scratch and one table set across the cases, as in a
        // stream; the reference starts fresh every time.
        let mut fast = Augmentation::default();
        let mut tables = LadderTables::default();
        let mut table_of = Vec::new();
        for &seed in &seeds {
            let (inst, placements) = one_round(seed);
            let chain = inst.chain_len();
            let mut reference = Augmentation::empty(chain);
            for &(i, b) in &placements {
                reference.add(i, b, 1);
            }
            let want = reference.trim_to_expectation(&inst);

            fast.begin(chain);
            tables.resolve(inst.functions.iter().map(|f| f.reliability), &mut table_of);
            let got = fast.commit_one_round_trimmed(
                &inst,
                &mut tables,
                &table_of,
                placements.iter().copied(),
            );
            prop_assert_eq!(got, want, "removed count, seed {}", seed);
            prop_assert_eq!(fast.counts(), reference.counts(), "counts, seed {}", seed);
            prop_assert_eq!(&fast, &reference, "rows, seed {}", seed);
        }
    }
}
