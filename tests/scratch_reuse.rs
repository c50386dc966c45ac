//! Scratch reuse does not depend on history.
//!
//! `SolveScratch` buffers carry capacity, never state, across solves: every
//! solver clears or overwrites a buffer before reading it. This suite pins
//! that contract end to end. A few dozen instances of varied size are solved
//! three ways — each on a fresh scratch, all on one shared scratch in forward
//! order, and all on one shared scratch in reverse order — by every
//! algorithm, and the three outcomes must agree bit for bit: placements,
//! solver effort, reliability bits and cost bits.

use mec_sfc_reliability::mecnet::workload::{generate_scenario, WorkloadConfig};
use mec_sfc_reliability::milp::BnbConfig;
use mec_sfc_reliability::obs::Recorder;
use mec_sfc_reliability::relaug::ilp::IlpConfig;
use mec_sfc_reliability::relaug::stream::Algorithm;
use mec_sfc_reliability::relaug::{AugmentationInstance, Outcome, SolveScratch};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// 36 instances: 12–120 nodes, chains of 2–7 functions, scarce to ample
/// residual capacity.
fn instances() -> Vec<AugmentationInstance> {
    let mut out = Vec::new();
    for (i, nodes) in [12usize, 30, 60, 120].into_iter().enumerate() {
        for (j, len) in [2usize, 4, 7].into_iter().enumerate() {
            for (k, residual_fraction) in [0.0625, 0.25, 1.0].into_iter().enumerate() {
                let cfg = WorkloadConfig {
                    nodes,
                    sfc_len_range: (len, len),
                    residual_fraction,
                    ..Default::default()
                };
                let seed = (100 * i + 10 * j + k) as u64;
                let scenario = generate_scenario(&cfg, &mut StdRng::seed_from_u64(seed));
                out.push(AugmentationInstance::from_scenario(&scenario, 1 + (seed % 2) as u32));
            }
        }
    }
    out
}

fn solve(
    algorithm: &Algorithm,
    inst: &AugmentationInstance,
    idx: usize,
    scratch: &mut SolveScratch,
) -> Outcome {
    // Randomized rounding draws from an RNG keyed by the instance alone.
    let mut rng = StdRng::seed_from_u64(idx as u64);
    algorithm.solve_scratch(inst, &mut rng, &mut Recorder::noop(), scratch)
}

fn assert_bit_equal(label: &str, a: &Outcome, b: &Outcome) {
    assert_eq!(a.augmentation, b.augmentation, "{label}: placements differ");
    assert_eq!(a.solver, b.solver, "{label}: solver effort differs");
    assert_eq!(
        a.metrics.reliability.to_bits(),
        b.metrics.reliability.to_bits(),
        "{label}: reliability bits differ"
    );
    assert_eq!(
        a.metrics.paper_cost.to_bits(),
        b.metrics.paper_cost.to_bits(),
        "{label}: cost bits differ"
    );
}

#[test]
fn solver_output_does_not_depend_on_scratch_history() {
    let insts = instances();
    // A small node budget keeps the slowest ILP searches short.
    let ilp = IlpConfig {
        bnb: BnbConfig { max_nodes: 2_000, ..Default::default() },
        ..Default::default()
    };
    let algorithms = [
        ("ILP", Algorithm::Ilp(ilp)),
        ("Randomized", Algorithm::Randomized(Default::default())),
        ("Heuristic", Algorithm::Heuristic(Default::default())),
        ("Greedy", Algorithm::Greedy(Default::default())),
    ];
    for (name, algorithm) in &algorithms {
        let fresh: Vec<Outcome> = insts
            .iter()
            .enumerate()
            .map(|(i, inst)| solve(algorithm, inst, i, &mut SolveScratch::new()))
            .collect();

        let mut shared = SolveScratch::new();
        for (i, inst) in insts.iter().enumerate() {
            let out = solve(algorithm, inst, i, &mut shared);
            assert_bit_equal(&format!("{name} forward #{i}"), &fresh[i], &out);
        }

        let mut shared = SolveScratch::new();
        for (i, inst) in insts.iter().enumerate().rev() {
            let out = solve(algorithm, inst, i, &mut shared);
            assert_bit_equal(&format!("{name} reverse #{i}"), &fresh[i], &out);
        }
    }
}
