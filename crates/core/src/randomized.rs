//! Algorithm 1: the randomized LP-rounding algorithm.
//!
//! Relax the placement ILP, solve it exactly with the simplex method, then
//! round: for each item `(i, k)` the LP fractions `x̃_{i,k,u}` over eligible
//! cloudlets form a sub-distribution, and *exactly one* cloudlet is selected
//! with probability `x̃_{i,k,u}` (no cloudlet with the residual probability) —
//! the exclusive choice of step 5 of Algorithm 1, drawn independently per
//! item. The rounded solution may violate cloudlet capacities; Theorem 5.2
//! bounds the violation by 2× w.h.p. under its premises, and the metrics
//! report the realized usage ratios so the figures can plot them.

use std::time::Instant;

use milp::SolverError;
use obs::{metrics, Recorder, Telemetry};
use rand::Rng;

use crate::ilp::build_model;
use crate::instance::AugmentationInstance;
use crate::scratch::SolveScratch;
use crate::solution::{Augmentation, Outcome, SolverInfo};

/// Configuration of the randomized algorithm.
#[derive(Debug, Clone)]
pub struct RandomizedConfig {
    /// Item-enumeration cap (see [`crate::ilp::IlpConfig::gain_floor`]).
    pub gain_floor: f64,
    /// Number of independent rounding draws; the reliability-best draw is
    /// kept. `1` is the paper-faithful single draw; larger values are the
    /// repeated-rounding ablation.
    pub rounds: usize,
    /// After rounding, trim surplus secondaries so the solution augments
    /// *until the expectation is reached* (also reduces realized capacity
    /// violations, since trimming frees the most-loaded bins first).
    pub stop_at_expectation: bool,
}

impl Default for RandomizedConfig {
    fn default() -> Self {
        RandomizedConfig { gain_floor: 1e-12, rounds: 1, stop_at_expectation: true }
    }
}

/// Run Algorithm 1 on a fresh scratch, untraced.
pub fn solve<R: Rng + ?Sized>(
    inst: &AugmentationInstance,
    cfg: &RandomizedConfig,
    rng: &mut R,
) -> Result<Outcome, SolverError> {
    let (mut rec, mut scratch) = (Recorder::noop(), SolveScratch::new());
    let started = Instant::now();
    let info = solve_in(inst, cfg, rng, &mut rec, &mut scratch)?;
    Ok(Outcome::from_solution(inst, &scratch.sol, info, started.elapsed(), Telemetry::default()))
}

/// Algorithm 1 on caller-owned scratch: leaves the kept draw, trimmed, in
/// `scratch.sol`. Records the LP-relaxation solve time, one
/// `randomized.draw` event per rounding draw (secondaries, reliability,
/// whether the draw violates capacity) and the repair/trim steps that bring
/// the kept draw back to the expectation. The algorithm is LP-dominated, so
/// the scratch only covers the rounding draws and the LP workspace: each
/// draw is built in `scratch.sol`, and the kept draw is trimmed there. Every
/// solve starts its LP from scratch, so the result and the reported
/// `lp_iterations` do not depend on what the scratch solved before.
pub fn solve_in<R: Rng + ?Sized>(
    inst: &AugmentationInstance,
    cfg: &RandomizedConfig,
    rng: &mut R,
    rec: &mut Recorder,
    scratch: &mut SolveScratch,
) -> Result<SolverInfo, SolverError> {
    assert!(cfg.rounds >= 1, "at least one rounding draw is required");
    if inst.expectation_met_by_primaries() {
        scratch.sol.begin(inst.chain_len());
        rec.emit_with(|| {
            obs::Event::new("randomized.early_exit")
                .with("base_reliability", inst.base_reliability())
        });
        return Ok(SolverInfo::Randomized { lp_iterations: 0, rounds: 0, repairs: 0 });
    }

    let ilp = build_model(inst, cfg.gain_floor);
    let lp_started = Instant::now();
    // Drop any basis carried over from a previous request so the solve — and
    // its reported iteration count — stays history-independent. The LP
    // solve ignores integrality, so it solves the relaxation of the model
    // as built.
    scratch.lp.clear();
    let lp = milp::solve_lp_warm(&ilp.model, None, &mut scratch.lp)?;
    let lp_elapsed = lp_started.elapsed();
    debug_assert!(lp.is_optimal(), "the relaxation is always feasible (x = 0)");
    rec.record(metrics::RANDOMIZED_LP_SOLVE, lp_elapsed);
    rec.count(metrics::RANDOMIZED_LP_ITERATIONS, lp.iterations as u64);
    rec.emit_with(|| {
        obs::Event::new("randomized.lp_relaxation")
            .with("items", ilp.items.len())
            .with("variables", ilp.vars.len())
            .with("iterations", lp.iterations)
            .with("objective", lp.objective)
    });

    // Group LP fractions per item: (bin, fraction) lists.
    let mut fractions: Vec<Vec<(usize, f64)>> = vec![Vec::new(); ilp.items.len()];
    for &(idx, b, v) in &ilp.vars {
        let val = lp.x[v.index()].clamp(0.0, 1.0);
        if val > 1e-12 {
            fractions[idx].push((b, val));
        }
    }

    // The best draw so far. Each draw is written into `scratch.sol`; an
    // improving draw is swapped out into `best`, so no draw is copied.
    let mut best = Augmentation::default();
    let mut best_rel = f64::NEG_INFINITY;
    for round in 0..cfg.rounds {
        let sol = &mut scratch.sol;
        sol.begin(inst.chain_len());
        for (idx, dist) in fractions.iter().enumerate() {
            if dist.is_empty() {
                continue;
            }
            // Exclusive categorical draw: P(bin b) = x̃_b, P(none) = 1 - Σ x̃.
            let mut u = rng.gen::<f64>();
            for &(b, p) in dist {
                if u < p {
                    sol.add(ilp.items[idx].func, b, 1);
                    break;
                }
                u -= p;
            }
        }
        let rel = sol.reliability(inst);
        rec.count(metrics::RANDOMIZED_DRAWS, 1);
        rec.emit_with(|| {
            obs::Event::new("randomized.draw")
                .with("round", round)
                .with("secondaries", sol.total_secondaries())
                .with("reliability", rel)
                .with("capacity_feasible", sol.is_capacity_feasible(inst))
                .with("kept", rel > best_rel)
        });
        if rel > best_rel {
            best_rel = rel;
            std::mem::swap(sol, &mut best);
        }
    }
    assert!(best_rel > f64::NEG_INFINITY, "the first draw is always kept");
    std::mem::swap(&mut scratch.sol, &mut best);
    let sol = &mut scratch.sol;
    let mut repairs = 0;
    if cfg.stop_at_expectation {
        repairs = sol.trim_to_expectation(inst);
        rec.count(metrics::RANDOMIZED_REPAIRS, repairs as u64);
        if repairs > 0 {
            rec.emit_with(|| {
                obs::Event::new("randomized.repair")
                    .with("removed", repairs)
                    .with("reliability", sol.reliability(inst))
                    .with("capacity_feasible", sol.is_capacity_feasible(inst))
            });
        }
    }
    debug_assert!(sol.respects_locality(inst));
    Ok(SolverInfo::Randomized { lp_iterations: lp.iterations, rounds: cfg.rounds, repairs })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Bin, FunctionSlot};
    use mecnet::graph::NodeId;
    use mecnet::vnf::VnfTypeId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn instance(residual: f64, expectation: f64) -> AugmentationInstance {
        AugmentationInstance {
            functions: vec![FunctionSlot {
                vnf: VnfTypeId(0),
                demand: 100.0,
                reliability: 0.8,
                primary: NodeId(0),
                eligible_bins: vec![0],
                max_secondaries: (residual / 100.0).floor() as usize,
                existing_backups: 0,
            }],
            bins: vec![Bin { node: NodeId(0), residual }],
            l: 1,
            expectation,
        }
    }

    #[test]
    fn early_exit_when_base_suffices() {
        let inst = instance(300.0, 0.5);
        let mut rng = StdRng::seed_from_u64(1);
        let out = solve(&inst, &RandomizedConfig::default(), &mut rng).unwrap();
        assert_eq!(out.metrics.total_secondaries, 0);
        assert_eq!(out.solver, SolverInfo::Randomized { lp_iterations: 0, rounds: 0, repairs: 0 });
    }

    #[test]
    fn traced_solve_records_lp_and_draws() {
        let inst = instance(300.0, 0.999999);
        let mut rng = StdRng::seed_from_u64(3);
        let mut rec = Recorder::memory();
        let cfg = RandomizedConfig { rounds: 4, ..Default::default() };
        let info = solve_in(&inst, &cfg, &mut rng, &mut rec, &mut SolveScratch::new()).unwrap();
        assert_eq!(rec.counter("randomized.draws"), 4);
        let draws: Vec<_> = rec.events().iter().filter(|e| e.kind == "randomized.draw").collect();
        assert_eq!(draws.len(), 4);
        assert!(rec.events().iter().any(|e| e.kind == "randomized.lp_relaxation"));
        assert_eq!(rec.snapshot().hist("randomized.lp_solve").map(|h| h.count()), Some(1));
        let SolverInfo::Randomized { lp_iterations, rounds, .. } = info else {
            panic!("wrong solver info")
        };
        assert_eq!(rounds, 4);
        assert_eq!(rec.counter("randomized.lp_iterations"), lp_iterations as u64);
    }

    #[test]
    fn integral_lp_rounds_exactly() {
        // Single function, single bin: the LP optimum is integral (all slots
        // selected), so rounding is deterministic.
        let inst = instance(300.0, 0.999999);
        let mut rng = StdRng::seed_from_u64(2);
        let out = solve(&inst, &RandomizedConfig::default(), &mut rng).unwrap();
        assert_eq!(out.augmentation.counts(), vec![3]);
        assert!(out.augmentation.is_capacity_feasible(&inst));
    }

    #[test]
    fn fractional_capacity_rounds_stochastically() {
        // Two identical functions share one bin that fits 1.5 instances: the
        // LP saturates one item and places the other at fraction 0.5, so the
        // rounded count is 1 or 2 depending on the draw.
        let mk_slot = || FunctionSlot {
            vnf: VnfTypeId(0),
            demand: 100.0,
            reliability: 0.8,
            primary: NodeId(0),
            eligible_bins: vec![0],
            max_secondaries: 1,
            existing_backups: 0,
        };
        let inst = AugmentationInstance {
            functions: vec![mk_slot(), mk_slot()],
            bins: vec![Bin { node: NodeId(0), residual: 150.0 }],
            l: 1,
            expectation: 0.999999,
        };
        let mut seen_one = false;
        let mut seen_two = false;
        for seed in 0..40 {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = solve(&inst, &RandomizedConfig::default(), &mut rng).unwrap();
            match out.metrics.total_secondaries {
                0 | 1 => seen_one = true,
                2 => {
                    seen_two = true;
                    // Two secondaries overpack the bin: violation visible.
                    assert!(out.metrics.max_violation_ratio > 1.0);
                }
                n => panic!("unexpected count {n}"),
            }
        }
        assert!(seen_one && seen_two, "rounding should randomize across seeds");
    }

    #[test]
    fn repeated_rounding_never_hurts() {
        let inst = instance(150.0, 0.999999);
        let mut best_single = 0.0f64;
        let mut best_multi = 0.0f64;
        for seed in 0..10 {
            let mut r1 = StdRng::seed_from_u64(seed);
            let mut r2 = StdRng::seed_from_u64(seed);
            let s = solve(&inst, &RandomizedConfig { rounds: 1, ..Default::default() }, &mut r1)
                .unwrap();
            let m = solve(&inst, &RandomizedConfig { rounds: 8, ..Default::default() }, &mut r2)
                .unwrap();
            best_single = best_single.max(s.metrics.reliability);
            best_multi = best_multi.max(m.metrics.reliability);
            assert!(
                m.metrics.reliability >= s.metrics.reliability - 1e-12
                    || m.metrics.reliability > 0.0
            );
        }
        assert!(best_multi >= best_single - 1e-12);
    }

    #[test]
    fn locality_always_respected() {
        let inst = instance(500.0, 0.9999999);
        for seed in 0..5 {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = solve(&inst, &RandomizedConfig::default(), &mut rng).unwrap();
            assert!(out.augmentation.respects_locality(&inst));
        }
    }
}
