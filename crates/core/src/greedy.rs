//! Greedy baseline for ablations.
//!
//! The paper compares its three algorithms against each other only; this
//! module adds the natural straw-man — repeatedly commit the single best next
//! placement — to quantify what the matching structure of Algorithm 2 buys
//! (see the `ablation_matching` bench).

use std::time::Instant;

use obs::{metrics, Recorder, Telemetry};

use crate::instance::AugmentationInstance;
use crate::reliability;
use crate::scratch::SolveScratch;
use crate::solution::{Augmentation, Outcome, SolverInfo};

/// How the next placement is scored.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum GreedyRule {
    /// Largest marginal log-gain per MHz consumed — resource-aware.
    #[default]
    GainPerResource,
    /// Largest marginal log-gain outright.
    GainOnly,
}

/// Configuration of the greedy baseline.
#[derive(Debug, Clone, Default)]
pub struct GreedyConfig {
    pub rule: GreedyRule,
}

/// Run the greedy baseline on a fresh scratch, untraced: in each step,
/// across all functions with a bin that still fits one instance, commit the
/// placement maximizing the rule's score; stop when the expectation is met
/// or nothing fits.
pub fn solve(inst: &AugmentationInstance, cfg: &GreedyConfig) -> Outcome {
    let (mut rec, mut scratch) = (Recorder::noop(), SolveScratch::new());
    let started = Instant::now();
    let info = solve_in(inst, cfg, &mut rec, &mut scratch);
    Outcome::from_solution(inst, &scratch.sol, info, started.elapsed(), Telemetry::default())
}

/// The greedy baseline on caller-owned scratch: builds the solution in
/// `scratch.sol` and returns the number of committed steps. Emits one
/// `greedy.step` event per committed placement (function, bin, score under
/// the configured rule). Allocation-free with a warm scratch; the result
/// does not depend on the prior state of `scratch`.
pub fn solve_in(
    inst: &AugmentationInstance,
    cfg: &GreedyConfig,
    rec: &mut Recorder,
    scratch: &mut SolveScratch,
) -> SolverInfo {
    let SolveScratch { sol, heur, .. } = scratch;
    let steps = fill(inst, cfg, Some(&mut *rec), sol, &mut heur.residual);
    rec.count(metrics::GREEDY_STEPS, steps as u64);
    SolverInfo::Greedy { steps }
}

/// The greedy loop of [`solve_in`] into `sol`, with `residual` as its
/// per-bin working copy, emitting its `greedy.step` events into `events`;
/// returns the committed steps. The exact solver's warm start runs it
/// without events into a buffer of its own, since `scratch.sol` holds the
/// exact solution under construction.
pub(crate) fn fill(
    inst: &AugmentationInstance,
    cfg: &GreedyConfig,
    mut events: Option<&mut Recorder>,
    sol: &mut Augmentation,
    residual: &mut Vec<f64>,
) -> usize {
    sol.begin(inst.chain_len());
    let mut steps = 0usize;
    if !inst.expectation_met_by_primaries() {
        residual.clear();
        residual.extend(inst.bins.iter().map(|b| b.residual));
        loop {
            if sol.reliability(inst) >= inst.expectation {
                break;
            }
            let counts = sol.counts();
            let mut best: Option<(f64, usize, usize)> = None; // (score, func, bin)
            for (i, f) in inst.functions.iter().enumerate() {
                if counts[i] >= f.max_secondaries {
                    continue;
                }
                let gain = reliability::log_gain(f.reliability, f.existing_backups + counts[i] + 1);
                let score = match cfg.rule {
                    GreedyRule::GainPerResource => gain / f.demand,
                    GreedyRule::GainOnly => gain,
                };
                // Cheapest eligible bin that fits; all bins cost the same for
                // a given function, so pick the one with most residual to
                // leave flexibility elsewhere.
                let bin = f
                    .eligible_bins
                    .iter()
                    .copied()
                    .filter(|&b| residual[b] >= f.demand)
                    .max_by(|&a, &b| residual[a].total_cmp(&residual[b]));
                if let Some(b) = bin {
                    if best.is_none_or(|(s, _, _)| score > s) {
                        best = Some((score, i, b));
                    }
                }
            }
            let Some((score, i, b)) = best else { break };
            residual[b] -= inst.functions[i].demand;
            sol.add(i, b, 1);
            steps += 1;
            if let Some(rec) = events.as_deref_mut() {
                rec.emit_with(|| {
                    obs::Event::new("greedy.step")
                        .with("step", steps)
                        .with("function", i)
                        .with("bin", b)
                        .with("score", score)
                });
            }
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Bin, FunctionSlot};
    use mecnet::graph::NodeId;
    use mecnet::vnf::VnfTypeId;

    fn slot(demand: f64, r: f64, eligible: Vec<usize>, max: usize) -> FunctionSlot {
        FunctionSlot {
            vnf: VnfTypeId(0),
            demand,
            reliability: r,
            primary: NodeId(0),
            eligible_bins: eligible,
            max_secondaries: max,
            existing_backups: 0,
        }
    }

    #[test]
    fn stops_at_expectation() {
        let inst = AugmentationInstance {
            functions: vec![slot(100.0, 0.8, vec![0], 5)],
            bins: vec![Bin { node: NodeId(0), residual: 600.0 }],
            l: 1,
            expectation: 0.95,
        };
        let out = solve(&inst, &GreedyConfig::default());
        assert_eq!(out.augmentation.counts(), vec![1]);
        assert!(out.metrics.met_expectation);
        assert_eq!(out.solver, SolverInfo::Greedy { steps: 1 });
    }

    #[test]
    fn prefers_weak_functions_first() {
        let inst = AugmentationInstance {
            functions: vec![slot(200.0, 0.9, vec![0], 1), slot(200.0, 0.6, vec![0], 1)],
            bins: vec![Bin { node: NodeId(0), residual: 200.0 }],
            l: 1,
            expectation: 0.99999,
        };
        let out = solve(&inst, &GreedyConfig::default());
        assert_eq!(out.augmentation.counts(), vec![0, 1]);
    }

    #[test]
    fn gain_per_resource_accounts_for_demand() {
        // f0: small gain, tiny demand; f1: bigger gain, huge demand. With one
        // 400-MHz bin, gain-per-resource picks four f0 instances (4 × 0.0953
        // = 0.38 > 0.336), gain-only picks one f1 instance first.
        let inst = AugmentationInstance {
            functions: vec![slot(100.0, 0.9, vec![0], 10), slot(400.0, 0.6, vec![0], 1)],
            bins: vec![Bin { node: NodeId(0), residual: 400.0 }],
            l: 1,
            expectation: 0.9999999999,
        };
        let per_res = solve(&inst, &GreedyConfig { rule: GreedyRule::GainPerResource });
        assert_eq!(per_res.augmentation.counts(), vec![4, 0]);
        let gain_only = solve(&inst, &GreedyConfig { rule: GreedyRule::GainOnly });
        assert_eq!(gain_only.augmentation.counts(), vec![0, 1]);
    }

    #[test]
    fn feasible_under_scarcity() {
        let inst = AugmentationInstance {
            functions: vec![slot(300.0, 0.7, vec![0, 1], 4)],
            bins: vec![
                Bin { node: NodeId(0), residual: 350.0 },
                Bin { node: NodeId(1), residual: 650.0 },
            ],
            l: 1,
            expectation: 0.999999999,
        };
        let out = solve(&inst, &GreedyConfig::default());
        assert!(out.augmentation.is_capacity_feasible(&inst));
        // 350 fits 1, 650 fits 2 -> 3 total.
        assert_eq!(out.augmentation.counts(), vec![3]);
    }
}
