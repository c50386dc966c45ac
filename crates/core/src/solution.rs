//! Solution containers and the metrics the paper's figures report.

use std::time::Duration;

use crate::instance::AugmentationInstance;
use crate::reliability;
use crate::scratch::SolutionScratch;

/// A secondary-instance placement: for each chain position, how many
/// secondaries were placed on which bins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Augmentation {
    /// `placements[i]` lists `(bin index, count)` pairs for function `i`,
    /// at most one entry per bin.
    placements: Vec<Vec<(usize, usize)>>,
}

impl Augmentation {
    /// No secondaries for a chain of `n` functions.
    pub fn empty(n: usize) -> Self {
        Augmentation { placements: vec![Vec::new(); n] }
    }

    /// Record `count` more secondaries of function `func` on bin `bin`.
    pub fn add(&mut self, func: usize, bin: usize, count: usize) {
        if count == 0 {
            return;
        }
        let row = &mut self.placements[func];
        match row.iter_mut().find(|(b, _)| *b == bin) {
            Some((_, c)) => *c += count,
            None => row.push((bin, count)),
        }
    }

    pub fn chain_len(&self) -> usize {
        self.placements.len()
    }

    /// `(bin, count)` pairs for one function.
    pub fn placements_of(&self, func: usize) -> &[(usize, usize)] {
        &self.placements[func]
    }

    /// Secondary count `m_i` per function.
    pub fn counts(&self) -> Vec<usize> {
        self.placements.iter().map(|row| row.iter().map(|&(_, c)| c).sum()).collect()
    }

    pub fn total_secondaries(&self) -> usize {
        self.counts().iter().sum()
    }

    /// Achieved request reliability `u_j = Π_i R(f_i, existing_i + m_i)` —
    /// always computed from true counts, never from the linearized objective.
    pub fn reliability(&self, inst: &AugmentationInstance) -> f64 {
        let rels: Vec<f64> = inst.functions.iter().map(|f| f.reliability).collect();
        let totals: Vec<usize> = self
            .counts()
            .iter()
            .zip(&inst.functions)
            .map(|(&m, f)| m + f.existing_backups)
            .collect();
        reliability::chain_reliability(&rels, &totals)
    }

    /// Load in MHz placed on each bin.
    pub fn bin_loads(&self, inst: &AugmentationInstance) -> Vec<f64> {
        let mut loads = vec![0.0; inst.bins.len()];
        for (i, row) in self.placements.iter().enumerate() {
            let demand = inst.functions[i].demand;
            for &(b, c) in row {
                loads[b] += demand * c as f64;
            }
        }
        loads
    }

    /// Whether every bin's load fits its residual capacity (tolerance for
    /// floating-point demand sums).
    pub fn is_capacity_feasible(&self, inst: &AugmentationInstance) -> bool {
        self.bin_loads(inst).iter().zip(&inst.bins).all(|(&load, bin)| load <= bin.residual + 1e-6)
    }

    /// Whether every placement goes to a bin eligible for its function
    /// (the `l`-hop locality constraint).
    pub fn respects_locality(&self, inst: &AugmentationInstance) -> bool {
        self.placements
            .iter()
            .enumerate()
            .all(|(i, row)| row.iter().all(|&(b, _)| inst.functions[i].eligible_bins.contains(&b)))
    }

    /// Remove one secondary of `func` from `bin`; returns `false` if none is
    /// placed there.
    pub fn remove(&mut self, func: usize, bin: usize) -> bool {
        let row = &mut self.placements[func];
        if let Some(pos) = row.iter().position(|&(b, c)| b == bin && c > 0) {
            row[pos].1 -= 1;
            if row[pos].1 == 0 {
                row.swap_remove(pos);
            }
            true
        } else {
            false
        }
    }

    /// Trim surplus secondaries: while the reliability stays at or above the
    /// expectation, repeatedly drop the placed secondary with the smallest
    /// marginal log-gain (freeing the most-loaded eligible bin first). This
    /// realizes "augment *until* the expectation is reached": the result is
    /// the original solution when it never reached `ρ_j`, and a minimal-ish
    /// overshoot solution otherwise. Returns the number of removals.
    pub fn trim_to_expectation(&mut self, inst: &AugmentationInstance) -> usize {
        let mut removed = 0;
        loop {
            let counts = self.counts();
            let rel = self.reliability(inst);
            if rel < inst.expectation {
                break;
            }
            // Candidate: function whose last secondary has the smallest gain
            // and whose removal keeps the expectation satisfied.
            let mut best: Option<(f64, usize)> = None; // (gain, func)
            for (i, &m) in counts.iter().enumerate() {
                if m == 0 {
                    continue;
                }
                let r = inst.functions[i].reliability;
                let e = inst.functions[i].existing_backups;
                let gain = reliability::log_gain(r, e + m);
                let new_rel = rel / reliability::function_reliability(r, e + m)
                    * reliability::function_reliability(r, e + m - 1);
                if new_rel >= inst.expectation && best.is_none_or(|(g, _)| gain < g) {
                    best = Some((gain, i));
                }
            }
            let Some((_, func)) = best else { break };
            // Free the most-loaded bin hosting this function.
            let loads = self.bin_loads(inst);
            let bin = self.placements[func]
                .iter()
                .max_by(|&&(a, _), &&(b, _)| {
                    let ra = loads[a] / inst.bins[a].residual;
                    let rb = loads[b] / inst.bins[b].residual;
                    ra.total_cmp(&rb)
                })
                .map(|&(b, _)| b)
                .expect("function has placements");
            let ok = self.remove(func, bin);
            debug_assert!(ok);
            removed += 1;
        }
        removed
    }

    /// Total paper cost of the solution under the prefix interpretation
    /// (Lemma 6.1: the `m_i` placed items of function `i` are the `m_i`
    /// cheapest): `Σ_i Σ_{k=1..m_i} c(f_i, k, ·)`.
    pub fn paper_cost(&self, inst: &AugmentationInstance) -> f64 {
        self.counts()
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let r = inst.functions[i].reliability;
                let e = inst.functions[i].existing_backups;
                (1..=m).map(|k| reliability::paper_cost(r, e + k)).sum::<f64>()
            })
            .sum()
    }
}

/// Everything the paper's figures need from one algorithm run.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Metrics {
    /// Achieved request reliability `u_j`.
    pub reliability: f64,
    /// `Π r_i` before augmentation.
    pub base_reliability: f64,
    /// Whether `u_j >= ρ_j`.
    pub met_expectation: bool,
    pub total_secondaries: usize,
    /// Per-bin usage ratio load / residual, over bins eligible for at least
    /// one function (may exceed 1.0 for the randomized algorithm).
    pub bin_usage: Vec<f64>,
    pub avg_usage: f64,
    pub min_usage: f64,
    pub max_usage: f64,
    /// Largest usage ratio over all bins; > 1 means a capacity violation.
    pub max_violation_ratio: f64,
    /// Total paper cost `c(S)`.
    pub paper_cost: f64,
}

impl Metrics {
    pub fn compute(aug: &Augmentation, inst: &AugmentationInstance) -> Metrics {
        let loads = aug.bin_loads(inst);
        let mut eligible = vec![false; inst.bins.len()];
        for f in &inst.functions {
            for &b in &f.eligible_bins {
                eligible[b] = true;
            }
        }
        let bin_usage: Vec<f64> = loads
            .iter()
            .zip(&inst.bins)
            .zip(&eligible)
            .filter(|(_, &e)| e)
            .map(|((&load, bin), _)| load / bin.residual)
            .collect();
        let (avg, min, max) = if bin_usage.is_empty() {
            (0.0, 0.0, 0.0)
        } else {
            let sum: f64 = bin_usage.iter().sum();
            (
                sum / bin_usage.len() as f64,
                bin_usage.iter().copied().fold(f64::INFINITY, f64::min),
                bin_usage.iter().copied().fold(0.0, f64::max),
            )
        };
        let reliability = aug.reliability(inst);
        Metrics {
            reliability,
            base_reliability: inst.base_reliability(),
            met_expectation: reliability >= inst.expectation,
            total_secondaries: aug.total_secondaries(),
            max_violation_ratio: max,
            bin_usage,
            avg_usage: avg,
            min_usage: min,
            max_usage: max,
            paper_cost: aug.paper_cost(inst),
        }
    }
}

/// Per-algorithm solver-effort summary, always populated (telemetry on or
/// off): the headline numbers `report::render` prints per algorithm.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub enum SolverInfo {
    Ilp {
        nodes: usize,
        lp_iterations: usize,
        incumbent_updates: usize,
        pruned_bound: usize,
        pruned_infeasible: usize,
    },
    Randomized {
        lp_iterations: usize,
        rounds: usize,
        /// Secondaries removed while repairing overshoot / trimming to the
        /// expectation after the best draw was selected.
        repairs: usize,
    },
    Heuristic {
        matching_rounds: usize,
    },
    Greedy {
        steps: usize,
    },
}

/// The result of running one augmentation algorithm on one instance.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub augmentation: Augmentation,
    pub metrics: Metrics,
    pub runtime: Duration,
    pub solver: SolverInfo,
    /// Counter/timing summary from the telemetry recorder the solve ran
    /// under; empty (`Telemetry::default()`) for untraced entry points.
    pub telemetry: obs::Telemetry,
}

impl Outcome {
    /// The outcome of a solve that left its solution in `sol`: the owned
    /// augmentation (entry order included) and its metrics.
    pub fn from_solution(
        inst: &AugmentationInstance,
        sol: &SolutionScratch,
        solver: SolverInfo,
        runtime: Duration,
        telemetry: obs::Telemetry,
    ) -> Outcome {
        let augmentation = sol.materialize();
        let metrics = Metrics::compute(&augmentation, inst);
        Outcome { augmentation, metrics, runtime, solver, telemetry }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{AugmentationInstance, Bin, FunctionSlot};
    use mecnet::graph::NodeId;
    use mecnet::vnf::VnfTypeId;

    /// Two functions, two bins, hand-built.
    fn tiny_instance() -> AugmentationInstance {
        AugmentationInstance {
            functions: vec![
                FunctionSlot {
                    vnf: VnfTypeId(0),
                    demand: 100.0,
                    reliability: 0.8,
                    primary: NodeId(0),
                    eligible_bins: vec![0, 1],
                    max_secondaries: 5,
                    existing_backups: 0,
                },
                FunctionSlot {
                    vnf: VnfTypeId(1),
                    demand: 200.0,
                    reliability: 0.9,
                    primary: NodeId(1),
                    eligible_bins: vec![1],
                    max_secondaries: 2,
                    existing_backups: 0,
                },
            ],
            bins: vec![
                Bin { node: NodeId(0), residual: 300.0 },
                Bin { node: NodeId(1), residual: 400.0 },
            ],
            l: 1,
            expectation: 0.99,
        }
    }

    #[test]
    fn add_merges_per_bin() {
        let mut aug = Augmentation::empty(2);
        aug.add(0, 0, 1);
        aug.add(0, 0, 2);
        aug.add(0, 1, 1);
        aug.add(1, 1, 0); // no-op
        assert_eq!(aug.placements_of(0), &[(0, 3), (1, 1)]);
        assert_eq!(aug.counts(), vec![4, 0]);
        assert_eq!(aug.total_secondaries(), 4);
    }

    #[test]
    fn reliability_from_counts() {
        let inst = tiny_instance();
        let mut aug = Augmentation::empty(2);
        assert!((aug.reliability(&inst) - 0.72).abs() < 1e-12);
        aug.add(0, 0, 1); // f0: R = 0.96
        aug.add(1, 1, 1); // f1: R = 0.99
        assert!((aug.reliability(&inst) - 0.96 * 0.99).abs() < 1e-12);
    }

    #[test]
    fn loads_and_feasibility() {
        let inst = tiny_instance();
        let mut aug = Augmentation::empty(2);
        aug.add(0, 0, 3); // 300 MHz on bin 0 — exactly fits
        aug.add(1, 1, 2); // 400 MHz on bin 1 — exactly fits
        assert_eq!(aug.bin_loads(&inst), vec![300.0, 400.0]);
        assert!(aug.is_capacity_feasible(&inst));
        aug.add(0, 1, 1); // 100 more on bin 1: 500 > 400
        assert!(!aug.is_capacity_feasible(&inst));
    }

    #[test]
    fn locality_check() {
        let inst = tiny_instance();
        let mut aug = Augmentation::empty(2);
        aug.add(1, 1, 1);
        assert!(aug.respects_locality(&inst));
        aug.add(1, 0, 1); // bin 0 is not eligible for f1
        assert!(!aug.respects_locality(&inst));
    }

    #[test]
    fn paper_cost_prefix_sum() {
        let inst = tiny_instance();
        let mut aug = Augmentation::empty(2);
        aug.add(0, 0, 2);
        let expect =
            crate::reliability::paper_cost(0.8, 1) + crate::reliability::paper_cost(0.8, 2);
        assert!((aug.paper_cost(&inst) - expect).abs() < 1e-12);
    }

    #[test]
    fn metrics_usage_ratios() {
        let inst = tiny_instance();
        let mut aug = Augmentation::empty(2);
        aug.add(0, 0, 3); // bin0: 300/300 = 1.0
        aug.add(1, 1, 1); // bin1: 200/400 = 0.5
        let m = Metrics::compute(&aug, &inst);
        assert!((m.avg_usage - 0.75).abs() < 1e-12);
        assert!((m.min_usage - 0.5).abs() < 1e-12);
        assert!((m.max_usage - 1.0).abs() < 1e-12);
        assert_eq!(m.total_secondaries, 4);
        // f0: R(0.8, 3) = 0.9984; f1: R(0.9, 1) = 0.99.
        assert!(!m.met_expectation); // 0.9984*0.99 = 0.98842 < 0.99
        assert!((m.reliability - 0.9984 * 0.99).abs() < 1e-12);
    }

    #[test]
    fn metrics_on_empty_instance() {
        let inst = AugmentationInstance {
            functions: Vec::new(),
            bins: Vec::new(),
            l: 1,
            expectation: 0.9,
        };
        let aug = Augmentation::empty(0);
        let m = Metrics::compute(&aug, &inst);
        assert_eq!(m.total_secondaries, 0);
        assert_eq!(m.avg_usage, 0.0);
        assert!((m.reliability - 1.0).abs() < 1e-12);
        assert!(m.met_expectation);
    }
}
