//! Failure-injection simulation.
//!
//! The paper's reliability formula `u_j = Π_i (1 - (1-r_i)^{m_i+1})` assumes
//! independent instance failures and perfect failover. This module closes the
//! loop empirically: it samples concrete failure scenarios — every deployed
//! instance is independently up with its function's reliability — and checks
//! whether the request survives (each chain position needs at least one live
//! instance). The Monte-Carlo survival rate must converge to the analytic
//! `u_j`, which the test suite asserts; the module also reports *which*
//! functions cause outages, something the closed form cannot show.

use rand::Rng;

use crate::instance::AugmentationInstance;
use crate::solution::Augmentation;

/// Result of a failure-injection campaign.
#[derive(Debug, Clone)]
pub struct FailureReport {
    /// Number of sampled failure scenarios.
    pub trials: usize,
    /// Fraction of scenarios in which the request survived.
    pub survival_rate: f64,
    /// Per chain position: fraction of scenarios in which that function had
    /// no live instance (its *outage* probability; the analytic value is
    /// `(1-r_i)^{existing+m_i+1}`).
    pub outage_rate: Vec<f64>,
    /// Scenarios in which two or more functions were simultaneously down.
    pub multi_fault_rate: f64,
}

impl FailureReport {
    /// Standard error of the survival estimate (binomial).
    pub fn survival_stderr(&self) -> f64 {
        let p = self.survival_rate;
        (p * (1.0 - p) / self.trials as f64).sqrt()
    }
}

/// Run `trials` failure injections against a placement.
///
/// Each deployed instance of function `i` — its primary, its
/// `existing_backups` shared instances, and the `m_i` secondaries in `aug` —
/// is up independently with probability `r_i`. A function is live if any of
/// its instances is up; the request survives if every function is live.
pub fn simulate_failures<R: Rng + ?Sized>(
    inst: &AugmentationInstance,
    aug: &Augmentation,
    trials: usize,
    rng: &mut R,
) -> FailureReport {
    assert!(trials > 0, "at least one trial");
    let counts = aug.counts();
    let instances: Vec<usize> =
        inst.functions.iter().zip(counts).map(|(f, &m)| 1 + f.existing_backups + m).collect();
    let mut survived = 0usize;
    let mut outages = vec![0usize; inst.chain_len()];
    let mut multi = 0usize;
    for _ in 0..trials {
        let mut down = 0usize;
        for (i, f) in inst.functions.iter().enumerate() {
            let live = (0..instances[i]).any(|_| rng.gen::<f64>() < f.reliability);
            if !live {
                outages[i] += 1;
                down += 1;
            }
        }
        if down == 0 {
            survived += 1;
        }
        if down >= 2 {
            multi += 1;
        }
    }
    FailureReport {
        trials,
        survival_rate: survived as f64 / trials as f64,
        outage_rate: outages.iter().map(|&o| o as f64 / trials as f64).collect(),
        multi_fault_rate: multi as f64 / trials as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Bin, FunctionSlot};
    use mecnet::graph::NodeId;
    use mecnet::vnf::VnfTypeId;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn two_fn_instance() -> AugmentationInstance {
        let slot = |r: f64| FunctionSlot {
            vnf: VnfTypeId(0),
            demand: 100.0,
            reliability: r,
            primary: NodeId(0),
            eligible_bins: vec![0],
            max_secondaries: 5,
            existing_backups: 0,
        };
        AugmentationInstance {
            functions: vec![slot(0.8), slot(0.9)],
            bins: vec![Bin { node: NodeId(0), residual: 1000.0 }],
            l: 1,
            expectation: 0.99,
        }
    }

    #[test]
    fn monte_carlo_converges_to_analytic_reliability() {
        let inst = two_fn_instance();
        let mut aug = Augmentation::empty(2);
        aug.add(0, 0, 2); // f0: R(0.8, 2) = 0.992
        aug.add(1, 0, 1); // f1: R(0.9, 1) = 0.99
        let analytic = aug.reliability(&inst);
        let mut rng = StdRng::seed_from_u64(7);
        let report = simulate_failures(&inst, &aug, 60_000, &mut rng);
        let tol = 4.0 * report.survival_stderr().max(1e-4);
        assert!(
            (report.survival_rate - analytic).abs() < tol,
            "MC {} vs analytic {analytic} (tol {tol})",
            report.survival_rate
        );
    }

    #[test]
    fn outage_rates_match_per_function_formula() {
        let inst = two_fn_instance();
        let mut aug = Augmentation::empty(2);
        aug.add(0, 0, 1);
        let mut rng = StdRng::seed_from_u64(11);
        let report = simulate_failures(&inst, &aug, 80_000, &mut rng);
        // f0 with 1 secondary: outage (0.2)^2 = 0.04; f1 bare: 0.1.
        assert!((report.outage_rate[0] - 0.04).abs() < 0.005);
        assert!((report.outage_rate[1] - 0.10).abs() < 0.006);
        // Independence: multi-fault ≈ product.
        assert!((report.multi_fault_rate - 0.004).abs() < 0.002);
    }

    #[test]
    fn existing_backups_count_as_instances() {
        let mut inst = two_fn_instance();
        inst.functions[0].existing_backups = 2;
        let aug = Augmentation::empty(2);
        let mut rng = StdRng::seed_from_u64(13);
        let report = simulate_failures(&inst, &aug, 60_000, &mut rng);
        // f0 has 3 instances: outage 0.2^3 = 0.008.
        assert!((report.outage_rate[0] - 0.008).abs() < 0.003);
    }

    #[test]
    fn no_backups_means_base_survival() {
        let inst = two_fn_instance();
        let aug = Augmentation::empty(2);
        let mut rng = StdRng::seed_from_u64(17);
        let report = simulate_failures(&inst, &aug, 60_000, &mut rng);
        let base = inst.base_reliability(); // 0.72
        assert!((report.survival_rate - base).abs() < 0.01);
        assert!(report.survival_stderr() < 0.003);
    }

    #[test]
    fn perfect_reliability_never_fails() {
        let mut inst = two_fn_instance();
        inst.functions[0].reliability = 1.0;
        inst.functions[1].reliability = 1.0;
        let aug = Augmentation::empty(2);
        let mut rng = StdRng::seed_from_u64(19);
        let report = simulate_failures(&inst, &aug, 1_000, &mut rng);
        assert_eq!(report.survival_rate, 1.0);
        assert!(report.outage_rate.iter().all(|&o| o == 0.0));
        assert_eq!(report.multi_fault_rate, 0.0);
    }
}
