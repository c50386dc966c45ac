//! Pluggable repair policies: what the operator does when instances fail.
//!
//! The intrinsic failure/repair clocks of [`crate::process`] model the
//! *platform* — an instance that crashes is rebooted after ~MTTR regardless
//! of policy, which is exactly what makes each instance's availability `r_i`.
//! A [`RepairPolicy`] is the *orchestration* layer on top: it may place
//! additional secondaries (by re-running any augmentation algorithm on the
//! current residual capacity) when a request degrades, lifting availability
//! beyond what the static placement provides.

/// A policy's read-only view of one degraded (or healthy) request.
#[derive(Debug, Clone, Copy)]
pub struct RequestView<'a> {
    pub id: usize,
    /// Reliability expectation `ρ_j`.
    pub expectation: f64,
    /// Per chain position: instance reliability `r_i`.
    pub reliabilities: &'a [f64],
    /// Per chain position: instances currently **up**.
    pub live: &'a [usize],
}

impl RequestView<'_> {
    /// Analytic chain reliability over a set of per-position instance
    /// counts: `Π_i (1 − (1 − r_i)^{n_i})`; zero if any position has none.
    fn chain_reliability(&self, counts: &[usize]) -> f64 {
        self.reliabilities
            .iter()
            .zip(counts)
            .map(|(&r, &n)| 1.0 - (1.0 - r).powi(n as i32))
            .product()
    }

    /// `u_j` counting only instances that are up right now — the quantity a
    /// failure dents and a repair restores.
    pub fn live_reliability(&self) -> f64 {
        self.chain_reliability(self.live)
    }

    /// Whether some chain position has no live instance (the request is in
    /// outage right now).
    pub fn has_dead_function(&self) -> bool {
        self.live.contains(&0)
    }
}

/// When and for which requests the simulator re-runs augmentation.
pub trait RepairPolicy: std::fmt::Debug {
    fn name(&self) -> &'static str;

    /// Audit period; `Some` schedules recurring `AuditTick` events.
    fn audit_interval(&self) -> Option<f64> {
        None
    }

    /// Called right after an instance failure hits `req`: return `true` to
    /// re-augment the request immediately.
    fn repair_on_failure(&self, req: &RequestView) -> bool {
        let _ = req;
        false
    }

    /// Called for every active request at each audit tick: return `true` to
    /// re-augment it.
    fn repair_on_audit(&self, req: &RequestView) -> bool {
        let _ = req;
        false
    }
}

/// Baseline: never re-augment. Availability is whatever the initial
/// placement plus the intrinsic failure/repair cycles deliver — the regime
/// whose long-run availability equals the analytic `u_j`.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoRepair;

impl RepairPolicy for NoRepair {
    fn name(&self) -> &'static str {
        "none"
    }
}

/// On every failure, re-augment the affected request if the failure left a
/// chain position with no live instance or dropped the live analytic `u_j`
/// below the expectation `ρ_j`.
#[derive(Debug, Clone, Copy, Default)]
pub struct Reactive;

impl RepairPolicy for Reactive {
    fn name(&self) -> &'static str {
        "reactive"
    }

    fn repair_on_failure(&self, req: &RequestView) -> bool {
        req.has_dead_function() || req.live_reliability() < req.expectation
    }
}

/// Sweep all active requests every `interval` time units and re-augment the
/// degraded ones (live `u_j` below `ρ_j`). Cheaper than [`Reactive`] — no
/// solver call in the failure path — at the price of up to one interval of
/// exposure.
#[derive(Debug, Clone, Copy)]
pub struct PeriodicAudit {
    pub interval: f64,
}

impl PeriodicAudit {
    pub fn new(interval: f64) -> PeriodicAudit {
        assert!(interval > 0.0 && interval.is_finite(), "audit interval must be positive");
        PeriodicAudit { interval }
    }
}

impl RepairPolicy for PeriodicAudit {
    fn name(&self) -> &'static str {
        "audit"
    }

    fn audit_interval(&self) -> Option<f64> {
        Some(self.interval)
    }

    fn repair_on_audit(&self, req: &RequestView) -> bool {
        req.has_dead_function() || req.live_reliability() < req.expectation
    }
}

/// Build a policy from its CLI name (`none` | `reactive` | `audit`).
pub fn from_name(name: &str, audit_interval: f64) -> Result<Box<dyn RepairPolicy>, String> {
    match name {
        "none" | "norepair" => Ok(Box::new(NoRepair)),
        "reactive" => Ok(Box::new(Reactive)),
        "audit" | "periodic" => Ok(Box::new(PeriodicAudit::new(audit_interval))),
        other => Err(format!("unknown repair policy {other:?} (none|reactive|audit)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view<'a>(live: &'a [usize], rel: &'a [f64]) -> RequestView<'a> {
        RequestView { id: 0, expectation: 0.99, reliabilities: rel, live }
    }

    #[test]
    fn live_reliability_counts_up_instances() {
        let rel = [0.8, 0.9];
        let v = view(&[2, 1], &rel);
        // f0: 1 - 0.2^2 = 0.96; f1: 0.9.
        assert!((v.live_reliability() - 0.96 * 0.9).abs() < 1e-12);
        assert!(!v.has_dead_function());
    }

    #[test]
    fn dead_function_zeroes_reliability() {
        let rel = [0.8, 0.9];
        let v = view(&[0, 3], &rel);
        assert!(v.has_dead_function());
        assert_eq!(v.live_reliability(), 0.0);
    }

    #[test]
    fn reactive_triggers_below_expectation() {
        let rel = [0.8, 0.9];
        // Healthy: plenty of redundancy, no trigger.
        let healthy = view(&[4, 3], &rel);
        assert!(healthy.live_reliability() >= 0.99);
        assert!(!Reactive.repair_on_failure(&healthy));
        // Degraded: a failure took f1 to one live instance.
        let degraded = view(&[4, 1], &rel);
        assert!(Reactive.repair_on_failure(&degraded));
        // NoRepair never triggers.
        assert!(!NoRepair.repair_on_failure(&degraded));
        assert!(NoRepair.audit_interval().is_none());
    }

    #[test]
    fn audit_policy_has_interval_and_same_predicate() {
        let p = PeriodicAudit::new(5.0);
        assert_eq!(p.audit_interval(), Some(5.0));
        let rel = [0.8];
        let degraded = view(&[1], &rel);
        assert!(p.repair_on_audit(&degraded));
        assert!(!p.repair_on_failure(&degraded), "audit policy stays out of the failure path");
    }

    #[test]
    fn from_name_parses_all_policies() {
        assert_eq!(from_name("none", 1.0).unwrap().name(), "none");
        assert_eq!(from_name("reactive", 1.0).unwrap().name(), "reactive");
        assert_eq!(from_name("audit", 2.0).unwrap().name(), "audit");
        assert!(from_name("bogus", 1.0).is_err());
    }
}
