//! Serializable cache-plane summary for the admission plan cache
//! (`relaug::plancache`).
//!
//! The stream engine counts cache traffic in its pipeline metrics
//! (`plancache.*` counters); this report is the aggregated, serializable view
//! that rides in `StreamObservation` and the `stream_exp` cache table:
//! hot-path increments stay relaxed atomics, aggregation happens once per run.

use serde::{Deserialize, Serialize};

/// Aggregated plan-cache counters for one stream run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlanCacheReport {
    /// Configured cache capacity (slots).
    pub capacity: u64,
    /// Plan hits: a cached plan validated against live residuals and was
    /// applied (includes the epoch-skip subset below).
    pub hits: u64,
    /// Hits that took the epoch fast path — every stamped node epoch was
    /// unchanged, so even the feasibility re-walk was skipped.
    pub epoch_skips: u64,
    /// Requests short-circuited by the reject-gate watermark (their largest
    /// per-function demand exceeded the maximum cloudlet residual).
    pub reject_hits: u64,
    /// Probes that found no usable plan and fell through to a fresh solve.
    pub misses: u64,
    /// Subset of misses where a candidate existed but failed re-validation
    /// (capacity moved, or the recomputed reliability no longer clears the
    /// incoming threshold); the stale entry was dropped.
    pub validation_failures: u64,
    /// Entries written after fresh solves (initial population + repopulation
    /// after a validation failure).
    pub insertions: u64,
    /// Insertions that displaced a live entry with a different key.
    pub evictions: u64,
}

impl PlanCacheReport {
    /// Fraction of cache-consulted requests the cache short-circuited —
    /// plan hits plus watermark rejections over all consultations.
    pub fn hit_rate(&self) -> f64 {
        let consulted = self.hits + self.reject_hits + self.misses;
        if consulted == 0 {
            0.0
        } else {
            (self.hits + self.reject_hits) as f64 / consulted as f64
        }
    }

    /// Fraction of *plan* probes (gate excluded) that hit.
    pub fn plan_hit_rate(&self) -> f64 {
        let probes = self.hits + self.misses;
        if probes == 0 {
            0.0
        } else {
            self.hits as f64 / probes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_rates_count_gate_and_plan_traffic() {
        let r = PlanCacheReport {
            capacity: 16,
            hits: 30,
            epoch_skips: 20,
            reject_hits: 50,
            misses: 20,
            validation_failures: 5,
            insertions: 20,
            evictions: 3,
        };
        assert!((r.hit_rate() - 0.8).abs() < 1e-12);
        assert!((r.plan_hit_rate() - 0.6).abs() < 1e-12);
        let empty = PlanCacheReport::default();
        assert_eq!(empty.hit_rate(), 0.0);
        assert_eq!(empty.plan_hit_rate(), 0.0);
    }

    #[test]
    fn report_round_trips_through_serde() {
        let r = PlanCacheReport { capacity: 4096, hits: 7, misses: 2, ..Default::default() };
        let json = serde_json::to_string(&r).unwrap();
        let back: PlanCacheReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
