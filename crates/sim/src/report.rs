//! The end-of-run SLO report: time-weighted availability per request, outage
//! and repair-latency distributions, and the empirical-vs-analytic
//! availability comparison the paper's closed form predicts.
//!
//! Everything in the report derives from *simulation* time only — never the
//! wall clock — so two runs with the same seed and config serialize to
//! byte-identical JSON.

use expkit::histogram::{percentile, Histogram};
use serde::Serialize;

/// One histogram bin (lower edge, upper edge, count) — a serializable
/// snapshot of [`expkit::Histogram`].
pub type HistBin = (f64, f64, u64);

/// Per-request SLO record.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RequestSlo {
    pub id: usize,
    pub arrived_at: f64,
    pub admitted: bool,
    /// Whether the request departed before the horizon (otherwise it was
    /// still in service when the run ended and its window is truncated).
    pub departed: bool,
    /// Length of the observed service window.
    pub active_time: f64,
    /// `Π r_i` of the bare primaries at admission.
    pub base_reliability: f64,
    /// Analytic `u_j` right after the initial augmentation.
    pub analytic_reliability: f64,
    /// Reliability expectation `ρ_j`.
    pub expectation: f64,
    /// Time-weighted fraction of the service window with every chain
    /// position live.
    pub availability: f64,
    /// Whether `availability >= ρ_j`.
    pub met_slo: bool,
    pub outages: usize,
    pub outage_time: f64,
    /// Secondaries placed over the request's lifetime (initial + repairs).
    pub secondaries: usize,
    /// Re-augmentations the repair policy triggered for this request.
    pub reaugmentations: usize,
}

/// Aggregate SLO report of one simulation run.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SloReport {
    pub policy: String,
    pub algorithm: String,
    pub seed: u64,
    pub duration: f64,
    pub arrivals: usize,
    pub admitted: usize,
    pub rejected: usize,
    pub departures: usize,
    /// Instance failures (transient + permanent).
    pub failures: usize,
    pub permanent_failures: usize,
    /// Instance repairs completed.
    pub instance_repairs: usize,
    /// Policy-triggered re-augmentations.
    pub reaugmentations: usize,
    /// Secondaries placed across all requests (initial + repair).
    pub secondaries_placed: usize,
    /// Time-weighted mean availability over admitted requests
    /// (`Σ uptime / Σ active_time`).
    pub mean_availability: f64,
    /// Active-time-weighted mean of the analytic `u_j` at admission.
    pub mean_analytic: f64,
    /// Active-time-weighted mean `|availability − u_j|`.
    pub mean_abs_gap: f64,
    /// Fraction of admitted requests whose availability met `ρ_j`.
    pub slo_attainment: f64,
    pub outage_count: usize,
    pub total_outage_time: f64,
    pub outage_p50: f64,
    pub outage_p95: f64,
    /// Request-level outage duration histogram.
    pub outage_histogram: Vec<HistBin>,
    pub repair_latency_mean: f64,
    pub repair_latency_p95: f64,
    /// Instance-level down-time (repair latency) histogram.
    pub repair_latency_histogram: Vec<HistBin>,
    pub per_request: Vec<RequestSlo>,
}

impl SloReport {
    /// Assemble the aggregate view from per-request records plus the raw
    /// outage / repair-latency samples. `hist_hi` bounds both histograms
    /// (pass e.g. `5 × MTTR`).
    #[allow(clippy::too_many_arguments)]
    pub fn assemble(
        policy: String,
        algorithm: String,
        seed: u64,
        duration: f64,
        per_request: Vec<RequestSlo>,
        outage_durations: &[f64],
        repair_latencies: &[f64],
        counts: &RunCounts,
        hist_hi: f64,
    ) -> SloReport {
        let admitted: Vec<&RequestSlo> = per_request.iter().filter(|r| r.admitted).collect();
        let total_active: f64 = admitted.iter().map(|r| r.active_time).sum();
        let weighted = |f: &dyn Fn(&RequestSlo) -> f64| -> f64 {
            if total_active <= 0.0 {
                return 0.0;
            }
            admitted.iter().map(|r| f(r) * r.active_time).sum::<f64>() / total_active
        };
        let mean_availability = weighted(&|r| r.availability);
        let mean_analytic = weighted(&|r| r.analytic_reliability);
        let mean_abs_gap = weighted(&|r| (r.availability - r.analytic_reliability).abs());
        let slo_attainment = if admitted.is_empty() {
            0.0
        } else {
            admitted.iter().filter(|r| r.met_slo).count() as f64 / admitted.len() as f64
        };
        let hist = |sample: &[f64]| -> Vec<HistBin> {
            let mut h = Histogram::new(0.0, hist_hi.max(1e-9), 10);
            for &x in sample {
                h.push(x);
            }
            h.bins()
        };
        let pct = |sample: &[f64], p: f64| -> f64 {
            if sample.is_empty() {
                0.0
            } else {
                percentile(sample, p)
            }
        };
        SloReport {
            policy,
            algorithm,
            seed,
            duration,
            arrivals: per_request.len(),
            admitted: admitted.len(),
            rejected: per_request.len() - admitted.len(),
            departures: counts.departures,
            failures: counts.failures,
            permanent_failures: counts.permanent_failures,
            instance_repairs: counts.instance_repairs,
            reaugmentations: counts.reaugmentations,
            secondaries_placed: counts.secondaries_placed,
            mean_availability,
            mean_analytic,
            mean_abs_gap,
            slo_attainment,
            outage_count: outage_durations.len(),
            // An empty f64 sum is -0.0 (the IEEE additive identity), which
            // would serialize as "-0.0"; normalize to +0.0.
            total_outage_time: if outage_durations.is_empty() {
                0.0
            } else {
                outage_durations.iter().sum()
            },
            outage_p50: pct(outage_durations, 50.0),
            outage_p95: pct(outage_durations, 95.0),
            outage_histogram: hist(outage_durations),
            repair_latency_mean: if repair_latencies.is_empty() {
                0.0
            } else {
                repair_latencies.iter().sum::<f64>() / repair_latencies.len() as f64
            },
            repair_latency_p95: pct(repair_latencies, 95.0),
            repair_latency_histogram: hist(repair_latencies),
            per_request,
        }
    }

    /// Serialize to pretty JSON (deterministic for a deterministic run).
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("SloReport serializes")
    }
}

/// Raw event tallies the engine keeps: [`SloReport::assemble`] reads them
/// at the end of a run, and each `sim.window` summary carries their delta
/// against the copy taken at the window's start.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunCounts {
    pub arrivals: usize,
    pub admitted: usize,
    pub rejected: usize,
    pub departures: usize,
    pub failures: usize,
    pub permanent_failures: usize,
    pub instance_repairs: usize,
    pub reaugmentations: usize,
    pub secondaries_placed: usize,
    /// Policy audit ticks.
    pub audits: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: usize, admitted: bool, avail: f64, analytic: f64, active: f64) -> RequestSlo {
        RequestSlo {
            id,
            arrived_at: id as f64,
            admitted,
            departed: true,
            active_time: active,
            base_reliability: 0.7,
            analytic_reliability: analytic,
            expectation: 0.99,
            availability: avail,
            met_slo: avail >= 0.99,
            outages: 1,
            outage_time: (1.0 - avail) * active,
            secondaries: 3,
            reaugmentations: 0,
        }
    }

    #[test]
    fn aggregates_are_time_weighted() {
        let per = vec![
            record(0, true, 1.0, 0.99, 10.0),
            record(1, true, 0.9, 0.99, 30.0),
            record(2, false, 0.0, 0.0, 0.0),
        ];
        let rep = SloReport::assemble(
            "none".into(),
            "Heuristic".into(),
            1,
            100.0,
            per,
            &[1.0, 3.0],
            &[0.5, 1.5],
            &RunCounts { departures: 2, failures: 4, ..Default::default() },
            5.0,
        );
        assert_eq!(rep.arrivals, 3);
        assert_eq!(rep.admitted, 2);
        assert_eq!(rep.rejected, 1);
        // (1.0*10 + 0.9*30) / 40 = 0.925.
        assert!((rep.mean_availability - 0.925).abs() < 1e-12);
        assert!((rep.mean_analytic - 0.99).abs() < 1e-12);
        assert!((rep.slo_attainment - 0.5).abs() < 1e-12);
        assert_eq!(rep.outage_count, 2);
        assert!((rep.total_outage_time - 4.0).abs() < 1e-12);
        assert_eq!(rep.outage_histogram.len(), 10);
        assert!((rep.repair_latency_mean - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_run_produces_zeroed_report() {
        let rep = SloReport::assemble(
            "none".into(),
            "Heuristic".into(),
            0,
            10.0,
            Vec::new(),
            &[],
            &[],
            &RunCounts::default(),
            5.0,
        );
        assert_eq!(rep.arrivals, 0);
        assert_eq!(rep.mean_availability, 0.0);
        assert_eq!(rep.outage_p95, 0.0);
        assert_eq!(rep.slo_attainment, 0.0);
        // Positive zero, not the -0.0 an empty f64 sum yields.
        assert_eq!(rep.total_outage_time.to_bits(), 0);
    }

    #[test]
    fn json_round_trip_is_stable() {
        let per = vec![record(0, true, 0.95, 0.97, 20.0)];
        let rep = SloReport::assemble(
            "reactive".into(),
            "Greedy".into(),
            7,
            50.0,
            per,
            &[2.0],
            &[1.0],
            &RunCounts::default(),
            5.0,
        );
        assert_eq!(rep.to_json(), rep.to_json());
        assert!(rep.to_json().contains("\"policy\""));
    }
}
