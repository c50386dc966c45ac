//! A fixed set of named metrics for a single-threaded engine.
//!
//! Metric identity is an index into a `&'static` name table fixed at
//! construction, so recording is a bounds-checked array index plus an add —
//! no map lookups, no allocation. Construction allocates everything up
//! front. [`MetricSet::snapshot`] copies the current values into a
//! [`MetricsSnapshot`], which diffs across window boundaries and serializes
//! as a [`MetricsReport`].

use std::time::Duration;

use expkit::Log2Histogram;
use serde::{Deserialize, Serialize};

/// Counters and log2 histograms addressed by the indices of the name tables
/// the set was built with.
#[derive(Debug)]
pub struct MetricSet {
    counter_names: &'static [&'static str],
    hist_names: &'static [&'static str],
    counters: Box<[u64]>,
    hists: Box<[Log2Histogram]>,
}

impl MetricSet {
    pub fn new(
        counter_names: &'static [&'static str],
        hist_names: &'static [&'static str],
    ) -> MetricSet {
        MetricSet {
            counter_names,
            hist_names,
            counters: vec![0; counter_names.len()].into(),
            hists: vec![Log2Histogram::new(); hist_names.len()].into(),
        }
    }

    #[inline]
    pub fn incr(&mut self, counter: usize) {
        self.counters[counter] += 1;
    }

    pub fn counter(&self, counter: usize) -> u64 {
        self.counters[counter]
    }

    /// Record a duration as nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&mut self, hist: usize, d: Duration) {
        self.hists[hist].record_duration(d);
    }

    /// The current values, by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counter_names
                .iter()
                .copied()
                .zip(self.counters.iter().copied())
                .collect(),
            hists: self.hist_names.iter().copied().zip(self.hists.iter().cloned()).collect(),
        }
    }
}

/// Point-in-time scalar view of a [`MetricSet`]: plain counters plus
/// mergeable histograms. Cheap to diff across window boundaries.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    pub counters: Vec<(&'static str, u64)>,
    pub hists: Vec<(&'static str, Log2Histogram)>,
}

impl MetricsSnapshot {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| *n == name).map(|(_, v)| *v).unwrap_or(0)
    }

    pub fn hist(&self, name: &str) -> Option<&Log2Histogram> {
        self.hists.iter().find(|(n, _)| *n == name).map(|(_, h)| h)
    }

    /// Per-metric difference against an `earlier` snapshot of the same
    /// metrics (window deltas over monotone counters/histograms).
    pub fn diff(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: self
                .counters
                .iter()
                .map(|&(n, v)| (n, v.saturating_sub(earlier.counter(n))))
                .collect(),
            hists: self
                .hists
                .iter()
                .map(|(n, h)| (*n, earlier.hist(n).map(|e| h.diff(e)).unwrap_or_else(|| h.clone())))
                .collect(),
        }
    }

    /// Serializable summary (counter values plus per-histogram quantile
    /// rows) for JSON artifacts.
    pub fn report(&self) -> MetricsReport {
        MetricsReport {
            counters: self.counters.iter().map(|&(n, v)| (n.to_string(), v)).collect(),
            histograms: self
                .hists
                .iter()
                .map(|(n, h)| HistogramReport {
                    name: n.to_string(),
                    count: h.count(),
                    sum: h.sum(),
                    mean: h.mean(),
                    p50: h.quantile(0.50).unwrap_or(0),
                    p90: h.quantile(0.90).unwrap_or(0),
                    p99: h.quantile(0.99).unwrap_or(0),
                    max_bound: h.max_bound().unwrap_or(0),
                })
                .collect(),
        }
    }
}

/// JSON-friendly form of a [`MetricsSnapshot`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsReport {
    pub counters: Vec<(String, u64)>,
    pub histograms: Vec<HistogramReport>,
}

/// One histogram's scalar summary inside a [`MetricsReport`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramReport {
    pub name: String,
    pub count: u64,
    pub sum: u64,
    pub mean: f64,
    pub p50: u64,
    pub p90: u64,
    pub p99: u64,
    pub max_bound: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    const COUNTERS: &[&str] = &["requests", "admitted"];
    const HISTS: &[&str] = &["solve_ns"];

    #[test]
    fn snapshot_reads_by_name() {
        let mut m = MetricSet::new(COUNTERS, HISTS);
        m.incr(0);
        m.incr(0);
        m.incr(1);
        m.record_duration(0, Duration::from_nanos(100));
        m.record_duration(0, Duration::from_nanos(900));
        assert_eq!(m.counter(0), 2);
        let snap = m.snapshot();
        assert_eq!(snap.counter("requests"), 2);
        assert_eq!(snap.counter("admitted"), 1);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.hist("solve_ns").unwrap().count(), 2);
        assert_eq!(snap.hist("solve_ns").unwrap().sum(), 1000);
        assert!(snap.hist("missing").is_none());
    }

    #[test]
    fn snapshot_diff_is_window_delta() {
        let mut m = MetricSet::new(COUNTERS, HISTS);
        m.incr(0);
        m.record_duration(0, Duration::from_nanos(10));
        let base = m.snapshot();
        m.incr(0);
        m.incr(0);
        m.record_duration(0, Duration::from_nanos(1000));
        let delta = m.snapshot().diff(&base);
        assert_eq!(delta.counter("requests"), 2);
        assert_eq!(delta.hist("solve_ns").unwrap().count(), 1);
        assert_eq!(delta.hist("solve_ns").unwrap().sum(), 1000);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut m = MetricSet::new(COUNTERS, HISTS);
        m.incr(0);
        m.record_duration(0, Duration::from_micros(3));
        let report = m.snapshot().report();
        let json = serde_json::to_string(&report).unwrap();
        let back: MetricsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.histograms[0].count, 1);
        assert!(back.histograms[0].p99 >= 3000);
    }
}
