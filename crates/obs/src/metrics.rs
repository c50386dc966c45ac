//! The one metrics namespace and its snapshots.
//!
//! Every counter and histogram the workspace records is a slot of one static
//! namespace: [`COUNTERS`] and [`HISTS`], each sorted by name. Code records
//! through a [`Counter`] or [`Hist`] index constant, so recording is an array
//! index plus an add, with no map lookup and no allocation, and a
//! [`crate::Recorder`] keeps the values in inline arrays.
//! [`crate::Recorder::snapshot`] copies them into a [`MetricsSnapshot`], which
//! diffs across window boundaries and serializes as a [`MetricsReport`].

use expkit::Log2Histogram;
use serde::{Deserialize, Serialize};

/// A counter slot of the namespace: an index into [`COUNTERS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Counter(pub(crate) usize);

/// A histogram slot of the namespace: an index into [`HISTS`]. Histograms
/// record durations in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hist(pub(crate) usize);

impl Counter {
    pub fn name(self) -> &'static str {
        COUNTERS[self.0]
    }
}

impl Hist {
    pub fn name(self) -> &'static str {
        HISTS[self.0]
    }
}

/// The position of `name` in `table`, found at compile time; a name outside
/// the table fails the build.
const fn slot(table: &[&str], name: &str) -> usize {
    let mut i = 0;
    while i < table.len() {
        let (a, b) = (table[i].as_bytes(), name.as_bytes());
        let mut j = 0;
        while j < a.len() && j < b.len() && a[j] == b[j] {
            j += 1;
        }
        if j == a.len() && j == b.len() {
            return i;
        }
        i += 1;
    }
    panic!("metric name outside the namespace")
}

/// Declares a name table, listed sorted, and one index constant per name,
/// so that each name is written once.
macro_rules! slots {
    ($slot:ident, $table:ident, $all:ident: $($(#[$doc:meta])* $konst:ident = $name:literal,)*) => {
        /// The slots' names, sorted.
        pub const $table: &[&str] = &[$($name),*];
        $($(#[$doc])* pub const $konst: $slot = $slot(slot($table, $name));)*
        /// Every index constant with the name it was declared with.
        #[cfg(test)]
        const $all: &[($slot, &str)] = &[$(($konst, $name)),*];
    };
}

// Recorded by the stream engine's step (`relaug::stream::Admission`):
// `requests`, `admitted`, both rejects, `commit.overcommit_clamped`,
// `solves`, `solve_ns` and `debit_ns`. Every other slot is a solver's.
slots!(Counter, COUNTERS, ALL_COUNTERS:
    ADMITTED = "admitted",
    /// Secondary debits that overcommitted and were clamped at zero.
    OVERCOMMIT_CLAMPED = "commit.overcommit_clamped",
    GREEDY_STEPS = "greedy.steps",
    HEURISTIC_COMMITTED = "heuristic.committed",
    /// Matching rounds that committed placements.
    HEURISTIC_ROUNDS = "heuristic.rounds",
    HEURISTIC_TRIMMED = "heuristic.trimmed_secondaries",
    /// The subset of the ILP's components solved in closed form: components
    /// of any size whose functions all reached their targets in the fill,
    /// with no branch and bound.
    ILP_CLOSED_FORM = "ilp.closed_form",
    /// Independent components the exact ILP solved.
    ILP_COMPONENTS = "ilp.components",
    ILP_INCUMBENT_UPDATES = "ilp.incumbent_updates",
    ILP_LP_ITERATIONS = "ilp.lp_iterations",
    /// Branch-and-bound nodes.
    ILP_NODES = "ilp.nodes",
    ILP_PRUNED_BOUND = "ilp.pruned_bound",
    ILP_PRUNED_INFEASIBLE = "ilp.pruned_infeasible",
    ILP_TRIMMED = "ilp.trimmed_secondaries",
    /// Signature classes of the committing rounds' ladders.
    MATCHING_CLASSES = "matching.classes",
    /// Edges of the committing rounds' graphs `G_l`.
    MATCHING_EDGES_FULL = "matching.edges.full",
    RANDOMIZED_DRAWS = "randomized.draws",
    RANDOMIZED_LP_ITERATIONS = "randomized.lp_iterations",
    RANDOMIZED_REPAIRS = "randomized.repairs",
    /// The subset of the rejects the capacity gate decided without a
    /// placement scan (a chain demand above the largest cloudlet residual).
    GATED = "rejected.capacity_gate",
    /// Every reject: no feasible primary placement.
    REJECTED = "rejected.no_primary_placement",
    REQUESTS = "requests",
    /// Solves: one per admitted request and one per re-augmentation.
    SOLVES = "solves",
);

slots!(Hist, HISTS, ALL_HISTS:
    /// The one-pass debit of the secondaries' per-node loads.
    DEBIT_NS = "debit_ns",
    /// Branch and bound, per independent component.
    ILP_COMPONENT_SOLVE = "ilp.component_solve",
    /// The randomized rounding's LP relaxation.
    RANDOMIZED_LP_SOLVE = "randomized.lp_solve",
    /// The solver, per request.
    SOLVE_NS = "solve_ns",
);

/// Point-in-time scalar view of a recorder's registry: plain counters plus
/// mergeable histograms, in namespace order. Cheap to diff across window
/// boundaries.
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
    use crate::Recorder;
    use std::time::Duration;

    #[test]
    fn names_are_unique_and_sorted() {
        assert!(COUNTERS.windows(2).all(|w| w[0] < w[1]), "{COUNTERS:?}");
        assert!(HISTS.windows(2).all(|w| w[0] < w[1]), "{HISTS:?}");
        assert!(COUNTERS.iter().all(|c| !HISTS.contains(c)), "a name is both kinds");
    }

    #[test]
    fn each_index_constant_names_its_own_slot() {
        assert_eq!(ALL_COUNTERS.len(), COUNTERS.len());
        for (i, &(c, name)) in ALL_COUNTERS.iter().enumerate() {
            assert_eq!((c, c.name()), (Counter(i), name));
        }
        assert_eq!(ALL_HISTS.len(), HISTS.len());
        for (i, &(h, name)) in ALL_HISTS.iter().enumerate() {
            assert_eq!((h, h.name()), (Hist(i), name));
        }
    }

    #[test]
    fn snapshot_reads_by_name() {
        let mut rec = Recorder::noop();
        rec.count(REQUESTS, 2);
        rec.count(ADMITTED, 1);
        rec.record(SOLVE_NS, Duration::from_nanos(100));
        rec.record(SOLVE_NS, Duration::from_nanos(900));
        let snap = rec.snapshot();
        assert_eq!(snap.counters.len(), COUNTERS.len());
        assert_eq!(snap.counter("requests"), 2);
        assert_eq!(snap.counter("admitted"), 1);
        assert_eq!(snap.counter("missing"), 0);
        assert_eq!(snap.hist("solve_ns").unwrap().count(), 2);
        assert_eq!(snap.hist("solve_ns").unwrap().sum(), 1000);
        assert!(snap.hist("missing").is_none());
    }

    #[test]
    fn snapshot_diff_is_window_delta() {
        let mut rec = Recorder::noop();
        rec.count(REQUESTS, 1);
        rec.record(SOLVE_NS, Duration::from_nanos(10));
        let base = rec.snapshot();
        rec.count(REQUESTS, 2);
        rec.record(SOLVE_NS, Duration::from_nanos(1000));
        let delta = rec.snapshot().diff(&base);
        assert_eq!(delta.counter("requests"), 2);
        assert_eq!(delta.hist("solve_ns").unwrap().count(), 1);
        assert_eq!(delta.hist("solve_ns").unwrap().sum(), 1000);
    }

    #[test]
    fn report_round_trips_through_json() {
        let mut rec = Recorder::noop();
        rec.count(REQUESTS, 1);
        rec.record(DEBIT_NS, Duration::from_micros(3));
        let report = rec.snapshot().report();
        let json = serde_json::to_string(&report).unwrap();
        let back: MetricsReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.histograms[DEBIT_NS.0].count, 1);
        assert!(back.histograms[DEBIT_NS.0].p99 >= 3000);
    }
}
