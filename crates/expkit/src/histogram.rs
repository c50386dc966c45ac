//! Fixed-bin histograms and exact percentiles for experiment reporting.

/// A histogram over `[lo, hi)` with equal-width bins (values outside the
/// range are clamped into the first/last bin).
#[derive(Debug, Clone)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// Create a histogram with `bins >= 1` equal-width bins over `[lo, hi)`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(bins >= 1, "need at least one bin");
        assert!(lo < hi, "empty range");
        assert!(lo.is_finite() && hi.is_finite());
        Histogram { lo, hi, counts: vec![0; bins], total: 0 }
    }

    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite sample");
        let bins = self.counts.len();
        let idx = ((x - self.lo) / (self.hi - self.lo) * bins as f64).floor();
        let idx = (idx.max(0.0) as usize).min(bins - 1);
        self.counts[idx] += 1;
        self.total += 1;
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// `(lower edge, upper edge, count)` per bin.
    pub fn bins(&self) -> Vec<(f64, f64, u64)> {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &c)| (self.lo + w * i as f64, self.lo + w * (i + 1) as f64, c))
            .collect()
    }

    /// Simple ASCII rendering (one row per bin).
    pub fn render(&self, width: usize) -> String {
        let max = self.counts.iter().copied().max().unwrap_or(0).max(1);
        self.bins()
            .into_iter()
            .map(|(lo, hi, c)| {
                let bar = "#".repeat((c as usize * width).div_ceil(max as usize).min(width));
                format!("[{lo:>10.3}, {hi:>10.3}) |{bar:<width$}| {c}\n")
            })
            .collect()
    }
}

/// Number of buckets in a [`Log2Histogram`]: bucket 0 holds the value `0`,
/// bucket `i >= 1` holds `[2^(i-1), 2^i)`, so 65 buckets cover all of `u64`.
pub const LOG2_BUCKETS: usize = 65;

/// Fixed-size mergeable histogram over `u64` values with power-of-two bucket
/// edges — the shared distribution type behind `obs`'s per-worker metrics
/// shards and window summaries.
///
/// The bucket layout is a pure function of the value (no configuration), so
/// two histograms recorded independently — e.g. on different worker threads —
/// always [`merge`](Log2Histogram::merge) exactly. Quantile estimates return
/// the inclusive upper bound of the bucket containing the requested rank,
/// which is within one power-of-two bucket of the exact order statistic.
/// Values are typically durations in nanoseconds, where the ~2x relative
/// resolution is plenty for latency reporting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Log2Histogram {
    counts: [u64; LOG2_BUCKETS],
    total: u64,
    sum: u64,
}

impl Default for Log2Histogram {
    fn default() -> Self {
        Log2Histogram::new()
    }
}

impl Log2Histogram {
    pub fn new() -> Log2Histogram {
        Log2Histogram { counts: [0; LOG2_BUCKETS], total: 0, sum: 0 }
    }

    /// The bucket index holding `v`.
    #[inline]
    pub fn bucket_of(v: u64) -> usize {
        if v == 0 {
            0
        } else {
            64 - v.leading_zeros() as usize
        }
    }

    /// Inclusive upper bound of bucket `idx` (`0` for bucket 0, `2^idx - 1`
    /// otherwise, saturating at `u64::MAX`).
    #[inline]
    pub fn bucket_bound(idx: usize) -> u64 {
        match idx {
            0 => 0,
            i if i >= 64 => u64::MAX,
            i => (1u64 << i) - 1,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket_of(v)] += 1;
        self.total += 1;
        self.sum = self.sum.saturating_add(v);
    }

    /// Record a duration as nanoseconds (saturating at `u64::MAX`).
    #[inline]
    pub fn record_duration(&mut self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// Sum of every recorded value (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.sum as f64 / self.total as f64
        }
    }

    /// Fold `other` into `self` bucket-wise. Exact: recording a stream into
    /// one histogram equals recording disjoint pieces separately and merging.
    pub fn merge(&mut self, other: &Log2Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.sum = self.sum.saturating_add(other.sum);
    }

    /// Bucket-wise difference against an `earlier` snapshot of the same
    /// monotonically-growing histogram (window deltas). Panics in debug
    /// builds if `earlier` is not a prefix of `self`.
    pub fn diff(&self, earlier: &Log2Histogram) -> Log2Histogram {
        let mut counts = [0u64; LOG2_BUCKETS];
        for (i, c) in counts.iter_mut().enumerate() {
            debug_assert!(self.counts[i] >= earlier.counts[i], "diff against a non-prefix");
            *c = self.counts[i].saturating_sub(earlier.counts[i]);
        }
        Log2Histogram {
            counts,
            total: self.total.saturating_sub(earlier.total),
            sum: self.sum.saturating_sub(earlier.sum),
        }
    }

    /// Estimated `q`-quantile (`q` in `[0, 1]`): the inclusive upper bound of
    /// the bucket containing the nearest-rank order statistic. `None` when
    /// empty. Guaranteed within one bucket of the exact quantile, i.e. the
    /// exact value `x` satisfies `bucket_of(x) == bucket_of(estimate)`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Some(Self::bucket_bound(i));
            }
        }
        unreachable!("rank <= total implies some bucket reaches it")
    }

    /// Upper bound of the highest non-empty bucket (`None` when empty).
    pub fn max_bound(&self) -> Option<u64> {
        self.counts
            .iter()
            .enumerate()
            .rev()
            .find(|(_, &c)| c > 0)
            .map(|(i, _)| Self::bucket_bound(i))
    }
}

/// Exact percentile of a sample via the nearest-rank method (`p` in `[0,
/// 100]`). Panics on an empty slice.
pub fn percentile(sample: &[f64], p: f64) -> f64 {
    assert!(!sample.is_empty(), "empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile must be in [0, 100]");
    let mut sorted: Vec<f64> = sample.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    if p == 0.0 {
        return sorted[0];
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn bins_and_clamping() {
        let mut h = Histogram::new(0.0, 10.0, 5);
        for x in [0.5, 1.5, 2.5, 9.9, -3.0, 42.0] {
            h.push(x);
        }
        assert_eq!(h.count(), 6);
        // -3.0 clamps into bin 0 (with 0.5 and 1.5); 42.0 into the last.
        let bins = h.bins();
        assert_eq!(bins.iter().map(|b| b.2).collect::<Vec<_>>(), [3, 1, 0, 0, 2]);
        assert_eq!(bins[0].0, 0.0);
        assert_eq!(bins[4].1, 10.0);
    }

    #[test]
    fn render_shows_bars() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        h.push(0.5);
        h.push(0.6);
        h.push(1.5);
        let s = h.render(10);
        assert!(s.contains("##"));
        assert!(s.lines().count() == 2);
    }

    #[test]
    fn percentiles_nearest_rank() {
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(percentile(&v, 0.0), 15.0);
        assert_eq!(percentile(&v, 30.0), 20.0);
        assert_eq!(percentile(&v, 40.0), 20.0);
        assert_eq!(percentile(&v, 50.0), 35.0);
        assert_eq!(percentile(&v, 100.0), 50.0);
    }

    #[test]
    fn percentile_single_element() {
        assert_eq!(percentile(&[7.0], 50.0), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn percentile_empty_panics() {
        percentile(&[], 50.0);
    }

    #[test]
    fn log2_bucket_layout() {
        assert_eq!(Log2Histogram::bucket_of(0), 0);
        assert_eq!(Log2Histogram::bucket_of(1), 1);
        assert_eq!(Log2Histogram::bucket_of(2), 2);
        assert_eq!(Log2Histogram::bucket_of(3), 2);
        assert_eq!(Log2Histogram::bucket_of(4), 3);
        assert_eq!(Log2Histogram::bucket_of(u64::MAX), 64);
        assert_eq!(Log2Histogram::bucket_bound(0), 0);
        assert_eq!(Log2Histogram::bucket_bound(1), 1);
        assert_eq!(Log2Histogram::bucket_bound(2), 3);
        assert_eq!(Log2Histogram::bucket_bound(64), u64::MAX);
        // Every value lands in the bucket whose bound is the smallest bound
        // >= the value.
        for v in [0u64, 1, 2, 3, 4, 7, 8, 1023, 1024, u64::MAX] {
            let b = Log2Histogram::bucket_of(v);
            assert!(Log2Histogram::bucket_bound(b) >= v);
            if b > 0 {
                assert!(Log2Histogram::bucket_bound(b - 1) < v);
            }
        }
    }

    #[test]
    fn log2_record_merge_diff() {
        let mut a = Log2Histogram::new();
        let mut b = Log2Histogram::new();
        let mut all = Log2Histogram::new();
        for v in [0u64, 1, 5, 100, 1000] {
            a.record(v);
            all.record(v);
        }
        for v in [7u64, 7, 4096] {
            b.record(v);
            all.record(v);
        }
        let mut merged = a.clone();
        merged.merge(&b);
        assert_eq!(merged, all, "merge equals recording the union");
        assert_eq!(merged.count(), 8);
        assert_eq!(merged.sum(), 1 + 5 + 100 + 1000 + 7 + 7 + 4096);
        let d = merged.diff(&a);
        assert_eq!(d, b, "diff inverts merge");
    }

    #[test]
    fn log2_quantiles_within_one_bucket() {
        let mut h = Log2Histogram::new();
        let sample: Vec<u64> = (1..=1000u64).collect();
        for &v in &sample {
            h.record(v);
        }
        assert_eq!(h.quantile(0.0), Some(1));
        for q in [0.5, 0.9, 0.99, 1.0] {
            let est = h.quantile(q).unwrap();
            let exact = sample[(((q * 1000.0).ceil() as usize).clamp(1, 1000)) - 1];
            assert_eq!(
                Log2Histogram::bucket_of(est),
                Log2Histogram::bucket_of(exact),
                "q={q}: estimate {est} must share the exact value {exact}'s bucket"
            );
        }
        assert!(Log2Histogram::new().quantile(0.5).is_none());
        assert_eq!(h.max_bound(), Some(1023));
        assert!((h.mean() - 500.5).abs() < 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The quantile estimate (inclusive upper bound of the bucket holding
        /// the nearest-rank order statistic) lands in the same log2 bucket as
        /// the exact quantile of the raw sample.
        #[test]
        fn log2_quantile_shares_the_exact_bucket(
            values in proptest::collection::vec(0u64..(1 << 40), 1..300),
            q in 0.0f64..1.0,
        ) {
            let mut hist = Log2Histogram::new();
            for &v in &values {
                hist.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1];
            let estimate = hist.quantile(q).unwrap();
            prop_assert!(estimate >= exact, "estimate {estimate} below exact {exact}");
            prop_assert_eq!(
                Log2Histogram::bucket_of(estimate),
                Log2Histogram::bucket_of(exact),
                "estimate {} not in the exact value {}'s bucket (q={})", estimate, exact, q
            );
        }
    }
}
