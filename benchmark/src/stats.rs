//! Sample statistics and the result lines the benchmark prints.

/// A tail percentile is reported only when at least this many samples lie
/// beyond it, so it never rests on one or two extreme values.
pub const MIN_BEYOND: usize = 10;

/// 1-based nearest rank of the `q`-quantile among `n` samples, or `None`
/// when fewer than [`MIN_BEYOND`] samples lie strictly above it.
fn rank(n: usize, q: f64) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    (n - rank >= MIN_BEYOND).then_some(rank)
}

/// Nearest-rank `q`-quantile of an ascending sample, or `None` when fewer
/// than [`MIN_BEYOND`] samples lie strictly above the chosen rank.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    debug_assert!(sorted.windows(2).all(|w| w[0] <= w[1]), "sample must be sorted");
    rank(sorted.len(), q).map(|r| sorted[r - 1])
}

/// Duration samples in nanoseconds, grouped by the pass that took them.
#[derive(Debug, Default)]
pub struct Samples {
    values: Vec<u32>,
    /// End offset in `values` of each finished pass.
    pass_ends: Vec<usize>,
}

impl Samples {
    pub fn push(&mut self, ns: u32) {
        self.values.push(ns);
    }

    /// Room for `n` more samples, so a pass of at most `n` pushes never
    /// reallocates while it is being timed.
    pub fn reserve(&mut self, n: usize) {
        self.values.reserve(n);
    }

    pub fn end_pass(&mut self) {
        self.pass_ends.push(self.values.len());
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    #[cfg(test)]
    pub fn values(&self) -> &[u32] {
        &self.values
    }

    /// The `q`-quantile as the median over blocks of consecutive passes,
    /// each block the fewest passes that hold enough samples for the
    /// quantile (leftover passes join the last block). A burst of
    /// interference from outside the process slows a few passes; it moves a
    /// pooled percentile but barely moves the median block. `None` when all
    /// the passes together hold too few samples.
    pub fn block_quantile(&self, q: f64) -> Option<f64> {
        let mut cuts = vec![0];
        for &end in &self.pass_ends {
            if rank(end - cuts[cuts.len() - 1], q).is_some() {
                cuts.push(end);
            }
        }
        if cuts.len() == 1 {
            return None;
        }
        *cuts.last_mut().expect("at least one block") = self.values.len();
        let per_block: Vec<f64> = cuts
            .windows(2)
            .map(|b| {
                let mut block: Vec<f64> =
                    self.values[b[0]..b[1]].iter().map(|&ns| ns as f64).collect();
                block.sort_by(f64::total_cmp);
                quantile(&block, q).expect("blocks hold enough samples")
            })
            .collect();
        Some(median(&per_block))
    }
}

/// Median of a small set of per-pass or per-set-up values (mean of the two
/// middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty set");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// `num / den`, defined as 0 for an empty denominator (a counter that a
/// workload never exercises, e.g. ILP nodes under the heuristic).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// One named metric with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// JSON number for a finite value, printed with every digit it has.
fn num(v: f64) -> String {
    assert!(v.is_finite(), "metric values are finite");
    format!("{v}")
}

/// The closing result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, num(m.value), m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// The detail line printed before the result: run identity, sample counts
/// behind each percentile, and the outcome of the correctness checks.
pub fn report_line(fields: &[(&str, String)]) -> String {
    let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\": {v}")).collect();
    format!("{{{}}}", body.join(", "))
}

/// A JSON string literal (the values here never contain quotes or escapes
/// beyond what this handles).
pub fn json_str(s: &str) -> String {
    format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\""))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_to(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_on_known_vectors() {
        let v = one_to(100);
        assert_eq!(quantile(&v, 0.5), Some(50.0));
        assert_eq!(quantile(&v, 0.9), Some(90.0));
        assert_eq!(quantile(&v, 0.01), Some(1.0));
        let v = one_to(1000);
        assert_eq!(quantile(&v, 0.5), Some(500.0));
        assert_eq!(quantile(&v, 0.99), Some(990.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond_it() {
        // p99 of 1000 samples has exactly ten beyond it; of 999, only nine.
        assert_eq!(quantile(&one_to(1000), 0.99), Some(990.0));
        assert_eq!(quantile(&one_to(999), 0.99), None);
        // p90 of 100 has ten beyond; of 99, nine.
        assert_eq!(quantile(&one_to(100), 0.9), Some(90.0));
        assert_eq!(quantile(&one_to(99), 0.9), None);
        // The median needs at least 20 samples.
        assert_eq!(quantile(&one_to(20), 0.5), Some(10.0));
        assert_eq!(quantile(&one_to(19), 0.5), None);
        assert_eq!(quantile(&[], 0.5), None);
    }

    fn passes(sizes_and_values: &[(usize, u32)]) -> Samples {
        let mut s = Samples::default();
        for &(n, v) in sizes_and_values {
            for _ in 0..n {
                s.push(v);
            }
            s.end_pass();
        }
        s
    }

    #[test]
    fn block_quantile_is_the_median_block() {
        // Five passes of 30 samples: each pass is its own median block, and
        // one slow pass does not move the result.
        let s = passes(&[(30, 10), (30, 11), (30, 500), (30, 12), (30, 11)]);
        assert_eq!(s.block_quantile(0.5), Some(11.0));
        // p99 needs 1000 samples per block: 600-sample passes pair up, and
        // the fifth pass joins the last block.
        let s = passes(&[(600, 1), (600, 2), (600, 3), (600, 4), (600, 5)]);
        assert_eq!(s.block_quantile(0.99), Some(3.5));
        // Too few samples in all passes together.
        let s = passes(&[(300, 1), (300, 2), (300, 3)]);
        assert_eq!(s.block_quantile(0.99), None);
        assert_eq!(Samples::default().block_quantile(0.5), None);
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn result_line_has_the_contract_keys() {
        let line =
            result_line(true, 7, 0, &[metric("x_ms", 1.25, "ms"), metric("n", 3.0, "count")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 7, \"failed\": 0, \"metrics\": \
             {\"x_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"n\": {\"value\": 3, \"unit\": \"count\"}}}"
        );
    }
}
