//! Summary statistics over trial results.

/// Five-number-style summary of a sample, plus a normal-approximation 95%
/// confidence half-width for the mean.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Summary {
    pub n: usize,
    pub mean: f64,
    /// Sample standard deviation (Bessel-corrected); 0 for n < 2.
    pub std: f64,
    pub min: f64,
    pub max: f64,
}

impl Summary {
    /// Summarize a sample. Panics on an empty slice or non-finite entries.
    pub fn of(sample: &[f64]) -> Summary {
        assert!(!sample.is_empty(), "cannot summarize an empty sample");
        assert!(sample.iter().all(|x| x.is_finite()), "sample contains non-finite values");
        let n = sample.len();
        let mean = sample.iter().sum::<f64>() / n as f64;
        let var = if n > 1 {
            sample.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n as f64 - 1.0)
        } else {
            0.0
        };
        Summary {
            n,
            mean,
            std: var.sqrt(),
            min: sample.iter().copied().fold(f64::INFINITY, f64::min),
            max: sample.iter().copied().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Streaming mean/variance accumulator (Welford), for loops that do not want
/// to keep all samples.
#[derive(Debug, Clone, Copy)]
pub struct Accumulator {
    n: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Default for Accumulator {
    fn default() -> Self {
        Accumulator::new()
    }
}

impl Accumulator {
    pub fn new() -> Self {
        Accumulator { n: 0, mean: 0.0, m2: 0.0, min: f64::INFINITY, max: f64::NEG_INFINITY }
    }

    pub fn push(&mut self, x: f64) {
        assert!(x.is_finite(), "non-finite sample");
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    pub fn summary(&self) -> Summary {
        assert!(self.n > 0, "no samples accumulated");
        let var = if self.n > 1 { self.m2 / (self.n as f64 - 1.0) } else { 0.0 };
        Summary { n: self.n, mean: self.mean, std: var.sqrt(), min: self.min, max: self.max }
    }

    /// Fold another accumulator into this one (Chan et al. parallel
    /// variance combination), so per-worker accumulators merge to the same
    /// moments as a single-threaded pass.
    pub fn merge(&mut self, other: &Accumulator) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        self.m2 += other.m2 + delta * delta * (self.n as f64 * other.n as f64) / n as f64;
        self.mean += delta * other.n as f64 / n as f64;
        self.n = n;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.n, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std - (5.0f64 / 3.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }

    #[test]
    fn singleton_sample() {
        let s = Summary::of(&[7.0]);
        assert_eq!(s.std, 0.0);
        assert_eq!(s.mean, 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_sample_panics() {
        Summary::of(&[]);
    }

    #[test]
    fn accumulator_merge_matches_single_pass() {
        let left = [3.2, -1.0, 4.7];
        let right = [0.0, 2.2, 9.5, -4.0];
        let mut a = Accumulator::new();
        let mut b = Accumulator::new();
        for &x in &left {
            a.push(x);
        }
        for &x in &right {
            b.push(x);
        }
        a.merge(&b);
        let merged = a.summary();
        let all: Vec<f64> = left.iter().chain(&right).copied().collect();
        let whole = Summary::of(&all);
        assert_eq!(merged.n, whole.n);
        assert!((merged.mean - whole.mean).abs() < 1e-12);
        assert!((merged.std - whole.std).abs() < 1e-12);
        assert_eq!(merged.min, whole.min);
        assert_eq!(merged.max, whole.max);
        // Merging an empty accumulator is the identity in both directions.
        let mut empty = Accumulator::new();
        empty.merge(&a);
        assert_eq!(empty.summary().n, merged.n);
        a.merge(&Accumulator::new());
        assert_eq!(a.summary().n, merged.n);
    }

    #[test]
    fn accumulator_matches_batch() {
        let data = [3.2, -1.0, 4.7, 0.0, 2.2, 9.5];
        let mut acc = Accumulator::new();
        for &x in &data {
            acc.push(x);
        }
        let a = acc.summary();
        let b = Summary::of(&data);
        assert_eq!(a.n, b.n);
        assert!((a.mean - b.mean).abs() < 1e-12);
        assert!((a.std - b.std).abs() < 1e-12);
        assert_eq!(a.min, b.min);
        assert_eq!(a.max, b.max);
    }
}
