//! Reliability arithmetic of the paper's Section 3 and the cost/gain
//! functions of Section 4.
//!
//! All logarithms are natural; the paper leaves the base unspecified and every
//! quantity it derives (budgets, costs, gains) only requires consistency.

/// `R(f, k)`: reliability of a function with instance reliability `r` when a
/// primary plus `k` secondaries are deployed — `1 - (1 - r)^{k+1}` (Eq. 1
/// under the identical-reliability assumption).
pub fn function_reliability(r: f64, k: usize) -> f64 {
    debug_assert!((0.0..=1.0).contains(&r));
    1.0 - (1.0 - r).powi(k as i32 + 1)
}

/// Eq. 1 in full generality: accumulative reliability of instances with
/// possibly different reliabilities, `1 - Π (1 - r_l)`.
pub fn accumulative_reliability(instance_reliabilities: &[f64]) -> f64 {
    1.0 - instance_reliabilities.iter().map(|&r| 1.0 - r).product::<f64>()
}

/// Marginal reliability contributed by the `k`-th secondary:
/// `R(f, k) - R(f, k-1) = r·(1-r)^k` (for `k >= 1`); for `k = 0` this is the
/// primary's own `r`.
pub fn marginal_reliability(r: f64, k: usize) -> f64 {
    debug_assert!((0.0..=1.0).contains(&r));
    r * (1.0 - r).powi(k as i32)
}

/// The paper's item cost, Eq. 3/4:
/// `c(f, k, ·) = -log(R(f,k) - R(f,k-1)) = -log(r (1-r)^k)` for `k >= 1`,
/// and `c(f, 0, ·) = -log r` for the primary item.
///
/// Strictly positive and strictly increasing in `k` (Lemma 4.1) whenever
/// `0 < r < 1`; returns `+inf` when the marginal underflows to zero.
pub fn paper_cost(r: f64, k: usize) -> f64 {
    -marginal_reliability(r, k).ln()
}

/// Log-reliability gain of adding the `k`-th secondary (`k >= 1`):
/// `g(r, k) = ln R(f, k) - ln R(f, k-1) > 0`.
///
/// This is the linearization the exact/randomized algorithms optimize; by the
/// prefix property (the paper's Lemma 4.2) summing gains of slots `1..=m`
/// telescopes to the true log-reliability improvement of `m` secondaries.
pub fn log_gain(r: f64, k: usize) -> f64 {
    debug_assert!(k >= 1, "gains are defined for secondaries (k >= 1)");
    function_reliability(r, k).ln() - function_reliability(r, k - 1).ln()
}

/// Reliability of a whole chain given per-function secondary counts:
/// `u_j = Π_i R(f_i, m_i)` (Section 3.1).
pub fn chain_reliability(reliabilities: &[f64], secondary_counts: &[usize]) -> f64 {
    debug_assert_eq!(reliabilities.len(), secondary_counts.len());
    reliabilities.iter().zip(secondary_counts).map(|(&r, &m)| function_reliability(r, m)).product()
}

/// The paper's budget `C = -log ρ_j` (Section 4.2).
pub fn budget_from_expectation(rho: f64) -> f64 {
    debug_assert!(rho > 0.0 && rho <= 1.0);
    -rho.ln()
}

/// Smallest `k` beyond which marginal gains fall below `floor` — used to cap
/// item enumeration without changing optima beyond `floor` precision.
pub fn slots_above_gain_floor(r: f64, max_k: usize, floor: f64) -> usize {
    if r >= 1.0 {
        return 0;
    }
    let mut k = 0;
    while k < max_k && log_gain(r, k + 1) > floor {
        k += 1;
    }
    k
}

/// `R(r, k)` and its log, as [`function_reliability`] and `ln` compute them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Rung {
    pub rel: f64,
    /// `function_reliability(r, k).ln()`, so that
    /// `rung(k).ln_rel - rung(k - 1).ln_rel` is [`log_gain`]`(r, k)` bit for
    /// bit.
    pub ln_rel: f64,
}

impl Rung {
    fn of(r: f64, k: usize) -> Rung {
        let rel = function_reliability(r, k);
        Rung { rel, ln_rel: rel.ln() }
    }
}

/// Cached reliability ladders: per distinct instance reliability, keyed by
/// its bits, a table of [`paper_cost`]`(r, k)` and one of [`Rung`]s. Each
/// table grows lazily to the largest `k` read from it, and every entry is
/// filled by the functions above, so a lookup equals a direct call.
/// [`Self::resolve`] drops every table once they hold more than
/// [`Self::MAX_BYTES`], so memory stays within that bound plus one solve's
/// growth; a stream over a fixed VNF catalog stays far below it.
#[derive(Debug, Clone, Default)]
pub struct LadderTables {
    /// `(bits of r, table id)`, sorted by bits.
    keys: Vec<(u64, usize)>,
    /// Per table id: `r`, its costs `0..len` and its rungs `0..len`.
    r: Vec<f64>,
    costs: Vec<Vec<f64>>,
    rungs: Vec<Vec<Rung>>,
    /// Bytes held by the cost and rung entries.
    held: usize,
}

impl LadderTables {
    /// Entry bytes past which [`Self::resolve`] starts over.
    pub const MAX_BYTES: usize = 1 << 20;

    /// Table ids of `reliabilities`, in order, into `ids` (cleared first).
    /// Ids stay valid until the next call.
    pub fn resolve(&mut self, reliabilities: impl Iterator<Item = f64>, ids: &mut Vec<usize>) {
        if self.held > Self::MAX_BYTES {
            self.keys.clear();
            self.r.clear();
            self.costs.clear();
            self.rungs.clear();
            self.held = 0;
        }
        ids.clear();
        for r in reliabilities {
            let bits = r.to_bits();
            let id = match self.keys.binary_search_by_key(&bits, |&(b, _)| b) {
                Ok(at) => self.keys[at].1,
                Err(at) => {
                    let id = self.r.len();
                    self.keys.insert(at, (bits, id));
                    self.r.push(r);
                    self.costs.push(Vec::new());
                    self.rungs.push(Vec::new());
                    id
                }
            };
            ids.push(id);
        }
    }

    /// [`paper_cost`]`(r, k)` of table `id`.
    #[inline]
    pub fn cost(&mut self, id: usize, k: usize) -> f64 {
        let r = self.r[id];
        grow(&mut self.costs[id], k, &mut self.held, |k| paper_cost(r, k))
    }

    /// `R(r, k)` and `ln R(r, k)` of table `id`.
    #[inline]
    pub fn rung(&mut self, id: usize, k: usize) -> Rung {
        let r = self.r[id];
        grow(&mut self.rungs[id], k, &mut self.held, |k| Rung::of(r, k))
    }
}

/// Entry `k` of `table`, filling it up to `k` with `fill` on first read.
#[inline]
fn grow<T: Copy>(table: &mut Vec<T>, k: usize, held: &mut usize, fill: impl Fn(usize) -> T) -> T {
    if k >= table.len() {
        let from = table.len();
        table.extend((from..=k).map(fill));
        *held += (k + 1 - from) * std::mem::size_of::<T>();
    }
    table[k]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reliability_grows_with_backups() {
        let r = 0.8;
        assert!((function_reliability(r, 0) - 0.8).abs() < 1e-12);
        assert!((function_reliability(r, 1) - 0.96).abs() < 1e-12);
        assert!((function_reliability(r, 2) - 0.992).abs() < 1e-12);
        for k in 0..10 {
            assert!(function_reliability(r, k + 1) > function_reliability(r, k));
        }
    }

    #[test]
    fn accumulative_matches_identical_case() {
        let r = 0.7;
        let acc = accumulative_reliability(&[r, r, r]);
        assert!((acc - function_reliability(r, 2)).abs() < 1e-12);
        // Mixed reliabilities.
        let acc2 = accumulative_reliability(&[0.5, 0.9]);
        assert!((acc2 - (1.0 - 0.5 * 0.1)).abs() < 1e-12);
    }

    #[test]
    fn marginals_telescope_to_reliability() {
        let r = 0.85;
        for m in 0..8 {
            let sum: f64 = (0..=m).map(|k| marginal_reliability(r, k)).sum();
            assert!((sum - function_reliability(r, m)).abs() < 1e-12);
        }
    }

    #[test]
    fn lemma_4_1_costs_positive_and_increasing() {
        for &r in &[0.55, 0.7, 0.8, 0.95] {
            let mut prev = paper_cost(r, 0);
            assert!(prev > 0.0);
            for k in 1..12 {
                let c = paper_cost(r, k);
                assert!(c > prev, "cost must increase in k (r={r}, k={k})");
                // Eq. 16: consecutive difference is exactly ln(1/(1-r)).
                let diff = c - prev;
                assert!((diff - (1.0 / (1.0 - r)).ln()).abs() < 1e-9);
                prev = c;
            }
        }
    }

    #[test]
    fn gains_positive_and_decreasing() {
        for &r in &[0.6, 0.8, 0.9] {
            let mut prev = f64::INFINITY;
            for k in 1..15 {
                let g = log_gain(r, k);
                assert!(g > 0.0);
                assert!(g < prev, "diminishing returns violated at k={k}");
                prev = g;
            }
        }
    }

    #[test]
    fn gains_telescope_to_log_reliability() {
        let r = 0.75;
        for m in 1..10 {
            let sum: f64 = (1..=m).map(|k| log_gain(r, k)).sum();
            let expect = function_reliability(r, m).ln() - function_reliability(r, 0).ln();
            assert!((sum - expect).abs() < 1e-12);
        }
    }

    #[test]
    fn chain_reliability_products() {
        let rels = [0.8, 0.9];
        let u = chain_reliability(&rels, &[1, 0]);
        assert!((u - 0.96 * 0.9).abs() < 1e-12);
        assert!((chain_reliability(&[], &[]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn budget_matches_expectation() {
        let c = budget_from_expectation(0.99);
        assert!((c - (-(0.99f64.ln()))).abs() < 1e-15);
        assert_eq!(budget_from_expectation(1.0), 0.0);
    }

    #[test]
    fn slot_capping_is_lossless_at_floor() {
        let r = 0.8;
        let cap = slots_above_gain_floor(r, 100, 1e-12);
        assert!(cap < 100);
        assert!(log_gain(r, cap + 1) <= 1e-12);
        if cap > 0 {
            assert!(log_gain(r, cap) > 1e-12);
        }
        // Perfectly reliable functions need no slots.
        assert_eq!(slots_above_gain_floor(1.0, 100, 1e-12), 0);
    }

    #[test]
    fn ladder_tables_equal_direct_calls_bit_for_bit() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(22);
        let mut tables = LadderTables::default();
        let mut ids = Vec::new();
        let mut rs: Vec<f64> = (0..40).map(|_| rng.gen_range(0.3..0.999)).collect();
        rs.extend([0.5, 0.8, 0.9, 0.99, 0.999_999]);
        // Resolve twice (the second time in reverse) so that lookups hit
        // tables grown by earlier reads as well as fresh ones.
        tables.resolve(rs.iter().copied(), &mut ids);
        let first = ids.clone();
        tables.resolve(rs.iter().rev().copied(), &mut ids);
        ids.reverse();
        assert_eq!(ids, first, "a reliability maps to one table");
        for (&r, &id) in rs.iter().zip(&first) {
            // Every k up to the cost underflow and a little past it, read
            // upwards first (growth one entry at a time) and then downwards.
            let mut last = 0;
            while paper_cost(r, last).is_finite() {
                last += 1;
            }
            for k in (0..=last + 2).chain((0..=last + 2).rev()) {
                let direct = function_reliability(r, k);
                let rung = tables.rung(id, k);
                assert_eq!(rung.rel.to_bits(), direct.to_bits(), "R({r}, {k})");
                assert_eq!(rung.ln_rel.to_bits(), direct.ln().to_bits(), "ln R({r}, {k})");
                let cost = tables.cost(id, k);
                assert_eq!(cost.to_bits(), paper_cost(r, k).to_bits(), "cost({r}, {k})");
                if k >= 1 {
                    let gain = rung.ln_rel - tables.rung(id, k - 1).ln_rel;
                    assert_eq!(gain.to_bits(), log_gain(r, k).to_bits(), "gain({r}, {k})");
                }
            }
        }
    }

    #[test]
    fn ladder_tables_start_over_past_their_bound() {
        let mut tables = LadderTables::default();
        let mut ids = Vec::new();
        tables.resolve([0.7].into_iter(), &mut ids);
        let k = LadderTables::MAX_BYTES / std::mem::size_of::<f64>();
        tables.cost(ids[0], k);
        assert_eq!(tables.held, (k + 1) * std::mem::size_of::<f64>());
        tables.resolve([0.8, 0.7].into_iter(), &mut ids);
        assert_eq!(tables.held, 0, "resolve drops the tables past the bound");
        assert_eq!(ids, [0, 1]);
        assert_eq!(tables.rung(ids[1], 3), Rung::of(0.7, 3));
    }
}
