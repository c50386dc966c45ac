//! Solution containers and the metrics the paper's figures report.

use std::fmt;
use std::time::Duration;

use crate::instance::AugmentationInstance;
use crate::reliability::{self, LadderTables};

/// Chain reliability `u_j = Π_i R(f_i, existing_i + m_i)` from per-function
/// secondary counts `m_i`: the per-function `function_reliability` terms
/// multiplied in chain order.
pub fn rel_from_counts(inst: &AugmentationInstance, counts: &[usize]) -> f64 {
    debug_assert_eq!(counts.len(), inst.functions.len());
    inst.functions
        .iter()
        .zip(counts)
        .map(|(f, &m)| reliability::function_reliability(f.reliability, m + f.existing_backups))
        .product()
}

/// A secondary-instance placement: for each chain position, how many
/// secondaries were placed on which bins.
///
/// It is also every solver's working buffer (`SolveScratch::sol`):
/// [`Self::begin`] starts a new solution in the vectors the last one grew, so
/// a warm solve allocates nothing. Equality, [`Clone`] and [`fmt::Debug`]
/// see the solution only (entry order included), not the buffers.
#[derive(Default)]
pub struct Augmentation {
    /// `rows[i]` lists `(bin index, count)` pairs for function `i`, at most
    /// one entry per bin; only `rows[..active]` are live.
    rows: Vec<Vec<(usize, usize)>>,
    active: usize,
    /// Secondary count `m_i` per live function, kept current by every edit.
    counts: Vec<usize>,
    /// The trim's per-bin loads, kept current through the trim.
    loads: Vec<f64>,
    /// The trim's terms per function, for its current count `m` (and `e`
    /// existing backups): `R(e + m)`, `R(e + m - 1)` and the log gain of its
    /// last secondary.
    rel_now: Vec<f64>,
    rel_less: Vec<f64>,
    last_gain: Vec<f64>,
    /// [`Self::trim_to_expectation`]'s table id per function.
    table_of: Vec<usize>,
    /// [`Self::commit_one_round_trimmed`]'s view of one function's round
    /// placements: `(load/residual, bin)` per entry in row order, and the
    /// [`FreeLargest`] buffers.
    run: Vec<(f64, usize)>,
    freeing: FreeLargest,
}

impl Augmentation {
    /// No secondaries for a chain of `n` functions.
    pub fn empty(n: usize) -> Self {
        let mut aug = Augmentation::default();
        aug.begin(n);
        aug
    }

    /// Start a new, empty solution for a chain of `n` functions, in the
    /// vectors the last one grew.
    pub fn begin(&mut self, n: usize) {
        if self.rows.len() < n {
            self.rows.resize_with(n, Vec::new);
        }
        for row in &mut self.rows[..n] {
            row.clear();
        }
        self.active = n;
        self.counts.clear();
        self.counts.resize(n, 0);
    }

    /// Record `count` more secondaries of function `func` on bin `bin`.
    pub fn add(&mut self, func: usize, bin: usize, count: usize) {
        if count == 0 {
            return;
        }
        let row = &mut self.rows[..self.active][func];
        match row.iter_mut().find(|(b, _)| *b == bin) {
            Some((_, c)) => *c += count,
            None => row.push((bin, count)),
        }
        self.counts[func] += count;
    }

    /// Remove one secondary of `func` from `bin`; returns `false` if none is
    /// placed there.
    pub fn remove(&mut self, func: usize, bin: usize) -> bool {
        let row = &mut self.rows[..self.active][func];
        let Some(pos) = row.iter().position(|&(b, c)| b == bin && c > 0) else { return false };
        row[pos].1 -= 1;
        if row[pos].1 == 0 {
            row.swap_remove(pos);
        }
        self.counts[func] -= 1;
        true
    }

    pub fn chain_len(&self) -> usize {
        self.active
    }

    /// The live rows.
    fn rows(&self) -> &[Vec<(usize, usize)>] {
        &self.rows[..self.active]
    }

    /// `(bin, count)` pairs for one function.
    pub fn placements_of(&self, func: usize) -> &[(usize, usize)] {
        &self.rows()[func]
    }

    /// Secondary count `m_i` per function.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    pub fn total_secondaries(&self) -> usize {
        self.counts.iter().sum()
    }

    /// Achieved request reliability `u_j = Π_i R(f_i, existing_i + m_i)` —
    /// always computed from true counts, never from the linearized objective.
    pub fn reliability(&self, inst: &AugmentationInstance) -> f64 {
        rel_from_counts(inst, &self.counts)
    }

    /// Load in MHz placed on each bin.
    pub fn bin_loads(&self, inst: &AugmentationInstance) -> Vec<f64> {
        let mut loads = Vec::new();
        self.bin_loads_into(inst, &mut loads);
        loads
    }

    /// [`Self::bin_loads`] into `loads`.
    pub fn bin_loads_into(&self, inst: &AugmentationInstance, loads: &mut Vec<f64>) {
        loads.clear();
        loads.resize(inst.bins.len(), 0.0);
        for (i, row) in self.rows().iter().enumerate() {
            let demand = inst.functions[i].demand;
            for &(b, c) in row {
                loads[b] += demand * c as f64;
            }
        }
    }

    /// Whether every bin's load fits its residual capacity (tolerance for
    /// floating-point demand sums).
    pub fn is_capacity_feasible(&self, inst: &AugmentationInstance) -> bool {
        self.bin_loads(inst).iter().zip(&inst.bins).all(|(&load, bin)| load <= bin.residual + 1e-6)
    }

    /// Whether every placement goes to a bin eligible for its function
    /// (the `l`-hop locality constraint).
    pub fn respects_locality(&self, inst: &AugmentationInstance) -> bool {
        self.rows()
            .iter()
            .enumerate()
            .all(|(i, row)| row.iter().all(|&(b, _)| inst.functions[i].eligible_bins.contains(&b)))
    }

    /// Trim surplus secondaries: while the reliability stays at or above the
    /// expectation, repeatedly drop the placed secondary with the smallest
    /// marginal log-gain, freeing the function's bin with the largest
    /// load/residual first. This realizes "augment *until* the expectation
    /// is reached": the result is the original solution when it never
    /// reached `ρ_j`, and a minimal-ish overshoot solution otherwise. Returns
    /// the number of removals.
    ///
    /// Each removal costs `O(L + row)` and no allocation with warm buffers:
    /// the bin loads are computed once and the freed bin's load is updated,
    /// and each function's `R(m)`, `R(m − 1)` and last-secondary gain are
    /// read from `tables`, which give `function_reliability` and
    /// `log_gain` bit for bit.
    pub fn trim_to_expectation(
        &mut self,
        inst: &AugmentationInstance,
        tables: &mut LadderTables,
    ) -> usize {
        let mut loads = std::mem::take(&mut self.loads);
        self.bin_loads_into(inst, &mut loads);
        self.loads = loads;
        let mut table_of = std::mem::take(&mut self.table_of);
        tables.resolve(inst.functions.iter().map(|f| f.reliability), &mut table_of);
        let removed =
            self.trim_loop(inst, tables, &table_of, |this, func| this.free_one(inst, func));
        self.table_of = table_of;
        removed
    }

    /// The loop of both trims: read every live function's terms from
    /// `tables` (`table_of[i]` is function `i`'s table), then, while
    /// [`Self::trim_choice`] picks a function, let `remove_one` take one of
    /// its secondaries and read its terms again. Returns the number of
    /// removals.
    fn trim_loop(
        &mut self,
        inst: &AugmentationInstance,
        tables: &mut LadderTables,
        table_of: &[usize],
        mut remove_one: impl FnMut(&mut Self, usize),
    ) -> usize {
        let mut refresh = |this: &mut Self, i: usize| {
            let (m, id) = (this.counts[i], table_of[i]);
            let now = tables.rung(id, inst.functions[i].existing_backups + m);
            this.rel_now[i] = now.rel;
            if m > 0 {
                let less = tables.rung(id, inst.functions[i].existing_backups + m - 1);
                this.rel_less[i] = less.rel;
                this.last_gain[i] = now.ln_rel - less.ln_rel;
            }
        };
        for v in [&mut self.rel_now, &mut self.rel_less, &mut self.last_gain] {
            v.clear();
            v.resize(self.active, 0.0);
        }
        for i in 0..self.active {
            refresh(self, i);
        }
        let mut removed = 0;
        while let Some(func) = self.trim_choice(inst.expectation) {
            remove_one(self, func);
            refresh(self, func);
            removed += 1;
        }
        removed
    }

    /// The trim's next removal, from the cached terms: among the functions
    /// whose last secondary can go without `u_j` falling below
    /// `expectation`, the one whose last secondary has the smallest log gain
    /// (the first on ties). `None` once `u_j < expectation` or no removal
    /// keeps it.
    fn trim_choice(&self, expectation: f64) -> Option<usize> {
        // The product `rel_from_counts` forms, term for term.
        let rel: f64 = self.rel_now.iter().copied().product();
        if rel < expectation {
            return None;
        }
        let mut best: Option<(f64, usize)> = None; // (gain, func)
        for (i, &m) in self.counts.iter().enumerate() {
            if m == 0 {
                continue;
            }
            let gain = self.last_gain[i];
            let new_rel = rel / self.rel_now[i] * self.rel_less[i];
            if new_rel >= expectation && best.is_none_or(|(g, _)| gain < g) {
                best = Some((gain, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Remove one secondary of `func` from its bin with the largest
    /// load/residual (the last such entry on ties) and update that load.
    fn free_one(&mut self, inst: &AugmentationInstance, func: usize) {
        let loads = &self.loads;
        let bin = self.rows[func]
            .iter()
            .max_by(|&&(a, _), &&(b, _)| {
                let ra = loads[a] / inst.bins[a].residual;
                let rb = loads[b] / inst.bins[b].residual;
                ra.total_cmp(&rb)
            })
            .map(|&(b, _)| b)
            .expect("function has placements");
        let ok = self.remove(func, bin);
        debug_assert!(ok);
        self.loads[bin] -= inst.functions[func].demand;
    }

    /// Count-first twin of adding `placements` one by one and then calling
    /// [`Self::trim_to_expectation`], for a solution built by one matching
    /// round: same rows (entry order included), same counts, same return
    /// value. Needs an empty solution (just after [`Self::begin`]) and
    /// `placements` as `(func, bin)` in commit order, each function's entries
    /// contiguous and every bin used once. `table_of[i]` is function `i`'s
    /// table in `tables` (see [`LadderTables::resolve`]).
    ///
    /// The trim's function choice reads only counts and the `R` terms, so it
    /// runs first, on the counts alone. Each bin then holds one secondary of
    /// one function and its load/residual never changes, so every function
    /// frees its bins on its own, by the rule of the trim: largest
    /// load/residual first, ties to the last row entry, `swap_remove` order.
    /// Only the survivors are written.
    pub fn commit_one_round_trimmed(
        &mut self,
        inst: &AugmentationInstance,
        tables: &mut LadderTables,
        table_of: &[usize],
        placements: impl Iterator<Item = (usize, usize)> + Clone,
    ) -> usize {
        debug_assert!(self.counts.iter().all(|&m| m == 0), "needs an empty solution");
        for (func, _) in placements.clone() {
            self.counts[func] += 1;
        }
        // The trim's function choice on the counts alone.
        let removed = self.trim_loop(inst, tables, table_of, |this, func| this.counts[func] -= 1);
        let mut placements = placements.peekable();
        while let Some(&(func, _)) = placements.peek() {
            let demand = inst.functions[func].demand;
            // A one-secondary bin's load is exactly its demand.
            self.run.clear();
            while let Some((_, bin)) = placements.next_if(|&(f, _)| f == func) {
                self.run.push((demand / inst.bins[bin].residual, bin));
            }
            debug_assert!(self.rows[func].is_empty(), "function {func} in two runs");
            let kept = self.freeing.keep(&self.run, self.counts[func]);
            self.rows[func].extend(kept.iter().map(|&e| (self.run[e].1, 1)));
        }
        removed
    }

    /// Total paper cost of the solution under the prefix interpretation
    /// (Lemma 6.1: the `m_i` placed items of function `i` are the `m_i`
    /// cheapest): `Σ_i Σ_{k=1..m_i} c(f_i, k, ·)`.
    pub fn paper_cost(&self, inst: &AugmentationInstance) -> f64 {
        self.counts
            .iter()
            .enumerate()
            .map(|(i, &m)| {
                let r = inst.functions[i].reliability;
                let e = inst.functions[i].existing_backups;
                (1..=m).map(|k| reliability::paper_cost(r, e + k)).sum::<f64>()
            })
            .sum()
    }
}

impl Clone for Augmentation {
    /// The live rows and counts, without the buffers.
    fn clone(&self) -> Self {
        Augmentation {
            rows: self.rows().to_vec(),
            active: self.active,
            counts: self.counts.clone(),
            ..Default::default()
        }
    }
}

impl PartialEq for Augmentation {
    /// The live rows, entry order included.
    fn eq(&self, other: &Self) -> bool {
        self.rows() == other.rows()
    }
}

impl Eq for Augmentation {}

impl fmt::Debug for Augmentation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Augmentation").field("placements", &self.rows()).finish()
    }
}

/// Buffers of [`FreeLargest::keep`].
#[derive(Default)]
struct FreeLargest {
    /// `(key, entry)` by key, largest first; the key as an integer with the
    /// order of [`f64::total_cmp`].
    order: Vec<(i64, usize)>,
    /// The row as entry ids, and each entry's position in it.
    slots: Vec<usize>,
    pos: Vec<usize>,
}

impl FreeLargest {
    /// The entries of `row` (keys first) that survive freeing all but `keep`
    /// of them one at a time, the way [`Augmentation::trim_to_expectation`]
    /// frees a function's one-secondary bins: the largest key goes, ties to
    /// the last entry, removed by `swap_remove`. Returns the survivors' entry
    /// ids in their final row order, in `O(n log n)` rather than the `O(n²)`
    /// of freeing one by one.
    ///
    /// Exact because nothing moves inside the tie group being freed: the
    /// group's last entry goes first, and the row's last entry, which
    /// `swap_remove` moves into the hole, is either that entry or has a
    /// smaller key. So each tie group goes in descending position at the
    /// time it becomes the largest, and only the positions of entries with
    /// smaller keys need tracking.
    fn keep(&mut self, row: &[(f64, usize)], keep: usize) -> &[usize] {
        let n = row.len();
        debug_assert!(keep <= n);
        for v in [&mut self.slots, &mut self.pos] {
            v.clear();
            v.extend(0..n);
        }
        self.order.clear();
        if keep < n {
            // The bit trick of `f64::total_cmp`, applied once per key.
            let total_key = |x: f64| {
                let bits = x.to_bits() as i64;
                bits ^ (((bits >> 63) as u64) >> 1) as i64
            };
            self.order.extend(row.iter().enumerate().map(|(e, &(key, _))| (total_key(key), e)));
            self.order.sort_unstable_by_key(|&(key, _)| std::cmp::Reverse(key));
        }
        let (mut len, mut g) = (n, 0);
        while len > keep {
            let key = self.order[g].0;
            let h = g + self.order[g..].iter().take_while(|&&(k, _)| k == key).count();
            if h - g > 1 {
                let pos = &self.pos;
                self.order[g..h].sort_unstable_by_key(|&(_, e)| std::cmp::Reverse(pos[e]));
            }
            for &(_, e) in &self.order[g..h] {
                if len == keep {
                    break;
                }
                len -= 1;
                let (hole, last) = (self.pos[e], self.slots[len]);
                self.slots[hole] = last;
                self.pos[last] = hole;
            }
            g = h;
        }
        &self.slots[..len]
    }
}

/// Everything the paper's figures need from one algorithm run.
#[derive(Debug, Clone, serde::Serialize)]
pub struct Metrics {
    /// Achieved request reliability `u_j`.
    pub reliability: f64,
    /// `Π r_i` before augmentation.
    pub base_reliability: f64,
    /// Whether `u_j >= ρ_j`.
    pub met_expectation: bool,
    pub total_secondaries: usize,
    /// Per-bin usage ratio load / residual, over bins eligible for at least
    /// one function (may exceed 1.0 for the randomized algorithm).
    pub bin_usage: Vec<f64>,
    pub avg_usage: f64,
    pub min_usage: f64,
    pub max_usage: f64,
    /// Largest usage ratio over all bins; > 1 means a capacity violation.
    pub max_violation_ratio: f64,
    /// Total paper cost `c(S)`.
    pub paper_cost: f64,
}

impl Metrics {
    pub fn compute(aug: &Augmentation, inst: &AugmentationInstance) -> Metrics {
        let loads = aug.bin_loads(inst);
        let mut eligible = vec![false; inst.bins.len()];
        for f in &inst.functions {
            for &b in &f.eligible_bins {
                eligible[b] = true;
            }
        }
        let bin_usage: Vec<f64> = loads
            .iter()
            .zip(&inst.bins)
            .zip(&eligible)
            .filter(|(_, &e)| e)
            .map(|((&load, bin), _)| load / bin.residual)
            .collect();
        let (avg, min, max) = if bin_usage.is_empty() {
            (0.0, 0.0, 0.0)
        } else {
            let sum: f64 = bin_usage.iter().sum();
            (
                sum / bin_usage.len() as f64,
                bin_usage.iter().copied().fold(f64::INFINITY, f64::min),
                bin_usage.iter().copied().fold(0.0, f64::max),
            )
        };
        let reliability = aug.reliability(inst);
        Metrics {
            reliability,
            base_reliability: inst.base_reliability(),
            met_expectation: reliability >= inst.expectation,
            total_secondaries: aug.total_secondaries(),
            max_violation_ratio: max,
            bin_usage,
            avg_usage: avg,
            min_usage: min,
            max_usage: max,
            paper_cost: aug.paper_cost(inst),
        }
    }
}

/// Per-algorithm solver-effort summary, always populated (telemetry on or
/// off): the headline numbers `report::render` prints per algorithm.
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize)]
pub enum SolverInfo {
    Ilp {
        nodes: usize,
        lp_iterations: usize,
        incumbent_updates: usize,
        pruned_bound: usize,
        pruned_infeasible: usize,
    },
    Randomized {
        lp_iterations: usize,
        rounds: usize,
        /// Secondaries removed while repairing overshoot / trimming to the
        /// expectation after the best draw was selected.
        repairs: usize,
    },
    Heuristic {
        matching_rounds: usize,
    },
    Greedy {
        steps: usize,
    },
}

/// The result of running one augmentation algorithm on one instance.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub augmentation: Augmentation,
    pub metrics: Metrics,
    pub runtime: Duration,
    pub solver: SolverInfo,
    /// Counter/timing summary from the telemetry recorder the solve ran
    /// under; empty (`Telemetry::default()`) for untraced entry points.
    pub telemetry: obs::Telemetry,
}

impl Outcome {
    /// The outcome of a solve that left its solution in `sol`: a copy of the
    /// solution (entry order included) and its metrics.
    pub fn from_solution(
        inst: &AugmentationInstance,
        sol: &Augmentation,
        solver: SolverInfo,
        runtime: Duration,
        telemetry: obs::Telemetry,
    ) -> Outcome {
        let augmentation = sol.clone();
        let metrics = Metrics::compute(&augmentation, inst);
        Outcome { augmentation, metrics, runtime, solver, telemetry }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{AugmentationInstance, Bin, FunctionSlot};
    use mecnet::graph::NodeId;
    use mecnet::vnf::VnfTypeId;

    /// Two functions, two bins, hand-built.
    fn tiny_instance() -> AugmentationInstance {
        AugmentationInstance {
            functions: vec![
                FunctionSlot {
                    vnf: VnfTypeId(0),
                    demand: 100.0,
                    reliability: 0.8,
                    primary: NodeId(0),
                    eligible_bins: vec![0, 1],
                    max_secondaries: 5,
                    existing_backups: 0,
                },
                FunctionSlot {
                    vnf: VnfTypeId(1),
                    demand: 200.0,
                    reliability: 0.9,
                    primary: NodeId(1),
                    eligible_bins: vec![1],
                    max_secondaries: 2,
                    existing_backups: 0,
                },
            ],
            bins: vec![
                Bin { node: NodeId(0), residual: 300.0 },
                Bin { node: NodeId(1), residual: 400.0 },
            ],
            l: 1,
            expectation: 0.99,
        }
    }

    #[test]
    fn add_merges_per_bin() {
        let mut aug = Augmentation::empty(2);
        aug.add(0, 0, 1);
        aug.add(0, 0, 2);
        aug.add(0, 1, 1);
        aug.add(1, 1, 0); // no-op
        assert_eq!(aug.placements_of(0), &[(0, 3), (1, 1)]);
        assert_eq!(aug.counts(), vec![4, 0]);
        assert_eq!(aug.total_secondaries(), 4);
    }

    #[test]
    fn reliability_from_counts() {
        let inst = tiny_instance();
        let mut aug = Augmentation::empty(2);
        assert!((aug.reliability(&inst) - 0.72).abs() < 1e-12);
        aug.add(0, 0, 1); // f0: R = 0.96
        aug.add(1, 1, 1); // f1: R = 0.99
        assert!((aug.reliability(&inst) - 0.96 * 0.99).abs() < 1e-12);
    }

    #[test]
    fn loads_and_feasibility() {
        let inst = tiny_instance();
        let mut aug = Augmentation::empty(2);
        aug.add(0, 0, 3); // 300 MHz on bin 0 — exactly fits
        aug.add(1, 1, 2); // 400 MHz on bin 1 — exactly fits
        assert_eq!(aug.bin_loads(&inst), vec![300.0, 400.0]);
        assert!(aug.is_capacity_feasible(&inst));
        aug.add(0, 1, 1); // 100 more on bin 1: 500 > 400
        assert!(!aug.is_capacity_feasible(&inst));
    }

    #[test]
    fn locality_check() {
        let inst = tiny_instance();
        let mut aug = Augmentation::empty(2);
        aug.add(1, 1, 1);
        assert!(aug.respects_locality(&inst));
        aug.add(1, 0, 1); // bin 0 is not eligible for f1
        assert!(!aug.respects_locality(&inst));
    }

    #[test]
    fn paper_cost_prefix_sum() {
        let inst = tiny_instance();
        let mut aug = Augmentation::empty(2);
        aug.add(0, 0, 2);
        let expect =
            crate::reliability::paper_cost(0.8, 1) + crate::reliability::paper_cost(0.8, 2);
        assert!((aug.paper_cost(&inst) - expect).abs() < 1e-12);
    }

    #[test]
    fn metrics_usage_ratios() {
        let inst = tiny_instance();
        let mut aug = Augmentation::empty(2);
        aug.add(0, 0, 3); // bin0: 300/300 = 1.0
        aug.add(1, 1, 1); // bin1: 200/400 = 0.5
        let m = Metrics::compute(&aug, &inst);
        assert!((m.avg_usage - 0.75).abs() < 1e-12);
        assert!((m.min_usage - 0.5).abs() < 1e-12);
        assert!((m.max_usage - 1.0).abs() < 1e-12);
        assert_eq!(m.total_secondaries, 4);
        // f0: R(0.8, 3) = 0.9984; f1: R(0.9, 1) = 0.99.
        assert!(!m.met_expectation); // 0.9984*0.99 = 0.98842 < 0.99
        assert!((m.reliability - 0.9984 * 0.99).abs() < 1e-12);
    }

    #[test]
    fn begin_resets_previous_solution() {
        let mut sol = Augmentation::empty(3);
        sol.add(0, 0, 1);
        sol.add(2, 1, 2);
        sol.begin(2); // shrink: only functions 0 and 1 remain live
        assert_eq!(sol.counts(), &[0, 0]);
        assert_eq!(sol.total_secondaries(), 0);
        assert_eq!(sol, Augmentation::empty(2));
        assert_eq!(sol.clone(), Augmentation::empty(2));
        // The reused rows hold the new solution only, entry order included.
        let (mut fresh, mut reordered) = (Augmentation::empty(2), Augmentation::empty(2));
        for (f, b) in [(0, 1), (0, 0), (1, 1)] {
            sol.add(f, b, 1);
            fresh.add(f, b, 1);
        }
        for (f, b) in [(0, 0), (0, 1), (1, 1)] {
            reordered.add(f, b, 1);
        }
        assert_eq!(sol, fresh);
        assert_eq!(sol.clone(), fresh);
        assert_eq!(sol.counts(), reordered.counts());
        assert_ne!(sol, reordered, "equality compares entry order");
    }

    /// The function the trim must remove next from a solution with `counts`,
    /// re-derived from `log_gain` and `function_reliability`: the smallest
    /// last-secondary gain (the first on ties) among functions whose removal
    /// keeps the expectation.
    fn reference_choice(inst: &AugmentationInstance, counts: &[usize]) -> Option<usize> {
        let rel = rel_from_counts(inst, counts);
        if rel < inst.expectation {
            return None;
        }
        let mut best: Option<(f64, usize)> = None;
        for (i, &m) in counts.iter().enumerate() {
            let (r, e) = (inst.functions[i].reliability, inst.functions[i].existing_backups);
            if m == 0 {
                continue;
            }
            let gain = reliability::log_gain(r, e + m);
            let new_rel = rel / reliability::function_reliability(r, e + m)
                * reliability::function_reliability(r, e + m - 1);
            if new_rel >= inst.expectation && best.is_none_or(|(g, _)| gain < g) {
                best = Some((gain, i));
            }
        }
        best.map(|(_, i)| i)
    }

    /// Trim `aug` step by step and in one call. Every step must remove the
    /// reference rule's pick, the trim must stop when the rule has nothing
    /// to remove and never end below `ρ_j` when it started at or above it,
    /// and its tracked loads must stay within rounding of a recomputation.
    fn assert_trim_follows_the_rule(inst: &AugmentationInstance, aug: &Augmentation) {
        let mut tables = LadderTables::default();
        let mut table_of = Vec::new();
        tables.resolve(inst.functions.iter().map(|f| f.reliability), &mut table_of);
        let mut stepped = aug.clone();
        stepped.loads = aug.bin_loads(inst);
        let steps = stepped.trim_loop(inst, &mut tables, &table_of, |this, func| {
            assert_eq!(reference_choice(inst, this.counts()), Some(func), "trim order diverges");
            this.free_one(inst, func);
        });
        assert_eq!(reference_choice(inst, stepped.counts()), None, "trim stopped early");
        let mut trimmed = aug.clone();
        assert_eq!(trimmed.trim_to_expectation(inst, &mut tables), steps);
        assert_eq!(trimmed, stepped);
        if aug.reliability(inst) >= inst.expectation {
            assert!(
                trimmed.reliability(inst) >= inst.expectation,
                "trim undershot the expectation"
            );
        }
        let loads = trimmed.bin_loads(inst);
        for (b, (&got, &want)) in trimmed.loads.iter().zip(&loads).enumerate() {
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "bin {b} load {got} vs {want}"
            );
        }
    }

    #[test]
    fn trim_follows_the_reference_rule() {
        let inst = tiny_instance();
        let mut aug = Augmentation::empty(2);
        // Overshoot the expectation, then trim.
        for (f, b) in [(0, 0), (0, 0), (0, 1), (1, 1), (1, 1)] {
            aug.add(f, b, 1);
        }
        assert_trim_follows_the_rule(&inst, &aug);
        let mut trimmed = aug.clone();
        let mut tables = LadderTables::default();
        assert!(trimmed.trim_to_expectation(&inst, &mut tables) > 0, "the overshoot is trimmed");
    }

    #[test]
    fn trim_follows_the_reference_rule_on_random_overshoots() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        for _ in 0..500 {
            let n_bins = rng.gen_range(1..=5usize);
            let bins = (0..n_bins)
                .map(|v| Bin { node: NodeId(v), residual: rng.gen_range(100.0..1000.0) })
                .collect();
            let chain = rng.gen_range(1..=6usize);
            let functions: Vec<FunctionSlot> = (0..chain)
                .map(|v| FunctionSlot {
                    vnf: VnfTypeId(v),
                    demand: rng.gen_range(20.0..300.0),
                    reliability: rng.gen_range(0.5..0.99),
                    primary: NodeId(0),
                    eligible_bins: (0..n_bins).filter(|_| rng.gen_bool(0.7)).collect(),
                    max_secondaries: 8,
                    existing_backups: rng.gen_range(0..=1usize),
                })
                .collect();
            let mut inst = AugmentationInstance { functions, bins, l: 1, expectation: 0.0 };
            let mut aug = Augmentation::empty(chain);
            for (i, f) in inst.functions.iter().enumerate() {
                for _ in 0..rng.gen_range(0..=6usize) {
                    if let Some(&b) = f.eligible_bins.get(rng.gen_range(0..n_bins)) {
                        aug.add(i, b, 1);
                    }
                }
            }
            // An expectation the solution overshoots by up to 10%.
            inst.expectation = aug.reliability(&inst) * rng.gen_range(0.9..1.0);
            assert_trim_follows_the_rule(&inst, &aug);
        }
    }

    #[test]
    fn metrics_on_empty_instance() {
        let inst = AugmentationInstance {
            functions: Vec::new(),
            bins: Vec::new(),
            l: 1,
            expectation: 0.9,
        };
        let aug = Augmentation::empty(0);
        let m = Metrics::compute(&aug, &inst);
        assert_eq!(m.total_secondaries, 0);
        assert_eq!(m.avg_usage, 0.0);
        assert!((m.reliability - 1.0).abs() < 1e-12);
        assert!(m.met_expectation);
    }
}
