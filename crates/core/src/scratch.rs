//! Reusable solver scratch: the buffers the per-request hot path needs.
//!
//! The streaming pipelines solve one augmentation instance per admitted
//! request; at ~µs solve times, per-request heap allocation is a first-order
//! cost. [`SolveScratch`] owns every working buffer the heuristic and greedy
//! solvers (and the matching layer underneath) touch, so a warm scratch makes
//! the solve loop allocation-free — `crates/bench/benches/solve_alloc.rs`
//! pins "0 heap allocations per request after warm-up" with a counting global
//! allocator.
//!
//! Ownership rules (also in DESIGN.md "Hot path"):
//!
//! * One `SolveScratch` per stream — never shared between threads.
//! * Buffers carry no information across solves: every solver clears or
//!   overwrites each buffer before reading it, so solver output is a pure
//!   function of `(instance, config, RNG state)` regardless of what ran on
//!   the scratch before. The one cache, [`SolveScratch::tables`], holds pure
//!   functions of a reliability value, so a hit equals a direct call.
//!   `tests/scratch_reuse.rs` pins exactly this: every algorithm solves each
//!   instance of a mixed-size set on a fresh scratch and on one shared
//!   scratch in forward and reverse order, bit-equal.
//! * Growth is high-water-mark only: a buffer grows to the largest instance
//!   seen and stays there.

use crate::instance::AugmentationInstance;
use crate::reliability::{self, LadderTables};
use crate::solution::Augmentation;
use matching::{LadderMatcher, Matching};
use mecnet::graph::NodeId;

/// Chain reliability from per-function secondary counts, without building an
/// [`Augmentation`]. Bit-identical to [`Augmentation::reliability`]: same
/// per-function `function_reliability` terms multiplied in the same order.
pub fn rel_from_counts(inst: &AugmentationInstance, counts: &[usize]) -> f64 {
    debug_assert_eq!(counts.len(), inst.functions.len());
    inst.functions
        .iter()
        .zip(counts)
        .map(|(f, &m)| reliability::function_reliability(f.reliability, m + f.existing_backups))
        .product()
}

/// An [`Augmentation`] under construction, stored in reusable buffers.
///
/// `rows` mirrors `Augmentation::placements` exactly — same find-or-push
/// `add`, same decrement-and-`swap_remove` `remove` — so [`Self::materialize`]
/// produces the identical struct (entry order included) that the legacy
/// allocating path would have built.
#[derive(Debug, Clone, Default)]
pub struct SolutionScratch {
    /// Per-function `(bin, count)` rows; only `rows[..active]` are live.
    rows: Vec<Vec<(usize, usize)>>,
    active: usize,
    /// Per-function secondary counts, maintained incrementally (what
    /// `Augmentation::counts()` would recompute).
    counts: Vec<usize>,
    /// Per-bin loads, kept current through [`Self::trim_to_expectation`].
    loads: Vec<f64>,
    /// Per function, for its current count `m` (and `e` existing backups):
    /// `R(e + m)`, `R(e + m - 1)` and the log gain of its last secondary —
    /// the terms [`Self::trim_to_expectation`] reads every step.
    rel_now: Vec<f64>,
    rel_less: Vec<f64>,
    last_gain: Vec<f64>,
    /// [`Self::commit_one_round_trimmed`]'s view of one function's round
    /// placements: `(load/residual, bin)` per entry in row order, and the
    /// [`FreeLargest`] buffers.
    run: Vec<(f64, usize)>,
    freeing: FreeLargest,
}

impl SolutionScratch {
    /// Start a fresh solution for a chain of `chain_len` functions.
    pub fn begin(&mut self, chain_len: usize) {
        if self.rows.len() < chain_len {
            self.rows.resize_with(chain_len, Vec::new);
        }
        for row in &mut self.rows[..chain_len] {
            row.clear();
        }
        self.active = chain_len;
        self.counts.clear();
        self.counts.resize(chain_len, 0);
    }

    /// Record one more secondary of `func` on `bin` (mirror of
    /// [`Augmentation::add`] with count 1).
    pub fn add(&mut self, func: usize, bin: usize) {
        debug_assert!(func < self.active);
        let row = &mut self.rows[func];
        match row.iter_mut().find(|(b, _)| *b == bin) {
            Some((_, c)) => *c += 1,
            None => row.push((bin, 1)),
        }
        self.counts[func] += 1;
    }

    /// Remove one secondary of `func` from `bin` (mirror of
    /// [`Augmentation::remove`]).
    pub fn remove(&mut self, func: usize, bin: usize) -> bool {
        let row = &mut self.rows[func];
        if let Some(pos) = row.iter().position(|&(b, c)| b == bin && c > 0) {
            row[pos].1 -= 1;
            if row[pos].1 == 0 {
                row.swap_remove(pos);
            }
            self.counts[func] -= 1;
            true
        } else {
            false
        }
    }

    /// Per-function secondary counts of the solution under construction.
    pub fn counts(&self) -> &[usize] {
        &self.counts[..self.active]
    }

    /// Function `func`'s `(bin, count)` entries, in the order
    /// [`Augmentation::placements_of`] would list them.
    pub fn row(&self, func: usize) -> &[(usize, usize)] {
        &self.rows[..self.active][func]
    }

    /// Replace the solution with `aug`'s rows (entry order included): how
    /// the solvers that build an owned [`Augmentation`] (the ILP and the
    /// randomized algorithm) leave their result here.
    pub fn load(&mut self, aug: &Augmentation) {
        self.begin(aug.chain_len());
        for func in 0..aug.chain_len() {
            let row = aug.placements_of(func);
            self.rows[func].extend_from_slice(row);
            self.counts[func] = row.iter().map(|&(_, c)| c).sum();
        }
    }

    /// Load in MHz on each bin, into `loads`: the sums
    /// [`Augmentation::bin_loads`] forms for the materialized rows, in its
    /// order, so bit for bit the same.
    pub fn bin_loads_into(&self, inst: &AugmentationInstance, loads: &mut Vec<f64>) {
        loads.clear();
        loads.resize(inst.bins.len(), 0.0);
        for (i, row) in self.rows[..self.active].iter().enumerate() {
            let demand = inst.functions[i].demand;
            for &(b, c) in row {
                loads[b] += demand * c as f64;
            }
        }
    }

    /// Current chain reliability (bit-identical to what
    /// `Augmentation::reliability` would return for the materialized rows).
    pub fn reliability(&self, inst: &AugmentationInstance) -> f64 {
        rel_from_counts(inst, self.counts())
    }

    /// Refresh function `i`'s cached trim terms from its current count.
    fn refresh_trim_terms(&mut self, inst: &AugmentationInstance, i: usize) {
        let (r, e, m) =
            (inst.functions[i].reliability, inst.functions[i].existing_backups, self.counts[i]);
        self.rel_now[i] = reliability::function_reliability(r, e + m);
        if m > 0 {
            self.rel_less[i] = reliability::function_reliability(r, e + m - 1);
            self.last_gain[i] = reliability::log_gain(r, e + m);
        }
    }

    /// Mirror of [`Augmentation::trim_to_expectation`]: the same removal
    /// order (smallest-gain function whose removal keeps the expectation)
    /// from the same floating-point expressions, freeing the function's
    /// most-loaded bin. Per removal it costs `O(L + row)`: bin loads are
    /// computed once and updated on the touched bin, so a bin choice can
    /// differ from the reference's only through load rounding. No
    /// allocation.
    pub fn trim_to_expectation(&mut self, inst: &AugmentationInstance) -> usize {
        self.trim_with(inst, |_| {})
    }

    /// [`Self::trim_to_expectation`], reporting each trimmed function.
    fn trim_with(&mut self, inst: &AugmentationInstance, mut on_trim: impl FnMut(usize)) -> usize {
        self.loads.clear();
        self.loads.resize(inst.bins.len(), 0.0);
        for (i, row) in self.rows[..self.active].iter().enumerate() {
            let demand = inst.functions[i].demand;
            for &(b, c) in row {
                self.loads[b] += demand * c as f64;
            }
        }
        for v in [&mut self.rel_now, &mut self.rel_less, &mut self.last_gain] {
            v.clear();
            v.resize(self.active, 0.0);
        }
        for i in 0..self.active {
            self.refresh_trim_terms(inst, i);
        }
        let mut removed = 0;
        loop {
            // The product `rel_from_counts` forms, term for term.
            let rel: f64 = self.rel_now.iter().copied().product();
            if rel < inst.expectation {
                break;
            }
            let mut best: Option<(f64, usize)> = None; // (gain, func)
            for (i, &m) in self.counts().iter().enumerate() {
                if m == 0 {
                    continue;
                }
                let gain = self.last_gain[i];
                let new_rel = rel / self.rel_now[i] * self.rel_less[i];
                if new_rel >= inst.expectation && best.is_none_or(|(g, _)| gain < g) {
                    best = Some((gain, i));
                }
            }
            let Some((_, func)) = best else { break };
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
            self.refresh_trim_terms(inst, func);
            on_trim(func);
            removed += 1;
        }
        removed
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
    /// frees its bins on its own, by the rule of the reference trim: largest
    /// load/residual first, ties to the last row entry, `swap_remove` order.
    /// Only the survivors are written.
    pub fn commit_one_round_trimmed(
        &mut self,
        inst: &AugmentationInstance,
        tables: &mut LadderTables,
        table_of: &[usize],
        placements: impl Iterator<Item = (usize, usize)> + Clone,
    ) -> usize {
        debug_assert!(self.counts().iter().all(|&m| m == 0), "needs an empty solution");
        for (func, _) in placements.clone() {
            self.counts[func] += 1;
        }
        let removed = self.trim_counts(inst, tables, table_of);
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

    /// The function choice of [`Self::trim_with`] on the counts alone, its
    /// `R` terms read from `tables`: decrements `counts` and returns how many
    /// secondaries it removed. Leaves the rows alone.
    fn trim_counts(
        &mut self,
        inst: &AugmentationInstance,
        tables: &mut LadderTables,
        table_of: &[usize],
    ) -> usize {
        for v in [&mut self.rel_now, &mut self.rel_less, &mut self.last_gain] {
            v.clear();
            v.resize(self.active, 0.0);
        }
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
        for i in 0..self.active {
            refresh(self, i);
        }
        let mut removed = 0;
        loop {
            let rel: f64 = self.rel_now.iter().copied().product();
            if rel < inst.expectation {
                break;
            }
            let mut best: Option<(f64, usize)> = None; // (gain, func)
            for (i, &m) in self.counts().iter().enumerate() {
                if m == 0 {
                    continue;
                }
                let gain = self.last_gain[i];
                let new_rel = rel / self.rel_now[i] * self.rel_less[i];
                if new_rel >= inst.expectation && best.is_none_or(|(g, _)| gain < g) {
                    best = Some((gain, i));
                }
            }
            let Some((_, func)) = best else { break };
            self.counts[func] -= 1;
            refresh(self, func);
            removed += 1;
        }
        removed
    }

    /// Copy the rows out into an owned [`Augmentation`] — identical (entry
    /// order included) to the one the allocating path would have built.
    pub fn materialize(&self) -> Augmentation {
        let mut aug = Augmentation::empty(self.active);
        for (i, row) in self.rows[..self.active].iter().enumerate() {
            for &(b, c) in row {
                aug.add(i, b, c);
            }
        }
        aug
    }
}

/// Buffers of [`FreeLargest::keep`].
#[derive(Debug, Clone, Default)]
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
    /// of them one at a time, the way [`SolutionScratch::trim_with`] frees a
    /// function's one-secondary bins: the largest key goes, ties to the last
    /// entry, removed by `swap_remove`. Returns the survivors' entry ids in
    /// their final row order, in `O(n log n)` rather than the `O(n²)` of
    /// freeing one by one.
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

/// Working buffers of the heuristic's matching loop (the greedy baseline
/// reuses `residual`).
#[derive(Debug, Clone, Default)]
pub struct HeuristicScratch {
    pub cap: Vec<usize>,
    pub next_k: Vec<usize>,
    /// Per function: its table in [`SolveScratch::tables`].
    pub table_of: Vec<usize>,
    pub residual: Vec<f64>,
    /// Right item index -> `(func, k)`.
    pub item_of: Vec<(usize, usize)>,
    pub placed_per_func: Vec<usize>,
}

/// Buffers of the stream engine's own per-request steps around the solve:
/// the request's demands, its primaries, its per-bin loads and its debit
/// list. The engine owns one next to its [`SolveScratch`].
#[derive(Debug, Clone, Default)]
pub(crate) struct CommitScratch {
    pub demands: Vec<f64>,
    /// `locations[i]` hosts the primary of chain position `i`.
    pub locations: Vec<NodeId>,
    pub loads: Vec<f64>,
    pub debits: Vec<(NodeId, f64)>,
}

/// All scratch state one stream owns.
#[derive(Debug, Clone)]
pub struct SolveScratch {
    pub sol: SolutionScratch,
    pub heur: HeuristicScratch,
    /// Output slot of the heuristic's round matcher.
    pub matching_out: Matching,
    /// The heuristic's round matcher; its input is rebuilt every round.
    pub ladder: LadderMatcher,
    /// `R`, `ln R` and Eq. 3 cost per instance reliability, read by the
    /// heuristic's round enumeration, stop check and trim.
    pub tables: LadderTables,
    /// Revised-simplex workspace (factorization + eta-file buffers) reused by
    /// the exact ILP path so branch-and-bound node re-solves allocate nothing.
    /// [`milp::solve_milp_with_ws`] clears any carried basis at entry, so only
    /// capacity — never state — survives across solves.
    pub lp: milp::LpWorkspace,
}

impl Default for SolveScratch {
    fn default() -> Self {
        Self::new()
    }
}

impl SolveScratch {
    pub fn new() -> Self {
        SolveScratch {
            sol: SolutionScratch::default(),
            heur: HeuristicScratch::default(),
            matching_out: Matching { pairs: Vec::new(), cost: 0.0 },
            ladder: LadderMatcher::new(),
            tables: LadderTables::default(),
            lp: milp::LpWorkspace::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::{Bin, FunctionSlot};
    use mecnet::graph::NodeId;
    use mecnet::vnf::VnfTypeId;

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
    fn mirrors_augmentation_add_remove_and_reliability() {
        let inst = tiny_instance();
        let mut aug = Augmentation::empty(2);
        let mut sol = SolutionScratch::default();
        sol.begin(2);
        for (f, b) in [(0, 0), (0, 0), (0, 1), (1, 1)] {
            aug.add(f, b, 1);
            sol.add(f, b);
        }
        assert_eq!(sol.counts(), aug.counts().as_slice());
        assert_eq!(sol.reliability(&inst).to_bits(), aug.reliability(&inst).to_bits());
        assert_eq!(sol.materialize(), aug);
        assert_eq!(sol.remove(0, 0), aug.remove(0, 0));
        assert_eq!(sol.remove(1, 0), aug.remove(1, 0)); // nothing there: false
        assert_eq!(sol.materialize(), aug);
    }

    /// The function the reference trim removes next from `aug`: the
    /// smallest last-secondary gain among functions whose removal keeps the
    /// expectation (the rule of [`Augmentation::trim_to_expectation`]).
    fn reference_choice(inst: &AugmentationInstance, aug: &Augmentation) -> Option<usize> {
        let rel = aug.reliability(inst);
        if rel < inst.expectation {
            return None;
        }
        let mut best: Option<(f64, usize)> = None;
        for (i, &m) in aug.counts().iter().enumerate() {
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

    /// Trim the same solution both ways. The mirror must trim the functions
    /// the reference rule picks, in its order, remove as many secondaries
    /// per function, end on bit-equal reliability and stop at `ρ_j`; only
    /// the bins it frees may differ (load rounding).
    fn assert_trim_mirrors(
        inst: &AugmentationInstance,
        aug: &Augmentation,
        sol: &mut SolutionScratch,
    ) {
        let mut order = Vec::new();
        let removed = sol.trim_with(inst, |f| order.push(f));
        let mut reference = aug.clone();
        assert_eq!(removed, reference.trim_to_expectation(inst));
        assert_eq!(sol.counts(), reference.counts().as_slice());
        assert_eq!(sol.reliability(inst).to_bits(), reference.reliability(inst).to_bits());
        let mut replay = aug.clone();
        for &f in &order {
            assert_eq!(reference_choice(inst, &replay), Some(f), "trim order diverges");
            let bin = replay.placements_of(f)[0].0;
            replay.remove(f, bin);
        }
        assert_eq!(reference_choice(inst, &replay), None, "trim stopped early");
        if aug.reliability(inst) >= inst.expectation {
            assert!(sol.reliability(inst) >= inst.expectation, "trim undershot the expectation");
        }
        let loads = sol.materialize().bin_loads(inst);
        for (b, (&got, &want)) in sol.loads.iter().zip(&loads).enumerate() {
            assert!(
                (got - want).abs() <= 1e-9 * want.abs().max(1.0),
                "bin {b} load {got} vs {want}"
            );
        }
    }

    #[test]
    fn trim_mirror_matches_augmentation_trim() {
        let inst = tiny_instance();
        let mut aug = Augmentation::empty(2);
        let mut sol = SolutionScratch::default();
        sol.begin(2);
        // Overshoot the expectation, then trim both ways.
        for (f, b) in [(0, 0), (0, 0), (0, 1), (1, 1), (1, 1)] {
            aug.add(f, b, 1);
            sol.add(f, b);
        }
        assert_trim_mirrors(&inst, &aug, &mut sol);
        assert!(sol.counts().iter().sum::<usize>() < 5, "the overshoot is trimmed");
    }

    #[test]
    fn trim_mirror_matches_augmentation_trim_on_random_overshoots() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(20);
        let mut sol = SolutionScratch::default();
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
            sol.begin(chain);
            for (i, f) in inst.functions.iter().enumerate() {
                for _ in 0..rng.gen_range(0..=6usize) {
                    if let Some(&b) = f.eligible_bins.get(rng.gen_range(0..n_bins)) {
                        aug.add(i, b, 1);
                        sol.add(i, b);
                    }
                }
            }
            // An expectation the solution overshoots by up to 10%.
            inst.expectation = aug.reliability(&inst) * rng.gen_range(0.9..1.0);
            assert_trim_mirrors(&inst, &aug, &mut sol);
        }
    }

    #[test]
    fn begin_resets_previous_solution() {
        let inst = tiny_instance();
        let mut sol = SolutionScratch::default();
        sol.begin(2);
        sol.add(0, 0);
        sol.add(1, 1);
        sol.begin(1); // shrink: only function 0 remains live
        assert_eq!(sol.counts(), &[0]);
        let aug = sol.materialize();
        assert_eq!(aug.chain_len(), 1);
        assert_eq!(aug.total_secondaries(), 0);
        assert!((rel_from_counts(&inst, &[0, 0]) - 0.72).abs() < 1e-12);
    }
}
