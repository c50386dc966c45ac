//! Exact min-cost maximum matching for ladder-structured rounds, solved over
//! bin-signature classes.
//!
//! Each round of the heuristic's Algorithm 2 matches bins to candidate
//! items, and its graph has a special shape. Function `i` contributes a
//! *ladder* of items `(i, k), (i, k+1), …` whose costs ascend. Every item of
//! one function connects to the same set of usable bins, and an edge costs
//! its item's cost whichever bin it goes to.
//!
//! Because the cost sits on the item, not the edge, a matching's cost is the
//! sum over its matched items. The item sets that some matching covers are
//! the independent sets of a *transversal matroid*. So the min-cost maximum
//! matchings are exactly the matroid's minimum-weight bases, and the matroid
//! greedy finds one: take items cheapest first and keep each one that stays
//! independent of those kept. A bin matters to independence only through its
//! *signature*, the set of functions that can use it. Bins with equal
//! signatures are interchangeable, so the independence test runs as a flow
//! from functions to signature classes. A class's capacity is its bin count.
//!
//! [`LadderMatcher::solve_into`]:
//!
//! 1. Groups the bins into classes by partition refinement: every function
//!    splits each class into the bins it can use and the rest. This costs
//!    `O(Σ usable)` and places no bound on the chain length.
//! 2. Takes ladder heads cheapest first. On equal costs the function pushed
//!    first goes first. A head is kept when an augmenting path in the
//!    function × class flow runs from its function to a class with a free
//!    bin. Otherwise its function is dropped for the rest of the round. Its
//!    later items have the same bins as the rejected head, so they stay
//!    dependent as the kept set grows. Each function's kept items are thus
//!    a prefix of its ladder.
//! 3. Hands out the bins. Inside a class, the bin with the most residual
//!    goes first, then the lowest bin index. Functions take their share of
//!    each class in push order. The pairs come out in hand-out order:
//!    functions in push order, each function's items in ladder order, so
//!    item indices ascend. Callers that want another order sort themselves.
//!
//! The result has the cardinality and the total cost of
//! [`crate::min_cost_max_matching`] on the expanded edge list. All
//! minimum-weight bases share one sorted weight vector, so the two costs
//! differ only by summation order. With `K` classes and `E` function × class
//! edges, one round costs `O(Σ usable + (m + L)·(L + E))` for `m` matched
//! items over `L` functions; `K ≤ min(bins, 2^L)`.
//! `tests/proptest_ladder.rs` checks it against the successive-shortest-path
//! reference.

use crate::Matching;

/// Marks a bin no function of the round can use.
const UNUSED: usize = usize::MAX;

/// Reusable round matcher; see the module docs. Feed one round with
/// [`Self::begin_round`], then [`Self::push_bins`] and [`Self::push_cost`]
/// per function, and solve with [`Self::solve_into`]. All buffers are kept
/// across rounds, so a warm matcher allocates nothing.
#[derive(Debug, Clone, Default)]
pub struct LadderMatcher {
    /// Usable bins of function `j`: `bins[bins_start[j]..bins_start[j + 1]]`.
    bins: Vec<usize>,
    bins_start: Vec<usize>,
    /// Ladder of function `j`: `costs[items_start[j]..items_start[j + 1]]`;
    /// the position in `costs` is the item's index in the output.
    costs: Vec<f64>,
    items_start: Vec<usize>,
    /// Per bin: its class, or [`UNUSED`] when no function with items can use
    /// it. Grown to the largest bin index seen.
    class_of: Vec<usize>,
    /// Distinct usable bins in order of first appearance; marked as each
    /// function gets its first item.
    touched: Vec<usize>,
    /// Refinement state per provisional class: the function that last split
    /// it and the class its usable bins moved to (later the compacted id).
    split_by: Vec<usize>,
    split_to: Vec<usize>,
    /// Bins of class `c`: `class_bins[class_start[c]..class_start[c + 1]]`.
    class_bins: Vec<usize>,
    class_start: Vec<usize>,
    /// Bins of class `c` already matched.
    used: Vec<usize>,
    /// Function × class edges: function `j` owns
    /// `edge_class[adj_start[j]..adj_start[j + 1]]`, and `flow` is the number
    /// of `j`'s kept items that go to that class.
    edge_class: Vec<usize>,
    edge_fn: Vec<usize>,
    adj_start: Vec<usize>,
    flow: Vec<usize>,
    /// Edges into class `c`: `rev[rev_start[c]..rev_start[c + 1]]`.
    rev: Vec<usize>,
    rev_start: Vec<usize>,
    /// Ladder position of each function's next head, or `None` once dropped.
    head: Vec<Option<usize>>,
    /// Augmenting-path search: visit stamps, the edge each class and each
    /// function was reached by, and the function queue.
    stamp: usize,
    class_seen: Vec<usize>,
    fn_seen: Vec<usize>,
    class_via: Vec<usize>,
    fn_via: Vec<usize>,
    queue: Vec<usize>,
}

impl LadderMatcher {
    pub fn new() -> Self {
        Self::default()
    }

    /// Clear the previous round's input.
    pub fn begin_round(&mut self) {
        for &b in &self.touched {
            self.class_of[b] = UNUSED;
        }
        self.touched.clear();
        self.bins.clear();
        self.bins_start.clear();
        self.bins_start.push(0);
        self.costs.clear();
        self.items_start.clear();
        self.items_start.push(0);
        self.class_start.clear();
    }

    /// Start the next function with the bins it can use (no duplicates);
    /// returns how many there are. Its ladder follows via [`Self::push_cost`].
    pub fn push_bins(&mut self, bins: impl IntoIterator<Item = usize>) -> usize {
        let start = self.bins.len();
        self.bins.extend(bins);
        self.bins_start.push(self.bins.len());
        self.items_start.push(self.costs.len());
        self.bins.len() - start
    }

    /// Append the next item to the last function's ladder. Costs must be
    /// finite and must not decrease along a ladder.
    pub fn push_cost(&mut self, cost: f64) {
        let j = self.functions();
        debug_assert!(j > 0, "push_bins starts a function");
        debug_assert!(cost.is_finite(), "non-finite item cost");
        if self.costs.len() == self.items_start[j - 1] {
            // The function's first item makes its bins usable this round.
            for &b in &self.bins[self.bins_start[j - 1]..self.bins_start[j]] {
                if b >= self.class_of.len() {
                    self.class_of.resize(b + 1, UNUSED);
                }
                if self.class_of[b] == UNUSED {
                    self.class_of[b] = 0;
                    self.touched.push(b);
                }
            }
        } else {
            debug_assert!(self.costs[self.costs.len() - 1] <= cost, "ladder costs must ascend");
        }
        self.costs.push(cost);
        self.items_start[j] = self.costs.len();
    }

    /// Functions pushed this round.
    fn functions(&self) -> usize {
        self.bins_start.len() - 1
    }

    /// Distinct bins usable by a function with items: the bins of the
    /// round's graph.
    pub fn usable_bins(&self) -> usize {
        self.touched.len()
    }

    /// Signature classes of the round, once solved (0 before).
    pub fn classes(&self) -> usize {
        self.class_start.len().saturating_sub(1)
    }

    fn has_items(&self, j: usize) -> bool {
        self.items_start[j + 1] > self.items_start[j]
    }

    /// Solve the round; `residual` is indexed by bin. `out.pairs` gets
    /// `(bin, item)` in hand-out order (ascending `item`, where `item`
    /// indexes the pushed costs in push order), and `out.cost` their summed
    /// cost.
    pub fn solve_into(&mut self, residual: &[f64], out: &mut Matching) {
        self.build_classes();
        self.build_edges();
        let kept = self.greedy();
        self.hand_out(residual, out);
        debug_assert_eq!(out.pairs.len(), kept);
    }

    /// Step 1: partition refinement of the usable bins into signature
    /// classes, then the class → bins lists.
    fn build_classes(&mut self) {
        // Provisional class 0 holds every usable bin; function `j` moves
        // the bins it can use out of each class into a fresh one.
        self.split_by.clear();
        self.split_to.clear();
        self.split_by.push(UNUSED);
        self.split_to.push(0);
        for j in 0..self.functions() {
            if !self.has_items(j) {
                continue;
            }
            for &b in &self.bins[self.bins_start[j]..self.bins_start[j + 1]] {
                let c = self.class_of[b];
                if self.split_by[c] != j {
                    let fresh = self.split_by.len();
                    // The fresh class counts as split by `j` already, so a
                    // repeated bin stays put.
                    self.split_by.push(j);
                    self.split_to.push(fresh);
                    self.split_by[c] = j;
                    self.split_to[c] = fresh;
                }
                self.class_of[b] = self.split_to[c];
            }
        }
        // Compact the non-empty classes in order of first appearance and
        // count their bins.
        for s in &mut self.split_to {
            *s = UNUSED;
        }
        self.class_start.clear();
        self.class_start.push(0);
        for &b in &self.touched {
            let c = self.class_of[b];
            if self.split_to[c] == UNUSED {
                self.split_to[c] = self.class_start.len() - 1;
                self.class_start.push(0);
            }
            let k = self.split_to[c];
            self.class_of[b] = k;
            self.class_start[k + 1] += 1;
        }
        for k in 1..self.class_start.len() {
            self.class_start[k] += self.class_start[k - 1];
        }
        // Fill each class's bin list (counting sort, `used` as the cursor).
        let classes = self.classes();
        self.used.clear();
        self.used.resize(classes, 0);
        self.class_bins.clear();
        self.class_bins.resize(self.touched.len(), 0);
        for &b in &self.touched {
            let c = self.class_of[b];
            self.class_bins[self.class_start[c] + self.used[c]] = b;
            self.used[c] += 1;
        }
        self.used.iter_mut().for_each(|u| *u = 0);
    }

    /// The function × class edges (each function's classes in order of first
    /// appearance in its bin list) and their reverse lists.
    fn build_edges(&mut self) {
        let classes = self.classes();
        self.edge_class.clear();
        self.edge_fn.clear();
        self.adj_start.clear();
        self.adj_start.push(0);
        self.class_seen.clear();
        self.class_seen.resize(classes, UNUSED);
        for j in 0..self.functions() {
            if self.has_items(j) {
                for &b in &self.bins[self.bins_start[j]..self.bins_start[j + 1]] {
                    let c = self.class_of[b];
                    if self.class_seen[c] != j {
                        self.class_seen[c] = j;
                        self.edge_class.push(c);
                        self.edge_fn.push(j);
                    }
                }
            }
            self.adj_start.push(self.edge_class.len());
        }
        self.flow.clear();
        self.flow.resize(self.edge_class.len(), 0);
        self.rev_start.clear();
        self.rev_start.resize(classes + 1, 0);
        for &c in &self.edge_class {
            self.rev_start[c + 1] += 1;
        }
        for c in 1..=classes {
            self.rev_start[c] += self.rev_start[c - 1];
        }
        self.rev.clear();
        self.rev.resize(self.edge_class.len(), 0);
        // `class_seen` doubles as the fill cursor.
        self.class_seen.iter_mut().for_each(|s| *s = 0);
        for (e, &c) in self.edge_class.iter().enumerate() {
            self.rev[self.rev_start[c] + self.class_seen[c]] = e;
            self.class_seen[c] += 1;
        }
        // Fresh stamps for the path search.
        self.stamp = 0;
        self.class_seen.iter_mut().for_each(|s| *s = 0);
        self.fn_seen.clear();
        self.fn_seen.resize(self.functions(), 0);
        self.class_via.resize(classes, 0);
        self.fn_via.resize(self.functions(), 0);
    }

    /// Step 2: the matroid greedy. Returns how many items it kept.
    fn greedy(&mut self) -> usize {
        self.head.clear();
        for j in 0..self.functions() {
            self.head.push(self.has_items(j).then_some(self.items_start[j]));
        }
        let capacity = self.touched.len();
        let mut kept = 0;
        while kept < capacity {
            let mut best: Option<(usize, f64)> = None;
            for (j, h) in self.head.iter().enumerate() {
                if let Some(h) = *h {
                    if best.is_none_or(|(_, c)| self.costs[h] < c) {
                        best = Some((j, self.costs[h]));
                    }
                }
            }
            let Some((j, _)) = best else { break };
            if self.augment(j) {
                kept += 1;
                let next = self.head[j].map(|h| h + 1);
                self.head[j] = next.filter(|&h| h < self.items_start[j + 1]);
            } else {
                self.head[j] = None;
            }
        }
        kept
    }

    /// Route one more unit from function `src` to a class with a free bin,
    /// rerouting earlier units along an augmenting path when needed (BFS
    /// over functions). Returns false when no such path exists.
    fn augment(&mut self, src: usize) -> bool {
        self.stamp += 1;
        let stamp = self.stamp;
        self.queue.clear();
        self.queue.push(src);
        self.fn_seen[src] = stamp;
        let mut qi = 0;
        while qi < self.queue.len() {
            let f = self.queue[qi];
            qi += 1;
            for e in self.adj_start[f]..self.adj_start[f + 1] {
                let c = self.edge_class[e];
                if self.class_seen[c] == stamp {
                    continue;
                }
                self.class_seen[c] = stamp;
                self.class_via[c] = e;
                if self.used[c] < self.class_start[c + 1] - self.class_start[c] {
                    self.apply_path(src, c);
                    return true;
                }
                for r in self.rev_start[c]..self.rev_start[c + 1] {
                    let back = self.rev[r];
                    let g = self.edge_fn[back];
                    if self.flow[back] > 0 && self.fn_seen[g] != stamp {
                        self.fn_seen[g] = stamp;
                        self.fn_via[g] = back;
                        self.queue.push(g);
                    }
                }
            }
        }
        false
    }

    /// Push one unit along the path the search recorded, ending at the free
    /// class `c`.
    fn apply_path(&mut self, src: usize, mut c: usize) {
        self.used[c] += 1;
        loop {
            let e = self.class_via[c];
            self.flow[e] += 1;
            let f = self.edge_fn[e];
            if f == src {
                return;
            }
            let back = self.fn_via[f];
            self.flow[back] -= 1;
            c = self.edge_class[back];
        }
    }

    /// Step 3: bins to items.
    fn hand_out(&mut self, residual: &[f64], out: &mut Matching) {
        // Most residual first, then the lowest bin index.
        let first = |a: &usize, b: &usize| residual[*b].total_cmp(&residual[*a]).then(a.cmp(b));
        for c in 0..self.classes() {
            let class = &mut self.class_bins[self.class_start[c]..self.class_start[c + 1]];
            match self.used[c] {
                0 => {}
                1 => {
                    let best = (0..class.len())
                        .min_by(|&i, &k| first(&class[i], &class[k]))
                        .expect("a used class has bins");
                    class.swap(0, best);
                }
                _ => class.sort_unstable_by(first),
            }
            // From here on `used` is the class's hand-out cursor.
            self.used[c] = self.class_start[c];
        }
        out.pairs.clear();
        out.cost = 0.0;
        for j in 0..self.functions() {
            let mut item = self.items_start[j];
            for e in self.adj_start[j]..self.adj_start[j + 1] {
                let c = self.edge_class[e];
                for _ in 0..self.flow[e] {
                    out.pairs.push((self.class_bins[self.used[c]], item));
                    out.cost += self.costs[item];
                    self.used[c] += 1;
                    item += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(n_bins: usize, funcs: &[(&[usize], &[f64])]) -> (Matching, usize) {
        let mut m = LadderMatcher::new();
        m.begin_round();
        for (bins, costs) in funcs {
            m.push_bins(bins.iter().copied());
            for &c in *costs {
                m.push_cost(c);
            }
        }
        let mut out = Matching { pairs: Vec::new(), cost: 0.0 };
        m.solve_into(&vec![1.0; n_bins], &mut out);
        (out, m.classes())
    }

    #[test]
    fn single_function_fills_its_bins_with_its_cheapest_items() {
        let (m, classes) = solve(3, &[(&[0, 1, 2], &[1.0, 2.0, 3.0, 4.0])]);
        assert_eq!(classes, 1);
        assert_eq!(m.pairs, vec![(0, 0), (1, 1), (2, 2)]);
        assert_eq!(m.cost, 6.0);
    }

    #[test]
    fn rerouting_keeps_the_matching_maximum() {
        // f0 takes the shared bin first (cheapest head); f1 can only use it,
        // so f0 must move to its private bin.
        let (m, classes) = solve(2, &[(&[0, 1], &[1.0]), (&[1], &[2.0])]);
        assert_eq!(classes, 2);
        assert_eq!(m.pairs, vec![(0, 0), (1, 1)]);
        assert_eq!(m.cost, 3.0);
    }

    #[test]
    fn dropped_function_leaves_room_for_cheaper_rivals() {
        // One bin: the cheapest head across functions (item 2) wins it.
        let (m, _) = solve(1, &[(&[0], &[5.0, 6.0]), (&[0], &[1.0])]);
        assert_eq!(m.pairs, vec![(0, 2)]);
        assert_eq!(m.cost, 1.0);
    }

    #[test]
    fn pairs_come_out_in_hand_out_order() {
        // Two private classes; inside f0's, bin 2 has the most residual.
        // Sorted by bin this would read (0, 2), (1, 3), (2, 0), (3, 1).
        let mut m = LadderMatcher::new();
        m.begin_round();
        m.push_bins([2, 3]);
        m.push_cost(1.0);
        m.push_cost(2.0);
        m.push_bins([0, 1]);
        m.push_cost(1.5);
        m.push_cost(2.5);
        let mut out = Matching { pairs: Vec::new(), cost: 0.0 };
        m.solve_into(&[1.0, 1.0, 5.0, 3.0], &mut out);
        assert_eq!(out.pairs, vec![(2, 0), (3, 1), (0, 2), (1, 3)]);
    }

    #[test]
    fn equal_costs_go_to_the_earlier_function() {
        let (m, _) = solve(1, &[(&[0], &[1.0]), (&[0], &[1.0])]);
        assert_eq!(m.pairs, vec![(0, 0)]);
    }

    #[test]
    fn most_residual_bin_goes_first_inside_a_class() {
        let mut m = LadderMatcher::new();
        m.begin_round();
        m.push_bins([0, 1, 2]);
        m.push_cost(1.0);
        m.push_cost(2.0);
        let mut out = Matching { pairs: Vec::new(), cost: 0.0 };
        m.solve_into(&[5.0, 9.0, 9.0], &mut out);
        // Bins 1 and 2 tie on residual; the lower index takes the cheaper
        // item.
        assert_eq!(out.pairs, vec![(1, 0), (2, 1)]);
    }

    #[test]
    fn functions_without_items_do_not_split_classes() {
        let (m, classes) = solve(3, &[(&[0, 1], &[1.0, 2.0]), (&[1, 2], &[])]);
        assert_eq!(classes, 1);
        assert_eq!(m.cardinality(), 2);
    }
}
