//! Minimum-cost **maximum** bipartite matching on sparse edge lists.
//!
//! "Maximum" is lexicographically first: among all matchings of maximum
//! cardinality, one of minimum total cost is returned. This is exactly the
//! object Algorithm 2 of the paper extracts from each auxiliary graph `G_l`.

use crate::mcmf::{EdgeId, McmfGraph};

/// A matching between `left` nodes (cloudlets in the paper) and `right` nodes
/// (candidate secondary VNF instances).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Matching {
    /// Matched pairs `(left, right)`, sorted by left index.
    pub pairs: Vec<(usize, usize)>,
    /// Total cost of the matched edges.
    pub cost: f64,
}

impl Matching {
    pub fn cardinality(&self) -> usize {
        self.pairs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// Compute a minimum-cost maximum matching.
///
/// * `n_left`, `n_right` — sizes of the two node sets.
/// * `edges` — `(left, right, cost)` triples; parallel edges are allowed (the
///   cheaper one wins), costs must be finite. Each left and each right node is
///   matched at most once.
///
/// Runs successive-shortest-path min-cost max-flow on the unit-capacity
/// network, `O(matching · E log V)`.
///
/// # Panics
/// On out-of-range endpoints or non-finite costs.
pub fn min_cost_max_matching(
    n_left: usize,
    n_right: usize,
    edges: &[(usize, usize, f64)],
) -> Matching {
    let s = n_left + n_right;
    let t = s + 1;
    let mut g = McmfGraph::new(n_left + n_right + 2);
    let edge_ids: Vec<EdgeId> = edges
        .iter()
        .map(|&(l, r, c)| {
            assert!(l < n_left, "left endpoint {l} out of range (n_left = {n_left})");
            assert!(r < n_right, "right endpoint {r} out of range (n_right = {n_right})");
            assert!(c.is_finite(), "non-finite edge cost");
            g.add_edge(l, n_left + r, 1, c)
        })
        .collect();
    for l in 0..n_left {
        g.add_edge(s, l, 1, 0.0);
    }
    for r in 0..n_right {
        g.add_edge(n_left + r, t, 1, 0.0);
    }
    let result = g.min_cost_max_flow(s, t, None);

    let mut out = Matching { pairs: Vec::new(), cost: 0.0 };
    // Collect saturated matching arcs; with parallel edges only count a left
    // node once (flow conservation guarantees a single saturated arc per left
    // node anyway).
    for (&(l, r, c), &e) in edges.iter().zip(&edge_ids) {
        if g.flow_on(e) == 1 {
            out.pairs.push((l, r));
            out.cost += c;
        }
    }
    out.pairs.sort_unstable();
    debug_assert_eq!(out.pairs.len(), result.flow as usize);
    debug_assert!((out.cost - result.cost).abs() < 1e-6 * (1.0 + out.cost.abs()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        let m = min_cost_max_matching(3, 3, &[]);
        assert!(m.is_empty());
        assert_eq!(m.cost, 0.0);
    }

    #[test]
    fn perfect_matching_cheapest() {
        // 2x2 complete; assignment problem.
        let edges = [(0, 0, 1.0), (0, 1, 4.0), (1, 0, 2.0), (1, 1, 1.5)];
        let m = min_cost_max_matching(2, 2, &edges);
        assert_eq!(m.cardinality(), 2);
        assert!((m.cost - 2.5).abs() < 1e-9); // (0,0) + (1,1)
        let mut pairs = m.pairs.clone();
        pairs.sort_unstable();
        assert_eq!(pairs, vec![(0, 0), (1, 1)]);
    }

    #[test]
    fn maximum_beats_cheap() {
        // Taking the cheap edge (0,0) alone blocks the only partner of left 1;
        // maximum matching must take (0,1) + (1,0) even though it costs more.
        let edges = [(0, 0, 0.1), (0, 1, 5.0), (1, 0, 5.0)];
        let m = min_cost_max_matching(2, 2, &edges);
        assert_eq!(m.cardinality(), 2);
        assert!((m.cost - 10.0).abs() < 1e-9);
    }

    #[test]
    fn unbalanced_sides() {
        let edges = [(0, 0, 3.0), (0, 1, 1.0), (0, 2, 2.0)];
        let m = min_cost_max_matching(1, 3, &edges);
        assert_eq!(m.cardinality(), 1);
        assert_eq!(m.pairs, vec![(0, 1)]);
    }

    #[test]
    fn parallel_edges_cheaper_wins() {
        let edges = [(0, 0, 9.0), (0, 0, 2.0)];
        let m = min_cost_max_matching(1, 1, &edges);
        assert_eq!(m.cardinality(), 1);
        assert!((m.cost - 2.0).abs() < 1e-9);
    }

    #[test]
    fn isolated_nodes_stay_unmatched() {
        let edges = [(0, 0, 1.0)];
        let m = min_cost_max_matching(5, 5, &edges);
        assert_eq!(m.pairs, vec![(0, 0)]);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_bad_endpoint() {
        min_cost_max_matching(1, 1, &[(2, 0, 1.0)]);
    }
}
