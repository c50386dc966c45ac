//! Min-cost max-flow via successive shortest paths with Johnson potentials.
//!
//! Costs are `f64` (the reliability-augmentation costs are `-log` marginals,
//! i.e. non-negative reals); capacities are `i64`. Dijkstra runs on reduced
//! costs, which stay non-negative once potentials are initialized — by zeros
//! when all arc costs are non-negative, otherwise by one Bellman–Ford pass.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Tolerance under which a reduced cost is clamped to zero (guards Dijkstra
/// against `-1e-17`-style round-off).
const COST_EPS: f64 = 1e-12;

#[derive(Debug, Clone)]
struct Arc {
    to: usize,
    cap: i64,
    cost: f64,
}

/// Handle to an arc added with [`McmfGraph::add_edge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EdgeId(usize);

/// Result of a max-flow computation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowResult {
    /// Total units pushed from source to sink.
    pub flow: i64,
    /// Total cost of the flow (Σ flow·cost over arcs).
    pub cost: f64,
}

/// A directed flow network with real-valued arc costs.
///
/// The graph owns its shortest-path working arrays, so repeated
/// [`McmfGraph::min_cost_max_flow`] calls on one graph reuse them.
#[derive(Debug, Clone)]
pub struct McmfGraph {
    arcs: Vec<Arc>,       // forward arc at even index, residual at odd
    adj: Vec<Vec<usize>>, // node -> arc indices
    has_negative_cost: bool,
    // Reusable workspace for `min_cost_max_flow`.
    potential: Vec<f64>,
    dist: Vec<f64>,
    prev_arc: Vec<Option<usize>>,
    heap: BinaryHeap<HeapItem>,
}

impl McmfGraph {
    /// Create a network with `n` nodes (0-based ids).
    pub fn new(n: usize) -> Self {
        McmfGraph {
            arcs: Vec::new(),
            adj: vec![Vec::new(); n],
            has_negative_cost: false,
            potential: Vec::new(),
            dist: Vec::new(),
            prev_arc: Vec::new(),
            heap: BinaryHeap::new(),
        }
    }

    pub fn num_nodes(&self) -> usize {
        self.adj.len()
    }

    /// Add a directed arc `u -> v` with capacity `cap` and per-unit cost
    /// `cost`. Panics on negative capacity or non-finite cost.
    pub fn add_edge(&mut self, u: usize, v: usize, cap: i64, cost: f64) -> EdgeId {
        assert!(cap >= 0, "negative capacity");
        assert!(cost.is_finite(), "non-finite arc cost");
        assert!(u < self.adj.len() && v < self.adj.len(), "node out of range");
        if cost < 0.0 {
            self.has_negative_cost = true;
        }
        let id = self.arcs.len();
        self.arcs.push(Arc { to: v, cap, cost });
        self.arcs.push(Arc { to: u, cap: 0, cost: -cost });
        self.adj[u].push(id);
        self.adj[v].push(id + 1);
        EdgeId(id)
    }

    /// Flow currently on a forward arc (capacity consumed).
    pub fn flow_on(&self, e: EdgeId) -> i64 {
        self.arcs[e.0 ^ 1].cap
    }

    /// Push min-cost flow from `s` to `t` until no augmenting path remains (or
    /// `limit` units have been sent, if given). Augmentations are by path
    /// bottleneck. Returns total flow and cost of *this* call.
    pub fn min_cost_max_flow(&mut self, s: usize, t: usize, limit: Option<i64>) -> FlowResult {
        let n = self.adj.len();
        assert!(s < n && t < n, "terminal out of range");
        // Take the workspace out of `self` so the shortest-path loop can
        // borrow `arcs`/`adj` immutably alongside it; restored before return.
        let mut potential = std::mem::take(&mut self.potential);
        let mut dist = std::mem::take(&mut self.dist);
        let mut prev_arc = std::mem::take(&mut self.prev_arc);
        let mut heap = std::mem::take(&mut self.heap);
        potential.clear();
        potential.resize(n, 0.0);
        if self.has_negative_cost {
            self.bellman_ford_potentials(s, &mut potential);
        }
        let mut total_flow = 0i64;
        let mut total_cost = 0.0f64;
        let remaining = |f: i64| limit.map_or(i64::MAX, |l| l - f);

        while remaining(total_flow) > 0 {
            // Dijkstra on reduced costs.
            dist.clear();
            dist.resize(n, f64::INFINITY);
            prev_arc.clear();
            prev_arc.resize(n, None);
            heap.clear();
            dist[s] = 0.0;
            heap.push(HeapItem { dist: 0.0, node: s });
            while let Some(HeapItem { dist: d, node: u }) = heap.pop() {
                if d > dist[u] + COST_EPS {
                    continue;
                }
                for &aid in &self.adj[u] {
                    let arc = &self.arcs[aid];
                    if arc.cap <= 0 {
                        continue;
                    }
                    let rc = (arc.cost + potential[u] - potential[arc.to]).max(0.0);
                    let nd = d + rc;
                    if nd + COST_EPS < dist[arc.to] {
                        dist[arc.to] = nd;
                        prev_arc[arc.to] = Some(aid);
                        heap.push(HeapItem { dist: nd, node: arc.to });
                    }
                }
            }
            if dist[t].is_infinite() {
                break;
            }
            for v in 0..n {
                if dist[v].is_finite() {
                    potential[v] += dist[v];
                }
            }
            // Bottleneck along the path.
            let mut bottleneck = remaining(total_flow);
            let mut v = t;
            while v != s {
                let aid = prev_arc[v].expect("path arc");
                bottleneck = bottleneck.min(self.arcs[aid].cap);
                v = self.arcs[aid ^ 1].to;
            }
            debug_assert!(bottleneck > 0);
            // Apply.
            let mut v = t;
            while v != s {
                let aid = prev_arc[v].expect("path arc");
                self.arcs[aid].cap -= bottleneck;
                self.arcs[aid ^ 1].cap += bottleneck;
                total_cost += bottleneck as f64 * self.arcs[aid].cost;
                v = self.arcs[aid ^ 1].to;
            }
            total_flow += bottleneck;
        }
        self.potential = potential;
        self.dist = dist;
        self.prev_arc = prev_arc;
        self.heap = heap;
        FlowResult { flow: total_flow, cost: total_cost }
    }

    /// One Bellman–Ford sweep over residual arcs to initialize potentials when
    /// negative-cost arcs are present. Panics on a negative cycle (cannot
    /// happen for the matching networks built by this workspace).
    fn bellman_ford_potentials(&self, s: usize, potential: &mut [f64]) {
        let n = self.adj.len();
        for p in potential.iter_mut() {
            *p = f64::INFINITY;
        }
        potential[s] = 0.0;
        for round in 0..=n {
            let mut changed = false;
            for (aid, arc) in self.arcs.iter().enumerate() {
                if arc.cap <= 0 {
                    continue;
                }
                let from = self.arcs[aid ^ 1].to;
                if potential[from].is_finite()
                    && potential[from] + arc.cost + COST_EPS < potential[arc.to]
                {
                    potential[arc.to] = potential[from] + arc.cost;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
            assert!(round < n, "negative cycle in flow network");
        }
        // Unreached nodes get potential 0; they are unreachable from s so
        // their reduced costs never matter.
        for p in potential.iter_mut() {
            if !p.is_finite() {
                *p = 0.0;
            }
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
struct HeapItem {
    dist: f64,
    node: usize,
}

impl Eq for HeapItem {}

impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap by distance.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_path() {
        let mut g = McmfGraph::new(3);
        g.add_edge(0, 1, 5, 1.0);
        g.add_edge(1, 2, 3, 2.0);
        let r = g.min_cost_max_flow(0, 2, None);
        assert_eq!(r.flow, 3);
        assert!((r.cost - 9.0).abs() < 1e-9);
    }

    #[test]
    fn chooses_cheaper_path_first() {
        // Two disjoint paths 0->1->3 (cost 1+1) and 0->2->3 (cost 3+3), caps 1.
        let mut g = McmfGraph::new(4);
        let cheap = g.add_edge(0, 1, 1, 1.0);
        g.add_edge(1, 3, 1, 1.0);
        g.add_edge(0, 2, 1, 3.0);
        g.add_edge(2, 3, 1, 3.0);
        let r = g.min_cost_max_flow(0, 3, Some(1));
        assert_eq!(r.flow, 1);
        assert!((r.cost - 2.0).abs() < 1e-9);
        assert_eq!(g.flow_on(cheap), 1);
    }

    #[test]
    fn rerouting_through_residual_arcs() {
        // Classic diamond where optimal max flow must cancel a greedy choice.
        //   0 -> 1 (cap 1, cost 1), 0 -> 2 (cap 1, cost 10)
        //   1 -> 2 (cap 1, cost 1),  1 -> 3 (cap 1, cost 10)
        //   2 -> 3 (cap 1, cost 1)
        // Max flow 2: units 0-1-3 and 0-2-3 (cost 11 + 11 = 22); SSP will
        // first send 0-1-2-3 (cost 3) then 0-2 (res) ... final min cost is 22.
        let mut g = McmfGraph::new(4);
        g.add_edge(0, 1, 1, 1.0);
        g.add_edge(0, 2, 1, 10.0);
        g.add_edge(1, 2, 1, 1.0);
        g.add_edge(1, 3, 1, 10.0);
        g.add_edge(2, 3, 1, 1.0);
        let r = g.min_cost_max_flow(0, 3, None);
        assert_eq!(r.flow, 2);
        assert!((r.cost - 22.0).abs() < 1e-9, "cost = {}", r.cost);
    }

    #[test]
    fn respects_flow_limit() {
        let mut g = McmfGraph::new(2);
        g.add_edge(0, 1, 10, 1.0);
        let r = g.min_cost_max_flow(0, 1, Some(4));
        assert_eq!(r.flow, 4);
        assert!((r.cost - 4.0).abs() < 1e-9);
    }

    #[test]
    fn disconnected_sink() {
        let mut g = McmfGraph::new(3);
        g.add_edge(0, 1, 1, 1.0);
        let r = g.min_cost_max_flow(0, 2, None);
        assert_eq!(r.flow, 0);
        assert_eq!(r.cost, 0.0);
    }

    #[test]
    fn negative_costs_via_bellman_ford() {
        // A negative-cost arc on one branch; SSP must still be optimal.
        let mut g = McmfGraph::new(4);
        g.add_edge(0, 1, 1, 2.0);
        g.add_edge(1, 3, 1, -1.5);
        g.add_edge(0, 2, 1, 1.0);
        g.add_edge(2, 3, 1, 1.0);
        let r = g.min_cost_max_flow(0, 3, Some(1));
        assert_eq!(r.flow, 1);
        assert!((r.cost - 0.5).abs() < 1e-9, "cost = {}", r.cost);
    }

    #[test]
    fn zero_capacity_edges_ignored() {
        let mut g = McmfGraph::new(2);
        g.add_edge(0, 1, 0, 1.0);
        let r = g.min_cost_max_flow(0, 1, None);
        assert_eq!(r.flow, 0);
    }
}
