//! The MEC network: a graph of access points, a subset of which host
//! cloudlets with computing capacity.

use crate::graph::{Graph, NodeId};
use crate::neighborhood::NeighborhoodIndex;
use rand::seq::SliceRandom;
use rand::Rng;
use std::fmt;
use std::sync::{Arc, Mutex};

/// Lifecycle of a [`Reservation`]: capacity is debited at `try_reserve`
/// time, made permanent by `commit`, or returned by `abort`. Any transition
/// out of a terminal state is a hard error in every build profile — this is
/// what makes double-release/double-commit impossible to ship silently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReservationState {
    Pending,
    Committed,
    Aborted,
}

/// A two-phase capacity reservation: the set of per-node debits
/// [`MecNetwork::try_reserve`] applied to a residual vector, awaiting
/// [`MecNetwork::commit`] or [`MecNetwork::abort`]. The stream engine debits
/// every admitted request's secondary loads through this ledger.
#[derive(Debug)]
#[must_use = "a pending reservation holds capacity until committed or aborted"]
pub struct Reservation {
    /// `(node index, amount)` pairs actually debited, one entry per node.
    debits: Vec<(usize, f64)>,
    state: ReservationState,
}

impl Reservation {
    pub fn state(&self) -> ReservationState {
        self.state
    }

    /// Total MHz held by this reservation.
    pub fn total(&self) -> f64 {
        self.debits.iter().map(|&(_, a)| a).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.debits.is_empty()
    }
}

/// Why a reservation operation failed.
#[derive(Debug, Clone, PartialEq)]
pub enum ReserveError {
    /// A node lacks the residual capacity for its requested debit; nothing
    /// was debited.
    Insufficient { node: NodeId, requested: f64, available: f64 },
    /// `commit`/`abort` on a reservation that is not pending — a
    /// double-commit, double-abort, or use-after-abort.
    NotPending { state: ReservationState },
}

impl fmt::Display for ReserveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReserveError::Insufficient { node, requested, available } => write!(
                f,
                "insufficient capacity at node {node}: requested {requested} MHz, \
                 available {available} MHz"
            ),
            ReserveError::NotPending { state } => {
                write!(f, "reservation is not pending (state: {state:?})")
            }
        }
    }
}

impl std::error::Error for ReserveError {}

/// A mobile edge-cloud network `G = (V, E)` with per-node cloudlet
/// capacities (`C_v > 0` where a cloudlet is co-located, `C_v = 0`
/// otherwise — exactly the paper's Section 3 model).
#[derive(Debug, Clone)]
pub struct MecNetwork {
    graph: Graph,
    /// Capacity in MHz per node; `0.0` for plain access points.
    capacity: Vec<f64>,
    /// Cloudlet node ids, ascending — precomputed because the admission and
    /// augmentation hot paths enumerate cloudlets per request.
    cloudlet_ids: Vec<NodeId>,
    /// Lazily-built [`NeighborhoodIndex`] per radius `l`. Shared across
    /// clones: the graph and capacities are immutable after construction
    /// (residuals live in caller-owned vectors), so a cached index can never
    /// go stale.
    nbhd_cache: Arc<Mutex<Vec<Arc<NeighborhoodIndex>>>>,
}

impl MecNetwork {
    /// Wrap a graph with explicit capacities (`capacity.len()` must equal the
    /// node count; entries must be non-negative).
    pub fn new(graph: Graph, capacity: Vec<f64>) -> Self {
        assert_eq!(capacity.len(), graph.num_nodes(), "capacity vector must cover all nodes");
        assert!(capacity.iter().all(|&c| c >= 0.0 && c.is_finite()), "capacities must be >= 0");
        let cloudlet_ids = (0..capacity.len()).filter(|&v| capacity[v] > 0.0).map(NodeId).collect();
        MecNetwork { graph, capacity, cloudlet_ids, nbhd_cache: Arc::new(Mutex::new(Vec::new())) }
    }

    /// Place `count` cloudlets on distinct random nodes with capacities drawn
    /// uniformly from `capacity_range` (paper: 10% of nodes, 4 000–8 000 MHz).
    pub fn with_random_cloudlets<R: Rng + ?Sized>(
        graph: Graph,
        count: usize,
        capacity_range: (f64, f64),
        rng: &mut R,
    ) -> Self {
        assert!(count <= graph.num_nodes(), "more cloudlets than nodes");
        assert!(capacity_range.0 > 0.0 && capacity_range.0 <= capacity_range.1);
        let mut ids: Vec<usize> = (0..graph.num_nodes()).collect();
        ids.shuffle(rng);
        let mut capacity = vec![0.0; graph.num_nodes()];
        for &v in ids.iter().take(count) {
            capacity[v] = rng.gen_range(capacity_range.0..=capacity_range.1);
        }
        MecNetwork::new(graph, capacity)
    }

    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    pub fn num_nodes(&self) -> usize {
        self.graph.num_nodes()
    }

    /// `C_v` of node `v`.
    pub fn capacity(&self, v: NodeId) -> f64 {
        self.capacity[v.index()]
    }

    pub fn is_cloudlet(&self, v: NodeId) -> bool {
        self.capacity[v.index()] > 0.0
    }

    /// All cloudlet nodes.
    pub fn cloudlets(&self) -> Vec<NodeId> {
        self.cloudlet_ids.clone()
    }

    /// All cloudlet nodes, ascending, without allocating.
    pub fn cloudlet_ids(&self) -> &[NodeId] {
        &self.cloudlet_ids
    }

    pub fn num_cloudlets(&self) -> usize {
        self.cloudlet_ids.len()
    }

    /// The cached [`NeighborhoodIndex`] for radius `l`, building it on first
    /// use. The returned `Arc` lets streaming callers resolve the index once
    /// and query it lock-free for every request.
    pub fn neighborhood_index(&self, l: u32) -> Arc<NeighborhoodIndex> {
        let mut cache = self.nbhd_cache.lock().expect("neighborhood cache poisoned");
        if let Some(idx) = cache.iter().find(|idx| idx.l() == l) {
            return Arc::clone(idx);
        }
        let idx = Arc::new(NeighborhoodIndex::build(&self.graph, &self.cloudlet_ids, l));
        cache.push(Arc::clone(&idx));
        idx
    }

    /// Total capacity across all cloudlets.
    pub fn total_capacity(&self) -> f64 {
        self.capacity.iter().sum()
    }

    /// The residual-capacity vector at a uniform residual fraction (the
    /// paper's experiments fix e.g. 25% of each cloudlet's capacity as
    /// available for secondaries).
    pub fn residual_capacities(&self, fraction: f64) -> Vec<f64> {
        assert!((0.0..=1.0).contains(&fraction), "fraction must be in [0, 1]");
        self.capacity.iter().map(|&c| c * fraction).collect()
    }

    /// Cloudlets within `l` hops of `v`, including `v` itself if it is a
    /// cloudlet: the candidate hosts `N_l^+(v)` restricted to nodes that can
    /// actually run VNFs.
    pub fn cloudlets_within(&self, v: NodeId, l: u32) -> Vec<NodeId> {
        self.graph
            .l_neighborhood_closed(v, l)
            .into_iter()
            .filter(|&u| self.is_cloudlet(u))
            .collect()
    }

    /// Return `amount` MHz of previously-debited capacity to node `v`'s
    /// residual — the inverse of an admission/augmentation debit, used when a
    /// request departs or an instance is permanently lost. Only ever hand
    /// back what was actually taken: the release must not lift the residual
    /// above the node's full capacity `C_v`.
    pub fn release_capacity(&self, residual: &mut [f64], v: NodeId, amount: f64) {
        assert_eq!(residual.len(), self.capacity.len(), "residual must cover all nodes");
        assert!(amount >= 0.0 && amount.is_finite(), "release amount must be >= 0");
        let idx = v.index();
        let restored = residual[idx] + amount;
        assert!(
            restored <= self.capacity[idx] + 1e-6,
            "release of {amount} MHz would lift node {idx} above its capacity \
             ({restored} > {})",
            self.capacity[idx]
        );
        residual[idx] = restored.min(self.capacity[idx]);
    }

    /// Phase one of a two-phase capacity commit: debit every `(node,
    /// amount)` pair from `residual`, all-or-nothing. On success the debits
    /// are applied and a pending [`Reservation`] is returned; finish it with
    /// [`MecNetwork::commit`] (debits become permanent) or
    /// [`MecNetwork::abort`] (debits are returned). On failure `residual` is
    /// left exactly as it was.
    ///
    /// Multiple debits against the same node are allowed and accumulate. A
    /// `1e-9` slack absorbs floating-point drift in load sums; amounts must
    /// be non-negative and finite.
    pub fn try_reserve(
        &self,
        residual: &mut [f64],
        debits: &[(NodeId, f64)],
    ) -> Result<Reservation, ReserveError> {
        assert_eq!(residual.len(), self.capacity.len(), "residual must cover all nodes");
        // Merge per node first so the feasibility check sees the total
        // demand against each node, not just the last increment.
        let mut merged: Vec<(usize, f64)> = Vec::with_capacity(debits.len());
        for &(node, amount) in debits {
            assert!(amount >= 0.0 && amount.is_finite(), "reserve amount must be >= 0");
            if amount == 0.0 {
                continue;
            }
            let idx = node.index();
            match merged.iter_mut().find(|(n, _)| *n == idx) {
                Some((_, a)) => *a += amount,
                None => merged.push((idx, amount)),
            }
        }
        for &(idx, amount) in &merged {
            if residual[idx] + 1e-9 < amount {
                return Err(ReserveError::Insufficient {
                    node: NodeId(idx),
                    requested: amount,
                    available: residual[idx],
                });
            }
        }
        for &(idx, amount) in &merged {
            residual[idx] = (residual[idx] - amount).max(0.0);
        }
        Ok(Reservation { debits: merged, state: ReservationState::Pending })
    }

    /// Phase two, success path: make a pending reservation's debits
    /// permanent. Rejects (hard error, all build profiles) any reservation
    /// that was already committed or aborted.
    pub fn commit(&self, reservation: &mut Reservation) -> Result<(), ReserveError> {
        if reservation.state != ReservationState::Pending {
            return Err(ReserveError::NotPending { state: reservation.state });
        }
        reservation.state = ReservationState::Committed;
        Ok(())
    }

    /// Phase two, failure path: return a pending reservation's debits to
    /// `residual`. Rejects (hard error, all build profiles) any reservation
    /// that was already committed or aborted — aborting twice would
    /// double-release the capacity.
    pub fn abort(
        &self,
        residual: &mut [f64],
        reservation: &mut Reservation,
    ) -> Result<(), ReserveError> {
        if reservation.state != ReservationState::Pending {
            return Err(ReserveError::NotPending { state: reservation.state });
        }
        for &(idx, amount) in &reservation.debits {
            self.release_capacity(residual, NodeId(idx), amount);
        }
        reservation.state = ReservationState::Aborted;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topology;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn random_cloudlet_placement() {
        let mut rng = StdRng::seed_from_u64(5);
        let g = topology::grid(5, 5);
        let net = MecNetwork::with_random_cloudlets(g, 6, (4000.0, 8000.0), &mut rng);
        assert_eq!(net.num_cloudlets(), 6);
        assert_eq!(net.cloudlets().len(), 6);
        for v in net.cloudlets() {
            assert!((4000.0..=8000.0).contains(&net.capacity(v)));
        }
        assert!(net.total_capacity() >= 6.0 * 4000.0);
    }

    #[test]
    fn residuals_scale_capacity() {
        let g = topology::ring(4);
        let net = MecNetwork::new(g, vec![1000.0, 0.0, 2000.0, 0.0]);
        let res = net.residual_capacities(0.25);
        assert_eq!(res, vec![250.0, 0.0, 500.0, 0.0]);
    }

    #[test]
    fn cloudlets_within_respects_hops_and_colocations() {
        // Path 0-1-2-3; cloudlets at 0 and 2.
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        let net = MecNetwork::new(g, vec![5000.0, 0.0, 6000.0, 0.0]);
        assert_eq!(net.cloudlets_within(NodeId(0), 1), vec![NodeId(0)]);
        let two_hop = net.cloudlets_within(NodeId(0), 2);
        assert_eq!(two_hop, vec![NodeId(0), NodeId(2)]);
        // From a non-cloudlet node, itself is excluded.
        assert_eq!(net.cloudlets_within(NodeId(1), 1), vec![NodeId(0), NodeId(2)]);
    }

    #[test]
    #[should_panic(expected = "capacity vector")]
    fn mismatched_capacity_length_panics() {
        MecNetwork::new(topology::ring(3), vec![1.0]);
    }

    #[test]
    fn neighborhood_index_matches_bfs_queries_and_is_cached() {
        let mut rng = StdRng::seed_from_u64(9);
        let g = topology::grid(5, 5);
        let net = MecNetwork::with_random_cloudlets(g, 7, (4000.0, 8000.0), &mut rng);
        for l in 0..4 {
            let idx = net.neighborhood_index(l);
            for v in net.graph().nodes() {
                assert_eq!(idx.cloudlets_within(v), net.cloudlets_within(v, l).as_slice());
            }
            let again = net.neighborhood_index(l);
            assert!(Arc::ptr_eq(&idx, &again), "second lookup must hit the cache");
            let via_clone = net.clone().neighborhood_index(l);
            assert!(Arc::ptr_eq(&idx, &via_clone), "clones share the cache");
        }
    }

    #[test]
    fn release_restores_debited_capacity_exactly() {
        let g = topology::ring(4);
        let net = MecNetwork::new(g, vec![1000.0, 0.0, 2000.0, 0.0]);
        let mut residual = net.residual_capacities(0.5);
        let before = residual.clone();
        residual[0] -= 300.0;
        residual[2] -= 450.0;
        net.release_capacity(&mut residual, NodeId(0), 300.0);
        net.release_capacity(&mut residual, NodeId(2), 450.0);
        assert_eq!(residual, before, "debit then release must round-trip exactly");
    }

    #[test]
    #[should_panic(expected = "above its capacity")]
    fn release_beyond_capacity_panics() {
        let g = topology::ring(3);
        let net = MecNetwork::new(g, vec![1000.0, 0.0, 0.0]);
        let mut residual = vec![900.0, 0.0, 0.0];
        net.release_capacity(&mut residual, NodeId(0), 200.0);
    }

    fn reserve_fixture() -> (MecNetwork, Vec<f64>) {
        let g = topology::ring(4);
        let net = MecNetwork::new(g, vec![1000.0, 0.0, 2000.0, 0.0]);
        let residual = net.residual_capacities(1.0);
        (net, residual)
    }

    #[test]
    fn reserve_commit_keeps_debits() {
        let (net, mut residual) = reserve_fixture();
        let mut r = net
            .try_reserve(&mut residual, &[(NodeId(0), 300.0), (NodeId(2), 500.0)])
            .expect("fits");
        assert_eq!(r.state(), ReservationState::Pending);
        assert!((r.total() - 800.0).abs() < 1e-12);
        assert_eq!(residual, vec![700.0, 0.0, 1500.0, 0.0]);
        net.commit(&mut r).expect("pending commits");
        assert_eq!(r.state(), ReservationState::Committed);
        assert_eq!(residual, vec![700.0, 0.0, 1500.0, 0.0], "commit keeps the debits");
    }

    #[test]
    fn reserve_abort_round_trips() {
        let (net, mut residual) = reserve_fixture();
        let before = residual.clone();
        let mut r = net
            .try_reserve(&mut residual, &[(NodeId(0), 300.0), (NodeId(0), 200.0)])
            .expect("fits");
        assert_eq!(residual[0], 500.0, "same-node debits accumulate");
        net.abort(&mut residual, &mut r).expect("pending aborts");
        assert_eq!(residual, before, "abort must return every debit exactly");
        assert_eq!(r.state(), ReservationState::Aborted);
    }

    #[test]
    fn reserve_abort_commit_sequence_is_rejected() {
        // Regression: a commit must not be able to resurrect an aborted
        // reservation (which would re-debit capacity the abort returned).
        let (net, mut residual) = reserve_fixture();
        let before = residual.clone();
        let mut r = net.try_reserve(&mut residual, &[(NodeId(2), 750.0)]).expect("fits");
        net.abort(&mut residual, &mut r).expect("first abort is fine");
        assert_eq!(
            net.commit(&mut r),
            Err(ReserveError::NotPending { state: ReservationState::Aborted }),
            "commit after abort must be rejected"
        );
        assert_eq!(
            net.abort(&mut residual, &mut r),
            Err(ReserveError::NotPending { state: ReservationState::Aborted }),
            "double abort must be rejected"
        );
        assert_eq!(r.state(), ReservationState::Aborted);
        assert_eq!(residual, before, "failed transitions must not touch capacity");
    }

    #[test]
    fn commit_then_abort_is_rejected() {
        let (net, mut residual) = reserve_fixture();
        let mut r = net.try_reserve(&mut residual, &[(NodeId(0), 100.0)]).expect("fits");
        net.commit(&mut r).unwrap();
        assert_eq!(
            net.abort(&mut residual, &mut r),
            Err(ReserveError::NotPending { state: ReservationState::Committed })
        );
        assert_eq!(
            net.commit(&mut r),
            Err(ReserveError::NotPending { state: ReservationState::Committed }),
            "double commit must be rejected"
        );
        assert_eq!(residual[0], 900.0, "committed debit stays");
    }

    #[test]
    fn insufficient_reserve_is_all_or_nothing() {
        let (net, mut residual) = reserve_fixture();
        let before = residual.clone();
        let err = net
            .try_reserve(&mut residual, &[(NodeId(0), 600.0), (NodeId(0), 600.0)])
            .expect_err("1200 > 1000 must fail even split across two debits");
        match err {
            ReserveError::Insufficient { node, requested, available } => {
                assert_eq!(node, NodeId(0));
                assert!((requested - 1200.0).abs() < 1e-12);
                assert!((available - 1000.0).abs() < 1e-12);
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert_eq!(residual, before, "failed reserve must not debit anything");
    }

    #[test]
    fn zero_amount_debits_are_dropped() {
        let (net, mut residual) = reserve_fixture();
        let r = net.try_reserve(&mut residual, &[(NodeId(0), 0.0)]).expect("trivially fits");
        assert!(r.is_empty());
        assert_eq!(residual, vec![1000.0, 0.0, 2000.0, 0.0]);
    }
}
