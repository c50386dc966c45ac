//! Primary VNF placement (request admission).
//!
//! The augmentation problem assumes the request is *already admitted*: every
//! function in its SFC has a primary instance on some cloudlet. Two admission
//! strategies are provided:
//!
//! * [`random_placement`] — the strategy the paper's evaluation uses ("each
//!   VNF instance in the primary SFC deployed randomly into cloudlets").
//! * [`dag_placement`] — the auxiliary-DAG framework of Ma et al. (TPDS 2020)
//!   that the paper cites for admission (Section 4.1): one layer per chain
//!   position, one node per cloudlet, edge weights the negative log
//!   reliability of the inter-cloudlet path; a shortest `s→t` path is a
//!   maximum-reliability placement.

use crate::graph::NodeId;
use crate::network::MecNetwork;
use crate::request::SfcRequest;
use rand::Rng;

/// Where each primary instance of a request's chain lives.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimaryPlacement {
    /// `locations[i]` hosts the primary of the chain's `i`-th function.
    pub locations: Vec<NodeId>,
}

impl PrimaryPlacement {
    pub fn len(&self) -> usize {
        self.locations.len()
    }

    pub fn is_empty(&self) -> bool {
        self.locations.is_empty()
    }
}

/// Place each primary on an independently, uniformly random cloudlet.
///
/// Returns `None` if the network has no cloudlets.
pub fn random_placement<R: Rng + ?Sized>(
    net: &MecNetwork,
    request: &SfcRequest,
    rng: &mut R,
) -> Option<PrimaryPlacement> {
    let cloudlets = net.cloudlet_ids();
    if cloudlets.is_empty() {
        return None;
    }
    let locations =
        (0..request.len()).map(|_| cloudlets[rng.gen_range(0..cloudlets.len())]).collect();
    Some(PrimaryPlacement { locations })
}

/// Capacity-aware random placement: each primary goes to a uniformly random
/// cloudlet among those whose *remaining* capacity (in `residual`) fits the
/// function's demand; the chosen cloudlet's residual is debited immediately.
///
/// Returns `None` — and leaves `residual` bit-for-bit as it was — if any
/// function cannot be placed; admission is all-or-nothing. The rollback
/// restores the saved pre-debit values rather than adding the demands back:
/// `(r − d) + d` is not always `r` in floating point.
pub fn random_placement_capacity_aware<R: Rng + ?Sized>(
    net: &MecNetwork,
    request: &SfcRequest,
    demands: &[f64],
    residual: &mut [f64],
    rng: &mut R,
) -> Option<PrimaryPlacement> {
    assert_eq!(demands.len(), request.len(), "one demand per chain position");
    assert_eq!(residual.len(), net.num_nodes());
    let cloudlets = net.cloudlet_ids();
    let mut locations: Vec<NodeId> = Vec::with_capacity(request.len());
    let mut saved: Vec<f64> = Vec::with_capacity(request.len());
    for (&_f, &demand) in request.sfc.iter().zip(demands) {
        // Two scans instead of materializing the feasible list: count the
        // fitting cloudlets, draw the same uniform index the list-based
        // implementation would (an empty feasible set still consumes one
        // `gen_range(0..1)` draw — the RNG stream must not shift), then pick
        // the drawn cloudlet in a second scan.
        let fits = |c: &&NodeId| residual[c.index()] >= demand;
        let feasible = cloudlets.iter().filter(fits).count();
        let draw = rng.gen_range(0..feasible.max(1));
        let Some(&choice) = cloudlets.iter().filter(fits).nth(draw) else {
            // Roll back and reject: newest debit first, so a cloudlet that
            // took two primaries ends at its oldest saved value.
            for (&done, &before) in locations.iter().zip(&saved).rev() {
                residual[done.index()] = before;
            }
            return None;
        };
        saved.push(residual[choice.index()]);
        residual[choice.index()] -= demand;
        locations.push(choice);
    }
    Some(PrimaryPlacement { locations })
}

/// Maximum-reliability placement via the layered DAG of Ma et al.
///
/// `link_reliability` is the per-hop reliability of network links (1.0 makes
/// the DAG weights pure hop counts, i.e. a minimum-total-hops placement; VNF
/// reliabilities are cloudlet-independent in the paper's model so they do not
/// influence *where* primaries go).
///
/// Returns `None` if the network has no cloudlets or source/destination are
/// disconnected from every cloudlet.
pub fn dag_placement(
    net: &MecNetwork,
    request: &SfcRequest,
    link_reliability: f64,
) -> Option<PrimaryPlacement> {
    assert!(
        link_reliability > 0.0 && link_reliability <= 1.0,
        "link reliability must be in (0, 1]"
    );
    let cloudlets = net.cloudlets();
    if cloudlets.is_empty() || request.is_empty() {
        return None;
    }
    let g = net.graph();
    let per_hop_cost = -link_reliability.ln(); // >= 0

    // Hop distances from source, destination, and every cloudlet.
    let from_source = g.hop_distances(request.source);
    let from_dest = g.hop_distances(request.destination);
    let from_cloudlet: Vec<Vec<u32>> = cloudlets.iter().map(|&c| g.hop_distances(c)).collect();

    let hops = |dists: &Vec<u32>, v: NodeId| -> Option<f64> {
        let d = dists[v.index()];
        (d != u32::MAX).then_some(d as f64)
    };

    // DP over layers: dist[i][k] = min cost to place functions 0..=i with the
    // i-th on cloudlets[k].
    let l = request.len();
    let k = cloudlets.len();
    let mut dist = vec![vec![f64::INFINITY; k]; l];
    let mut parent = vec![vec![usize::MAX; k]; l];
    for (ci, &c) in cloudlets.iter().enumerate() {
        if let Some(h) = hops(&from_source, c) {
            dist[0][ci] = h * per_hop_cost;
        }
    }
    for i in 1..l {
        for (cj, _) in cloudlets.iter().enumerate() {
            for ci in 0..k {
                if dist[i - 1][ci].is_finite() {
                    if let Some(h) = hops(&from_cloudlet[ci], cloudlets[cj]) {
                        let cand = dist[i - 1][ci] + h * per_hop_cost;
                        if cand < dist[i][cj] {
                            dist[i][cj] = cand;
                            parent[i][cj] = ci;
                        }
                    }
                }
            }
        }
    }
    // Close with the destination leg.
    let mut best: Option<(f64, usize)> = None;
    for ci in 0..k {
        if dist[l - 1][ci].is_finite() {
            if let Some(h) = hops(&from_dest, cloudlets[ci]) {
                let total = dist[l - 1][ci] + h * per_hop_cost;
                if best.is_none_or(|(b, _)| total < b) {
                    best = Some((total, ci));
                }
            }
        }
    }
    let (_, mut ci) = best?;
    let mut locations = vec![NodeId(0); l];
    for i in (0..l).rev() {
        locations[i] = cloudlets[ci];
        if i > 0 {
            ci = parent[i][ci];
            if ci == usize::MAX {
                return None;
            }
        }
    }
    Some(PrimaryPlacement { locations })
}

/// End-to-end path reliability of a placement:
/// `link_reliability^(total hops source -> f_1 -> … -> f_L -> destination)`.
pub fn path_reliability(
    net: &MecNetwork,
    request: &SfcRequest,
    placement: &PrimaryPlacement,
    link_reliability: f64,
) -> Option<f64> {
    let g = net.graph();
    let mut total_hops = 0u32;
    let mut prev = request.source;
    for &loc in placement.locations.iter().chain(std::iter::once(&request.destination)) {
        total_hops += g.hop_distance(prev, loc)?;
        prev = loc;
    }
    Some(link_reliability.powi(total_hops as i32))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::Graph;
    use crate::vnf::{VnfCatalog, VnfType, VnfTypeId};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn line_net() -> MecNetwork {
        // 0 - 1 - 2 - 3 - 4, cloudlets at 1 and 3.
        let mut g = Graph::new(5);
        for i in 0..4 {
            g.add_edge(NodeId(i), NodeId(i + 1));
        }
        MecNetwork::new(g, vec![0.0, 5000.0, 0.0, 5000.0, 0.0])
    }

    fn two_fn_request() -> SfcRequest {
        let mut cat = VnfCatalog::new();
        cat.add(VnfType { name: "a".into(), demand_mhz: 100.0, reliability: 0.9 });
        cat.add(VnfType { name: "b".into(), demand_mhz: 100.0, reliability: 0.9 });
        SfcRequest::new(1, vec![VnfTypeId(0), VnfTypeId(1)], 0.99, NodeId(0), NodeId(4))
    }

    #[test]
    fn random_placement_uses_only_cloudlets() {
        let net = line_net();
        let req = two_fn_request();
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10 {
            let p = random_placement(&net, &req, &mut rng).unwrap();
            assert_eq!(p.len(), 2);
            assert!(p.locations.iter().all(|&v| net.is_cloudlet(v)));
        }
    }

    #[test]
    fn random_placement_without_cloudlets_is_none() {
        let g = Graph::new(3);
        let net = MecNetwork::new(g, vec![0.0; 3]);
        let req = two_fn_request();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(random_placement(&net, &req, &mut rng).is_none());
    }

    #[test]
    fn capacity_aware_placement_debits_and_rolls_back() {
        let net = line_net(); // cloudlets at 1 (5000) and 3 (5000)
        let req = two_fn_request();
        let mut rng = StdRng::seed_from_u64(3);
        let demands = [3000.0, 3000.0];
        let mut residual = vec![0.0, 5000.0, 0.0, 5000.0, 0.0];
        let p = random_placement_capacity_aware(&net, &req, &demands, &mut residual, &mut rng)
            .expect("fits: one instance per cloudlet");
        // Each cloudlet can hold exactly one 3000-MHz instance.
        assert_ne!(p.locations[0], p.locations[1]);
        assert!((residual[1] - 2000.0).abs() < 1e-9);
        assert!((residual[3] - 2000.0).abs() < 1e-9);
        // A third identical request cannot fit; residual must be untouched.
        let before = residual.clone();
        let q = random_placement_capacity_aware(&net, &req, &demands, &mut residual, &mut rng);
        assert!(q.is_none());
        assert_eq!(residual, before);
    }

    #[test]
    fn rejected_admission_restores_residuals_bit_for_bit() {
        // Adding the demand back drifts: the residual would end above the
        // node's 1427.3 MHz capacity.
        assert_ne!((1427.3f64 - 399.9) + 399.9, 1427.3);
        let three = SfcRequest::new(
            1,
            vec![VnfTypeId(0), VnfTypeId(1), VnfTypeId(2)],
            0.99,
            NodeId(0),
            NodeId(4),
        );
        let demands = [399.9, 399.9, 2000.0];
        // Two cloudlets, then one: with one, both placed primaries share it,
        // so the restore must run newest first.
        for caps in [[0.0, 1427.3, 0.0, 1427.3, 0.0], [0.0, 1427.3, 0.0, 0.0, 0.0]] {
            let mut g = Graph::new(5);
            for i in 0..4 {
                g.add_edge(NodeId(i), NodeId(i + 1));
            }
            let net = MecNetwork::new(g, caps.to_vec());
            for seed in 0..8 {
                let mut residual = caps.to_vec();
                let mut rng = StdRng::seed_from_u64(seed);
                let p = random_placement_capacity_aware(
                    &net,
                    &three,
                    &demands,
                    &mut residual,
                    &mut rng,
                );
                assert!(p.is_none(), "no cloudlet holds the 2000 MHz function");
                let bits = |r: &[f64]| r.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&residual), bits(&caps), "caps {caps:?} seed {seed}");
            }
        }
    }

    #[test]
    fn capacity_aware_rejects_when_empty() {
        let net = line_net();
        let req = two_fn_request();
        let mut rng = StdRng::seed_from_u64(3);
        let mut residual = vec![0.0; 5];
        assert!(random_placement_capacity_aware(
            &net,
            &req,
            &[100.0, 100.0],
            &mut residual,
            &mut rng
        )
        .is_none());
    }

    #[test]
    fn dag_placement_minimizes_hops() {
        let net = line_net();
        let req = two_fn_request();
        // Source 0, dest 4: the optimum is 4 total hops, achieved by both
        // (f1@1, f2@3) and (f1@1, f2@1); anything through f1@3 costs >= 6.
        let p = dag_placement(&net, &req, 0.99).unwrap();
        let r = path_reliability(&net, &req, &p, 0.99).unwrap();
        assert!((r - 0.99f64.powi(4)).abs() < 1e-12, "placement {:?} not 4 hops", p.locations);
        assert_eq!(p.locations[0], NodeId(1));
    }

    #[test]
    fn dag_placement_reuses_cloudlet_for_colocated_chain() {
        // Source and destination both adjacent to cloudlet 1.
        let mut g = Graph::new(3);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        let net = MecNetwork::new(g, vec![0.0, 4000.0, 0.0]);
        let mut req = two_fn_request();
        req.source = NodeId(0);
        req.destination = NodeId(2);
        let p = dag_placement(&net, &req, 0.9).unwrap();
        assert_eq!(p.locations, vec![NodeId(1), NodeId(1)]);
    }

    #[test]
    fn dag_placement_handles_disconnection() {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        // Node 2 (cloudlet) and 3 are a separate component.
        g.add_edge(NodeId(2), NodeId(3));
        let net = MecNetwork::new(g, vec![0.0, 0.0, 4000.0, 0.0]);
        let mut req = two_fn_request();
        req.source = NodeId(0);
        req.destination = NodeId(1);
        assert!(dag_placement(&net, &req, 1.0).is_none());
    }

    #[test]
    fn perfect_links_make_any_path_reliability_one() {
        let net = line_net();
        let req = two_fn_request();
        let p = dag_placement(&net, &req, 1.0).unwrap();
        assert_eq!(path_reliability(&net, &req, &p, 1.0), Some(1.0));
    }
}
