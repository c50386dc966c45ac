//! SFC requests: an ordered chain of network functions plus a reliability
//! expectation `ρ_j`.

use crate::graph::NodeId;
use crate::vnf::{VnfCatalog, VnfTypeId};
use rand::Rng;

/// A user request `j` with service function chain `SFC_j` and reliability
/// expectation `ρ_j` (paper Section 3.1).
#[derive(Debug, Clone, PartialEq)]
pub struct SfcRequest {
    pub id: usize,
    /// Ordered chain `f_1, …, f_{L_j}` (types may repeat across requests but
    /// within one chain the paper assumes distinct functions; the generator
    /// samples without replacement).
    pub sfc: Vec<VnfTypeId>,
    /// Reliability expectation `ρ_j ∈ (0, 1]`.
    pub expectation: f64,
    /// Ingress access point of the request's traffic.
    pub source: NodeId,
    /// Egress access point.
    pub destination: NodeId,
}

impl SfcRequest {
    /// Construct a request.
    pub fn new(
        id: usize,
        sfc: Vec<VnfTypeId>,
        expectation: f64,
        source: NodeId,
        destination: NodeId,
    ) -> Self {
        SfcRequest { id, sfc, expectation, source, destination }
    }

    /// Chain length `L_j`.
    pub fn len(&self) -> usize {
        self.sfc.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sfc.is_empty()
    }

    /// Reliability of the bare primary chain, `Π_i r_i` — the starting point
    /// the augmentation algorithms improve on.
    pub fn base_reliability(&self, catalog: &VnfCatalog) -> f64 {
        self.sfc.iter().map(|&f| catalog.reliability(f)).product()
    }

    /// Generate a random request: chain length uniform in `len_range`,
    /// functions sampled from the catalog without replacement (falling back
    /// to with-replacement if the chain is longer than the catalog).
    pub fn random<R: Rng + ?Sized>(
        id: usize,
        catalog: &VnfCatalog,
        len_range: (usize, usize),
        expectation: f64,
        num_nodes: usize,
        rng: &mut R,
    ) -> Self {
        assert!(len_range.0 >= 1 && len_range.0 <= len_range.1);
        assert!(expectation > 0.0 && expectation <= 1.0);
        assert!(num_nodes >= 1);
        let len = rng.gen_range(len_range.0..=len_range.1);
        let sfc = if len <= catalog.len() {
            rand::seq::index::sample(rng, catalog.len(), len).into_iter().map(VnfTypeId).collect()
        } else {
            (0..len).map(|_| VnfTypeId(rng.gen_range(0..catalog.len()))).collect()
        };
        let source = NodeId(rng.gen_range(0..num_nodes));
        let destination = NodeId(rng.gen_range(0..num_nodes));
        SfcRequest::new(id, sfc, expectation, source, destination)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vnf::VnfType;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_catalog() -> VnfCatalog {
        let mut cat = VnfCatalog::new();
        cat.add(VnfType { name: "a".into(), demand_mhz: 100.0, reliability: 0.9 });
        cat.add(VnfType { name: "b".into(), demand_mhz: 200.0, reliability: 0.8 });
        cat
    }

    #[test]
    fn base_reliability_is_product() {
        let cat = small_catalog();
        let req = SfcRequest::new(0, vec![VnfTypeId(0), VnfTypeId(1)], 0.9, NodeId(0), NodeId(1));
        assert!((req.base_reliability(&cat) - 0.72).abs() < 1e-12);
        assert_eq!(req.len(), 2);
    }

    #[test]
    fn random_request_samples_without_replacement() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut cat = VnfCatalog::new();
        for i in 0..10 {
            cat.add(VnfType { name: format!("f{i}"), demand_mhz: 100.0, reliability: 0.9 });
        }
        for _ in 0..20 {
            let req = SfcRequest::random(0, &cat, (3, 6), 0.99, 50, &mut rng);
            assert!((3..=6).contains(&req.len()));
            let mut seen = req.sfc.clone();
            seen.sort();
            seen.dedup();
            assert_eq!(seen.len(), req.len(), "functions must be distinct");
            assert!(req.source.index() < 50 && req.destination.index() < 50);
        }
    }

    #[test]
    fn random_request_longer_than_catalog_falls_back() {
        let mut rng = StdRng::seed_from_u64(10);
        let cat = small_catalog();
        let req = SfcRequest::random(0, &cat, (5, 5), 0.9, 3, &mut rng);
        assert_eq!(req.len(), 5);
    }
}
