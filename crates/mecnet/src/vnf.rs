//! Network-function catalog: the set `F` of VNF types with per-instance
//! computing demands `c(f_i)` (MHz) and reliabilities `r_i`.

use rand::Rng;

/// Index of a VNF type in a [`VnfCatalog`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VnfTypeId(pub usize);

impl VnfTypeId {
    pub fn index(self) -> usize {
        self.0
    }
}

/// A network-function type.
#[derive(Debug, Clone, PartialEq)]
pub struct VnfType {
    pub name: String,
    /// Computing demand of one instance, in MHz (paper: 200–400 MHz).
    pub demand_mhz: f64,
    /// Reliability of any single instance, `0 < r <= 1` (identical across
    /// cloudlets, the standard assumption the paper adopts).
    pub reliability: f64,
}

/// The catalog `F = {f_1, …, f_|F|}`.
#[derive(Debug, Clone, Default)]
pub struct VnfCatalog {
    types: Vec<VnfType>,
}

impl VnfCatalog {
    pub fn new() -> Self {
        VnfCatalog { types: Vec::new() }
    }

    /// Add a type; panics on non-positive demand or reliability outside
    /// `(0, 1]`.
    pub fn add(&mut self, vnf: VnfType) -> VnfTypeId {
        assert!(vnf.demand_mhz > 0.0, "demand must be positive");
        assert!(
            vnf.reliability > 0.0 && vnf.reliability <= 1.0,
            "reliability must be in (0, 1], got {}",
            vnf.reliability
        );
        let id = VnfTypeId(self.types.len());
        self.types.push(vnf);
        id
    }

    pub fn len(&self) -> usize {
        self.types.len()
    }

    pub fn is_empty(&self) -> bool {
        self.types.is_empty()
    }

    pub fn get(&self, id: VnfTypeId) -> &VnfType {
        &self.types[id.0]
    }

    pub fn demand(&self, id: VnfTypeId) -> f64 {
        self.types[id.0].demand_mhz
    }

    pub fn reliability(&self, id: VnfTypeId) -> f64 {
        self.types[id.0].reliability
    }

    pub fn ids(&self) -> impl Iterator<Item = VnfTypeId> + '_ {
        (0..self.types.len()).map(VnfTypeId)
    }

    pub fn iter(&self) -> impl Iterator<Item = (VnfTypeId, &VnfType)> + '_ {
        self.types.iter().enumerate().map(|(i, t)| (VnfTypeId(i), t))
    }

    /// Random catalog per the paper's Section 7.1: `count` types with demands
    /// uniform in `demand_range` MHz and reliabilities uniform in
    /// `reliability_range`.
    pub fn random<R: Rng + ?Sized>(
        count: usize,
        demand_range: (f64, f64),
        reliability_range: (f64, f64),
        rng: &mut R,
    ) -> Self {
        assert!(count > 0, "catalog must not be empty");
        assert!(demand_range.0 > 0.0 && demand_range.0 <= demand_range.1);
        assert!(reliability_range.0 > 0.0 && reliability_range.1 <= 1.0);
        assert!(reliability_range.0 <= reliability_range.1);
        let mut cat = VnfCatalog::new();
        for i in 0..count {
            cat.add(VnfType {
                name: format!("f{i}"),
                demand_mhz: rng.gen_range(demand_range.0..=demand_range.1),
                reliability: rng.gen_range(reliability_range.0..=reliability_range.1),
            });
        }
        cat
    }
}

/// A small named catalog of realistic middlebox functions, used by the
/// examples (demands in the paper's 200–400 MHz band).
pub fn realistic_catalog() -> VnfCatalog {
    let mut cat = VnfCatalog::new();
    for (name, demand, rel) in [
        ("NAT", 200.0, 0.90),
        ("Firewall", 300.0, 0.88),
        ("IDS", 400.0, 0.85),
        ("LoadBalancer", 250.0, 0.92),
        ("WAN-Optimizer", 350.0, 0.86),
        ("Transcoder", 400.0, 0.84),
        ("DPI", 380.0, 0.87),
        ("Proxy", 220.0, 0.91),
    ] {
        cat.add(VnfType { name: name.to_string(), demand_mhz: demand, reliability: rel });
    }
    cat
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn add_and_query() {
        let mut cat = VnfCatalog::new();
        let id = cat.add(VnfType { name: "fw".into(), demand_mhz: 300.0, reliability: 0.9 });
        assert_eq!(cat.len(), 1);
        assert_eq!(cat.demand(id), 300.0);
        assert_eq!(cat.reliability(id), 0.9);
        assert_eq!(cat.get(id).name, "fw");
    }

    #[test]
    #[should_panic(expected = "reliability")]
    fn rejects_zero_reliability() {
        VnfCatalog::new().add(VnfType { name: "x".into(), demand_mhz: 1.0, reliability: 0.0 });
    }

    #[test]
    #[should_panic(expected = "demand")]
    fn rejects_nonpositive_demand() {
        VnfCatalog::new().add(VnfType { name: "x".into(), demand_mhz: 0.0, reliability: 0.5 });
    }

    #[test]
    fn random_catalog_respects_ranges() {
        let mut rng = StdRng::seed_from_u64(42);
        let cat = VnfCatalog::random(30, (200.0, 400.0), (0.8, 0.9), &mut rng);
        assert_eq!(cat.len(), 30);
        for (_, t) in cat.iter() {
            assert!((200.0..=400.0).contains(&t.demand_mhz));
            assert!((0.8..=0.9).contains(&t.reliability));
        }
    }

    #[test]
    fn realistic_catalog_is_valid() {
        let cat = realistic_catalog();
        assert_eq!(cat.len(), 8);
        assert!(cat.iter().all(|(_, t)| t.reliability > 0.8 && t.demand_mhz >= 200.0));
    }
}
