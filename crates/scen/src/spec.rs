//! Serde-able scenario specifications: one value describes a whole
//! experiment — topology, catalog, and request-stream shape — and
//! [`ScenarioSpec::build`] turns it into a concrete network + catalog.
//!
//! Specs come from two places: the named presets in [`ScenarioSpec::preset`]
//! (`sagin-1k`, `sagin-5k`, `ba-1k`, `fattree-16`, `waxman-100`) or a JSON
//! file, resolved uniformly by [`ScenarioSpec::load`] so harness binaries can
//! accept `--scenario sagin-1k` and `--scenario path/to/spec.json`
//! interchangeably.

use mecnet::network::MecNetwork;
use mecnet::topology::{waxman, WaxmanConfig};
use mecnet::transit_stub::{transit_stub, NodeRole, TransitStubConfig};
use mecnet::vnf::VnfCatalog;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

use crate::zoo::{fat_tree, sagin, FatTreeRole, TierSpec};
use crate::{derive_seed, CATALOG_SALT, TOPO_SALT};

/// Top-level scenario description. Serializable with the workspace's vendored
/// serde, so a spec round-trips through JSON (`serde_json::to_string_pretty`
/// / `from_str`).
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ScenarioSpec {
    /// Human-readable scenario name (preset name or free-form for files).
    pub name: String,
    /// Master seed; every topology/catalog/stream draw derives from it.
    pub seed: u64,
    pub topology: TopologySpec,
    pub catalog: CatalogSpec,
    pub stream: StreamSpec,
}

/// Which generator builds the substrate graph and how cloudlets are placed.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum TopologySpec {
    /// Flat GT-ITM/Waxman graph with uniformly random cloudlet placement.
    Waxman {
        nodes: usize,
        alpha: f64,
        beta: f64,
        cloudlet_fraction: f64,
        capacity_range: (f64, f64),
    },
    /// GT-ITM transit-stub hierarchy; transit (backbone) nodes host the
    /// cloudlets.
    TransitStub {
        transit_domains: usize,
        transit_nodes: usize,
        stubs_per_transit_node: usize,
        stub_nodes: usize,
        intra_alpha: f64,
        capacity_range: (f64, f64),
    },
    /// Layered SAGIN-style hierarchy; see [`TierSpec`]. Top tier first.
    Sagin { tiers: Vec<TierSpec> },
    /// Barabási–Albert preferential attachment with uniformly random
    /// cloudlet placement.
    BarabasiAlbert {
        nodes: usize,
        attach: usize,
        cloudlet_fraction: f64,
        capacity_range: (f64, f64),
    },
    /// k-ary fat-tree fabric; every host is a cloudlet.
    FatTree { k: usize, host_capacity: (f64, f64) },
}

/// VNF catalog shape, mirroring the paper's Section 7.1 parameters.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct CatalogSpec {
    pub types: usize,
    pub demand_range: (f64, f64),
    pub reliability_range: (f64, f64),
}

impl Default for CatalogSpec {
    fn default() -> Self {
        CatalogSpec { types: 30, demand_range: (200.0, 400.0), reliability_range: (0.8, 0.9) }
    }
}

/// TTL (holding-time) distribution of a request.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub enum TtlSpec {
    /// Light-tailed: `Exp(1/mean)`.
    Exponential { mean: f64 },
    /// Heavy-tailed: `Pareto(scale, shape)`; mean is `scale*shape/(shape-1)`
    /// for `shape > 1`.
    Pareto { scale: f64, shape: f64 },
}

/// Popular-service model: requests draw their VNF chain from a bounded,
/// Zipf-skewed catalog of service templates instead of sampling an ad-hoc
/// chain per request. This is what makes million-request streams *resolve the
/// same admission problem* over and over — the premise the sharing-scheme
/// literature exploits: a real MEC deployment serves a few dozen service
/// types whose popularity is heavily skewed, not 30^6 distinct chains.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct ServiceSpec {
    /// Number of distinct service templates (chains) in the scenario.
    pub count: usize,
    /// Zipf exponent on template popularity: template 0 is the hottest.
    pub skew: f64,
}

impl Default for ServiceSpec {
    fn default() -> Self {
        ServiceSpec { count: 24, skew: 1.2 }
    }
}

/// Request-stream shape: arrival process, per-request content, and endpoint
/// popularity. See [`crate::stream::RequestStream`] for the exact sampling.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct StreamSpec {
    /// Base arrival rate (requests per time unit) before modulation.
    pub arrival_rate: f64,
    /// SFC length range, inclusive.
    pub sfc_len_range: (usize, usize),
    /// Per-request reliability expectation.
    pub expectation: f64,
    pub ttl: TtlSpec,
    /// Diurnal sinusoid amplitude on the arrival rate, clamped to
    /// `[0, 0.95]`; `0` disables modulation.
    pub diurnal_amplitude: f64,
    /// Period of the diurnal sinusoid (same time unit as `arrival_rate`).
    pub diurnal_period: f64,
    /// Probability that any given epoch of length `flash_epoch` is a flash
    /// crowd, multiplying the rate by `flash_multiplier`.
    pub flash_probability: f64,
    pub flash_multiplier: f64,
    pub flash_epoch: f64,
    /// Zipf exponent on endpoint popularity: `0` keeps the per-tier weights
    /// as-is; larger values concentrate traffic on a few hot access points.
    pub popularity_skew: f64,
    /// Bounded popular-service catalog; `None` (the value missing from a
    /// JSON spec) falls back to ad-hoc per-request chains, the pre-service
    /// sampling, byte for byte.
    pub services: Option<ServiceSpec>,
}

impl Default for StreamSpec {
    fn default() -> Self {
        StreamSpec {
            arrival_rate: 10.0,
            sfc_len_range: (3, 6),
            expectation: 0.99,
            ttl: TtlSpec::Exponential { mean: 120.0 },
            diurnal_amplitude: 0.4,
            diurnal_period: 86_400.0,
            flash_probability: 0.02,
            flash_multiplier: 4.0,
            flash_epoch: 600.0,
            popularity_skew: 0.8,
            services: Some(ServiceSpec::default()),
        }
    }
}

/// A realized scenario: the network and catalog plus the annotations the
/// request stream needs (tier labels and endpoint weights).
pub struct BuiltScenario {
    pub spec: ScenarioSpec,
    pub network: MecNetwork,
    pub catalog: VnfCatalog,
    /// Tier index per node, 0 = top/core. Flat topologies use a single tier.
    pub tier_of: Vec<usize>,
    pub tier_names: Vec<String>,
    /// Per-node endpoint-sampling weight (before Zipf skew). Nodes with
    /// weight 0 (e.g. fat-tree switches) never source or sink requests.
    pub node_weights: Vec<f64>,
}

impl BuiltScenario {
    /// Number of cloudlet-capable nodes in the built network.
    pub fn cloudlets(&self) -> usize {
        self.network.cloudlet_ids().len()
    }
}

impl ScenarioSpec {
    /// Known preset names, in the order they are documented.
    pub const PRESETS: &'static [&'static str] =
        &["waxman-100", "sagin-1k", "sagin-5k", "ba-1k", "fattree-16"];

    /// Resolve `arg` as a preset name, else as a path to a JSON spec file.
    pub fn load(arg: &str) -> Result<ScenarioSpec, String> {
        if let Some(spec) = Self::preset(arg) {
            return Ok(spec);
        }
        let text = std::fs::read_to_string(arg).map_err(|e| {
            format!(
                "--scenario {arg}: not a preset ({}) and not a readable file: {e}",
                Self::PRESETS.join(", ")
            )
        })?;
        let spec: ScenarioSpec = serde_json::from_str(&text)
            .map_err(|e| format!("--scenario {arg}: bad spec JSON: {e:?}"))?;
        spec.validate().map_err(|e| format!("--scenario {arg}: invalid spec: {e}"))?;
        Ok(spec)
    }

    /// Check every field [`Self::build`] and the request stream would
    /// otherwise panic on, or silently reinterpret: the first offending
    /// field, as a one-line message.
    pub fn validate(&self) -> Result<(), String> {
        fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
            if ok {
                Ok(())
            } else {
                Err(what())
            }
        }
        // Generators that place cloudlets at random need a positive low end;
        // the others accept capacity 0 (a node that is no cloudlet).
        fn range(name: &str, (lo, hi): (f64, f64), positive: bool) -> Result<(), String> {
            let (ok, low) = if positive { (lo > 0.0, "0 <") } else { (lo >= 0.0, "0 <=") };
            check(ok && lo <= hi && hi.is_finite(), || {
                format!("{name} [{lo}, {hi}] must satisfy {low} low <= high < inf")
            })
        }
        fn at_least(name: &str, value: usize, min: usize) -> Result<(), String> {
            check(value >= min, || format!("{name} is {value}, must be at least {min}"))
        }
        match &self.topology {
            TopologySpec::Waxman { nodes, alpha, beta, capacity_range, .. } => {
                at_least("topology.nodes", *nodes, 1)?;
                check(*alpha > 0.0 && *alpha <= 1.0, || format!("alpha {alpha} not in (0, 1]"))?;
                check(*beta > 0.0 && *beta <= 1.0, || format!("beta {beta} not in (0, 1]"))?;
                range("capacity_range", *capacity_range, true)?;
            }
            // Tier and intra-domain Waxman parameters are clamped by
            // `embed_waxman`, so only the flat Waxman graph checks them.
            TopologySpec::TransitStub {
                transit_domains,
                transit_nodes,
                stub_nodes,
                capacity_range,
                ..
            } => {
                at_least("transit_domains", *transit_domains, 1)?;
                at_least("transit_nodes", *transit_nodes, 1)?;
                at_least("stub_nodes", *stub_nodes, 1)?;
                range("capacity_range", *capacity_range, false)?;
            }
            TopologySpec::Sagin { tiers } => {
                at_least("tiers", tiers.len(), 1)?;
                for (t, tier) in tiers.iter().enumerate() {
                    at_least(&format!("tier {} nodes", tier.name), tier.nodes, 1)?;
                    if t > 0 {
                        at_least(&format!("tier {} uplinks", tier.name), tier.uplinks, 1)?;
                    }
                    range(
                        &format!("tier {} capacity_range", tier.name),
                        tier.capacity_range,
                        false,
                    )?;
                }
            }
            TopologySpec::BarabasiAlbert { nodes, attach, capacity_range, .. } => {
                at_least("attach", *attach, 1)?;
                at_least("topology.nodes", *nodes, attach + 1)?;
                range("capacity_range", *capacity_range, true)?;
            }
            TopologySpec::FatTree { k, host_capacity } => {
                check(*k >= 2 && k % 2 == 0, || format!("fat-tree k {k} must be even and >= 2"))?;
                range("host_capacity", *host_capacity, false)?;
            }
        }
        let c = &self.catalog;
        at_least("catalog.types", c.types, 1)?;
        range("catalog.demand_range", c.demand_range, true)?;
        let (lo, hi) = c.reliability_range;
        check(lo > 0.0 && lo <= hi && hi <= 1.0, || {
            format!("catalog.reliability_range [{lo}, {hi}] must satisfy 0 < low <= high <= 1")
        })?;
        let st = &self.stream;
        check(st.arrival_rate > 0.0 && st.arrival_rate.is_finite(), || {
            format!("stream.arrival_rate {} must be positive and finite", st.arrival_rate)
        })?;
        let (lo, hi) = st.sfc_len_range;
        check(lo >= 1 && lo <= hi, || {
            format!("stream.sfc_len_range [{lo}, {hi}] must satisfy 1 <= low <= high")
        })?;
        check(st.expectation > 0.0 && st.expectation <= 1.0, || {
            format!("stream.expectation {} not in (0, 1]", st.expectation)
        })?;
        Ok(())
    }

    /// Built-in named scenarios. `sagin-1k` is the headline scale point:
    /// ~1,000 cloudlets across three tiers. `sagin-5k` is the stress point.
    pub fn preset(name: &str) -> Option<ScenarioSpec> {
        let spec = |topology| ScenarioSpec {
            name: name.to_string(),
            seed: 20_200_817, // ICPP 2020 flavor; override per experiment
            topology,
            catalog: CatalogSpec::default(),
            stream: StreamSpec::default(),
        };
        match name {
            // The paper's own scale, for apples-to-apples comparisons.
            "waxman-100" => Some(spec(TopologySpec::Waxman {
                nodes: 100,
                alpha: 0.4,
                beta: 0.15,
                cloudlet_fraction: 0.10,
                capacity_range: (4000.0, 8000.0),
            })),
            "sagin-1k" => Some(spec(TopologySpec::Sagin { tiers: sagin_tiers(1) })),
            "sagin-5k" => Some(spec(TopologySpec::Sagin { tiers: sagin_tiers(5) })),
            "ba-1k" => Some(spec(TopologySpec::BarabasiAlbert {
                nodes: 2500,
                attach: 3,
                cloudlet_fraction: 0.40,
                capacity_range: (3000.0, 9000.0),
            })),
            "fattree-16" => {
                Some(spec(TopologySpec::FatTree { k: 16, host_capacity: (4000.0, 8000.0) }))
            }
            _ => None,
        }
    }

    /// Realize the spec: build the graph, place per-tier cloudlet capacities,
    /// and draw the VNF catalog. Topology and catalog use independent salted
    /// RNG streams of `seed`, so stream-parameter changes never perturb the
    /// network.
    pub fn build(&self) -> BuiltScenario {
        let mut rng = StdRng::seed_from_u64(derive_seed(self.seed, 0, TOPO_SALT));
        let (network, tier_of, tier_names, node_weights) = match &self.topology {
            TopologySpec::Waxman { nodes, alpha, beta, cloudlet_fraction, capacity_range } => {
                let cfg = WaxmanConfig {
                    nodes: *nodes,
                    alpha: *alpha,
                    beta: *beta,
                    ensure_connected: true,
                };
                let (g, _) = waxman(&cfg, &mut rng);
                let n = g.num_nodes();
                let count = fraction_count(n, *cloudlet_fraction);
                let net = MecNetwork::with_random_cloudlets(g, count, *capacity_range, &mut rng);
                (net, vec![0; n], vec!["waxman".to_string()], vec![1.0; n])
            }
            TopologySpec::TransitStub {
                transit_domains,
                transit_nodes,
                stubs_per_transit_node,
                stub_nodes,
                intra_alpha,
                capacity_range,
            } => {
                let cfg = TransitStubConfig {
                    transit_domains: *transit_domains,
                    transit_nodes: *transit_nodes,
                    stubs_per_transit_node: *stubs_per_transit_node,
                    stub_nodes: *stub_nodes,
                    intra_alpha: *intra_alpha,
                };
                let (g, roles) = transit_stub(&cfg, &mut rng);
                let n = g.num_nodes();
                let mut capacity = vec![0.0; n];
                let mut tier_of = vec![1; n];
                for (i, role) in roles.iter().enumerate() {
                    if matches!(role, NodeRole::Transit { .. }) {
                        capacity[i] = rng.gen_range(capacity_range.0..=capacity_range.1);
                        tier_of[i] = 0;
                    }
                }
                let net = MecNetwork::new(g, capacity);
                (net, tier_of, vec!["transit".to_string(), "stub".to_string()], vec![1.0; n])
            }
            TopologySpec::Sagin { tiers } => {
                let (g, tier_of) = sagin(tiers, &mut rng);
                let n = g.num_nodes();
                let mut capacity = vec![0.0; n];
                let mut weights = vec![0.0; n];
                for (t, tier) in tiers.iter().enumerate() {
                    let ids: Vec<usize> = (0..n).filter(|&i| tier_of[i] == t).collect();
                    let per_node = tier.popularity_weight / ids.len() as f64;
                    for &i in &ids {
                        weights[i] = per_node;
                    }
                    let mut picks = ids.clone();
                    picks.shuffle(&mut rng);
                    picks.truncate(fraction_count(ids.len(), tier.cloudlet_fraction));
                    for i in picks {
                        capacity[i] = rng.gen_range(tier.capacity_range.0..=tier.capacity_range.1);
                    }
                }
                let net = MecNetwork::new(g, capacity);
                let names = tiers.iter().map(|t| t.name.clone()).collect();
                (net, tier_of, names, weights)
            }
            TopologySpec::BarabasiAlbert { nodes, attach, cloudlet_fraction, capacity_range } => {
                let g = crate::zoo::barabasi_albert(*nodes, *attach, &mut rng);
                let n = g.num_nodes();
                let count = fraction_count(n, *cloudlet_fraction);
                let net = MecNetwork::with_random_cloudlets(g, count, *capacity_range, &mut rng);
                (net, vec![0; n], vec!["ba".to_string()], vec![1.0; n])
            }
            TopologySpec::FatTree { k, host_capacity } => {
                let (g, roles) = fat_tree(*k);
                let n = g.num_nodes();
                let mut capacity = vec![0.0; n];
                let mut tier_of = vec![0; n];
                let mut weights = vec![0.0; n];
                for (i, role) in roles.iter().enumerate() {
                    match role {
                        FatTreeRole::Core => tier_of[i] = 0,
                        FatTreeRole::Aggregation { .. } => tier_of[i] = 1,
                        FatTreeRole::Edge { .. } => tier_of[i] = 2,
                        FatTreeRole::Host { .. } => {
                            tier_of[i] = 3;
                            capacity[i] = rng.gen_range(host_capacity.0..=host_capacity.1);
                            weights[i] = 1.0;
                        }
                    }
                }
                let net = MecNetwork::new(g, capacity);
                let names = ["core", "agg", "edge", "host"].iter().map(|s| s.to_string()).collect();
                (net, tier_of, names, weights)
            }
        };
        let mut cat_rng = StdRng::seed_from_u64(derive_seed(self.seed, 0, CATALOG_SALT));
        let catalog = VnfCatalog::random(
            self.catalog.types,
            self.catalog.demand_range,
            self.catalog.reliability_range,
            &mut cat_rng,
        );
        debug_assert!(network.graph().is_connected());
        BuiltScenario { spec: self.clone(), network, catalog, tier_of, tier_names, node_weights }
    }
}

/// Three-tier SAGIN preset scaled by `x` (x=1 → ~1,000 cloudlets).
fn sagin_tiers(x: usize) -> Vec<TierSpec> {
    vec![
        TierSpec {
            name: "space-core".into(),
            nodes: 24 * x,
            cloudlet_fraction: 1.0,
            capacity_range: (24_000.0, 48_000.0),
            alpha: 0.8,
            beta: 0.6,
            uplinks: 0,
            popularity_weight: 0.5,
        },
        TierSpec {
            name: "aerial-agg".into(),
            nodes: 240 * x,
            cloudlet_fraction: 0.5,
            capacity_range: (8_000.0, 16_000.0),
            alpha: 0.5,
            beta: 0.3,
            uplinks: 2,
            popularity_weight: 1.5,
        },
        TierSpec {
            name: "ground-edge".into(),
            nodes: 2400 * x,
            cloudlet_fraction: 0.36,
            capacity_range: (2_000.0, 6_000.0),
            alpha: 0.4,
            beta: 0.12,
            uplinks: 1,
            popularity_weight: 8.0,
        },
    ]
}

/// `floor(fraction * n)` clamped to `[1, n]` — every scenario keeps at least
/// one cloudlet so admission is well-defined.
fn fraction_count(n: usize, fraction: f64) -> usize {
    ((n as f64 * fraction.clamp(0.0, 1.0)) as usize).clamp(1, n)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_build_connected_networks() {
        for name in ["waxman-100", "fattree-16"] {
            let spec = ScenarioSpec::preset(name).unwrap();
            let built = spec.build();
            assert!(built.network.graph().is_connected(), "{name} disconnected");
            assert!(built.cloudlets() > 0);
            assert_eq!(built.node_weights.len(), built.network.num_nodes());
        }
    }

    #[test]
    fn sagin_1k_hits_the_cloudlet_scale_point() {
        let built = ScenarioSpec::preset("sagin-1k").unwrap().build();
        let c = built.cloudlets();
        assert!(c >= 1000, "sagin-1k must provide >= 1000 cloudlets, got {c}");
        assert_eq!(built.tier_names.len(), 3);
        // Capacity classes: core cloudlets are strictly fatter than edge ones.
        let cap = |tier: usize| -> (f64, f64) {
            let caps: Vec<f64> = built
                .network
                .cloudlet_ids()
                .iter()
                .filter(|&&i| built.tier_of[i.index()] == tier)
                .map(|&i| built.network.capacity(i))
                .collect();
            let min = caps.iter().cloned().fold(f64::INFINITY, f64::min);
            let max = caps.iter().cloned().fold(0.0f64, f64::max);
            (min, max)
        };
        let (core_min, _) = cap(0);
        let (_, edge_max) = cap(2);
        assert!(core_min > edge_max, "core class {core_min} must exceed edge class {edge_max}");
    }

    #[test]
    fn build_is_deterministic_per_seed() {
        let spec = ScenarioSpec::preset("waxman-100").unwrap();
        let a = spec.build();
        let b = spec.build();
        assert_eq!(a.network.num_nodes(), b.network.num_nodes());
        assert_eq!(a.network.cloudlet_ids(), b.network.cloudlet_ids());
        let mut c = spec.clone();
        c.seed ^= 1;
        let c = c.build();
        assert_ne!(a.network.cloudlet_ids(), c.network.cloudlet_ids());
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = ScenarioSpec::preset("sagin-1k").unwrap();
        let text = serde_json::to_string_pretty(&spec).unwrap();
        let back: ScenarioSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(back.name, spec.name);
        assert_eq!(back.seed, spec.seed);
        match (&back.topology, &spec.topology) {
            (TopologySpec::Sagin { tiers: a }, TopologySpec::Sagin { tiers: b }) => {
                assert_eq!(a.len(), b.len());
                assert_eq!(a[2].nodes, b[2].nodes);
                assert_eq!(a[0].capacity_range, b[0].capacity_range);
            }
            _ => panic!("topology variant lost in round-trip"),
        }
    }

    #[test]
    fn presets_validate_and_broken_fields_do_not() {
        for name in ScenarioSpec::PRESETS {
            let spec = ScenarioSpec::preset(name).unwrap();
            assert_eq!(spec.validate(), Ok(()), "{name}");
        }
        let base = ScenarioSpec::preset("sagin-1k").unwrap();
        let mut s = base.clone();
        if let TopologySpec::Sagin { tiers } = &mut s.topology {
            tiers[1].uplinks = 0;
        }
        assert!(s.validate().unwrap_err().contains("uplinks"));
        let mut s = base.clone();
        s.stream.expectation = 1.5;
        assert!(s.validate().unwrap_err().contains("expectation"));
        let mut s = base;
        s.catalog.demand_range = (400.0, 200.0);
        assert!(s.validate().unwrap_err().contains("demand_range"));
    }

    #[test]
    fn load_rejects_unknown_names_with_preset_list() {
        let err = ScenarioSpec::load("no-such-preset").unwrap_err();
        assert!(err.contains("sagin-1k"), "error should list presets: {err}");
    }
}
