//! The service reliability augmentation problem instance.
//!
//! Built from an admitted request: for every chain position `i` with primary
//! on cloudlet `v_i`, the candidate hosts are the cloudlets of `N_l^+(v_i)`
//! with enough residual capacity for one instance of `f_i` (the paper's
//! constraints 11–12), and the item set contains `K_i` potential secondaries
//! per function, where `K_i = Σ_{u ∈ N_l^+(v_i)} ⌊C'_u / c(f_i)⌋`
//! (Section 4.2).

use mecnet::graph::NodeId;
use mecnet::neighborhood::NeighborhoodIndex;
use mecnet::network::MecNetwork;
use mecnet::request::SfcRequest;
use mecnet::vnf::{VnfCatalog, VnfTypeId};
use mecnet::workload::Scenario;

use crate::reliability;

/// A cloudlet with residual capacity, the "bin" of the paper's GAP reduction.
#[derive(Debug, Clone, PartialEq)]
pub struct Bin {
    pub node: NodeId,
    /// Residual capacity `C'_u` in MHz available for secondaries.
    pub residual: f64,
}

/// One chain position: a function, its primary's location, and its candidate
/// bins.
#[derive(Debug, Clone, PartialEq)]
pub struct FunctionSlot {
    pub vnf: VnfTypeId,
    /// Per-instance computing demand `c(f_i)` in MHz.
    pub demand: f64,
    /// Instance reliability `r_i`.
    pub reliability: f64,
    /// Cloudlet hosting the primary instance.
    pub primary: NodeId,
    /// Indices into [`AugmentationInstance::bins`] of the cloudlets in
    /// `N_l^+(primary)` with `C'_u >= c(f_i)`.
    pub eligible_bins: Vec<usize>,
    /// `K_i`: maximum number of secondaries that could ever be packed for
    /// this function (capacity-wise, ignoring other functions).
    pub max_secondaries: usize,
    /// Backup instances of this function's type that already exist within
    /// `N_l^+(primary)` and can be *shared* (Qu et al. 2018-style extension;
    /// 0 in the paper's single-request setting). They shift every marginal
    /// gain/cost: the `k`-th new secondary behaves like slot
    /// `existing_backups + k` of the geometric ladder.
    pub existing_backups: usize,
}

/// A single potential secondary instance — item `(i, k)` of the paper's
/// budgeted min-cost GAP reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Chain position (index into `functions`).
    pub func: usize,
    /// Which secondary this is (1-based: the `k`-th backup of the function).
    pub k: usize,
    /// The paper's cost `c(f_i, k, ·) = -log(r_i (1-r_i)^k)` (Eq. 3).
    pub cost: f64,
    /// Log-reliability gain `ln R(f_i,k) - ln R(f_i,k-1)` — the linearized
    /// objective coefficient (see DESIGN.md on the Eq. 5–7 reinterpretation).
    pub gain: f64,
}

impl FunctionSlot {
    /// Number of enumerable new-secondary slots once marginal gains below
    /// `gain_floor` are truncated (`gain_floor <= 0` disables truncation).
    /// Accounts for already-existing shared backups: their slots are spent.
    pub fn capped_slots(&self, gain_floor: f64) -> usize {
        if gain_floor > 0.0 {
            reliability::slots_above_gain_floor(
                self.reliability,
                self.existing_backups + self.max_secondaries,
                gain_floor,
            )
            .saturating_sub(self.existing_backups)
        } else {
            self.max_secondaries
        }
    }
}

/// `InstanceScratch::bin_of` entry of a node that is not a bin.
const NOT_A_BIN: u32 = u32::MAX;

/// Reusable buffers of [`AugmentationInstance::rebuild_localized`]. They
/// carry nothing from one build to the next that the build reads: the
/// bitset is all zero between builds and every node→bin entry a build reads
/// was written by that build.
#[derive(Debug, Clone, Default)]
pub struct InstanceScratch {
    /// Bitset over node ids: the union of the primaries' candidate
    /// cloudlets.
    union: Vec<u64>,
    /// Node index -> index into the bins, or [`NOT_A_BIN`].
    bin_of: Vec<u32>,
    /// The instance's pool for [`AugmentationInstance::resize_functions`]:
    /// eligible-bin vectors of the slots a shorter chain dropped, kept for
    /// the next longer one.
    spare: Vec<Vec<usize>>,
}

/// The full instance handed to the algorithms.
///
/// `PartialEq` compares every input the solvers read (functions, bins with
/// exact residuals, `l`, expectation): two equal instances are guaranteed to
/// produce bit-identical solver runs given equal RNG state. The default is
/// the empty instance [`AugmentationInstance::rebuild_localized`] starts
/// from.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct AugmentationInstance {
    pub functions: Vec<FunctionSlot>,
    pub bins: Vec<Bin>,
    /// Locality radius `l` (paper default 1).
    pub l: u32,
    /// Reliability expectation `ρ_j`.
    pub expectation: f64,
}

impl AugmentationInstance {
    /// Build an instance from explicit parts.
    ///
    /// `residual[v]` is the residual capacity of node `v` (zero for plain
    /// APs); `placement[i]` hosts the primary of chain position `i`.
    pub fn new(
        network: &MecNetwork,
        catalog: &VnfCatalog,
        request: &SfcRequest,
        placement: &[NodeId],
        residual: &[f64],
        l: u32,
    ) -> Self {
        Self::new_with_index(
            network,
            catalog,
            request,
            placement,
            residual,
            &network.neighborhood_index(l),
        )
    }

    /// [`AugmentationInstance::new`] against an already-resolved
    /// [`NeighborhoodIndex`] (whose radius supplies `l`). The streaming
    /// pipelines resolve the index once and use this per request, so
    /// construction does no BFS and no whole-network scratch allocation.
    pub fn new_with_index(
        network: &MecNetwork,
        catalog: &VnfCatalog,
        request: &SfcRequest,
        placement: &[NodeId],
        residual: &[f64],
        nbhd: &NeighborhoodIndex,
    ) -> Self {
        assert_eq!(placement.len(), request.len(), "placement must cover the chain");
        assert_eq!(residual.len(), network.num_nodes(), "residual must cover all nodes");
        // Bins: every cloudlet with positive residual capacity, ascending.
        let bins: Vec<Bin> = network
            .cloudlet_ids()
            .iter()
            .filter(|&&v| residual[v.index()] > 0.0)
            .map(|&v| Bin { node: v, residual: residual[v.index()] })
            .collect();
        Self::finish(catalog, request, placement, bins, nbhd)
    }

    /// Tail of the full construction: bins are fixed (ascending by node),
    /// eligibility comes from the index slices. It finds bins by binary
    /// search, independently of [`AugmentationInstance::rebuild_localized`],
    /// which the instance property tests check against it.
    fn finish(
        catalog: &VnfCatalog,
        request: &SfcRequest,
        placement: &[NodeId],
        bins: Vec<Bin>,
        nbhd: &NeighborhoodIndex,
    ) -> Self {
        let functions = request
            .sfc
            .iter()
            .zip(placement)
            .map(|(&vnf, &primary)| {
                let demand = catalog.demand(vnf);
                // Index slices are ascending by node, and `bins` is ascending
                // by node, so `eligible` comes out sorted without a sort.
                let eligible: Vec<usize> = nbhd
                    .cloudlets_within(primary)
                    .iter()
                    .filter_map(|&u| {
                        bins.binary_search_by_key(&u, |b| b.node)
                            .ok()
                            .filter(|&b| bins[b].residual >= demand)
                    })
                    .collect();
                debug_assert!(eligible.windows(2).all(|w| w[0] < w[1]));
                let max_secondaries: usize =
                    eligible.iter().map(|&b| (bins[b].residual / demand).floor() as usize).sum();
                FunctionSlot {
                    vnf,
                    demand,
                    reliability: catalog.reliability(vnf),
                    primary,
                    eligible_bins: eligible,
                    max_secondaries,
                    existing_backups: 0,
                }
            })
            .collect();
        AugmentationInstance { functions, bins, l: nbhd.l(), expectation: request.expectation }
    }

    /// Like [`AugmentationInstance::new_with_index`], but the bin set is
    /// restricted to cloudlets inside the union of the closed `l`-hop
    /// neighborhoods of the primaries — the only nodes whose residual
    /// capacity the solvers can ever read or write for this request. It is
    /// [`AugmentationInstance::rebuild_localized`] into a fresh instance
    /// with fresh buffers.
    ///
    /// Solutions and metrics are identical in value to the full-bin
    /// construction (eligibility is already `l`-local); what changes is that
    /// the instance stops depending on the residual state of *unrelated*
    /// cloudlets: two constructions agree (`==`) exactly when the
    /// request-relevant slice of the network agrees. The stream engine
    /// builds instances this way.
    pub fn new_localized_with_index(
        network: &MecNetwork,
        catalog: &VnfCatalog,
        request: &SfcRequest,
        placement: &[NodeId],
        residual: &[f64],
        nbhd: &NeighborhoodIndex,
    ) -> Self {
        let mut inst = AugmentationInstance::default();
        inst.rebuild_localized(
            network,
            catalog,
            request,
            placement,
            residual,
            nbhd,
            &mut InstanceScratch::default(),
        );
        inst
    }

    /// Resize `functions` to `len` slots without dropping an eligible-bin
    /// vector: slots past `len` hand theirs to `spare`, and new slots take
    /// theirs from it. A new slot's other fields are placeholders that the
    /// caller overwrites, as both in-place builders
    /// ([`Self::rebuild_localized`] and the exact solver's per-component
    /// sub-instance) do.
    pub(crate) fn resize_functions(&mut self, len: usize, spare: &mut Vec<Vec<usize>>) {
        while self.functions.len() > len {
            let slot = self.functions.pop().expect("longer than len");
            spare.push(slot.eligible_bins);
        }
        while self.functions.len() < len {
            self.functions.push(FunctionSlot {
                vnf: VnfTypeId(0),
                demand: 0.0,
                reliability: 0.0,
                primary: NodeId(0),
                eligible_bins: spare.pop().unwrap_or_default(),
                max_secondaries: 0,
                existing_backups: 0,
            });
        }
    }

    /// Overwrite `self` with the localized instance of `request`, equal
    /// (`==`) to what [`AugmentationInstance::new_localized_with_index`]
    /// builds, reusing `self`'s vectors and `scratch`: the stream engine
    /// keeps one instance and rebuilds it per admitted request without
    /// allocating once both have grown to the largest request seen.
    ///
    /// The relevant bin set is the union of the primaries' index slices,
    /// collected in a bitset over node ids, so it comes out ascending and
    /// deduplicated without a sort. Each candidate cloudlet finds its bin in
    /// O(1) through a node→bin table, which is written for every node of
    /// the union before any read, so no entry of an earlier build is ever
    /// read. `K_i` sums `(C'_u / c(f_i)) as usize`, which equals
    /// `.floor() as usize` for every `f64` under Rust's saturating cast.
    #[allow(clippy::too_many_arguments)]
    pub fn rebuild_localized(
        &mut self,
        network: &MecNetwork,
        catalog: &VnfCatalog,
        request: &SfcRequest,
        placement: &[NodeId],
        residual: &[f64],
        nbhd: &NeighborhoodIndex,
        scratch: &mut InstanceScratch,
    ) {
        assert_eq!(placement.len(), request.len(), "placement must cover the chain");
        assert_eq!(residual.len(), network.num_nodes(), "residual must cover all nodes");
        let InstanceScratch { union, bin_of, spare } = scratch;
        let nodes = network.num_nodes();
        if union.len() < nodes.div_ceil(64) {
            union.resize(nodes.div_ceil(64), 0);
        }
        if bin_of.len() < nodes {
            bin_of.resize(nodes, NOT_A_BIN);
        }
        // Union of the primaries' candidate cloudlets; words outside
        // `lo..hi` stay zero.
        let (mut lo, mut hi) = (usize::MAX, 0);
        for &p in placement {
            for &u in nbhd.cloudlets_within(p) {
                let w = u.index() / 64;
                union[w] |= 1 << (u.index() % 64);
                lo = lo.min(w);
                hi = hi.max(w + 1);
            }
        }
        // Bins ascending by node; the scan leaves the bitset zeroed.
        self.bins.clear();
        for (w, word) in union[..hi].iter_mut().enumerate().skip(lo) {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let v = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                if residual[v] > 0.0 {
                    bin_of[v] = self.bins.len() as u32;
                    self.bins.push(Bin { node: NodeId(v), residual: residual[v] });
                } else {
                    bin_of[v] = NOT_A_BIN;
                }
            }
        }
        self.resize_functions(request.len(), spare);
        for (i, (&vnf, &primary)) in request.sfc.iter().zip(placement).enumerate() {
            let demand = catalog.demand(vnf);
            let f = &mut self.functions[i];
            // Index slices are ascending by node, and so are the bins, so
            // the eligible list comes out sorted.
            let candidates = nbhd.cloudlets_within(primary);
            f.eligible_bins.clear();
            f.eligible_bins.reserve(candidates.len());
            let mut max_secondaries = 0usize;
            for &u in candidates {
                let b = bin_of[u.index()];
                if b != NOT_A_BIN && self.bins[b as usize].residual >= demand {
                    f.eligible_bins.push(b as usize);
                    max_secondaries += (self.bins[b as usize].residual / demand) as usize;
                }
            }
            debug_assert!(f.eligible_bins.windows(2).all(|w| w[0] < w[1]));
            f.vnf = vnf;
            f.demand = demand;
            f.reliability = catalog.reliability(vnf);
            f.primary = primary;
            f.max_secondaries = max_secondaries;
            f.existing_backups = 0;
        }
        self.l = nbhd.l();
        self.expectation = request.expectation;
    }

    /// Build from a generated [`Scenario`] with locality radius `l`.
    pub fn from_scenario(s: &Scenario, l: u32) -> Self {
        AugmentationInstance::new(
            &s.network,
            &s.catalog,
            &s.request,
            &s.placement.locations,
            &s.residual,
            l,
        )
    }

    /// Chain length `L_j`.
    pub fn chain_len(&self) -> usize {
        self.functions.len()
    }

    /// Reliability before any *new* secondaries: `Π_i R(r_i, existing_i)`
    /// (`Π r_i` in the paper's setting, where nothing is shared).
    pub fn base_reliability(&self) -> f64 {
        self.functions
            .iter()
            .map(|f| reliability::function_reliability(f.reliability, f.existing_backups))
            .product()
    }

    /// Whether the primaries alone meet `ρ_j` (the algorithms' early EXIT).
    pub fn expectation_met_by_primaries(&self) -> bool {
        self.base_reliability() >= self.expectation
    }

    /// The paper's budget `C = -log ρ_j`.
    pub fn budget(&self) -> f64 {
        reliability::budget_from_expectation(self.expectation)
    }

    /// Total item count `N = Σ K_i` (before any gain-floor capping).
    pub fn total_items(&self) -> usize {
        self.functions.iter().map(|f| f.max_secondaries).sum()
    }

    /// Enumerate items `(i, k)` for `k = 1..=K_i`, with `K_i` additionally
    /// capped where marginal gains drop below `gain_floor` (lossless beyond
    /// that precision; pass `0.0` for the uncapped paper item set).
    pub fn items(&self, gain_floor: f64) -> Vec<Item> {
        let mut out = Vec::new();
        for (i, f) in self.functions.iter().enumerate() {
            let cap = f.capped_slots(gain_floor);
            for k in 1..=cap {
                out.push(Item {
                    func: i,
                    k,
                    cost: reliability::paper_cost(f.reliability, f.existing_backups + k),
                    gain: reliability::log_gain(f.reliability, f.existing_backups + k),
                });
            }
        }
        out
    }

    /// Upper bound on `N` from Theorem 6.2:
    /// `N <= ⌈L_j · C_max · (d_max + 1) / c_min⌉` where `d_max` is the largest
    /// closed `l`-hop cloudlet neighborhood size.
    pub fn item_count_bound(&self) -> usize {
        if self.functions.is_empty() || self.bins.is_empty() {
            return 0;
        }
        let c_max = self.bins.iter().map(|b| b.residual).fold(0.0, f64::max);
        let c_min = self.functions.iter().map(|f| f.demand).fold(f64::INFINITY, f64::min);
        let d_max = self.functions.iter().map(|f| f.eligible_bins.len()).max().unwrap_or(0);
        (self.chain_len() as f64 * c_max * d_max as f64 / c_min).ceil() as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mecnet::graph::Graph;
    use mecnet::vnf::VnfType;

    /// Path 0-1-2-3 with cloudlets at 1, 2, 3.
    fn fixture() -> (MecNetwork, VnfCatalog, SfcRequest) {
        let mut g = Graph::new(4);
        g.add_edge(NodeId(0), NodeId(1));
        g.add_edge(NodeId(1), NodeId(2));
        g.add_edge(NodeId(2), NodeId(3));
        let net = MecNetwork::new(g, vec![0.0, 1000.0, 800.0, 600.0]);
        let mut cat = VnfCatalog::new();
        cat.add(VnfType { name: "a".into(), demand_mhz: 300.0, reliability: 0.8 });
        cat.add(VnfType { name: "b".into(), demand_mhz: 500.0, reliability: 0.9 });
        let req = SfcRequest::new(0, vec![VnfTypeId(0), VnfTypeId(1)], 0.99, NodeId(0), NodeId(3));
        (net, cat, req)
    }

    #[test]
    fn eligibility_respects_l_hop_and_capacity() {
        let (net, cat, req) = fixture();
        let placement = [NodeId(1), NodeId(3)];
        let residual = vec![0.0, 1000.0, 800.0, 600.0];
        let inst = AugmentationInstance::new(&net, &cat, &req, &placement, &residual, 1);
        assert_eq!(inst.bins.len(), 3);
        // f0 (demand 300) primary at node 1: N_1^+ = {0,1,2}; bins at 1 and 2
        // both have >= 300 residual.
        let f0 = &inst.functions[0];
        let hosts0: Vec<NodeId> = f0.eligible_bins.iter().map(|&b| inst.bins[b].node).collect();
        assert_eq!(hosts0, vec![NodeId(1), NodeId(2)]);
        // K_0 = floor(1000/300) + floor(800/300) = 3 + 2 = 5.
        assert_eq!(f0.max_secondaries, 5);
        // f1 (demand 500) primary at node 3: N_1^+ = {2,3}; node 2 has 800
        // (>=500), node 3 has 600 (>=500).
        let f1 = &inst.functions[1];
        let hosts1: Vec<NodeId> = f1.eligible_bins.iter().map(|&b| inst.bins[b].node).collect();
        assert_eq!(hosts1, vec![NodeId(2), NodeId(3)]);
        // K_1 = floor(800/500) + floor(600/500) = 1 + 1 = 2.
        assert_eq!(f1.max_secondaries, 2);
        assert_eq!(inst.total_items(), 7);
    }

    #[test]
    fn capacity_below_demand_excludes_bin() {
        let (net, cat, req) = fixture();
        let placement = [NodeId(1), NodeId(1)];
        // Node 3 has only 200 left: ineligible for either function.
        let residual = vec![0.0, 250.0, 800.0, 200.0];
        let inst = AugmentationInstance::new(&net, &cat, &req, &placement, &residual, 2);
        // f1 demand 500: within 2 hops of node 1 -> {1, 2, 3}; only node 2 fits.
        let f1 = &inst.functions[1];
        let hosts: Vec<NodeId> = f1.eligible_bins.iter().map(|&b| inst.bins[b].node).collect();
        assert_eq!(hosts, vec![NodeId(2)]);
        // f0 demand 300: node 1 (250) too small, node 2 fits, node 3 too small.
        let f0 = &inst.functions[0];
        let hosts0: Vec<NodeId> = f0.eligible_bins.iter().map(|&b| inst.bins[b].node).collect();
        assert_eq!(hosts0, vec![NodeId(2)]);
    }

    #[test]
    fn items_have_increasing_cost_decreasing_gain() {
        let (net, cat, req) = fixture();
        let placement = [NodeId(1), NodeId(3)];
        let residual = vec![0.0, 1000.0, 800.0, 600.0];
        let inst = AugmentationInstance::new(&net, &cat, &req, &placement, &residual, 1);
        let items = inst.items(0.0);
        assert_eq!(items.len(), inst.total_items());
        for w in items.windows(2) {
            if w[0].func == w[1].func {
                assert!(w[1].cost > w[0].cost);
                assert!(w[1].gain < w[0].gain);
            }
        }
        // Gain floor capping only removes items.
        let capped = inst.items(1e-3);
        assert!(capped.len() <= items.len());
    }

    #[test]
    fn base_reliability_and_budget() {
        let (net, cat, req) = fixture();
        let placement = [NodeId(1), NodeId(3)];
        let residual = vec![0.0, 1000.0, 800.0, 600.0];
        let inst = AugmentationInstance::new(&net, &cat, &req, &placement, &residual, 1);
        assert!((inst.base_reliability() - 0.72).abs() < 1e-12);
        assert!(!inst.expectation_met_by_primaries());
        assert!((inst.budget() - (-(0.99f64.ln()))).abs() < 1e-12);
        assert_eq!(inst.chain_len(), 2);
    }

    #[test]
    fn item_count_bound_dominates_actual() {
        let (net, cat, req) = fixture();
        let placement = [NodeId(1), NodeId(3)];
        let residual = vec![0.0, 1000.0, 800.0, 600.0];
        let inst = AugmentationInstance::new(&net, &cat, &req, &placement, &residual, 1);
        assert!(inst.item_count_bound() >= inst.total_items());
    }

    #[test]
    fn zero_residual_network_yields_no_bins() {
        let (net, cat, req) = fixture();
        let placement = [NodeId(1), NodeId(3)];
        let residual = vec![0.0; 4];
        let inst = AugmentationInstance::new(&net, &cat, &req, &placement, &residual, 1);
        assert!(inst.bins.is_empty());
        assert_eq!(inst.total_items(), 0);
        assert_eq!(inst.item_count_bound(), 0);
        assert!(inst.items(0.0).is_empty());
    }

    #[test]
    fn localized_instance_keeps_eligibility_and_drops_far_bins() {
        let (net, cat, req) = fixture();
        let placement = [NodeId(1), NodeId(1)];
        let residual = vec![0.0, 1000.0, 800.0, 600.0];
        let full = AugmentationInstance::new(&net, &cat, &req, &placement, &residual, 1);
        let nbhd = net.neighborhood_index(1);
        let local = AugmentationInstance::new_localized_with_index(
            &net, &cat, &req, &placement, &residual, &nbhd,
        );
        // N_1^+(1) = {0, 1, 2}: the cloudlet at node 3 is irrelevant and gone.
        let local_nodes: Vec<NodeId> = local.bins.iter().map(|b| b.node).collect();
        assert_eq!(local_nodes, vec![NodeId(1), NodeId(2)]);
        assert!(full.bins.len() > local.bins.len());
        // Same eligible hosts and item counts per function.
        for (lf, ff) in local.functions.iter().zip(&full.functions) {
            let lh: Vec<NodeId> = lf.eligible_bins.iter().map(|&b| local.bins[b].node).collect();
            let fh: Vec<NodeId> = ff.eligible_bins.iter().map(|&b| full.bins[b].node).collect();
            assert_eq!(lh, fh);
            assert_eq!(lf.max_secondaries, ff.max_secondaries);
        }
        assert_eq!(local.total_items(), full.total_items());
        // Changing residual outside the neighborhood changes the full
        // construction but not the localized one.
        let mut far = residual.clone();
        far[3] = 100.0;
        let local2 = AugmentationInstance::new_localized_with_index(
            &net, &cat, &req, &placement, &far, &nbhd,
        );
        assert_eq!(local, local2);
        let full2 = AugmentationInstance::new(&net, &cat, &req, &placement, &far, 1);
        assert_ne!(full, full2);
    }

    #[test]
    fn scenario_roundtrip() {
        use mecnet::workload::{generate_scenario, WorkloadConfig};
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(3);
        let s = generate_scenario(&WorkloadConfig::default(), &mut rng);
        let inst = AugmentationInstance::from_scenario(&s, 1);
        assert_eq!(inst.chain_len(), s.request.len());
        assert_eq!(inst.expectation, s.request.expectation);
        // All eligible bins must really be within 1 hop of the primary.
        for f in &inst.functions {
            for &b in &f.eligible_bins {
                let d = s.network.graph().hop_distance(f.primary, inst.bins[b].node).unwrap();
                assert!(d <= 1);
            }
        }
    }
}
