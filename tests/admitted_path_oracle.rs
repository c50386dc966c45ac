//! The stream engine's admitted path against the one-shot public functions.
//!
//! * **Placement** — `CloudletResiduals::place` must make the draws, the
//!   choices and the residual writes of
//!   `mecnet::admission::random_placement_capacity_aware` from the same RNG
//!   state: equal locations or two rejects, bit-equal residuals, a copy that
//!   still mirrors them, and the same next draw. Residuals and demands are
//!   drawn from a few multiples of 50 MHz, so `residual == demand` is
//!   common; cloudlets sit at zero residual, some networks have no cloudlet
//!   at all, and demands span 40x, so a late function often fails after two
//!   primaries landed on one cloudlet. One copy serves a whole sequence of
//!   requests, as in the engine.
//! * **Instance** — one instance rebuilt in place over a random sequence of
//!   placements and residuals on the zoo presets, with `l` in {0, 1, 2},
//!   must equal (`==`) a fresh `new_localized_with_index`, and its eligible
//!   hosts (by node) and `K_i` must equal those of the full construction
//!   `new_with_index`, which finds bins by binary search. Primaries repeat,
//!   cloudlets drop to zero residual, and chains shrink and grow.
//!
//! The vendored proptest stub is deterministic (per-test-name seed, no
//! shrinking), so every run exercises the same cases.

use mec_sfc_reliability::mecnet::admission::random_placement_capacity_aware;
use mec_sfc_reliability::mecnet::graph::Graph;
use mec_sfc_reliability::mecnet::vnf::VnfTypeId;
use mec_sfc_reliability::mecnet::{MecNetwork, NodeId, SfcRequest};
use mec_sfc_reliability::relaug::instance::InstanceScratch;
use mec_sfc_reliability::relaug::stream::CloudletResiduals;
use mec_sfc_reliability::relaug::AugmentationInstance;
use mec_sfc_reliability::scen::{BuiltScenario, ScenarioSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

fn bits(residual: &[f64]) -> Vec<u64> {
    residual.iter().map(|x| x.to_bits()).collect()
}

/// Three demand values in 100–4000 MHz, multiples of 50, the largest 40
/// times the smallest.
fn demand_values(rng: &mut StdRng) -> [f64; 3] {
    let small = rng.gen_range(2..=5u32) as f64 * 50.0;
    [small, rng.gen_range(4..=40u32) as f64 * 50.0, small * 40.0]
}

/// A network of up to 300 nodes with no cloudlet, one to three, or up to
/// 200, and cloudlet residuals of zero, a demand value, a multiple of one
/// or the sum of two.
fn placement_network(rng: &mut StdRng, demand: &[f64; 3]) -> (MecNetwork, Vec<f64>) {
    let nodes = rng.gen_range(1..=300usize);
    let cloudlets = match rng.gen_range(0..10) {
        0 => 0,
        1..=4 => rng.gen_range(1..=3usize).min(nodes),
        _ => rng.gen_range(1..=nodes.min(200)),
    };
    let mut ids: Vec<usize> = (0..nodes).collect();
    ids.shuffle(rng);
    let mut capacity = vec![0.0; nodes];
    for &v in &ids[..cloudlets] {
        capacity[v] = 20_000.0;
    }
    let pick = |rng: &mut StdRng| demand[rng.gen_range(0..3usize)];
    let residual = (0..nodes)
        .map(|v| match rng.gen_range(0..5) {
            _ if capacity[v] == 0.0 => 0.0,
            0 => 0.0,
            1 | 2 => pick(rng),
            3 => pick(rng) * rng.gen_range(2..=4u32) as f64,
            _ => pick(rng) + pick(rng),
        })
        .collect();
    (MecNetwork::new(Graph::new(nodes), capacity), residual)
}

/// A chain of 1–8 functions with demands from `demand`.
fn placement_request(id: usize, rng: &mut StdRng, demand: &[f64; 3]) -> (SfcRequest, Vec<f64>) {
    let len = rng.gen_range(1..=8usize);
    let demands: Vec<f64> = (0..len).map(|_| demand[rng.gen_range(0..3usize)]).collect();
    let sfc = (0..len).map(VnfTypeId).collect();
    (SfcRequest::new(id, sfc, 0.99, NodeId(0), NodeId(0)), demands)
}

/// A zoo preset's network and catalog.
fn zoo(preset: &str) -> BuiltScenario {
    ScenarioSpec::preset(preset).expect("known preset").build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn engine_placement_equals_the_reference(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let demand = demand_values(&mut rng);
        let (net, residual) = placement_network(&mut rng, &demand);
        let mut reference = residual.clone();
        let mut engine = residual;
        let mut copy = CloudletResiduals::new(&net, &engine);
        let mut locations = Vec::new();
        for id in 0..rng.gen_range(1..=6usize) {
            let (req, demands) = placement_request(id, &mut rng, &demand);
            let draw_seed = rng.gen::<u64>();
            let mut want_rng = StdRng::seed_from_u64(draw_seed);
            let mut got_rng = StdRng::seed_from_u64(draw_seed);
            let want = random_placement_capacity_aware(
                &net,
                &req,
                &demands,
                &mut reference,
                &mut want_rng,
            );
            let placed = copy.place(&net, &demands, &mut engine, &mut got_rng, &mut locations);
            prop_assert_eq!(
                want.map(|p| p.locations),
                placed.then(|| locations.clone()),
                "seed {} request {}",
                seed,
                id
            );
            prop_assert_eq!(bits(&engine), bits(&reference), "seed {} request {}", seed, id);
            prop_assert!(copy.mirrors(&net, &engine), "seed {} request {}: copy drifted", seed, id);
            prop_assert_eq!(got_rng.gen::<u64>(), want_rng.gen::<u64>(), "seed {}", seed);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn in_place_instance_equals_fresh_and_full_builds(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let preset = ["waxman-100", "fattree-16", "ba-1k", "sagin-1k"][rng.gen_range(0..4usize)];
        let built = zoo(preset);
        let (net, catalog) = (&built.network, &built.catalog);
        let cloudlets = net.cloudlet_ids();
        let capacity: Vec<f64> = net.residual_capacities(1.0);
        let mut inst = AugmentationInstance::default();
        let mut scratch = InstanceScratch::default();
        for step in 0..40 {
            let l = rng.gen_range(0..=2u32);
            let nbhd = net.neighborhood_index(l);
            // Residuals: full, a fraction, or zero, per cloudlet.
            let residual: Vec<f64> = capacity
                .iter()
                .map(|&c| match rng.gen_range(0..4) {
                    0 => 0.0,
                    1 => c,
                    _ => (c * rng.gen_range(0.0..1.0f64) / 50.0).floor() * 50.0,
                })
                .collect();
            // Primaries from a small pool, so that they repeat.
            let pool: Vec<NodeId> =
                (0..rng.gen_range(1..=4)).map(|_| cloudlets[rng.gen_range(0..cloudlets.len())]).collect();
            let len = rng.gen_range(1..=8usize);
            let placement: Vec<NodeId> = (0..len).map(|_| pool[rng.gen_range(0..pool.len())]).collect();
            let sfc = (0..len).map(|_| VnfTypeId(rng.gen_range(0..catalog.len()))).collect();
            let req = SfcRequest::new(step, sfc, 0.999, NodeId(0), NodeId(0));

            inst.rebuild_localized(net, catalog, &req, &placement, &residual, &nbhd, &mut scratch);
            let fresh = AugmentationInstance::new_localized_with_index(
                net, catalog, &req, &placement, &residual, &nbhd,
            );
            prop_assert!(inst == fresh, "{} l={} step {}: rebuild != fresh build", preset, l, step);
            let full = AugmentationInstance::new_with_index(
                net, catalog, &req, &placement, &residual, &nbhd,
            );
            for (i, (f, g)) in inst.functions.iter().zip(&full.functions).enumerate() {
                let hosts: Vec<NodeId> = f.eligible_bins.iter().map(|&b| inst.bins[b].node).collect();
                let want: Vec<NodeId> = g.eligible_bins.iter().map(|&b| full.bins[b].node).collect();
                prop_assert_eq!(hosts, want, "{} l={} step {} function {}", preset, l, step, i);
                prop_assert_eq!(f.max_secondaries, g.max_secondaries, "{} step {} K_{}", preset, step, i);
            }
            // The engine sets shared backups after a rebuild; the next
            // rebuild must not see them.
            for f in &mut inst.functions {
                f.existing_backups = rng.gen_range(0..=3);
            }
        }
    }
}
