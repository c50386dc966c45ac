//! The stream engine's capacity gate against an ungated reference loop, and
//! the stream invariants every run must keep.
//!
//! * **Gate equivalence** — the engine rejects a request whose largest
//!   per-function demand exceeds the largest cloudlet residual without
//!   running admission. The reference loop below runs every request through
//!   admission, exactly as the benchmark's traced pass does:
//!   `random_placement_capacity_aware`, `new_localized_with_index`,
//!   `solve_scratch`, `try_reserve`/`commit` and the clamp fallback. The two
//!   must give equal records and bit-equal residuals. Demands span 40x, so
//!   when the reference places some primaries of a request the gate rejects
//!   and then fails, its rollback must restore the residuals exactly:
//!   `(r − d) + d` can round above `r` once `r > 2d`.
//! * **Stream invariants** — residuals stay in `[0, capacity]`, one record
//!   per request in id order, the `admitted` counter equals the admitted
//!   records, `met_expectation` implies the achieved reliability reaches
//!   `ρ_j`, and the gated rejects are a non-empty subset of the rejects on
//!   these saturating streams.
//!
//! The vendored proptest stub is deterministic (per-test-name seed, no
//! shrinking), so every run exercises the same instances.

use mec_sfc_reliability::mecnet::admission::random_placement_capacity_aware;
use mec_sfc_reliability::mecnet::{NodeId, SfcRequest};
use mec_sfc_reliability::milp::BnbConfig;
use mec_sfc_reliability::obs::Recorder;
use mec_sfc_reliability::relaug::ilp::IlpConfig;
use mec_sfc_reliability::relaug::stream::{
    process_stream_seeded, Algorithm, RequestRecord, StreamConfig, StreamObservation, StreamOutcome,
};
use mec_sfc_reliability::relaug::{AugmentationInstance, SolveScratch};
use mec_sfc_reliability::scen::{BuiltScenario, RequestStream, ScenarioSpec};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

const PRESETS: [&str; 3] = ["waxman-100", "fattree-16", "ba-1k"];
/// Long enough to saturate every preset at full capacity.
const REQUESTS: u64 = 1500;
/// The reference comparisons start half full, so they saturate after half
/// the admissions; their streams run long past saturation, where the gate
/// works, at little cost.
const CAPACITY_FRACTION: f64 = 0.5;
const GATED_REQUESTS: u64 = 4500;

// The engine's per-request RNG derivation is crate-private; this copy is
// checked by the equivalence test itself, since any drift moves records.
const ADMIT_SALT: u64 = 0x0041_444d_4954;
const SOLVE_SALT: u64 = 0x0053_4f4c_5645;

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn request_rng(seed: u64, k: usize, salt: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(splitmix64(seed ^ salt).wrapping_add(k as u64)))
}

/// The preset with per-function demands widened to 100–4000 MHz.
fn wide_demands(preset: &str) -> BuiltScenario {
    let mut spec = ScenarioSpec::preset(preset).expect("known preset");
    spec.catalog.demand_range = (100.0, 4000.0);
    spec.build()
}

fn algorithms() -> [Algorithm; 4] {
    let ilp = IlpConfig {
        bnb: BnbConfig { max_nodes: 2_000, ..Default::default() },
        ..Default::default()
    };
    [
        Algorithm::Heuristic(Default::default()),
        Algorithm::Greedy(Default::default()),
        Algorithm::Randomized(Default::default()),
        Algorithm::Ilp(ilp),
    ]
}

/// Every request through admission, no gate: the engine's steps as the
/// benchmark's traced pass composes them. Also returns how many rejects
/// rolled back placed primaries.
fn ungated(
    built: &BuiltScenario,
    reqs: &[SfcRequest],
    algorithm: &Algorithm,
    l: u32,
    seed: u64,
) -> (StreamOutcome, usize) {
    let (net, catalog) = (&built.network, &built.catalog);
    let nbhd = net.neighborhood_index(l);
    let mut residual = net.residual_capacities(CAPACITY_FRACTION);
    let mut scratch = SolveScratch::new();
    let mut records = Vec::with_capacity(reqs.len());
    let mut rollbacks = 0;
    for (k, req) in reqs.iter().enumerate() {
        let demands: Vec<f64> = req.sfc.iter().map(|&f| catalog.demand(f)).collect();
        let max_residual =
            net.cloudlet_ids().iter().map(|c| residual[c.index()]).fold(0.0, f64::max);
        let mut admit_rng = request_rng(seed, k, ADMIT_SALT);
        let Some(placement) =
            random_placement_capacity_aware(net, req, &demands, &mut residual, &mut admit_rng)
        else {
            // The first primary is placed whenever some cloudlet holds it.
            rollbacks += usize::from(demands.first().is_some_and(|&d| d <= max_residual));
            records.push(RequestRecord {
                id: req.id,
                admitted: false,
                base_reliability: 0.0,
                achieved_reliability: 0.0,
                met_expectation: false,
                secondaries: 0,
            });
            continue;
        };
        let inst = AugmentationInstance::new_localized_with_index(
            net,
            catalog,
            req,
            &placement.locations,
            &residual,
            &nbhd,
        );
        let mut solve_rng = request_rng(seed, k, SOLVE_SALT);
        let outcome =
            algorithm.solve_scratch(&inst, &mut solve_rng, &mut Recorder::noop(), &mut scratch);
        let debits: Vec<(NodeId, f64)> = outcome
            .augmentation
            .bin_loads(&inst)
            .iter()
            .enumerate()
            .filter(|&(_, &load)| load > 0.0)
            .map(|(bin, &load)| (inst.bins[bin].node, load))
            .collect();
        match net.try_reserve(&mut residual, &debits) {
            Ok(mut reservation) => net.commit(&mut reservation).expect("fresh reservation"),
            Err(_) => {
                for &(node, load) in &debits {
                    residual[node.index()] = (residual[node.index()] - load).max(0.0);
                }
            }
        }
        records.push(RequestRecord {
            id: req.id,
            admitted: true,
            base_reliability: outcome.metrics.base_reliability,
            achieved_reliability: outcome.metrics.reliability,
            met_expectation: outcome.metrics.met_expectation,
            secondaries: outcome.metrics.total_secondaries,
        });
    }
    (StreamOutcome { records, final_residual: residual }, rollbacks)
}

fn gated(
    built: &BuiltScenario,
    reqs: &[SfcRequest],
    cfg: &StreamConfig,
    seed: u64,
) -> (StreamOutcome, StreamObservation) {
    process_stream_seeded(&built.network, &built.catalog, reqs, cfg, seed, &mut Recorder::noop())
}

/// Run `algorithm` gated and ungated over `reqs` and assert equal records
/// and bit-equal residuals. Returns the reference's partial rollbacks.
fn assert_gate_is_invisible(
    built: &BuiltScenario,
    reqs: &[SfcRequest],
    algorithm: Algorithm,
    l: u32,
    seed: u64,
) -> usize {
    let label = format!("{} l={l} {} seed={seed}", built.spec.name, algorithm.name());
    let (reference, rollbacks) = ungated(built, reqs, &algorithm, l, seed);
    let cfg = StreamConfig {
        l,
        algorithm,
        initial_capacity_fraction: CAPACITY_FRACTION,
        ..Default::default()
    };
    let (out, ob) = gated(built, reqs, &cfg, seed);
    assert_eq!(out.records, reference.records, "{label}: records");
    for (v, (x, y)) in out.final_residual.iter().zip(&reference.final_residual).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{label}: node {v} residual {x} vs {y}");
    }
    let gated = ob.pipeline.counter("rejected.capacity_gate");
    assert!(gated > 0, "{label}: the stream saturates, so the gate must fire");
    rollbacks
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn gated_engine_equals_ungated_reference_loop(
        preset_idx in 0usize..PRESETS.len(),
        l in 0u32..3,
        seed in 0u64..1_000_000,
    ) {
        let built = wide_demands(PRESETS[preset_idx]);
        let reqs: Vec<SfcRequest> = RequestStream::new(&built, GATED_REQUESTS).collect();
        for algorithm in algorithms() {
            assert_gate_is_invisible(&built, &reqs, algorithm, l, seed);
        }
    }
}

/// A fixed stream on which the reference places some primaries of rejected
/// requests and rolls them back, so only an exact rollback keeps its
/// residuals equal to the gated engine's. Adding the demands back instead
/// fails this test.
#[test]
fn partial_admissions_roll_back_bit_for_bit() {
    let built = wide_demands("fattree-16");
    let reqs: Vec<SfcRequest> = RequestStream::new(&built, GATED_REQUESTS).collect();
    let rollbacks: usize =
        algorithms().into_iter().map(|a| assert_gate_is_invisible(&built, &reqs, a, 1, 7)).sum();
    assert!(rollbacks > 0, "the fixture must reach admission's rollback");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn stream_runs_are_feasible_reliable_and_accounted(
        preset_idx in 0usize..2,
        greedy in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        let built = ScenarioSpec::preset(PRESETS[preset_idx]).expect("known preset").build();
        let reqs: Vec<SfcRequest> = RequestStream::new(&built, REQUESTS).collect();
        let algorithm = if greedy {
            Algorithm::Greedy(Default::default())
        } else {
            Algorithm::Heuristic(Default::default())
        };
        let label = format!("{} {}", built.spec.name, algorithm.name());
        let cfg = StreamConfig { algorithm, ..Default::default() };
        let (out, ob) = gated(&built, &reqs, &cfg, seed);

        for (v, &res) in out.final_residual.iter().enumerate() {
            let cap = built.network.capacity(NodeId(v));
            prop_assert!(
                (0.0..=cap).contains(&res),
                "{}: node {} residual {} outside [0, {}]", label, v, res, cap
            );
        }
        prop_assert_eq!(out.records.len(), reqs.len(), "{}: one record per request", label);
        for (rec, req) in out.records.iter().zip(&reqs) {
            prop_assert_eq!(rec.id, req.id, "{}: records out of order", label);
            if rec.admitted && rec.met_expectation {
                prop_assert!(
                    rec.achieved_reliability >= req.expectation,
                    "{}: request {} met_expectation at {} < {}",
                    label, rec.id, rec.achieved_reliability, req.expectation
                );
            }
        }
        prop_assert_eq!(ob.pipeline.counter("admitted"), out.admitted() as u64, "{}", label);
        let rejected = ob.pipeline.counter("rejected.no_primary_placement");
        prop_assert_eq!(rejected, out.rejected() as u64, "{}", label);
        let gated = ob.pipeline.counter("rejected.capacity_gate");
        prop_assert!(0 < gated && gated <= rejected, "{}: gated {} of {}", label, gated, rejected);
    }
}
