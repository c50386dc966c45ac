//! The simulator's admissions are the stream engine's.
//!
//! The simulator admits every arrival through `Admission::admit`, the stream
//! engine's per-request step, with its admission seed (`fan_out(seed, 1)`)
//! and the arrival id as the request position. When no capacity ever comes
//! back (nothing departs before the horizon, no failure is permanent, no
//! repair policy re-augments), the residual each arrival sees is the one
//! `process_stream_seeded` would leave after the same earlier requests. So
//! replaying the simulator's Poisson workload through the stream engine must
//! give, arrival by arrival, the same admission decision, bit-equal base and
//! analytic reliabilities and the same number of secondaries, for every
//! algorithm.

use mec_sfc_reliability::expkit::fan_out;
use mec_sfc_reliability::mecnet::topology;
use mec_sfc_reliability::mecnet::vnf::{VnfCatalog, VnfType};
use mec_sfc_reliability::mecnet::{MecNetwork, SfcRequest};
use mec_sfc_reliability::obs::Recorder;
use mec_sfc_reliability::relaug::stream::{process_stream_seeded, Algorithm, StreamConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::{run, NoRepair, PoissonSource, RequestSource, SimConfig};

fn setup() -> (MecNetwork, VnfCatalog) {
    let mut rng = StdRng::seed_from_u64(3);
    let net =
        MecNetwork::with_random_cloudlets(topology::grid(4, 4), 5, (6000.0, 9000.0), &mut rng);
    let mut cat = VnfCatalog::new();
    cat.add(VnfType { name: "fw".into(), demand_mhz: 200.0, reliability: 0.85 });
    cat.add(VnfType { name: "nat".into(), demand_mhz: 300.0, reliability: 0.8 });
    cat.add(VnfType { name: "ids".into(), demand_mhz: 250.0, reliability: 0.9 });
    (net, cat)
}

/// The requests the simulator's Poisson source delivers up to the horizon,
/// drawn from the workload stream (`fan_out(seed, 0)`) in the simulator's
/// order: first gap, then per arrival its content, holding time and gap.
fn replay(cfg: &SimConfig, net: &MecNetwork, cat: &VnfCatalog) -> Vec<SfcRequest> {
    let mut source = PoissonSource::from_config(cfg);
    let mut rng = StdRng::seed_from_u64(fan_out(cfg.seed, 0));
    let mut t = source.first_gap(&mut rng);
    let mut requests = Vec::new();
    while t <= cfg.duration {
        let (req, _holding, gap) = source.arrival(requests.len(), cat, net.num_nodes(), &mut rng);
        requests.push(req);
        t += gap;
    }
    requests
}

#[test]
fn simulator_admissions_equal_the_stream_engine() {
    let (net, cat) = setup();
    for algorithm in [
        Algorithm::Ilp(Default::default()),
        Algorithm::Randomized(Default::default()),
        Algorithm::Heuristic(Default::default()),
        Algorithm::Greedy(Default::default()),
    ] {
        let cfg = SimConfig {
            duration: 150.0,
            arrival_rate: 0.3,
            mean_holding: 1e12,
            permanent_failure_prob: 0.0,
            sfc_len_range: (2, 3),
            algorithm: algorithm.clone(),
            seed: 11,
            ..Default::default()
        };
        let report = run(&net, &cat, &cfg, &NoRepair);
        assert_eq!(report.departures, 0, "nothing may depart before the horizon");
        let requests = replay(&cfg, &net, &cat);
        let stream = StreamConfig { l: cfg.l, algorithm, ..Default::default() };
        let seed = fan_out(cfg.seed, 1);
        let (out, _) =
            process_stream_seeded(&net, &cat, &requests, &stream, seed, &mut Recorder::noop());
        let name = report.algorithm.as_str();
        assert_eq!(report.per_request.len(), out.records.len(), "{name}: arrivals");
        // About 15 of the 52 arrivals fit before the network saturates.
        assert!(out.admitted() > 0 && out.rejected() > 0, "{name}: admits and rejects");
        for (sim, engine) in report.per_request.iter().zip(&out.records) {
            let id = engine.id;
            assert_eq!(sim.admitted, engine.admitted, "{name}: arrival {id} admitted");
            assert_eq!(
                sim.base_reliability.to_bits(),
                engine.base_reliability.to_bits(),
                "{name}: arrival {id} base reliability"
            );
            assert_eq!(
                sim.analytic_reliability.to_bits(),
                engine.achieved_reliability.to_bits(),
                "{name}: arrival {id} analytic reliability"
            );
            assert_eq!(sim.secondaries, engine.secondaries, "{name}: arrival {id} secondaries");
        }
    }
}
