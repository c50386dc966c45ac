//! End-to-end stream-processing integration tests over the public facade:
//! admission, augmentation, capacity accounting, and the sharing extension
//! interacting across crates.

use mec_sfc_reliability::mecnet::request::SfcRequest;
use mec_sfc_reliability::mecnet::workload::{generate_catalog, generate_network, WorkloadConfig};
use mec_sfc_reliability::mecnet::{MecNetwork, VnfCatalog};
use mec_sfc_reliability::obs::Recorder;
use mec_sfc_reliability::relaug::stream::{
    process_stream_seeded, Algorithm, StreamConfig, StreamOutcome,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn setup(seed: u64) -> (MecNetwork, VnfCatalog, Vec<SfcRequest>) {
    let wl = WorkloadConfig { nodes: 60, ..Default::default() };
    let mut rng = StdRng::seed_from_u64(seed);
    let network = generate_network(&wl, &mut rng);
    let catalog = generate_catalog(&wl, &mut rng);
    let requests: Vec<SfcRequest> = (0..60)
        .map(|i| SfcRequest::random(i, &catalog, (3, 5), 0.99, wl.nodes, &mut rng))
        .collect();
    (network, catalog, requests)
}

/// Untraced run of the stream engine.
fn run(
    network: &MecNetwork,
    catalog: &VnfCatalog,
    requests: &[SfcRequest],
    cfg: &StreamConfig,
    seed: u64,
) -> StreamOutcome {
    process_stream_seeded(network, catalog, requests, cfg, seed, &mut Recorder::noop()).0
}

#[test]
fn capacity_is_conserved_across_the_stream() {
    let (network, catalog, requests) = setup(1);
    let out = run(&network, &catalog, &requests, &StreamConfig::default(), 2);
    // Total consumption = initial - final, must equal primaries + secondaries
    // placed (all demands are positive; heuristic never overcommits).
    let initial: f64 = network.total_capacity();
    let fin: f64 = out.final_residual.iter().sum();
    assert!(fin <= initial + 1e-6);
    assert!(fin >= 0.0);
    // Admitted + rejected partition the stream.
    assert_eq!(out.admitted() + out.rejected(), requests.len());
}

#[test]
fn admission_rate_grows_with_capacity() {
    let (network, catalog, requests) = setup(3);
    let admitted = |fraction: f64| {
        let cfg = StreamConfig { initial_capacity_fraction: fraction, ..Default::default() };
        run(&network, &catalog, &requests, &cfg, 4).admitted()
    };
    let low = admitted(0.25);
    let high = admitted(1.0);
    assert!(high >= low, "more capacity cannot admit fewer: {high} vs {low}");
    assert!(high > 0);
}

#[test]
fn sharing_never_reduces_slo_rate_materially() {
    let (network, catalog, requests) = setup(5);
    let share = |share_backups: bool| {
        let cfg = StreamConfig { share_backups, ..Default::default() };
        run(&network, &catalog, &requests, &cfg, 6)
    };
    let plain = share(false);
    let shared = share(true);
    let rate = |o: &StreamOutcome| o.expectation_rate().unwrap_or(0.0);
    assert!(rate(&shared) >= rate(&plain) - 0.1, "sharing should not hurt SLO rate");
    let secs = |o: &StreamOutcome| -> usize { o.records.iter().map(|r| r.secondaries).sum() };
    // Sharing shifts which bins each solve sees, so individual requests may
    // round differently; allow the same kind of small slack as the SLO-rate
    // check above rather than demanding instance-count dominance per seed.
    assert!(
        secs(&shared) <= secs(&plain) + 1 + secs(&plain) / 20,
        "sharing should not deploy materially more instances: {} vs {}",
        secs(&shared),
        secs(&plain)
    );
}

#[test]
fn traced_stream_logs_every_request_with_reasons() {
    let (network, catalog, requests) = setup(9);
    // Shrink capacity so the stream produces both admissions and rejections.
    let cfg =
        StreamConfig { share_backups: true, initial_capacity_fraction: 0.3, ..Default::default() };
    let mut rec = Recorder::memory();
    let (out, ob) = process_stream_seeded(&network, &catalog, &requests, &cfg, 10, &mut rec);

    // Exactly one stream.request event per request, in arrival order.
    let events: Vec<_> = rec.events().iter().filter(|e| e.kind == "stream.request").collect();
    assert_eq!(events.len(), requests.len());
    for (event, record) in events.iter().zip(&out.records) {
        assert_eq!(event.field("id").unwrap().as_u64(), Some(record.id as u64));
        assert_eq!(event.field("admitted").unwrap().as_bool(), Some(record.admitted));
        if record.admitted {
            // Wall time stays out of the event stream, which is what keeps
            // it byte-identical across runs.
            assert!(event.field("solve_s").is_none());
            assert_eq!(
                event.field("secondaries").unwrap().as_u64(),
                Some(record.secondaries as u64)
            );
        } else {
            // Every rejection carries a machine-readable reason.
            assert_eq!(event.field("reason").unwrap().as_str(), Some("no_primary_placement"));
        }
        // Residual snapshots never go negative: commits are clamped, so the
        // stream can never exceed the network's residual capacity.
        assert!(event.field("residual_min").unwrap().as_f64().unwrap() >= 0.0);
        assert!(event.field("residual_total").unwrap().as_f64().unwrap() >= 0.0);
    }
    assert!(out.rejected() > 0, "capacity squeeze should reject something");
    assert!(out.admitted() > 0, "capacity squeeze should still admit something");
    assert_eq!(ob.pipeline.counter("admitted"), out.admitted() as u64);
    assert_eq!(ob.pipeline.counter("rejected.no_primary_placement"), out.rejected() as u64);
    assert!(out.final_residual.iter().all(|&r| r >= 0.0));
}

#[test]
fn all_algorithms_complete_a_stream() {
    let (network, catalog, requests) = setup(7);
    for algorithm in [
        Algorithm::Ilp(Default::default()),
        Algorithm::Randomized(Default::default()),
        Algorithm::Heuristic(Default::default()),
        Algorithm::Greedy(Default::default()),
    ] {
        let cfg = StreamConfig { algorithm, ..Default::default() };
        let out = run(&network, &catalog, &requests[..20], &cfg, 8);
        assert_eq!(out.records.len(), 20);
        for r in out.records.iter().filter(|r| r.admitted) {
            assert!(r.achieved_reliability >= r.base_reliability - 1e-9);
            assert!(r.achieved_reliability <= 1.0 + 1e-12);
        }
    }
}
