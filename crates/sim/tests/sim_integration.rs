//! Integration tests for the discrete-event simulator: convergence of the
//! empirical availability to the paper's analytic `u_j`, strict improvement
//! from active repair policies, and byte-level run determinism.

use std::io::Write;
use std::sync::{Arc, Mutex};

use mecnet::network::MecNetwork;
use mecnet::topology;
use mecnet::vnf::{VnfCatalog, VnfType};
use obs::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::{run, run_with, NoRepair, PeriodicAudit, PoissonSource, Reactive, SimConfig};

fn setup(seed: u64, cap_range: (f64, f64)) -> (MecNetwork, VnfCatalog) {
    let g = topology::grid(4, 4);
    let mut rng = StdRng::seed_from_u64(seed);
    let net = MecNetwork::with_random_cloudlets(g, 6, cap_range, &mut rng);
    let mut cat = VnfCatalog::new();
    cat.add(VnfType { name: "fw".into(), demand_mhz: 200.0, reliability: 0.82 });
    cat.add(VnfType { name: "nat".into(), demand_mhz: 250.0, reliability: 0.78 });
    cat.add(VnfType { name: "ids".into(), demand_mhz: 150.0, reliability: 0.85 });
    (net, cat)
}

/// With no repair policy and no permanent failures, every instance's
/// long-run availability is exactly `r_i` by construction, so the
/// time-weighted availability of a long run must converge to the analytic
/// `u_j = Π_i (1 − (1 − r_i)^{n_i})` computed at admission. This is the
/// simulator's ground-truth check against the paper's closed form.
#[test]
fn norepair_availability_converges_to_analytic_u() {
    // Generous capacity so admissions don't distort the population; long
    // holding times so each request observes many failure/repair cycles.
    let (net, cat) = setup(11, (20_000.0, 30_000.0));
    let cfg = SimConfig {
        duration: 2_000.0,
        arrival_rate: 0.05,
        mean_holding: 400.0,
        mttr: 0.5,
        sfc_len_range: (2, 3),
        expectation: 0.95,
        seed: 2024,
        ..Default::default()
    };
    let rep = run(&net, &cat, &cfg, &NoRepair);
    assert!(rep.admitted >= 40, "need a real population, got {}", rep.admitted);
    assert!(rep.failures > 1_000, "need many cycles, got {}", rep.failures);
    let gap = (rep.mean_availability - rep.mean_analytic).abs();
    assert!(
        gap < 0.02,
        "empirical availability {} vs analytic u_j {} (gap {gap})",
        rep.mean_availability,
        rep.mean_analytic
    );
    // The aggregate alone could hide anti-correlated errors; the mean
    // per-request absolute gap must be small too.
    assert!(rep.mean_abs_gap < 0.05, "per-request gap too large: {}", rep.mean_abs_gap);
}

/// Reactive and periodic-audit repairs place extra secondaries whenever a
/// request degrades below its expectation, so on the *same* arrival stream
/// (policies share the workload RNG stream) both must strictly beat the
/// static NoRepair baseline.
#[test]
fn repair_policies_strictly_improve_availability() {
    let (net, cat) = setup(13, (20_000.0, 30_000.0));
    let cfg = SimConfig {
        duration: 600.0,
        arrival_rate: 0.08,
        mean_holding: 150.0,
        mttr: 2.0,
        sfc_len_range: (2, 3),
        expectation: 0.99,
        seed: 7,
        ..Default::default()
    };
    let base = run(&net, &cat, &cfg, &NoRepair);
    let reactive = run(&net, &cat, &cfg, &Reactive);
    let audited = run(&net, &cat, &cfg, &PeriodicAudit::new(5.0));
    // Paired comparison: identical arrival streams.
    assert_eq!(base.arrivals, reactive.arrivals);
    assert_eq!(base.arrivals, audited.arrivals);
    assert_eq!(base.reaugmentations, 0);
    assert!(reactive.reaugmentations > 0, "reactive policy must fire");
    assert!(audited.reaugmentations > 0, "audit policy must fire");
    assert!(
        reactive.mean_availability > base.mean_availability,
        "reactive {} must beat norepair {}",
        reactive.mean_availability,
        base.mean_availability
    );
    assert!(
        audited.mean_availability > base.mean_availability,
        "audit {} must beat norepair {}",
        audited.mean_availability,
        base.mean_availability
    );
    // Extra redundancy should also shorten total outage exposure.
    assert!(reactive.total_outage_time < base.total_outage_time);
}

/// A `Write` sink backed by a shared buffer, so a test can read back what a
/// JSONL recorder wrote after dropping it (flushes its `BufWriter`).
#[derive(Clone)]
struct SharedBuf(Arc<Mutex<Vec<u8>>>);

impl Write for SharedBuf {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().unwrap().extend_from_slice(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn traced_run_bytes(cfg: &SimConfig, seed: u64) -> (Vec<u8>, String) {
    let (net, cat) = setup(seed, (15_000.0, 25_000.0));
    let buf = SharedBuf(Arc::new(Mutex::new(Vec::new())));
    let mut rec = Recorder::jsonl_writer(Box::new(buf.clone()));
    let mut source = PoissonSource::from_config(cfg);
    let report = run_with(&net, &cat, cfg, &PeriodicAudit::new(10.0), &mut source, &mut rec);
    drop(rec);
    let bytes = buf.0.lock().unwrap().clone();
    (bytes, report.to_json())
}

/// Two runs with the same seed and config must produce byte-identical JSONL
/// event logs and identical SLO report JSON — every `sim.*` event field is
/// simulation-time based, never wall clock.
#[test]
fn same_seed_runs_are_byte_identical() {
    let cfg = SimConfig {
        duration: 300.0,
        arrival_rate: 0.1,
        mean_holding: 80.0,
        mttr: 1.5,
        sfc_len_range: (2, 3),
        seed: 99,
        ..Default::default()
    };
    let (log_a, json_a) = traced_run_bytes(&cfg, 17);
    let (log_b, json_b) = traced_run_bytes(&cfg, 17);
    assert!(!log_a.is_empty(), "traced run must emit events");
    assert_eq!(log_a, log_b, "JSONL event logs differ between same-seed runs");
    assert_eq!(json_a, json_b, "SLO reports differ between same-seed runs");
    // And a different seed must actually change the run.
    let mut other = cfg.clone();
    other.seed = 100;
    let (log_c, _) = traced_run_bytes(&other, 17);
    assert_ne!(log_a, log_c, "different seeds should produce different logs");
}
