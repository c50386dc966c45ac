//! Golden-file regression tests for the human-readable placement report
//! (`relaug::report::render`) and the simulator's `SloReport` JSON.
//!
//! Each test renders a deterministic artifact and compares it byte-for-byte
//! against a checked-in fixture under `tests/golden/`. To refresh after an
//! intentional format change:
//!
//! ```text
//! UPDATE_GOLDEN=1 cargo test --test golden_reports
//! ```
//!
//! Wall-clock state is scrubbed before rendering (`Outcome::runtime` zeroed,
//! telemetry timings zeroed); everything else in these artifacts is a pure
//! function of the seed.

use std::path::PathBuf;
use std::time::Duration;

use mec_sfc_reliability::mecnet::workload::{generate_scenario, WorkloadConfig};
use mec_sfc_reliability::obs::Recorder;
use mec_sfc_reliability::relaug::instance::AugmentationInstance;
use mec_sfc_reliability::relaug::solution::Outcome;
use mec_sfc_reliability::relaug::stream::Algorithm;
use mec_sfc_reliability::relaug::{heuristic, report, SolveScratch};
use rand::rngs::StdRng;
use rand::SeedableRng;
use sim::{from_name, run, SimConfig};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Compare `actual` against the named fixture; rewrite the fixture instead
/// when `UPDATE_GOLDEN=1`.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, actual).unwrap();
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!("missing golden fixture {path:?} ({e}); run with UPDATE_GOLDEN=1 to create it")
    });
    assert_eq!(
        actual, expected,
        "rendered output diverged from {path:?}; \
         if the change is intentional refresh with UPDATE_GOLDEN=1"
    );
}

/// Zero every wall-clock field so the artifact depends only on the seed.
fn scrub(outcome: &mut Outcome) {
    outcome.runtime = Duration::ZERO;
    for (_, secs) in &mut outcome.telemetry.timings_s {
        *secs = 0.0;
    }
}

fn fixture_instance(seed: u64) -> AugmentationInstance {
    let cfg = WorkloadConfig { nodes: 30, sfc_len_range: (3, 5), ..Default::default() };
    let mut rng = StdRng::seed_from_u64(seed);
    let scenario = generate_scenario(&cfg, &mut rng);
    AugmentationInstance::from_scenario(&scenario, 1)
}

#[test]
fn golden_render_heuristic() {
    let inst = fixture_instance(42);
    let mut out = heuristic::solve(&inst, &Default::default());
    scrub(&mut out);
    assert_golden("render_heuristic.txt", &report::render(&inst, &out));
}

#[test]
fn golden_render_ilp_traced() {
    // Traced so the report includes the telemetry timing lines (zeroed) and
    // the solver-effort counters.
    let inst = fixture_instance(7);
    let mut rec = Recorder::memory();
    // The ILP draws nothing from the RNG.
    let mut out = Algorithm::Ilp(Default::default()).solve_scratch(
        &inst,
        &mut StdRng::seed_from_u64(0),
        &mut rec,
        &mut SolveScratch::new(),
    );
    scrub(&mut out);
    assert_golden("render_ilp_traced.txt", &report::render(&inst, &out));
}

#[test]
fn golden_slo_report_json() {
    // Small but non-trivial run: failures, repairs and at least one
    // reactive re-augmentation. Simulation time only — no scrubbing needed.
    let cfg = SimConfig {
        duration: 120.0,
        arrival_rate: 0.1,
        mean_holding: 60.0,
        mttr: 2.0,
        algorithm: Algorithm::Greedy(Default::default()),
        seed: 99,
        ..Default::default()
    };
    let workload = WorkloadConfig { nodes: 25, ..Default::default() };
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let scenario = generate_scenario(&workload, &mut rng);
    let policy = from_name("reactive", 10.0).expect("policy");
    let report = run(&scenario.network, &scenario.catalog, &cfg, policy.as_ref());
    assert!(report.arrivals > 0, "fixture run must see arrivals");
    let mut json = report.to_json();
    json.push('\n');
    assert_golden("slo_report.json", &json);
}
