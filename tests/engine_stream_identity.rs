//! Stream-engine identity tests.
//!
//! * **Determinism guarantee** (see `relaug::stream::process_stream_seeded_sink`):
//!   telemetry never feeds back into a decision, so one stream run under a
//!   no-op recorder, full-mode JSONL tracing and windowed metrics gives
//!   equal records and bit-equal residuals — and two full-mode runs write
//!   byte-identical JSONL.
//! * **Pinned record hashes**: the order-sensitive FNV-1a fold
//!   (`bench_harness::fold_record_hash`) of fattree-16 over 1,500 requests,
//!   one per algorithm, with the preset seed as engine seed. These are the
//!   values `stream_exp --scenario fattree-16 --requests 1500` prints; any
//!   change that moves a single record shows up here.
//! * **Pinned sharing hashes**: the same fold with `share_backups: true` and
//!   the network half full, so the deployed-instance ledger, the
//!   existing-backup counts it feeds and the overcommit clamp all shape the
//!   records. The ILP runs on a 2,000-node budget, as in
//!   `tests/reject_gate.rs`.

use std::io::Write;
use std::sync::{Arc, Mutex};

use bench_harness::{fold_record_hash, RECORD_HASH_SEED};
use mec_sfc_reliability::milp::BnbConfig;
use mec_sfc_reliability::obs::{MetricsInterval, Recorder};
use mec_sfc_reliability::relaug::ilp::IlpConfig;
use mec_sfc_reliability::relaug::stream::{
    process_stream_seeded, Algorithm, MetricsMode, StreamConfig, StreamOutcome,
};
use mec_sfc_reliability::scen::{BuiltScenario, RequestStream, ScenarioSpec};

fn scenario(preset: &str) -> BuiltScenario {
    ScenarioSpec::preset(preset).expect("known preset").build()
}

fn run(
    built: &BuiltScenario,
    requests: u64,
    cfg: &StreamConfig,
    rec: &mut Recorder,
) -> StreamOutcome {
    let reqs: Vec<_> = RequestStream::new(built, requests).collect();
    process_stream_seeded(&built.network, &built.catalog, &reqs, cfg, built.spec.seed, rec).0
}

fn algorithms() -> [(&'static str, Algorithm); 4] {
    [
        ("ILP", Algorithm::Ilp(Default::default())),
        ("Randomized", Algorithm::Randomized(Default::default())),
        ("Heuristic", Algorithm::Heuristic(Default::default())),
        ("Greedy", Algorithm::Greedy(Default::default())),
    ]
}

fn assert_same_outcome(label: &str, a: &StreamOutcome, b: &StreamOutcome) {
    assert_eq!(a.records, b.records, "{label}: request records diverge");
    assert_eq!(a.final_residual.len(), b.final_residual.len());
    for (v, (x, y)) in a.final_residual.iter().zip(&b.final_residual).enumerate() {
        assert_eq!(
            x.to_bits(),
            y.to_bits(),
            "{label}: node {v} residual bits diverge ({x} vs {y})"
        );
    }
}

/// A `Write` sink whose bytes stay readable after the recorder owns it.
#[derive(Clone, Default)]
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

/// Full-mode run traced into JSONL; returns the outcome and the bytes.
fn run_jsonl(built: &BuiltScenario, requests: u64, cfg: &StreamConfig) -> (StreamOutcome, Vec<u8>) {
    let buf = SharedBuf::default();
    let mut rec = Recorder::jsonl_writer(Box::new(buf.clone()));
    let out = run(built, requests, cfg, &mut rec);
    rec.flush().unwrap();
    let bytes = buf.0.lock().unwrap().clone();
    (out, bytes)
}

#[test]
fn telemetry_never_changes_records_or_residuals() {
    let built = scenario("fattree-16");
    const N: u64 = 1500;
    for (name, algorithm) in algorithms() {
        let cfg = StreamConfig { algorithm, ..Default::default() };
        let baseline = run(&built, N, &cfg, &mut Recorder::noop());

        let (full, jsonl) = run_jsonl(&built, N, &cfg);
        assert_same_outcome(&format!("{name} full"), &baseline, &full);
        let (_, again) = run_jsonl(&built, N, &cfg);
        assert!(!jsonl.is_empty());
        assert!(jsonl == again, "{name}: two full-mode runs wrote different JSONL");

        let windowed =
            StreamConfig { metrics: MetricsMode::Windowed(MetricsInterval::Requests(100)), ..cfg };
        let out = run(&built, N, &windowed, &mut Recorder::memory());
        assert_same_outcome(&format!("{name} windowed"), &baseline, &out);
    }
}

#[test]
fn record_hashes_are_pinned_on_fattree_16() {
    let built = scenario("fattree-16");
    let expected = [
        ("ILP", "6744fe8a227bce5c"),
        ("Randomized", "42373a422327af5e"),
        ("Heuristic", "cad6972ab1b29943"),
        ("Greedy", "292fca4f264f4e77"),
    ];
    for ((name, algorithm), (pinned_name, pinned)) in algorithms().into_iter().zip(expected) {
        assert_eq!(name, pinned_name);
        let cfg = StreamConfig { algorithm, ..Default::default() };
        let out = run(&built, 1500, &cfg, &mut Recorder::noop());
        let hash = out.records.iter().fold(RECORD_HASH_SEED, fold_record_hash);
        assert_eq!(format!("{hash:016x}"), pinned, "{name}: record hash moved");
    }
}

#[test]
fn sharing_record_hashes_are_pinned_on_fattree_16() {
    let built = scenario("fattree-16");
    let ilp = IlpConfig {
        bnb: BnbConfig { max_nodes: 2_000, ..Default::default() },
        ..Default::default()
    };
    let expected = [
        (Algorithm::Ilp(ilp), "d22368ce1731a563"),
        (Algorithm::Randomized(Default::default()), "145fc860edbab00e"),
        (Algorithm::Heuristic(Default::default()), "adcbc4af2ce291d9"),
        (Algorithm::Greedy(Default::default()), "63c88fbdba18a644"),
    ];
    for (algorithm, pinned) in expected {
        let name = algorithm.name();
        let cfg = StreamConfig {
            algorithm,
            share_backups: true,
            initial_capacity_fraction: 0.5,
            ..Default::default()
        };
        let out = run(&built, 1500, &cfg, &mut Recorder::noop());
        let hash = out.records.iter().fold(RECORD_HASH_SEED, fold_record_hash);
        assert_eq!(format!("{hash:016x}"), pinned, "{name}: sharing record hash moved");
    }
}
