//! Stream-engine throughput benchmark.
//!
//! Pushes request streams through `relaug::stream`, prints the criterion
//! timings, and records the measured throughput into `BENCH_stream.json` at
//! the workspace root (the CI artifact, with the machine's core count).
//!
//! Two fixtures:
//!
//! 1. **Toy** — the historical 120-request `WorkloadConfig::default()`
//!    stream, criterion-sampled plus hand-timed (`toy` in the JSON). Every
//!    hand-timed rep must reproduce the first one's records and residuals.
//! 2. **Scenario** — the `sagin-1k` zoo preset (≥1,000 cloudlets) with a
//!    lazily synthesized million-request stream fed straight into the sink
//!    engine, hand-timed once (`scenario` in the JSON). Nothing is
//!    materialized: the run is identified by the order-sensitive FNV record
//!    hash, and the capacity-gate counter shows how many rejects skipped
//!    the placement scan. `QUICK=1` shrinks the stream for CI.

use std::time::{Duration, Instant};

use bench_harness::{fold_record_hash, RECORD_HASH_SEED};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mecnet::request::SfcRequest;
use mecnet::workload::{generate_catalog, generate_network, WorkloadConfig};
use obs::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use relaug::stream::{
    process_stream_seeded, process_stream_seeded_sink, Algorithm, StreamConfig, StreamOutcome,
};
use scen::{BuiltScenario, RequestStream, ScenarioSpec};
use serde::Value;

const SEED: u64 = 42;
const REQUESTS: usize = 120;
/// Hand-timed repetitions for the JSON record (criterion's printed numbers
/// come from its own sampling loop).
const RECORD_REPS: usize = 5;

const SCENARIO: &str = "sagin-1k";
const SCENARIO_REQUESTS: u64 = 1_000_000;
const SCENARIO_REQUESTS_QUICK: u64 = 150_000;

struct Fixture {
    network: mecnet::MecNetwork,
    catalog: mecnet::vnf::VnfCatalog,
    requests: Vec<SfcRequest>,
}

fn fixture() -> Fixture {
    let wl = WorkloadConfig::default();
    let mut rng = StdRng::seed_from_u64(SEED);
    let network = generate_network(&wl, &mut rng);
    let catalog = generate_catalog(&wl, &mut rng);
    let requests = (0..REQUESTS)
        .map(|i| SfcRequest::random(i, &catalog, (3, 6), 0.99, wl.nodes, &mut rng))
        .collect();
    Fixture { network, catalog, requests }
}

fn heuristic_config() -> StreamConfig {
    StreamConfig { algorithm: Algorithm::Heuristic(Default::default()), ..Default::default() }
}

fn run(fx: &Fixture) -> StreamOutcome {
    let cfg = heuristic_config();
    process_stream_seeded(&fx.network, &fx.catalog, &fx.requests, &cfg, SEED, &mut Recorder::noop())
        .0
}

/// One hand-timed scenario-scale run: the lazy stream goes straight into the
/// sink engine, records folded into the hash as they are produced.
struct ScenarioRun {
    elapsed_s: f64,
    hash: u64,
    admitted: u64,
    rejected: u64,
    gated: u64,
}

fn run_scenario(built: &BuiltScenario, requests: u64) -> ScenarioRun {
    let mut hash = RECORD_HASH_SEED;
    let mut admitted = 0u64;
    let started = Instant::now();
    let (_, ob) = process_stream_seeded_sink(
        &built.network,
        &built.catalog,
        RequestStream::new(built, requests),
        &heuristic_config(),
        built.spec.seed,
        &mut Recorder::noop(),
        &mut |r| {
            hash = fold_record_hash(hash, &r);
            admitted += r.admitted as u64;
        },
    );
    ScenarioRun {
        elapsed_s: started.elapsed().as_secs_f64(),
        hash,
        admitted,
        rejected: ob.pipeline.counter("rejected.no_primary_placement"),
        gated: ob.pipeline.counter("rejected.capacity_gate"),
    }
}

fn scenario_section(quick: bool) -> Value {
    let built = ScenarioSpec::preset(SCENARIO).expect("known preset").build();
    let requests = if quick { SCENARIO_REQUESTS_QUICK } else { SCENARIO_REQUESTS };
    let rps = |r: &ScenarioRun| requests as f64 / r.elapsed_s;

    let run = run_scenario(&built, requests);
    println!(
        "stream_throughput: scenario {SCENARIO} — {requests} requests in {:.2}s ({:.0} req/s, \
         {} admitted, {} of {} rejects gated, hash {:016x}, peak RSS {})",
        run.elapsed_s,
        rps(&run),
        run.admitted,
        run.gated,
        run.rejected,
        run.hash,
        expkit::peak_rss_human(),
    );
    Value::Obj(vec![
        ("name".into(), Value::Str(SCENARIO.into())),
        ("nodes".into(), Value::U64(built.network.num_nodes() as u64)),
        ("cloudlets".into(), Value::U64(built.cloudlets() as u64)),
        ("requests".into(), Value::U64(requests)),
        ("quick".into(), Value::Bool(quick)),
        (
            "uncached".into(),
            Value::Obj(vec![
                ("mean_s".into(), Value::F64(run.elapsed_s)),
                ("throughput_rps".into(), Value::F64(rps(&run))),
                ("admitted".into(), Value::U64(run.admitted)),
                ("rejected".into(), Value::U64(run.rejected)),
                ("rejected_gated".into(), Value::U64(run.gated)),
                ("record_hash".into(), Value::Str(format!("{:016x}", run.hash))),
                ("peak_rss_bytes".into(), Value::U64(expkit::peak_rss_bytes().unwrap_or(0))),
            ]),
        ),
    ])
}

fn bench_stream_throughput(c: &mut Criterion) {
    let fx = fixture();
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    c.bench_function("stream_admission/sequential", |b| b.iter(|| black_box(run(&fx))));

    let baseline = run(&fx);
    let mut total = 0.0f64;
    let mut min_s = f64::INFINITY;
    for _ in 0..RECORD_REPS {
        let started = Instant::now();
        let out = black_box(run(&fx));
        let elapsed = started.elapsed().as_secs_f64();
        total += elapsed;
        min_s = min_s.min(elapsed);
        assert_eq!(out, baseline, "a rerun of the same seed must reproduce its records");
    }
    let mean_s = total / RECORD_REPS as f64;
    let toy = Value::Obj(vec![
        ("requests".into(), Value::U64(REQUESTS as u64)),
        ("seed".into(), Value::U64(SEED)),
        ("record_reps".into(), Value::U64(RECORD_REPS as u64)),
        ("mean_s".into(), Value::F64(mean_s)),
        ("min_s".into(), Value::F64(min_s)),
        ("throughput_rps".into(), Value::F64(REQUESTS as f64 / mean_s)),
    ]);

    let quick = std::env::var_os("QUICK").is_some();
    let report = Value::Obj(vec![
        ("benchmark".into(), Value::Str("stream_throughput".into())),
        ("cores".into(), Value::U64(cores as u64)),
        ("algorithm".into(), Value::Str("heuristic".into())),
        ("toy".into(), toy),
        ("scenario".into(), scenario_section(quick)),
    ]);
    let mut json = serde_json::to_string_pretty(&report).expect("report serializes");
    json.push('\n');
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_stream.json");
    std::fs::write(path, &json).expect("write BENCH_stream.json");
    println!("wrote {path}");
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(4));
    targets = bench_stream_throughput
}
criterion_main!(benches);
