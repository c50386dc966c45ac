//! Multi-request stream experiment (extension beyond the paper's
//! single-request evaluation): push a stream of requests through one shared
//! network per algorithm and report admission rate, mean reliability,
//! expectation-met rate, throughput, and the early-vs-late reliability
//! erosion.
//!
//! Usage: `cargo run -p bench-harness --release --bin stream_exp --
//! [--trials N] [--seed S] [--requests R] [--trace PATH]
//! [--metrics-interval N|Xs] [--scenario NAME|PATH]`
//! (trials = independent network/stream pairs). Every stream runs through
//! the sequential engine, `relaug::stream::process_stream_seeded_sink`.
//! `--workers` and `--flight` are `sim_exp` flags that `HarnessArgs` shares:
//! a `--workers` value above 1, or any `--flight`, exits with status 2.
//!
//! Without `--scenario` the harness runs the toy fixture: one
//! `WorkloadConfig::default()` network per trial and uniformly random
//! requests. `--scenario` switches to the scenario-zoo path: the spec (a
//! preset name such as `sagin-1k`, or a JSON file) is built once and a lazy
//! [`scen::RequestStream`] synthesizes the request stream — Poisson
//! arrivals, diurnal load, flash crowds, popularity-skewed endpoints —
//! deterministically from the spec seed. In both modes requests are
//! generated lazily and folded into bounded [`StreamStats`] as records are
//! produced, so resident memory stays O(1) in `--requests`; the run footer
//! reports the process peak RSS as evidence. The `record hash` column
//! (scenario mode) is an order-sensitive FNV-1a fold over every record, so
//! two runs can be compared for identity without storing the records.
//!
//! `--metrics-interval` switches the observed (first) stream of each
//! algorithm to windowed telemetry: per-request events are suppressed and
//! one `stream.window` summary is emitted per `N` requests (or `X` wall
//! seconds), so a million-request trace stays bounded.
//!
//! `--trace PATH` writes the full telemetry of each algorithm's first stream
//! as JSONL: exactly one `stream.request` event per request processed (with
//! admitted/rejected + reason, the secondaries placed and a residual
//! snapshot), with the per-request solver events interleaved in arrival
//! order. A telemetry summary table is printed at the end of every run,
//! traced or not; its `events` column counts the events written to the
//! trace (`-` without `--trace`, where only counters are kept, so memory
//! stays flat). Its `gated` column counts the rejects the engine's
//! capacity gate decided without a placement scan (a subset of `rejected`);
//! its p50/p95/p99 columns are log2-bucket upper bounds read from the
//! observed stream's `solve_ns` histogram, so they are filled in windowed
//! mode too. A column with no samples — the mean reliability of a
//! stream that admitted nothing — prints `-`.

use std::time::Instant;

use bench_harness::{fold_record_hash, HarnessArgs, StreamStats, RECORD_HASH_SEED};
use expkit::stats::Accumulator;
use expkit::Table;
use mecnet::network::MecNetwork;
use mecnet::request::SfcRequest;
use mecnet::vnf::VnfCatalog;
use mecnet::workload::{generate_catalog, generate_network, WorkloadConfig};
use obs::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use relaug::stream::{
    process_stream_seeded_sink, Algorithm, MetricsMode, RequestRecord, StreamConfig,
    StreamObservation,
};
use scen::{RequestStream, ScenarioSpec};

/// The observability config for the first stream of each algorithm:
/// `--metrics-interval` switches the engine to windowed aggregation.
fn observed_config(mut cfg: StreamConfig, args: &HarnessArgs) -> StreamConfig {
    if let Some(interval) = args.metrics_interval {
        cfg.metrics = MetricsMode::Windowed(interval);
    }
    cfg
}

/// Drive one lazy request stream through the engine, folding every record
/// into `stats` and the order-sensitive record hash as it is produced —
/// nothing is retained per request. Returns the run's metrics.
#[allow(clippy::too_many_arguments)]
fn drive(
    network: &MecNetwork,
    catalog: &VnfCatalog,
    requests: impl IntoIterator<Item = SfcRequest>,
    cfg: StreamConfig,
    seed: u64,
    rec: &mut Recorder,
    stats: &mut StreamStats,
    hash: &mut u64,
) -> StreamObservation {
    let mut on_record = |r: RequestRecord| {
        *hash = fold_record_hash(*hash, &r);
        stats.record(&r);
    };
    process_stream_seeded_sink(network, catalog, requests, &cfg, seed, rec, &mut on_record).1
}

/// Solve-time quantile `q` of an observed stream, as the upper bound of the
/// log2 bucket it falls in (`-` when the stream solved nothing).
fn solve_quantile(ob: &StreamObservation, q: f64) -> String {
    match ob.pipeline.hist("solve_ns").and_then(|h| h.quantile(q)) {
        Some(ns) => format!("≤ {}", expkit::table::fmt_duration_s(ns as f64 / 1e9)),
        None => "-".into(),
    }
}

/// The mean of `acc` to `digits` decimals, or `-` when it holds no samples.
fn mean_or_dash(acc: &Accumulator, digits: usize) -> String {
    if acc.is_empty() {
        "-".into()
    } else {
        format!("{:.digits$}", acc.summary().mean)
    }
}

/// The four paper algorithms, filtered for scenario scale: the per-request
/// ILP (and its randomized-rounding variant) is only worth running on
/// bounded streams, so above `ILP_REQUEST_CAP` requests the heavy pair is
/// dropped — loudly, never silently.
const ILP_REQUEST_CAP: usize = 50_000;

fn algorithm_set(scenario: bool, requests: usize) -> Vec<(&'static str, Algorithm)> {
    let mut set: Vec<(&str, Algorithm)> = Vec::new();
    if !scenario || requests <= ILP_REQUEST_CAP {
        set.push(("ILP", Algorithm::Ilp(Default::default())));
        set.push(("Randomized", Algorithm::Randomized(Default::default())));
    } else {
        println!(
            "note: ILP and Randomized skipped at {requests} requests \
             (> {ILP_REQUEST_CAP}); pass --requests {ILP_REQUEST_CAP} or less to include them\n"
        );
    }
    set.push(("Heuristic", Algorithm::Heuristic(Default::default())));
    set.push(("Greedy", Algorithm::Greedy(Default::default())));
    set
}

fn main() {
    let args = match HarnessArgs::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("stream_exp: {e}");
            std::process::exit(2);
        }
    };
    if args.workers > 1 {
        eprintln!("stream_exp: --workers must be 1 (the stream engine is sequential)");
        std::process::exit(2);
    }
    if args.flight.is_some() {
        eprintln!(
            "stream_exp: --flight is a sim_exp flag (the stream engine keeps no flight ring)"
        );
        std::process::exit(2);
    }
    // Scenario mode: build the zoo topology once, stream lazily from the
    // spec-derived generator. The stream is a pure function of the spec, so
    // one stream per algorithm is the whole experiment — `--trials` is a
    // toy-fixture knob.
    let scenario = args.scenario.as_deref().map(|s| {
        let spec = ScenarioSpec::load(s).unwrap_or_else(|e| {
            eprintln!("stream_exp: {e}");
            std::process::exit(2);
        });
        spec.build()
    });
    let trials = if scenario.is_some() { 1 } else { args.trials.min(200) };
    let requests_per_stream =
        args.requests.unwrap_or(if scenario.is_some() { 100_000 } else { 100 });
    match &scenario {
        Some(built) => {
            println!(
                "## Stream experiment — scenario `{}`: {} nodes / {} cloudlets, \
                 {requests_per_stream} requests per stream\n",
                built.spec.name,
                built.network.num_nodes(),
                built.cloudlets(),
            );
            if args.trials > 1 {
                println!(
                    "note: --trials ignored with --scenario (the stream is a pure \
                     function of the spec seed)\n"
                );
            }
        }
        None => println!(
            "## Stream experiment — {requests_per_stream} requests per stream, {trials} streams\n"
        ),
    }
    // Telemetry sink: the first stream of each algorithm is traced into the
    // JSONL file when `--trace` is given. Remaining trials run with a no-op
    // recorder, so the trace holds one stream per algorithm. The summary
    // tables read each first stream's own metrics.
    let mut rec = match &args.trace {
        Some(path) => Recorder::jsonl_file(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("stream_exp: cannot open trace file {path}: {e}");
            std::process::exit(2);
        }),
        None => Recorder::noop(),
    };

    // Metrics of each algorithm's first (observed) stream.
    let mut observations: Vec<(&str, StreamObservation)> = Vec::new();

    let algorithms = algorithm_set(scenario.is_some(), requests_per_stream);
    let mut columns =
        vec!["algorithm", "admitted", "mean rel.", "SLO met", "early rel.", "late rel.", "req/s"];
    if scenario.is_some() {
        columns.push("elapsed");
        columns.push("record hash");
    }
    let mut table = Table::new(columns);
    let mut effort = Table::new(vec![
        "algorithm",
        "events",
        "admitted",
        "rejected",
        "gated",
        "solve time",
        "p50",
        "p95",
        "p99",
    ]);
    // Matching counters (first stream per algorithm; only the heuristic's
    // matching rounds populate them).
    let mut matchplane = Table::new(vec!["algorithm", "rounds", "G_l edges", "classes"]);
    let mut matchplane_lines: Vec<String> = Vec::new();
    for (name, algorithm) in algorithms {
        let mut admitted = Accumulator::new();
        let mut rel = Accumulator::new();
        let mut slo = Accumulator::new();
        let mut early = Accumulator::new();
        let mut late = Accumulator::new();
        let mut rate = Accumulator::new();
        let mut elapsed_s = 0.0;
        let mut hash = RECORD_HASH_SEED;
        let events_base = rec.events_emitted();
        for t in 0..trials {
            let cfg = StreamConfig { algorithm: algorithm.clone(), ..Default::default() };
            let mut stats = StreamStats::new();
            // The first stream of each algorithm runs with the full
            // observability config (windowing) and yields the metrics
            // observation for the telemetry table; later trials use the
            // no-op recorder. Requests are fed lazily in both modes — the
            // engine pulls them one at a time, so the stream is never
            // materialized.
            let start = Instant::now();
            let ob = match &scenario {
                Some(built) => {
                    let stream = RequestStream::new(built, requests_per_stream as u64);
                    drive(
                        &built.network,
                        &built.catalog,
                        stream,
                        observed_config(cfg, &args),
                        built.spec.seed,
                        &mut rec,
                        &mut stats,
                        &mut hash,
                    )
                }
                None => {
                    let seed = expkit::fan_out(args.seed, t as u64);
                    let mut rng = StdRng::seed_from_u64(seed);
                    let wl = WorkloadConfig::default();
                    let network = generate_network(&wl, &mut rng);
                    let catalog = generate_catalog(&wl, &mut rng);
                    let catalog_ref = &catalog;
                    let nodes = wl.nodes;
                    let requests = (0..requests_per_stream).map(move |i| {
                        SfcRequest::random(i, catalog_ref, (3, 6), 0.99, nodes, &mut rng)
                    });
                    let cfg = if t == 0 { observed_config(cfg, &args) } else { cfg };
                    let mut noop = Recorder::noop();
                    let rec = if t == 0 { &mut rec } else { &mut noop };
                    drive(&network, &catalog, requests, cfg, seed, rec, &mut stats, &mut hash)
                }
            };
            let dt = start.elapsed().as_secs_f64();
            elapsed_s += dt;
            if dt > 0.0 {
                rate.push(stats.total as f64 / dt);
            }
            if t == 0 {
                observations.push((name, ob));
            }
            admitted.push(stats.admitted as f64);
            if let Some(m) = stats.mean_reliability() {
                rel.push(m);
            }
            if let Some(e) = stats.expectation_rate() {
                slo.push(e);
            }
            if let Some((e, l)) = stats.early_late_thirds() {
                early.push(e);
                late.push(l);
            }
        }
        let mut row = vec![
            name.to_string(),
            format!("{}/{}", mean_or_dash(&admitted, 1), requests_per_stream),
            mean_or_dash(&rel, 4),
            if slo.is_empty() { "-".into() } else { format!("{:.0}%", 100.0 * slo.summary().mean) },
            mean_or_dash(&early, 4),
            mean_or_dash(&late, 4),
            mean_or_dash(&rate, 0),
        ];
        if scenario.is_some() {
            row.push(expkit::table::fmt_duration_s(elapsed_s));
            row.push(format!("{hash:016x}"));
        }
        table.add_row(row);
        // Events (written only with `--trace`): the delta of the cumulative
        // count, which is this algorithm's traced stream. Counts, solve times
        // and solver counters: that stream's own metrics.
        let ob = &observations.last().expect("first stream observed").1;
        let solve_ns = ob.pipeline.hist("solve_ns").map_or(0, |h| h.sum());
        effort.add_row(vec![
            name.to_string(),
            match args.trace {
                Some(_) => format!("{}", rec.events_emitted() - events_base),
                None => "-".into(),
            },
            format!("{}", ob.pipeline.counter("admitted")),
            format!("{}", ob.pipeline.counter("rejected.no_primary_placement")),
            format!("{}", ob.pipeline.counter("rejected.capacity_gate")),
            expkit::table::fmt_duration_s(solve_ns as f64 / 1e9),
            solve_quantile(ob, 0.50),
            solve_quantile(ob, 0.95),
            solve_quantile(ob, 0.99),
        ]);
        let count = |name: &str| ob.pipeline.counter(name);
        let rounds = count("heuristic.rounds");
        if rounds > 0 {
            let (edges, classes) = (count("matching.edges.full"), count("matching.classes"));
            matchplane.add_row(vec![
                name.to_string(),
                format!("{rounds}"),
                format!("{edges}"),
                format!("{classes}"),
            ]);
            // One parseable line per algorithm.
            matchplane_lines.push(format!(
                "{name} matching: {rounds} rounds, {edges} G_l edges, {classes} classes"
            ));
        }
    }
    println!("{}", table.to_markdown());
    println!("\n### telemetry (first stream per algorithm)\n");
    println!("{}", effort.to_markdown());
    println!("\np50/p95/p99: log2-bucket upper bounds of the per-request solve time");
    if !matchplane_lines.is_empty() {
        println!("\n### matching (first stream per algorithm)\n");
        println!("{}", matchplane.to_markdown());
        println!();
        for line in &matchplane_lines {
            println!("{line}");
        }
    }
    if args.metrics_interval.is_some() {
        let windows: u64 = observations.iter().map(|(_, ob)| ob.windows).sum();
        println!("\nwindowed telemetry: {windows} stream.window summaries across observed streams");
    }
    println!("\npeak RSS: {}", expkit::peak_rss_human());
    rec.flush().expect("flush trace");
    if let Some(path) = &args.trace {
        println!("\nwrote {} telemetry events to {path}", rec.events_emitted());
    }
    println!(
        "\nEarly vs late: the reliability requests get degrades over the\n\
         stream as earlier arrivals consume the backup capacity around\n\
         their primaries — the system-level effect the paper's\n\
         single-request experiments hold fixed."
    );
}
