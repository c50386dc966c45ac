//! Solve a single generated scenario end-to-end and print a detailed
//! placement report — the "try the system in 10 seconds" entry point.
//!
//! Usage: `cargo run -p bench-harness --release --bin solve_one --
//! [--seed S] [--len L] [--residual F] [--l HOPS] [--algo ilp|rand|heur|greedy]
//! [--dot PATH] [--trace PATH] [--json]`
//!
//! `--trace PATH` streams one JSONL telemetry event per solver step to PATH;
//! `--json` replaces the human-readable report with a single JSON document
//! (metrics + solver effort + telemetry summary) on stdout.

use mecnet::workload::{generate_scenario, WorkloadConfig};
use obs::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use relaug::instance::AugmentationInstance;
use relaug::solution::{Metrics, SolverInfo};
use relaug::stream::Algorithm;
use relaug::{report, SolveScratch};

struct Args {
    seed: u64,
    len: usize,
    residual: f64,
    l: u32,
    algo: String,
    dot: Option<String>,
    trace: Option<String>,
    json: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        seed: 2020,
        len: 6,
        residual: 0.25,
        l: 1,
        algo: "ilp".into(),
        dot: None,
        trace: None,
        json: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--seed" => args.seed = val("--seed")?.parse().map_err(|e| format!("{e}"))?,
            "--len" => args.len = val("--len")?.parse().map_err(|e| format!("{e}"))?,
            "--residual" => {
                args.residual = val("--residual")?.parse().map_err(|e| format!("{e}"))?
            }
            "--l" => args.l = val("--l")?.parse().map_err(|e| format!("{e}"))?,
            "--algo" => args.algo = val("--algo")?,
            "--dot" => args.dot = Some(val("--dot")?),
            "--trace" => args.trace = Some(val("--trace")?),
            "--json" => args.json = true,
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !["ilp", "rand", "heur", "greedy"].contains(&args.algo.as_str()) {
        return Err(format!("unknown algorithm '{}'", args.algo));
    }
    Ok(args)
}

/// The `--json` document: everything a script needs from one solve.
#[derive(serde::Serialize)]
struct JsonReport {
    algo: String,
    seed: u64,
    chain_len: usize,
    l: u32,
    runtime_s: f64,
    solver_effort: String,
    metrics: Metrics,
    solver: SolverInfo,
    telemetry: obs::Telemetry,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("solve_one: {e}");
            std::process::exit(2);
        }
    };
    let config = WorkloadConfig {
        sfc_len_range: (args.len, args.len),
        residual_fraction: args.residual,
        ..Default::default()
    };
    let mut rng = StdRng::seed_from_u64(args.seed);
    let scenario = generate_scenario(&config, &mut rng);
    let inst = AugmentationInstance::from_scenario(&scenario, args.l);
    if !args.json {
        println!(
            "scenario: {} APs, {} cloudlets, chain length {}, l = {}, N = {} items\n",
            scenario.network.num_nodes(),
            scenario.network.num_cloudlets(),
            inst.chain_len(),
            args.l,
            inst.total_items()
        );
    }
    // Trace to JSONL when asked; otherwise keep events in memory so the
    // telemetry summary is populated for `--json` and the report's timing
    // lines. The plain path costs nothing extra: `solve` == noop-traced.
    let mut rec = match &args.trace {
        Some(path) => Recorder::jsonl_file(std::path::Path::new(path)).unwrap_or_else(|e| {
            eprintln!("solve_one: cannot open trace file {path}: {e}");
            std::process::exit(2);
        }),
        None => Recorder::memory(),
    };
    let algorithm = match args.algo.as_str() {
        "ilp" => Algorithm::Ilp(Default::default()),
        "rand" => Algorithm::Randomized(Default::default()),
        "heur" => Algorithm::Heuristic(Default::default()),
        _ => Algorithm::Greedy(Default::default()),
    };
    let outcome = algorithm.solve_scratch(&inst, &mut rng, &mut rec, &mut SolveScratch::new());
    rec.flush().expect("flush trace");
    if args.json {
        let doc = JsonReport {
            algo: args.algo.clone(),
            seed: args.seed,
            chain_len: inst.chain_len(),
            l: args.l,
            runtime_s: outcome.runtime.as_secs_f64(),
            solver_effort: report::solver_effort(&outcome),
            metrics: outcome.metrics.clone(),
            solver: outcome.solver.clone(),
            telemetry: outcome.telemetry.clone(),
        };
        println!("{}", serde_json::to_string_pretty(&doc).expect("serialize report"));
    } else {
        print!("{}", report::render(&inst, &outcome));
        if let Some(path) = &args.trace {
            println!("\nwrote {} telemetry events to {path}", rec.events_emitted());
        }
    }
    if let Some(path) = args.dot {
        let dot =
            mecnet::dot::to_dot_with_highlights(&scenario.network, &scenario.placement.locations);
        std::fs::write(&path, dot).expect("write DOT file");
        if !args.json {
            println!("\nwrote {path} (render with `dot -Tsvg`)");
        }
    }
}
