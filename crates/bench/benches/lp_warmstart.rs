//! Cold-vs-warm LP benchmark for the exact ILP path.
//!
//! Measures what the dual-simplex warm start buys branch and bound: every
//! B&B node differs from its parent by a single bound change, so a
//! warm-started re-solve needs a handful of dual pivots where a cold
//! two-phase solve pays the full pivot bill again.
//!
//! Three parts:
//!
//! 1. **Node solves** — deterministic random BMCGAP placement MILPs (the
//!    shape of the paper's augmentation ILP) solved with `warm_lp_nodes`
//!    off and on. Objectives are asserted equal; total pivots, nodes and
//!    pivots/node are recorded. No incumbent seeding, so the trees are deep
//!    enough to measure child re-solves rather than a pre-pruned stump.
//! 2. **Stream throughput** — an ILP-mode request stream (production
//!    default config) timed cold vs warm.
//! 3. **Scenario stream** — the same cold-vs-warm ILP stream on the
//!    `ba-1k` zoo preset (1,000 cloudlets; the neighborhood index keeps
//!    per-request instances small enough for exact solves), lazily
//!    synthesized and fed through the sink driver. Nearly all of its
//!    components are solved in closed form, without branch and bound:
//!    every one-function component (about 98% of them) and most coupled
//!    ones (85 of 99 in the first 3,000 requests). So this stream runs
//!    branch and bound on a minority of its coupled components only, and
//!    warm and cold differ only there.
//!
//! Results go to `BENCH_ilp.json` at the workspace root (the CI artifact;
//! CI gates `warm.total_pivots <= cold.total_pivots`). `QUICK=1` shrinks
//! the fixture for CI. Plain `harness = false` main: the numbers of
//! interest (pivot counts) are deterministic, so criterion sampling would
//! add noise, not signal.

use std::time::Instant;

use mecnet::request::SfcRequest;
use mecnet::workload::{generate_catalog, generate_network, WorkloadConfig};
use milp::{BnbConfig, Model, Relation, Sense};
use obs::Recorder;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relaug::stream::{process_stream_seeded, process_stream_seeded_sink, Algorithm, StreamConfig};
use scen::{BuiltScenario, RequestStream, ScenarioSpec};
use serde::Value;

const SEED: u64 = 42;

/// Deterministic BMCGAP placement MILP: binary `x_{i,b}`, at most one bin
/// per item, knapsack capacity per bin, maximize profit. Sized so the LP
/// relaxation is fractional and branch and bound has a real tree to search.
fn bmcgap_model(rng: &mut StdRng, items: usize, bins: usize) -> Model {
    let mut m = Model::new(Sense::Maximize);
    let demands: Vec<f64> = (0..items).map(|_| rng.gen_range(1.0..5.0)).collect();
    let mut vars = Vec::new();
    for (i, &demand) in demands.iter().enumerate() {
        for b in 0..bins {
            // ~80% of pairs eligible; profit correlates weakly with demand
            // so the knapsack decisions are non-trivial.
            if rng.gen::<f64>() < 0.8 {
                let profit = rng.gen_range(0.5..4.0) + 0.5 * demand;
                vars.push((i, b, m.add_binary_var(profit)));
            }
        }
    }
    for i in 0..items {
        let row: Vec<_> =
            vars.iter().filter(|(vi, _, _)| *vi == i).map(|&(_, _, v)| (v, 1.0)).collect();
        if !row.is_empty() {
            m.add_constraint(row, Relation::Le, 1.0);
        }
    }
    for b in 0..bins {
        let row: Vec<_> =
            vars.iter().filter(|(_, vb, _)| *vb == b).map(|&(vi, _, v)| (v, demands[vi])).collect();
        if !row.is_empty() {
            // Tight capacity: roughly a third of total eligible demand.
            let total: f64 = row.iter().map(|&(_, d)| d).sum();
            m.add_constraint(row, Relation::Le, (total / 3.0).max(2.0));
        }
    }
    m
}

fn bnb_cfg(warm_lp_nodes: bool) -> BnbConfig {
    BnbConfig { warm_lp_nodes, ..Default::default() }
}

#[derive(Default)]
struct Totals {
    nodes: u64,
    pivots: u64,
    solves: u64,
    wall_s: f64,
}

impl Totals {
    fn pivots_per_node(&self) -> f64 {
        self.pivots as f64 / (self.nodes as f64).max(1.0)
    }

    fn to_value(&self) -> Value {
        Value::Obj(vec![
            ("solves".into(), Value::U64(self.solves)),
            ("total_nodes".into(), Value::U64(self.nodes)),
            ("total_pivots".into(), Value::U64(self.pivots)),
            ("pivots_per_node".into(), Value::F64(self.pivots_per_node())),
            ("wall_s".into(), Value::F64(self.wall_s)),
        ])
    }
}

fn run_nodes(models: &[Model], warm: bool) -> Totals {
    let cfg = bnb_cfg(warm);
    let mut t = Totals::default();
    let started = Instant::now();
    for model in models {
        let sol = milp::solve_milp_with(model, &cfg).expect("BMCGAP solve");
        t.nodes += sol.stats.nodes as u64;
        t.pivots += sol.stats.lp_iterations as u64;
        t.solves += 1;
    }
    t.wall_s = started.elapsed().as_secs_f64();
    t
}

fn run_stream(requests: usize, warm: bool) -> (f64, usize, f64) {
    let wl = WorkloadConfig::default();
    let mut rng = StdRng::seed_from_u64(SEED);
    let network = generate_network(&wl, &mut rng);
    let catalog = generate_catalog(&wl, &mut rng);
    let reqs: Vec<SfcRequest> = (0..requests)
        .map(|i| SfcRequest::random(i, &catalog, (3, 6), 0.99, wl.nodes, &mut rng))
        .collect();
    let mut ilp_cfg = relaug::ilp::IlpConfig::default();
    ilp_cfg.bnb.warm_lp_nodes = warm;
    let cfg = StreamConfig { algorithm: Algorithm::Ilp(ilp_cfg), ..Default::default() };
    let started = Instant::now();
    let (out, _) =
        process_stream_seeded(&network, &catalog, &reqs, &cfg, SEED, &mut Recorder::noop());
    let wall = started.elapsed().as_secs_f64();
    let admitted = out.records.iter().filter(|r| r.admitted).count();
    (requests as f64 / wall, admitted, out.records[0].achieved_reliability)
}

/// Cold-vs-warm ILP stream on a zoo scenario: requests come lazily from the
/// spec-derived generator and records are folded into running statistics as
/// they are produced. Returns (req/s, admitted, first-request reliability).
fn run_scenario_stream(built: &BuiltScenario, requests: u64, warm: bool) -> (f64, usize, f64) {
    let mut ilp_cfg = relaug::ilp::IlpConfig::default();
    ilp_cfg.bnb.warm_lp_nodes = warm;
    let cfg = StreamConfig { algorithm: Algorithm::Ilp(ilp_cfg), ..Default::default() };
    let mut admitted = 0usize;
    let mut first_rel = f64::NAN;
    let started = Instant::now();
    process_stream_seeded_sink(
        &built.network,
        &built.catalog,
        RequestStream::new(built, requests),
        &cfg,
        built.spec.seed,
        &mut Recorder::noop(),
        &mut |r| {
            if r.id == 0 {
                first_rel = r.achieved_reliability;
            }
            admitted += r.admitted as usize;
        },
    );
    let wall = started.elapsed().as_secs_f64();
    (requests as f64 / wall, admitted, first_rel)
}

const SCENARIO: &str = "ba-1k";

fn main() {
    let quick = std::env::var_os("QUICK").is_some();
    let models_n = if quick { 4 } else { 16 };
    let (items, bins) = if quick { (10, 4) } else { (14, 5) };
    let stream_requests = if quick { 15 } else { 60 };
    let scenario_requests: u64 = if quick { 1_000 } else { 10_000 };

    let mut rng = StdRng::seed_from_u64(SEED);
    let models: Vec<Model> = (0..models_n).map(|_| bmcgap_model(&mut rng, items, bins)).collect();

    // Sanity: warm and cold solves must agree on the optimum (the trees may
    // differ — dual and primal re-solves can land on different
    // alternate-optimal vertices and branch differently — but the objective
    // is pinned).
    for model in &models {
        let cold = milp::solve_milp_with(model, &bnb_cfg(false)).unwrap();
        let warm = milp::solve_milp_with(model, &bnb_cfg(true)).unwrap();
        assert!(
            (cold.objective - warm.objective).abs() < 1e-9,
            "warm/cold MILP optima diverged: {} vs {}",
            cold.objective,
            warm.objective,
        );
    }

    let cold = run_nodes(&models, false);
    let warm = run_nodes(&models, true);
    let pivot_ratio = cold.pivots_per_node() / warm.pivots_per_node().max(1e-12);

    println!(
        "lp_warmstart: cold  {} nodes, {} pivots ({:.2} pivots/node) in {:.3}s",
        cold.nodes,
        cold.pivots,
        cold.pivots_per_node(),
        cold.wall_s
    );
    println!(
        "lp_warmstart: warm  {} nodes, {} pivots ({:.2} pivots/node) in {:.3}s",
        warm.nodes,
        warm.pivots,
        warm.pivots_per_node(),
        warm.wall_s
    );
    println!("lp_warmstart: {pivot_ratio:.2}x fewer pivots per node with warm starts");

    let (cold_rps, cold_admitted, cold_rel0) = run_stream(stream_requests, false);
    let (warm_rps, warm_admitted, warm_rel0) = run_stream(stream_requests, true);
    // Admission counts may drift late in the stream — alternate-optimal
    // placements consume different node capacity — but the first request
    // sees identical state, so its achieved reliability is pinned.
    assert!(
        (cold_rel0 - warm_rel0).abs() < 1e-9,
        "warm/cold first-request reliability diverged: {cold_rel0} vs {warm_rel0}",
    );
    println!(
        "lp_warmstart: ILP stream {stream_requests} requests — {cold_rps:.1} req/s cold \
         ({cold_admitted} admitted), {warm_rps:.1} req/s warm ({warm_admitted} admitted)"
    );

    let built = ScenarioSpec::preset(SCENARIO).expect("known preset").build();
    let (sc_cold_rps, sc_cold_admitted, sc_cold_rel0) =
        run_scenario_stream(&built, scenario_requests, false);
    let (sc_warm_rps, sc_warm_admitted, sc_warm_rel0) =
        run_scenario_stream(&built, scenario_requests, true);
    assert!(
        (sc_cold_rel0 - sc_warm_rel0).abs() < 1e-9,
        "warm/cold first-request reliability diverged on {SCENARIO}: \
         {sc_cold_rel0} vs {sc_warm_rel0}",
    );
    println!(
        "lp_warmstart: ILP scenario stream {SCENARIO} ({} nodes / {} cloudlets), \
         {scenario_requests} requests — {sc_cold_rps:.1} req/s cold ({sc_cold_admitted} \
         admitted), {sc_warm_rps:.1} req/s warm ({sc_warm_admitted} admitted)",
        built.network.num_nodes(),
        built.cloudlets(),
    );

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let report = Value::Obj(vec![
        ("benchmark".into(), Value::Str("lp_warmstart".into())),
        ("cores".into(), Value::U64(cores as u64)),
        ("quick".into(), Value::Bool(quick)),
        ("seed".into(), Value::U64(SEED)),
        ("models".into(), Value::U64(models_n as u64)),
        ("items".into(), Value::U64(items as u64)),
        ("bins".into(), Value::U64(bins as u64)),
        ("cold".into(), cold.to_value()),
        ("warm".into(), warm.to_value()),
        ("pivots_per_node_ratio".into(), Value::F64(pivot_ratio)),
        (
            "stream".into(),
            Value::Obj(vec![
                ("requests".into(), Value::U64(stream_requests as u64)),
                ("cold_admitted".into(), Value::U64(cold_admitted as u64)),
                ("warm_admitted".into(), Value::U64(warm_admitted as u64)),
                ("cold_rps".into(), Value::F64(cold_rps)),
                ("warm_rps".into(), Value::F64(warm_rps)),
                ("speedup".into(), Value::F64(warm_rps / cold_rps)),
            ]),
        ),
        (
            "scenario_stream".into(),
            Value::Obj(vec![
                ("name".into(), Value::Str(SCENARIO.into())),
                ("nodes".into(), Value::U64(built.network.num_nodes() as u64)),
                ("cloudlets".into(), Value::U64(built.cloudlets() as u64)),
                ("requests".into(), Value::U64(scenario_requests)),
                ("cold_admitted".into(), Value::U64(sc_cold_admitted as u64)),
                ("warm_admitted".into(), Value::U64(sc_warm_admitted as u64)),
                ("cold_rps".into(), Value::F64(sc_cold_rps)),
                ("warm_rps".into(), Value::F64(sc_warm_rps)),
                ("speedup".into(), Value::F64(sc_warm_rps / sc_cold_rps)),
            ]),
        ),
    ]);
    let mut json = serde_json::to_string_pretty(&report).expect("report serializes");
    json.push('\n');
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_ilp.json");
    std::fs::write(path, &json).expect("write BENCH_ilp.json");
    println!("wrote {path}");

    // Self-gate the robust invariant (CI re-checks it from the JSON): warm
    // node re-solves must not pivot more than cold solves in aggregate.
    if warm.pivots > cold.pivots {
        eprintln!(
            "lp_warmstart: FAIL — warm-started B&B used more pivots ({}) than cold ({})",
            warm.pivots, cold.pivots
        );
        std::process::exit(1);
    }
    println!("lp_warmstart: OK — warm total pivots <= cold total pivots");
}
