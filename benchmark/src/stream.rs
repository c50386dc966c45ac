//! The stream workloads: requests pulled one at a time from a lazy
//! `scen::RequestStream` by the sequential seeded engine, closed loop (the
//! engine asks for request `k + 1` only after it has emitted record `k`).
//!
//! Untraced passes drive the public engine,
//! `relaug::stream::process_stream_seeded_sink`, with telemetry off. The
//! traced pass re-composes the same sequential pipeline from each layer's
//! public functions, in the engine's order, and times every call; it must
//! reproduce the untraced record hash and final residuals bit for bit.
//!
//! The deployment — network, VNF catalog and service templates — is the
//! preset's and does not depend on the seed; the seed picks the traffic. A
//! run cycles through several traffic windows, each on a fresh network, so
//! one run averages over several request mixes instead of resting on one.

use std::cell::Cell;
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use bench_harness::{fold_record_hash, RECORD_HASH_SEED};
use mecnet::admission::random_placement_capacity_aware;
use mecnet::graph::NodeId;
use mecnet::request::SfcRequest;
use obs::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use relaug::heuristic::HeuristicConfig;
use relaug::ilp::IlpConfig;
use relaug::stream::{process_stream_seeded_sink, Algorithm, RequestRecord, StreamConfig};
use relaug::{AugmentationInstance, SolveScratch};
use scen::{BuiltScenario, RequestStream, ScenarioSpec};

use crate::stats::{median, metric, ratio, Metric, Samples};
use crate::{more_passes, peak_rss_mib, timed_setups, Run};

/// Locality radius `l` of every workload.
const L: u32 = 1;

/// Minimum share of the traced engine time the timed phases must explain.
const MIN_COVERAGE: f64 = 0.90;

/// Windows a templated stream is cut into; a seed picks its windows among
/// them. Few enough that skipping to the last one stays cheap (~15 ms).
const SLOTS: u64 = 16;

#[derive(Debug, Clone, Copy)]
enum Solver {
    Heuristic,
    Ilp,
}

/// One stream workload: a scenario preset, how many requests of its stream
/// one pass processes, the augmentation algorithm, and how many traffic
/// windows a run cycles through.
#[derive(Debug)]
pub struct StreamWorkload {
    pub name: &'static str,
    preset: &'static str,
    /// Keep the preset's Zipf-popular service templates (requests repeat),
    /// or draw an ad-hoc chain per request (requests never repeat).
    popular_services: bool,
    requests: u64,
    solver: Solver,
    windows: u64,
}

pub const WORKLOADS: [StreamWorkload; 3] = [
    // ~1,100 admitted heuristic solves of ~2.5 ms per window; the solver is
    // ~99% of the time. Popular templates make requests repeat.
    StreamWorkload {
        name: "sagin-admit",
        preset: "sagin-1k",
        popular_services: true,
        requests: 3_000,
        solver: Solver::Heuristic,
        windows: 4,
    },
    // 99.6% post-saturation rejects on ad-hoc chains: the reject path,
    // with no help from repeats. Each window admits only ~900 requests, so
    // a run cycles through many short windows to collect admitted samples
    // from many request mixes.
    StreamWorkload {
        name: "ba-saturate",
        preset: "ba-1k",
        popular_services: false,
        requests: 250_000,
        solver: Solver::Heuristic,
        windows: 16,
    },
    // ~1,150 exact solves of ~120 µs per window; simplex and
    // branch-and-bound dominate. Passes are short, so a run cycles through
    // more windows.
    StreamWorkload {
        name: "ba-ilp",
        preset: "ba-1k",
        popular_services: true,
        requests: 3_000,
        solver: Solver::Ilp,
        windows: 8,
    },
];

/// One traffic window: which stretch of which stream a pass feeds the
/// engine, and the engine's own seed for that pass.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Window {
    stream_seed: u64,
    skip: u64,
    engine_seed: u64,
}

impl StreamWorkload {
    fn algorithm(&self) -> Algorithm {
        match self.solver {
            Solver::Heuristic => Algorithm::Heuristic(HeuristicConfig::default()),
            Solver::Ilp => Algorithm::Ilp(IlpConfig::default()),
        }
    }

    fn spec(&self) -> ScenarioSpec {
        let mut spec = ScenarioSpec::preset(self.preset).expect("workload presets exist");
        if !self.popular_services {
            spec.stream.services = None;
        }
        spec
    }

    /// The deployment: the preset's network and catalog with the `l`-hop
    /// neighborhood index resolved (the engine looks it up per pass;
    /// building it is set-up work).
    fn build(&self) -> BuiltScenario {
        let built = self.spec().build();
        built.network.neighborhood_index(L);
        built
    }

    /// The traffic windows of a run with `seed`. Templated streams keep the
    /// preset's seed, so the service templates stay fixed, and the seed
    /// picks which stretches of the stream the windows are, all distinct;
    /// ad-hoc streams have no templates to keep and are drawn from a seed
    /// of their own.
    fn windows(&self, seed: u64) -> Vec<Window> {
        assert!(!self.popular_services || self.windows <= SLOTS, "more windows than slots");
        let mut slots: Vec<u64> = (0..SLOTS).collect();
        (0..self.windows)
            .map(|j| {
                let h = splitmix64(splitmix64(seed) ^ j);
                if self.popular_services {
                    // One step of a seed-keyed Fisher-Yates shuffle: window
                    // `j` takes a slot no earlier window took.
                    let pick = j + splitmix64(h) % (SLOTS - j);
                    slots.swap(j as usize, pick as usize);
                    let skip = slots[j as usize] * self.requests;
                    Window { stream_seed: self.spec().seed, skip, engine_seed: h }
                } else {
                    Window { stream_seed: h, skip: 0, engine_seed: h }
                }
            })
            .collect()
    }

    /// The window's requests, positioned at its first one.
    fn requests(&self, built: &mut BuiltScenario, win: &Window) -> RequestStream {
        built.spec.seed = win.stream_seed;
        let mut stream = RequestStream::new(built, win.skip + self.requests);
        if win.skip > 0 {
            stream.nth(win.skip as usize - 1);
        }
        stream
    }
}

/// Wall-clock bookkeeping shared by the request wrapper and the record sink.
struct Clock {
    /// When the engine received the request it is working on.
    pulled: Cell<Instant>,
    /// Time spent inside the request generator.
    gen: Cell<Duration>,
}

impl Clock {
    fn new() -> Clock {
        Clock { pulled: Cell::new(Instant::now()), gen: Cell::new(Duration::ZERO) }
    }

    /// Time since the current request was handed to the engine.
    fn since_pull(&self, now: Instant) -> Duration {
        now - self.pulled.get()
    }

    fn generator_time(&self) -> Duration {
        self.gen.get()
    }
}

/// Wraps the request generator: times each `next()` so generator time stays
/// out of every engine number, and stamps the instant the engine received
/// the request, where that request's latency starts.
struct Stamped<'a, I> {
    inner: I,
    clock: &'a Clock,
}

impl<I: Iterator> Iterator for Stamped<'_, I> {
    type Item = I::Item;

    fn next(&mut self) -> Option<I::Item> {
        let asked = Instant::now();
        let item = self.inner.next();
        let got = Instant::now();
        self.clock.gen.set(self.clock.gen.get() + (got - asked));
        self.clock.pulled.set(got);
        item
    }
}

fn nanos(d: Duration) -> u32 {
    u32::try_from(d.as_nanos()).unwrap_or(u32::MAX)
}

/// Pull-to-record latencies, split by decision.
#[derive(Debug, Default)]
struct Latencies {
    admit: Samples,
    reject: Samples,
}

impl Latencies {
    fn push(&mut self, admitted: bool, latency: Duration) {
        if admitted {
            self.admit.push(nanos(latency));
        } else {
            self.reject.push(nanos(latency));
        }
    }

    fn end_pass(&mut self) {
        self.admit.end_pass();
        self.reject.end_pass();
    }

    /// Room for a pass of `requests` whatever its decisions.
    fn reserve(&mut self, requests: usize) {
        self.admit.reserve(requests);
        self.reject.reserve(requests);
    }
}

/// Running summary of the records of one pass, plus the per-record checks.
#[derive(Debug, Clone, Default)]
struct Tally {
    hash: u64,
    requests: u64,
    admitted: u64,
    slo_met: u64,
    reliability_sum: f64,
    bad_records: u64,
}

impl Tally {
    fn new() -> Tally {
        Tally { hash: RECORD_HASH_SEED, ..Default::default() }
    }

    fn record(&mut self, r: &RequestRecord, expectation: f64) {
        self.hash = fold_record_hash(self.hash, r);
        self.requests += 1;
        let sound = if r.admitted {
            self.admitted += 1;
            self.slo_met += r.met_expectation as u64;
            self.reliability_sum += r.achieved_reliability;
            r.base_reliability > 0.0
                && r.base_reliability <= r.achieved_reliability
                && r.achieved_reliability <= 1.0
                && r.met_expectation == (r.achieved_reliability >= expectation)
        } else {
            r.base_reliability == 0.0
                && r.achieved_reliability == 0.0
                && !r.met_expectation
                && r.secondaries == 0
        };
        self.bad_records += !sound as u64;
    }

    /// Fold another pass's counts into this one (the hash is not folded).
    fn add(&mut self, other: &Tally) {
        self.requests += other.requests;
        self.admitted += other.admitted;
        self.slo_met += other.slo_met;
        self.reliability_sum += other.reliability_sum;
        self.bad_records += other.bad_records;
    }
}

/// What one pass over a window's requests produced.
#[derive(Debug)]
struct Pass {
    tally: Tally,
    residual: Vec<f64>,
    /// Pass wall time minus generator time.
    engine: Duration,
}

impl Pass {
    fn same_output(&self, other: &Pass) -> bool {
        self.tally.hash == other.tally.hash
            && self.residual.len() == other.residual.len()
            && self.residual.iter().zip(&other.residual).all(|(a, b)| a.to_bits() == b.to_bits())
    }
}

/// One untraced pass through the public engine. Latencies are recorded only
/// when `lat` is given, so the warm-up pass allocates no sample storage;
/// their storage grows before the pass, never inside the timed callback.
fn run_untraced(
    w: &StreamWorkload,
    built: &BuiltScenario,
    requests: impl Iterator<Item = SfcRequest>,
    engine_seed: u64,
    mut lat: Option<&mut Latencies>,
) -> Pass {
    if let Some(lat) = lat.as_deref_mut() {
        lat.reserve(w.requests as usize);
    }
    let cfg = StreamConfig { l: L, algorithm: w.algorithm(), ..Default::default() };
    let expectation = built.spec.stream.expectation;
    let clock = Clock::new();
    let requests = Stamped { inner: requests, clock: &clock };
    let mut tally = Tally::new();
    let started = Instant::now();
    let (residual, _) = process_stream_seeded_sink(
        &built.network,
        &built.catalog,
        requests,
        &cfg,
        engine_seed,
        &mut Recorder::noop(),
        &mut |r| {
            let done = Instant::now();
            if let Some(lat) = lat.as_deref_mut() {
                lat.push(r.admitted, clock.since_pull(done));
            }
            tally.record(&r, expectation);
        },
    );
    let wall = started.elapsed();
    if let Some(lat) = lat {
        lat.end_pass();
    }
    Pass { tally, residual, engine: wall - clock.generator_time() }
}

// The seeded engine derives one admission RNG and one solve RNG per request
// position; its derivation (`relaug::stream::request_rng`) is crate-private,
// so the traced pass carries this copy. A drift shows up as a traced record
// hash that no longer matches the untraced one, which fails the run.
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

/// Solver counters read from the traced pass's counters-only recorder.
const SOLVER_COUNTERS: [&str; 12] = [
    "heuristic.rounds",
    "heuristic.committed",
    "heuristic.trimmed_secondaries",
    "matching.edges.full",
    "matching.edges.materialized",
    "matching.passes",
    "matching.relaxations",
    "matching.rounds.fallback",
    "ilp.nodes",
    "ilp.lp_iterations",
    "ilp.components",
    "ilp.pruned_bound",
];

/// Per-layer time and work, accumulated over the traced passes.
#[derive(Debug, Default)]
struct Layers {
    admit: Duration,
    admits: u64,
    reject: Duration,
    rejects: u64,
    instance: Duration,
    bins: u64,
    items: u64,
    solve: Duration,
    solve_ns: Samples,
    ledger: Duration,
    overcommit_clamps: u64,
    engine: Duration,
    gen: Duration,
    requests: u64,
    passes: u64,
    counters: BTreeMap<&'static str, u64>,
}

/// One traced pass: the engine's per-request steps, each timed —
/// per-function demands and capacity-aware primary placement (admission),
/// the localized instance build, the solve (with a counters-only recorder),
/// and the secondary loads through the two-phase ledger with the engine's
/// clamp fallback. Returns the pass and the per-node debits it committed.
fn run_traced(
    w: &StreamWorkload,
    built: &BuiltScenario,
    requests: impl Iterator<Item = SfcRequest>,
    engine_seed: u64,
    layers: &mut Layers,
) -> (Pass, Vec<f64>) {
    let net = &built.network;
    let catalog = &built.catalog;
    let algorithm = w.algorithm();
    let expectation = built.spec.stream.expectation;
    let clock = Clock::new();
    let requests = Stamped { inner: requests, clock: &clock };
    let mut tally = Tally::new();
    let mut rec = Recorder::counters_only();
    layers.solve_ns.reserve(w.requests as usize);
    let started = Instant::now();
    let nbhd = net.neighborhood_index(L);
    let mut residual = net.residual_capacities(1.0);
    let mut debited = vec![0.0; net.num_nodes()];
    let mut scratch = SolveScratch::new();
    let mut demands: Vec<f64> = Vec::new();
    for (k, req) in requests.enumerate() {
        let pulled = clock.pulled.get();
        demands.clear();
        demands.extend(req.sfc.iter().map(|&f| catalog.demand(f)));
        let mut admit_rng = request_rng(engine_seed, k, ADMIT_SALT);
        let placement =
            random_placement_capacity_aware(net, &req, &demands, &mut residual, &mut admit_rng);
        let admitted_at = Instant::now();
        let Some(placement) = placement else {
            layers.reject += admitted_at - pulled;
            layers.rejects += 1;
            let record = RequestRecord {
                id: req.id,
                admitted: false,
                base_reliability: 0.0,
                achieved_reliability: 0.0,
                met_expectation: false,
                secondaries: 0,
            };
            tally.record(&record, expectation);
            continue;
        };
        let inst = AugmentationInstance::new_localized_with_index(
            net,
            catalog,
            &req,
            &placement.locations,
            &residual,
            &nbhd,
        );
        let built_at = Instant::now();
        let mut solve_rng = request_rng(engine_seed, k, SOLVE_SALT);
        let outcome = algorithm.solve_scratch(&inst, &mut solve_rng, &mut rec, &mut scratch);
        let solved_at = Instant::now();
        let debits: Vec<(NodeId, f64)> = outcome
            .augmentation
            .bin_loads(&inst)
            .iter()
            .enumerate()
            .filter(|&(_, &load)| load > 0.0)
            .map(|(bin, &load)| (inst.bins[bin].node, load))
            .collect();
        match net.try_reserve(&mut residual, &debits) {
            Ok(mut reservation) => {
                net.commit(&mut reservation).expect("fresh reservation commits");
            }
            Err(_) => {
                layers.overcommit_clamps += 1;
                for &(node, load) in &debits {
                    let v = node.index();
                    residual[v] = (residual[v] - load).max(0.0);
                }
            }
        }
        let committed_at = Instant::now();
        layers.admit += admitted_at - pulled;
        layers.admits += 1;
        layers.instance += built_at - admitted_at;
        layers.solve += solved_at - built_at;
        layers.solve_ns.push(nanos(solved_at - built_at));
        layers.ledger += committed_at - solved_at;
        layers.bins += inst.bins.len() as u64;
        layers.items += inst.total_items() as u64;
        for (&node, &demand) in placement.locations.iter().zip(&demands) {
            debited[node.index()] += demand;
        }
        for &(node, load) in &debits {
            debited[node.index()] += load;
        }
        let record = RequestRecord {
            id: req.id,
            admitted: true,
            base_reliability: outcome.metrics.base_reliability,
            achieved_reliability: outcome.metrics.reliability,
            met_expectation: outcome.metrics.met_expectation,
            secondaries: outcome.metrics.total_secondaries,
        };
        tally.record(&record, expectation);
    }
    let wall = started.elapsed();
    let gen = clock.generator_time();
    layers.engine += wall - gen;
    layers.gen += gen;
    layers.requests += tally.requests;
    layers.passes += 1;
    layers.solve_ns.end_pass();
    for name in SOLVER_COUNTERS {
        *layers.counters.entry(name).or_insert(0) += rec.counter(name);
    }
    (Pass { tally, residual, engine: wall - gen }, debited)
}

impl Layers {
    fn counter(&self, name: &str) -> f64 {
        self.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Share of the traced engine time the timed phases account for.
    fn coverage(&self) -> f64 {
        let phases = self.admit + self.reject + self.instance + self.solve + self.ledger;
        ratio(phases.as_secs_f64(), self.engine.as_secs_f64())
    }

    /// The per-layer metrics; `overhead` is the traced-to-untraced engine
    /// time ratio.
    fn metrics(&self, overhead: f64) -> Vec<Metric> {
        let engine = self.engine.as_secs_f64();
        let share = |d: Duration| ratio(d.as_secs_f64(), engine);
        let mean_ns = |d: Duration, n: u64| ratio(d.as_nanos() as f64, n as f64);
        let solves = self.admits as f64;
        let per_solve = |name: &str| ratio(self.counter(name), solves);
        let committed = self.counter("heuristic.committed");
        let trimmed = self.counter("heuristic.trimmed_secondaries");
        let full = self.counter("matching.edges.full");
        let live = self.counter("matching.edges.materialized");
        let nodes = self.counter("ilp.nodes");
        vec![
            metric("admission.admit_ns_mean", mean_ns(self.admit, self.admits), "ns"),
            metric("admission.reject_ns_mean", mean_ns(self.reject, self.rejects), "ns"),
            metric("admission.share", share(self.admit + self.reject), "ratio"),
            metric("instance.build_ns_mean", mean_ns(self.instance, self.admits), "ns"),
            metric("instance.bins_mean", ratio(self.bins as f64, solves), "count"),
            metric("instance.items_mean", ratio(self.items as f64, solves), "count"),
            metric("instance.share", share(self.instance), "ratio"),
            metric("solve.ns_p50", self.solve_ns.block_quantile(0.50).unwrap_or(0.0), "ns"),
            metric("solve.ns_p99", self.solve_ns.block_quantile(0.99).unwrap_or(0.0), "ns"),
            metric("solve.share", share(self.solve), "ratio"),
            metric("heuristic.rounds_per_solve", per_solve("heuristic.rounds"), "count"),
            metric("heuristic.committed_per_solve", committed / solves.max(1.0), "count"),
            metric("heuristic.trimmed_per_solve", trimmed / solves.max(1.0), "count"),
            metric("heuristic.trim_waste", ratio(trimmed, committed), "ratio"),
            metric("matching.edges_full_per_solve", ratio(full, solves), "count"),
            metric("matching.edges_live_per_solve", ratio(live, solves), "count"),
            metric("matching.prune_frac", ratio(full - live, full), "ratio"),
            metric("matching.passes_per_solve", per_solve("matching.passes"), "count"),
            metric("matching.relaxations_per_solve", per_solve("matching.relaxations"), "count"),
            metric(
                "matching.fallback_rounds",
                ratio(self.counter("matching.rounds.fallback"), self.passes as f64),
                "count",
            ),
            metric("ilp.nodes_per_solve", ratio(nodes, solves), "count"),
            metric("ilp.lp_iterations_per_solve", per_solve("ilp.lp_iterations"), "count"),
            metric("ilp.components_per_solve", per_solve("ilp.components"), "count"),
            metric(
                "ilp.pruned_bound_frac",
                ratio(self.counter("ilp.pruned_bound"), nodes),
                "ratio",
            ),
            metric("ledger.ns_mean", mean_ns(self.ledger, self.admits), "ns"),
            metric("ledger.share", share(self.ledger), "ratio"),
            metric("scen.gen_ns_per_req", mean_ns(self.gen, self.requests), "ns"),
            metric("trace.coverage", self.coverage(), "ratio"),
            metric("trace.overhead", overhead, "ratio"),
        ]
    }
}

/// Residuals within `[0, capacity]` on every node.
fn residuals_in_bounds(built: &BuiltScenario, residual: &[f64]) -> bool {
    residual.len() == built.network.num_nodes()
        && residual
            .iter()
            .enumerate()
            .all(|(v, &r)| r >= 0.0 && r <= built.network.capacity(NodeId(v)))
}

/// The first pass of each window, against which its later passes are
/// checked bit for bit.
struct References {
    first: Vec<Option<Pass>>,
}

impl References {
    fn check(&mut self, run: &mut Run, built: &BuiltScenario, window: usize, pass: Pass) {
        match &self.first[window] {
            Some(first) => run.check(
                pass.same_output(first),
                "passes of a window disagree on records or residuals",
            ),
            None => {
                run.check(
                    residuals_in_bounds(built, &pass.residual),
                    "final residual outside [0, capacity]",
                );
                run.check(pass.tally.bad_records == 0, "record fields inconsistent");
                self.first[window] = Some(pass);
            }
        }
    }

    /// Order-sensitive hash over the windows' record hashes.
    fn record_hash(&self) -> u64 {
        self.first.iter().flatten().fold(RECORD_HASH_SEED, |h, p| splitmix64(h ^ p.tally.hash))
    }
}

/// Run a stream workload: set-up, one untimed warm-up pass, then passes
/// cycling through the run's windows as long as `seconds` allows —
/// untraced passes for the end-to-end metrics, at least one full cycle, or
/// untraced/traced pairs for the per-layer metrics, at least one pair.
pub fn run(w: &StreamWorkload, seed: u64, seconds: f64, trace: bool) -> Run {
    let (setup_s, mut built) = timed_setups(|| w.build());
    let windows = w.windows(seed);
    let mut run = Run::default();
    let mut refs = References { first: windows.iter().map(|_| None).collect() };
    let requests = w.requests(&mut built, &windows[0]);
    let warm = run_untraced(w, &built, requests, windows[0].engine_seed, None);
    let rss = peak_rss_mib();
    refs.check(&mut run, &built, 0, warm);
    let mut lat = Latencies::default();
    let mut layers = Layers::default();
    let mut throughput = Vec::new();
    let mut overhead = Vec::new();
    let mut quality = Tally::new();
    let started = Instant::now();
    let mut i = 0;
    // An untraced run covers each window at least once, so the quality
    // metrics and the record hash are the same for a seed however many
    // passes the time allows. A traced pair costs two passes, so a traced
    // run keeps to `seconds` after its first pair and covers the windows it
    // reaches, in order.
    let min_passes = if trace { 1 } else { windows.len() };
    while more_passes(started, i, min_passes, seconds) {
        let j = i % windows.len();
        let win = &windows[j];
        let requests = w.requests(&mut built, win);
        let pass = run_untraced(w, &built, requests, win.engine_seed, (!trace).then_some(&mut lat));
        run.attempted += pass.tally.requests;
        if i < windows.len() {
            quality.add(&pass.tally);
        }
        if trace {
            let requests = w.requests(&mut built, win);
            let (traced, debited) = run_traced(w, &built, requests, win.engine_seed, &mut layers);
            run.attempted += traced.tally.requests;
            run.check(
                traced.same_output(&pass),
                "traced pass differs from untraced records or residuals",
            );
            let ledger_holds =
                traced.residual.iter().enumerate().all(|(v, &r)| {
                    (built.network.capacity(NodeId(v)) - r - debited[v]).abs() <= 1e-6
                });
            run.check(ledger_holds, "ledger: capacity - residual != committed debits");
            overhead.push(traced.engine.as_secs_f64() / pass.engine.as_secs_f64());
        } else {
            throughput.push(pass.tally.requests as f64 / pass.engine.as_secs_f64());
        }
        refs.check(&mut run, &built, j, pass);
        i += 1;
    }
    run.report("record_hash", format!("\"{:016x}\"", refs.record_hash()));
    run.report("windows", refs.first.iter().flatten().count().to_string());
    run.report("passes", i.to_string());
    if trace {
        run.check(layers.overcommit_clamps == 0, "a feasible solver overcommitted the ledger");
        run.check(layers.coverage() >= MIN_COVERAGE, "trace.coverage below 0.90");
        run.metrics = layers.metrics(median(&overhead));
        run.report("samples", format!("{{\"solve\": {}}}", layers.solve_ns.len()));
        return run;
    }
    let us = |s: &Samples, q: f64| s.block_quantile(q).map(|ns| ns / 1e3);
    let percentiles = [
        ("admit_p50_us", us(&lat.admit, 0.50)),
        ("admit_p99_us", us(&lat.admit, 0.99)),
        ("reject_p50_us", us(&lat.reject, 0.50)),
    ];
    let q = &quality;
    run.metrics.push(metric("setup_s", setup_s, "s"));
    run.metrics.push(metric("throughput_rps", median(&throughput), "req/s"));
    for (name, value) in percentiles {
        run.check(value.is_some(), "too few samples for a reported percentile");
        run.metrics.push(metric(name, value.unwrap_or(0.0), "us"));
    }
    run.metrics.push(metric("admitted_frac", ratio(q.admitted as f64, q.requests as f64), "ratio"));
    run.metrics.push(metric(
        "mean_reliability",
        ratio(q.reliability_sum, q.admitted as f64),
        "ratio",
    ));
    run.metrics.push(metric("slo_met_frac", ratio(q.slo_met as f64, q.admitted as f64), "ratio"));
    run.metrics.push(metric("peak_rss_mib", rss, "MiB"));
    run.report(
        "samples",
        format!("{{\"admit\": {}, \"reject\": {}}}", lat.admit.len(), lat.reject.len()),
    );
    run
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_excludes_generator_time() {
        // A generator that takes 3 ms per request, a consumer that takes
        // none: every latency sample must stay far below the generator's
        // time, and the clock must account for all of it.
        let clock = Clock::new();
        let slow = (0..5).inspect(|_| std::thread::sleep(Duration::from_millis(3)));
        let mut lat = Latencies::default();
        for i in (Stamped { inner: slow, clock: &clock }) {
            lat.push(i % 2 == 0, clock.since_pull(Instant::now()));
        }
        lat.end_pass();
        assert_eq!(lat.admit.len() + lat.reject.len(), 5);
        assert!(clock.generator_time() >= Duration::from_millis(15));
        assert!(lat.admit.values().iter().chain(lat.reject.values()).all(|&ns| ns < 1_000_000));
    }

    #[test]
    fn windows_keep_templates_and_vary_traffic() {
        let w = &WORKLOADS[0];
        let a = w.windows(1);
        assert_eq!(a, w.windows(1), "same seed, same windows");
        assert_ne!(a, w.windows(2));
        assert!(a
            .iter()
            .all(|win| win.stream_seed == w.spec().seed && win.skip < SLOTS * w.requests));
        for seed in 0..200 {
            let mut skips: Vec<u64> = w.windows(seed).iter().map(|win| win.skip).collect();
            skips.sort_unstable();
            skips.dedup();
            assert_eq!(skips.len() as u64, w.windows, "seed {seed}: two windows share a stretch");
        }
        let all = StreamWorkload { windows: SLOTS, ..WORKLOADS[0] };
        let mut skips: Vec<u64> = all.windows(3).iter().map(|win| win.skip / w.requests).collect();
        skips.sort_unstable();
        assert_eq!(skips, (0..SLOTS).collect::<Vec<_>>(), "a full run of windows uses every slot");
        let adhoc = WORKLOADS[1].windows(1);
        assert!(adhoc
            .iter()
            .all(|win| win.skip == 0 && win.stream_seed != WORKLOADS[1].spec().seed));
    }

    #[test]
    fn traced_pass_reproduces_the_engine() {
        // A small workload: waxman-100, 300 requests, heuristic and ILP.
        for solver in [Solver::Heuristic, Solver::Ilp] {
            let w = StreamWorkload {
                name: "waxman-test",
                preset: "waxman-100",
                popular_services: true,
                requests: 300,
                solver,
                windows: 2,
            };
            let mut built = w.build();
            for win in w.windows(7) {
                let requests = w.requests(&mut built, &win);
                let untraced = run_untraced(&w, &built, requests, win.engine_seed, None);
                let mut layers = Layers::default();
                let requests = w.requests(&mut built, &win);
                let (traced, debited) =
                    run_traced(&w, &built, requests, win.engine_seed, &mut layers);
                let admitted = untraced.tally.admitted;
                assert!(admitted > 0 && admitted < 300, "{solver:?}: {admitted} admitted");
                assert!(
                    traced.same_output(&untraced),
                    "{solver:?}: traced hash or residual differs"
                );
                for (v, &r) in traced.residual.iter().enumerate() {
                    let cap = built.network.capacity(NodeId(v));
                    assert!((cap - r - debited[v]).abs() <= 1e-6, "{solver:?}: ledger at node {v}");
                }
                assert_eq!(layers.admits, admitted);
                assert_eq!(layers.overcommit_clamps, 0);
            }
        }
    }
}
