//! Multi-request processing — the system view the paper's single-request
//! formulation plugs into.
//!
//! The paper's Section 4.1 sketches the admission framework and then augments
//! one admitted request at a time; its evaluation generates 1,000 independent
//! requests. This module implements the natural end-to-end pipeline over a
//! *shared* network: requests arrive in sequence, each is admitted (primaries
//! consume capacity, all-or-nothing, rejection when nothing fits), then its
//! reliability is augmented with any of the paper's algorithms using the
//! network's *current* residual capacity, which the placed secondaries then
//! consume. This is the "extension" regime every related work (Li et al.
//! 2019/2020, Lin et al. 2020) evaluates, and it exposes the interplay the
//! single-request experiments cannot: early requests eat the capacity that
//! late requests would have used for backups.
//!
//! [`process_stream_seeded_sink`] is the engine: it pulls requests from a lazy
//! source in arrival order and hands each [`RequestRecord`] to a sink.
//! [`process_stream_seeded`] runs it over a slice and collects a
//! [`StreamOutcome`].

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use mecnet::graph::NodeId;
use mecnet::neighborhood::NeighborhoodIndex;
use mecnet::network::MecNetwork;
use mecnet::request::SfcRequest;
use mecnet::vnf::VnfCatalog;
use obs::metrics::{self, Counter};
use obs::{MetricsInterval, MetricsSnapshot, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::heuristic::HeuristicConfig;
use crate::ilp::IlpConfig;
use crate::instance::{AugmentationInstance, InstanceScratch};
use crate::randomized::RandomizedConfig;
use crate::scratch::{CommitScratch, SolveScratch};
use crate::solution::{Augmentation, Outcome, SolverInfo};
use crate::{greedy, heuristic, ilp, randomized};

/// Which augmentation algorithm the stream runs per admitted request.
#[derive(Debug, Clone)]
pub enum Algorithm {
    Ilp(IlpConfig),
    Randomized(RandomizedConfig),
    Heuristic(HeuristicConfig),
    Greedy(crate::greedy::GreedyConfig),
}

impl Default for Algorithm {
    fn default() -> Self {
        Algorithm::Heuristic(HeuristicConfig::default())
    }
}

impl Algorithm {
    /// Display name of the configured algorithm.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Ilp(_) => "ILP",
            Algorithm::Randomized(_) => "Randomized",
            Algorithm::Heuristic(_) => "Heuristic",
            Algorithm::Greedy(_) => "Greedy",
        }
    }

    /// Run the configured algorithm on one instance on caller-owned scratch
    /// buffers, leaving the solution in `scratch.sol`, and return its solver
    /// effort. `rng` only feeds the randomized algorithm; the others ignore
    /// it. The heuristic and the greedy baseline allocate nothing with a warm
    /// scratch. The ILP reuses the scratch's LP workspace (factorization and
    /// eta-file buffers) across requests; its branch-and-bound *state* is
    /// still per-solve. Solver errors (ILP/LP infeasibility, which
    /// well-formed instances never produce) panic, as the callers have no
    /// meaningful recovery.
    pub fn solve_in<R: Rng + ?Sized>(
        &self,
        inst: &AugmentationInstance,
        rng: &mut R,
        rec: &mut Recorder,
        scratch: &mut SolveScratch,
    ) -> SolverInfo {
        let info = match self {
            Algorithm::Ilp(c) => ilp::solve_in(inst, c, rec, scratch).expect("ILP solve"),
            Algorithm::Randomized(c) => {
                randomized::solve_in(inst, c, rng, rec, scratch).expect("LP solve")
            }
            Algorithm::Heuristic(c) => heuristic::solve_in(inst, c, rec, scratch),
            Algorithm::Greedy(c) => greedy::solve_in(inst, c, rec, scratch),
        };
        debug_assert!(
            scratch.sol.respects_locality(inst)
                && (matches!(self, Algorithm::Randomized(_))
                    || scratch.sol.is_capacity_feasible(inst))
        );
        info
    }

    /// [`Algorithm::solve_in`] with the solution returned as an owned
    /// [`Outcome`], whose telemetry is `rec`'s summary after the solve.
    pub fn solve_scratch<R: Rng + ?Sized>(
        &self,
        inst: &AugmentationInstance,
        rng: &mut R,
        rec: &mut Recorder,
        scratch: &mut SolveScratch,
    ) -> Outcome {
        let started = Instant::now();
        let info = self.solve_in(inst, rng, rec, scratch);
        Outcome::from_solution(inst, &scratch.sol, info, started.elapsed(), rec.summary())
    }
}

/// Stream-processing knobs.
#[derive(Debug, Clone)]
pub struct StreamConfig {
    /// Locality radius for secondaries.
    pub l: u32,
    pub algorithm: Algorithm,
    /// Fraction of total capacity initially available (1.0 = empty network).
    pub initial_capacity_fraction: f64,
    /// Share backup instances across requests (Qu et al. 2018-style
    /// extension): an idle instance of type `f` already deployed within
    /// `N_l^+` of a later request's primary also protects that request, so
    /// its marginal backups start further down the diminishing-returns
    /// ladder. `false` reproduces the paper's no-sharing model.
    pub share_backups: bool,
    /// Telemetry granularity: per-request events (the byte-identity-checked
    /// default) or bounded windowed summaries.
    pub metrics: MetricsMode,
}

impl Default for StreamConfig {
    fn default() -> Self {
        StreamConfig {
            l: 1,
            algorithm: Algorithm::default(),
            initial_capacity_fraction: 1.0,
            share_backups: false,
            metrics: MetricsMode::Full,
        }
    }
}

/// Telemetry granularity for the streaming pipeline.
#[derive(Debug, Clone, Default, PartialEq)]
pub enum MetricsMode {
    /// One `stream.request` event per request plus traced solver events —
    /// unbounded output, byte-identical across runs of the same seed.
    #[default]
    Full,
    /// No per-request events: one `stream.window` summary per interval (plus
    /// the final partial window), so a 10^6-request run emits O(windows)
    /// JSONL. Solver *counters* still accumulate (B&B nodes per window);
    /// solver events are dropped.
    Windowed(MetricsInterval),
}

/// Per-request record of what happened.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestRecord {
    pub id: usize,
    pub admitted: bool,
    /// Reliability of the bare primaries (admitted requests only).
    pub base_reliability: f64,
    /// Reliability after augmentation.
    pub achieved_reliability: f64,
    pub met_expectation: bool,
    pub secondaries: usize,
}

impl RequestRecord {
    fn rejected(id: usize) -> RequestRecord {
        RequestRecord {
            id,
            admitted: false,
            base_reliability: 0.0,
            achieved_reliability: 0.0,
            met_expectation: false,
            secondaries: 0,
        }
    }
}

/// Aggregate outcome of a processed stream.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamOutcome {
    pub records: Vec<RequestRecord>,
    /// Residual capacity per node after the whole stream.
    pub final_residual: Vec<f64>,
}

impl StreamOutcome {
    pub fn admitted(&self) -> usize {
        self.records.iter().filter(|r| r.admitted).count()
    }

    pub fn rejected(&self) -> usize {
        self.records.len() - self.admitted()
    }

    /// Mean achieved reliability over admitted requests (`None` if none).
    pub fn mean_reliability(&self) -> Option<f64> {
        let adm: Vec<f64> =
            self.records.iter().filter(|r| r.admitted).map(|r| r.achieved_reliability).collect();
        (!adm.is_empty()).then(|| adm.iter().sum::<f64>() / adm.len() as f64)
    }

    /// Fraction of admitted requests that reached their expectation.
    pub fn expectation_rate(&self) -> Option<f64> {
        let adm: Vec<bool> =
            self.records.iter().filter(|r| r.admitted).map(|r| r.met_expectation).collect();
        (!adm.is_empty()).then(|| adm.iter().filter(|&&m| m).count() as f64 / adm.len() as f64)
    }
}

// ---------------------------------------------------------------------------
// Per-request RNG derivation.
//
// The engine derives an independent admission RNG and solve RNG for each
// request position `k` from a base seed, so a request's computation is a
// pure function of (network state it sees, seed, k) — never of how much
// randomness the requests before it consumed.
// ---------------------------------------------------------------------------

/// Domain-separation salts for the per-request derived RNG streams.
const ADMIT_SALT: u64 = 0x0041_444d_4954; // "ADMIT"
const SOLVE_SALT: u64 = 0x0053_4f4c_5645; // "SOLVE"

/// splitmix64 finalizer — mixes the (seed, k, salt) triple into a seed with
/// good avalanche so neighboring request positions get unrelated streams.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The RNG for request position `k`'s admission (`ADMIT_SALT`) or solve
/// (`SOLVE_SALT`) step. Independent per (seed, k, salt).
fn request_rng(seed: u64, k: usize, salt: u64) -> StdRng {
    StdRng::seed_from_u64(splitmix64(splitmix64(seed ^ salt).wrapping_add(k as u64)))
}

/// The `stream.window` fields that carry the engine's counters, in event
/// order. Every other counter of the namespace that moved in a window is
/// listed in the window's `solver` object.
const WINDOW_FIELDS: [(&str, Counter); 6] = [
    ("requests", metrics::REQUESTS),
    ("admitted", metrics::ADMITTED),
    ("rejected", metrics::REJECTED),
    ("rejected_gated", metrics::GATED),
    ("inline_resolves", metrics::SOLVES),
    ("overcommit_clamped", metrics::OVERCOMMIT_CLAMPED),
];

/// Windowed-aggregation cursor: the stream's own recorder and the registry
/// at window start, to diff snapshots against.
struct WindowTracker {
    interval: MetricsInterval,
    index: u64,
    window_started: Instant,
    /// The stream's event-less recorder: the engine and the solvers count
    /// here for the whole run, so solver events are dropped and the trace
    /// stays bounded. It is absorbed into the caller's recorder at the end.
    rec: Recorder,
    /// `requests` at window start, so the per-request boundary check is
    /// one indexed load and a compare.
    base_requests: u64,
    /// The registry at window start.
    base: MetricsSnapshot,
}

/// What the stream loop observes around [`Admission::admit`]: the
/// `stream.request` events (full mode) or the windows. The counts and
/// latencies themselves are in the registry of the recorder the stream
/// counts into ([`StreamObs::counting`]).
struct StreamObs {
    /// The counting recorder's registry when the stream started.
    start: MetricsSnapshot,
    /// `None` in full mode (`MetricsMode::Full`): per-request events.
    window: Option<WindowTracker>,
}

impl StreamObs {
    fn new(cfg: &StreamConfig, rec: &Recorder) -> StreamObs {
        match cfg.metrics {
            MetricsMode::Full => StreamObs { start: rec.snapshot(), window: None },
            MetricsMode::Windowed(interval) => {
                let own = Recorder::noop();
                let start = own.snapshot();
                let window = WindowTracker {
                    interval,
                    index: 0,
                    window_started: Instant::now(),
                    rec: own,
                    base_requests: 0,
                    base: start.clone(),
                };
                StreamObs { start, window: Some(window) }
            }
        }
    }

    /// The recorder the engine and the solvers count into: the caller's in
    /// full mode (solver events are traced into it), the stream's own
    /// event-less one in windowed mode.
    fn counting<'a>(&'a mut self, rec: &'a mut Recorder) -> &'a mut Recorder {
        match &mut self.window {
            Some(w) => &mut w.rec,
            None => rec,
        }
    }

    /// Observe one finished request: its `stream.request` event in full mode
    /// (only built when the sink keeps events), the window boundary check in
    /// windowed mode.
    fn finish_request(&mut self, rec: &mut Recorder, admission: &Admission<'_>, r: &RequestRecord) {
        let Some(w) = &self.window else {
            rec.emit_with(|| {
                let e = stream_request_event(r.id, admission.network, admission.residual())
                    .with("admitted", r.admitted);
                if r.admitted {
                    e.with("base_reliability", r.base_reliability)
                        .with("achieved_reliability", r.achieved_reliability)
                        .with("met_expectation", r.met_expectation)
                        .with("secondaries", r.secondaries)
                } else {
                    e.with("reason", "no_primary_placement")
                }
            });
            return;
        };
        let due = match w.interval {
            MetricsInterval::Requests(n) => w.rec.get(metrics::REQUESTS) - w.base_requests >= n,
            // Wall-clock windows: cadence is nondeterministic by nature, but
            // window *contents* are still exact counter deltas.
            MetricsInterval::Seconds(s) => w.window_started.elapsed().as_secs_f64() >= s,
        };
        if due {
            self.emit_window(rec, false);
        }
    }

    /// Cut the current window and emit its `stream.window` summary.
    fn emit_window(&mut self, rec: &mut Recorder, final_window: bool) {
        let Some(w) = self.window.as_mut() else { return };
        let snap = w.rec.snapshot();
        let d = snap.diff(&w.base);
        let requests = d.counter("requests");
        if !(requests > 0 || (final_window && w.index == 0)) {
            // Empty window: emit nothing, just roll the clock forward.
            w.window_started = Instant::now();
            return;
        }
        let elapsed_s = w.window_started.elapsed().as_secs_f64();
        let q_us =
            |hist: &str, q: f64| d.hist(hist).and_then(|h| h.quantile(q)).unwrap_or(0) / 1_000;
        let solve = d.hist("solve_ns");
        let index = w.index;
        rec.emit_with(|| {
            let mut e =
                obs::Event::new("stream.window").with("window", index).with("final", final_window);
            for (field, counter) in WINDOW_FIELDS {
                e = e.with(field, d.counter(counter.name()));
            }
            let solver = d
                .counters
                .iter()
                .filter(|&&(name, v)| v > 0 && WINDOW_FIELDS.iter().all(|(_, c)| c.name() != name))
                .map(|&(name, v)| (name.to_string(), serde::Value::U64(v)))
                .collect();
            e.with("elapsed_s", elapsed_s)
                .with(
                    "throughput_rps",
                    if elapsed_s > 0.0 { requests as f64 / elapsed_s } else { 0.0 },
                )
                .with("solve_total_s", solve.map(|h| h.sum() as f64 / 1e9).unwrap_or(0.0))
                .with("solve_p50_us", q_us("solve_ns", 0.50))
                .with("solve_p90_us", q_us("solve_ns", 0.90))
                .with("solve_p99_us", q_us("solve_ns", 0.99))
                .with("debit_p99_us", q_us("debit_ns", 0.99))
                .with("solver", serde::Value::Obj(solver))
        });
        w.base_requests = w.rec.get(metrics::REQUESTS);
        w.base = snap;
        w.window_started = Instant::now();
        w.index += 1;
    }

    /// End of stream: emit the final partial window, diff the counting
    /// registry for the caller and, in windowed mode, absorb the stream's
    /// own recorder into the caller's.
    fn finish(mut self, rec: &mut Recorder) -> StreamObservation {
        self.emit_window(rec, true);
        let pipeline = self.counting(rec).snapshot().diff(&self.start);
        let windows = self.window.as_ref().map_or(0, |w| w.index);
        if let Some(w) = self.window {
            rec.absorb(w.rec);
        }
        StreamObservation { pipeline, windows }
    }
}

/// Metrics of a processed stream: what it added to the registry it counted
/// into, that is the engine's counts and solve and debit latency histograms
/// and the solvers' counters and timings ([`obs::metrics`]).
#[derive(Debug, Clone)]
pub struct StreamObservation {
    pub pipeline: MetricsSnapshot,
    /// `stream.window` events emitted (0 in full mode).
    pub windows: u64,
}

/// Entries per chunk of [`CloudletResiduals::place`]'s chunked pick.
const CHUNK: usize = 64;

/// The residuals of the network's cloudlets in cloudlet order
/// ([`MecNetwork::cloudlet_ids`]): a copy of the engine's residual vector
/// that the engine writes at every residual write it makes (primary debit,
/// rollback, secondary debits, clamp), so that primary placement and the
/// reject gate scan contiguous memory instead of gathering through the
/// cloudlet list. The engine checks the copy against the gathered residuals,
/// bit for bit, after every request in debug builds.
#[derive(Debug, Clone)]
pub struct CloudletResiduals {
    /// `values[p]` is the residual of cloudlet `cloudlet_ids[p]`.
    values: Vec<f64>,
    /// Node index -> cloudlet position, `u32::MAX` for a plain access point.
    position: Vec<u32>,
    /// Per [`CHUNK`]-entry chunk of `values`: the cloudlets that fit the
    /// function being placed.
    chunk_fits: Vec<u32>,
    /// `(position, residual before)` per placed primary, for the rollback.
    saved: Vec<(usize, f64)>,
}

impl CloudletResiduals {
    /// The copy of `residual` (one entry per network node).
    pub fn new(network: &MecNetwork, residual: &[f64]) -> CloudletResiduals {
        assert_eq!(residual.len(), network.num_nodes(), "residual must cover all nodes");
        let cloudlets = network.cloudlet_ids();
        let mut position = vec![u32::MAX; network.num_nodes()];
        for (p, &c) in cloudlets.iter().enumerate() {
            position[c.index()] = p as u32;
        }
        CloudletResiduals {
            values: cloudlets.iter().map(|c| residual[c.index()]).collect(),
            position,
            chunk_fits: Vec::new(),
            saved: Vec::new(),
        }
    }

    /// The copied residuals, in cloudlet order.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Copy node `v`'s residual after a write to it and return its
    /// position; a plain access point has no entry.
    pub fn sync(&mut self, residual: &[f64], v: NodeId) -> Option<usize> {
        let p = self.position[v.index()];
        (p != u32::MAX).then(|| {
            self.values[p as usize] = residual[v.index()];
            p as usize
        })
    }

    /// Whether the copy equals `residual` gathered in cloudlet order, bit
    /// for bit.
    pub fn mirrors(&self, network: &MecNetwork, residual: &[f64]) -> bool {
        let cloudlets = network.cloudlet_ids();
        cloudlets.len() == self.values.len()
            && cloudlets
                .iter()
                .zip(&self.values)
                .all(|(c, x)| residual[c.index()].to_bits() == x.to_bits())
    }

    /// Capacity-aware random placement of a chain with per-function
    /// `demands`: the same draws, the same choices and the same residual
    /// writes as [`mecnet::admission::random_placement_capacity_aware`]
    /// given the same RNG state, with `residual` and the copy written
    /// together. On success `locations` holds the primaries; on a reject
    /// both are restored bit for bit and `false` comes back.
    ///
    /// Per function the fitting count is one branch-free pass over the
    /// copy that also counts per chunk, and the drawn cloudlet is found by
    /// skipping whole chunks and scanning one.
    pub fn place<R: Rng + ?Sized>(
        &mut self,
        network: &MecNetwork,
        demands: &[f64],
        residual: &mut [f64],
        rng: &mut R,
        locations: &mut Vec<NodeId>,
    ) -> bool {
        let cloudlets = network.cloudlet_ids();
        locations.clear();
        self.saved.clear();
        for &demand in demands {
            self.chunk_fits.clear();
            let mut feasible = 0usize;
            for chunk in self.values.chunks(CHUNK) {
                let fits = chunk.iter().map(|&x| u32::from(x >= demand)).sum::<u32>();
                self.chunk_fits.push(fits);
                feasible += fits as usize;
            }
            // An empty feasible set still consumes one `gen_range(0..1)`
            // draw, as the reference does.
            let mut draw = rng.gen_range(0..feasible.max(1));
            if feasible == 0 {
                // Newest debit first, so a cloudlet that took two primaries
                // ends at its oldest saved value.
                for (&(p, before), &v) in self.saved.iter().zip(locations.iter()).rev() {
                    residual[v.index()] = before;
                    self.values[p] = before;
                }
                return false;
            }
            let mut chunk = 0;
            while draw >= self.chunk_fits[chunk] as usize {
                draw -= self.chunk_fits[chunk] as usize;
                chunk += 1;
            }
            let first = chunk * CHUNK;
            let p = first
                + self.values[first..]
                    .iter()
                    .take(CHUNK)
                    .enumerate()
                    .filter(|&(_, &x)| x >= demand)
                    .nth(draw)
                    .map(|(off, _)| off)
                    .expect("the chunk holds the drawn cloudlet");
            let v = cloudlets[p];
            self.saved.push((p, residual[v.index()]));
            residual[v.index()] -= demand;
            self.values[p] = residual[v.index()];
            locations.push(v);
        }
        true
    }
}

/// The largest cloudlet residual and the position of a cloudlet that holds
/// it: the state of the reject gate in [`Admission::admit`]. Debits only
/// lower residuals and every credit raises the maximum to cover the credited
/// cloudlet ([`MaxResidual::raise`]), so the maximum stays exact for as long
/// as its holder's residual is unchanged; only a debit to the holder forces
/// a rescan of the cloudlet-ordered copy.
struct MaxResidual {
    /// `-inf` on a network without cloudlets.
    value: f64,
    holder: Option<usize>,
}

impl MaxResidual {
    fn scan(values: &[f64]) -> MaxResidual {
        let mut max = MaxResidual { value: f64::NEG_INFINITY, holder: None };
        for (p, &x) in values.iter().enumerate() {
            if x > max.value {
                max = MaxResidual { value: x, holder: Some(p) };
            }
        }
        max
    }

    /// Re-establish the maximum after a debit: O(1) unless the holder was
    /// debited.
    fn refresh(&mut self, values: &[f64]) {
        if self.holder.is_some_and(|p| values[p] != self.value) {
            *self = MaxResidual::scan(values);
        }
    }

    /// Cloudlet `p`'s residual rose to `x`: `value = max(value, x)`.
    fn raise(&mut self, p: usize, x: f64) {
        if x > self.value {
            *self = MaxResidual { value: x, holder: Some(p) };
        }
    }
}

/// The stream engine's per-request state and step: the network residual,
/// its cloudlet-ordered copy and its maximum (the reject gate), (when
/// sharing is on) the deployed-instance ledger, and the reused instance,
/// solver scratch and buffers of the steps around the solve. Each step
/// counts into the recorder it is handed ([`obs::metrics`]).
///
/// [`Admission::admit`] is one request of the paper's Section 4.1 framework:
/// admit the primaries, augment the chain against the current residual, debit
/// the secondaries. [`Admission::augment`] re-runs the augmentation step for
/// an admitted chain, and [`Admission::credit`] returns released capacity, so
/// a caller with departures and failures (the simulator) runs on the same
/// step as [`process_stream_seeded_sink`].
pub struct Admission<'n> {
    network: &'n MecNetwork,
    catalog: &'n VnfCatalog,
    algorithm: Algorithm,
    nbhd: Arc<NeighborhoodIndex>,
    residual: Vec<f64>,
    cloudlets: CloudletResiduals,
    max_residual: MaxResidual,
    /// `Some` iff `share_backups`; `(VNF type, node) -> instances`.
    deployed: Option<HashMap<(usize, usize), usize>>,
    /// The last solved request's instance, rebuilt in place.
    inst: AugmentationInstance,
    build: InstanceScratch,
    buf: CommitScratch,
    scratch: SolveScratch,
    /// Whether the last debit pass overcommitted and was clamped.
    clamped: bool,
}

/// What the last admitted or re-augmented request placed, read from the
/// engine's buffers (stale after a reject).
#[derive(Debug, Clone, Copy)]
pub struct Placed<'a> {
    /// `primaries[i]` hosts the primary of chain position `i`.
    pub primaries: &'a [NodeId],
    pub instance: &'a AugmentationInstance,
    /// The solution: per function, `(bin, count)` rows.
    pub solution: &'a Augmentation,
    /// One `(node, MHz)` entry per node the secondaries debited: its load,
    /// or after a clamped debit what the node actually paid.
    pub debits: &'a [(NodeId, f64)],
    /// Whether the debit overcommitted (only the randomized rounding can)
    /// and fell back to clamping each node at zero.
    pub clamped: bool,
}

impl<'n> Admission<'n> {
    pub fn new(network: &'n MecNetwork, catalog: &'n VnfCatalog, cfg: &StreamConfig) -> Self {
        assert!(
            (0.0..=1.0).contains(&cfg.initial_capacity_fraction),
            "capacity fraction must be in [0, 1]"
        );
        let residual = network.residual_capacities(cfg.initial_capacity_fraction);
        let cloudlets = CloudletResiduals::new(network, &residual);
        Admission {
            network,
            catalog,
            algorithm: cfg.algorithm.clone(),
            nbhd: network.neighborhood_index(cfg.l),
            max_residual: MaxResidual::scan(cloudlets.values()),
            cloudlets,
            residual,
            deployed: cfg.share_backups.then(HashMap::new),
            inst: AugmentationInstance::default(),
            build: InstanceScratch::default(),
            buf: CommitScratch::default(),
            scratch: SolveScratch::new(),
            clamped: false,
        }
    }

    /// Residual capacity per network node.
    pub fn residual(&self) -> &[f64] {
        &self.residual
    }

    /// The last admitted or re-augmented request's placement.
    pub fn placed(&self) -> Placed<'_> {
        Placed {
            primaries: &self.buf.locations,
            instance: &self.inst,
            solution: &self.scratch.sol,
            debits: &self.buf.debits,
            clamped: self.clamped,
        }
    }

    /// Process request `k` of the stream seeded `seed`.
    ///
    /// A request whose largest per-function demand exceeds the largest
    /// cloudlet residual is rejected by the capacity gate: no cloudlet can
    /// host that function, so admission would reject it too, and an
    /// admission reject leaves the residuals bit-for-bit unchanged. The gate
    /// derives no RNG and scans no cloudlet. Every other request is admitted
    /// with its derived admission RNG (the primaries' debits land in the
    /// residual), its localized instance is rebuilt in place and solved with
    /// its derived solve RNG into `scratch.sol`, and the secondaries are
    /// debited in one all-or-nothing pass. Only the randomized algorithm can
    /// overcommit, in which case each node is clamped at zero instead. The
    /// record, the loads, the debits and the sharing ledger's rows are read
    /// from `scratch.sol`. The step's counts and latencies and the solver's
    /// events and counters go to `rec`.
    pub fn admit(
        &mut self,
        seed: u64,
        k: usize,
        req: &SfcRequest,
        rec: &mut Recorder,
    ) -> RequestRecord {
        rec.count(metrics::REQUESTS, 1);
        let CommitScratch { demands, locations, .. } = &mut self.buf;
        demands.clear();
        demands.extend(req.sfc.iter().map(|&f| self.catalog.demand(f)));
        if demands.iter().copied().fold(f64::NEG_INFINITY, f64::max) > self.max_residual.value {
            rec.count(metrics::GATED, 1);
            rec.count(metrics::REJECTED, 1);
            return RequestRecord::rejected(req.id);
        }
        let mut admit_rng = request_rng(seed, k, ADMIT_SALT);
        if !self.cloudlets.place(
            self.network,
            demands,
            &mut self.residual,
            &mut admit_rng,
            locations,
        ) {
            rec.count(metrics::REJECTED, 1);
            self.check_gate();
            return RequestRecord::rejected(req.id);
        }
        // Localized to the primaries' `l`-neighborhoods (so equality is
        // insensitive to unrelated commits elsewhere in the network) and, when
        // sharing, seeded with the existing deployed instances in range.
        self.rebuild(req);
        if let Some(deployed) = &self.deployed {
            for (f, vnf) in self.inst.functions.iter_mut().zip(&req.sfc) {
                // Deployed instances only live on cloudlets, so the index's
                // cloudlet slice sees everything the full BFS ball would.
                f.existing_backups = self
                    .nbhd
                    .cloudlets_within(f.primary)
                    .iter()
                    .filter_map(|u| deployed.get(&(vnf.index(), u.index())))
                    .sum();
            }
        }
        let record = self.solve_and_debit(req.id, &mut request_rng(seed, k, SOLVE_SALT), rec);
        if let Some(deployed) = self.deployed.as_mut() {
            apply_deployed_updates(
                deployed,
                req,
                &self.buf.locations,
                &self.inst,
                &self.scratch.sol,
            );
        }
        rec.count(metrics::ADMITTED, 1);
        record
    }

    /// Re-augment admitted request `req` at its primaries `locations`
    /// against the current residual, with `existing[i]` live backups of
    /// function `i` counted as existing ones, so the solver only pays for
    /// the redundancy that was lost. The new secondaries are debited as in
    /// [`Admission::admit`]; the record's `secondaries` counts only them.
    pub fn augment<R: Rng + ?Sized>(
        &mut self,
        req: &SfcRequest,
        locations: &[NodeId],
        existing: &[usize],
        rng: &mut R,
        rec: &mut Recorder,
    ) -> RequestRecord {
        assert!(self.deployed.is_none(), "augment does not track shared backups");
        assert_eq!(existing.len(), req.len(), "one existing count per function");
        self.buf.locations.clear();
        self.buf.locations.extend_from_slice(locations);
        self.rebuild(req);
        for (f, &n) in self.inst.functions.iter_mut().zip(existing) {
            f.existing_backups = n;
        }
        self.solve_and_debit(req.id, rng, rec)
    }

    /// Return `mhz` of capacity that node `v` released (a departure or a
    /// lost instance). The gate's maximum rises to cover it.
    pub fn credit(&mut self, v: NodeId, mhz: f64) {
        assert!(self.deployed.is_none(), "credit does not track shared backups");
        self.network.release_capacity(&mut self.residual, v, mhz);
        if let Some(p) = self.cloudlets.sync(&self.residual, v) {
            self.max_residual.raise(p, self.residual[v.index()]);
        }
        self.check_gate();
    }

    /// Rebuild the instance in place for `req` at the primaries in
    /// `buf.locations`.
    fn rebuild(&mut self, req: &SfcRequest) {
        self.inst.rebuild_localized(
            self.network,
            self.catalog,
            req,
            &self.buf.locations,
            &self.residual,
            &self.nbhd,
            &mut self.build,
        );
    }

    /// Solve the rebuilt instance, debit the secondaries' per-node loads and
    /// return the record.
    fn solve_and_debit<R: Rng + ?Sized>(
        &mut self,
        id: usize,
        rng: &mut R,
        rec: &mut Recorder,
    ) -> RequestRecord {
        rec.count(metrics::SOLVES, 1);
        let solve_started = Instant::now();
        self.algorithm.solve_in(&self.inst, rng, rec, &mut self.scratch);
        rec.record(metrics::SOLVE_NS, solve_started.elapsed());
        let (inst, sol) = (&self.inst, &self.scratch.sol);
        let CommitScratch { loads, debits, .. } = &mut self.buf;
        sol.bin_loads_into(inst, loads);
        debits.clear();
        debits.extend(
            loads
                .iter()
                .enumerate()
                .filter(|&(_, &load)| load > 0.0)
                .map(|(bin_idx, &load)| (inst.bins[bin_idx].node, load)),
        );
        let debit_started = Instant::now();
        self.clamped = debit_loads(&mut self.residual, &mut self.cloudlets, debits);
        rec.record(metrics::DEBIT_NS, debit_started.elapsed());
        if self.clamped {
            rec.count(metrics::OVERCOMMIT_CLAMPED, 1);
        }
        self.max_residual.refresh(self.cloudlets.values());
        self.check_gate();
        let reliability = sol.reliability(inst);
        RequestRecord {
            id,
            admitted: true,
            base_reliability: inst.base_reliability(),
            achieved_reliability: reliability,
            met_expectation: reliability >= inst.expectation,
            secondaries: sol.total_secondaries(),
        }
    }

    /// Debug builds: the cloudlet-ordered copy mirrors the residual bit for
    /// bit, and the tracked maximum equals a full rescan.
    fn check_gate(&self) {
        debug_assert!(
            self.cloudlets.mirrors(self.network, &self.residual),
            "cloudlet-ordered residual copy drifted"
        );
        debug_assert_eq!(
            self.max_residual.value,
            MaxResidual::scan(self.cloudlets.values()).value,
            "tracked maximum cloudlet residual drifted"
        );
    }
}

/// Debit one `(node, load)` entry per node from `residual` (and its
/// cloudlet-ordered copy), all or nothing: if every node has its load within
/// a 1e-9 slack, each pays its load. Otherwise (only the randomized rounding
/// overcommits) each node is set to `max(r − load, 0)` and its entry is
/// rewritten to what it actually paid. Either way the residual lands at
/// `max(r − load, 0)`. Returns whether the clamp fired.
fn debit_loads(
    residual: &mut [f64],
    cloudlets: &mut CloudletResiduals,
    debits: &mut [(NodeId, f64)],
) -> bool {
    let clamped = debits.iter().any(|&(v, load)| residual[v.index()] + 1e-9 < load);
    for (v, load) in debits.iter_mut() {
        let before = residual[v.index()];
        residual[v.index()] = (before - *load).max(0.0);
        if clamped {
            *load = before - residual[v.index()];
        }
        cloudlets.sync(residual, *v);
    }
    clamped
}

/// Fold an admitted request's primaries and secondaries into the deployed
/// ledger (sharing mode only).
fn apply_deployed_updates(
    deployed: &mut HashMap<(usize, usize), usize>,
    req: &SfcRequest,
    locations: &[NodeId],
    inst: &AugmentationInstance,
    sol: &Augmentation,
) {
    for (f, &loc) in req.sfc.iter().zip(locations) {
        *deployed.entry((f.index(), loc.index())).or_insert(0) += 1;
    }
    for func in 0..inst.chain_len() {
        let type_idx = req.sfc[func].index();
        for &(bin_idx, count) in sol.placements_of(func) {
            *deployed.entry((type_idx, inst.bins[bin_idx].node.index())).or_insert(0) += count;
        }
    }
}

/// [`process_stream_seeded_sink`] over a request slice, collecting every
/// record into a [`StreamOutcome`].
pub fn process_stream_seeded(
    network: &MecNetwork,
    catalog: &VnfCatalog,
    requests: &[SfcRequest],
    cfg: &StreamConfig,
    seed: u64,
    rec: &mut Recorder,
) -> (StreamOutcome, StreamObservation) {
    let mut records = Vec::with_capacity(requests.len());
    let (final_residual, observation) = process_stream_seeded_sink(
        network,
        catalog,
        requests.iter().cloned(),
        cfg,
        seed,
        rec,
        &mut |r| records.push(r),
    );
    (StreamOutcome { records, final_residual }, observation)
}

/// Process a request stream against a shared network — the stream engine.
///
/// Requests are pulled from the iterator one at a time, in arrival order, and
/// each [`RequestRecord`] is handed to `on_record` instead of being
/// collected, so a 10^6-request stream runs in O(1) memory beyond the network
/// state (the scenario generator's `RequestStream` synthesizes request `k` on
/// demand from a splitmix64-derived RNG, so nothing is ever materialized).
/// Request `k` goes through [`Admission::admit`]: capacity-aware random
/// primary placement (all-or-nothing), augmentation with the configured
/// algorithm against the current residual capacities, and the debit of its
/// secondaries before the next request is considered. Returns the final
/// residuals and the run's metrics. The engine and the solvers count into
/// `rec` in full mode; in windowed mode they count into the stream's own
/// event-less recorder, which `rec` absorbs at the end.
///
/// # Determinism
///
/// The records and the final residuals are a pure function of `(network,
/// catalog, requests, cfg, seed)`: request `k` draws its admission and solve
/// randomness from RNGs derived from `(seed, k)` alone, every [`Algorithm`]
/// is a pure function of (instance, config, seed) — no solver reads the
/// clock; the ILP's search is bounded by its node budget alone — and
/// telemetry never feeds back into a decision. Running the same stream under
/// `Recorder::noop()`, a memory or JSONL recorder or windowed metrics gives
/// equal records and bit-equal residuals. In
/// `MetricsMode::Full` the event stream is byte-identical across runs too:
/// per-request events carry no wall-clock field (solve time goes only to the
/// `solve_ns` histogram). The capacity gate changes no record and no
/// residual: it only skips admissions that would have been rejected.
/// `tests/engine_stream_identity.rs` checks this guarantee and pins the
/// record hashes of a zoo stream; `tests/reject_gate.rs` checks the engine
/// against an ungated loop.
pub fn process_stream_seeded_sink(
    network: &MecNetwork,
    catalog: &VnfCatalog,
    requests: impl IntoIterator<Item = SfcRequest>,
    cfg: &StreamConfig,
    seed: u64,
    rec: &mut Recorder,
    on_record: &mut dyn FnMut(RequestRecord),
) -> (Vec<f64>, StreamObservation) {
    let mut admission = Admission::new(network, catalog, cfg);
    let mut obs = StreamObs::new(cfg, rec);
    for (k, req) in requests.into_iter().enumerate() {
        let record = admission.admit(seed, k, &req, obs.counting(rec));
        obs.finish_request(rec, &admission, &record);
        on_record(record);
    }
    let observation = obs.finish(rec);
    (admission.residual, observation)
}

/// Common prefix of a `stream.request` event: the request id plus the total,
/// minimum and maximum of the cloudlets' residual capacity *after* this
/// request was processed. (A plain access point's residual is always 0.0.)
fn stream_request_event(id: usize, network: &MecNetwork, residual: &[f64]) -> obs::Event {
    let cloudlets = network.cloudlet_ids().iter().map(|c| residual[c.index()]);
    let total: f64 = cloudlets.clone().sum();
    let min = cloudlets.clone().fold(f64::INFINITY, f64::min);
    let max = cloudlets.fold(0.0f64, f64::max);
    obs::Event::new("stream.request")
        .with("id", id)
        .with("residual_total", total)
        .with("residual_min", if min.is_finite() { min } else { 0.0 })
        .with("residual_max", max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mecnet::topology;
    use mecnet::vnf::VnfType;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (MecNetwork, VnfCatalog) {
        let g = topology::grid(4, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let net = MecNetwork::with_random_cloudlets(g, 4, (2000.0, 3000.0), &mut rng);
        let mut cat = VnfCatalog::new();
        cat.add(VnfType { name: "a".into(), demand_mhz: 300.0, reliability: 0.85 });
        cat.add(VnfType { name: "b".into(), demand_mhz: 400.0, reliability: 0.9 });
        (net, cat)
    }

    fn make_requests(n: usize, cat: &VnfCatalog, nodes: usize, seed: u64) -> Vec<SfcRequest> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|i| SfcRequest::random(i, cat, (2, 2), 0.99, nodes, &mut rng)).collect()
    }

    /// Untraced run of the engine over a request slice.
    fn run(
        net: &MecNetwork,
        cat: &VnfCatalog,
        reqs: &[SfcRequest],
        cfg: &StreamConfig,
        seed: u64,
    ) -> StreamOutcome {
        process_stream_seeded(net, cat, reqs, cfg, seed, &mut Recorder::noop()).0
    }

    #[test]
    fn stream_admits_until_capacity_runs_out() {
        let (net, cat) = setup();
        let reqs = make_requests(40, &cat, net.num_nodes(), 7);
        let out = run(&net, &cat, &reqs, &StreamConfig::default(), 2);
        assert_eq!(out.records.len(), 40);
        assert!(out.admitted() > 0, "some requests must fit");
        assert!(out.rejected() > 0, "40 chains cannot all fit in ~10 GHz");
        // Capacity only decreases and never goes negative.
        for (&r, v) in out.final_residual.iter().zip(net.graph().nodes()) {
            assert!(r >= -1e-9);
            assert!(r <= net.capacity(v) + 1e-9);
        }
    }

    #[test]
    fn early_requests_get_better_reliability() {
        let (net, cat) = setup();
        let reqs = make_requests(30, &cat, net.num_nodes(), 8);
        let out = run(&net, &cat, &reqs, &StreamConfig::default(), 3);
        let admitted: Vec<&RequestRecord> = out.records.iter().filter(|r| r.admitted).collect();
        assert!(admitted.len() >= 4);
        let half = admitted.len() / 2;
        let early: f64 =
            admitted[..half].iter().map(|r| r.achieved_reliability).sum::<f64>() / half as f64;
        let late: f64 = admitted[half..].iter().map(|r| r.achieved_reliability).sum::<f64>()
            / (admitted.len() - half) as f64;
        assert!(
            early >= late - 0.05,
            "late arrivals should not do better: early {early} late {late}"
        );
    }

    #[test]
    fn rejected_when_no_capacity_at_all() {
        let (net, cat) = setup();
        let reqs = make_requests(3, &cat, net.num_nodes(), 9);
        let cfg = StreamConfig { initial_capacity_fraction: 0.0, ..Default::default() };
        let out = run(&net, &cat, &reqs, &cfg, 4);
        assert_eq!(out.admitted(), 0);
        assert_eq!(out.mean_reliability(), None);
        assert_eq!(out.expectation_rate(), None);
    }

    #[test]
    fn all_algorithms_run_in_stream_mode() {
        let (net, cat) = setup();
        let reqs = make_requests(6, &cat, net.num_nodes(), 10);
        for algorithm in [
            Algorithm::Ilp(Default::default()),
            Algorithm::Randomized(Default::default()),
            Algorithm::Heuristic(Default::default()),
            Algorithm::Greedy(Default::default()),
        ] {
            let cfg = StreamConfig { algorithm, ..Default::default() };
            let out = run(&net, &cat, &reqs, &cfg, 5);
            assert_eq!(out.records.len(), 6);
            for r in out.records.iter().filter(|r| r.admitted) {
                assert!(r.achieved_reliability >= r.base_reliability - 1e-12);
            }
        }
    }

    #[test]
    fn sharing_improves_late_arrivals() {
        // Many requests over a small catalog: with sharing, later requests
        // find existing instances of their types and reach the expectation
        // with fewer new secondaries.
        let (net, cat) = setup();
        let reqs = make_requests(25, &cat, net.num_nodes(), 21);
        let share = |share_backups: bool| {
            let cfg = StreamConfig { share_backups, ..Default::default() };
            run(&net, &cat, &reqs, &cfg, 9)
        };
        let plain = share(false);
        let shared = share(true);
        // Sharing never hurts: fewer secondaries in total for at least the
        // same overall reliability mass.
        let total_secondaries =
            |o: &StreamOutcome| -> usize { o.records.iter().map(|r| r.secondaries).sum() };
        assert!(
            total_secondaries(&shared) <= total_secondaries(&plain),
            "sharing should reduce secondary deployments: {} vs {}",
            total_secondaries(&shared),
            total_secondaries(&plain)
        );
        let mean = |o: &StreamOutcome| o.mean_reliability().unwrap_or(0.0);
        assert!(mean(&shared) >= mean(&plain) - 0.02);
    }

    #[test]
    fn sharing_counts_existing_instances() {
        // Two identical one-function requests on the same cloudlet: with
        // sharing the second sees the first's instances as existing backups.
        let (net, cat) = setup();
        let reqs = make_requests(2, &cat, net.num_nodes(), 34);
        let cfg = StreamConfig { share_backups: true, ..Default::default() };
        let out = run(&net, &cat, &reqs, &cfg, 33);
        // No assertion on specifics (placement is random); the invariant is
        // that reliabilities remain valid probabilities and records complete.
        for r in &out.records {
            assert!(r.achieved_reliability >= 0.0 && r.achieved_reliability <= 1.0);
        }
    }

    #[test]
    fn traced_stream_emits_one_event_per_request() {
        let (net, cat) = setup();
        let reqs = make_requests(15, &cat, net.num_nodes(), 12);
        let mut rec = Recorder::memory();
        let (out, ob) =
            process_stream_seeded(&net, &cat, &reqs, &StreamConfig::default(), 13, &mut rec);
        let req_events: Vec<_> =
            rec.events().iter().filter(|e| e.kind == "stream.request").collect();
        assert_eq!(req_events.len(), reqs.len(), "exactly one stream.request event per request");
        let admitted_events =
            req_events.iter().filter(|e| e.field("admitted").unwrap().as_bool() == Some(true));
        assert_eq!(admitted_events.count(), out.admitted());
        assert_eq!(ob.pipeline.counter("admitted"), out.admitted() as u64);
        assert_eq!(ob.pipeline.counter("rejected.no_primary_placement"), out.rejected() as u64);
        for e in &req_events {
            if e.field("admitted").unwrap().as_bool() == Some(false) {
                assert_eq!(e.field("reason").unwrap().as_str(), Some("no_primary_placement"));
            } else {
                assert!(e.field("solve_s").is_none(), "events carry no wall-clock field");
                assert!(e.field("secondaries").unwrap().as_u64().is_some());
            }
            assert!(e.field("residual_total").unwrap().as_f64().unwrap() >= 0.0);
        }
        let last = req_events.last().unwrap().field("residual_min").unwrap().as_f64();
        let cloudlets = net.cloudlet_ids().iter().map(|c| out.final_residual[c.index()]);
        assert_eq!(last, Some(cloudlets.fold(f64::INFINITY, f64::min)));
    }

    #[test]
    fn windowed_mode_emits_bounded_summaries() {
        // 120 chains of one or two functions saturate the ~10 GHz network
        // within the first window, so the windows see admissions and gated
        // rejects, and under the heuristic placement rejects too.
        let (net, cat) = setup();
        let mut rng = StdRng::seed_from_u64(16);
        let reqs: Vec<SfcRequest> = (0..120)
            .map(|i| SfcRequest::random(i, &cat, (1, 2), 0.99, net.num_nodes(), &mut rng))
            .collect();
        for (algorithm, effort, placement_rejects) in [
            (Algorithm::Heuristic(Default::default()), "heuristic.rounds", true),
            (Algorithm::Ilp(Default::default()), "ilp.nodes", false),
        ] {
            let cfg = StreamConfig {
                algorithm,
                metrics: MetricsMode::Windowed(MetricsInterval::Requests(25)),
                ..Default::default()
            };
            let mut rec = Recorder::memory();
            let (out, ob) = process_stream_seeded(&net, &cat, &reqs, &cfg, 17, &mut rec);
            assert!(
                rec.events().iter().all(|e| e.kind == "stream.window"),
                "windowed mode must suppress per-request events"
            );
            let windows = rec.events();
            // 4 full windows of 25 plus the final partial window of 20.
            assert_eq!(windows.len(), 5);
            assert_eq!(ob.windows, 5);
            let sum = |field: &str| -> u64 {
                windows.iter().map(|e| e.field(field).unwrap().as_u64().unwrap()).sum()
            };
            let total = |name: &str| ob.pipeline.counter(name);
            let gated = total("rejected.capacity_gate");
            assert!(0 < gated && gated <= out.rejected() as u64, "{gated} of {}", out.rejected());
            if placement_rejects {
                assert!(gated < out.rejected() as u64, "{gated} of {}", out.rejected());
            }
            assert_eq!(sum("requests"), reqs.len() as u64);
            assert_eq!(sum("admitted"), out.admitted() as u64);
            assert_eq!(sum("rejected"), out.rejected() as u64);
            for (i, e) in windows.iter().enumerate() {
                assert_eq!(e.field("window").unwrap().as_u64(), Some(i as u64));
                assert_eq!(e.field("final").unwrap().as_bool(), Some(i == windows.len() - 1));
            }
            // Every counter of the namespace: its windowed deltas (an engine
            // field or a `solver` entry) sum to its total.
            for &name in obs::metrics::COUNTERS {
                let field = WINDOW_FIELDS.iter().find(|(_, c)| c.name() == name);
                let windowed: u64 = windows
                    .iter()
                    .map(|e| match field {
                        Some((field, _)) => e.field(field).unwrap().as_u64().unwrap(),
                        None => e.field("solver").unwrap().get(name).map_or(0, |v| {
                            v.as_u64().filter(|&v| v > 0).expect("nonzero solver entry")
                        }),
                    })
                    .sum();
                assert_eq!(windowed, total(name), "{name}");
                assert_eq!(rec.counter(name), total(name), "{name} absorbed at the end");
            }
            assert!(total(effort) > 0, "{effort}");
            assert_eq!(total("requests"), reqs.len() as u64);
            assert_eq!(total("admitted"), out.admitted() as u64);
            assert_eq!(total("solves"), out.admitted() as u64);
            let solve_ns = ob.pipeline.hist("solve_ns").expect("solve_ns histogram");
            assert_eq!(solve_ns.count(), out.admitted() as u64);
            let solve_s: f64 =
                windows.iter().map(|e| e.field("solve_total_s").unwrap().as_f64().unwrap()).sum();
            assert!(
                (solve_s - solve_ns.sum() as f64 / 1e9).abs() < 1e-9,
                "window solve time {solve_s}"
            );
        }
    }

    #[test]
    fn window_solver_counters_are_the_streams_own() {
        // Heuristic then Greedy, windowed into one recorder: every window's
        // `solver` object holds its own stream's counters only.
        let (net, cat) = setup();
        let reqs = make_requests(60, &cat, net.num_nodes(), 22);
        let mut rec = Recorder::memory();
        let mut per_stream: Vec<Vec<(String, serde::Value)>> = Vec::new();
        for algorithm in
            [Algorithm::Heuristic(Default::default()), Algorithm::Greedy(Default::default())]
        {
            let metrics = MetricsMode::Windowed(MetricsInterval::Requests(20));
            let first = rec.events().len();
            let cfg = StreamConfig { algorithm, metrics, ..Default::default() };
            process_stream_seeded(&net, &cat, &reqs, &cfg, 23, &mut rec);
            per_stream.push(
                rec.events()[first..]
                    .iter()
                    .flat_map(|e| match e.field("solver") {
                        Some(serde::Value::Obj(fields)) => fields.clone(),
                        _ => panic!("window without a solver object: {e:?}"),
                    })
                    .collect(),
            );
        }
        let sum = |stream: usize, key: &str| -> u64 {
            per_stream[stream]
                .iter()
                .filter(|(k, _)| k == key)
                .map(|(_, v)| v.as_u64().unwrap())
                .sum()
        };
        assert!(rec.counter("heuristic.rounds") > 0 && rec.counter("greedy.steps") > 0);
        assert_eq!(sum(0, "heuristic.rounds"), rec.counter("heuristic.rounds"));
        assert_eq!(sum(1, "greedy.steps"), rec.counter("greedy.steps"));
        assert!(per_stream[1].iter().all(|(k, _)| !k.starts_with("heuristic.")), "{per_stream:?}");
    }

    #[test]
    fn capacity_gate_takes_over_after_saturation() {
        use mecnet::vnf::VnfTypeId;
        // One single-function request repeated far past saturation: once
        // every cloudlet residual is below the 400 MHz demand, the gate
        // decides each request without a placement scan.
        let (net, cat) = setup();
        let reqs: Vec<SfcRequest> = (0..100)
            .map(|i| SfcRequest::new(i, vec![VnfTypeId(1)], 0.99, NodeId(3), NodeId(12)))
            .collect();
        let (out, ob) = process_stream_seeded(
            &net,
            &cat,
            &reqs,
            &StreamConfig::default(),
            41,
            &mut Recorder::noop(),
        );
        let gated = ob.pipeline.counter("rejected.capacity_gate");
        let rejected = ob.pipeline.counter("rejected.no_primary_placement");
        assert!(0 < gated && gated <= rejected, "gated {gated}, rejected {rejected}");
        assert_eq!(rejected, out.rejected() as u64);
        let max = net.cloudlet_ids().iter().map(|c| out.final_residual[c.index()]);
        assert!(max.fold(0.0f64, f64::max) < 400.0);
    }

    #[test]
    fn capacity_gate_admits_a_demand_equal_to_the_largest_residual() {
        use mecnet::vnf::VnfTypeId;
        // One 400 MHz cloudlet and two 400 MHz requests: admission's test is
        // `residual >= demand`, so the first fits exactly and only the second
        // is gated.
        let (_, cat) = setup();
        let net = MecNetwork::new(topology::grid(2, 2), vec![400.0, 0.0, 0.0, 0.0]);
        let reqs: Vec<SfcRequest> = (0..2)
            .map(|i| SfcRequest::new(i, vec![VnfTypeId(1)], 0.5, NodeId(1), NodeId(2)))
            .collect();
        let (out, ob) = process_stream_seeded(
            &net,
            &cat,
            &reqs,
            &StreamConfig::default(),
            5,
            &mut Recorder::noop(),
        );
        let admitted: Vec<bool> = out.records.iter().map(|r| r.admitted).collect();
        assert_eq!(admitted, [true, false]);
        assert_eq!(ob.pipeline.counter("rejected.capacity_gate"), 1);
        assert_eq!(out.final_residual, [0.0, 0.0, 0.0, 0.0]);
    }

    #[test]
    fn deterministic_per_seed() {
        let (net, cat) = setup();
        let reqs = make_requests(10, &cat, net.num_nodes(), 11);
        let a = run(&net, &cat, &reqs, &StreamConfig::default(), 6);
        let b = run(&net, &cat, &reqs, &StreamConfig::default(), 6);
        assert_eq!(a.admitted(), b.admitted());
        assert_eq!(a.final_residual, b.final_residual);
    }
}
