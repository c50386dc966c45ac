//! The discrete-event engine: Poisson arrivals, exponential holding times,
//! per-instance failure/repair clocks and policy-driven re-augmentation, as a
//! failure/repair layer over the stream engine's per-request step
//! ([`Admission`]), which owns the residual capacity.
//!
//! Arrivals go through [`Admission::admit`], the stream engine's step: gate,
//! placement, localized instance, solve and one-pass debit. Repairs
//! re-augment through [`Admission::augment`], and departures and permanent
//! failures hand each instance's capacity back through
//! [`Admission::credit`]. An instance took its demand, except after a
//! clamped (overcommitted) debit, where the node's payment is shared out
//! over its new instances in spawn order, each taking `min(demand, left)`.
//!
//! Determinism contract: given the same network, catalog, [`SimConfig`] and
//! policy, two runs produce identical event sequences, identical `sim.*`
//! telemetry and an identical [`SloReport`]. Four independent RNG streams
//! (fanned out of the master seed with [`expkit::fan_out`]) make the
//! *workload* — arrival times, request content, holding times — identical
//! across repair policies too, so policy comparisons on one seed are paired:
//! - stream 0: workload (arrivals, chains, holding times);
//! - stream 1: the admission seed: arrival `k` draws its placement and solve
//!   randomness from the stream engine's per-request RNGs for `(stream1, k)`,
//!   so with no capacity coming back its admissions are the stream engine's;
//! - stream 2: master for per-instance failure/repair clocks (instance `k`
//!   gets its own `fan_out(stream2, k)`-seeded generator);
//! - stream 3: the solver randomness of re-augmentations, one sequential
//!   generator.

use std::path::PathBuf;

use mecnet::graph::NodeId;
use mecnet::network::MecNetwork;
use mecnet::request::SfcRequest;
use mecnet::vnf::VnfCatalog;
use obs::{FlightRecorder, MetricsInterval, Recorder};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use relaug::stream::{Admission, Algorithm, Placed, StreamConfig};

use crate::event::{EventKind, EventQueue};
use crate::policy::{RepairPolicy, RequestView};
use crate::process::{mtbf_for_availability, sample_exp};
use crate::report::{RequestSlo, RunCounts, SloReport};

/// Simulation knobs.
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Simulation horizon (events past it are not processed).
    pub duration: f64,
    /// Poisson arrival rate (requests per time unit).
    pub arrival_rate: f64,
    /// Mean exponential holding (service) time of an admitted request.
    pub mean_holding: f64,
    /// Mean time to repair a failed instance; with the catalog's `r_i` this
    /// fixes each instance's MTBF (see [`crate::process`]).
    pub mttr: f64,
    /// Probability that a failure is permanent: the instance never returns
    /// and its capacity is reclaimed. `0.0` keeps every instance's long-run
    /// availability exactly `r_i`.
    pub permanent_failure_prob: f64,
    /// Locality radius `l` for secondaries.
    pub l: u32,
    /// Augmentation algorithm used at admission and for repairs.
    pub algorithm: Algorithm,
    /// Fraction of each cloudlet's capacity available to the simulator.
    pub initial_capacity_fraction: f64,
    /// Chain length range of generated requests.
    pub sfc_len_range: (usize, usize),
    /// Reliability expectation `ρ` of generated requests.
    pub expectation: f64,
    /// Master seed; everything derives from it.
    pub seed: u64,
    /// Windowed telemetry: `None` (default) emits every `sim.*` event (the
    /// byte-identity-checked trace); `Some` suppresses per-event emission and
    /// emits one `sim.window` summary per interval plus the final partial
    /// window. `Seconds` means *simulated* seconds and `Requests` counts
    /// arrivals, so windowed traces stay deterministic.
    pub metrics_interval: Option<MetricsInterval>,
    /// Keep a flight ring of recent raw events, dumped to
    /// `<dir>/flight-sim-<policy>.jsonl` on the first SLO violation observed
    /// at a departure.
    pub flight_dir: Option<PathBuf>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            duration: 500.0,
            arrival_rate: 0.05,
            mean_holding: 200.0,
            mttr: 1.0,
            permanent_failure_prob: 0.0,
            l: 1,
            algorithm: Algorithm::default(),
            initial_capacity_fraction: 1.0,
            sfc_len_range: (2, 4),
            expectation: 0.99,
            seed: 0xC0FFEE,
            metrics_interval: None,
            flight_dir: None,
        }
    }
}

/// Open-window bookkeeping for windowed telemetry.
#[derive(Debug)]
struct SimWindow {
    interval: MetricsInterval,
    index: u64,
    started_t: f64,
    base: RunCounts,
}

/// One deployed VNF instance (primary or secondary) with its own clocks.
#[derive(Debug)]
struct InstanceState {
    request: usize,
    func: usize,
    node: NodeId,
    /// Capacity actually debited for this instance (returned on release; may
    /// be below the demand when the randomized algorithm overcommitted).
    debited: f64,
    /// `None` for `r_i = 1` instances, which never fail.
    mtbf: Option<f64>,
    up: bool,
    /// `false` once permanently lost or its request departed.
    alive: bool,
    /// Bumped on release so stale failure/repair events are ignored.
    epoch: u64,
    down_since: f64,
    rng: StdRng,
}

/// Bookkeeping for one arrived request.
#[derive(Debug)]
struct ActiveRequest {
    req: SfcRequest,
    placement: Vec<NodeId>,
    /// Instance ids owned by this request (for release on departure).
    instances: Vec<usize>,
    /// Per chain position: instances currently up.
    live: Vec<usize>,
    reliabilities: Vec<f64>,
    admitted: bool,
    arrived_at: f64,
    departed: bool,
    /// Whether every chain position has a live instance right now.
    up: bool,
    last_change: f64,
    uptime: f64,
    outage_start: f64,
    outages: usize,
    outage_time: f64,
    base_reliability: f64,
    analytic_reliability: f64,
    secondaries: usize,
    reaugmentations: usize,
}

impl ActiveRequest {
    /// Close the availability accounting at `t` (departure or horizon).
    fn close(&mut self, t: f64, outage_durations: &mut Vec<f64>) {
        if self.up {
            self.uptime += t - self.last_change;
        } else {
            let d = t - self.outage_start;
            self.outage_time += d;
            outage_durations.push(d);
        }
        self.last_change = t;
    }

    fn active_time(&self, end: f64) -> f64 {
        (end - self.arrived_at).max(0.0)
    }

    fn availability(&self, end: f64) -> f64 {
        let active = self.active_time(end);
        if active <= 0.0 {
            1.0
        } else {
            (self.uptime / active).clamp(0.0, 1.0)
        }
    }
}

/// Where the workload comes from: the engine asks the source for arrival
/// gaps, request content and holding times, passing its workload RNG so the
/// default source reproduces the historical draw order exactly. Lazy
/// scenario streams (e.g. `scen`'s million-request generators) implement
/// this by pulling from their own per-position RNGs and ignoring `rng`,
/// which keeps the simulator O(active requests) in memory for arbitrarily
/// long workloads.
pub trait RequestSource {
    /// Gap before the first arrival.
    fn first_gap(&mut self, rng: &mut StdRng) -> f64;

    /// Content, holding time, and gap to the *next* arrival for request
    /// `id`, drawn in exactly that order (the fixed workload draw order the
    /// determinism contract pins).
    fn arrival(
        &mut self,
        id: usize,
        catalog: &VnfCatalog,
        num_nodes: usize,
        rng: &mut StdRng,
    ) -> (SfcRequest, f64, f64);
}

/// The engine's historical workload model: Poisson arrivals at a fixed rate,
/// uniform random request content, exponential holding times — all drawn
/// from the engine's workload RNG stream, so [`run`] behaves bit-for-bit as
/// it did before sources existed.
pub struct PoissonSource {
    pub arrival_rate: f64,
    pub mean_holding: f64,
    pub sfc_len_range: (usize, usize),
    pub expectation: f64,
}

impl PoissonSource {
    pub fn from_config(cfg: &SimConfig) -> PoissonSource {
        PoissonSource {
            arrival_rate: cfg.arrival_rate,
            mean_holding: cfg.mean_holding,
            sfc_len_range: cfg.sfc_len_range,
            expectation: cfg.expectation,
        }
    }
}

impl RequestSource for PoissonSource {
    fn first_gap(&mut self, rng: &mut StdRng) -> f64 {
        sample_exp(1.0 / self.arrival_rate, rng)
    }

    fn arrival(
        &mut self,
        id: usize,
        catalog: &VnfCatalog,
        num_nodes: usize,
        rng: &mut StdRng,
    ) -> (SfcRequest, f64, f64) {
        let req =
            SfcRequest::random(id, catalog, self.sfc_len_range, self.expectation, num_nodes, rng);
        let holding = sample_exp(self.mean_holding, rng);
        let gap = sample_exp(1.0 / self.arrival_rate, rng);
        (req, holding, gap)
    }
}

/// Run one simulation on the config's Poisson workload, without telemetry.
pub fn run(
    network: &MecNetwork,
    catalog: &VnfCatalog,
    cfg: &SimConfig,
    policy: &dyn RepairPolicy,
) -> SloReport {
    let mut source = PoissonSource::from_config(cfg);
    run_with(network, catalog, cfg, policy, &mut source, &mut Recorder::noop())
}

/// Run one simulation on the workload `source` delivers, emitting `sim.*`
/// telemetry through `rec`: one `sim.arrival` per request, `sim.departure`,
/// `sim.failure` / `sim.repair` per instance transition, `sim.reaugment` per
/// policy action, `sim.audit` per tick and a final `sim.report`. Every event
/// field is simulation-time based, so traced runs stay byte-reproducible.
/// With a [`PoissonSource`] built from `cfg` and a no-op recorder this is
/// [`run`].
pub fn run_with(
    network: &MecNetwork,
    catalog: &VnfCatalog,
    cfg: &SimConfig,
    policy: &dyn RepairPolicy,
    source: &mut dyn RequestSource,
    rec: &mut Recorder,
) -> SloReport {
    Engine::new(network, catalog, cfg, policy, source).run(rec)
}

struct Engine<'a> {
    network: &'a MecNetwork,
    catalog: &'a VnfCatalog,
    cfg: &'a SimConfig,
    policy: &'a dyn RepairPolicy,
    source: &'a mut dyn RequestSource,
    queue: EventQueue,
    /// The residual capacity and the admission step.
    admission: Admission<'a>,
    /// Stream 1: the seed of every arrival's [`Admission::admit`].
    admit_seed: u64,
    requests: Vec<ActiveRequest>,
    instances: Vec<InstanceState>,
    counts: RunCounts,
    outage_durations: Vec<f64>,
    repair_latencies: Vec<f64>,
    workload_rng: StdRng,
    /// Stream 3: the re-augmentations' solver randomness.
    repair_rng: StdRng,
    clock_master: u64,
    /// `true` (default mode): emit every `sim.*` event through `rec` and
    /// trace the solves into it. In windowed mode the admission steps count
    /// into `quiet` instead: `sim.window` carries no solver counters.
    full_events: bool,
    /// The run's event-less recorder for windowed mode.
    quiet: Recorder,
    window: Option<SimWindow>,
    flight: Option<FlightRecorder>,
    flight_path: Option<PathBuf>,
    flight_dumped: bool,
}

impl<'a> Engine<'a> {
    fn new(
        network: &'a MecNetwork,
        catalog: &'a VnfCatalog,
        cfg: &'a SimConfig,
        policy: &'a dyn RepairPolicy,
        source: &'a mut dyn RequestSource,
    ) -> Engine<'a> {
        assert!(cfg.duration > 0.0 && cfg.duration.is_finite(), "duration must be positive");
        assert!(cfg.arrival_rate > 0.0, "arrival rate must be positive");
        assert!(cfg.mean_holding > 0.0, "holding time must be positive");
        assert!(cfg.mttr > 0.0, "MTTR must be positive");
        assert!(
            (0.0..=1.0).contains(&cfg.permanent_failure_prob),
            "permanent failure probability must be in [0, 1]"
        );
        let stream = StreamConfig {
            l: cfg.l,
            algorithm: cfg.algorithm.clone(),
            initial_capacity_fraction: cfg.initial_capacity_fraction,
            ..Default::default()
        };
        Engine {
            network,
            catalog,
            cfg,
            policy,
            source,
            queue: EventQueue::new(),
            admission: Admission::new(network, catalog, &stream),
            admit_seed: expkit::fan_out(cfg.seed, 1),
            requests: Vec::new(),
            instances: Vec::new(),
            counts: RunCounts::default(),
            outage_durations: Vec::new(),
            repair_latencies: Vec::new(),
            workload_rng: StdRng::seed_from_u64(expkit::fan_out(cfg.seed, 0)),
            repair_rng: StdRng::seed_from_u64(expkit::fan_out(cfg.seed, 3)),
            clock_master: expkit::fan_out(cfg.seed, 2),
            full_events: cfg.metrics_interval.is_none(),
            quiet: Recorder::noop(),
            window: cfg.metrics_interval.map(|interval| SimWindow {
                interval,
                index: 0,
                started_t: 0.0,
                base: RunCounts::default(),
            }),
            flight: cfg.flight_dir.as_ref().map(|_| FlightRecorder::new(256)),
            flight_path: cfg
                .flight_dir
                .as_ref()
                .map(|dir| dir.join(format!("flight-sim-{}.jsonl", policy.name()))),
            flight_dumped: false,
        }
    }

    /// Tee one raw `sim.*` event: emitted through `rec` in full-trace mode,
    /// and always pushed into the flight ring when one is configured. The
    /// builder only runs when a consumer exists.
    fn note<F: Fn() -> obs::Event>(&mut self, rec: &mut Recorder, build: F) {
        if self.full_events {
            rec.emit_with(&build);
        }
        if let Some(fl) = self.flight.as_mut() {
            fl.push(build());
        }
    }

    /// Dump the flight ring (once per run) to the configured path.
    fn flight_dump(&mut self, reason: &str) {
        if self.flight_dumped {
            return;
        }
        if let (Some(fl), Some(path)) = (&self.flight, &self.flight_path) {
            let _ = fl.dump_to_path(reason, path);
            self.flight_dumped = true;
        }
    }

    /// Close any windows that end at or before `t`. Time windows close before
    /// the event that crosses the boundary is processed; request windows close
    /// right after the arrival that fills them (`after_arrival`). Boundaries
    /// depend only on simulated time and arrival counts, so windowed traces
    /// are as deterministic as full ones.
    fn cut_windows(&mut self, t: f64, after_arrival: bool, rec: &mut Recorder) {
        loop {
            let Some(win) = &self.window else { return };
            match win.interval {
                MetricsInterval::Seconds(s) => {
                    let end = win.started_t + s;
                    if t >= end {
                        self.emit_window(end, false, rec);
                        continue;
                    }
                }
                MetricsInterval::Requests(n) => {
                    if after_arrival && (self.counts.arrivals - win.base.arrivals) as u64 >= n {
                        self.emit_window(t, false, rec);
                        continue;
                    }
                }
            }
            return;
        }
    }

    /// Emit one `sim.window` summary covering `[started_t, t_end)` and roll
    /// the window forward. A final partial window is skipped when empty,
    /// unless it would be the run's only window.
    fn emit_window(&mut self, t_end: f64, final_window: bool, rec: &mut Recorder) {
        let Some(win) = &mut self.window else { return };
        let (now, base) = (self.counts, win.base);
        if !(final_window && now == base && win.index > 0) {
            let (index, t_start) = (win.index, win.started_t);
            let active = self.requests.iter().filter(|r| r.admitted && !r.departed).count() as u64;
            rec.emit_with(|| {
                obs::Event::new("sim.window")
                    .with("window", index)
                    .with("final", final_window)
                    .with("t_start", t_start)
                    .with("t_end", t_end)
                    .with("arrivals", now.arrivals - base.arrivals)
                    .with("admitted", now.admitted - base.admitted)
                    .with("rejected", now.rejected - base.rejected)
                    .with("departures", now.departures - base.departures)
                    .with("failures", now.failures - base.failures)
                    .with("repairs", now.instance_repairs - base.instance_repairs)
                    .with("reaugmentations", now.reaugmentations - base.reaugmentations)
                    .with("audits", now.audits - base.audits)
                    .with("active", active)
            });
            win.index += 1;
        }
        win.started_t = t_end;
        win.base = self.counts;
    }

    fn run(mut self, rec: &mut Recorder) -> SloReport {
        let first = self.source.first_gap(&mut self.workload_rng);
        self.queue.push(first, EventKind::Arrival);
        if let Some(interval) = self.policy.audit_interval() {
            self.queue.push(interval, EventKind::AuditTick);
        }
        while let Some(ev) = self.queue.pop() {
            if ev.time > self.cfg.duration {
                break;
            }
            self.cut_windows(ev.time, false, rec);
            let was_arrival = matches!(ev.kind, EventKind::Arrival);
            match ev.kind {
                EventKind::Arrival => self.on_arrival(ev.time, rec),
                EventKind::Departure { request } => self.on_departure(ev.time, request, rec),
                EventKind::InstanceFailure { instance, epoch } => {
                    self.on_failure(ev.time, instance, epoch, rec)
                }
                EventKind::InstanceRepair { instance, epoch } => {
                    self.on_repair(ev.time, instance, epoch, rec)
                }
                EventKind::AuditTick => self.on_audit(ev.time, rec),
            }
            if was_arrival {
                self.cut_windows(ev.time, true, rec);
            }
            debug_assert!(
                self.admission.residual().iter().all(|&r| r >= -1e-6),
                "capacity went negative"
            );
        }
        self.finalize(rec)
    }

    /// Seed the next instance's private clock generator.
    fn instance_rng(&self, instance_id: usize) -> StdRng {
        StdRng::seed_from_u64(expkit::fan_out(self.clock_master, instance_id as u64))
    }

    /// Deploy one up instance of chain position `func` that took `debited`
    /// MHz at `node`, and schedule its first failure.
    fn spawn_instance(&mut self, t: f64, request: usize, func: usize, node: NodeId, debited: f64) {
        let id = self.instances.len();
        let reliability = self.requests[request].reliabilities[func];
        let mut inst = InstanceState {
            request,
            func,
            node,
            debited,
            mtbf: mtbf_for_availability(reliability, self.cfg.mttr),
            up: true,
            alive: true,
            epoch: 0,
            down_since: t,
            rng: self.instance_rng(id),
        };
        if let Some(mtbf) = inst.mtbf {
            let at = t + sample_exp(mtbf, &mut inst.rng);
            self.queue.push(at, EventKind::InstanceFailure { instance: id, epoch: 0 });
        }
        self.instances.push(inst);
        self.requests[request].instances.push(id);
        self.requests[request].live[func] += 1;
    }

    /// Release an instance's capacity and invalidate its pending clocks.
    fn release_instance(&mut self, id: usize) {
        let inst = &mut self.instances[id];
        if !inst.alive {
            return;
        }
        inst.alive = false;
        inst.epoch += 1;
        let (node, amount) = (inst.node, inst.debited);
        self.admission.credit(node, amount);
    }

    fn view_of(&self, request: usize) -> RequestView<'_> {
        let r = &self.requests[request];
        RequestView {
            id: r.req.id,
            expectation: r.req.expectation,
            reliabilities: &r.reliabilities,
            live: &r.live,
        }
    }

    fn on_arrival(&mut self, t: f64, rec: &mut Recorder) {
        // Fixed draw order from the workload stream: request content, then
        // holding time, then the next interarrival gap — identical across
        // policies by construction.
        let id = self.requests.len();
        let catalog = self.catalog;
        let num_nodes = self.network.num_nodes();
        let (req, holding, gap) =
            self.source.arrival(id, catalog, num_nodes, &mut self.workload_rng);
        if gap.is_finite() {
            self.queue.push(t + gap, EventKind::Arrival);
        }

        let reliabilities: Vec<f64> =
            req.sfc.iter().map(|&f| self.catalog.reliability(f)).collect();
        let chain_len = req.len();
        self.counts.arrivals += 1;
        let step_rec = if self.full_events { &mut *rec } else { &mut self.quiet };
        let record = self.admission.admit(self.admit_seed, id, &req, step_rec);
        // A rejected request keeps no per-position state.
        let positions = if record.admitted { chain_len } else { 0 };
        self.requests.push(ActiveRequest {
            req,
            placement: self.admission.placed().primaries[..positions].to_vec(),
            instances: Vec::new(),
            live: vec![0; positions],
            reliabilities,
            admitted: record.admitted,
            arrived_at: t,
            departed: false,
            up: record.admitted,
            last_change: t,
            uptime: 0.0,
            outage_start: t,
            outages: 0,
            outage_time: 0.0,
            base_reliability: record.base_reliability,
            analytic_reliability: record.achieved_reliability,
            secondaries: record.secondaries,
            reaugmentations: 0,
        });
        if !record.admitted {
            self.counts.rejected += 1;
            self.note(rec, || {
                obs::Event::new("sim.arrival")
                    .with("t", t)
                    .with("id", id)
                    .with("admitted", false)
                    .with("reason", "no_primary_placement")
            });
            return;
        }

        // Primaries, which took their demands at placement…
        for func in 0..chain_len {
            let r = &self.requests[id];
            let (node, demand) = (r.placement[func], self.catalog.demand(r.req.sfc[func]));
            self.spawn_instance(t, id, func, node, demand);
        }
        // …then the augmentation's secondaries.
        for (func, node, took) in new_secondaries(self.admission.placed()) {
            self.spawn_instance(t, id, func, node, took);
        }
        self.counts.secondaries_placed += record.secondaries;
        self.queue.push(t + holding, EventKind::Departure { request: id });
        self.counts.admitted += 1;
        self.note(rec, || {
            obs::Event::new("sim.arrival")
                .with("t", t)
                .with("id", id)
                .with("admitted", true)
                .with("chain_len", chain_len)
                .with("base_reliability", record.base_reliability)
                .with("analytic", record.achieved_reliability)
                .with("secondaries", record.secondaries)
        });
    }

    fn on_departure(&mut self, t: f64, request: usize, rec: &mut Recorder) {
        if self.requests[request].departed {
            return;
        }
        self.requests[request].close(t, &mut self.outage_durations);
        self.requests[request].departed = true;
        let ids = std::mem::take(&mut self.requests[request].instances);
        for id in ids {
            self.release_instance(id);
        }
        self.counts.departures += 1;
        let r = &self.requests[request];
        let (avail, outages, expectation) = (r.availability(t), r.outages, r.req.expectation);
        self.note(rec, || {
            obs::Event::new("sim.departure")
                .with("t", t)
                .with("id", request)
                .with("availability", avail)
                .with("outages", outages)
        });
        // A departure that missed its reliability expectation is an SLO
        // violation: dump the recent raw events for the postmortem.
        if avail < expectation {
            self.flight_dump("slo_violation");
        }
    }

    fn on_failure(&mut self, t: f64, instance: usize, epoch: u64, rec: &mut Recorder) {
        let inst = &mut self.instances[instance];
        if !inst.alive || inst.epoch != epoch || !inst.up {
            return;
        }
        inst.up = false;
        inst.down_since = t;
        let permanent = self.cfg.permanent_failure_prob > 0.0
            && inst.rng.gen::<f64>() < self.cfg.permanent_failure_prob;
        if !permanent {
            let at = t + sample_exp(self.cfg.mttr, &mut inst.rng);
            self.queue.push(at, EventKind::InstanceRepair { instance, epoch });
        }
        let (request, func, node) = (inst.request, inst.func, inst.node);
        self.counts.failures += 1;
        self.requests[request].live[func] -= 1;
        if permanent {
            self.counts.permanent_failures += 1;
            self.requests[request].instances.retain(|&i| i != instance);
            self.release_instance(instance);
        }
        // Did this failure take the whole request down?
        if self.requests[request].up && self.requests[request].live[func] == 0 {
            let r = &mut self.requests[request];
            r.uptime += t - r.last_change;
            r.last_change = t;
            r.up = false;
            r.outage_start = t;
            r.outages += 1;
        }
        self.note(rec, || {
            obs::Event::new("sim.failure")
                .with("t", t)
                .with("instance", instance)
                .with("request", request)
                .with("func", func)
                .with("node", node.index())
                .with("permanent", permanent)
        });
        if !self.requests[request].departed && self.policy.repair_on_failure(&self.view_of(request))
        {
            self.reaugment(t, request, "failure", rec);
        }
    }

    fn on_repair(&mut self, t: f64, instance: usize, epoch: u64, rec: &mut Recorder) {
        let inst = &mut self.instances[instance];
        if !inst.alive || inst.epoch != epoch || inst.up {
            return;
        }
        inst.up = true;
        let latency = t - inst.down_since;
        if let Some(mtbf) = inst.mtbf {
            let at = t + sample_exp(mtbf, &mut inst.rng);
            self.queue.push(at, EventKind::InstanceFailure { instance, epoch });
        }
        let (request, func, node) = (inst.request, inst.func, inst.node);
        self.repair_latencies.push(latency);
        self.counts.instance_repairs += 1;
        self.requests[request].live[func] += 1;
        // Did this repair end the request's outage?
        if !self.requests[request].up && self.requests[request].live.iter().all(|&n| n > 0) {
            let r = &mut self.requests[request];
            let d = t - r.outage_start;
            r.outage_time += d;
            self.outage_durations.push(d);
            r.last_change = t;
            r.up = true;
        }
        self.note(rec, || {
            obs::Event::new("sim.repair")
                .with("t", t)
                .with("instance", instance)
                .with("request", request)
                .with("func", func)
                .with("node", node.index())
                .with("latency", latency)
        });
    }

    fn on_audit(&mut self, t: f64, rec: &mut Recorder) {
        let mut checked = 0usize;
        let mut repaired = 0usize;
        for idx in 0..self.requests.len() {
            if !self.requests[idx].admitted || self.requests[idx].departed {
                continue;
            }
            checked += 1;
            if self.policy.repair_on_audit(&self.view_of(idx)) {
                self.reaugment(t, idx, "audit", rec);
                repaired += 1;
            }
        }
        self.counts.audits += 1;
        self.note(rec, || {
            obs::Event::new("sim.audit")
                .with("t", t)
                .with("active", checked)
                .with("repaired", repaired)
        });
        if let Some(interval) = self.policy.audit_interval() {
            self.queue.push(t + interval, EventKind::AuditTick);
        }
    }

    /// Re-run augmentation for a degraded request on the current residual
    /// capacity ([`Admission::augment`]). Currently-live instances count as
    /// existing backups, so the solver only pays for the redundancy the
    /// failures actually destroyed; new secondaries come up immediately with
    /// fresh clocks.
    fn reaugment(&mut self, t: f64, request: usize, trigger: &'static str, rec: &mut Recorder) {
        let r = &self.requests[request];
        let existing: Vec<usize> = r.live.iter().map(|&n| n.saturating_sub(1)).collect();
        let step_rec = if self.full_events { &mut *rec } else { &mut self.quiet };
        let record =
            self.admission.augment(&r.req, &r.placement, &existing, &mut self.repair_rng, step_rec);
        let placed = record.secondaries;
        for (func, node, took) in new_secondaries(self.admission.placed()) {
            self.spawn_instance(t, request, func, node, took);
        }
        // New live instances may end an ongoing outage instantly.
        if placed > 0 && !self.requests[request].up {
            let r = &mut self.requests[request];
            if r.live.iter().all(|&n| n > 0) {
                let d = t - r.outage_start;
                r.outage_time += d;
                self.outage_durations.push(d);
                r.last_change = t;
                r.up = true;
            }
        }
        self.counts.secondaries_placed += placed;
        self.counts.reaugmentations += 1;
        self.requests[request].secondaries += placed;
        self.requests[request].reaugmentations += 1;
        self.note(rec, || {
            obs::Event::new("sim.reaugment")
                .with("t", t)
                .with("request", request)
                .with("trigger", trigger)
                .with("placed", placed)
        });
    }

    fn finalize(mut self, rec: &mut Recorder) -> SloReport {
        let end = self.cfg.duration;
        // Close the trailing partial window before the summary report.
        if self.window.is_some() {
            self.emit_window(end, true, rec);
        }
        // Close the accounting of everything still in service at the horizon.
        for r in &mut self.requests {
            if r.admitted && !r.departed {
                r.close(end, &mut self.outage_durations);
            }
        }
        let per_request: Vec<RequestSlo> = self
            .requests
            .iter()
            .map(|r| {
                let window_end = if r.departed { r.last_change } else { end };
                RequestSlo {
                    id: r.req.id,
                    arrived_at: r.arrived_at,
                    admitted: r.admitted,
                    departed: r.departed,
                    active_time: if r.admitted { r.active_time(window_end) } else { 0.0 },
                    base_reliability: r.base_reliability,
                    analytic_reliability: r.analytic_reliability,
                    expectation: r.req.expectation,
                    availability: if r.admitted { r.availability(window_end) } else { 0.0 },
                    met_slo: r.admitted && r.availability(window_end) >= r.req.expectation,
                    outages: r.outages,
                    outage_time: r.outage_time,
                    secondaries: r.secondaries,
                    reaugmentations: r.reaugmentations,
                }
            })
            .collect();
        let report = SloReport::assemble(
            self.policy.name().to_string(),
            self.cfg.algorithm.name().to_string(),
            self.cfg.seed,
            self.cfg.duration,
            per_request,
            &self.outage_durations,
            &self.repair_latencies,
            &self.counts,
            5.0 * self.cfg.mttr,
        );
        rec.emit_with(|| {
            obs::Event::new("sim.report")
                .with("policy", report.policy.as_str())
                .with("arrivals", report.arrivals)
                .with("admitted", report.admitted)
                .with("failures", report.failures)
                .with("repairs", report.instance_repairs)
                .with("reaugmentations", report.reaugmentations)
                .with("mean_availability", report.mean_availability)
                .with("mean_analytic", report.mean_analytic)
                .with("slo_attainment", report.slo_attainment)
        });
        report
    }
}

/// The secondaries the last admit or augment placed, in spawn order (chain
/// position, then solution row), each with the MHz it took: its demand, or,
/// after a clamped debit, its share of what its node paid, each instance at
/// the node taking `min(demand, left)` in turn.
fn new_secondaries(placed: Placed<'_>) -> Vec<(usize, NodeId, f64)> {
    let mut left = if placed.clamped { placed.debits.to_vec() } else { Vec::new() };
    let mut out = Vec::new();
    for (func, f) in placed.instance.functions.iter().enumerate() {
        for &(bin, count) in placed.solution.placements_of(func) {
            let node = placed.instance.bins[bin].node;
            for _ in 0..count {
                let took = match left.iter_mut().find(|(v, _)| *v == node) {
                    Some((_, paid)) => {
                        let take = f.demand.min(*paid);
                        *paid -= take;
                        take
                    }
                    None => f.demand,
                };
                out.push((func, node, took));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{NoRepair, PeriodicAudit, Reactive};
    use mecnet::topology;
    use mecnet::vnf::VnfType;

    fn setup(seed: u64) -> (MecNetwork, VnfCatalog) {
        let g = topology::grid(4, 4);
        let mut rng = StdRng::seed_from_u64(seed);
        let net = MecNetwork::with_random_cloudlets(g, 5, (6000.0, 9000.0), &mut rng);
        let mut cat = VnfCatalog::new();
        cat.add(VnfType { name: "a".into(), demand_mhz: 250.0, reliability: 0.85 });
        cat.add(VnfType { name: "b".into(), demand_mhz: 300.0, reliability: 0.8 });
        cat.add(VnfType { name: "c".into(), demand_mhz: 200.0, reliability: 0.9 });
        (net, cat)
    }

    fn source(cfg: &SimConfig) -> PoissonSource {
        PoissonSource::from_config(cfg)
    }

    fn quick_cfg() -> SimConfig {
        SimConfig {
            duration: 120.0,
            arrival_rate: 0.2,
            mean_holding: 40.0,
            mttr: 1.0,
            sfc_len_range: (2, 3),
            seed: 42,
            ..Default::default()
        }
    }

    #[test]
    fn runs_and_accounts_consistently() {
        let (net, cat) = setup(1);
        let rep = run(&net, &cat, &quick_cfg(), &NoRepair);
        assert!(rep.arrivals > 0, "some arrivals in 120 time units at rate 0.2");
        assert_eq!(rep.arrivals, rep.admitted + rep.rejected);
        assert_eq!(rep.per_request.len(), rep.arrivals);
        assert!(rep.failures > 0, "instances must fail over 120 units at MTTR-scale clocks");
        for r in rep.per_request.iter().filter(|r| r.admitted) {
            assert!((0.0..=1.0).contains(&r.availability), "availability {}", r.availability);
            assert!(r.active_time >= 0.0);
            assert!(r.analytic_reliability > 0.0);
            assert!(r.outage_time <= r.active_time + 1e-9);
        }
        assert!(rep.mean_availability > 0.5, "requests are mostly up");
    }

    #[test]
    fn capacity_is_conserved_and_released() {
        let (net, cat) = setup(2);
        // The randomized rounding overcommits under load, so its run
        // exercises the clamped debits and their shared-out credits.
        let randomized = SimConfig {
            algorithm: Algorithm::Randomized(Default::default()),
            arrival_rate: 1.0,
            ..quick_cfg()
        };
        for cfg in [quick_cfg(), randomized] {
            let policy = NoRepair;
            let mut rec = Recorder::noop();
            let mut source = PoissonSource::from_config(&cfg);
            let mut engine = Engine::new(&net, &cat, &cfg, &policy, &mut source);
            let initial = engine.admission.residual().to_vec();
            // Run the engine manually to inspect the final residual.
            let first = sample_exp(1.0 / cfg.arrival_rate, &mut engine.workload_rng);
            engine.queue.push(first, EventKind::Arrival);
            while let Some(ev) = engine.queue.pop() {
                if ev.time > cfg.duration {
                    break;
                }
                match ev.kind {
                    EventKind::Arrival => engine.on_arrival(ev.time, &mut rec),
                    EventKind::Departure { request } => {
                        engine.on_departure(ev.time, request, &mut rec)
                    }
                    EventKind::InstanceFailure { instance, epoch } => {
                        engine.on_failure(ev.time, instance, epoch, &mut rec)
                    }
                    EventKind::InstanceRepair { instance, epoch } => {
                        engine.on_repair(ev.time, instance, epoch, &mut rec)
                    }
                    EventKind::AuditTick => engine.on_audit(ev.time, &mut rec),
                }
                for (&r, &cap) in engine.admission.residual().iter().zip(&initial) {
                    assert!(r >= -1e-6, "residual went negative: {r}");
                    assert!(r <= cap + 1e-6, "residual exceeded initial: {r} > {cap}");
                }
            }
            if matches!(cfg.algorithm, Algorithm::Randomized(_)) {
                let clamped = rec.get(obs::metrics::OVERCOMMIT_CLAMPED);
                assert!(clamped > 0, "the randomized run must overcommit");
            }
            // Force-depart everything and verify the exact round trip.
            let active: Vec<usize> = engine
                .requests
                .iter()
                .enumerate()
                .filter(|(_, r)| r.admitted && !r.departed)
                .map(|(i, _)| i)
                .collect();
            for idx in active {
                engine.on_departure(cfg.duration, idx, &mut rec);
            }
            for (&r, &cap) in engine.admission.residual().iter().zip(&initial) {
                assert!((r - cap).abs() < 1e-6, "capacity not restored: {r} vs {cap}");
            }
        }
    }

    #[test]
    fn policies_share_the_same_workload() {
        let (net, cat) = setup(3);
        let cfg = quick_cfg();
        let a = run(&net, &cat, &cfg, &NoRepair);
        let b = run(&net, &cat, &cfg, &Reactive);
        let c = run(&net, &cat, &cfg, &PeriodicAudit::new(5.0));
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.arrivals, c.arrivals);
        for (x, y) in a.per_request.iter().zip(&b.per_request) {
            assert_eq!(x.arrived_at.to_bits(), y.arrived_at.to_bits(), "arrival times differ");
        }
        assert_eq!(a.reaugmentations, 0, "NoRepair never re-augments");
    }

    #[test]
    fn perfect_instances_never_fail() {
        let g = topology::grid(3, 3);
        let mut rng = StdRng::seed_from_u64(5);
        let net = MecNetwork::with_random_cloudlets(g, 3, (5000.0, 8000.0), &mut rng);
        let mut cat = VnfCatalog::new();
        cat.add(VnfType { name: "p".into(), demand_mhz: 200.0, reliability: 1.0 });
        let rep = run(&net, &cat, &quick_cfg(), &NoRepair);
        assert_eq!(rep.failures, 0);
        assert_eq!(rep.outage_count, 0);
        for r in rep.per_request.iter().filter(|r| r.admitted) {
            assert!((r.availability - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn permanent_failures_release_capacity_and_degrade() {
        let (net, cat) = setup(7);
        let mut cfg = quick_cfg();
        cfg.permanent_failure_prob = 1.0; // every failure is fatal
        cfg.duration = 200.0;
        let rep = run(&net, &cat, &cfg, &NoRepair);
        assert!(rep.permanent_failures > 0);
        assert_eq!(rep.permanent_failures, rep.failures);
        assert_eq!(rep.instance_repairs, 0, "nothing ever comes back");
    }

    #[test]
    fn windowed_mode_bounds_events_and_preserves_totals() {
        let (net, cat) = setup(1);
        let full_report = run(&net, &cat, &quick_cfg(), &NoRepair);

        let mut cfg = quick_cfg();
        cfg.metrics_interval = Some(MetricsInterval::Seconds(30.0));
        let mut rec = Recorder::memory();
        let report = run_with(&net, &cat, &cfg, &NoRepair, &mut source(&cfg), &mut rec);

        // Windowing must not perturb the simulation itself.
        assert_eq!(report.arrivals, full_report.arrivals);
        assert_eq!(report.admitted, full_report.admitted);
        assert_eq!(report.failures, full_report.failures);

        // Per-event emission (sim.* AND solver events) is suppressed; the
        // trace holds only windows + the final report.
        let kinds: Vec<&str> = rec.events().iter().map(|e| e.kind).collect();
        assert!(kinds.iter().all(|k| *k == "sim.window" || *k == "sim.report"), "{kinds:?}");
        assert!(kinds.contains(&"sim.report"));
        let windows: Vec<_> = rec.events().iter().filter(|e| e.kind == "sim.window").collect();
        // duration 120 / interval 30 → at most 4 interior + 1 final partial.
        assert!(
            (1..=5).contains(&windows.len()),
            "expected bounded windows, saw {}",
            windows.len()
        );
        // Window deltas add back up to the run totals.
        let summed: u64 = windows
            .iter()
            .map(|e| match e.field("arrivals") {
                Some(serde::Value::U64(n)) => *n,
                other => panic!("bad arrivals field: {other:?}"),
            })
            .sum();
        assert_eq!(summed as usize, report.arrivals);
    }

    #[test]
    fn request_windows_cut_every_n_arrivals() {
        let (net, cat) = setup(3);
        let mut cfg = quick_cfg();
        cfg.metrics_interval = Some(MetricsInterval::Requests(5));
        let mut rec = Recorder::memory();
        let report = run_with(&net, &cat, &cfg, &NoRepair, &mut source(&cfg), &mut rec);
        let windows = rec.events().iter().filter(|e| e.kind == "sim.window").count();
        assert!(windows >= report.arrivals / 5, "saw {windows} windows");
        assert!(windows <= report.arrivals / 5 + 1, "saw {windows} windows");
        assert!(!rec.events().iter().any(|e| e.kind == "sim.arrival"));
    }

    #[test]
    fn slo_violation_dumps_flight_ring() {
        let (net, cat) = setup(2);
        let dir = std::env::temp_dir().join(format!("relaug-flight-{}", std::process::id()));
        let mut cfg = quick_cfg();
        cfg.expectation = 0.999999; // unattainable once instances are lost
        cfg.permanent_failure_prob = 1.0; // every failure is an outage that never heals
        cfg.duration = 200.0;
        cfg.flight_dir = Some(dir.clone());
        let report = run(&net, &cat, &cfg, &NoRepair);
        assert!(report.slo_attainment < 1.0, "violations expected");
        let path = dir.join("flight-sim-none.jsonl");
        let text = std::fs::read_to_string(&path).expect("flight dump written");
        let first = text.lines().next().expect("non-empty dump");
        assert!(first.contains("\"event\":\"flight.dump\""));
        assert!(first.contains("\"reason\":\"slo_violation\""));
        assert!(text.lines().count() >= 2, "dump carries buffered events");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn audit_policy_emits_audit_events() {
        let (net, cat) = setup(9);
        let mut rec = Recorder::memory();
        let cfg = quick_cfg();
        run_with(&net, &cat, &cfg, &PeriodicAudit::new(10.0), &mut source(&cfg), &mut rec);
        let audits = rec.events().iter().filter(|e| e.kind == "sim.audit").count();
        // duration 120 / interval 10 → 11 ticks fit strictly inside.
        assert!(audits >= 10, "expected ~11 audit ticks, saw {audits}");
    }
}
