//! Experiment harness regenerating every figure of the paper's Section 7.
//!
//! The paper's evaluation has three figures, each with three panels:
//!
//! * Fig. 1 — sweep the SFC length 2..20 (residual capacity 25%,
//!   `r_i ∈ [0.8, 0.9]`, `l = 1`);
//! * Fig. 2 — sweep the function-reliability interval
//!   (`[0.55,0.65) … [0.85,0.95]`);
//! * Fig. 3 — sweep the residual capacity fraction (1/16 … 1).
//!
//! Panels per figure: (a) achieved SFC reliability of ILP / Randomized /
//! Heuristic, (b) the randomized algorithm's cloudlet capacity usage ratio
//! (avg/min/max; may exceed 1 because rounding can violate capacities),
//! (c) running times.
//!
//! [`run_point`] executes the per-data-point protocol: `trials` independent
//! scenarios (network, catalog, request, primary placement), each solved by
//! all algorithms, with trials fanned out across threads (deterministic via
//! per-trial derived seeds). Binaries `fig1`, `fig2`, `fig3`, `all_figs`
//! print the same series the paper plots and can dump JSON for
//! EXPERIMENTS.md.

use std::time::Duration;

use expkit::stats::Summary;
use expkit::Table;
use mecnet::workload::{generate_scenario, WorkloadConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use relaug::heuristic::HeuristicConfig;
use relaug::ilp::IlpConfig;
use relaug::instance::AugmentationInstance;
use relaug::randomized::RandomizedConfig;
use relaug::{greedy, heuristic, ilp, randomized};
use serde::Serialize;

/// Which algorithms a sweep runs (ILP can be skipped for very large points).
#[derive(Debug, Clone, Copy)]
pub struct AlgoSelection {
    pub ilp: bool,
    pub randomized: bool,
    pub heuristic: bool,
    pub greedy: bool,
}

impl Default for AlgoSelection {
    fn default() -> Self {
        AlgoSelection { ilp: true, randomized: true, heuristic: true, greedy: false }
    }
}

/// Everything needed to evaluate one data point of a figure.
#[derive(Debug, Clone)]
pub struct PointConfig {
    pub label: String,
    pub workload: WorkloadConfig,
    /// Locality radius `l` (paper default 1).
    pub l: u32,
    pub trials: usize,
    pub master_seed: u64,
    pub algos: AlgoSelection,
    /// Worker threads for the trial fan-out (1 = sequential).
    pub threads: usize,
}

impl PointConfig {
    pub fn new(label: impl Into<String>, workload: WorkloadConfig) -> Self {
        PointConfig {
            label: label.into(),
            workload,
            l: 1,
            trials: 40,
            master_seed: 0xC0FFEE,
            algos: AlgoSelection::default(),
            threads: default_threads(),
        }
    }
}

/// A reasonable worker count: logical cores minus one, at least 1.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|n| n.get().saturating_sub(1).max(1)).unwrap_or(1)
}

/// Per-algorithm aggregate over a point's trials.
#[derive(Debug, Clone, Serialize)]
pub struct AlgoStats {
    pub reliability: Summary,
    /// Ratio of this algorithm's reliability to the ILP's, per trial
    /// (only when the ILP ran).
    pub ratio_to_ilp: Option<Summary>,
    pub runtime_s: Summary,
    pub secondaries: Summary,
}

/// Randomized-only extras for the figures' (b) panels.
#[derive(Debug, Clone, Serialize)]
pub struct UsageStats {
    pub avg: Summary,
    pub min: Summary,
    pub max: Summary,
    /// Fraction of trials with at least one capacity violation.
    pub violation_fraction: f64,
}

/// One figure data point: per-algorithm aggregates.
#[derive(Debug, Clone, Serialize)]
pub struct PointResult {
    pub label: String,
    pub trials: usize,
    pub ilp: Option<AlgoStats>,
    pub randomized: Option<AlgoStats>,
    pub heuristic: Option<AlgoStats>,
    pub greedy: Option<AlgoStats>,
    pub randomized_usage: Option<UsageStats>,
    /// Mean item count `N` over trials (problem size context).
    pub mean_items: f64,
}

struct TrialRow {
    ilp: Option<(f64, f64, usize)>, // (reliability, runtime_s, secondaries)
    randomized: Option<(f64, f64, usize)>,
    heuristic: Option<(f64, f64, usize)>,
    greedy: Option<(f64, f64, usize)>,
    usage: Option<(f64, f64, f64)>, // randomized avg/min/max usage
    items: usize,
}

fn run_trial(cfg: &PointConfig, seed: u64) -> TrialRow {
    let mut rng = StdRng::seed_from_u64(seed);
    let scenario = generate_scenario(&cfg.workload, &mut rng);
    let inst = AugmentationInstance::from_scenario(&scenario, cfg.l);
    let items = inst.total_items();

    let ilp_out = if cfg.algos.ilp {
        let out = ilp::solve(&inst, &IlpConfig::default()).expect("ILP solve failed");
        Some((out.metrics.reliability, out.runtime.as_secs_f64(), out.metrics.total_secondaries))
    } else {
        None
    };
    let (rand_out, usage) = if cfg.algos.randomized {
        let out = randomized::solve(&inst, &RandomizedConfig::default(), &mut rng)
            .expect("randomized solve failed");
        (
            Some((
                out.metrics.reliability,
                out.runtime.as_secs_f64(),
                out.metrics.total_secondaries,
            )),
            Some((out.metrics.avg_usage, out.metrics.min_usage, out.metrics.max_usage)),
        )
    } else {
        (None, None)
    };
    let heu_out = if cfg.algos.heuristic {
        let out = heuristic::solve(&inst, &HeuristicConfig::default());
        Some((out.metrics.reliability, out.runtime.as_secs_f64(), out.metrics.total_secondaries))
    } else {
        None
    };
    let greedy_out = if cfg.algos.greedy {
        let out = greedy::solve(&inst, &Default::default());
        Some((out.metrics.reliability, out.runtime.as_secs_f64(), out.metrics.total_secondaries))
    } else {
        None
    };
    TrialRow {
        ilp: ilp_out,
        randomized: rand_out,
        heuristic: heu_out,
        greedy: greedy_out,
        usage,
        items,
    }
}

/// Run all trials of one data point, fanning out across threads.
pub fn run_point(cfg: &PointConfig) -> PointResult {
    let seeds: Vec<u64> =
        (0..cfg.trials).map(|i| expkit::fan_out(cfg.master_seed, i as u64)).collect();
    let rows: Vec<TrialRow> = if cfg.threads <= 1 || cfg.trials <= 1 {
        seeds.iter().map(|&s| run_trial(cfg, s)).collect()
    } else {
        // Chunk seeds across scoped worker threads; results keep trial order.
        let workers = cfg.threads.min(cfg.trials);
        let mut rows: Vec<Option<TrialRow>> = (0..cfg.trials).map(|_| None).collect();
        let (tx, rx) = crossbeam::channel::unbounded::<(usize, TrialRow)>();
        std::thread::scope(|scope| {
            for w in 0..workers {
                let tx = tx.clone();
                let seeds = &seeds;
                scope.spawn(move || {
                    let mut i = w;
                    while i < seeds.len() {
                        let row = run_trial(cfg, seeds[i]);
                        tx.send((i, row)).expect("collector alive");
                        i += workers;
                    }
                });
            }
            drop(tx);
            for (i, row) in rx {
                rows[i] = Some(row);
            }
        });
        rows.into_iter().map(|r| r.expect("all trials completed")).collect()
    };

    type Picker<'a> = &'a dyn Fn(&TrialRow) -> Option<(f64, f64, usize)>;
    let collect = |pick: Picker| -> Option<AlgoStats> {
        let triples: Vec<(f64, f64, usize)> = rows.iter().filter_map(pick).collect();
        if triples.is_empty() {
            return None;
        }
        let rel: Vec<f64> = triples.iter().map(|t| t.0).collect();
        let rt: Vec<f64> = triples.iter().map(|t| t.1).collect();
        let sec: Vec<f64> = triples.iter().map(|t| t.2 as f64).collect();
        let ratio = if rows.iter().all(|r| r.ilp.is_some()) {
            let ratios: Vec<f64> = rows
                .iter()
                .filter_map(|r| {
                    let (ilp_rel, _, _) = r.ilp?;
                    let (a_rel, _, _) = pick(r)?;
                    (ilp_rel > 0.0).then(|| a_rel / ilp_rel)
                })
                .collect();
            (!ratios.is_empty()).then(|| Summary::of(&ratios))
        } else {
            None
        };
        Some(AlgoStats {
            reliability: Summary::of(&rel),
            ratio_to_ilp: ratio,
            runtime_s: Summary::of(&rt),
            secondaries: Summary::of(&sec),
        })
    };

    let usage = {
        let triples: Vec<(f64, f64, f64)> = rows.iter().filter_map(|r| r.usage).collect();
        (!triples.is_empty()).then(|| UsageStats {
            avg: Summary::of(&triples.iter().map(|t| t.0).collect::<Vec<_>>()),
            min: Summary::of(&triples.iter().map(|t| t.1).collect::<Vec<_>>()),
            max: Summary::of(&triples.iter().map(|t| t.2).collect::<Vec<_>>()),
            violation_fraction: triples.iter().filter(|t| t.2 > 1.0 + 1e-9).count() as f64
                / triples.len() as f64,
        })
    };

    PointResult {
        label: cfg.label.clone(),
        trials: cfg.trials,
        ilp: collect(&|r| r.ilp),
        randomized: collect(&|r| r.randomized),
        heuristic: collect(&|r| r.heuristic),
        greedy: collect(&|r| r.greedy),
        randomized_usage: usage,
        mean_items: rows.iter().map(|r| r.items as f64).sum::<f64>() / rows.len().max(1) as f64,
    }
}

/// The three standard sweeps.
pub mod sweeps {
    use super::*;

    /// Fig. 1: SFC length 2..=20 (step 2), fixed 25% residual, r ∈ [0.8, 0.9].
    pub fn fig1_lengths() -> Vec<usize> {
        (2..=20).step_by(2).collect()
    }

    pub fn fig1_point(len: usize, trials: usize, seed: u64) -> PointConfig {
        let workload = WorkloadConfig {
            sfc_len_range: (len, len),
            reliability_range: (0.8, 0.9),
            residual_fraction: 0.25,
            ..Default::default()
        };
        let mut cfg = PointConfig::new(format!("L={len}"), workload);
        cfg.trials = trials;
        cfg.master_seed = seed;
        cfg
    }

    /// Fig. 2: function-reliability intervals.
    pub fn fig2_intervals() -> Vec<(f64, f64)> {
        vec![(0.55, 0.65), (0.65, 0.75), (0.75, 0.85), (0.85, 0.95)]
    }

    pub fn fig2_point(interval: (f64, f64), trials: usize, seed: u64) -> PointConfig {
        let workload = WorkloadConfig {
            reliability_range: interval,
            residual_fraction: 0.25,
            ..Default::default()
        };
        let mid = (interval.0 + interval.1) / 2.0;
        let mut cfg = PointConfig::new(format!("r~{mid:.1}"), workload);
        cfg.trials = trials;
        cfg.master_seed = seed;
        cfg
    }

    /// Fig. 3: residual capacity fractions 1/16 .. 1.
    pub fn fig3_fractions() -> Vec<f64> {
        vec![1.0 / 16.0, 1.0 / 8.0, 1.0 / 4.0, 1.0 / 2.0, 1.0]
    }

    pub fn fig3_point(fraction: f64, trials: usize, seed: u64) -> PointConfig {
        let workload = WorkloadConfig {
            residual_fraction: fraction,
            reliability_range: (0.8, 0.9),
            ..Default::default()
        };
        let mut cfg = PointConfig::new(format!("C'={fraction:.4}"), workload);
        cfg.trials = trials;
        cfg.master_seed = seed;
        cfg
    }
}

/// Render the three panels of one figure as markdown tables.
pub fn render_figure(points: &[PointResult]) -> String {
    let mut out = String::new();

    let mut rel =
        Table::new(vec!["point", "ILP", "Randomized", "Heuristic", "Rand/ILP", "Heu/ILP"]);
    for p in points {
        let f = |s: &Option<AlgoStats>| {
            s.as_ref().map_or("-".to_string(), |a| format!("{:.4}", a.reliability.mean))
        };
        let ratio = |s: &Option<AlgoStats>| {
            s.as_ref()
                .and_then(|a| a.ratio_to_ilp.as_ref())
                .map_or("-".to_string(), |r| format!("{:.2}%", 100.0 * r.mean))
        };
        rel.add_row(vec![
            p.label.clone(),
            f(&p.ilp),
            f(&p.randomized),
            f(&p.heuristic),
            ratio(&p.randomized),
            ratio(&p.heuristic),
        ]);
    }
    out.push_str("### (a) achieved SFC reliability\n\n");
    out.push_str(&rel.to_markdown());

    let mut usage =
        Table::new(vec!["point", "avg usage", "min usage", "max usage", "viol. trials"]);
    for p in points {
        match &p.randomized_usage {
            Some(u) => usage.add_row(vec![
                p.label.clone(),
                format!("{:.3}", u.avg.mean),
                format!("{:.3}", u.min.mean),
                format!("{:.3}", u.max.mean),
                format!("{:.0}%", 100.0 * u.violation_fraction),
            ]),
            None => {
                usage.add_row(vec![p.label.clone(), "-".into(), "-".into(), "-".into(), "-".into()])
            }
        }
    }
    out.push_str("\n### (b) Randomized capacity usage ratio\n\n");
    out.push_str(&usage.to_markdown());

    let mut rt = Table::new(vec!["point", "ILP", "Randomized", "Heuristic", "N (items)"]);
    for p in points {
        let f = |s: &Option<AlgoStats>| {
            s.as_ref().map_or("-".to_string(), |a| expkit::table::fmt_duration_s(a.runtime_s.mean))
        };
        rt.add_row(vec![
            p.label.clone(),
            f(&p.ilp),
            f(&p.randomized),
            f(&p.heuristic),
            format!("{:.0}", p.mean_items),
        ]);
    }
    out.push_str("\n### (c) running time per request\n\n");
    out.push_str(&rt.to_markdown());
    out
}

/// Tiny CLI-flag parser shared by the figure binaries:
/// `--trials N --seed S --threads T --workers W --json PATH
/// --greedy --no-ilp --trace PATH --requests N --policy NAME --duration T
/// --audit-interval T --metrics-interval N|Xs --flight DIR
/// --scenario NAME|PATH`.
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    pub trials: usize,
    pub seed: u64,
    pub threads: usize,
    /// Worker threads for the per-policy fan-out (`sim_exp`). `1` =
    /// sequential; `stream_exp` accepts only `1`. The flag also accepts
    /// `auto`, which resolves via [`default_threads`] at parse time.
    pub workers: usize,
    pub json: Option<String>,
    pub greedy: bool,
    pub ilp: bool,
    /// JSONL telemetry sink (binaries that support tracing).
    pub trace: Option<String>,
    /// Requests per stream (stream binaries only; `None` = binary default).
    pub requests: Option<usize>,
    /// Repair policy (`sim_exp` only; `None` = compare all policies).
    pub policy: Option<String>,
    /// Simulation horizon (`sim_exp` only; `None` = binary default).
    pub duration: Option<f64>,
    /// Audit period of the periodic-audit policy (`sim_exp` only).
    pub audit_interval: Option<f64>,
    /// Windowed telemetry: cut a `*.window` summary every `N` requests
    /// (bare integer) or `X` seconds (`Xs`); suppresses per-request events.
    pub metrics_interval: Option<obs::MetricsInterval>,
    /// Flight-recorder directory (`sim_exp` only): the simulator keeps a
    /// ring of recent raw events and dumps it there on the first SLO
    /// violation.
    pub flight: Option<String>,
    /// Scenario preset name or spec-file path (stream/sim binaries): builds
    /// the network, catalog and lazy request stream from `scen` instead of
    /// the toy workload fixture.
    pub scenario: Option<String>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            trials: 40,
            seed: 0xC0FFEE,
            threads: default_threads(),
            workers: 1,
            json: None,
            greedy: false,
            ilp: true,
            trace: None,
            requests: None,
            policy: None,
            duration: None,
            audit_interval: None,
            metrics_interval: None,
            flight: None,
            scenario: None,
        }
    }
}

impl HarnessArgs {
    pub fn parse(args: impl Iterator<Item = String>) -> Result<HarnessArgs, String> {
        let mut out = HarnessArgs::default();
        let mut it = args;
        while let Some(flag) = it.next() {
            let mut value =
                |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
            match flag.as_str() {
                "--trials" => {
                    out.trials = value("--trials")?.parse().map_err(|e| format!("{e}"))?
                }
                "--seed" => out.seed = value("--seed")?.parse().map_err(|e| format!("{e}"))?,
                "--threads" => {
                    out.threads = value("--threads")?.parse().map_err(|e| format!("{e}"))?
                }
                "--workers" => {
                    let v = value("--workers")?;
                    out.workers = if v == "auto" {
                        default_threads()
                    } else {
                        v.parse().map_err(|e| format!("{e}"))?
                    };
                }
                "--json" => out.json = Some(value("--json")?),
                "--greedy" => out.greedy = true,
                "--no-ilp" => out.ilp = false,
                "--trace" => out.trace = Some(value("--trace")?),
                "--requests" => {
                    out.requests = Some(value("--requests")?.parse().map_err(|e| format!("{e}"))?)
                }
                "--policy" => out.policy = Some(value("--policy")?),
                "--duration" => {
                    out.duration = Some(value("--duration")?.parse().map_err(|e| format!("{e}"))?)
                }
                "--audit-interval" => {
                    out.audit_interval =
                        Some(value("--audit-interval")?.parse().map_err(|e| format!("{e}"))?)
                }
                "--metrics-interval" => {
                    out.metrics_interval =
                        Some(obs::MetricsInterval::parse(&value("--metrics-interval")?)?)
                }
                "--flight" => out.flight = Some(value("--flight")?),
                "--scenario" => out.scenario = Some(value("--scenario")?),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if out.trials == 0 {
            return Err("--trials must be >= 1".into());
        }
        if out.workers == 0 {
            return Err("--workers must be >= 1".into());
        }
        if out.requests == Some(0) {
            return Err("--requests must be >= 1".into());
        }
        if out.duration.is_some_and(|d| !(d > 0.0 && d.is_finite())) {
            return Err("--duration must be positive".into());
        }
        if out.audit_interval.is_some_and(|d| !(d > 0.0 && d.is_finite())) {
            return Err("--audit-interval must be positive".into());
        }
        Ok(out)
    }

    pub fn apply(&self, mut cfg: PointConfig) -> PointConfig {
        cfg.trials = self.trials;
        cfg.master_seed = self.seed;
        cfg.threads = self.threads;
        cfg.algos.greedy = self.greedy;
        cfg.algos.ilp = self.ilp;
        cfg
    }
}

/// Bounded-memory aggregator for sink-driven stream runs: the stream engine
/// hands each [`RequestRecord`] to a callback instead of materializing a
/// result vector, and this accumulator reproduces the harness table's
/// statistics — admitted count, mean reliability, SLO rate, early-vs-late
/// reliability thirds — from O(`cap`) memory. The early/late thirds are
/// exact whenever `admitted <= 3 * cap` (always true for the toy fixtures);
/// beyond that they degrade gracefully to the first/last `cap` admitted
/// samples.
#[derive(Debug, Clone)]
pub struct StreamStats {
    pub total: usize,
    pub admitted: usize,
    pub slo_met: usize,
    sum_reliability: f64,
    first: Vec<f64>,
    last: std::collections::VecDeque<f64>,
    cap: usize,
}

impl Default for StreamStats {
    fn default() -> Self {
        StreamStats::with_cap(4096)
    }
}

impl StreamStats {
    pub fn new() -> StreamStats {
        StreamStats::default()
    }

    pub fn with_cap(cap: usize) -> StreamStats {
        assert!(cap >= 2, "early/late thirds need at least 2 retained samples");
        StreamStats {
            total: 0,
            admitted: 0,
            slo_met: 0,
            sum_reliability: 0.0,
            first: Vec::new(),
            last: std::collections::VecDeque::with_capacity(cap.min(1 << 16)),
            cap,
        }
    }

    pub fn record(&mut self, r: &relaug::stream::RequestRecord) {
        self.total += 1;
        if !r.admitted {
            return;
        }
        self.admitted += 1;
        self.sum_reliability += r.achieved_reliability;
        if r.met_expectation {
            self.slo_met += 1;
        }
        if self.first.len() < self.cap {
            self.first.push(r.achieved_reliability);
        }
        if self.last.len() == self.cap {
            self.last.pop_front();
        }
        self.last.push_back(r.achieved_reliability);
    }

    pub fn rejected(&self) -> usize {
        self.total - self.admitted
    }

    /// Mean achieved reliability over admitted requests.
    pub fn mean_reliability(&self) -> Option<f64> {
        (self.admitted > 0).then(|| self.sum_reliability / self.admitted as f64)
    }

    /// Fraction of admitted requests that met their expectation.
    pub fn expectation_rate(&self) -> Option<f64> {
        (self.admitted > 0).then(|| self.slo_met as f64 / self.admitted as f64)
    }

    /// Mean reliability of the first and last thirds of admitted requests
    /// (the stream-erosion panel); `None` below 4 admissions, mirroring the
    /// harness's historical cutoff.
    pub fn early_late_thirds(&self) -> Option<(f64, f64)> {
        if self.admitted < 4 {
            return None;
        }
        let third = (self.admitted / 3).min(self.cap);
        let early = self.first[..third].iter().sum::<f64>() / third as f64;
        let late = self.last.iter().rev().take(third).sum::<f64>() / third as f64;
        Some((early, late))
    }
}

/// Order-sensitive FNV-1a fold over a [`RequestRecord`]'s observable fields.
/// Sink-driven runs chain this across the stream to compare records between
/// runs and configurations without materializing any of them.
pub fn fold_record_hash(mut h: u64, r: &relaug::stream::RequestRecord) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut eat = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(PRIME);
        }
    };
    eat(r.id as u64);
    eat(r.admitted as u64);
    eat(r.base_reliability.to_bits());
    eat(r.achieved_reliability.to_bits());
    eat(r.met_expectation as u64);
    eat(r.secondaries as u64);
    h
}

/// FNV-1a offset basis — the start value for [`fold_record_hash`] chains.
pub const RECORD_HASH_SEED: u64 = 0xcbf2_9ce4_8422_2325;

/// Serialize results to pretty JSON.
pub fn to_json(points: &[PointResult]) -> String {
    serde_json::to_string_pretty(points).expect("PointResult serializes")
}

/// Convenience: total wall-clock estimate string.
pub fn eta(d: Duration) -> String {
    format!("{:.1} s", d.as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_cfg() -> PointConfig {
        let workload = WorkloadConfig { nodes: 30, sfc_len_range: (3, 3), ..Default::default() };
        let mut cfg = PointConfig::new("test", workload);
        cfg.trials = 4;
        cfg.threads = 2;
        cfg.algos.greedy = true;
        cfg
    }

    #[test]
    fn run_point_produces_all_algorithms() {
        let res = run_point(&quick_cfg());
        assert_eq!(res.trials, 4);
        let ilp = res.ilp.as_ref().expect("ilp ran");
        let rnd = res.randomized.as_ref().expect("randomized ran");
        let heu = res.heuristic.as_ref().expect("heuristic ran");
        assert!(res.greedy.is_some());
        assert!(res.randomized_usage.is_some());
        // The ILP dominates the capacity-feasible heuristic.
        assert!(heu.reliability.mean <= ilp.reliability.mean + 1e-9);
        // All reliabilities are probabilities.
        for s in [&ilp.reliability, &rnd.reliability, &heu.reliability] {
            assert!(s.min >= 0.0 && s.max <= 1.0 + 1e-12);
        }
        let ratio = heu.ratio_to_ilp.as_ref().unwrap();
        assert!(ratio.max <= 1.0 + 1e-9);
    }

    #[test]
    fn parallel_and_sequential_agree() {
        let mut cfg = quick_cfg();
        cfg.threads = 1;
        let seq = run_point(&cfg);
        cfg.threads = 3;
        let par = run_point(&cfg);
        // Same seeds, same trials: deterministic aggregate (runtimes differ).
        let a = seq.ilp.unwrap().reliability;
        let b = par.ilp.unwrap().reliability;
        assert!((a.mean - b.mean).abs() < 1e-12);
        assert!(
            (seq.heuristic.unwrap().reliability.mean - par.heuristic.unwrap().reliability.mean)
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn render_produces_panels() {
        let res = run_point(&quick_cfg());
        let md = render_figure(&[res]);
        assert!(md.contains("(a) achieved SFC reliability"));
        assert!(md.contains("(b) Randomized capacity usage ratio"));
        assert!(md.contains("(c) running time"));
    }

    #[test]
    fn args_parse_round_trip() {
        let args = HarnessArgs::parse(
            [
                "--trials",
                "7",
                "--seed",
                "9",
                "--greedy",
                "--no-ilp",
                "--trace",
                "t.jsonl",
                "--requests",
                "200",
            ]
            .iter()
            .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(args.trials, 7);
        assert_eq!(args.seed, 9);
        assert!(args.greedy);
        assert!(!args.ilp);
        assert_eq!(args.trace.as_deref(), Some("t.jsonl"));
        assert_eq!(args.requests, Some(200));
        let workers = HarnessArgs::parse(["--workers", "4"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(workers.workers, 4);
        for removed in ["--batch", "--commit-order", "--shards"] {
            assert!(
                HarnessArgs::parse([removed.to_string(), "2".to_string()].into_iter()).is_err(),
                "{removed} is not a flag"
            );
        }
        let auto = HarnessArgs::parse(["--workers", "auto"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(auto.workers, default_threads());
        assert!(auto.workers >= 1);
        assert!(HarnessArgs::parse(["--workers".to_string(), "0".to_string()].into_iter()).is_err());
        assert!(
            HarnessArgs::parse(["--workers".to_string(), "many".to_string()].into_iter()).is_err()
        );
        let sim_args = HarnessArgs::parse(
            ["--policy", "reactive", "--duration", "750.5", "--audit-interval", "4"]
                .iter()
                .map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(sim_args.policy.as_deref(), Some("reactive"));
        assert_eq!(sim_args.duration, Some(750.5));
        assert_eq!(sim_args.audit_interval, Some(4.0));
        let obs_args = HarnessArgs::parse(
            ["--metrics-interval", "10000", "--flight", "out/flight"].iter().map(|s| s.to_string()),
        )
        .unwrap();
        assert_eq!(obs_args.metrics_interval, Some(obs::MetricsInterval::Requests(10000)));
        assert_eq!(obs_args.flight.as_deref(), Some("out/flight"));
        let secs =
            HarnessArgs::parse(["--metrics-interval".to_string(), "2.5s".to_string()].into_iter())
                .unwrap();
        assert_eq!(secs.metrics_interval, Some(obs::MetricsInterval::Seconds(2.5)));
        assert!(HarnessArgs::parse(
            ["--metrics-interval".to_string(), "0".to_string()].into_iter()
        )
        .is_err());
        assert!(
            HarnessArgs::parse(["--duration".to_string(), "-1".to_string()].into_iter()).is_err()
        );
        assert!(
            HarnessArgs::parse(["--requests".to_string(), "0".to_string()].into_iter()).is_err()
        );
        assert!(HarnessArgs::parse(["--bogus".to_string()].into_iter()).is_err());
        assert!(HarnessArgs::parse(["--trials".to_string()].into_iter()).is_err());
        assert!(HarnessArgs::parse(["--trials".to_string(), "0".to_string()].into_iter()).is_err());
    }

    #[test]
    fn scenario_flag_parses() {
        let args =
            HarnessArgs::parse(["--scenario", "sagin-1k"].iter().map(|s| s.to_string())).unwrap();
        assert_eq!(args.scenario.as_deref(), Some("sagin-1k"));
        assert!(HarnessArgs::parse(["--scenario".to_string()].into_iter()).is_err());
    }

    #[test]
    fn stream_stats_matches_outcome_statistics() {
        use mecnet::request::SfcRequest;
        use obs::Recorder;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        use relaug::stream::{process_stream_seeded, StreamConfig};

        let wl = WorkloadConfig { nodes: 40, ..Default::default() };
        let mut rng = StdRng::seed_from_u64(3);
        let network = mecnet::workload::generate_network(&wl, &mut rng);
        let catalog = mecnet::workload::generate_catalog(&wl, &mut rng);
        let requests: Vec<SfcRequest> = (0..60)
            .map(|i| SfcRequest::random(i, &catalog, (3, 5), 0.99, wl.nodes, &mut rng))
            .collect();
        let (out, _) = process_stream_seeded(
            &network,
            &catalog,
            &requests,
            &StreamConfig::default(),
            7,
            &mut Recorder::noop(),
        );
        let mut stats = StreamStats::new();
        let mut h = RECORD_HASH_SEED;
        for r in &out.records {
            stats.record(r);
            h = fold_record_hash(h, r);
        }
        assert_eq!(stats.total, out.records.len());
        assert_eq!(stats.admitted, out.admitted());
        assert_eq!(stats.mean_reliability(), out.mean_reliability());
        assert_eq!(stats.expectation_rate(), out.expectation_rate());
        // Thirds reproduce the historical eager computation exactly.
        let adm: Vec<f64> =
            out.records.iter().filter(|r| r.admitted).map(|r| r.achieved_reliability).collect();
        if adm.len() >= 4 {
            let third = adm.len() / 3;
            let (early, late) = stats.early_late_thirds().unwrap();
            assert!((early - adm[..third].iter().sum::<f64>() / third as f64).abs() < 1e-12);
            assert!(
                (late - adm[adm.len() - third..].iter().sum::<f64>() / third as f64).abs() < 1e-12
            );
        }
        // Hash is order-sensitive and reproducible.
        let mut h2 = RECORD_HASH_SEED;
        for r in &out.records {
            h2 = fold_record_hash(h2, r);
        }
        assert_eq!(h, h2);
        let mut h3 = RECORD_HASH_SEED;
        for r in out.records.iter().rev() {
            h3 = fold_record_hash(h3, r);
        }
        assert_ne!(h, h3);
    }

    #[test]
    fn json_serializes() {
        let res = run_point(&quick_cfg());
        let json = to_json(&[res]);
        assert!(json.contains("\"label\""));
        let parsed: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(parsed.as_array().unwrap().len() == 1);
    }

    #[test]
    fn sweep_configs_match_paper() {
        assert_eq!(sweeps::fig1_lengths(), vec![2, 4, 6, 8, 10, 12, 14, 16, 18, 20]);
        assert_eq!(sweeps::fig2_intervals().len(), 4);
        assert_eq!(sweeps::fig3_fractions().len(), 5);
        let p = sweeps::fig3_point(0.5, 10, 1);
        assert_eq!(p.workload.residual_fraction, 0.5);
        let p1 = sweeps::fig1_point(8, 10, 1);
        assert_eq!(p1.workload.sfc_len_range, (8, 8));
    }
}
