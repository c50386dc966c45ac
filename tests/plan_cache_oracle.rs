//! Differential-oracle property suite for the admission plan cache
//! (`relaug::plancache`).
//!
//! Cached mode is deliberately *not* byte-identical to the uncached stream
//! engine — a hit admits a memoized plan without re-running the solver, so
//! the admitted set can differ (only ever conservatively: every hit is
//! re-validated against live residuals and the live reliability catalog).
//! The contract is therefore checked as invariants, with the solver itself
//! as the oracle:
//!
//! * **size 0 is inert** — `plan_cache: 0` (the default) produces a
//!   [`StreamOutcome`] byte-identical to the plain uncached engine, and no
//!   plan-cache report is attached to the observation;
//! * **feasibility** — with any cache size, final residuals stay within
//!   `[0, initial]` on every node: revalidated hits can never overcommit;
//! * **threshold** — every admitted record that claims `met_expectation`
//!   achieves at least the stream's reliability expectation;
//! * **ledger == admissions** — the pipeline's `admitted` counter equals the
//!   number of admitted records, and every request yields exactly one record
//!   in id order;
//! * **counter coherence** — every request is exactly one of: watermark
//!   gate-rejected (`reject_hits`), cache-admitted (`hits`), or probed and
//!   missed (`misses`; a failed validation counts as a miss too);
//! * **cost oracle** — the sweep runs with the `plan_cache_oracle` hook
//!   enabled, so inside the engine every single hit re-runs the fresh solve
//!   on the cached primaries against the *same* residual state and asserts
//!   the cached plan's paper-cost is never better than what the solver
//!   would produce now (an assertion failure there fails the test).
//!
//! The vendored proptest stub is deterministic (per-test-name seed, no
//! shrinking), so every run exercises the same instances.

use mec_sfc_reliability::mecnet::SfcRequest;
use mec_sfc_reliability::obs::Recorder;
use mec_sfc_reliability::relaug::greedy::GreedyConfig;
use mec_sfc_reliability::relaug::heuristic::HeuristicConfig;
use mec_sfc_reliability::relaug::stream::{
    process_stream_seeded, Algorithm, StreamConfig, StreamObservation, StreamOutcome,
};
use mec_sfc_reliability::scen::{BuiltScenario, RequestStream, ScenarioSpec};
use proptest::prelude::*;

const PRESETS: [&str; 2] = ["waxman-100", "fattree-16"];

fn scenario(preset: &str) -> BuiltScenario {
    ScenarioSpec::preset(preset).expect("known preset").build()
}

fn requests(built: &BuiltScenario, n: u64) -> Vec<SfcRequest> {
    RequestStream::new(built, n).collect()
}

fn algorithm(greedy: bool) -> Algorithm {
    if greedy {
        Algorithm::Greedy(GreedyConfig::default())
    } else {
        Algorithm::Heuristic(HeuristicConfig::default())
    }
}

/// The invariants every cached run must satisfy, regardless of hit pattern.
fn check_cached_invariants(
    built: &BuiltScenario,
    reqs: &[SfcRequest],
    out: &StreamOutcome,
    ob: &StreamObservation,
    cache_size: usize,
) {
    let label = format!("{} cache={cache_size}", built.spec.name);

    // Feasibility: residuals never leave [0, initial] on any node.
    let initial = built.network.residual_capacities(1.0);
    assert_eq!(out.final_residual.len(), initial.len());
    for (v, (&res, &init)) in out.final_residual.iter().zip(&initial).enumerate() {
        assert!(
            (-1e-9..=init + 1e-9).contains(&res),
            "{label}: node {v} residual {res} outside [0, {init}] — overcommit"
        );
    }

    // Ledger == admissions: one record per request, in id order, and the
    // pipeline's admitted counter matches the records.
    assert_eq!(out.records.len(), reqs.len(), "{label}: exactly one record per request");
    for (k, rec) in out.records.iter().enumerate() {
        assert_eq!(rec.id, reqs[k].id, "{label}: record {k} out of order");
    }
    assert_eq!(
        ob.pipeline.counter("admitted"),
        out.admitted() as u64,
        "{label}: admitted counter disagrees with the records"
    );

    // Threshold: an admitted record claiming `met_expectation` really
    // achieves the request's reliability expectation.
    for (rec, req) in out.records.iter().zip(reqs) {
        if rec.admitted && rec.met_expectation {
            assert!(
                rec.achieved_reliability >= req.expectation - 1e-9,
                "{label}: request {} admitted at {} < expectation {}",
                rec.id,
                rec.achieved_reliability,
                req.expectation
            );
        }
    }

    // Counter coherence: gate-reject | hit | miss partitions the stream.
    let report = ob.plan_cache.expect("cached run attaches a plan-cache report");
    assert_eq!(report.capacity, cache_size as u64, "{label}: reported capacity");
    assert_eq!(
        report.hits + report.reject_hits + report.misses,
        reqs.len() as u64,
        "{label}: every request must be gate-rejected, hit, or missed"
    );
    assert!(
        report.validation_failures <= report.misses,
        "{label}: validation failures are a subset of misses"
    );
    assert!(
        report.epoch_skips <= report.hits,
        "{label}: epoch fast-path skips are a subset of hits"
    );
    assert!(
        report.evictions <= report.insertions,
        "{label}: cannot evict more entries than were ever inserted"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]
    #[test]
    fn cached_runs_are_feasible_reliable_and_accounted(
        preset_idx in 0usize..PRESETS.len(),
        greedy in any::<bool>(),
        seed in 0u64..1_000_000,
    ) {
        let built = scenario(PRESETS[preset_idx]);
        let reqs = requests(&built, 300);
        let base_cfg = StreamConfig { algorithm: algorithm(greedy), ..Default::default() };
        let (baseline, _) = process_stream_seeded(
            &built.network,
            &built.catalog,
            &reqs,
            &base_cfg,
            seed,
            &mut Recorder::noop(),
        );

        for cache_size in [0usize, 16, 4096] {
            let cfg = StreamConfig {
                plan_cache: cache_size,
                // Cost oracle: every hit re-solves fresh on the same residual
                // state inside the engine and asserts cached cost >= fresh.
                plan_cache_oracle: true,
                ..base_cfg.clone()
            };
            let (out, ob) = process_stream_seeded(
                &built.network,
                &built.catalog,
                &reqs,
                &cfg,
                seed,
                &mut Recorder::noop(),
            );
            if cache_size == 0 {
                // Size 0 keeps the byte-identity contract: same records, same
                // final residuals, no cache plumbing visible in the output.
                prop_assert_eq!(&out, &baseline, "plan_cache: 0 must be inert");
                prop_assert!(ob.plan_cache.is_none(), "size 0 must not attach a report");
            } else {
                check_cached_invariants(&built, &reqs, &out, &ob, cache_size);
            }
        }
    }
}

/// Guarantees the sweep above is not vacuous: with single-function chains
/// and a hard Zipf endpoint skew, `(source, chain)` pairs repeat while the
/// network still has room, so the cached engine must actually hit — and
/// the in-engine cost oracle genuinely re-solves and compares on this run.
/// (The preset defaults — 3–6-function chains on a network that saturates
/// after a few dozen admissions — push almost every request through the
/// watermark gate before any key can repeat, which is why the spec is
/// narrowed here: `ba-1k` has the capacity to keep probing.)
#[test]
fn sequential_cache_engages_and_survives_the_cost_oracle() {
    let mut spec = ScenarioSpec::preset("ba-1k").expect("known preset");
    spec.stream.sfc_len_range = (1, 1);
    spec.stream.popularity_skew = 2.0;
    let built = spec.build();
    let reqs = requests(&built, 1_000);
    let cfg = StreamConfig { plan_cache: 4096, plan_cache_oracle: true, ..Default::default() };
    let (out, ob) = process_stream_seeded(
        &built.network,
        &built.catalog,
        &reqs,
        &cfg,
        11,
        &mut Recorder::noop(),
    );
    check_cached_invariants(&built, &reqs, &out, &ob, 4096);
    let pc = ob.plan_cache.expect("cached run attaches a report");
    assert!(
        pc.hits > 0,
        "Zipf-skewed stream of 1000 requests produced no cache hits — the \
         oracle sweep is not exercising the hit path"
    );
    assert!(pc.insertions > 0, "admitted fresh solves must populate the cache");
}
