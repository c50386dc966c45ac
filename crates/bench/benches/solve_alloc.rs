//! Allocation audit of the heuristic steady-state solve path, of the
//! stream engine around it, of the engine's exact (ILP) path, and of
//! building a recorder.
//!
//! Pins the zero-alloc contract of [`relaug::scratch::SolveScratch`]: after a
//! warm-up pass grows every scratch buffer to its high-water mark, running
//! [`relaug::heuristic::solve_in`] over the same instances again must perform
//! **zero** heap allocations. A counting `#[global_allocator]` wrapped around
//! `System` counts every `alloc`/`realloc`; the binary prints the per-request
//! allocation count and exits non-zero if any allocation slipped back into
//! the hot loop — CI runs it as a regression gate (`QUICK=1` shrinks the
//! instance set). The per-solve timing line is the median pass over at
//! least 800 solves, so even QUICK gives a readable figure.
//!
//! The engine section runs 3,000-request sagin-1k and ba-1k preset streams
//! through [`relaug::stream::process_stream_seeded_sink`] with a no-op
//! recorder and counts the allocations between consecutive records after
//! the first 200 requests. The requests are generated up front and handed
//! over by value, so no clone allocates. Every counted rejected request
//! must allocate nothing, and so must the median admitted request. The ILP
//! section runs the same 3,000-request ba-1k stream under
//! `Algorithm::Ilp(IlpConfig::default())` with the same gate: every
//! component's sub-instance, aggregated model, greedy warm start and
//! branch-and-bound search reuse the stream's scratch. Building a no-op or
//! counters-only [`obs::Recorder`] must allocate nothing either: its
//! metrics registry is inline arrays.
//!
//! The admitted means above 0 (about 0.05 per request in the ILP section,
//! 0.08–0.09 in the engine sections, over ~900 admitted requests each) are
//! high-water growth, not a per-request allocation: a request allocates
//! only when it is the first to need more room in some reused buffer.
//! Recording a backtrace per counted allocation of the ILP section's
//! ba-1k stream found 48 allocations in 12 of 984 admitted requests,
//! spread over the whole stream. 42 of them happen inside
//! `relaug::ilp::solve_in`: mostly `milp`'s branch-and-bound buffers (basis
//! snapshots, the node pool, the standard form) and the component split,
//! sub-instance and aggregated model, grown the first time a larger
//! coupled component reaches branch and bound, plus a few `Augmentation`
//! rows. The other 6 are the engine's in-place instance rebuild
//! (`AugmentationInstance::rebuild_localized`'s eligible-bin lists). The
//! engine sections grow the same rows and instance, the ladder matcher's
//! buffers, and the ladder tables, which extend a table on the first read
//! of a deeper rung. A longer warm-up shrinks the mean; the gate stays on
//! the median.
//!
//! Not a criterion bench on purpose: a counting global allocator would also
//! count criterion's own bookkeeping, so this is a plain `harness = false`
//! main with hand-rolled measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use mecnet::request::SfcRequest;
use mecnet::workload::{generate_scenario, WorkloadConfig};
use obs::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use relaug::heuristic::{self, HeuristicConfig};
use relaug::ilp::IlpConfig;
use relaug::instance::AugmentationInstance;
use relaug::solution::SolverInfo;
use relaug::stream::{process_stream_seeded_sink, Algorithm, StreamConfig};
use relaug::SolveScratch;
use scen::{RequestStream, ScenarioSpec};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const SEED: u64 = 42;

/// Requests per engine stream, and how many of them warm the engine up
/// before counting starts.
const ENGINE_REQUESTS: u64 = 3_000;
const ENGINE_WARM_UP: usize = 200;

fn main() {
    // `cargo bench` passes harness flags like `--bench`; ignore them.
    let quick = std::env::var_os("QUICK").is_some();
    let instances_n = if quick { 8 } else { 32 };
    let passes = if quick { 100 } else { 50 };

    let wl = WorkloadConfig::default();
    let mut rng = StdRng::seed_from_u64(SEED);
    let instances: Vec<AugmentationInstance> = (0..instances_n)
        .map(|_| {
            let scenario = generate_scenario(&wl, &mut rng);
            AugmentationInstance::from_scenario(&scenario, 1)
        })
        .collect();

    let cfg = HeuristicConfig::default();
    let mut rec = Recorder::noop();
    let mut scratch = SolveScratch::new();
    let mut rounds = 0usize;
    let mut solve = |inst: &AugmentationInstance| {
        let SolverInfo::Heuristic { matching_rounds } =
            heuristic::solve_in(inst, &cfg, &mut rec, &mut scratch)
        else {
            unreachable!("the heuristic reports matching rounds")
        };
        rounds += matching_rounds;
    };
    // Warm-up: two full passes grow every buffer to its high-water mark.
    for _ in 0..2 {
        instances.iter().for_each(&mut solve);
    }

    let mut pass_s = Vec::with_capacity(passes);
    let before = ALLOCS.load(Relaxed);
    for _ in 0..passes {
        let started = Instant::now();
        instances.iter().for_each(&mut solve);
        pass_s.push(started.elapsed().as_secs_f64());
    }
    let allocs = ALLOCS.load(Relaxed) - before;
    pass_s.sort_by(f64::total_cmp);

    let solves = (passes * instances.len()) as u64;
    println!("solve_alloc[heuristic]: {instances_n} instances x {passes} passes = {solves} solves");
    println!(
        "solve_alloc[heuristic]: {allocs} heap allocations after warm-up \
         ({:.4} allocs/request)",
        allocs as f64 / solves as f64
    );
    println!(
        "solve_alloc[heuristic]: {:.2} us/solve (median of {passes} passes), {} matching rounds \
         total",
        pass_s[passes / 2] * 1e6 / instances.len() as f64,
        rounds
    );
    let mut failed = allocs > 0;
    if failed {
        eprintln!(
            "solve_alloc[heuristic]: FAIL — the heuristic steady-state path must not allocate"
        );
    }
    let before = ALLOCS.load(Relaxed);
    std::hint::black_box(Recorder::noop());
    std::hint::black_box(Recorder::counters_only());
    let recorder_allocs = ALLOCS.load(Relaxed) - before;
    println!(
        "solve_alloc[recorder]: {recorder_allocs} heap allocations to build a no-op and a \
         counters-only recorder"
    );
    if recorder_allocs > 0 {
        failed = true;
        eprintln!("solve_alloc[recorder]: FAIL — building a recorder must not allocate");
    }
    for preset in ["sagin-1k", "ba-1k"] {
        failed |= !engine_gate(preset, "engine", Algorithm::default());
    }
    failed |= !engine_gate("ba-1k", "ilp", Algorithm::Ilp(IlpConfig::default()));
    if failed {
        std::process::exit(1);
    }
    println!(
        "solve_alloc: OK — zero allocations per warm solve, per recorder built, per rejected \
         request and per admitted request (median), heuristic and ILP"
    );
}

/// Mean and median of per-request allocation counts (`0, 0` when empty).
fn mean_median(counts: &mut [u64]) -> (f64, u64) {
    if counts.is_empty() {
        return (0.0, 0);
    }
    counts.sort_unstable();
    (counts.iter().sum::<u64>() as f64 / counts.len() as f64, counts[counts.len() / 2])
}

/// Run the engine with `algorithm` over a preset stream and gate its
/// allocations per request. Returns whether the gate holds.
fn engine_gate(preset: &str, label: &str, algorithm: Algorithm) -> bool {
    let built = ScenarioSpec::preset(preset).expect("known preset").build();
    let requests: Vec<SfcRequest> = RequestStream::new(&built, ENGINE_REQUESTS).collect();
    let cfg = StreamConfig { algorithm, ..StreamConfig::default() };
    let mut admitted: Vec<u64> = Vec::with_capacity(requests.len());
    let mut rejected: Vec<u64> = Vec::with_capacity(requests.len());
    let mut seen = 0usize;
    let mut last = ALLOCS.load(Relaxed);
    process_stream_seeded_sink(
        &built.network,
        &built.catalog,
        requests,
        &cfg,
        built.spec.seed,
        &mut Recorder::noop(),
        &mut |r| {
            let allocs = ALLOCS.load(Relaxed) - last;
            if seen >= ENGINE_WARM_UP {
                if r.admitted {
                    admitted.push(allocs);
                } else {
                    rejected.push(allocs);
                }
            }
            seen += 1;
            last = ALLOCS.load(Relaxed);
        },
    );
    let (admitted_n, rejected_n) = (admitted.len(), rejected.len());
    let reject_max = rejected.iter().copied().max().unwrap_or(0);
    let (admit_mean, admit_median) = mean_median(&mut admitted);
    let (reject_mean, _) = mean_median(&mut rejected);
    println!(
        "solve_alloc[{label} {preset}]: {admitted_n} admitted, allocs/request mean \
         {admit_mean:.2} median {admit_median}; {rejected_n} rejected, mean {reject_mean:.2} \
         max {reject_max}"
    );
    let ok = reject_max == 0 && admit_median == 0;
    if !ok {
        eprintln!(
            "solve_alloc[{label} {preset}]: FAIL — neither a rejected request nor the median \
             admitted request may allocate"
        );
    }
    ok
}
