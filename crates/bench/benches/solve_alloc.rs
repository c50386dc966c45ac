//! Allocation audit of the heuristic steady-state solve path.
//!
//! Pins the zero-alloc contract of [`relaug::scratch::SolveScratch`]: after a
//! warm-up pass grows every scratch buffer to its high-water mark, running
//! [`relaug::heuristic::solve_in`] over the same instances again must perform
//! **zero** heap allocations. A counting `#[global_allocator]` wrapped around
//! `System` counts every `alloc`/`realloc`; the binary prints the per-request
//! allocation count and exits non-zero if any allocation slipped back into
//! the hot loop — CI runs it as a regression gate (`QUICK=1` shrinks the
//! instance set and pass count).
//!
//! Not a criterion bench on purpose: a counting global allocator would also
//! count criterion's own bookkeeping, so this is a plain `harness = false`
//! main with hand-rolled measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use mecnet::workload::{generate_scenario, WorkloadConfig};
use obs::Recorder;
use rand::rngs::StdRng;
use rand::SeedableRng;
use relaug::heuristic::{self, HeuristicConfig};
use relaug::instance::AugmentationInstance;
use relaug::SolveScratch;

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

fn main() {
    // `cargo bench` passes harness flags like `--bench`; ignore them.
    let quick = std::env::var_os("QUICK").is_some();
    let instances_n = if quick { 8 } else { 32 };
    let passes = if quick { 5 } else { 50 };

    let wl = WorkloadConfig::default();
    let mut rng = StdRng::seed_from_u64(SEED);
    let instances: Vec<AugmentationInstance> = (0..instances_n)
        .map(|_| {
            let scenario = generate_scenario(&wl, &mut rng);
            AugmentationInstance::from_scenario(&scenario, 1)
        })
        .collect();

    // Both solver configurations share the zero-alloc contract: the ladder
    // matcher (default) and the batch_rounds b-matching ablation.
    let configs: [(&str, HeuristicConfig); 2] = [
        ("default", HeuristicConfig::default()),
        ("batch", HeuristicConfig { batch_rounds: true, ..Default::default() }),
    ];

    let mut rec = Recorder::noop();
    let mut scratch = SolveScratch::new();
    let mut failed = false;
    for (label, cfg) in &configs {
        let mut rounds = 0usize;
        // Warm-up: two full passes grow every buffer to its high-water mark.
        for _ in 0..2 {
            for inst in &instances {
                rounds += heuristic::solve_in(inst, cfg, &mut rec, &mut scratch);
            }
        }

        let before = ALLOCS.load(Relaxed);
        let started = Instant::now();
        for _ in 0..passes {
            for inst in &instances {
                rounds += heuristic::solve_in(inst, cfg, &mut rec, &mut scratch);
            }
        }
        let elapsed = started.elapsed();
        let allocs = ALLOCS.load(Relaxed) - before;

        let solves = (passes * instances.len()) as u64;
        println!(
            "solve_alloc[{label}]: {instances_n} instances x {passes} passes = {solves} solves"
        );
        println!(
            "solve_alloc[{label}]: {allocs} heap allocations after warm-up \
             ({:.4} allocs/request)",
            allocs as f64 / solves as f64
        );
        println!(
            "solve_alloc[{label}]: {:.2} us/solve, {} matching rounds total",
            elapsed.as_secs_f64() * 1e6 / solves as f64,
            rounds
        );
        if allocs > 0 {
            eprintln!(
                "solve_alloc[{label}]: FAIL — the heuristic steady-state path must not allocate"
            );
            failed = true;
        }
    }
    if failed {
        std::process::exit(1);
    }
    println!("solve_alloc: OK — zero allocations per request on the steady-state path");
}
