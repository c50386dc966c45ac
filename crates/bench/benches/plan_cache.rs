//! Allocation audit of the plan-cache hot lookup path.
//!
//! Pins the two properties the cache's per-request overhead rests on:
//!
//! 1. **Interned chain signatures** — `SfcRequest` carries its
//!    [`mecnet::chain_signature`] precomputed at construction, so building a
//!    [`relaug::plancache::PlanKey`] is pure integer arithmetic. The bench
//!    verifies every streamed request's interned signature against a fresh
//!    rehash, then times key construction from the interned field.
//! 2. **Allocation-free lookups** — after the cache is populated, a
//!    key-build + probe on the hot path must perform **zero** heap
//!    allocations, hit or miss (a stale-drop frees, but never allocates). A
//!    counting `#[global_allocator]` wrapped around `System` counts every
//!    `alloc`/`realloc`; the binary prints per-lookup cost and exits
//!    non-zero if any allocation slipped into the loop — CI can run it as a
//!    regression gate (`QUICK=1` shrinks the pass count).
//!
//! Not a criterion bench on purpose: a counting global allocator would also
//! count criterion's own bookkeeping, so this is a plain `harness = false`
//! main with hand-rolled measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Instant;

use mecnet::chain_signature;
use mecnet::request::SfcRequest;
use relaug::plancache::{PlanCache, PlanEntry, PlanKey, Probe};
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

const CACHE_ENTRIES: usize = 4096;
const L: u32 = 1;

fn main() {
    let quick = std::env::var_os("QUICK").is_some();
    let passes = if quick { 20 } else { 200 };

    // Materialize a request working set once, outside the counted region.
    let built = ScenarioSpec::preset("waxman-100").expect("known preset").build();
    let requests: Vec<SfcRequest> = RequestStream::new(&built, 2_000).collect();

    // Interning correctness: every streamed request's precomputed signature
    // matches a fresh rehash of its chain.
    for req in &requests {
        assert_eq!(
            req.chain_sig,
            chain_signature(&req.sfc),
            "request {} carries a stale interned chain signature",
            req.id
        );
    }

    // Populate the cache with an entry per distinct key (insertion allocates
    // by design — entries own their debit vectors; only lookups must not).
    let mut cache = PlanCache::new(CACHE_ENTRIES);
    let mut inserted = 0usize;
    for req in &requests {
        let key = PlanKey::for_request(req, L);
        let debits: Vec<_> = req.sfc.iter().map(|_| (req.source, 1.0)).collect();
        let entry = PlanEntry::new(
            key,
            req.sfc.clone(),
            vec![req.source; req.sfc.len()],
            vec![1; req.sfc.len()],
            &debits,
            0.9,
            0.999,
            1.0,
        );
        inserted += 1;
        cache.insert(entry);
    }

    // Hot path: key build + probe, hit or miss, must not allocate. The
    // validate closure mirrors the engine's cheapest accept (returning a
    // Copy summary) without touching capacity.
    let mut warm = |reqs: &[SfcRequest]| {
        let mut hits = 0u64;
        for req in reqs {
            let key = PlanKey::for_request(req, L);
            if let Probe::Hit(()) = cache.probe(&key, &req.sfc, |_entry| Some(())) {
                hits += 1;
            }
        }
        hits
    };
    warm(&requests); // fault in lazy branch state before counting

    let before = ALLOCS.load(Relaxed);
    let started = Instant::now();
    let mut hits = 0u64;
    for _ in 0..passes {
        hits += warm(&requests);
    }
    let elapsed = started.elapsed();
    let allocs = ALLOCS.load(Relaxed) - before;

    let lookups = (passes * requests.len()) as u64;
    println!(
        "plan_cache: {lookups} lookups ({hits} hits) over {inserted} insertions in {:.3}s — \
         {:.0} ns/lookup, {allocs} allocations in the hot loop",
        elapsed.as_secs_f64(),
        elapsed.as_nanos() as f64 / lookups as f64,
    );

    // Contrast: the same keys built by rehashing the chain every time — what
    // interning at `SfcRequest` construction saves on every probe.
    let started = Instant::now();
    let mut sink = 0u64;
    for _ in 0..passes {
        for req in &requests {
            let key =
                PlanKey { chain_sig: chain_signature(&req.sfc), ..PlanKey::for_request(req, L) };
            sink = sink.wrapping_add(key.chain_sig);
        }
    }
    let rehash = started.elapsed();
    println!(
        "plan_cache: key via interned sig amortizes the {:.0} ns/key chain rehash \
         (checksum {sink:x})",
        rehash.as_nanos() as f64 / lookups as f64,
    );

    if allocs > 0 {
        eprintln!("plan_cache: FAIL — {allocs} allocations on the lookup hot path");
        std::process::exit(1);
    }
    println!("plan_cache: OK — lookup hot path is allocation-free");
}
