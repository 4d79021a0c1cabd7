//! Zero-allocation gate for the metrics sampling hot path.
//!
//! The sampler runs *inside* the measured region of every instrumented
//! run, so it must not perturb the engine's own zero-allocation property:
//! after `TimeSeries::new` preallocates the snapshot ring, shard
//! increments, latency records, flip-log appends and `sample()` itself
//! must perform no heap allocation. Same counting-global-allocator
//! harness as `euno-htm/tests/zero_alloc.rs`; single `#[test]` on
//! purpose — the allocation counter is process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use euno_metrics::{Counter, Gauge, Registry, TimeSeries};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// Count only the test thread's allocations: the libtest harness keeps a
// main thread alive (slow-test timers, result channels) that can allocate
// mid-window when the machine is loaded, and a process-global count would
// blame the sampler for it. Const-initialized so reading the flag inside
// the allocator never itself allocates TLS storage.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(|c| c.get()) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(|c| c.get()) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

#[test]
fn sampling_hot_path_does_not_allocate() {
    // Setup phase: registry, four shards, the ring — all allocation
    // happens here, before the measured window.
    let reg = Registry::new();
    let shards: Vec<_> = (0..4).map(|_| reg.register_shard()).collect();
    let mut ts = TimeSeries::new(10, 128);

    // Warm the ring through a full wrap so overwrite paths are exercised
    // inside the measured window too.
    for (t, shard) in (0..8u64).zip(shards.iter().cycle()) {
        shard.add(Counter::Ops, 1);
        ts.sample(t, &reg);
    }

    COUNTING.with(|c| c.set(true));
    let before = ALLOCS.load(Ordering::Relaxed);

    // Measured window: the full per-op metric surface — counter adds,
    // latency records, gauge stores, flip-log appends and ring samples
    // (enough to wrap the 128-slot ring several times).
    for t in 0..1000u64 {
        let shard = &shards[(t % 4) as usize];
        shard.add(Counter::Attempts, 1);
        shard.add(Counter::Commits, 1);
        shard.add(Counter::Ops, 2);
        shard.record_latency(100 + t % 917);
        reg.set_gauge(Gauge::EpochRetiredPending, t);
        if t % 50 == 0 {
            reg.record_flip(t, 0xabc, t % 100 == 0);
            reg.mark_shift(t);
        }
        ts.sample(t * 10, &reg);
    }

    let during = ALLOCS.load(Ordering::Relaxed) - before;
    COUNTING.with(|c| c.set(false));
    assert_eq!(
        during, 0,
        "metrics sampling hot path allocated {during} times in 1000 samples"
    );

    // Sanity: the window actually exercised what it claims.
    assert!(ts.dropped() > 0, "ring never wrapped");
    assert_eq!(reg.total(Counter::Ops), 8 + 2000);
    assert!(reg.merged_histogram().count() >= 1000);
}
