//! Allocation budget for a single-threaded preload on the virtual clock.
//!
//! An ascending load of even keys, pruned at the loading thread's own
//! clock every 64 puts as the repo benchmark's `preload_even` does, is the
//! regime every lone-thread driver runs in: each prune drops the whole
//! committed window, so the line index is swept empty again and again.
//! What a put may allocate there is the nodes a split creates and the
//! engine tables' amortized growth; the per-episode bookkeeping (index
//! access lists, footprints, split scratch) must come from buffers that
//! are reused. Counting allocations and reallocations alike, as the
//! allocator below does, 60 000 puts measured 0.19 a put — the leaves,
//! index nodes and node-table entries splits create — against 2.45
//! before the line index recycled its spill buffers, and 0.42 with that
//! alone, before a split's scratch moved onto the stack.
//!
//! Single `#[test]` on purpose: the allocation counter is process-global,
//! so a concurrently scheduled second test would pollute the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use euno_core::EunoBTreeDefault;
use euno_htm::{ConcurrentMap, Runtime};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// Count only the test thread: libtest's own threads allocate whenever
// they like. Const-initialized so reading the flag in the allocator never
// itself allocates TLS storage.
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

const PUTS: u64 = 60_000;
const PRUNE_EVERY: u64 = 64;
const BUDGET_PER_PUT: f64 = 0.25;

#[test]
fn a_virtual_preload_stays_within_its_allocation_budget() {
    let rt = Runtime::new_virtual();
    let tree = EunoBTreeDefault::new(Arc::clone(&rt));
    let mut ctx = rt.thread(0x10ad);

    COUNTING.with(|c| c.set(true));
    let before = ALLOCS.load(Ordering::Relaxed);
    for i in 0..PUTS {
        tree.put(&mut ctx, 2 * i, i);
        if i % PRUNE_EVERY == 0 {
            rt.virt_prune(ctx.clock);
        }
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    COUNTING.with(|c| c.set(false));

    let per_put = allocs as f64 / PUTS as f64;
    eprintln!("preload: {allocs} allocations in {PUTS} puts ({per_put:.3} a put)");
    assert_eq!(tree.stats().live_records, PUTS as usize, "every put landed");
    assert!(
        per_put <= BUDGET_PER_PUT,
        "{per_put:.3} allocations a put, budget {BUDGET_PER_PUT}"
    );
}
