//! Zero-allocation gate for range scans on the wall-clock path.
//!
//! A scan reads each leaf straight onto the tail of the caller's buffer
//! and sorts it there, so once that buffer has reached its high-water
//! mark (the requested count plus one leaf of raw records) and the
//! engine's episode scratch is warm, scanning must not touch the heap.
//!
//! Single `#[test]` on purpose: the allocation counter is process-global,
//! so a concurrently scheduled second test would pollute the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use euno_core::{EunoBTreeDefault, EunoConfig};
use euno_htm::{ConcurrentMap, Runtime, ThreadCtx};

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

const KEYS: u64 = 20_000;
const SCAN_LEN: usize = 16;

/// Scans of 16 from cursors spread over the whole tree, tombstoned
/// stretch included; returns the records delivered.
fn run_scans(
    tree: &EunoBTreeDefault,
    ctx: &mut ThreadCtx,
    out: &mut Vec<(u64, u64)>,
    n: u64,
) -> usize {
    let mut delivered = 0;
    for i in 0..n {
        out.clear();
        delivered += tree.scan(ctx, (i * 7_919) % KEYS, SCAN_LEN, out);
    }
    delivered
}

#[test]
fn steady_state_scans_do_not_allocate() {
    for cfg in [EunoConfig::paper(), EunoConfig::default()] {
        let rt = Runtime::new_concurrent();
        let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), cfg);
        let mut ctx = rt.thread(1);
        for key in 0..KEYS {
            tree.put(&mut ctx, key, key);
        }
        // A run of record-less leaves, so steps with an empty batch are in
        // the measured window too.
        for key in 5_000..6_000 {
            tree.delete(&mut ctx, key);
        }
        let mut out = Vec::with_capacity(SCAN_LEN);
        run_scans(&tree, &mut ctx, &mut out, 2_000);

        COUNTING.with(|c| c.set(true));
        let before = ALLOCS.load(Ordering::SeqCst);
        let delivered = run_scans(&tree, &mut ctx, &mut out, 10_000);
        let after = ALLOCS.load(Ordering::SeqCst);
        COUNTING.with(|c| c.set(false));

        assert!(delivered > 100_000, "the scans did real work: {delivered}");
        assert_eq!(
            after - before,
            0,
            "steady-state scans allocated {} times",
            after - before
        );
    }
}
