//! Zero-allocation gate for the serve steady state.
//!
//! After warmup — slot pool touched end to end, queue ring and worker
//! scratch (sort buffer, batch ops, results, `BatchScratch`) at their
//! high-water marks, every leaf on the traffic's key range already split
//! — submitting, draining and batch-executing more requests must not
//! allocate: not on the client's enqueue path and not on the shard
//! workers' drain/execute path. That property is what keeps the serve
//! tier's latency a measure of episode cost rather than allocator
//! behaviour.
//!
//! The counter filters by thread: the submitting test thread opts in via
//! TLS, shard workers are recognized by their `euno-serve-` thread name,
//! and libtest's bookkeeping threads stay uncounted. Traffic is puts and
//! gets over preloaded keys only (updates, no inserts), so the trees
//! reach a structural steady state too: a split or an epoch-pool growth
//! in the measured window would be a real regression, not noise.
//!
//! Single `#[test]` on purpose: the allocation counter is process-global,
//! and a concurrently scheduled second test would pollute the window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use euno_core::EunoConfig;
use euno_serve::{EunoServer, Request, ServeConfig};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Arms counting on the named worker threads (the test thread uses TLS).
static COUNT_WORKERS: AtomicBool = AtomicBool::new(false);

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Cached "is this a shard worker" per thread; `None` until probed.
    /// The probe calls `thread::current()` once outside the measured
    /// window semantics (it may allocate a handle clone — counted only
    /// if it happens while armed, which warmup prevents).
    static IS_WORKER: Cell<Option<bool>> = const { Cell::new(None) };
}

fn counted_thread() -> bool {
    if COUNTING.with(|c| c.get()) {
        return true;
    }
    if !COUNT_WORKERS.load(Ordering::Relaxed) {
        return false;
    }
    IS_WORKER.with(|w| {
        if let Some(v) = w.get() {
            return v;
        }
        // First probe on this thread: std::thread::current() itself must
        // not recurse fatally — it clones an Arc (no alloc on the hot
        // path after the handle exists, which spawn guaranteed).
        let v = std::thread::current()
            .name()
            .is_some_and(|n| n.starts_with("euno-serve-"));
        w.set(Some(v));
        v
    })
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counted_thread() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counted_thread() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const KEYS: u64 = 4_096;

/// One round of mixed traffic: puts and gets over the preloaded range,
/// each ticket dropped at once (the worker recycles its slot), then wait for the queues to drain so every allocation the
/// round could trigger lands inside the armed window.
fn run_round(srv: &EunoServer, rounds: u64, salt: u64) {
    for i in 0..rounds {
        for key in (0..KEYS).step_by(7) {
            let req = if (key ^ i) & 1 == 0 {
                Request::Get { key }
            } else {
                Request::Put {
                    key,
                    value: salt + i,
                }
            };
            while srv.submit(req).is_err() {
                std::thread::yield_now();
            }
        }
        while srv.queue_depth() > 0 {
            std::thread::yield_now();
        }
    }
}

#[test]
fn steady_state_serve_does_not_allocate() {
    for tree_config in [EunoConfig::paper(), EunoConfig::default()] {
        let srv = EunoServer::start(ServeConfig {
            shards: 2,
            queue_capacity: 256,
            batch_max: 16,
            tree_config,
        });
        // Preload the whole traffic range: the measured phase only updates,
        // so no leaf splits and no fresh node allocations are legitimate.
        srv.preload_dense(KEYS, |k| k);

        // Warmup: high-water-mark every reusable buffer on both sides of the
        // queue, in both batch shapes (full drains under backlog, singletons
        // as the queue empties), and let the epoch pools and the engine's
        // episode scratch reach steady state.
        run_round(&srv, 24, 1 << 32);

        COUNTING.with(|c| c.set(true));
        COUNT_WORKERS.store(true, Ordering::SeqCst);
        let before = ALLOCS.load(Ordering::SeqCst);

        run_round(&srv, 8, 1 << 33);

        let after = ALLOCS.load(Ordering::SeqCst);
        COUNT_WORKERS.store(false, Ordering::SeqCst);
        COUNTING.with(|c| c.set(false));
        assert_eq!(
            after - before,
            0,
            "steady-state serve traffic allocated {} times",
            after - before
        );

        srv.shutdown();
    }
}
