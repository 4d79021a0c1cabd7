//! Retention gate for the node table.
//!
//! Trees register a node at every allocation and the engine classifies a
//! line at every conflict, so registrations and lookups interleave for
//! the whole life of a run. The table must cost memory in proportion to
//! the nodes it describes: a structure that republishes itself on the
//! first lookup after each registration and keeps the superseded copies
//! costs ~N²/2 entries for N interleaved registrations, and a sorted
//! vector pays a memmove per descending insert. This test counts bytes
//! through a counting global allocator and holds both what is allocated
//! in total and what is still live to a small multiple of N entries, in
//! both address orders.
//!
//! Single `#[test]` on purpose: the byte counters are process-global.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use euno_htm::{LineClass, LineId, Runtime};

struct CountingAlloc;

/// Bytes ever requested, and bytes requested minus bytes returned.
static ALLOCATED: AtomicU64 = AtomicU64::new(0);
static LIVE: AtomicU64 = AtomicU64::new(0);

// Count only the test thread (the libtest harness thread allocates too).
// Const-initialized so reading the flag in the allocator never itself
// allocates TLS storage.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

fn counting() -> bool {
    COUNTING.with(|c| c.get())
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if counting() {
            ALLOCATED.fetch_add(layout.size() as u64, Ordering::Relaxed);
            LIVE.fetch_add(layout.size() as u64, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if counting() {
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if counting() {
            ALLOCATED.fetch_add(new_size as u64, Ordering::Relaxed);
            LIVE.fetch_add(new_size as u64, Ordering::Relaxed);
            LIVE.fetch_sub(layout.size() as u64, Ordering::Relaxed);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

const NODES: usize = 4096;
const NODE_BYTES: usize = 256;
/// Generous bound on one table entry (key, line span, id, byte range,
/// three parts, flag) — the test fails on growth in N, not on a few bytes.
const ENTRY_BYTES: u64 = 128;
/// Ordered-map slack: nodes at least half full, plus interior nodes.
const SLACK: u64 = 4;

/// Register `NODES` three-part nodes with one classification after each;
/// returns (bytes allocated, bytes still live) with the runtime alive.
fn interleave(order: impl Iterator<Item = usize>) -> (u64, u64) {
    let rt = Runtime::new_virtual();
    let parts = [
        (0, LineClass::Metadata),
        (64, LineClass::Record),
        (192, LineClass::Metadata),
    ];
    let (allocated0, live0) = (
        ALLOCATED.load(Ordering::Relaxed),
        LIVE.load(Ordering::Relaxed),
    );
    COUNTING.with(|c| c.set(true));
    for i in order {
        let base = 0x10_0000 + i * NODE_BYTES;
        rt.register_node(base, NODE_BYTES, &parts, true);
        assert_eq!(rt.class_of(LineId::of_addr(base + 64)), LineClass::Record);
    }
    COUNTING.with(|c| c.set(false));
    let grown = (
        ALLOCATED.load(Ordering::Relaxed) - allocated0,
        LIVE.load(Ordering::Relaxed) - live0,
    );
    drop(rt);
    grown
}

#[test]
fn interleaved_registration_and_lookup_stay_linear() {
    let bound = NODES as u64 * ENTRY_BYTES * SLACK;
    for (name, (allocated, live)) in [
        ("ascending", interleave(0..NODES)),
        ("descending", interleave((0..NODES).rev())),
    ] {
        assert!(
            live <= bound,
            "{name}: {live} bytes live after {NODES} nodes (bound {bound})"
        );
        assert!(
            allocated <= bound,
            "{name}: {allocated} bytes allocated for {NODES} nodes (bound {bound}): \
             growth is not linear in the node count"
        );
    }
}
