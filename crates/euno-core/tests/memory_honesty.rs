//! What `memory()` reports is what the tree holds: after a preload, the
//! structural and CCM bytes are the live leaves times the leaf's size plus
//! the index nodes times theirs, to the byte — and what a thread keeps
//! beside the tree, its two hint tables, is a fixed footprint outside the
//! report. A smaller leaf therefore shows as bytes that left the program,
//! not bytes moved off the books.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use euno_core::{EunoBTree, EunoLeaf, IndexNode, INTERNAL_FANOUT};
use euno_htm::{fresh_owner, ConcurrentMap, Runtime};
use euno_rng::{Rng, SmallRng};

struct CountingAlloc;

// Bytes requested by this thread while it counts: libtest's own threads
// allocate whenever they like. Const-initialized, so that reading them in
// the allocator never itself allocates TLS storage.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(|c| c.get()) {
            BYTES.with(|b| b.set(b.get() + layout.size()));
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// An index node: five lines (DESIGN.md §4.4).
const INDEX_BYTES: usize = 320;

/// Preload `keys` random keys; the report's structural and CCM bytes
/// against the node counts.
fn accounted<const S: usize, const K: usize>(keys: u64) {
    let rt = Runtime::new_virtual();
    let tree: EunoBTree<S, K> = EunoBTree::new(Arc::clone(&rt));
    let mut ctx = rt.thread(1);
    let mut rng = SmallRng::seed_from_u64(0x3e3 ^ keys);
    for _ in 0..keys {
        let key = rng.gen_range(0..1u64 << 40);
        tree.put(&mut ctx, key, key);
    }
    let (stats, mem) = (tree.stats(), tree.memory());
    assert!(stats.leaves > 1_000 && stats.internals > 50, "{stats:?}");
    assert_eq!(
        mem.structural_bytes + mem.ccm_bytes,
        stats.leaves * std::mem::size_of::<EunoLeaf<S, K>>() + stats.internals * INDEX_BYTES,
        "<{S}, {K}>: {mem:?}"
    );
    assert_eq!(mem.retired_pending_bytes, 0, "a preload retires nothing");
}

#[test]
fn structural_and_ccm_bytes_are_the_nodes_the_tree_holds() {
    assert_eq!(
        std::mem::size_of::<IndexNode<INTERNAL_FANOUT>>(),
        INDEX_BYTES
    );
    // Eight segment lines and the CCM line; the unpartitioned leaf's key
    // area is three lines, its values two.
    assert_eq!(std::mem::size_of::<EunoLeaf<4, 4>>(), 576);
    assert_eq!(std::mem::size_of::<EunoLeaf<1, 16>>(), 384);
    accounted::<4, 4>(40_000);
    accounted::<1, 16>(40_000);
}

/// A thread's first hint record allocates both tables — 1 024 leaf hints
/// of 56 B and 1 024 anchors of 32 B — and no later record allocates.
#[test]
fn a_threads_hint_tables_are_88_kib_whatever_the_leaf() {
    let rt = Runtime::new_virtual();
    let mut ctx = rt.thread(1);
    let owner = fresh_owner();
    let counted = |ctx: &mut euno_htm::ThreadCtx, block: u64| {
        BYTES.with(|b| b.set(0));
        COUNTING.with(|c| c.set(true));
        ctx.hint_record(owner, block, [block; 5]);
        ctx.anchor_record(owner, block, [block; 2]);
        COUNTING.with(|c| c.set(false));
        BYTES.with(|b| b.get())
    };
    assert_eq!(counted(&mut ctx, 0), (56 + 32) << 10);
    assert_eq!(counted(&mut ctx, 1), 0);
}
