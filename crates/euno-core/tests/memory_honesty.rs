//! What `memory()` reports is what the tree holds: after a preload, the
//! structural bytes are the live leaves times the leaf's size plus the
//! index nodes times theirs, and the CCM bytes the live CCM blocks times
//! one line, to the byte — and what a thread keeps beside the tree, its
//! two hint tables, is a fixed footprint outside the report. A smaller
//! leaf, or a leaf with no block, therefore shows as bytes that left the
//! program, not bytes moved off the books.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

use euno_core::{
    Ccm, DefaultLeaf, EunoBTree, EunoConfig, EunoLeaf, IndexNode, KeyPad, Keys, DEFAULT_K,
    DEFAULT_SEGS, INTERNAL_FANOUT,
};
use euno_htm::{fresh_owner, ConcurrentMap, Runtime};
use euno_rng::SmallRng;

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

/// A leaf: six segment lines at the default geometry, and one segment of
/// six lines unpartitioned (DESIGN.md §8).
const LEAF_BYTES: usize = 384;
/// An index node: five lines (DESIGN.md §4.4).
const INDEX_BYTES: usize = 320;
/// A CCM block: one line.
const BLOCK_BYTES: usize = 64;

/// Preload `keys` random keys on one thread under `cfg`; the report's
/// structural and CCM bytes against the node and block counts. Returns
/// the leaves and the blocks.
fn accounted<const S: usize, const K: usize>(cfg: EunoConfig, keys: u64) -> (usize, usize)
where
    Keys<K>: KeyPad,
{
    let rt = Runtime::new_virtual();
    let tree: EunoBTree<S, K> = EunoBTree::with_config(Arc::clone(&rt), cfg);
    let mut ctx = rt.thread(1);
    let mut rng = SmallRng::seed_from_u64(0x3e3 ^ keys);
    for _ in 0..keys {
        let key = rng.gen_range(0..1u64 << 40);
        tree.put(&mut ctx, key, key);
    }
    let (stats, mem) = (tree.stats(), tree.memory());
    assert!(stats.leaves > 1_000 && stats.internals > 50, "{stats:?}");
    assert_eq!(
        mem.structural_bytes,
        stats.leaves * LEAF_BYTES + stats.internals * INDEX_BYTES,
        "<{S}, {K}>: {mem:?}"
    );
    assert_eq!(
        mem.ccm_bytes,
        stats.ccm_blocks * BLOCK_BYTES,
        "<{S}, {K}>: {mem:?}"
    );
    assert_eq!(mem.retired_pending_bytes, 0, "a preload retires nothing");
    (stats.leaves, stats.ccm_blocks)
}

#[test]
fn structural_and_ccm_bytes_are_the_nodes_the_tree_holds() {
    assert_eq!(
        std::mem::size_of::<IndexNode<INTERNAL_FANOUT>>(),
        INDEX_BYTES
    );
    assert_eq!(std::mem::size_of::<Ccm>(), BLOCK_BYTES);
    // Six segment lines, each a segment's fence copy, link word, keys and
    // values; the unpartitioned leaf's one segment is the same six lines.
    // Neither carries a CCM line.
    assert_eq!(std::mem::size_of::<DefaultLeaf>(), LEAF_BYTES);
    assert_eq!(std::mem::size_of::<EunoLeaf<1, 18>>(), LEAF_BYTES);
    // A single-threaded preload meets no conflict, so no leaf earns a
    // block…
    assert_eq!(
        accounted::<DEFAULT_SEGS, DEFAULT_K>(EunoConfig::default(), 40_000).1,
        0
    );
    assert_eq!(
        accounted::<DEFAULT_SEGS, DEFAULT_K>(EunoConfig::paper(), 40_000).1,
        0
    );
    assert_eq!(accounted::<1, 18>(EunoConfig::paper(), 40_000).1, 0);
    // …without the detector every leaf has one from birth (Figure 13's
    // lock-bit and mark-bit rungs)…
    for cfg in [EunoConfig::ccm_lockbits(), EunoConfig::ccm_markbits()] {
        let (leaves, blocks) = accounted::<DEFAULT_SEGS, DEFAULT_K>(cfg, 40_000);
        assert_eq!(blocks, leaves);
    }
    // …and with no CCM bits no leaf ever has one.
    assert_eq!(
        accounted::<1, 18>(EunoConfig::split_htm_only(), 40_000).1,
        0
    );
    assert_eq!(
        accounted::<DEFAULT_SEGS, DEFAULT_K>(EunoConfig::part_leaf(), 40_000).1,
        0
    );
}

/// A thread's first hint record allocates both tables — 1 024 leaf hints
/// of 40 B (owner, block, and the hint's leaf, lower bound and retirement
/// generation; 56 B while a hint also carried `seqno` and an upper bound)
/// and 1 024 anchors of 32 B — and no later record allocates.
#[test]
fn a_threads_hint_tables_are_72_kib_whatever_the_leaf() {
    let rt = Runtime::new_virtual();
    let mut ctx = rt.thread(1);
    let owner = fresh_owner();
    let counted = |ctx: &mut euno_htm::ThreadCtx, block: u64| {
        BYTES.with(|b| b.set(0));
        COUNTING.with(|c| c.set(true));
        ctx.hint_record(owner, block, [block; 3]);
        ctx.anchor_record(owner, block, [block; 2]);
        COUNTING.with(|c| c.set(false));
        BYTES.with(|b| b.get())
    };
    assert_eq!(counted(&mut ctx, 0), (40 + 32) << 10);
    assert_eq!(counted(&mut ctx, 1), 0);
}
