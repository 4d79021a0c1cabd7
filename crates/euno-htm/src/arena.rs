//! Node arenas with deferred reclamation and byte accounting.
//!
//! The paper reuses DBX's deferred deletion/garbage-collection scheme
//! (§4.2.4): nodes unlinked from the tree are not freed immediately, so
//! concurrent readers can never observe a dangling pointer. Early revisions
//! of this arena took that to the degenerate extreme — unlinked nodes were
//! merely *counted* as retired and every allocation lived until the arena
//! dropped, so the §5.7 memory experiment measured a leak. Retirement now
//! hands the node to the engine's epoch collector ([`crate::epoch`]):
//! [`Arena::retire`] removes the node from the arena's registry and defers
//! the actual `Box` free until two epochs have passed, at which point no
//! reader pinned while the node was reachable can still hold a pointer.
//!
//! The byte counters feed the §5.7 memory-consumption experiment. Each
//! node is charged `size_of::<T>()`: tree nodes are flat arrays of cells
//! and own no heap storage.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::epoch::Collector;
use crate::hash::FibSet;

/// Byte counters, shared with deferred-free closures via `Arc` so a
/// reclamation that runs after the arena has dropped still settles the
/// pending/reclaimed books.
#[derive(Default)]
struct ArenaCounters {
    /// Bytes in nodes still linked into the structure.
    live_bytes: AtomicUsize,
    /// Bytes unlinked and awaiting their epoch grace period.
    retired_pending_bytes: AtomicUsize,
    /// Bytes actually freed (cumulative).
    reclaimed_bytes: AtomicUsize,
}

/// An allocation registry for nodes of type `T` with epoch-deferred frees.
///
/// An arena is `Send` and `Sync` exactly when `T` is both, as an
/// `Arc<T>` is: `&Arena` hands out `&T` to any thread (needs `T: Sync`),
/// and a node is freed on whichever thread collects it (needs `T: Send`).
///
/// ```
/// fn send_sync<T: Send + Sync>() {}
/// send_sync::<euno_htm::Arena<u64>>();
/// ```
///
/// A `T` shared without synchronisation makes no `Sync` arena:
///
/// ```compile_fail
/// fn sync<T: Sync>() {}
/// sync::<euno_htm::Arena<std::cell::Cell<u64>>>();
/// ```
///
/// and a `T` bound to its thread makes no `Send` one:
///
/// ```compile_fail
/// fn send<T: Send>() {}
/// send::<euno_htm::Arena<std::rc::Rc<u64>>>();
/// ```
pub struct Arena<T> {
    /// The nodes still linked, each by its address over `align_of::<T>()`
    /// ([`Arena::key`]). Retirement removes the entry (detecting
    /// double-retires); `Drop` frees what is left.
    nodes: Mutex<FibSet<usize>>,
    counters: Arc<ArenaCounters>,
    /// The arena owns its `T`s and shares them across threads: its auto
    /// traits are `Arc<T>`'s (above).
    _owns: std::marker::PhantomData<Arc<T>>,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    pub fn new() -> Self {
        Arena {
            nodes: Mutex::default(),
            counters: Arc::new(ArenaCounters::default()),
            _owns: std::marker::PhantomData,
        }
    }

    /// A node's key in the registry: its address over its alignment.
    /// Distinct nodes have distinct keys, and — unlike the addresses of
    /// line-aligned nodes, whose low bits are all zero — the keys spread
    /// over the whole table under the multiply hash ([`crate::hash`]).
    #[inline]
    fn key(node: *const T) -> usize {
        node as usize / std::mem::align_of::<T>()
    }

    /// Allocate a node. The reference is valid until the node is retired
    /// *and* its epoch grace period elapses; readers must therefore hold an
    /// epoch pin ([`Collector`] guard) while dereferencing nodes that can
    /// be unlinked concurrently.
    pub fn alloc(&self, value: T) -> &T {
        let bytes = std::mem::size_of::<T>();
        let ptr = Box::into_raw(Box::new(value));
        self.nodes.lock().unwrap().insert(Self::key(ptr));
        self.counters.live_bytes.fetch_add(bytes, Ordering::Relaxed);
        // Safety: the allocation is stable until retirement, and retirement
        // defers the free past any pinned reader's lifetime.
        unsafe { &*ptr }
    }

    /// Unlink-and-defer: remove `node` from the registry, move its bytes
    /// from *live* to *retired-pending*, and hand the actual free to
    /// `epoch` so it runs only after two epoch advances. The caller must be
    /// pinned (the grace argument hangs on it) and must have already made
    /// the node unreachable. Returns `false` (and frees nothing) on a
    /// double retire or a pointer this arena never allocated.
    pub fn retire(&self, epoch: &Collector, node: *const T) -> bool
    where
        T: Send,
    {
        let addr = node as usize;
        if !self.nodes.lock().unwrap().remove(&Self::key(node)) {
            debug_assert!(false, "double retire or foreign pointer: {addr:#x}");
            return false;
        }
        // Every address in the set was charged `size_of::<T>()` by `alloc`.
        let bytes = std::mem::size_of::<T>();
        let live = self.counters.live_bytes.fetch_sub(bytes, Ordering::Relaxed);
        debug_assert!(live >= bytes, "retire underflowed live_bytes");
        self.counters
            .retired_pending_bytes
            .fetch_add(bytes, Ordering::Relaxed);
        let counters = Arc::clone(&self.counters);
        epoch.retire(bytes, move || {
            // Safety: the address came from Box::into_raw in alloc, was
            // removed from the registry above (so Drop won't free it), and
            // the collector runs each deferred free exactly once.
            unsafe { drop(Box::from_raw(addr as *mut T)) };
            counters
                .retired_pending_bytes
                .fetch_sub(bytes, Ordering::Relaxed);
            counters.reclaimed_bytes.fetch_add(bytes, Ordering::Relaxed);
        });
        true
    }

    /// Take back a node that was never published — allocated by a
    /// transaction attempt that did not commit, so no other thread can
    /// hold a pointer to it: it is freed here and now, with no grace
    /// period, and the books read as if it had not been allocated.
    /// Returns `false` (and frees nothing) for a pointer this arena does
    /// not hold.
    pub fn discard(&self, node: *const T) -> bool {
        let addr = node as usize;
        if !self.nodes.lock().unwrap().remove(&Self::key(node)) {
            debug_assert!(false, "discard of a retired or foreign pointer: {addr:#x}");
            return false;
        }
        let bytes = std::mem::size_of::<T>();
        self.counters.live_bytes.fetch_sub(bytes, Ordering::Relaxed);
        // Safety: the address came from Box::into_raw in alloc and has just
        // left the registry, so neither a retirement nor Drop frees it.
        unsafe { drop(Box::from_raw(addr as *mut T)) };
        true
    }

    /// Bytes in nodes still linked into the structure.
    pub fn live_bytes(&self) -> usize {
        self.counters.live_bytes.load(Ordering::Relaxed)
    }

    /// Bytes unlinked but still awaiting their epoch grace period.
    pub fn retired_pending_bytes(&self) -> usize {
        self.counters.retired_pending_bytes.load(Ordering::Relaxed)
    }

    /// Bytes actually freed by the epoch collector (cumulative).
    pub fn reclaimed_bytes(&self) -> usize {
        self.counters.reclaimed_bytes.load(Ordering::Relaxed)
    }

    /// Whether `node` is one of this arena's live (allocated, not yet
    /// retired or discarded) nodes.
    pub fn holds(&self, node: *const T) -> bool {
        self.nodes.lock().unwrap().contains(&Self::key(node))
    }

    pub fn node_count(&self) -> usize {
        self.nodes.lock().unwrap().len()
    }
}

impl<T> Drop for Arena<T> {
    fn drop(&mut self) {
        // Poison-tolerant: a panic inside `retire` (e.g. the double-retire
        // debug assertion) must not turn cleanup into an abort.
        let nodes = self.nodes.lock().unwrap_or_else(|e| e.into_inner());
        for &key in nodes.iter() {
            let addr = key * std::mem::align_of::<T>();
            // Safety: each key is an address from Box::into_raw over the
            // alignment it is a multiple of, retired nodes were removed
            // from the map, so every entry is freed exactly once here.
            unsafe { drop(Box::from_raw(addr as *mut T)) };
        }
    }
}

/// A monotonically-growing peak/live byte tracker for transient buffers
/// (the Euno tree's *reserved keys*, §4.1/§5.7).
#[derive(Default)]
pub struct TransientBytes {
    live: AtomicUsize,
    peak: AtomicUsize,
    cumulative: AtomicUsize,
}

impl TransientBytes {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn allocated(&self, bytes: usize) {
        let now = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.cumulative.fetch_add(bytes, Ordering::Relaxed);
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    pub fn freed(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    pub fn live(&self) -> usize {
        self.live.load(Ordering::Relaxed)
    }

    pub fn peak(&self) -> usize {
        self.peak.load(Ordering::Relaxed)
    }

    pub fn cumulative(&self) -> usize {
        self.cumulative.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Guard;

    #[test]
    fn alloc_counts_bytes_and_nodes() {
        let a: Arena<[u64; 8]> = Arena::new();
        let x = a.alloc([1; 8]);
        let y = a.alloc([2; 8]);
        assert_eq!(x[0], 1);
        assert_eq!(y[0], 2);
        assert_eq!(a.node_count(), 2);
        assert_eq!(a.live_bytes(), 128);
        assert_eq!(a.retired_pending_bytes(), 0);
    }

    #[test]
    fn retire_frees_after_grace_and_rejects_double_retire() {
        let a: Arena<u64> = Arena::new();
        let epoch = Collector::new();
        a.alloc(1);
        let second = a.alloc(2) as *const u64;

        epoch.pinned(|_: Guard<u64, 0>| {
            assert!(a.retire(&epoch, second));
            assert_eq!(a.node_count(), 1);
            assert_eq!(a.live_bytes(), 8);
            assert_eq!(a.retired_pending_bytes(), 8);
            assert_eq!(a.reclaimed_bytes(), 0);
        });

        epoch.collect();
        epoch.collect();
        assert_eq!(a.retired_pending_bytes(), 0);
        assert_eq!(a.reclaimed_bytes(), 8);
        assert_eq!(a.live_bytes(), 8);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "debug_assert only fires in debug")]
    #[should_panic(expected = "double retire")]
    fn double_retire_asserts_in_debug() {
        let a: Arena<u64> = Arena::new();
        let epoch = Collector::new();
        let node = a.alloc(1) as *const u64;
        epoch.pinned(|_: Guard<u64, 0>| {
            assert!(a.retire(&epoch, node));
            a.retire(&epoch, node);
        });
    }

    #[test]
    fn references_stay_valid_across_growth() {
        let a: Arena<u64> = Arena::new();
        let first = a.alloc(42);
        let ptr = first as *const u64;
        for i in 0..10_000 {
            a.alloc(i);
        }
        // Safety: `ptr` is the first node, which nothing retires, so the
        // arena keeps it until `a` drops at the end of this test.
        assert_eq!(unsafe { *ptr }, 42, "early allocation must not move");
        assert_eq!(*first, 42);
    }

    #[test]
    fn concurrent_allocation_is_safe() {
        let a: Arena<u64> = Arena::new();
        std::thread::scope(|s| {
            for t in 0..4 {
                let a = &a;
                s.spawn(move || {
                    for i in 0..1000 {
                        a.alloc(t * 1000 + i);
                    }
                });
            }
        });
        assert_eq!(a.node_count(), 4000);
        assert_eq!(a.live_bytes(), 32_000);
    }

    #[test]
    fn transient_tracks_peak_and_cumulative() {
        let t = TransientBytes::new();
        t.allocated(100);
        t.allocated(50);
        assert_eq!(t.live(), 150);
        assert_eq!(t.peak(), 150);
        t.freed(100);
        assert_eq!(t.live(), 50);
        assert_eq!(t.peak(), 150);
        t.allocated(20);
        assert_eq!(t.peak(), 150);
        assert_eq!(t.cumulative(), 170);
    }
}
