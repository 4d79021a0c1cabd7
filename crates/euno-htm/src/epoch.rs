//! Epoch-based reclamation (EBR) — in-tree, no external dependencies.
//!
//! Unlinked tree nodes cannot be freed immediately: an optimistic reader
//! (or a two-step traversal holding a leaf pointer between its upper and
//! lower regions) may still dereference them. The classic answer — the one
//! `scc::ebr` and crossbeam implement — is to defer the free until every
//! thread that could possibly hold the pointer has provably moved on:
//!
//! * A global epoch counter advances one step at a time.
//! * Each participating thread *pins* itself to the current epoch for the
//!   duration of an operation and unpins afterwards.
//! * The epoch only advances when every pinned participant has caught up
//!   to it, so pinned threads lag the global epoch by at most one.
//! * Garbage retired under epoch `e` is freed once the global epoch
//!   reaches `e + 2`: by then every thread pinned while the node was
//!   reachable has unpinned at least once, and nobody pinned afterwards
//!   can have found the (already unlinked) node.
//!
//! The retiring thread must itself be pinned when it calls
//! [`Collector::retire`] — that is what anchors the "reachable ⇒ some pin
//! predates the stamp" argument. Tree operations satisfy this by pinning
//! around every `ConcurrentMap` call.
//!
//! A pin is a closure's scope ([`Collector::pinned`],
//! `ThreadCtx::pinned`), handed the [`Guard`] nodes are read through;
//! nothing the guard resolves can leave it. A closure that panics leaves
//! its pin held: the epoch stops advancing, and nothing is freed early.
//!
//! Reclamation runs no background thread: [`Collector::collect`] is called
//! opportunistically from unpinning threads (see
//! `ThreadCtx::pinned`) and drains whatever has matured. The collector
//! performs no cycle charges and draws no engine randomness, so wiring it
//! into the virtual-time mode leaves the simulated schedule untouched.

use std::sync::atomic::{fence, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::bptree::Guard;

/// One participant's published state: `0` when not pinned, else
/// `(epoch << 1) | 1`.
#[derive(Debug, Default)]
struct Slot {
    state: AtomicU64,
}

/// A deferred destructor with its byte weight (for memory accounting and
/// trace events).
struct Garbage {
    stamp: u64,
    bytes: usize,
    run: Box<dyn FnOnce() + Send>,
}

/// What one [`Collector::collect`] call accomplished.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CollectOutcome {
    /// The new global epoch, when this call advanced it.
    pub advanced_to: Option<u64>,
    /// Deferred destructors run by this call.
    pub freed: usize,
    /// Byte weight of the destructors run.
    pub freed_bytes: usize,
}

/// The shared reclamation state: global epoch, participant slots, and the
/// bag of retired-but-not-yet-freed garbage.
#[derive(Default)]
pub struct Collector {
    global: AtomicU64,
    slots: Mutex<Vec<Arc<Slot>>>,
    garbage: Mutex<Vec<Garbage>>,
    /// Destructors retired and not yet run.
    pending: AtomicUsize,
    /// Byte weight of `pending`.
    pending_bytes: AtomicUsize,
    /// Destructors run over the collector's lifetime.
    reclaimed: AtomicU64,
}

impl Collector {
    pub fn new() -> Collector {
        Collector::default()
    }

    /// Register a new participant. Unpinned participants never block the
    /// epoch, so a slot that is simply abandoned (its `Participant`
    /// dropped without [`Collector::unregister`]) is harmless.
    pub fn register(&self) -> Participant {
        let slot = Arc::new(Slot::default());
        self.slots.lock().unwrap().push(Arc::clone(&slot));
        Participant { slot, depth: 0 }
    }

    /// Remove a participant's slot. The participant must be unpinned.
    pub fn unregister(&self, p: &Participant) {
        assert_eq!(p.depth, 0, "unregistering a pinned participant");
        self.slots
            .lock()
            .unwrap()
            .retain(|s| !Arc::ptr_eq(s, &p.slot));
    }

    /// Current global epoch (diagnostics / tests).
    pub fn global_epoch(&self) -> u64 {
        self.global.load(Ordering::SeqCst)
    }

    /// Deferred destructors retired but not yet run.
    pub fn pending(&self) -> usize {
        self.pending.load(Ordering::SeqCst)
    }

    /// Byte weight of the pending destructors.
    pub fn pending_bytes(&self) -> usize {
        self.pending_bytes.load(Ordering::SeqCst)
    }

    /// Destructors run over the collector's lifetime.
    pub fn reclaimed(&self) -> u64 {
        self.reclaimed.load(Ordering::SeqCst)
    }

    /// Defer `f` until two epochs have passed. **The caller must be
    /// pinned**: the grace-period argument assumes the unlink that made
    /// the garbage unreachable happened under the caller's current pin.
    /// `bytes` is the garbage's accounting weight (0 if untracked).
    pub fn retire(&self, bytes: usize, f: impl FnOnce() + Send + 'static) {
        let stamp = self.global.load(Ordering::SeqCst);
        self.pending.fetch_add(1, Ordering::SeqCst);
        self.pending_bytes.fetch_add(bytes, Ordering::SeqCst);
        self.garbage.lock().unwrap().push(Garbage {
            stamp,
            bytes,
            run: Box::new(f),
        });
    }

    /// Advance the epoch if every pinned participant has caught up.
    fn try_advance(&self) -> Option<u64> {
        let e = self.global.load(Ordering::SeqCst);
        {
            let slots = self.slots.lock().unwrap();
            for s in slots.iter() {
                let st = s.state.load(Ordering::SeqCst);
                if st & 1 == 1 && (st >> 1) != e {
                    return None; // a pinned participant lags
                }
            }
        }
        self.global
            .compare_exchange(e, e + 1, Ordering::SeqCst, Ordering::SeqCst)
            .ok()
            .map(|_| e + 1)
    }

    /// Try to advance the epoch, then run every deferred destructor whose
    /// grace period (two epochs) has elapsed. Idempotent: garbage is
    /// removed from the bag before its destructor runs, so repeated calls
    /// (from any thread) free each retired node exactly once.
    pub fn collect(&self) -> CollectOutcome {
        let advanced_to = self.try_advance();
        let cur = self.global.load(Ordering::SeqCst);
        let ready: Vec<Garbage> = {
            let mut bag = self.garbage.lock().unwrap();
            let mut ready = Vec::new();
            let mut i = 0;
            while i < bag.len() {
                if bag[i].stamp + 2 <= cur {
                    ready.push(bag.swap_remove(i));
                } else {
                    i += 1;
                }
            }
            ready
        };
        // Destructors run outside the bag lock: a destructor is allowed to
        // retire further garbage (e.g. a node freeing an owned child).
        let mut out = CollectOutcome {
            advanced_to,
            freed: 0,
            freed_bytes: 0,
        };
        for g in ready {
            (g.run)();
            out.freed += 1;
            out.freed_bytes += g.bytes;
            self.pending.fetch_sub(1, Ordering::SeqCst);
            self.pending_bytes.fetch_sub(g.bytes, Ordering::SeqCst);
            self.reclaimed.fetch_add(1, Ordering::SeqCst);
        }
        out
    }

    /// Run `f` pinned through a temporary anonymous participant, with a
    /// [`Guard`] that cannot leave it — for chain walkers that have no
    /// `ThreadCtx` (audits, seqno snapshots).
    pub fn pinned<L, const F: usize, R>(&self, f: impl for<'g> FnOnce(Guard<'g, L, F>) -> R) -> R {
        let mut participant = self.register();
        participant.enter(self);
        let out = f(Guard::new());
        participant.exit();
        self.unregister(&participant);
        out
    }
}

impl Drop for Collector {
    fn drop(&mut self) {
        // No participant can be pinned (they borrow the collector), so
        // everything left is safe to free. Poison-tolerant so an unwinding
        // retire path cannot turn cleanup into an abort.
        let mut bag = self.garbage.lock().unwrap_or_else(|e| e.into_inner());
        let leftovers = std::mem::take(&mut *bag);
        drop(bag);
        for g in leftovers {
            (g.run)();
            self.reclaimed.fetch_add(1, Ordering::SeqCst);
        }
        self.pending.store(0, Ordering::SeqCst);
        self.pending_bytes.store(0, Ordering::SeqCst);
    }
}

/// A registered thread's handle: its published slot plus a nesting depth,
/// so re-entrant pins (an operation that triggers maintenance, which pins
/// again) collapse into one epoch announcement.
pub struct Participant {
    slot: Arc<Slot>,
    depth: u32,
}

impl Participant {
    /// Pin to the current epoch. Nested calls only bump the depth.
    pub fn enter(&mut self, c: &Collector) {
        if self.depth == 0 {
            // Publish-then-verify: if the global epoch moved between the
            // read and our store, re-announce — otherwise an advancing
            // thread may have already skipped over this slot and freed
            // garbage this pin was supposed to protect.
            loop {
                let e = c.global.load(Ordering::SeqCst);
                self.slot.state.store((e << 1) | 1, Ordering::SeqCst);
                fence(Ordering::SeqCst);
                if c.global.load(Ordering::SeqCst) == e {
                    break;
                }
            }
        }
        self.depth += 1;
    }

    /// Undo one [`Participant::enter`]; the outermost exit unpins.
    pub fn exit(&mut self) {
        debug_assert!(self.depth > 0, "epoch exit without a matching enter");
        self.depth -= 1;
        if self.depth == 0 {
            self.slot.state.store(0, Ordering::Release);
        }
    }

    /// Whether this participant currently holds a pin.
    pub fn pinned(&self) -> bool {
        self.depth > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    fn flag_retire(c: &Collector, freed: &Arc<AtomicU32>) {
        let f = Arc::clone(freed);
        c.retire(64, move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
    }

    #[test]
    fn nothing_frees_while_an_old_pin_is_held() {
        let c = Collector::new();
        let mut reader = c.register();
        let mut writer = c.register();
        let freed = Arc::new(AtomicU32::new(0));

        reader.enter(&c); // pinned at epoch e
        writer.enter(&c);
        flag_retire(&c, &freed);
        writer.exit();

        // However hard we try, the reader's pin blocks the second advance.
        for _ in 0..10 {
            c.collect();
        }
        assert_eq!(freed.load(Ordering::SeqCst), 0);
        assert_eq!(c.pending(), 1);
        assert_eq!(c.pending_bytes(), 64);

        reader.exit();
        c.collect();
        c.collect();
        assert_eq!(freed.load(Ordering::SeqCst), 1);
        assert_eq!(c.pending(), 0);
        assert_eq!(c.pending_bytes(), 0);
        assert_eq!(c.reclaimed(), 1);
    }

    #[test]
    fn unpinned_participants_never_block_advance() {
        let c = Collector::new();
        let _idle = c.register();
        let mut w = c.register();
        let freed = Arc::new(AtomicU32::new(0));
        w.enter(&c);
        flag_retire(&c, &freed);
        w.exit();
        c.collect();
        c.collect();
        assert_eq!(freed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn collect_is_idempotent_per_retired_node() {
        let c = Collector::new();
        let mut w = c.register();
        let freed = Arc::new(AtomicU32::new(0));
        w.enter(&c);
        for _ in 0..5 {
            flag_retire(&c, &freed);
        }
        w.exit();
        for _ in 0..8 {
            c.collect(); // far more calls than epochs needed
        }
        assert_eq!(freed.load(Ordering::SeqCst), 5, "each node freed once");
        assert_eq!(c.reclaimed(), 5);
    }

    #[test]
    fn nested_pins_collapse_into_one() {
        let c = Collector::new();
        let mut p = c.register();
        p.enter(&c);
        p.enter(&c); // e.g. maintenance inside an operation
        assert!(p.pinned());
        p.exit();
        assert!(p.pinned(), "inner exit must not unpin");
        p.exit();
        assert!(!p.pinned());
    }

    #[test]
    fn collector_drop_frees_leftovers_exactly_once() {
        let freed = Arc::new(AtomicU32::new(0));
        {
            let c = Collector::new();
            let mut w = c.register();
            w.enter(&c);
            flag_retire(&c, &freed);
            w.exit();
            // No collect: the garbage is still pending at drop.
        }
        assert_eq!(freed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn scoped_pin_blocks_and_unblocks() {
        let c = Collector::new();
        let freed = Arc::new(AtomicU32::new(0));
        c.pinned(|_: Guard<(), 0>| {
            let mut w = c.register();
            w.enter(&c);
            flag_retire(&c, &freed);
            w.exit();
            for _ in 0..6 {
                c.collect();
            }
            assert_eq!(freed.load(Ordering::SeqCst), 0);
        });
        c.collect();
        c.collect();
        assert_eq!(freed.load(Ordering::SeqCst), 1);
        // The temporary slot unregistered itself.
        assert_eq!(c.slots.lock().unwrap().len(), 1);
    }
}
