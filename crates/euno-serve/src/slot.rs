//! Pooled reply slots.
//!
//! A slot is where a shard worker leaves a request's reply for the
//! client that submitted it: the client acquires one from the per-shard
//! pool (lock-free Treiber free list, tagged against ABA) and sends the
//! slot's index with the request down the shard's queue; the worker
//! executes it and writes the result back. Completion is observed either
//! by the caller (blocking or polling on a [`Ticket`](crate::Ticket)) or
//! not at all (a ticket dropped unwaited). Such a slot is flagged
//! [`ABANDONED`]; the worker's finish and the ticket's drop each change
//! the state word in one atomic step, so exactly one of them sees the
//! other's mark and recycles the slot.
//!
//! The pool is sized at construction and never grows: running out of
//! slots is the overload signal (the server sheds the request). Nothing
//! on the acquire/complete/release path allocates.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use euno_htm::TOMBSTONE;

/// Slot lifecycle states.
pub(crate) const FREE: u32 = 0;
pub(crate) const PENDING: u32 = 1;
pub(crate) const DONE: u32 = 2;
/// Popped by the worker and not finished yet.
pub(crate) const RUNNING: u32 = 3;
/// Its shard's worker panicked before or while running it.
pub(crate) const FAILED: u32 = 4;
/// Flag on a `PENDING` / `RUNNING` state: nobody will read the result,
/// so finishing the slot recycles it.
pub(crate) const ABANDONED: u32 = 8;

struct Slot {
    state: AtomicU32,
    /// Free-list link, `index + 1` (0 = end of list).
    next_free: AtomicU32,
    /// A point request's reply; `TOMBSTONE` for `None`, which no put may
    /// store. Ordered by the `state` word's release/acquire edge.
    result: AtomicU64,
    /// A scan's records. One side owns the slot at a time (the worker
    /// until it finishes, then the waiter), so the lock is never
    /// contended.
    scan_buf: Mutex<Vec<(u64, u64)>>,
}

pub(crate) struct SlotPool {
    slots: Box<[Slot]>,
    /// `(version << 32) | (index + 1)`; low word 0 = empty.
    head: AtomicU64,
}

impl SlotPool {
    pub fn new(n: usize) -> Self {
        let n = n.max(1);
        let slots: Box<[Slot]> = (0..n)
            .map(|i| Slot {
                state: AtomicU32::new(FREE),
                // Initial free list threads straight through the array.
                next_free: AtomicU32::new(if i + 1 < n { i as u32 + 2 } else { 0 }),
                result: AtomicU64::new(TOMBSTONE),
                scan_buf: Mutex::new(Vec::new()),
            })
            .collect();
        SlotPool {
            slots,
            head: AtomicU64::new(1), // index 0, version 0
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Take a free slot; `None` means the pool is exhausted (overload).
    pub fn acquire(&self) -> Option<u32> {
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            let idx_plus1 = (head & 0xffff_ffff) as u32;
            if idx_plus1 == 0 {
                return None;
            }
            let idx = idx_plus1 - 1;
            let next = self.slots[idx as usize].next_free.load(Ordering::Relaxed);
            let ver = head >> 32;
            let new = ((ver + 1) << 32) | u64::from(next);
            match self
                .head
                .compare_exchange_weak(head, new, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return Some(idx),
                Err(h) => head = h,
            }
        }
    }

    /// Return a slot to the free list (caller must own it).
    pub fn release(&self, idx: u32) {
        let slot = &self.slots[idx as usize];
        slot.state.store(FREE, Ordering::Release);
        let mut head = self.head.load(Ordering::Acquire);
        loop {
            slot.next_free
                .store((head & 0xffff_ffff) as u32, Ordering::Relaxed);
            let ver = head >> 32;
            let new = ((ver + 1) << 32) | u64::from(idx + 1);
            match self
                .head
                .compare_exchange_weak(head, new, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(h) => head = h,
            }
        }
    }

    /// Mark a just-acquired slot pending, before its request is queued.
    pub fn stage(&self, idx: u32) {
        self.slots[idx as usize]
            .state
            .store(PENDING, Ordering::Release);
    }

    /// Worker side: the slot's request was popped from the queue.
    pub fn start(&self, idx: u32) {
        let _ = self.slots[idx as usize].state.fetch_update(
            Ordering::Relaxed,
            Ordering::Relaxed,
            |s| Some((s & ABANDONED) | RUNNING),
        );
    }

    /// The slot's scan buffer: the worker's between popping the request
    /// and completing it, the waiter's after.
    pub fn scan_buf(&self, idx: u32) -> MutexGuard<'_, Vec<(u64, u64)>> {
        self.slots[idx as usize]
            .scan_buf
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Worker side: publish the result and flip the slot to DONE.
    pub fn complete(&self, idx: u32, value: Option<u64>) {
        self.slots[idx as usize]
            .result
            .store(value.unwrap_or(TOMBSTONE), Ordering::Relaxed);
        self.finish(idx, DONE);
    }

    /// A poisoned shard's side: the request will not run.
    pub fn fail(&self, idx: u32) {
        self.finish(idx, FAILED);
    }

    /// Move a popped slot to its final state; an abandoned one is
    /// recycled instead, since nobody will read it.
    fn finish(&self, idx: u32, state: u32) {
        let before = self.slots[idx as usize].state.swap(state, Ordering::AcqRel);
        if before & ABANDONED != 0 {
            self.release(idx);
        }
    }

    /// Waiter side: the ticket is gone. A finished slot is recycled now;
    /// an unfinished one is flagged, and its finish recycles it.
    pub fn abandon(&self, idx: u32) {
        let state = &self.slots[idx as usize].state;
        let mut s = state.load(Ordering::Acquire);
        while !matches!(s, DONE | FAILED) {
            match state.compare_exchange_weak(s, s | ABANDONED, Ordering::AcqRel, Ordering::Acquire)
            {
                Ok(_) => return,
                Err(now) => s = now,
            }
        }
        self.release(idx);
    }

    pub fn state(&self, idx: u32) -> u32 {
        self.slots[idx as usize].state.load(Ordering::Acquire)
    }

    /// Waiter side: the point result of a DONE slot. The slot stays the
    /// waiter's until it [`abandon`](SlotPool::abandon)s it.
    pub fn value(&self, idx: u32) -> Option<u64> {
        debug_assert_eq!(self.state(idx), DONE);
        let v = self.slots[idx as usize].result.load(Ordering::Relaxed);
        (v != TOMBSTONE).then_some(v)
    }

    /// Waiter side: the records of a DONE scan slot.
    pub fn take_scan(&self, idx: u32) -> Vec<(u64, u64)> {
        debug_assert_eq!(self.state(idx), DONE);
        std::mem::take(&mut *self.scan_buf(idx))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pool_exhausts_and_recycles() {
        let pool = SlotPool::new(3);
        let a = pool.acquire().unwrap();
        let b = pool.acquire().unwrap();
        let c = pool.acquire().unwrap();
        assert_eq!(pool.acquire(), None, "empty pool must reject");
        assert_eq!(
            [a, b, c]
                .iter()
                .collect::<std::collections::HashSet<_>>()
                .len(),
            3
        );
        pool.release(b);
        assert_eq!(pool.acquire(), Some(b));
    }

    #[test]
    fn lifecycle_roundtrip() {
        let pool = SlotPool::new(2);
        let idx = pool.acquire().unwrap();
        pool.stage(idx);
        assert_eq!(pool.state(idx), PENDING);
        pool.start(idx);
        pool.scan_buf(idx).push((7, 42));
        pool.complete(idx, Some(41));
        assert_eq!(pool.state(idx), DONE);
        assert_eq!(pool.value(idx), Some(41));
        assert_eq!(pool.take_scan(idx), [(7, 42)]);
        pool.abandon(idx);
        assert_eq!(pool.state(idx), FREE);
        // `None` survives the round trip through the result word.
        let idx = pool.acquire().unwrap();
        pool.stage(idx);
        pool.complete(idx, None);
        assert_eq!(pool.value(idx), None);
        assert!(pool.take_scan(idx).is_empty());
    }

    #[test]
    fn an_abandoned_slot_is_recycled_by_whoever_finishes_second() {
        let pool = SlotPool::new(1);
        // Worker first, then the ticket's drop.
        let idx = pool.acquire().unwrap();
        pool.stage(idx);
        pool.start(idx);
        pool.complete(idx, None);
        assert_eq!(pool.state(idx), DONE);
        pool.abandon(idx);
        assert_eq!(pool.state(idx), FREE);
        // The drop first, then the worker.
        let idx = pool.acquire().unwrap();
        pool.stage(idx);
        pool.abandon(idx);
        pool.start(idx);
        assert_eq!(pool.state(idx) & !ABANDONED, RUNNING);
        pool.complete(idx, None);
        assert_eq!(pool.state(idx), FREE);
    }

    #[test]
    fn concurrent_acquire_release_is_exclusive() {
        let pool = SlotPool::new(8);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let pool = &pool;
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        if let Some(idx) = pool.acquire() {
                            // Exclusive ownership: the result must read back.
                            let tag = t << 32 | i;
                            pool.stage(idx);
                            pool.complete(idx, Some(tag));
                            assert_eq!(pool.value(idx), Some(tag));
                            pool.release(idx);
                        } else {
                            std::thread::yield_now();
                        }
                    }
                });
            }
        });
        // All slots back on the free list.
        let mut got = 0;
        while pool.acquire().is_some() {
            got += 1;
        }
        assert_eq!(got, 8);
    }
}
