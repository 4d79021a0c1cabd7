//! Pooled request/completion slots.
//!
//! A slot is the rendezvous between a submitting client and the shard
//! worker: the client acquires one from the per-shard pool (lock-free
//! Treiber free list, tagged against ABA), writes the request payload,
//! and enqueues the slot *index*; the worker executes and writes the
//! result back. Completion is observed either by the caller (blocking or
//! polling on a [`Ticket`](crate::Ticket)) or not at all (a ticket
//! dropped unwaited). Such a slot is flagged [`ABANDONED`]; the worker's finish
//! and the ticket's drop each change the state word in one atomic step,
//! so exactly one of them sees the other's mark and recycles the slot.
//!
//! The pool is sized at construction and never grows: running out of
//! slots is the overload signal (the server sheds the request). Nothing
//! on the acquire/publish/complete/release path allocates.

use std::cell::UnsafeCell;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};

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

/// Request kinds as stored in a slot.
pub(crate) const K_GET: u8 = 0;
pub(crate) const K_PUT: u8 = 1;
pub(crate) const K_DELETE: u8 = 2;
pub(crate) const K_SCAN: u8 = 3;

/// The wire-format of one request inside a slot.
#[derive(Clone, Copy, Debug)]
pub(crate) struct RawReq {
    pub kind: u8,
    pub key: u64,
    /// Put value / scan length.
    pub arg: u64,
    /// Nanoseconds since the server's epoch at *intended* issue time.
    pub issued_ns: u64,
}

pub(crate) struct Slot {
    state: AtomicU32,
    /// Free-list link, `index + 1` (0 = end of list).
    next_free: AtomicU32,
    req: UnsafeCell<RawReq>,
    result: UnsafeCell<Option<u64>>,
    scan_buf: UnsafeCell<Vec<(u64, u64)>>,
}

pub(crate) struct SlotPool {
    slots: Box<[Slot]>,
    /// `(version << 32) | (index + 1)`; low word 0 = empty.
    head: AtomicU64,
}

// Safety: the UnsafeCell payloads follow a strict ownership hand-off —
// submitter (exclusive, post-acquire) → worker (via the queue's
// release/acquire edge) → waiter (via the DONE release/acquire edge) —
// so no two threads access a slot's cells concurrently.
unsafe impl Sync for SlotPool {}
unsafe impl Send for SlotPool {}

impl SlotPool {
    pub fn new(n: usize) -> Self {
        let n = n.max(1);
        let slots: Box<[Slot]> = (0..n)
            .map(|i| Slot {
                state: AtomicU32::new(FREE),
                // Initial free list threads straight through the array.
                next_free: AtomicU32::new(if i + 1 < n { i as u32 + 2 } else { 0 }),
                req: UnsafeCell::new(RawReq {
                    kind: K_GET,
                    key: 0,
                    arg: 0,
                    issued_ns: 0,
                }),
                result: UnsafeCell::new(None),
                scan_buf: UnsafeCell::new(Vec::new()),
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

    /// Fill the payload and mark the slot pending. Caller owns the slot
    /// (just acquired); ordering against the worker comes from the queue's
    /// release/acquire edge on publish.
    pub fn stage(&self, idx: u32, req: RawReq) {
        let slot = &self.slots[idx as usize];
        unsafe { *slot.req.get() = req };
        slot.state.store(PENDING, Ordering::Release);
    }

    /// Worker side: read the payload of a slot popped from the queue.
    pub fn read_req(&self, idx: u32) -> RawReq {
        unsafe { *self.slots[idx as usize].req.get() }
    }

    /// Worker side: the slot was popped from the queue.
    pub fn start(&self, idx: u32) {
        let _ = self.slots[idx as usize].state.fetch_update(
            Ordering::Relaxed,
            Ordering::Relaxed,
            |s| Some((s & ABANDONED) | RUNNING),
        );
    }

    /// Worker side: exclusive access to the slot's reusable scan buffer
    /// (the worker owns the slot between queue pop and completion).
    #[allow(clippy::mut_from_ref)]
    pub fn scan_buf(&self, idx: u32) -> &mut Vec<(u64, u64)> {
        unsafe { &mut *self.slots[idx as usize].scan_buf.get() }
    }

    /// Worker side: publish the result and flip the slot to DONE.
    pub fn complete(&self, idx: u32, value: Option<u64>) {
        unsafe { *self.slots[idx as usize].result.get() = value };
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

    /// Waiter side: consume the result of a DONE slot (point value plus
    /// the scan buffer contents, if any). The slot stays the waiter's
    /// until it [`abandon`](SlotPool::abandon)s it.
    pub fn take_result(&self, idx: u32) -> (Option<u64>, Vec<(u64, u64)>) {
        debug_assert_eq!(self.state(idx), DONE);
        let slot = &self.slots[idx as usize];
        let value = unsafe { *slot.result.get() };
        let scan = unsafe { std::mem::take(&mut *slot.scan_buf.get()) };
        (value, scan)
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
        pool.stage(
            idx,
            RawReq {
                kind: K_PUT,
                key: 7,
                arg: 42,
                issued_ns: 5,
            },
        );
        assert_eq!(pool.state(idx), PENDING);
        let req = pool.read_req(idx);
        assert_eq!((req.kind, req.key, req.arg), (K_PUT, 7, 42));
        pool.complete(idx, Some(41));
        assert_eq!(pool.state(idx), DONE);
        let (v, scan) = pool.take_result(idx);
        assert_eq!(v, Some(41));
        assert!(scan.is_empty());
        pool.abandon(idx);
        assert_eq!(pool.state(idx), FREE);
    }

    #[test]
    fn an_abandoned_slot_is_recycled_by_whoever_finishes_second() {
        let pool = SlotPool::new(1);
        let req = RawReq {
            kind: K_GET,
            key: 1,
            arg: 0,
            issued_ns: 0,
        };
        // Worker first, then the ticket's drop.
        let idx = pool.acquire().unwrap();
        pool.stage(idx, req);
        pool.start(idx);
        pool.complete(idx, None);
        assert_eq!(pool.state(idx), DONE);
        pool.abandon(idx);
        assert_eq!(pool.state(idx), FREE);
        // The drop first, then the worker.
        let idx = pool.acquire().unwrap();
        pool.stage(idx, req);
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
            for _ in 0..4 {
                let pool = &pool;
                s.spawn(move || {
                    for _ in 0..2_000 {
                        if let Some(idx) = pool.acquire() {
                            // Exclusive ownership: stage must read back.
                            pool.stage(
                                idx,
                                RawReq {
                                    kind: K_GET,
                                    key: u64::from(idx),
                                    arg: 0,
                                    issued_ns: 0,
                                },
                            );
                            assert_eq!(pool.read_req(idx).key, u64::from(idx));
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
