//! Advisory locks and the backoff their waiters pause with.
//!
//! Eunomia throttles *true* conflicts with fine-grained advisory locks
//! taken **outside** HTM regions (§3, §4.1): a per-leaf split lock and the
//! conflict-control module's per-slot lock bits. Both, the rebalance
//! sweep's token and a tree's root lock are one [`LockWord`]: a CAS
//! spinlock on real threads; on the virtual clock an acquirer arriving
//! while the lock is held is charged the wait until the holder's release
//! time ([`ThreadCtx::vlock_free_at`]), which is how lock convoys show up.
//!
//! The global fallback lock keeps its own spelling beside the executor
//! (`ThreadCtx::fb_acquire`): every attempt subscribes to it, on TL2 its
//! acquire waits out the write-backs under way, and it is charged
//! `lock_acquire` / `lock_release` rather than a CAS. Masstree's version
//! word keeps its own too: a seqlock whose acquire is a quiet CAS and
//! whose release bumps its counters, written over the virtual lock clock.

use euno_metrics::Counter;
use euno_trace::EventKind;

use crate::ctx::ThreadCtx;
use crate::runtime::Backend;
use crate::word::TxCell;

/// Bounded exponential backoff for concurrent-mode spin loops.
///
/// Unbounded tight spinning is the software edition of the paper's §3
/// *lemming effect*: every waiter hammers the lock line, the holder's
/// release gets starved of coherence bandwidth, and the convoy feeds
/// itself. Each [`pause`](SpinBackoff::pause) doubles the wait up to
/// `spin_iter · 2^MAX_EXPONENT` cycles; once capped, the waiter also
/// yields the OS thread so an unscheduled holder can run. All waited
/// cycles are charged to the thread clock and `cycles_lock_wait`, exactly
/// like the virtual-mode hold-time model. Every acquisition starts from a
/// fresh one: carrying a saturated exponent from one contended region
/// into the next would make an unrelated, possibly uncontended lock pay
/// multi-thousand-cycle pauses on its first miss.
#[derive(Default)]
pub struct SpinBackoff {
    exponent: u32,
}

impl SpinBackoff {
    /// Backoff doubling stops at `spin_iter << MAX_EXPONENT` cycles.
    pub const MAX_EXPONENT: u32 = 6;

    pub fn new() -> Self {
        Self::default()
    }

    /// Wait one backoff step, charging the cycles to `ctx`.
    pub fn pause(&mut self, ctx: &mut ThreadCtx) {
        let unit = ctx.runtime().cost.spin_iter.max(1);
        let iters = unit << self.exponent;
        ctx.charge(iters);
        ctx.stats.cycles_lock_wait += iters;
        for _ in 0..iters {
            std::hint::spin_loop();
        }
        if self.exponent < Self::MAX_EXPONENT {
            self.exponent += 1;
        } else {
            std::thread::yield_now();
        }
    }
}

/// Fibonacci-hash a key to an advisory slot in `0..nslots` (the paper's
/// Figure 5 hash) — the CCM's slot map.
#[inline]
pub fn slot_for_key(key: u64, nslots: u32) -> u32 {
    debug_assert!(nslots > 0);
    let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    (h >> 32) as u32 % nslots
}

/// One advisory lock word, at one of two widths: a single lock (the split
/// lock, the sweep token, a root lock), keyed on the virtual clock by its
/// address and released by a plain store; or a vector of 64 (the CCM's
/// lock bits), bit `b` keyed by `(address << 6) | b` — word addresses are
/// 8-byte aligned, so no two bits' keys collide — and released by a
/// `fetch_and`. Every acquisition counts `AdvisoryAcquires` (and
/// `AdvisoryWaits` if it waited) and traces `LockAcquire` at the word's
/// address.
#[repr(transparent)]
#[derive(Default)]
pub struct LockWord(TxCell);

impl LockWord {
    fn addr(&self) -> u64 {
        self.0.raw_ptr() as u64
    }

    /// Virtual-lock key and mask of the single lock (`None`) or of `bit`.
    fn key_mask(&self, bit: Option<u32>) -> (u64, u64) {
        bit.map_or((self.addr(), 1), |b| {
            ((self.addr() << 6) | u64::from(b & 63), 1 << b)
        })
    }

    fn trace_acquire(&self, ctx: &mut ThreadCtx, wait_cycles: u64) {
        let addr = self.addr();
        ctx.trace(EventKind::LockAcquire { addr, wait_cycles });
    }

    /// The one blocking acquire. Real threads test-and-test-and-set
    /// behind a fresh [`SpinBackoff`] (a bit vector shares its word with
    /// 63 other locks, so a convoying `fetch_or` loop would starve every
    /// one of them); the virtual clock charges the wait
    /// until the holder's modeled release plus one losing CAS
    /// ([`ThreadCtx::virt_acquire_mask`]) — one losing and one winning CAS
    /// either way.
    fn lock(&self, ctx: &mut ThreadCtx, bit: Option<u32>) {
        let (vkey, mask) = self.key_mask(bit);
        ctx.metric_add(Counter::AdvisoryAcquires, 1);
        let wait_before = ctx.stats.cycles_lock_wait;
        match ctx.runtime().backend() {
            Backend::Virtual => ctx.virt_acquire_mask(&self.0, mask, vkey),
            Backend::Stm | Backend::Rtm => {
                let mut backoff = SpinBackoff::new();
                while self.0.load_direct(ctx) & mask != 0
                    || self.0.fetch_or_direct(ctx, mask) & mask != 0
                {
                    backoff.pause(ctx);
                }
            }
        }
        let waited = ctx.stats.cycles_lock_wait - wait_before;
        if waited > 0 {
            ctx.metric_add(Counter::AdvisoryWaits, 1);
        }
        self.trace_acquire(ctx, waited);
    }

    /// The one release: the single lock by a whole-word store (cheaper
    /// than the vector's `fetch_and`, and part of the cost model the
    /// figures were calibrated with), a bit by clearing it alone.
    fn unlock(&self, ctx: &mut ThreadCtx, bit: Option<u32>) {
        let (vkey, mask) = self.key_mask(bit);
        ctx.vlock_hold(vkey);
        match bit {
            None => self.0.store_direct(ctx, 0),
            Some(_) => _ = self.0.fetch_and_direct(ctx, !mask),
        }
        ctx.trace(EventKind::LockRelease { addr: self.addr() });
    }

    pub fn acquire(&self, ctx: &mut ThreadCtx) {
        self.lock(ctx, None);
    }

    pub fn release(&self, ctx: &mut ThreadCtx) {
        self.unlock(ctx, None);
    }

    pub fn acquire_bit(&self, ctx: &mut ThreadCtx, bit: u32) {
        self.lock(ctx, Some(bit));
    }

    pub fn release_bit(&self, ctx: &mut ThreadCtx, bit: u32) {
        self.unlock(ctx, Some(bit));
    }

    /// Non-blocking acquire of the single lock: one CAS, won or lost.
    pub fn try_acquire(&self, ctx: &mut ThreadCtx) -> bool {
        let taken = if ctx.vlock_free_at(self.addr()) > ctx.clock {
            // Virtually held: the CAS a concurrent acquirer would lose.
            ctx.charge_cas_miss();
            false
        } else {
            self.0.cas_direct(ctx, 0, 1)
        };
        if taken {
            self.trace_acquire(ctx, 0);
        }
        taken
    }

    /// The held bits, uninstrumented (assertions and audits).
    pub fn held_plain(&self) -> u64 {
        self.0.load_plain()
    }
}

/// Tree-level control words (root pointer, fallback lock, root lock),
/// boxed on their own cache line so the line assignment of these heavily
/// subscribed cells never depends on where the tree struct itself lives —
/// a prerequisite for bit-for-bit deterministic virtual-time runs.
#[repr(C, align(64))]
pub struct ControlBlock {
    /// Root node pointer bits.
    pub root: TxCell,
    /// Global fallback lock for HTM regions.
    pub fallback: TxCell,
    /// Serializes root replacement in lock-based trees.
    pub root_lock: LockWord,
}

impl ControlBlock {
    pub fn new(root_bits: u64) -> Box<Self> {
        Box::new(ControlBlock {
            root: TxCell::new(root_bits),
            fallback: TxCell::new(0),
            root_lock: LockWord::default(),
        })
    }
}

// Test-support helper: acquire a lock and hold it for `work` cycles.
#[cfg(test)]
impl crate::ctx::ThreadCtx {
    fn acquire_and_work(&mut self, l: &LockWord, work: u64) {
        l.acquire(self);
        self.charge(work);
        l.release(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use crate::tl2::VersionTable;
    use std::sync::atomic::Ordering;

    #[test]
    fn advisory_lock_acquire_release_virtual() {
        let rt = Runtime::new_virtual();
        let mut ctx = rt.thread(0);
        let l = LockWord::default();
        assert_eq!(l.held_plain(), 0);
        l.acquire(&mut ctx);
        assert_eq!(l.held_plain(), 1);
        l.release(&mut ctx);
        assert_eq!(l.held_plain(), 0);
    }

    #[test]
    fn bit_lock_keys_are_distinct() {
        let words = [LockWord::default(), LockWord::default()];
        let mut keys = std::collections::HashSet::new();
        for b in 0..64 {
            keys.insert(words[0].key_mask(Some(b)).0);
        }
        assert_eq!(keys.len(), 64);
        assert!(!keys.contains(&words[1].key_mask(Some(0)).0));
    }

    #[test]
    fn later_virtual_acquirer_waits_for_hold() {
        let rt = Runtime::new_virtual();
        let mut a = rt.thread(0);
        let mut b = rt.thread(1);
        let l = LockWord::default();
        a.acquire_and_work(&l, 1_000);
        // b starts at clock 0; must be pushed past a's release time.
        l.acquire(&mut b);
        assert!(b.clock >= 1_000, "b.clock = {}", b.clock);
        assert!(b.stats.cycles_lock_wait >= 1_000);
        l.release(&mut b);
    }

    #[test]
    fn try_acquire_fails_while_virtually_held() {
        let rt = Runtime::new_virtual();
        let mut a = rt.thread(0);
        let mut b = rt.thread(1);
        let l = LockWord::default();
        a.acquire_and_work(&l, 5_000);
        assert!(!l.try_acquire(&mut b));
        b.charge(10_000);
        assert!(l.try_acquire(&mut b));
        l.release(&mut b);
    }

    #[test]
    fn advisory_lock_mutual_exclusion_concurrent() {
        let rt = Runtime::new_concurrent();
        let l = LockWord::default();
        let counter = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let mut ctx = rt.thread(t);
                let (l, counter) = (&l, &counter);
                s.spawn(move || {
                    for _ in 0..200 {
                        l.acquire(&mut ctx);
                        let v = counter.load(std::sync::atomic::Ordering::Relaxed);
                        counter.store(v + 1, std::sync::atomic::Ordering::Relaxed);
                        l.release(&mut ctx);
                    }
                });
            }
        });
        assert_eq!(counter.load(std::sync::atomic::Ordering::Relaxed), 800);
    }

    #[test]
    fn spin_backoff_is_bounded_and_charged() {
        let rt = Runtime::new_concurrent();
        let mut ctx = rt.thread(0);
        let unit = rt.cost.spin_iter.max(1);
        let mut b = SpinBackoff::new();
        let mut expected = 0u64;
        // Doubling stops at MAX_EXPONENT; pausing beyond it stays capped.
        for i in 0..(SpinBackoff::MAX_EXPONENT + 4) {
            let before = ctx.clock;
            b.pause(&mut ctx);
            let step = ctx.clock - before;
            expected += step;
            assert_eq!(step, unit << i.min(SpinBackoff::MAX_EXPONENT));
        }
        assert_eq!(ctx.stats.cycles_lock_wait, expected);
    }

    #[test]
    fn contended_concurrent_acquire_backs_off_not_convoys() {
        // A long-held lock must not cost the waiter one CAS per spin
        // iteration: with test-and-test-and-set + backoff the number of
        // CAS attempts stays tiny while the waited cycles accumulate in
        // cycles_lock_wait.
        let rt = Runtime::new_concurrent();
        let l = LockWord::default();
        std::thread::scope(|s| {
            let mut holder = rt.thread(0);
            l.acquire(&mut holder);
            let l = &l;
            let rt2 = std::sync::Arc::clone(&rt);
            let waiter = s.spawn(move || {
                let mut ctx = rt2.thread(1);
                l.acquire(&mut ctx);
                l.release(&mut ctx);
                ctx.stats
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            l.release(&mut holder);
            let stats = waiter.join().unwrap();
            assert!(stats.cycles_lock_wait > 0, "wait cycles accounted");
            // 20 ms of tight CAS spinning would be millions of attempts;
            // backoff keeps it to one per pause, and the pause lengths
            // double, so the count stays small relative to the wait.
            assert!(
                stats.cas_ops < 1 + stats.cycles_lock_wait / rt.cost.spin_iter.max(1),
                "cas_ops = {}, cycles_lock_wait = {}",
                stats.cas_ops,
                stats.cycles_lock_wait
            );
        });
    }

    #[test]
    fn spin_backoff_resets_between_regions() {
        // Satellite audit: a fallback-heavy region must not poison the
        // next region's backoff schedule. The acquire cores construct a
        // fresh SpinBackoff per acquisition.
        let rt = Runtime::new_concurrent();
        let mut ctx = rt.thread(0);

        let mut b = SpinBackoff::new();
        for _ in 0..SpinBackoff::MAX_EXPONENT + 2 {
            b.pause(&mut ctx);
        }

        // An uncontended acquisition after a heavily contended one spins
        // zero times — the saturated exponent of the earlier acquire must
        // not leak in (fresh backoff per acquire call).
        let l = LockWord::default();
        let wait_before = ctx.stats.cycles_lock_wait;
        l.acquire(&mut ctx);
        l.release(&mut ctx);
        assert_eq!(
            ctx.stats.cycles_lock_wait, wait_before,
            "uncontended acquire must not pause at all"
        );
    }

    #[test]
    fn commit_release_stays_visible_past_direct_write_bumps() {
        // Regression: the old `bump_line` added +1 per direct write
        // without advancing the global clock, so a hot line could push
        // its slot's version past `rt.seq`; a committer whose `wv` fell
        // at or below that version then released with the version word
        // unchanged, making the commit invisible to readers that logged
        // the inflated version before it — a missed conflict. With
        // clock-anchored bumps every stored version is a unique `seq`
        // draw, so a release always leaves the slot strictly newer than
        // any pre-commit observation.
        let rt = Runtime::new_concurrent();
        let mut ctx = rt.thread(0);
        let cell = TxCell::new(0u64);
        let line = crate::line::LineId::of_ptr(cell.raw_ptr());
        let slot = rt.vlocks.slot_of(line);

        // Hot direct-write traffic: versions must never outrun the clock.
        for i in 0..8 {
            cell.store_direct(&mut ctx, i);
            assert!(rt.vlocks.line_version(line) <= rt.seq.load(Ordering::SeqCst));
        }

        // A reader logs the current version; a committer locks the slot,
        // draws its write version and releases. The released word must
        // differ from the logged one or revalidation cannot catch the
        // commit.
        let logged = rt.vlocks.line_version(line);
        assert!(rt.vlocks.try_lock(slot));
        let wv = rt.seq.fetch_add(1, Ordering::SeqCst) + 1;
        rt.vlocks.unlock_commit(slot, wv);
        assert!(!VersionTable::is_locked(rt.vlocks.load(slot)));
        assert!(
            rt.vlocks.line_version(line) > logged,
            "release left the reader-visible version unchanged"
        );

        // A bump landing while the slot is locked preserves the lock bit,
        // and a lower-wv release keeps the higher (later-clock) version.
        assert!(rt.vlocks.try_lock(slot));
        let wv2 = rt.seq.fetch_add(1, Ordering::SeqCst) + 1;
        cell.store_direct(&mut ctx, 99); // clock draw above wv2
        assert!(VersionTable::is_locked(rt.vlocks.load(slot)));
        let high = rt.vlocks.line_version(line);
        assert!(high > wv2);
        rt.vlocks.unlock_commit(slot, wv2);
        assert!(!VersionTable::is_locked(rt.vlocks.load(slot)));
        assert_eq!(
            rt.vlocks.line_version(line),
            high,
            "keep-higher release must preserve the later bump"
        );
    }

    #[test]
    fn cas_charging_symmetric_across_paths() {
        // Regression: the virtual failure path of try_acquire charged
        // cycles without counting the CAS, and contended virtual acquires
        // skipped the losing CAS entirely, so policy figures undercounted
        // CAS traffic relative to concurrent mode.
        let rt = Runtime::new_virtual();
        let mut a = rt.thread(0);
        let mut b = rt.thread(1);
        let l = LockWord::default();

        // Uncontended try_acquire: exactly one CAS.
        assert!(l.try_acquire(&mut a));
        assert_eq!(a.stats.cas_ops, 1);
        a.charge(5_000);
        l.release(&mut a);

        // Failing try_acquire while virtually held: also exactly one CAS.
        let before = b.stats.cas_ops;
        assert!(!l.try_acquire(&mut b));
        assert_eq!(b.stats.cas_ops, before + 1, "failed CAS must be counted");

        // Contended blocking acquire: one losing + one winning CAS.
        let before = b.stats.cas_ops;
        l.acquire(&mut b);
        assert_eq!(b.stats.cas_ops, before + 2);
        l.release(&mut b);
    }
}
