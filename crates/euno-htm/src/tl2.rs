//! The TL2 software-transaction backend ([`Backend::Stm`]): real threads,
//! per-line version locks, buffered writes, read-version validation
//! (DESIGN.md §4.5). Everything the protocol consists of is here — the
//! striped [`VersionTable`], the versioned read, the commit with its
//! write-back quiesce, the clock-anchored publication of direct writes,
//! the fallback cell's real-thread half, and the episode-free snapshot
//! pair — as the `tl2_*` halves of the entry points [`crate::ctx`]
//! dispatches from. [`Backend::Rtm`] runs on the same clock, fallback
//! cell and direct-write publication; only the attempt itself differs
//! ([`crate::rtm`]).
//!
//! [`Backend::Stm`]: crate::runtime::Backend::Stm
//! [`Backend::Rtm`]: crate::runtime::Backend::Rtm

use std::sync::atomic::{AtomicU64, Ordering};

use euno_trace::{EpisodeKind, EventKind};

use crate::abort::{classify_conflict, AbortCause, ConflictInfo};
use crate::ctx::{EpisodeState, ThreadCtx};
use crate::line::LineId;
use crate::lock::SpinBackoff;
use crate::runtime::Runtime;
use crate::word::TxCell;

/// Log2 of the version-lock table size. 2^14 slots × 8 bytes = 128 KiB —
/// large enough that a tree footprint of tens of lines collides rarely,
/// small enough to stay cache-resident under heavy traffic.
const VERSION_TABLE_LOG2: u32 = 14;

/// TL2-style striped table of versioned write-locks, one word per slot:
/// `version << 1 | locked`. Concurrent-mode software transactions map each
/// cache line ([`LineId`]) to a slot with the same Fibonacci
/// multiplier as [`slot_for_key`](crate::lock::slot_for_key), lock their write slots at commit,
/// validate read slots by version equality, and release with a bumped
/// version taken from the global clock (`Runtime::seq`). *Every* version
/// stored in a slot — commit release and direct-write bump alike — is a
/// unique clock draw, so slot versions never outrun `Runtime::seq`.
/// Distinct lines may share a slot; collisions only ever cause
/// conservative aborts, never missed conflicts.
///
/// All operations are `SeqCst`: the commit protocol's correctness
/// argument (writeback counter vs. fallback quiesce vs. episode-free
/// readers, DESIGN.md §4.5) is a total-order argument, and the table is
/// not the bottleneck — the point of striping is that disjoint commits
/// touch disjoint slots.
pub struct VersionTable {
    slots: Box<[AtomicU64]>,
}

impl VersionTable {
    pub(crate) fn new() -> Self {
        VersionTable {
            slots: (0..1usize << VERSION_TABLE_LOG2)
                .map(|_| AtomicU64::new(0))
                .collect(),
        }
    }

    /// Slot index of a line (top bits of the Fibonacci hash, like
    /// [`slot_for_key`](crate::lock::slot_for_key) but with a power-of-two table).
    #[inline]
    pub fn slot_of(&self, line: LineId) -> u32 {
        (line.0.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> (64 - VERSION_TABLE_LOG2)) as u32
    }

    #[inline]
    pub fn load(&self, slot: u32) -> u64 {
        self.slots[slot as usize].load(Ordering::SeqCst)
    }

    #[inline]
    pub fn is_locked(word: u64) -> bool {
        word & 1 == 1
    }

    #[inline]
    pub fn version_of(word: u64) -> u64 {
        word >> 1
    }

    /// One lock attempt (no spin): set the lock bit, keeping the version.
    #[inline]
    pub(crate) fn try_lock(&self, slot: u32) -> bool {
        let s = &self.slots[slot as usize];
        let w = s.load(Ordering::SeqCst);
        !Self::is_locked(w)
            && s.compare_exchange(w, w | 1, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
    }

    /// Release a held slot without publishing: clear the lock bit only, so
    /// version bumps that landed while we held it survive.
    #[inline]
    pub(crate) fn unlock_abort(&self, slot: u32) {
        self.slots[slot as usize].fetch_and(!1, Ordering::SeqCst);
    }

    /// Release a held slot at write-version `wv`. Versions are monotone:
    /// if a concurrent direct-write bump already pushed the slot past
    /// `wv`, keep the higher version and just drop the lock bit. The
    /// keep-higher path is sound *because* bumps are clock-anchored
    /// ([`VersionTable::bump_line_to`]): every version ever stored is a
    /// unique `Runtime::seq` draw, so a slot version above `wv` was
    /// issued *after* our own clock tick — and strictly after anything a
    /// reader could have logged before we locked the slot (readers never
    /// log a locked slot). Either way the released word differs from
    /// every pre-commit observation, so revalidation always catches us.
    #[inline]
    pub(crate) fn unlock_commit(&self, slot: u32, wv: u64) {
        let s = &self.slots[slot as usize];
        let prev = s.fetch_max(wv << 1, Ordering::SeqCst);
        if Self::version_of(prev) >= wv {
            // fetch_max kept `prev`, which still carries our lock bit (we
            // are the only possible holder), so clear just that bit.
            s.fetch_and(!1, Ordering::SeqCst);
        }
    }

    /// Version bump for a non-transactional (direct / fallback) write:
    /// raise the slot covering `line` to `ver` — a fresh global-clock
    /// draw the caller obtained via `Runtime::seq.fetch_add(1) + 1` —
    /// preserving the lock bit of any in-flight committer. Anchoring the
    /// bump to the clock (instead of a local `+1`) maintains the
    /// invariant that a slot's version never exceeds `Runtime::seq`,
    /// which both [`VersionTable::unlock_commit`] and the TL2 read-path
    /// `rv`-extension rely on: a post-snapshot direct write always reads
    /// as `ver > rv` and forces revalidation.
    #[inline]
    pub(crate) fn bump_line_to(&self, line: LineId, ver: u64) {
        let s = &self.slots[self.slot_of(line) as usize];
        let mut cur = s.load(Ordering::SeqCst);
        while Self::version_of(cur) < ver {
            let new = (ver << 1) | (cur & 1);
            match s.compare_exchange_weak(cur, new, Ordering::SeqCst, Ordering::SeqCst) {
                Ok(_) => break,
                Err(w) => cur = w,
            }
        }
    }

    /// Current version of the slot covering `line` (tests/diagnostics).
    pub fn line_version(&self, line: LineId) -> u64 {
        Self::version_of(self.load(self.slot_of(line)))
    }
}

impl ThreadCtx {
    /// Begin a software transaction subscribed to the fallback cell at
    /// `fb`: sample the global version clock as the read version — no
    /// waiting, in-flight commits are detected per line via the
    /// version-lock table — and reject an attempt that starts while the
    /// fallback path is active. The lock cell is value-checked — not
    /// version-logged — at every subsequent TL2 read (`tl2_read`) and at
    /// commit (`tl2_commit` step 4).
    pub(crate) fn tl2_begin(&mut self, fb: *const AtomicU64) -> Result<(), AbortCause> {
        self.ep.as_mut().unwrap().rv = self.rt.seq.load(Ordering::SeqCst);
        if unsafe { (*fb).load(Ordering::Acquire) } != 0 {
            return Err(AbortCause::FallbackLocked);
        }
        Ok(())
    }

    /// Pauses a TL2 read tolerates before declaring the locked slot a
    /// conflict. [`SpinBackoff`] doubles each pause, so the
    /// total tolerated wait is thousands of spin quanta — enough to ride
    /// out any writeback, bounded so a preempted committer cannot hang
    /// readers (they abort, back off per policy, and retry).
    const TL2_READ_MAX_PAUSES: u32 = 12;

    /// TL2-style versioned read (concurrent mode only): sandwich the cell
    /// load between two reads of the line's version-lock word; retry while
    /// a committer holds the slot; extend the episode's read version when
    /// the line is newer than `rv` (revalidating the whole read log);
    /// record `(line, version)` for commit-time validation.
    pub(crate) fn tl2_read(&mut self, ptr: *const AtomicU64) -> Result<u64, AbortCause> {
        // Eager fallback-lock check — the software edition of hardware
        // lock subscription. Fallback sections write directly, so even a
        // read-only transaction must abort as soon as the subscribed lock
        // is taken, not just at its next clock extension.
        if let Some(fb) = self.ep.as_ref().unwrap().fb_ptr {
            if unsafe { (*fb.0).load(Ordering::Acquire) } != 0 {
                return Err(AbortCause::FallbackLocked);
            }
        }
        let line = LineId::of_ptr(ptr);
        let slot = self.rt.vlocks.slot_of(line);
        let mut backoff = SpinBackoff::new();
        let mut pauses = 0u32;
        let (w1, v) = loop {
            let w1 = self.rt.vlocks.load(slot);
            if !VersionTable::is_locked(w1) {
                let v = unsafe { (*ptr).load(Ordering::Acquire) };
                if self.rt.vlocks.load(slot) == w1 {
                    break (w1, v);
                }
            }
            // Locked (a committer is writing this slot's lines back) or
            // the word moved under the load: bounded backoff — waited
            // cycles are charged to the clock and `cycles_lock_wait`,
            // and a capped wait aborts as a conflict instead of spinning
            // forever behind a preempted committer.
            pauses += 1;
            self.metric_add(euno_metrics::Counter::Tl2ReadWaits, 1);
            if pauses > Self::TL2_READ_MAX_PAUSES {
                return Err(self.line_conflict_cause(line));
            }
            backoff.pause(self);
        };
        let ver = VersionTable::version_of(w1);
        if ver > self.ep.as_ref().unwrap().rv {
            // The line committed after our snapshot point: extend the
            // read version to now, which is sound iff everything read so
            // far is still at its logged version.
            self.metric_add(euno_metrics::Counter::Tl2Extensions, 1);
            let new_rv = self.rt.seq.load(Ordering::SeqCst);
            let bad = {
                let ep = self.ep.as_ref().unwrap();
                ep.ver_log
                    .iter()
                    .find(|&&(l, lv)| {
                        let w = self.rt.vlocks.load(self.rt.vlocks.slot_of(l));
                        VersionTable::is_locked(w) || VersionTable::version_of(w) != lv
                    })
                    .map(|&(l, _)| l)
            };
            if let Some(l) = bad {
                self.metric_add(euno_metrics::Counter::Tl2ValidationFails, 1);
                return Err(self.line_conflict_cause(l));
            }
            self.ep.as_mut().unwrap().rv = new_rv;
        }
        let consistent = {
            let ep = self.ep.as_mut().unwrap();
            match ep.ver_log.iter().find(|&&(l, _)| l == line) {
                // Re-reading a logged line must see the logged version,
                // or the two reads straddle a commit.
                Some(&(_, lv)) => lv == ver,
                None => {
                    ep.ver_log.push((line, ver));
                    true
                }
            }
        };
        if !consistent {
            self.metric_add(euno_metrics::Counter::Tl2ValidationFails, 1);
            return Err(self.line_conflict_cause(line));
        }
        Ok(v)
    }

    /// Abort cause for a TL2 validation / lock-wait / lock-acquisition
    /// failure on `line`.
    fn line_conflict_cause(&self, line: LineId) -> AbortCause {
        let ep = self.ep.as_ref().unwrap();
        if ep.fb_line == Some(line) {
            return AbortCause::FallbackLocked;
        }
        let kind = classify_conflict(self.rt.class_of(line), ep.op_key, None);
        AbortCause::Conflict(ConflictInfo {
            line,
            kind,
            other_thread: None,
        })
    }

    /// Lock attempts per write slot at commit before giving up. Commit
    /// locks are held only across validation + writeback (no body work),
    /// so a handful of doubling pauses rides out any live committer;
    /// capped acquisition keeps the protocol deadlock-free even without
    /// the sorted order (which exists to make collisions rare, not to
    /// carry correctness).
    const TL2_COMMIT_MAX_TRIES: u32 = 10;

    /// TL2 commit (concurrent mode): lock the write footprint's version
    /// slots in sorted order, validate the read log's line versions, bump
    /// the global clock, write back, release at the new write version. No
    /// global lock anywhere — disjoint commits proceed fully in parallel.
    pub(crate) fn tl2_commit(&mut self) -> Result<(), AbortCause> {
        let mut ep = self.ep.take().unwrap();
        if ep.write_buf.is_empty() {
            // Read-only: every read was version-validated (with rv
            // extension) at read time, so the snapshot is consistent as
            // of `rv`; nothing to publish, nothing to lock.
            self.recycle(ep);
            self.trace(EventKind::EpisodeCommit {
                kind: EpisodeKind::HtmTx,
            });
            return Ok(());
        }

        // 1. Write footprint → sorted, deduplicated slot indices. Sorting
        // by *slot* (not LineId) is what makes acquisition order globally
        // consistent: striping does not preserve line order.
        ep.wslots.clear();
        for line in ep.writes.iter() {
            ep.wslots.push(self.rt.vlocks.slot_of(line));
        }
        ep.wslots.sort_unstable();
        ep.wslots.dedup();

        // 2. Acquire each slot with a bounded try-lock.
        for i in 0..ep.wslots.len() {
            let slot = ep.wslots[i];
            let mut backoff = SpinBackoff::new();
            let mut tries = 0u32;
            loop {
                if self.rt.vlocks.try_lock(slot) {
                    self.metric_add(euno_metrics::Counter::Tl2LockAcquires, 1);
                    break;
                }
                tries += 1;
                if tries > Self::TL2_COMMIT_MAX_TRIES {
                    self.metric_add(euno_metrics::Counter::Tl2LockFails, 1);
                    for &held in &ep.wslots[..i] {
                        self.rt.vlocks.unlock_abort(held);
                    }
                    // Attribute it to the first write line mapping there.
                    let at_slot = |&l: &LineId| self.rt.vlocks.slot_of(l) == slot;
                    let line = ep.writes.iter().find(at_slot).unwrap_or(LineId(0));
                    self.ep = Some(ep);
                    return Err(self.line_conflict_cause(line));
                }
                backoff.pause(self);
            }
        }

        // 3. Announce the writeback *before* validating: a fallback
        // acquirer that wins the lock cell after our check in step 4
        // spins on `wb_active` until our store in step 7 lands, so its
        // direct accesses never interleave a half-applied buffer. The
        // same counter gates episode-free optimistic snapshots.
        self.rt.wb_active.fetch_add(1, Ordering::SeqCst);

        // 4. The subscribed fallback lock must still be free.
        if let Some(fb) = ep.fb_ptr {
            if unsafe { (*fb.0).load(Ordering::SeqCst) } != 0 {
                Self::abort_writeback(&self.rt, &ep);
                self.ep = Some(ep);
                return Err(AbortCause::FallbackLocked);
            }
        }

        // 5. Validate the read log: every line still at its logged
        // version, and locked only if we hold the lock (write-after-read
        // of our own footprint).
        for i in 0..ep.ver_log.len() {
            let (l, lv) = ep.ver_log[i];
            let slot = self.rt.vlocks.slot_of(l);
            let w = self.rt.vlocks.load(slot);
            let locked_by_other =
                VersionTable::is_locked(w) && ep.wslots.binary_search(&slot).is_err();
            if locked_by_other || VersionTable::version_of(w) != lv {
                self.metric_add(euno_metrics::Counter::Tl2ValidationFails, 1);
                Self::abort_writeback(&self.rt, &ep);
                let cause = {
                    self.ep = Some(ep);
                    self.line_conflict_cause(l)
                };
                return Err(cause);
            }
        }

        // 6. Serialization point: one clock tick for this commit.
        let wv = self.rt.seq.fetch_add(1, Ordering::SeqCst) + 1;

        // 7. Write back and release each slot at the new version.
        for (p, v) in &ep.write_buf {
            unsafe { (*p.0).store(*v, Ordering::Release) };
        }
        for &slot in ep.wslots.iter() {
            self.rt.vlocks.unlock_commit(slot, wv);
        }
        self.rt.wb_active.fetch_sub(1, Ordering::SeqCst);

        self.recycle(ep);
        self.trace(EventKind::EpisodeCommit {
            kind: EpisodeKind::HtmTx,
        });
        Ok(())
    }

    /// Abort-path unwind for a commit that already announced its
    /// writeback: release every held slot (preserving version bumps) and
    /// retract the announcement.
    fn abort_writeback(rt: &Runtime, ep: &EpisodeState) {
        for &slot in ep.wslots.iter() {
            rt.vlocks.unlock_abort(slot);
        }
        rt.wb_active.fetch_sub(1, Ordering::SeqCst);
    }

    /// Real-thread counterpart of [`ThreadCtx::virt_publish_point_write`]:
    /// make a direct (unbuffered) write visible to TL2 validation by
    /// advancing the global clock and raising the line's version slot to
    /// the new clock value. Applies to *every* non-quiet direct write —
    /// in-place writes under node locks and fallback-section stores
    /// bypass the commit protocol. Anchoring the bump to `rt.seq`
    /// (rather than a local `+1`) is load-bearing twice over:
    ///
    /// * slot versions can never exceed the clock, so a committer whose
    ///   `wv` is below a bump-inflated slot version is releasing after a
    ///   strictly *later* clock tick than anything a pre-commit reader
    ///   logged — the commit cannot become version-invisible
    ///   ([`VersionTable::unlock_commit`]);
    /// * any post-snapshot direct write yields `ver > rv` at the next
    ///   `tl2_read`, forcing the extension revalidation — so even a
    ///   read-only transaction (which has no commit-time validation)
    ///   aborts rather than spanning a multi-line direct update.
    #[inline]
    pub(crate) fn bump_line_version(&self, line: LineId) {
        let ver = self.rt.seq.fetch_add(1, Ordering::SeqCst) + 1;
        self.rt.vlocks.bump_line_to(line, ver);
    }

    /// Take the fallback cell: win it, then wait out every write-back that
    /// was already under way.
    pub(crate) fn tl2_fb_lock(&mut self, fb: &TxCell<u64>) {
        let mut backoff = SpinBackoff::new();
        loop {
            // SeqCst CAS: the quiesce below is a total-order
            // argument against the committer's SeqCst fallback
            // check (commit step 4) and `wb_active` announcement.
            if fb.raw().load(Ordering::Acquire) == 0
                && fb
                    .raw()
                    .compare_exchange(0, 1, Ordering::SeqCst, Ordering::Acquire)
                    .is_ok()
            {
                break;
            }
            backoff.pause(self);
        }
        // Quiesce in-flight writebacks: any committer that passed
        // its fallback check before our CAS announced itself on
        // `wb_active` *before* that check, so spinning the counter
        // to zero guarantees its buffer is fully applied; every
        // later committer fails the check and unwinds. Direct
        // reads and writes on the fallback path are then safe.
        let mut backoff = SpinBackoff::new();
        while self.rt.wb_active.load(Ordering::SeqCst) != 0 {
            backoff.pause(self);
        }
    }

    /// Publish a completed fallback section, just before its cell clears.
    pub(crate) fn tl2_fb_unlock(&self) {
        // Fallback sections write *directly* (no TL2 buffer), so
        // an episode-free optimistic reader validating against
        // `rt.seq` cannot see them through the sequence alone. Bump
        // the sequence while the fallback cell is still held: a
        // reader that snapshotted before this release observes
        // either the held cell or the moved sequence — never a
        // torn fallback section. (Clearing the cell first would
        // open a window where both of the reader's checks pass.)
        // Transactions need no extra signal: every direct write in
        // the section already bumped its line's version.
        self.rt.seq.fetch_add(1, Ordering::SeqCst);
    }

    /// Snapshot for an episode-free optimistic read: the TL2 clock at a
    /// writeback-quiescent point (`wb_active == 0`). The quiescence wait
    /// is bounded-backoff, not a tight spin: writers hold `wb_active` only
    /// across validation + writeback.
    pub(crate) fn tl2_snapshot(&mut self) -> u64 {
        let mut backoff = SpinBackoff::new();
        loop {
            let s = self.rt.seq.load(Ordering::SeqCst);
            if self.rt.wb_active.load(Ordering::SeqCst) == 0 {
                break s;
            }
            backoff.pause(self);
        }
    }

    /// Validate an episode-free optimistic read section against `snap`:
    /// no writing commit has landed (`rt.seq` unchanged) and no
    /// direct-writing fallback section is active on `fb`. This is sound
    /// because every committer orders `wb_active += 1` → clock bump →
    /// writeback → `wb_active -= 1`: a reader whose snapshot saw
    /// `wb_active == 0` *after* loading `seq == snap` can only observe
    /// writeback stores from commits that bumped the clock first — and
    /// any such bump makes this check fail. A fallback section that
    /// *completed* since the snapshot is caught the same way
    /// ([`ThreadCtx::tl2_fb_unlock`] bumps `rt.seq` before clearing the
    /// cell); an *active* one by the cell check.
    pub(crate) fn tl2_validate(&self, fb: &TxCell<u64>, snap: u64) -> bool {
        fb.raw().load(Ordering::Acquire) == 0 && self.rt.seq.load(Ordering::SeqCst) == snap
    }
}
