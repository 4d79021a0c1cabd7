//! The conflict-control module (CCM): mark bits, lock bits and the
//! adaptive contention detector (§4.1, Figure 5).
//!
//! One CCM sits "above" each leaf node, on its own cache line so its CAS
//! traffic never invalidates lines the HTM regions read — the leaf's
//! segment lines, whose key lines also carry `seqno`, `next` and `parent`
//! ([`crate::EunoLeaf`]): the CCM line is the one line of a leaf that holds
//! no key. A request hashes its key to one of `2 × fanout` slots:
//!
//! * the slot's **lock bit** is a fine-grained advisory lock taken
//!   *outside* the HTM region, serializing concurrent requests to the same
//!   record (and to hash-colliding records) so true conflicts never meet
//!   inside a transaction;
//! * the slot's **mark bit** says "a key hashing here may exist" — a
//!   Bloom-filter-style filter that sends definite misses home without
//!   touching the leaf.
//!
//! The same line hosts the **adaptive contention detector** (§4.1,
//! guideline 4): a per-leaf verdict, *protected* or *bypassed*. A protected
//! leaf runs the stage above; a bypassed one runs none of it — no lock
//! bit, no filter, and no write to this line at all once its key's mark
//! is set (Figure 13's `+Adaptive` bar). The verdict is kept by the
//! operations that pay for it: protected operations and operations that
//! met a conflict feed the window, calm operations on a bypassed leaf feed
//! nothing (DESIGN.md §4.8 has the state machine).
//!
//! The whole stage is the [`Ccm::enter`] / [`Ccm::leave`] pair; the
//! single-op traversal and the batch's leaf group both run it through
//! that pair and through nothing else.
//!
//! Mark bits here are *monotone within a leaf's lifetime*: deletion does
//! not clear them (the paper clears; doing so can manufacture false
//! negatives for hash-colliding live keys, which would be a correctness
//! bug — see DESIGN.md). A split gives the new right node a freshly
//! computed vector, so staleness decays at reorganization. Monotone is
//! also what lets a put *test before it sets*: a set bit stays set, so a
//! plain load that sees it needs no read-modify-write behind it.

use euno_htm::{EventKind, LockWord, ThreadCtx, TxCell};

use crate::config::EunoConfig;

/// Adaptive detector: operations per decision window. Only operations
/// that ran protected or met a conflict count toward it.
pub const ADAPTIVE_WINDOW: u64 = 32;

/// Adaptive detector: bypass while `conflicts / ops` in the last window
/// stayed at or below this rate.
pub const ADAPTIVE_CONFLICT_RATE: f64 = 0.05;

/// Per-leaf conflict-control module. Fits one cache line.
///
/// The adaptive detector's counters are **monotone**: `ops` and
/// `conflicts` only ever grow, and a window is the span between two
/// multiples of [`ADAPTIVE_WINDOW`]. The previous design reset
/// both counters at each window boundary, which raced in concurrent
/// mode — two threads crossing the boundary together could each
/// read-then-reset, losing conflicts and double-deciding `bypass`.
/// With monotone counters the closer is unique (exactly one
/// `fetch_add` returns the crossing value) and claims the window by
/// CAS on `epoch`; nothing is ever reset, so no increment can be lost.
#[repr(C, align(64))]
pub struct Ccm {
    /// Existence filter: bit per slot.
    marks: TxCell<u64>,
    /// Fine-grained advisory locks: bit per slot (Algorithm 2 lines 30-31).
    locks: LockWord,
    /// Adaptive detector: operations seen (monotone).
    ops: TxCell<u64>,
    /// Adaptive detector: conflict aborts seen (monotone).
    conflicts: TxCell<u64>,
    /// Snapshot of `conflicts` at the last window close; the next close
    /// decides on the delta.
    window_base: TxCell<u64>,
    /// Closed-window counter; bumped by CAS by the unique closer.
    epoch: TxCell<u64>,
    /// 1 ⇒ requests may bypass the CCM and leaf-lock pre-acquisition.
    bypass: TxCell<u64>,
    /// The leaf's split lock: serializes splits, merges and locked scan
    /// steps on it. It lives here because it obeys this line's rule — only
    /// ever touched from outside HTM regions, read inside none — so its
    /// acquisition invalidates no line a transaction reads.
    pub split_lock: LockWord,
}

/// One conflict-control stage in flight on a leaf: what [`Ccm::enter`]
/// found and took, to be handed back to [`Ccm::leave`].
#[must_use = "a stage that is not left keeps its lock bits"]
pub struct Stage<'s> {
    /// The slots the stage covers, ascending and without duplicates.
    slots: &'s [u32],
    /// The leaf was protected when the stage opened.
    protected: bool,
    /// The stage holds the lock bits of `slots`.
    locked: bool,
    /// Slots whose mark is clear even after this stage's own claims; zero
    /// unless the filter is in force (mark bits on, leaf protected).
    clear: u64,
    /// The stage's claim found one of its mark bits clear.
    fresh: bool,
}

impl Stage<'_> {
    /// Same-slot contenders are queued behind this stage's lock bits, so
    /// the region it brackets meets no true conflict on its records.
    pub fn locked(&self) -> bool {
        self.locked
    }

    /// Algorithm 2 line 35, for a get or delete: no key hashing to `slot`
    /// exists, so the request need not enter the leaf.
    pub fn definite_miss(&self, slot: u32) -> bool {
        self.clear & (1 << slot) != 0
    }

    /// Algorithm 2 line 39, for a put: the leaf is protected and the key is
    /// new to its filter, so the put may insert — and an insert may split.
    pub fn may_insert(&self) -> bool {
        self.protected && self.fresh
    }
}

impl Ccm {
    /// A fresh module. `bypass` starts true: an untouched leaf has no
    /// contention history, and the detector re-protects it on the very
    /// first conflict it observes. A split-born node does not start here:
    /// it takes over the verdict of the leaf it was split from
    /// ([`Ccm::inherit_prepublication`]).
    pub fn new() -> Self {
        Ccm {
            marks: TxCell::new(0),
            locks: LockWord::default(),
            ops: TxCell::new(0),
            conflicts: TxCell::new(0),
            window_base: TxCell::new(0),
            epoch: TxCell::new(0),
            bypass: TxCell::new(1),
            split_lock: LockWord::default(),
        }
    }

    /// Start an unpublished split-born node on `from`'s verdict: half of a
    /// hot leaf is hot, half of a calm one is calm. A plain load on
    /// purpose — the split runs inside the lower region, and a
    /// transactional read would put `from`'s CCM line into that region's
    /// footprint, where every lock-bit CAS on the leaf would abort it.
    /// The verdict may flip under the load; either value is one the leaf
    /// held a moment ago, and the detector corrects both.
    pub fn inherit_prepublication(&self, from: &Ccm) {
        self.bypass.store_plain(from.bypass.load_plain());
    }

    /// Force the protected state, as a conflict would (tests).
    pub fn protect_prepublication(&self) {
        self.bypass.store_plain(0);
    }

    /// Hash a key to a slot in `0..nbits` (Figure 5's hash function).
    #[inline]
    pub fn slot(key: u64, nbits: u32) -> u32 {
        debug_assert!(nbits > 0 && nbits <= 64);
        euno_htm::slot_for_key(key, nbits)
    }

    // ----- the stage -----

    /// Open the conflict-control stage (Algorithm 2 lines 29-40, outside
    /// any region) for the requests hashing to `slots` — ascending, no
    /// duplicates: two requests can share a slot, and re-acquiring a held
    /// bit would self-deadlock. `claims` is the mark mask of the puts
    /// among them.
    ///
    /// On a protected leaf: take the lock bits, in slot order (so any two
    /// stages on one leaf agree on the order of their common bits). On any
    /// leaf: make sure the claimed marks are set — the vector must stay a
    /// superset of the live keys or gets would miss real records once
    /// protection re-engages. Marks are monotone, so a load that finds
    /// them set is the whole claim; only a clear bit costs the
    /// read-modify-write. A bypassed leaf whose marks are set is thus
    /// entered and left without one write to this line.
    pub fn enter<'s>(
        &self,
        ctx: &mut ThreadCtx,
        cfg: &EunoConfig,
        slots: &'s [u32],
        claims: u64,
    ) -> Stage<'s> {
        debug_assert!(slots.windows(2).all(|w| w[0] < w[1]));
        let configured = cfg.ccm_lock_bits || cfg.ccm_mark_bits;
        let protected = configured && !(cfg.adaptive && self.bypass.load_direct(ctx) != 0);
        let locked = protected && cfg.ccm_lock_bits;
        if locked {
            for &slot in slots {
                self.locks.acquire_bit(ctx, slot);
            }
        }
        let (mut clear, mut fresh) = (0, false);
        if cfg.ccm_mark_bits && (protected || claims != 0) {
            let mut seen = self.marks.load_direct(ctx);
            fresh = seen & claims != claims;
            if fresh {
                seen = self.marks.fetch_or_direct(ctx, claims);
            }
            if protected {
                clear = !(seen | claims);
            }
        }
        Stage {
            slots,
            protected,
            locked,
            clear,
            fresh,
        }
    }

    /// Close the stage: release its lock bits and tell the detector what
    /// the operation met — `conflicts` is the conflict aborts of its upper
    /// and lower regions. Protected operations and operations that met a
    /// conflict are the detector's whole input; a calm operation on a
    /// bypassed leaf tells it nothing it would act on, and is not charged
    /// the counter update.
    pub fn leave(&self, ctx: &mut ThreadCtx, cfg: &EunoConfig, stage: Stage<'_>, conflicts: u32) {
        if stage.locked {
            for &slot in stage.slots {
                self.locks.release_bit(ctx, slot);
            }
        }
        if cfg.adaptive && (stage.protected || conflicts > 0) {
            self.record_outcome(ctx, conflicts);
        }
    }

    // ----- mark bits -----

    /// Install a freshly computed mark vector. Only safe before the owning
    /// leaf is published (split construction) — hence plain store.
    pub fn install_marks_prepublication(&self, bits: u64) {
        self.marks.store_plain(bits);
    }

    /// OR a whole mark vector in (leaf merges adopt the right sibling's
    /// marks — monotone, so concurrent readers stay conservative).
    pub fn or_marks(&self, ctx: &mut ThreadCtx, bits: u64) {
        if bits != 0 {
            self.marks.fetch_or_direct(ctx, bits);
        }
    }

    pub fn marks_plain(&self) -> u64 {
        self.marks.load_plain()
    }

    pub fn locks_plain(&self) -> u64 {
        self.locks.held_plain()
    }

    // ----- adaptive contention detector -----

    /// Feed the detector with one finished operation and the number of
    /// conflict aborts its regions suffered. A conflict on a bypassed leaf
    /// re-protects it at once; every [`ADAPTIVE_WINDOW`] recorded operations the
    /// verdict is re-decided: calm window ⇒ bypass on, contended window ⇒
    /// bypass off. Only [`Ccm::leave`] decides what gets recorded, so a
    /// re-protected leaf stays protected until a window of operations that ran
    /// *with* its lock bits have closed a calm window — bypassed traffic
    /// cannot run the window out for it.
    ///
    /// Concurrency-safe: `ops`/`conflicts` are monotone, the thread whose
    /// `fetch_add` crosses the window boundary is the unique closer, and
    /// it claims the close by CAS on `epoch` — no counter is ever reset,
    /// so concurrent recorders can neither lose conflicts nor decide the
    /// same window twice.
    fn record_outcome(&self, ctx: &mut ThreadCtx, conflicts: u32) {
        if conflicts > 0 {
            self.conflicts.fetch_add_direct(ctx, conflicts as u64);
            // React immediately to contention: a bypassed leaf that starts
            // aborting re-enables its CCM without waiting out the window.
            if self.bypass.load_direct(ctx) != 0 {
                self.bypass.store_direct(ctx, 0);
                ctx.metric_flip(self as *const Self as u64, false);
                ctx.trace(EventKind::CcmFlip {
                    addr: self as *const Self as u64,
                    bypass: false,
                });
            }
        }
        let ops = self.ops.fetch_add_direct(ctx, 1) + 1;
        if !ops.is_multiple_of(ADAPTIVE_WINDOW) {
            return;
        }
        // Unique closer for this window (exactly one fetch_add returns the
        // crossing value): claim it by CAS on the epoch word. Closers of
        // *consecutive* windows can race on the word, so retry until our
        // claim lands — each closer bumps the epoch exactly once.
        let mut epoch = self.epoch.load_direct(ctx);
        while !self.epoch.cas_direct(ctx, epoch, epoch + 1) {
            epoch = self.epoch.load_direct(ctx);
        }
        let confl = self.conflicts.load_direct(ctx);
        let in_window = confl.saturating_sub(self.window_base.load_direct(ctx));
        // Conflicts recorded between our loads land in the next window's
        // delta instead of vanishing.
        self.window_base.store_direct(ctx, confl);
        let calm = (in_window as f64) <= ADAPTIVE_CONFLICT_RATE * (ADAPTIVE_WINDOW as f64);
        if self.bypass.load_direct(ctx) != u64::from(calm) {
            self.bypass.store_direct(ctx, u64::from(calm));
            ctx.metric_flip(self as *const Self as u64, calm);
            ctx.trace(EventKind::CcmFlip {
                addr: self as *const Self as u64,
                bypass: calm,
            });
        }
    }

    /// Closed adaptive windows so far (diagnostics; exact even under
    /// concurrent recording).
    pub fn epoch_plain(&self) -> u64 {
        self.epoch.load_plain()
    }

    /// Conflict aborts fed to the detector over the module's lifetime
    /// (monotone; diagnostics).
    pub fn conflicts_plain(&self) -> u64 {
        self.conflicts.load_plain()
    }

    pub fn bypass_plain(&self) -> bool {
        self.bypass.load_plain() != 0
    }

    /// Bytes of CCM state per leaf (for the §5.7 accounting): the mark and
    /// lock vectors (the detector words and the split lock are counted
    /// too — they live here).
    pub const fn bytes() -> usize {
        std::mem::size_of::<Ccm>()
    }
}

impl Default for Ccm {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euno_htm::Runtime;

    #[test]
    fn ccm_is_one_cache_line() {
        // Eight words, the split lock the last of them: no padding left.
        assert_eq!(std::mem::size_of::<Ccm>(), 64);
        assert_eq!(std::mem::align_of::<Ccm>(), 64);
        assert_eq!(std::mem::offset_of!(Ccm, split_lock), 56);
    }

    #[test]
    fn slot_hash_spreads_and_bounds() {
        let mut seen = std::collections::HashSet::new();
        for k in 0..1000u64 {
            let s = Ccm::slot(k, 32);
            assert!(s < 32);
            seen.insert(s);
        }
        assert_eq!(seen.len(), 32, "all slots reachable");
        // Adjacent keys should usually land on different slots (the hash
        // must decorrelate the Zipfian hot prefix).
        let same = (1..100u64)
            .filter(|&k| Ccm::slot(k, 32) == Ccm::slot(k - 1, 32))
            .count();
        assert!(same < 15, "{same} adjacent collisions out of 99");
    }

    /// One single-request stage: enter, query, leave.
    fn stage(
        ccm: &Ccm,
        ctx: &mut ThreadCtx,
        cfg: &EunoConfig,
        slot: u32,
        put: bool,
        conflicts: u32,
    ) -> (bool, bool, bool) {
        let slots = [slot];
        let st = ccm.enter(ctx, cfg, &slots, u64::from(put) << slot);
        let seen = (st.locked(), st.definite_miss(slot), st.may_insert());
        ccm.leave(ctx, cfg, st, conflicts);
        seen
    }

    #[test]
    fn mark_bits_set_and_query() {
        let rt = Runtime::new_virtual();
        let mut ctx = rt.thread(0);
        let cfg = EunoConfig::paper();
        let ccm = Ccm::new();
        // Bypassed: no filter, no lock bit — but a put still claims.
        assert_eq!(
            stage(&ccm, &mut ctx, &cfg, 5, false, 0),
            (false, false, false)
        );
        assert_eq!(
            stage(&ccm, &mut ctx, &cfg, 5, true, 0),
            (false, false, false)
        );
        assert_eq!(ccm.marks_plain(), 1 << 5);
        ccm.protect_prepublication();
        // Protected: slot 5 may exist, slot 6 is a definite miss; the first
        // put into slot 6 may insert, the second finds its mark set.
        assert_eq!(
            stage(&ccm, &mut ctx, &cfg, 5, false, 0),
            (true, false, false)
        );
        assert_eq!(
            stage(&ccm, &mut ctx, &cfg, 6, false, 0),
            (true, true, false)
        );
        assert_eq!(stage(&ccm, &mut ctx, &cfg, 6, true, 0), (true, false, true));
        assert_eq!(
            stage(&ccm, &mut ctx, &cfg, 6, true, 0),
            (true, false, false)
        );
        assert_eq!(
            stage(&ccm, &mut ctx, &cfg, 6, false, 0),
            (true, false, false)
        );
        assert_eq!(ccm.locks_plain(), 0);
        // Without mark bits nothing is filtered and nothing is claimed.
        let ccm = Ccm::new();
        let lockbits = EunoConfig::ccm_lockbits();
        assert_eq!(
            stage(&ccm, &mut ctx, &lockbits, 9, true, 0),
            (true, false, false)
        );
        assert_eq!(
            stage(&ccm, &mut ctx, &lockbits, 9, false, 0),
            (true, false, false)
        );
        assert_eq!(ccm.marks_plain(), 0);
    }

    #[test]
    fn group_stage_sees_its_own_claims() {
        // A group holding a put and a later get on one slot: the get must
        // not be turned around on a mark the group itself just set.
        let rt = Runtime::new_virtual();
        let mut ctx = rt.thread(0);
        let cfg = EunoConfig::paper();
        let ccm = Ccm::new();
        ccm.protect_prepublication();
        let slots = [2, 4, 7];
        let st = ccm.enter(&mut ctx, &cfg, &slots, 1 << 4);
        assert!(st.locked() && st.may_insert());
        assert_eq!(ccm.locks_plain(), 1 << 2 | 1 << 4 | 1 << 7);
        assert!(st.definite_miss(2) && st.definite_miss(7));
        assert!(!st.definite_miss(4));
        ccm.leave(&mut ctx, &cfg, st, 0);
        assert_eq!(ccm.locks_plain(), 0);
        assert_eq!(ccm.marks_plain(), 1 << 4);
    }

    #[test]
    fn calm_stage_on_a_bypassed_leaf_writes_nothing() {
        // Guideline 4 as a count: read-modify-writes outside the region.
        let rt = Runtime::new_virtual();
        let mut ctx = rt.thread(0);
        let cfg = EunoConfig::paper();
        let ccm = Ccm::new();
        let rmw = |ctx: &mut ThreadCtx, put, conflicts| {
            let before = ctx.stats.cas_ops;
            stage(&ccm, ctx, &cfg, 3, put, conflicts);
            ctx.stats.cas_ops - before
        };
        assert_eq!(rmw(&mut ctx, true, 0), 1, "first put claims the mark");
        assert_eq!(rmw(&mut ctx, true, 0), 0, "bypassed, mark set");
        assert_eq!(rmw(&mut ctx, false, 0), 0, "bypassed get or delete");
        assert_eq!(ccm.epoch_plain(), 0);
        // A conflict is always told: conflicts += 1, ops += 1.
        assert_eq!(rmw(&mut ctx, true, 1), 2);
        assert!(!ccm.bypass_plain());
        // Protected: lock, unlock, window count — the mark costs a load.
        assert_eq!(rmw(&mut ctx, true, 0), 3);
        assert_eq!(rmw(&mut ctx, false, 0), 3);
    }

    #[test]
    fn lock_bits_serialize_same_slot_in_virtual_time() {
        let rt = Runtime::new_virtual();
        let mut a = rt.thread(0);
        let mut b = rt.thread(1);
        let ccm = Ccm::new();
        ccm.locks.acquire_bit(&mut a, 7);
        a.charge(5_000);
        ccm.locks.release_bit(&mut a, 7);
        // Same slot: b is delayed past a's release.
        ccm.locks.acquire_bit(&mut b, 7);
        assert!(b.clock >= 5_000);
        ccm.locks.release_bit(&mut b, 7);
        // Different slot: free immediately.
        let mut c = rt.thread(2);
        ccm.locks.acquire_bit(&mut c, 8);
        assert!(c.clock < 5_000);
        ccm.locks.release_bit(&mut c, 8);
    }

    #[test]
    fn lock_bits_mutual_exclusion_concurrent() {
        let rt = Runtime::new_concurrent();
        let ccm = Ccm::new();
        let shared = std::sync::atomic::AtomicU64::new(0);
        std::thread::scope(|s| {
            for t in 0..4 {
                let mut ctx = rt.thread(t);
                let (ccm, shared) = (&ccm, &shared);
                s.spawn(move || {
                    for _ in 0..300 {
                        ccm.locks.acquire_bit(&mut ctx, 3);
                        let v = shared.load(std::sync::atomic::Ordering::Relaxed);
                        shared.store(v + 1, std::sync::atomic::Ordering::Relaxed);
                        ccm.locks.release_bit(&mut ctx, 3);
                    }
                });
            }
        });
        assert_eq!(shared.load(std::sync::atomic::Ordering::Relaxed), 1200);
        assert_eq!(ccm.locks_plain(), 0);
    }

    #[test]
    fn adaptive_window_rolls_over_atomically_concurrent() {
        // Regression: the reset-based window let two threads crossing the
        // boundary together both read-then-reset `ops`/`conflicts`, losing
        // conflicts and double-deciding `bypass`. With monotone counters
        // and the epoch CAS, every conflict is counted and every window is
        // closed exactly once.
        let rt = Runtime::new_concurrent();
        let ccm = Ccm::new();
        let (threads, per_thread, window) = (4u64, 4_000u64, ADAPTIVE_WINDOW);
        std::thread::scope(|s| {
            for t in 0..threads {
                let mut ctx = rt.thread(t);
                let ccm = &ccm;
                s.spawn(move || {
                    for i in 0..per_thread {
                        // Every op reports one conflict: the leaf must
                        // never be judged calm.
                        ccm.record_outcome(&mut ctx, 1);
                        std::hint::black_box(i);
                    }
                });
            }
        });
        let total = threads * per_thread;
        assert_eq!(
            ccm.conflicts_plain(),
            total,
            "no conflict may be lost at window rollover"
        );
        assert_eq!(
            ccm.epoch_plain(),
            total / window,
            "each window must be decided exactly once"
        );
        assert!(!ccm.bypass_plain(), "an all-conflict leaf stays protected");
    }

    #[test]
    fn adaptive_bypasses_after_calm_window_and_reverts_on_conflict() {
        let rt = Runtime::new_virtual();
        let mut ctx = rt.thread(0);
        let cfg = EunoConfig::paper();
        let ccm = Ccm::new();
        assert!(ccm.bypass_plain(), "fresh leaf starts bypassed");
        // Calm operations on a bypassed leaf are not the detector's input.
        for _ in 0..40 {
            stage(&ccm, &mut ctx, &cfg, 1, true, 0);
        }
        assert_eq!(ccm.epoch_plain(), 0, "no window closed, none opened");
        // A conflict re-protects at once…
        stage(&ccm, &mut ctx, &cfg, 1, true, 2);
        assert!(!ccm.bypass_plain());
        // …a contended window (that operation and the rest of its window)
        // keeps the leaf protected…
        for _ in 1..ADAPTIVE_WINDOW {
            stage(&ccm, &mut ctx, &cfg, 1, true, 1);
        }
        assert_eq!(ccm.epoch_plain(), 1);
        assert!(!ccm.bypass_plain());
        // …and one calm window of protected operations bypasses it again.
        for _ in 0..ADAPTIVE_WINDOW {
            assert!(!ccm.bypass_plain());
            stage(&ccm, &mut ctx, &cfg, 1, true, 0);
        }
        assert!(ccm.bypass_plain(), "calm window enables bypass");
        assert_eq!(ccm.epoch_plain(), 2);
    }

    #[test]
    fn reprotection_lasts_a_full_window() {
        // The control-loop bug: while calm operations on a bypassed leaf
        // advanced the window, a conflict on the 31st operation re-protected
        // the leaf and the 32nd closed a window holding 1 conflict
        // ≤ 0.05 × 32 — bypassed again after one protected operation.
        let rt = Runtime::new_virtual();
        let mut ctx = rt.thread(0);
        let cfg = EunoConfig::paper();
        let window = ADAPTIVE_WINDOW;
        let ccm = Ccm::new();
        for _ in 0..window - 2 {
            stage(&ccm, &mut ctx, &cfg, 3, true, 0);
        }
        stage(&ccm, &mut ctx, &cfg, 3, true, 1);
        assert!(!ccm.bypass_plain(), "a conflict re-protects");
        // The rest of its window runs under the lock bits, whole.
        for i in 1..window {
            let (locked, ..) = stage(&ccm, &mut ctx, &cfg, 3, true, 0);
            assert!(locked, "bypassed again {i} operations after re-protecting");
        }
        assert!(ccm.bypass_plain(), "one conflict in a full calm window");
    }

    #[test]
    fn split_born_leaf_inherits_the_verdict() {
        let (hot, calm) = (Ccm::new(), Ccm::new());
        hot.protect_prepublication();
        let (from_hot, from_calm) = (Ccm::new(), Ccm::new());
        from_hot.inherit_prepublication(&hot);
        from_calm.inherit_prepublication(&calm);
        assert!(!from_hot.bypass_plain());
        assert!(from_calm.bypass_plain());
    }

    #[test]
    fn prepublication_mark_install() {
        let ccm = Ccm::new();
        ccm.install_marks_prepublication(0b1010);
        assert_eq!(ccm.marks_plain(), 0b1010);
    }
}
