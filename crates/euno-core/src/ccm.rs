//! The conflict-control module (CCM): mark bits, lock bits and the
//! adaptive contention detector (§4.1, Figure 5).
//!
//! A leaf's CCM is a **block** of its own — one cache line, allocated
//! apart from the leaf — that the leaf names by its *block word*, a word
//! of one of its key lines ([`crate::EunoLeaf`]). Contention machinery is
//! paid for only where contention is seen: a leaf has no block until it
//! needs one, and most leaves never do. Its life:
//!
//! * **birth** — installed by CAS, at most once per leaf: under the
//!   adaptive detector at the leaf's first recorded conflict
//!   ([`EunoBTree::ccm_leave`]), with every mark set (the leaf may hold
//!   records that bypassed inserters put there without a mark, and some may
//!   be landing as the block goes in); under a CCM config without the
//!   detector with the leaf itself; under a config with no CCM bits never.
//!   A split-born leaf of a leaf that has a block gets its own, with marks
//!   computed from the records it starts with, before it is published;
//! * **life** — never replaced while its leaf lives;
//! * **retirement** — with its leaf, through the epoch collector. A merge
//!   seals the retired leaf's block word, so a birth racing the merge loses
//!   and frees its block rather than leak it.
//!
//! The block sits on its own line, so its CAS traffic never invalidates a
//! line the HTM regions read. A request hashes its key to one of
//! `2 × fanout` slots:
//!
//! * the slot's **lock bit** is a fine-grained advisory lock taken
//!   *outside* the HTM region, serializing concurrent requests to the same
//!   record (and to hash-colliding records) so true conflicts never meet
//!   inside a transaction;
//! * the slot's **mark bit** says "a key hashing here may exist" — a
//!   Bloom-filter-style filter that sends definite misses home without
//!   touching the leaf.
//!
//! The block also hosts the **adaptive contention detector** (§4.1,
//! guideline 4): a per-leaf verdict, *protected* or *bypassed*. A leaf
//! without a block is bypassed. A protected leaf runs the stage above; a
//! bypassed one runs none of it — no lock bit, no filter, and no write to
//! the block at all once its key's mark is set; a blockless leaf keeps no
//! marks, so a put there loads one word and writes nothing (Figure 13's
//! `+Adaptive` bar). The verdict is kept by the operations that pay for
//! it: protected operations and operations that met a conflict feed the
//! window, calm operations on a bypassed leaf feed nothing (DESIGN.md §4.8
//! has the state machine).
//!
//! The whole stage is the [`EunoBTree::ccm_enter`] /
//! [`EunoBTree::ccm_leave`] pair; the single-op traversal and the batch's
//! leaf group both run it through that pair and through nothing else.
//!
//! Mark bits here are *monotone within a block's lifetime*: deletion does
//! not clear them (the paper clears; doing so can manufacture false
//! negatives for hash-colliding live keys, which would be a correctness
//! bug — see DESIGN.md). A split gives the new right node a freshly
//! computed vector, so staleness decays at reorganization. Monotone is
//! also what lets a put *test before it sets*: a set bit stays set, so a
//! plain load that sees it needs no read-modify-write behind it.

use euno_htm::{EventKind, LineClass, LockWord, ThreadCtx, TxCell};

use crate::config::EunoConfig;
use crate::node::{EunoLeaf, Guard};
use crate::probe;
use crate::segment::{KeyPad, Keys};
use crate::tree::EunoBTree;

/// Adaptive detector: operations per decision window. Only operations
/// that ran protected or met a conflict count toward it.
pub const ADAPTIVE_WINDOW: u64 = 32;

/// Adaptive detector: bypass while `conflicts / ops` in the last window
/// stayed at or below this rate.
pub const ADAPTIVE_CONFLICT_RATE: f64 = 0.05;

/// A leaf's conflict-control block. One cache line.
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
}

/// One conflict-control stage in flight on a leaf: what
/// [`EunoBTree::ccm_enter`] found and took, to be handed back to
/// [`EunoBTree::ccm_leave`].
#[must_use = "a stage that is not left keeps its lock bits"]
pub struct Stage<'s, 'g> {
    /// The leaf's block when the stage opened; `None` ⇒ bypassed.
    block: Option<&'g Ccm>,
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

impl Stage<'_, '_> {
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
    /// Bytes of one block (for the §5.7 accounting): the mark and lock
    /// vectors and the detector's words, on one line.
    pub const BYTES: usize = std::mem::size_of::<Ccm>();

    /// A block for a leaf no other thread can reach yet: `marks` are the
    /// slots of the records it starts with, `bypass` the verdict it starts
    /// on (a split-born leaf's is its left half's: half of a hot leaf is
    /// hot, half of a calm one calm).
    pub fn new(marks: u64, bypass: bool) -> Self {
        Ccm {
            marks: TxCell::new(marks),
            locks: LockWord::default(),
            ops: TxCell::new(0),
            conflicts: TxCell::new(0),
            window_base: TxCell::new(0),
            epoch: TxCell::new(0),
            bypass: TxCell::new(u64::from(bypass)),
        }
    }

    /// The block a published leaf earns at its first recorded conflict:
    /// protected at once, that operation and its conflicts counted, and
    /// every mark set — the leaf may hold records bypassed inserters put
    /// there without one, and some may be landing while the block goes in.
    fn at_first_conflict(conflicts: u32) -> Self {
        let marks = match probe::mutated("ccm:block-marks-empty") {
            false => u64::MAX,
            true => 0,
        };
        let ccm = Ccm::new(marks, false);
        ccm.ops.store_plain(1);
        ccm.conflicts.store_plain(u64::from(conflicts));
        ccm
    }

    /// Hash a key to a slot in `0..nbits` (Figure 5's hash function).
    #[inline]
    pub fn slot(key: u64, nbits: u32) -> u32 {
        debug_assert!(nbits > 0 && nbits <= 64);
        euno_htm::slot_for_key(key, nbits)
    }

    /// The block's address: what the block word of the leaf it belongs
    /// to holds.
    pub(crate) fn addr(&self) -> u64 {
        self as *const Ccm as u64
    }

    // ----- the stage -----

    /// Open the conflict-control stage on this block (Algorithm 2 lines
    /// 29-40, outside any region) for the requests hashing to `slots` —
    /// ascending, no duplicates: two requests can share a slot, and
    /// re-acquiring a held bit would self-deadlock. `claims` is the mark
    /// mask of the puts among them.
    ///
    /// On a protected leaf: take the lock bits, in slot order (so any two
    /// stages on one leaf agree on the order of their common bits). On any
    /// leaf with a block: make sure the claimed marks are set — the vector
    /// must stay a superset of the live keys or gets would miss real
    /// records once protection re-engages. Marks are monotone, so a load
    /// that finds them set is the whole claim; only a clear bit costs the
    /// read-modify-write. A bypassed leaf whose marks are set is thus
    /// entered and left without one write to this line.
    fn enter<'s>(
        &self,
        ctx: &mut ThreadCtx,
        cfg: &EunoConfig,
        slots: &'s [u32],
        claims: u64,
    ) -> Stage<'s, '_> {
        debug_assert!(slots.windows(2).all(|w| w[0] < w[1]));
        let protected = !(cfg.adaptive && self.bypass.load_direct(ctx) != 0);
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
            block: Some(self),
            slots,
            protected,
            locked,
            clear,
            fresh,
        }
    }

    /// Close a stage opened on this block: release its lock bits and feed
    /// the detector. Protected operations and operations that met a
    /// conflict are the detector's whole input; a calm operation on a
    /// bypassed leaf tells it nothing it would act on, and is not charged
    /// the counter update.
    fn leave(&self, ctx: &mut ThreadCtx, cfg: &EunoConfig, stage: Stage<'_, '_>, conflicts: u32) {
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

    /// Count one verdict change (metric and trace, at the block's address).
    fn flipped(&self, ctx: &mut ThreadCtx, bypass: bool) {
        ctx.metric_flip(self.addr(), bypass);
        ctx.trace(EventKind::CcmFlip {
            addr: self.addr(),
            bypass,
        });
    }

    /// Feed the detector with one finished operation and the number of
    /// conflict aborts its regions suffered. A conflict on a bypassed leaf
    /// re-protects it at once; every [`ADAPTIVE_WINDOW`] recorded
    /// operations the verdict is re-decided: calm window ⇒ bypass on,
    /// contended window ⇒ bypass off. Only [`EunoBTree::ccm_leave`]
    /// decides what gets recorded, so a re-protected leaf stays protected
    /// until a window of operations that ran *with* its lock bits have
    /// closed a calm window — bypassed traffic cannot run the window out
    /// for it.
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
                self.flipped(ctx, false);
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
            self.flipped(ctx, calm);
        }
    }

    /// Closed adaptive windows so far (diagnostics; exact even under
    /// concurrent recording).
    pub fn epoch_plain(&self) -> u64 {
        self.epoch.load_plain()
    }

    /// Conflict aborts fed to the detector over the block's lifetime
    /// (monotone; diagnostics).
    pub fn conflicts_plain(&self) -> u64 {
        self.conflicts.load_plain()
    }

    pub fn bypass_plain(&self) -> bool {
        self.bypass.load_plain() != 0
    }

    /// Replace the mark vector (tests forging a broken filter).
    #[cfg(test)]
    pub(crate) fn forge_marks_plain(&self, bits: u64) {
        self.marks.store_plain(bits);
    }
}

impl<const SEGS: usize, const K: usize> EunoBTree<SEGS, K>
where
    Keys<K>: KeyPad,
{
    /// Open the conflict-control stage on `leaf` ([`Ccm::enter`] on its
    /// block). A leaf without a block is bypassed: one load of its block
    /// word, nothing claimed, nothing filtered. A config with no CCM bits
    /// loads nothing at all.
    pub(crate) fn ccm_enter<'s, 'g>(
        &self,
        ctx: &mut ThreadCtx,
        g: Guard<'g, SEGS, K>,
        leaf: &'g EunoLeaf<SEGS, K>,
        slots: &'s [u32],
        claims: u64,
    ) -> Stage<'s, 'g> {
        let cfg = &self.cfg;
        let block = match cfg.conflict_control() {
            true => leaf.ccm_block(g, leaf.block_word_direct(ctx)),
            false => None,
        };
        debug_assert!(
            block.is_some() || cfg.adaptive || !cfg.conflict_control(),
            "a CCM config without the detector gives every leaf a block at birth"
        );
        match block {
            Some(ccm) => ccm.enter(ctx, cfg, slots, claims),
            None => Stage {
                block: None,
                slots,
                protected: false,
                locked: false,
                clear: 0,
                fresh: false,
            },
        }
    }

    /// Close the stage ([`Ccm::leave`] on the block it opened on) and tell
    /// the detector what the operation met — `conflicts` is the conflict
    /// aborts of its upper and lower regions. A conflict on a leaf without
    /// a block gives it one ([`Self::first_conflict`]) under the detector.
    pub(crate) fn ccm_leave(
        &self,
        ctx: &mut ThreadCtx,
        g: Guard<'_, SEGS, K>,
        leaf: &EunoLeaf<SEGS, K>,
        stage: Stage<'_, '_>,
        conflicts: u32,
    ) {
        let cfg = &self.cfg;
        match stage.block {
            Some(ccm) => ccm.leave(ctx, cfg, stage, conflicts),
            None if cfg.adaptive && cfg.conflict_control() && conflicts > 0 => {
                self.first_conflict(ctx, g, leaf, conflicts)
            }
            None => {}
        }
    }

    /// A leaf without a block has met its first conflict: give it one,
    /// protected, by CAS on its block word. A racing birth that lost frees
    /// its block and records the operation on the winner's; one that lost
    /// to a merge's seal records nothing — the leaf is retired.
    fn first_conflict(
        &self,
        ctx: &mut ThreadCtx,
        g: Guard<'_, SEGS, K>,
        leaf: &EunoLeaf<SEGS, K>,
        conflicts: u32,
    ) {
        let block = self.alloc_block(leaf, Ccm::at_first_conflict(conflicts));
        match leaf.install_block(Some(ctx), block.addr()) {
            Ok(()) => block.flipped(ctx, false),
            Err(word) => {
                self.discard_block(block);
                if let Some(winner) = leaf.ccm_block(g, word) {
                    winner.record_outcome(ctx, conflicts);
                }
            }
        }
    }

    /// A fresh block for `leaf` from the tree's block arena, registered
    /// with the engine: a metadata line the profiler attributes to `leaf`.
    pub(crate) fn alloc_block(&self, leaf: &EunoLeaf<SEGS, K>, ccm: Ccm) -> &Ccm {
        let block = self.blocks.alloc(ccm);
        let owner = leaf as *const EunoLeaf<SEGS, K> as usize;
        self.rt.register_side_block(
            block.addr() as usize,
            Ccm::BYTES,
            LineClass::Metadata,
            owner,
        );
        block
    }

    /// Take back a block no leaf ever published.
    pub(crate) fn discard_block(&self, block: &Ccm) {
        self.rt.forget_node_heat(block.addr() as usize, Ccm::BYTES);
        self.blocks.discard(block);
    }

    /// Retire a block with the leaf it belonged to (the caller is pinned
    /// and has unlinked the leaf).
    pub(crate) fn retire_block(&self, block: &Ccm) {
        self.blocks.retire(self.rt.epoch(), block);
        self.rt.forget_node_heat(block.addr() as usize, Ccm::BYTES);
    }

    /// Force `leaf` protected, as a conflict would: give it a block — every
    /// mark set — if it has none, else put its block back on protection.
    /// Uninstrumented (tests, on a quiescent tree).
    pub fn protect_plain(&self, leaf: &EunoLeaf<SEGS, K>) {
        self.pinned(|g| match leaf.ccm(g) {
            Some(ccm) => ccm.bypass.store_plain(0),
            None => {
                let block = self.alloc_block(leaf, Ccm::new(u64::MAX, false));
                let _ = leaf.install_block(None, block.addr());
            }
        })
    }

    /// Give a blockless, empty `leaf` a calm block with no marks: the state
    /// a block whose verdict went back to bypass leaves its leaf in —
    /// bypassed, yet claiming marks, each put by test-before-set with no
    /// lock bit. Uninstrumented (tests, on a quiescent tree).
    pub fn calm_block_plain(&self, leaf: &EunoLeaf<SEGS, K>) {
        self.pinned(|g| {
            assert!(leaf.ccm(g).is_none(), "the leaf already has a block");
            let block = self.alloc_block(leaf, Ccm::new(0, true));
            let _ = leaf.install_block(None, block.addr());
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use super::*;
    use crate::tree::{DefaultLeaf, EunoBTreeDefault};
    use euno_htm::{ConcurrentMap, Runtime};

    #[test]
    fn ccm_is_one_cache_line() {
        // Seven words: one to spare.
        assert_eq!(std::mem::size_of::<Ccm>(), 64);
        assert_eq!(std::mem::align_of::<Ccm>(), 64);
        assert_eq!(std::mem::offset_of!(Ccm, bypass), 48);
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

    /// One single-request stage on a block: enter, query, leave.
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

    /// A block on a calm leaf, as a split of a block-holding calm leaf
    /// makes one.
    fn calm() -> Ccm {
        Ccm::new(0, true)
    }

    #[test]
    fn mark_bits_set_and_query() {
        let rt = Runtime::new_virtual();
        let mut ctx = rt.thread(0);
        let cfg = EunoConfig::paper();
        let ccm = calm();
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
        ccm.bypass.store_plain(0);
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
        let ccm = Ccm::new(0, false);
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
        let ccm = Ccm::new(0, false);
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
        let ccm = calm();
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
        let ccm = calm();
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
        let ccm = calm();
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
        let ccm = calm();
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
        let ccm = calm();
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
        let ccm = calm();
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
    fn prepublication_mark_install() {
        // A block for a leaf no thread can reach yet starts on the marks
        // and the verdict it is given.
        let ccm = Ccm::new(0b1010, true);
        assert_eq!(ccm.marks_plain(), 0b1010);
        assert!(ccm.bypass_plain());
        assert_eq!((ccm.epoch_plain(), ccm.conflicts_plain()), (0, 0));
    }

    /// A split hands a leaf's block on: the right half of a protected leaf
    /// gets a block of its own, protected, with exactly its records'
    /// marks; the right half of a calm leaf without one gets none.
    #[test]
    fn split_born_leaf_inherits_the_verdict() {
        for protected in [true, false] {
            let rt = Runtime::new_virtual();
            let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), EunoConfig::paper());
            let mut ctx = rt.thread(1);
            if protected {
                tree.pinned(|g| tree.protect_plain(tree.chain_plain(g).next().unwrap()));
            }
            for k in 0..19u64 {
                tree.put(&mut ctx, k, k);
            }
            tree.pinned(|g| {
                let right = tree.chain_plain(g).nth(1).expect("the leaf split");
                let Some(block) = right.ccm(g) else {
                    assert!(!protected, "a protected leaf hands on a block");
                    return;
                };
                assert!(protected, "a calm leaf hands on none");
                assert!(!block.bypass_plain());
                let exact = EunoBTreeDefault::leaf_live_plain(right)
                    .iter()
                    .fold(0, |m, &(k, _)| {
                        m | 1 << Ccm::slot(k, DefaultLeaf::ccm_bits())
                    });
                assert_eq!(block.marks_plain(), exact, "fresh marks, not every mark");
            });
            assert_eq!(
                tree.memory().ccm_bytes,
                usize::from(protected) * 2 * Ccm::BYTES
            );
        }
    }

    /// A block born at a leaf's first conflict: protected, that operation
    /// counted, and a filter that cannot turn away a key the leaf took
    /// while it had no block.
    #[test]
    fn a_block_born_at_a_conflict_is_protected_and_marks_everything() {
        let ccm = Ccm::at_first_conflict(2);
        assert!(!ccm.bypass_plain());
        assert_eq!((ccm.ops.load_plain(), ccm.conflicts_plain()), (1, 2));
        assert_eq!(ccm.marks_plain(), u64::MAX);
    }

    /// Keys a leaf took while it had no block, then a conflict gives it
    /// one: every key is still found, and deleted — a two-step delete
    /// consults the filter — in both configurations. Its mutation twin
    /// births the block with empty marks, and the filter turns the keys
    /// away.
    fn keys_survive_a_block_birth(mutation: Option<&'static str>) -> Result<(), String> {
        for cfg in [EunoConfig::paper(), EunoConfig::default()] {
            let rt = Runtime::new_virtual();
            let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), cfg);
            let mut ctx = rt.thread(1);
            for k in 0..12u64 {
                tree.put(&mut ctx, k, k + 100);
            }
            ctx.pinned(|ctx, g| {
                let leaf = tree.locate(ctx, g, 0).leaf;
                assert!(leaf.ccm(g).is_none(), "a calm leaf has no block");
                // An operation that met a conflict: the detector's input.
                let stage = tree.ccm_enter(ctx, g, leaf, &[], 0);
                probe::mutate(mutation);
                tree.ccm_leave(ctx, g, leaf, stage, 1);
                probe::mutate(None);
                let block = leaf.ccm(g).expect("the conflict gave the leaf a block");
                assert!(!block.bypass_plain());
            });
            for k in 0..12u64 {
                if tree.get(&mut ctx, k) != Some(k + 100) {
                    return Err(format!("get {k} after the birth"));
                }
                if tree.delete(&mut ctx, k) != Some(k + 100) {
                    return Err(format!("delete {k} after the birth"));
                }
            }
            assert_eq!(tree.audit_quiescent(), Vec::<String>::new());
        }
        Ok(())
    }

    #[test]
    fn keys_a_bypassed_leaf_took_survive_its_block_birth() {
        keys_survive_a_block_birth(None).unwrap();
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "probes are debug-only")]
    fn a_block_born_with_empty_marks_turns_keys_away() {
        let err = keys_survive_a_block_birth(Some("ccm:block-marks-empty"));
        assert!(err.is_err(), "the mutation went unnoticed");
    }

    /// Two threads meet their first conflict on one leaf together: one
    /// block wins, the other's is freed, and both operations are counted
    /// on the winner.
    #[test]
    fn racing_births_install_one_block_and_free_the_other() {
        for round in 0..50 {
            let rt = Runtime::new_concurrent();
            let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), EunoConfig::paper());
            let mut ctx = rt.thread(9);
            tree.put(&mut ctx, 1, 1);
            let start = std::sync::Barrier::new(2);
            std::thread::scope(|s| {
                for t in 0..2 {
                    let (tree, start) = (&tree, &start);
                    let mut ctx = rt.thread(t);
                    s.spawn(move || {
                        ctx.pinned(|ctx, g| {
                            let leaf = tree.locate(ctx, g, 1).leaf;
                            let stage = tree.ccm_enter(ctx, g, leaf, &[], 0);
                            start.wait();
                            tree.ccm_leave(ctx, g, leaf, stage, 1);
                        });
                    });
                }
            });
            assert_eq!(tree.blocks.node_count(), 1, "round {round}");
            assert_eq!(tree.memory().ccm_bytes, Ccm::BYTES, "round {round}");
            tree.pinned(|g| {
                let leaf = tree.chain_plain(g).next().unwrap();
                let block = leaf.ccm(g).expect("one birth won");
                assert_eq!(block.ops.load_plain(), 2, "round {round}");
                assert_eq!(block.conflicts_plain(), 2, "round {round}");
            });
            assert_eq!(
                tree.audit_quiescent(),
                Vec::<String>::new(),
                "round {round}"
            );
        }
    }
}
