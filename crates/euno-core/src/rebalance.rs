//! Deferred re-balancing (§4.2.4).
//!
//! Deletions tombstone records in place; tombstones are compacted at the
//! next reorganization, but a delete-heavy phase can still strand many
//! underfull leaves. Following the paper ("instead of re-balancing the
//! tree on every deletion instantly, we do the re-balance when the number
//! of delete operations exceeds a threshold", citing Sen & Tarjan's
//! *deletion without rebalancing*), the tree sweeps the leaf chain and
//! merges adjacent underfull siblings. Sen-Tarjan defers the *trigger*;
//! nothing requires the work to land on one operation, so the sweep is
//! resumable and the deletes that follow the trigger carry it:
//!
//! * crossing `rebalance_delete_threshold` only **arms** a sweep (resume
//!   key 0); arming while one is pending is a no-op;
//! * every applied delete that sees an armed sweep tries the tree-global
//!   sweep token and, if it wins, runs one **slice**: re-find the leaf
//!   covering the resume key, examine at most [`SLICE_PAIRS`] adjacent
//!   pairs, store the key the next slice resumes at (or idle at the end
//!   of the chain), release the token. A delete that loses the try-lock
//!   does nothing — no foreground operation ever waits for the sweep;
//! * [`EunoBTree::maintain`] is the same slice run from the head of the
//!   chain with an unbounded budget.
//!
//! The resume cursor is a **key**, never a leaf pointer: between slices
//! no pin is held, so the leaf may split, be merged away and be freed by
//! the epoch collector; a key always routes to whichever leaf covers it
//! now. The token is an instrumented [`LockWord`] taken with
//! `try_acquire`, not a bare atomic claim. Slices are mutually exclusive,
//! and only the instrumented lock tells the virtual clock so: its release
//! stamp refuses a thread whose clock is still behind the previous
//! slice's end, where a bare claim would let that thread run the next
//! slice *overlapping* the previous one in virtual time — sweep
//! parallelism no real execution has. (Before the pre-filter below
//! existed, when every pair took both split locks, such a late slice
//! also queued on the boundary leaf's split lock for the whole preceding
//! slice: a 16-thread convoy that measured worse than the one-lump sweep.)
//!
//! Each pair is first judged by an episode-free **pre-filter** that
//! counts both leaves' live records with direct loads. It is a hint: it
//! may only skip work, and a pair that passes goes through the locked
//! merge, which re-verifies everything and alone decides:
//!
//! * both leaves' split locks are taken (in chain order — deadlock-free
//!   against splits, which take a single lock);
//! * the merge itself runs in one HTM region: re-verify adjacency,
//!   re-place the combined records over the left leaf's segments by the
//!   probe-path rule, unlink the right leaf and drop its separator from
//!   the shared parent;
//! * both leaves' `seqno`s are bumped and the right leaf's fence set to 0
//!   (before any record moves) so scan steps holding either pointer, and
//!   operations holding the right one, retry from the root; the left
//!   leaf, which keeps its lower bound, takes the right one's fence; and
//!   the right node is retired to the epoch
//!   collector (freed after a two-epoch grace period, once no pinned
//!   thread can still hold a reference).
//!
//! Like Sen-Tarjan, interior nodes are allowed to go underfull — only
//! their entries are removed, never cascaded. Merges are restricted to
//! siblings sharing a parent where the right leaf is not the parent's
//! leftmost child; boundary pairs are simply skipped (they become
//! mergeable after their parents themselves drain).

use std::sync::atomic::{AtomicU64, Ordering};

use euno_htm::euno_metrics::Counter;
use euno_htm::{
    EventKind, LockWord, OwnLine, RetryPolicy, ThreadCtx, TxWord, KEY_SENTINEL, TOMBSTONE,
};

use crate::node::{EunoLeaf, Guard, NodeRef};
use crate::probe;
use crate::segment::{KeyPad, Keys};
use crate::tree::EunoBTree;

/// Resume cursor of a sweep that is not armed (no record carries it).
const SWEEP_IDLE: u64 = KEY_SENTINEL;

/// Adjacent leaf pairs one foreground slice may examine: the bound on the
/// maintenance work any single delete carries (a few thousand cycles).
const SLICE_PAIRS: usize = 8;

/// The armed-sweep state machine. The token has its own cache line: every
/// delete of an armed phase CASes it, and that traffic must not invalidate
/// the line the (far more frequent) armed check reads.
#[repr(C)]
pub(crate) struct Sweep {
    /// Held by the one thread running a slice; foreground deletes only
    /// ever try it.
    token: OwnLine<LockWord>,
    /// Key the next slice resumes at, or [`SWEEP_IDLE`]. Written under the
    /// token, except for arming (a CAS from idle). `Relaxed` throughout:
    /// the word publishes nothing but itself, and the token's CAS orders
    /// the slices.
    resume: AtomicU64,
    /// Merges of the sweep in flight, reported when it reaches idle.
    merges: AtomicU64,
    /// Leaves this tree has handed to the epoch collector: what
    /// [`EunoBTree::retire_generation`] reads. On this line because it is
    /// written like its neighbours — by whoever is merging, rarely — and
    /// read by everyone.
    retired: AtomicU64,
}

impl Sweep {
    pub(crate) fn new() -> Self {
        Sweep {
            token: OwnLine(LockWord::default()),
            resume: AtomicU64::new(SWEEP_IDLE),
            merges: AtomicU64::new(0),
            retired: AtomicU64::new(0),
        }
    }
}

/// What the pre-filter saw of one leaf. Every field is a hint read
/// without locks.
struct LeafView {
    /// Records that are neither tombstoned nor torn.
    live: usize,
    /// Smallest stored key (tombstoned ones included: they still route
    /// here); `None` for a leaf holding no record at all.
    min_key: Option<u64>,
    next: NodeRef,
}

impl<const SEGS: usize, const K: usize> EunoBTree<SEGS, K>
where
    Keys<K>: KeyPad,
{
    /// A merged leaf keeps a quarter of its slots free, so the next few
    /// inserts do not split it straight back.
    const fn merge_bound() -> usize {
        Self::capacity() - Self::capacity() / 4
    }

    /// The tree's **retirement generation**: how many leaves it has handed
    /// to the epoch collector. A leaf pointer remembered from an earlier
    /// operation (a leaf hint, [`EunoBTree::locate`]) may be followed iff
    /// the generation read *before the walk that found it* equals the one
    /// read *after the current operation's pin*:
    ///
    /// * the walk found the leaf linked, so its unlink — and the bump in
    ///   `try_merge` that follows the unlink and precedes the retirement —
    ///   comes after the first read;
    /// * if the bump precedes the second read, the two reads differ and the
    ///   pointer is dropped;
    /// * if it does not, then neither does the retirement's epoch stamp,
    ///   which is taken after the bump: the stamp follows this operation's
    ///   pin, and the collector frees nothing stamped under a live pin.
    ///
    /// Pin, bump, stamp and both reads are `SeqCst`, so "precedes" is one
    /// total order. An address is re-issued only after a retirement, so
    /// under equal generations an address cannot name two leaves either,
    /// and the hint's lower bound is still the leaf's. Charged as one cache
    /// hit: the word is written once a merge.
    pub(crate) fn retire_generation(&self, ctx: &mut ThreadCtx) -> u64 {
        debug_assert!(ctx.epoch_pinned());
        ctx.charge(self.rt.cost.access_hit);
        self.sweep.retired.load(Ordering::SeqCst)
    }

    /// Whether an armed sweep still has leaves to visit.
    pub fn sweep_pending(&self) -> bool {
        self.sweep.resume.load(Ordering::Relaxed) != SWEEP_IDLE
    }

    /// Sweep the whole leaf chain once, merging adjacent underfull
    /// siblings: the foreground slice routine run from the head of the
    /// chain to its end. Returns the number of merges performed. Safe to
    /// run concurrently with normal operations; waits for at most one
    /// foreground slice, and foreground deletes skip their slices while it
    /// runs.
    pub fn maintain(&self, ctx: &mut ThreadCtx) -> usize {
        self.sweep.token.acquire(ctx);
        // A pass from the head covers whatever an armed sweep had left.
        self.sweep.resume.store(0, Ordering::Relaxed);
        let merges = self.sweep_slice(ctx, usize::MAX);
        self.sweep.token.release(ctx);
        merges
    }

    /// Bookkeeping after every applied delete: crossing the threshold arms
    /// a sweep, and while one is armed this delete lends it one slice —
    /// if nobody else is running one right now. The caller holds none of
    /// the operation's locks.
    pub(crate) fn after_delete(&self, ctx: &mut ThreadCtx) {
        let n = self.deletes.fetch_add(1, Ordering::Relaxed) + 1;
        // 0 disables the automatic trigger.
        let thr = self.cfg.rebalance_delete_threshold;
        if thr > 0 && n.is_multiple_of(thr) {
            self.arm_sweep();
        }
        if self.sweep_pending() && self.sweep.token.try_acquire(ctx) {
            self.sweep_slice(ctx, SLICE_PAIRS);
            self.sweep.token.release(ctx);
        }
    }

    /// Arm a sweep from the head of the chain; a no-op while one is
    /// pending (it has the rest of the chain still ahead of it).
    fn arm_sweep(&self) {
        let _ =
            self.sweep
                .resume
                .compare_exchange(SWEEP_IDLE, 0, Ordering::Relaxed, Ordering::Relaxed);
    }

    /// One slice of the armed sweep; the caller holds the token. Examines
    /// adjacent pairs from the leaf covering the resume key until `budget`
    /// pairs are spent, then stores the key the next slice resumes at — or
    /// idle at the end of the chain. Returns the merges performed. Every
    /// slice with a budget either merges or moves the resume key up, so a
    /// sweep terminates.
    fn sweep_slice(&self, ctx: &mut ThreadCtx, budget: usize) -> usize {
        debug_assert_ne!(self.sweep.token.held_plain(), 0);
        let from = self.sweep.resume.load(Ordering::Relaxed);
        if from == SWEEP_IDLE {
            // Finished between the caller's armed check and its token.
            return 0;
        }
        // Pin across the chain walk: leaves merged away under it (by this
        // slice or a racing maintainer) must stay readable until it ends.
        ctx.pinned(|ctx, g| {
            let mut left = self.locate(ctx, g, from).leaf;
            let mut scratch = Vec::with_capacity(Self::capacity());
            let mut view = self.view_leaf(ctx, left, &mut scratch);
            let (mut pairs, mut merges) = (0usize, 0usize);
            let resume = loop {
                if view.next.is_null() {
                    break SWEEP_IDLE;
                }
                if pairs >= budget {
                    // A leaf without a record has no key to come back by:
                    // step over it rather than stop on it.
                    if let Some(key) = view.min_key {
                        break key;
                    }
                }
                pairs += 1;
                let right = g.leaf(view.next);
                let right_view = self.view_leaf(ctx, right, &mut scratch);
                if view.live + right_view.live <= Self::merge_bound()
                    && !self.either_protected(g, left, right)
                    && self.try_merge(ctx, g, left, right)
                {
                    merges += 1;
                    // Stay on `left`: it may now be mergeable with its new
                    // successor too.
                    view = self.view_leaf(ctx, left, &mut scratch);
                } else {
                    left = right;
                    view = right_view;
                }
            };
            ctx.metric_add(Counter::SweepSlices, 1);
            ctx.metric_add(Counter::SweepMerges, merges as u64);
            let mut total = self.sweep.merges.load(Ordering::Relaxed) + merges as u64;
            if resume == SWEEP_IDLE {
                ctx.trace(EventKind::Maintain { merges: total });
                total = 0;
            }
            self.sweep.merges.store(total, Ordering::Relaxed);
            self.sweep.resume.store(resume, Ordering::Relaxed);
            merges
        })
    }

    /// The pre-filter's look at one leaf: live-record count, smallest key
    /// and chain successor, read with direct loads inside an optimistic
    /// section so every fresh line is charged like any other plain read.
    /// Nothing validates the section — under a racing writer the view may
    /// be torn, which can only make the sweep skip a pair or resume a leaf
    /// late; the locked merge never trusts it.
    fn view_leaf(
        &self,
        ctx: &mut ThreadCtx,
        leaf: &EunoLeaf<SEGS, K>,
        scratch: &mut Vec<(u64, u64)>,
    ) -> LeafView {
        ctx.optimistic_execute(
            None,
            |_| false,
            |ctx| {
                scratch.clear();
                for seg in &leaf.segs {
                    seg.read_direct(ctx, 0, |r| scratch.push(r));
                }
                Some(LeafView {
                    live: scratch.iter().filter(|&&(_, v)| v != TOMBSTONE).count(),
                    min_key: scratch.iter().map(|&(k, _)| k).min(),
                    next: NodeRef::from_word(leaf.next().load_direct(ctx)),
                })
            },
        )
    }

    /// Merge `right` into `left` under both split locks. Returns whether
    /// it happened.
    fn try_merge(
        &self,
        ctx: &mut ThreadCtx,
        g: Guard<'_, SEGS, K>,
        left: &EunoLeaf<SEGS, K>,
        right: &EunoLeaf<SEGS, K>,
    ) -> bool {
        left.split_lock().acquire(ctx);
        right.split_lock().acquire(ctx);

        let merged = self.merge_locked(ctx, g, left, right);

        right.split_lock().release(ctx);
        left.split_lock().release(ctx);
        if merged {
            // Hand the unlinked right leaf to the epoch collector: freed
            // only after every thread pinned at (or before) the current
            // epoch — including plain chain walkers under `pinned` —
            // has moved on. The caller's pin covers the unlink above.
            debug_assert!(ctx.epoch_pinned(), "merge retirement needs a pin");
            // Before the retirement, after the unlink: see
            // `retire_generation` for what hangs on the order.
            self.sweep.retired.fetch_add(1, Ordering::SeqCst);
            self.arenas
                .leaves
                .retire(self.rt.epoch(), right as *const EunoLeaf<SEGS, K>);
            right.forget_heat(&self.rt);
            // Its CCM block goes with it, and no birth may follow it.
            if let Some(block) = right.seal(ctx, g) {
                self.retire_block(block);
            }
            ctx.trace(EventKind::Merge {
                left: left as *const EunoLeaf<SEGS, K> as u64,
                right: right as *const EunoLeaf<SEGS, K> as u64,
            });
        }
        merged
    }

    /// Join only when calm (`read_opt` only): a pair in which either leaf's
    /// CCM block is protected stays apart. A merge of a contended leaf
    /// would put its records back onto fewer lines — undoing what
    /// contention splits ([`EunoBTree::split_if_contended`]) spread — and
    /// a merge-born hot leaf reorganizes under every insert. Plain loads:
    /// the verdict is a hint either way, and the locked merge asks again.
    fn either_protected(
        &self,
        g: Guard<'_, SEGS, K>,
        left: &EunoLeaf<SEGS, K>,
        right: &EunoLeaf<SEGS, K>,
    ) -> bool {
        self.cfg.read_opt
            && [left, right]
                .iter()
                .any(|leaf| leaf.ccm(g).is_some_and(|ccm| !ccm.bypass_plain()))
    }

    fn merge_locked(
        &self,
        ctx: &mut ThreadCtx,
        g: Guard<'_, SEGS, K>,
        left: &EunoLeaf<SEGS, K>,
        right: &EunoLeaf<SEGS, K>,
    ) -> bool {
        if self.either_protected(g, left, right) {
            return false;
        }
        // Union the mark bits BEFORE the merge becomes visible: a get for
        // an adopted key must never find the left leaf unmarked. Marks are
        // a monotone superset, so setting them early is safe even if the
        // merge is abandoned (just extra false positives). A right leaf
        // without a block keeps no marks, and bypassed puts may be landing
        // in it: every mark, then.
        if let Some(into) = left.ccm(g) {
            into.or_marks(ctx, right.ccm(g).map_or(u64::MAX, |c| c.marks_plain()));
        }
        let out = ctx.htm_execute(self.fallback_cell(), &RetryPolicy::DBX, |tx| {
            // Both split locks are held: contending structural ops queue.
            tx.mark_serialized();
            // Re-verify adjacency under transactional protection.
            if NodeRef::from_word(tx.read(left.next())?) != NodeRef::of_leaf(right) {
                return Ok(false);
            }
            // Both leaves must share a parent, and the right leaf must
            // have a separator entry (not be a leftmost child).
            let parent_bits = tx.read(left.parent())?;
            if parent_bits == 0 || parent_bits != tx.read(right.parent())? {
                return Ok(false);
            }
            let parent = g.index_node(NodeRef::from_word(parent_bits));
            let pcnt = tx.read(&parent.count)? as usize;
            let mut slot = None;
            let mut left_linked =
                NodeRef::from_word(tx.read(&parent.child0)?) == NodeRef::of_leaf(left);
            for j in 0..pcnt {
                let child = NodeRef::from_word(tx.read(&parent.children[j])?);
                if child == NodeRef::of_leaf(right) {
                    slot = Some(j);
                }
                if child == NodeRef::of_leaf(left) {
                    left_linked = true;
                }
            }
            // The left leaf must itself still be reachable from the
            // parent: a racing merge may have unlinked it after our chain
            // walk found it (its `next` still points into the live chain,
            // so the adjacency check alone cannot tell). Merging into an
            // unlinked leaf would silently drop every adopted record.
            if !left_linked {
                return Ok(false);
            }
            let Some(j) = slot else {
                return Ok(false); // right is the parent's child0
            };

            // Gather both leaves' live records; verify they fit.
            let mut records = self.peek_all(tx, left)?.to_vec();
            self.peek_all_into(tx, right, &mut records)?;
            records.retain(|&(_, v)| v != TOMBSTONE);
            records.sort_unstable_by_key(|&(k, _)| k);
            if records.len() > Self::merge_bound() {
                return Ok(false);
            }

            // Invalidate scan steps (and plain chain walkers) holding
            // either leaf, and operations holding the right one, BEFORE
            // any structural edit. Writes become visible in program order
            // on the fallback path and in buffer order at commit, so the
            // seqno bumps and the right leaf's fence must be first: a
            // walker that hops through the right leaf after the unlink
            // must already see the bumped seqno, and an operation the
            // retired fence 0, or it would trust a leaf whose records have
            // moved left — and the left leaf's own records are re-placed
            // in the redistribute below (a spilled key goes home, counts
            // fall), so scan steps holding it need invalidating too. The
            // left leaf keeps its lower bound and takes the right one's
            // fence once the records are in.
            probe::mark("merge:seqno");
            right.bump_seqno(tx)?;
            left.bump_seqno(tx)?;
            let high = tx.read(right.fence(0))?;
            right.set_fence(tx, 0)?;

            // Re-place into the left leaf; empty the right one.
            probe::mark("merge:records");
            self.redistribute(tx, left, &records)?;
            self.clear_segments(tx, right)?;
            left.set_fence(tx, high)?;

            // Unlink and drop the separator entry — a leaf's, never an
            // index node's: subtree hints (`EunoBTree::descend`) rely on
            // index nodes never being unlinked, freed or given a new lower
            // bound, and `euno-check`'s `IndexWatch` fails `stress` on the
            // change that merges them.
            let rnext = tx.read(right.next())?;
            tx.write(left.next(), rnext)?;
            let mut i = j;
            while i + 1 < pcnt {
                let k = tx.read(&parent.keys[i + 1])?;
                let c = tx.read(&parent.children[i + 1])?;
                tx.write(&parent.keys[i], k)?;
                tx.write(&parent.children[i], c)?;
                i += 1;
            }
            tx.write(&parent.count, (pcnt - 1) as u64)?;

            Ok(true)
        });
        out.value
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    use euno_htm::euno_metrics::Counter;
    use euno_htm::{ConcurrentMap, EventKind, RetryPolicy, Runtime, ThreadCtx, TraceBuf, TxWord};
    use euno_rng::{Rng, SmallRng};

    use super::{SLICE_PAIRS, SWEEP_IDLE};
    use crate::config::EunoConfig;
    use crate::node::NodeRef;
    use crate::tree::{DefaultGuard, DefaultLeaf, EunoBTreeDefault};

    /// Head of the leaf chain (quiesced tree).
    fn first_leaf<'g>(t: &EunoBTreeDefault, g: DefaultGuard<'g>) -> &'g DefaultLeaf {
        t.chain_plain(g).next().unwrap()
    }

    /// The leaf after `leaf` on the chain.
    fn next_leaf<'g>(g: DefaultGuard<'g>, leaf: &DefaultLeaf) -> &'g DefaultLeaf {
        g.leaf(NodeRef::from_word(leaf.next().load_plain()))
    }

    #[test]
    fn maintain_merges_after_mass_deletion() {
        let rt = Runtime::new_virtual();
        let t = EunoBTreeDefault::new(Arc::clone(&rt));
        let mut ctx = rt.thread(1);
        for k in 0..2_000u64 {
            t.put(&mut ctx, k, k);
        }
        let leaves_before = t.leaf_count_plain();
        // Delete 90 % of the records.
        for k in 0..2_000u64 {
            if k % 10 != 0 {
                t.delete(&mut ctx, k);
            }
        }
        let merges = t.maintain(&mut ctx);
        assert!(merges > 0, "mass deletion must produce mergeable leaves");
        let leaves_after = t.leaf_count_plain();
        assert!(
            leaves_after < leaves_before / 2,
            "leaf count must shrink: {leaves_before} → {leaves_after}"
        );
        // Correctness preserved.
        for k in 0..2_000u64 {
            let expect = (k % 10 == 0).then_some(k);
            assert_eq!(t.get(&mut ctx, k), expect, "key {k}");
        }
        let audit = t.collect_all_plain();
        assert_eq!(audit.len(), 200);
        assert!(audit.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "probes are debug-only")]
    fn merge_bumps_seqnos_before_records_move() {
        use crate::probe;
        let rt = Runtime::new_virtual();
        let t = EunoBTreeDefault::new(Arc::clone(&rt));
        let mut ctx = rt.thread(1);
        for k in 0..400u64 {
            t.put(&mut ctx, k, k);
        }
        for k in 0..400u64 {
            if k % 10 != 0 {
                t.delete(&mut ctx, k);
            }
        }
        probe::take();
        assert!(t.maintain(&mut ctx) > 0);
        let trace = probe::take();
        let mut seqno_seen = false;
        let mut merges = 0;
        for &m in &trace {
            if m == "merge:seqno" {
                seqno_seen = true;
            } else if m == "merge:records" {
                assert!(seqno_seen, "records moved before the bump: {trace:?}");
                merges += 1;
                seqno_seen = false;
            }
        }
        assert!(merges > 0, "maintain performed no probed merges: {trace:?}");
    }

    #[test]
    fn merge_retirement_reclaims_leaf_bytes() {
        // The unlinked right leaf must flow through the epoch collector:
        // pending bytes rise at the merge, and a quiescent drain frees
        // them — live bytes fall by exactly what was retired.
        let rt = Runtime::new_virtual();
        let t = EunoBTreeDefault::new(Arc::clone(&rt));
        let mut ctx = rt.thread(1);
        for k in 0..2_000u64 {
            t.put(&mut ctx, k, k);
        }
        for k in 0..2_000u64 {
            if k % 10 != 0 {
                t.delete(&mut ctx, k);
            }
        }
        let live_before = t.memory().structural_bytes;
        let merges = t.maintain(&mut ctx);
        assert!(merges > 0);
        let m = t.memory();
        assert!(
            m.retired_pending_bytes > 0 || m.reclaimed_bytes > 0,
            "merges must retire real bytes: {m:?}"
        );
        // Quiescent: every participant is unpinned, so two collection
        // passes (advance + free) drain everything still pending.
        rt.epoch().collect();
        rt.epoch().collect();
        let after = t.memory();
        assert_eq!(after.retired_pending_bytes, 0, "drain leaves nothing");
        assert!(after.reclaimed_bytes > 0, "retired leaves actually freed");
        assert!(
            after.structural_bytes < live_before,
            "live bytes fall after merges: {live_before} → {}",
            after.structural_bytes
        );
        // The map still answers correctly off the compacted tree.
        for k in (0..2_000u64).step_by(10) {
            assert_eq!(t.get(&mut ctx, k), Some(k));
        }
    }

    #[test]
    fn maintain_is_a_noop_on_full_tree() {
        let rt = Runtime::new_virtual();
        let t = EunoBTreeDefault::new(Arc::clone(&rt));
        let mut ctx = rt.thread(1);
        for k in 0..2_000u64 {
            t.put(&mut ctx, k, k);
        }
        let before = t.leaf_count_plain();
        assert_eq!(t.maintain(&mut ctx), 0);
        assert_eq!(t.leaf_count_plain(), before);
    }

    #[test]
    fn operations_after_merge_match_model() {
        let rt = Runtime::new_virtual();
        let t = EunoBTreeDefault::new(Arc::clone(&rt));
        let mut ctx = rt.thread(1);
        let mut model = BTreeMap::new();
        for k in 0..800u64 {
            t.put(&mut ctx, k, k);
            model.insert(k, k);
        }
        for k in 0..800u64 {
            if k % 4 != 0 {
                t.delete(&mut ctx, k);
                model.remove(&k);
            }
        }
        t.maintain(&mut ctx);
        // Keep mutating after the merge: inserts land in merged leaves.
        let mut state = 0xABCD_EF01u64;
        for _ in 0..5_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let key = state % 900;
            match state % 3 {
                0 => {
                    let v = state >> 8;
                    assert_eq!(t.put(&mut ctx, key, v), model.insert(key, v));
                }
                1 => assert_eq!(t.delete(&mut ctx, key), model.remove(&key)),
                _ => assert_eq!(t.get(&mut ctx, key), model.get(&key).copied()),
            }
        }
        assert_eq!(t.collect_all_plain(), model.into_iter().collect::<Vec<_>>());
    }

    /// Join only when calm: under `default()` an underfull pair stays
    /// apart while either leaf is protected and merges once it is calm;
    /// `paper()` merges it protected or not.
    #[test]
    fn a_protected_leaf_is_merged_only_once_calm() {
        for (cfg, joins_hot) in [(EunoConfig::default(), false), (EunoConfig::paper(), true)] {
            let rt = Runtime::new_virtual();
            let t = EunoBTreeDefault::with_config(Arc::clone(&rt), cfg);
            let mut ctx = rt.thread(1);
            for k in 0..200u64 {
                t.put(&mut ctx, k, k);
            }
            for k in (0..200u64).filter(|k| k % 20 != 0) {
                t.delete(&mut ctx, k);
            }
            let expected = t.collect_all_plain();
            // The first two leaves: same parent, the right one not its
            // leftmost child, both nearly empty.
            let first_pair = |t: &EunoBTreeDefault| {
                t.pinned(|g| {
                    let a = first_leaf(t, g);
                    (
                        a as *const DefaultLeaf,
                        next_leaf(g, a) as *const DefaultLeaf,
                    )
                })
            };
            let (a, b) = first_pair(&t);
            t.pinned(|g| t.protect_plain(first_leaf(&t, g)));
            t.maintain(&mut ctx);
            assert_eq!(first_pair(&t) == (a, b), !joins_hot, "protected");
            t.pinned(|g| t.calm_block_plain(first_leaf(&t, g)));
            t.maintain(&mut ctx);
            assert_ne!(first_pair(&t), (a, b), "calm");
            assert_eq!(t.collect_all_plain(), expected);
            assert_eq!(t.audit_quiescent(), Vec::<String>::new());
        }
    }

    #[test]
    fn merge_refuses_unlinked_left() {
        // Regression: maintain's chain walk is uninstrumented, so a racing
        // merge can unlink a leaf between the walk finding it and try_merge
        // locking it — the dead leaf's `next` still points into the live
        // chain, so the in-transaction adjacency re-check passes. Pre-fix,
        // merging into the dead leaf moved the successor's records into an
        // unreachable node, silently dropping them. Reproduce the race
        // deterministically: merge A←B (unlinking B), then ask for B←C.
        let rt = Runtime::new_virtual();
        let t = EunoBTreeDefault::new(Arc::clone(&rt));
        let mut ctx = rt.thread(1);
        for k in 0..200u64 {
            t.put(&mut ctx, k, k);
        }
        for k in 0..200u64 {
            if k % 20 != 0 {
                t.delete(&mut ctx, k);
            }
        }
        let expected = t.collect_all_plain();
        assert_eq!(expected.len(), 10);
        // Three adjacent leaves under the (single) internal root.
        // Calling try_merge directly stands in for maintain's inner loop,
        // so hold the epoch pin maintain would hold around it.
        ctx.pinned(|ctx, g| {
            let a = first_leaf(&t, g);
            let b = next_leaf(g, a);
            let c = next_leaf(g, b);
            assert_eq!(a.parent().load_plain(), b.parent().load_plain());
            assert_eq!(b.parent().load_plain(), c.parent().load_plain());
            assert!(t.try_merge(ctx, g, a, b), "setup merge must succeed");
            // B is now unlinked, but B.next still points at C and B.parent
            // is stale-valid: exactly what the racing walker would hold.
            assert!(
                !t.try_merge(ctx, g, b, c),
                "must refuse to merge into an unlinked leaf"
            );
        });
        assert_eq!(
            t.collect_all_plain(),
            expected,
            "no records may vanish from the live chain"
        );
        for &(k, v) in &expected {
            assert_eq!(t.get(&mut ctx, k), Some(v), "key {k}");
        }
    }

    /// Manual arming for the slice tests: the automatic trigger is off.
    fn manual_tree(rt: &Arc<Runtime>) -> EunoBTreeDefault {
        EunoBTreeDefault::with_config(
            Arc::clone(rt),
            EunoConfig {
                rebalance_delete_threshold: 0,
                ..EunoConfig::default()
            },
        )
    }

    fn resume_of(t: &EunoBTreeDefault) -> u64 {
        t.sweep.resume.load(Ordering::Relaxed)
    }

    /// One slice as a foreground delete would run it, with a chosen budget.
    fn slice(t: &EunoBTreeDefault, ctx: &mut ThreadCtx, budget: usize) -> usize {
        assert!(t.sweep.token.try_acquire(ctx), "token is free between ops");
        let merges = t.sweep_slice(ctx, budget);
        t.sweep.token.release(ctx);
        merges
    }

    /// Slices until the sweep is idle; returns (slices, merges).
    fn drain_sweep(
        t: &EunoBTreeDefault,
        ctx: &mut ThreadCtx,
        rng: &mut SmallRng,
    ) -> (usize, usize) {
        let bound = 2 * t.leaf_count_plain() + 2;
        let (mut slices, mut merges) = (0, 0);
        while t.sweep_pending() {
            let before = resume_of(t);
            let m = slice(t, ctx, rng.gen_range(1..12usize));
            let after = resume_of(t);
            assert!(
                m > 0 || after > before,
                "a slice must merge or advance: {before} → {after}"
            );
            merges += m;
            slices += 1;
            assert!(slices <= bound, "sweep did not terminate in {bound} slices");
        }
        (slices, merges)
    }

    #[test]
    fn slices_interleaved_with_traffic_terminate_and_keep_the_map() {
        for seed in 0..6u64 {
            let rt = Runtime::new_virtual();
            let t = manual_tree(&rt);
            let mut ctx = rt.thread(seed);
            let mut rng = SmallRng::seed_from_u64(0x0051_1CE5 ^ seed);
            let mut model = BTreeMap::new();
            const KEYS: u64 = 3_000;
            for k in (0..KEYS).step_by(2) {
                t.put(&mut ctx, k, k);
                model.insert(k, k);
            }
            for step in 0..4_000u64 {
                match rng.gen_range(0..100u32) {
                    0..=29 => {
                        let k = rng.gen_range(0..KEYS);
                        assert_eq!(t.put(&mut ctx, k, step), model.insert(k, step));
                    }
                    // Deletes cooperate on an armed sweep themselves.
                    30..=64 => {
                        let k = rng.gen_range(0..KEYS);
                        assert_eq!(t.delete(&mut ctx, k), model.remove(&k));
                    }
                    // Splits at and around the leaf the sweep resumes at.
                    65..=69 if t.sweep_pending() => {
                        let base = resume_of(&t).saturating_sub(8);
                        for k in base..(base + 40).min(KEYS) {
                            assert_eq!(t.put(&mut ctx, k, step), model.insert(k, step));
                        }
                    }
                    65..=89 => {
                        let before = resume_of(&t);
                        let m = slice(&t, &mut ctx, rng.gen_range(1..12usize));
                        let after = resume_of(&t);
                        if before == SWEEP_IDLE {
                            assert_eq!((m, after), (0, SWEEP_IDLE), "idle stays idle");
                        } else {
                            assert!(m > 0 || after > before, "{before} → {after}");
                        }
                    }
                    90..=95 => {
                        let before = resume_of(&t);
                        t.arm_sweep();
                        let want = if before == SWEEP_IDLE { 0 } else { before };
                        assert_eq!(resume_of(&t), want, "arming a pending sweep is a no-op");
                    }
                    _ => {
                        t.maintain(&mut ctx);
                        assert!(!t.sweep_pending(), "a full pass covers the armed sweep");
                    }
                }
            }
            t.arm_sweep();
            drain_sweep(&t, &mut ctx, &mut rng);
            assert_eq!(t.collect_all_plain(), model.into_iter().collect::<Vec<_>>());
            assert_eq!(t.audit_quiescent(), Vec::<String>::new(), "seed {seed}");
        }
    }

    #[test]
    fn sliced_sweep_matches_one_full_pass_on_the_same_history() {
        for seed in 0..4u64 {
            let rt = Runtime::new_virtual();
            let (sliced, full) = (manual_tree(&rt), manual_tree(&rt));
            let mut ctx = rt.thread(1);
            let mut rng = SmallRng::seed_from_u64(0xC104E ^ seed);
            for k in 0..4_000u64 {
                sliced.put(&mut ctx, k, k);
                full.put(&mut ctx, k, k);
            }
            for _ in 0..6_000 {
                // Clustered deletes leave runs of mergeable leaves.
                let k = rng.gen_range(0..4_000u64) / 64 * 64 + rng.gen_range(0..48u64);
                assert_eq!(sliced.delete(&mut ctx, k), full.delete(&mut ctx, k));
            }
            let buf = TraceBuf::new(ctx.id, 1 << 16);
            ctx.set_tracer(Box::new(buf));
            sliced.arm_sweep();
            let (slices, merges) = drain_sweep(&sliced, &mut ctx, &mut rng);
            let trace = ctx.take_tracer().unwrap().into_thread_trace();
            assert!(slices > 1 && merges > 0, "{slices} slices, {merges} merges");
            let swept: Vec<u64> = trace
                .events
                .iter()
                .filter_map(|e| match e.kind {
                    EventKind::Maintain { merges } => Some(merges),
                    _ => None,
                })
                .collect();
            assert_eq!(swept, [merges as u64], "one event per sweep, at idle");

            assert_eq!(full.maintain(&mut ctx), merges);
            assert_eq!(sliced.collect_all_plain(), full.collect_all_plain());
            assert!(sliced.leaf_count_plain() <= full.leaf_count_plain());
        }
    }

    #[test]
    fn empty_resume_leaf_is_stepped_over() {
        let rt = Runtime::new_virtual();
        let t = manual_tree(&rt);
        let mut ctx = rt.thread(1);
        for k in (0..4_000u64).step_by(2) {
            t.put(&mut ctx, k, k);
        }
        // P | E: the first chain neighbours under different parents, so
        // the pair can never merge; N follows E.
        let (p_min, e_min, n_min) = t.pinned(|g| {
            let mut p = first_leaf(&t, g);
            let e = loop {
                let next = next_leaf(g, p);
                if next.parent().load_plain() != p.parent().load_plain() {
                    break next;
                }
                p = next;
            };
            let n = next_leaf(g, e);
            let min_key = |leaf: &DefaultLeaf| {
                let keys = leaf.segs.iter().filter(|s| s.count_plain() > 0);
                keys.map(|s| s.key_cell(0).load_plain()).min().unwrap()
            };
            let (p_min, e_min, n_min) = (min_key(p), min_key(e), min_key(n));
            // Fill N so the empty E cannot absorb it, then strip E of every
            // record, tombstones included (a merge of two drained leaves
            // leaves exactly this behind).
            for k in n_min..n_min + 16 {
                t.put(&mut ctx, k, k);
            }
            for k in e_min..n_min {
                t.delete(&mut ctx, k);
            }
            ctx.htm_execute(t.fallback_cell(), &RetryPolicy::DBX, |tx| {
                t.clear_segments(tx, e)
            });
            (p_min, e_min, n_min)
        });
        let leaves = t.leaf_count_plain();

        // A budget of one pair from P would stop on E — which has no key
        // to resume by. The slice must carry on to N instead.
        t.sweep.resume.store(p_min, Ordering::Relaxed);
        assert_eq!(slice(&t, &mut ctx, 1), 0);
        assert_eq!(
            resume_of(&t),
            n_min,
            "resumes at the leaf after the empty one"
        );
        assert_eq!(t.leaf_count_plain(), leaves, "nothing merged");
        // And a key inside the empty leaf's range still finds its way on.
        t.sweep.resume.store(e_min, Ordering::Relaxed);
        assert_eq!(slice(&t, &mut ctx, 1), 0);
        assert_eq!(resume_of(&t), n_min);
        assert_eq!(t.audit_quiescent(), Vec::<String>::new());
    }

    #[test]
    fn threshold_arms_and_deletes_carry_the_sweep_to_idle() {
        let rt = Runtime::new_virtual();
        let t = EunoBTreeDefault::with_config(
            Arc::clone(&rt),
            EunoConfig {
                rebalance_delete_threshold: 500,
                ..EunoConfig::default()
            },
        );
        let mut ctx = rt.thread(1);
        for k in 0..4_000u64 {
            t.put(&mut ctx, k, k);
        }
        let leaves = t.leaf_count_plain();
        for k in 0..499u64 {
            t.delete(&mut ctx, k);
        }
        assert!(!t.sweep_pending(), "below the threshold nothing is armed");
        assert_eq!(ctx.metric(Counter::SweepSlices), 0);
        t.delete(&mut ctx, 499);
        assert!(t.sweep_pending(), "the crossing arms");
        assert_eq!(ctx.metric(Counter::SweepSlices), 1, "and carries one slice");
        // ~500 leaves at 8 pairs a delete: the next hundred deletes finish.
        for k in 500..700u64 {
            t.delete(&mut ctx, k);
        }
        assert!(
            !t.sweep_pending(),
            "foreground slices reach the chain's end"
        );
        let slices = ctx.metric(Counter::SweepSlices);
        assert!(
            (leaves / SLICE_PAIRS..=leaves).contains(&(slices as usize)),
            "{slices} slices over {leaves} leaves"
        );
        assert!(ctx.metric(Counter::SweepMerges) > 0);
        assert_eq!(
            leaves - t.leaf_count_plain(),
            ctx.metric(Counter::SweepMerges) as usize
        );
        // Idle again: further deletes below the next crossing do no sweep work.
        t.delete(&mut ctx, 700);
        assert_eq!(ctx.metric(Counter::SweepSlices), slices);
    }

    #[test]
    fn concurrent_maintainers_do_not_lose_keys() {
        // Two maintenance threads sweep the same delete-heavy chain while a
        // mutator inserts fresh keys: every merge decision races another
        // walker's stale leaf pointers. No key may vanish.
        let rt = Runtime::new_concurrent();
        let t = EunoBTreeDefault::new(Arc::clone(&rt));
        {
            let mut ctx = rt.thread(0);
            for k in 0..3_000u64 {
                t.put(&mut ctx, k, k);
            }
            for k in 0..3_000u64 {
                if k % 10 != 0 {
                    t.delete(&mut ctx, k);
                }
            }
        }
        std::thread::scope(|s| {
            for m in 0..2u64 {
                let t = &t;
                let mut ctx = rt.thread(50 + m);
                s.spawn(move || {
                    for _ in 0..4 {
                        t.maintain(&mut ctx);
                    }
                });
            }
            {
                let t = &t;
                let mut ctx = rt.thread(60);
                s.spawn(move || {
                    for i in 0..600u64 {
                        let key = 100_000 + i;
                        t.put(&mut ctx, key, key);
                    }
                });
            }
        });
        let mut ctx = rt.thread(70);
        for k in (0..3_000u64).step_by(10) {
            assert_eq!(t.get(&mut ctx, k), Some(k), "surviving preload {k}");
        }
        for i in 0..600u64 {
            let key = 100_000 + i;
            assert_eq!(t.get(&mut ctx, key), Some(key), "fresh {key}");
        }
        let audit = t.collect_all_plain();
        assert_eq!(audit.len(), 300 + 600);
        assert!(audit.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn concurrent_maintain_with_live_traffic() {
        let rt = Runtime::new_concurrent();
        let t = EunoBTreeDefault::new(Arc::clone(&rt));
        {
            let mut ctx = rt.thread(0);
            for k in 0..1_500u64 {
                t.put(&mut ctx, k, k);
            }
            for k in 0..1_500u64 {
                if k % 8 != 0 {
                    t.delete(&mut ctx, k);
                }
            }
        }
        std::thread::scope(|s| {
            // One maintenance thread merging while three mutators run.
            {
                let t = &t;
                let mut ctx = rt.thread(100);
                s.spawn(move || {
                    for _ in 0..3 {
                        t.maintain(&mut ctx);
                    }
                });
            }
            for tid in 1..4u64 {
                let t = &t;
                let mut ctx = rt.thread(100 + tid);
                s.spawn(move || {
                    for i in 0..400u64 {
                        let key = (tid * 10_000) + i;
                        t.put(&mut ctx, key, key);
                        assert_eq!(t.get(&mut ctx, key), Some(key));
                    }
                });
            }
        });
        let mut ctx = rt.thread(200);
        // Every surviving preloaded key and every new key is present.
        for k in (0..1_500u64).step_by(8) {
            assert_eq!(t.get(&mut ctx, k), Some(k), "preloaded {k}");
        }
        for tid in 1..4u64 {
            for i in 0..400u64 {
                let key = tid * 10_000 + i;
                assert_eq!(t.get(&mut ctx, key), Some(key), "new {key}");
            }
        }
        let audit = t.collect_all_plain();
        assert!(audit.windows(2).all(|w| w[0].0 < w[1].0));
    }
}
