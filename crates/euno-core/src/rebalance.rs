//! Deferred re-balancing (§4.2.4).
//!
//! Deletions tombstone records in place; tombstones are compacted at the
//! next reorganization, but a delete-heavy phase can still strand many
//! underfull leaves. Following the paper ("instead of re-balancing the
//! tree on every deletion instantly, we do the re-balance when the number
//! of delete operations exceeds a threshold", citing Sen & Tarjan's
//! *deletion without rebalancing*), [`EunoBTree::maintain`] sweeps the
//! leaf chain and merges adjacent underfull siblings:
//!
//! * both leaves' split locks are taken (in chain order — deadlock-free
//!   against splits, which take a single lock);
//! * the merge itself runs in one HTM region: re-verify adjacency, deal
//!   the combined records round-robin over the left leaf's segments,
//!   unlink the right leaf and drop its separator from the shared parent;
//! * both leaves' `seqno`s are bumped (before any record moves) so
//!   two-step traversals and episode-free readers holding either pointer
//!   retry from the root, and the right node is retired to the epoch
//!   collector (freed after a two-epoch grace period, once no pinned
//!   thread can still hold a reference).
//!
//! Like Sen-Tarjan, interior nodes are allowed to go underfull — only
//! their entries are removed, never cascaded. Merges are restricted to
//! siblings sharing a parent where the right leaf is not the parent's
//! leftmost child; boundary pairs are simply skipped (they become
//! mergeable after their parents themselves drain).

use euno_htm::{EventKind, RetryPolicy, TxWord, TOMBSTONE};

use crate::node::{EunoLeaf, NodeRef};
use crate::probe;
use crate::tree::EunoBTree;

impl<const SEGS: usize, const K: usize> EunoBTree<SEGS, K> {
    /// Sweep the leaf chain once, merging adjacent underfull siblings.
    /// Returns the number of merges performed. Safe to run concurrently
    /// with normal operations.
    pub fn maintain(&self, ctx: &mut euno_htm::ThreadCtx) -> usize {
        // Pin before the chain walk: merged-away leaves freed by the epoch
        // collector must stay readable until this sweep lets go.
        ctx.epoch_enter();
        let mut merges = 0;
        // Leftmost leaf via an uninstrumented walk (the maintenance thread
        // races ops; all pointers stay valid under the pin).
        let mut cur = NodeRef::from_word(self.root_bits());
        while !cur.is_leaf() {
            cur = NodeRef::from_word(unsafe { cur.as_internal() }.child0.load_plain());
        }
        loop {
            let leaf = unsafe { cur.as_leaf::<SEGS, K>() };
            let next = NodeRef::from_word(leaf.next.load_plain());
            if next.is_null() {
                break;
            }
            if self.try_merge(ctx, leaf, unsafe { next.as_leaf::<SEGS, K>() }) {
                merges += 1;
                // Stay on `leaf`: it may now be mergeable with its new
                // successor too.
                continue;
            }
            cur = next;
        }
        ctx.trace(EventKind::Maintain {
            merges: merges as u64,
        });
        ctx.epoch_exit();
        merges
    }

    /// Attempt to merge `right` into `left`. Returns whether it happened.
    fn try_merge(
        &self,
        ctx: &mut euno_htm::ThreadCtx,
        left: &EunoLeaf<SEGS, K>,
        right: &EunoLeaf<SEGS, K>,
    ) -> bool {
        // Note: slot occupancy counts tombstones, so it cannot serve as a
        // pre-filter after a deletion wave — the transactional path below
        // counts live records exactly. Only skip the obviously hopeless
        // case of two brim-full leaves.
        if left.occupied_direct(ctx) + right.occupied_direct(ctx) == 2 * Self::capacity() {
            return false;
        }
        left.split_lock.acquire(ctx);
        right.split_lock.acquire(ctx);

        let merged = self.merge_locked(ctx, left, right);

        right.split_lock.release(ctx);
        left.split_lock.release(ctx);
        if merged {
            // Hand the unlinked right leaf to the epoch collector: freed
            // only after every thread pinned at (or before) the current
            // epoch — including plain chain walkers under `pin_scoped` —
            // has moved on. The caller (maintain) holds the pin that
            // covers the unlink above.
            debug_assert!(ctx.epoch_pinned(), "merge retirement needs a pin");
            self.arenas()
                .leaves
                .retire(self.rt.epoch(), right as *const EunoLeaf<SEGS, K>);
            ctx.trace(EventKind::Merge {
                left: left as *const EunoLeaf<SEGS, K> as u64,
                right: right as *const EunoLeaf<SEGS, K> as u64,
            });
        }
        merged
    }

    fn merge_locked(
        &self,
        ctx: &mut euno_htm::ThreadCtx,
        left: &EunoLeaf<SEGS, K>,
        right: &EunoLeaf<SEGS, K>,
    ) -> bool {
        // Union the mark bits BEFORE the merge becomes visible: a get for
        // an adopted key must never find the left leaf unmarked. Marks are
        // a monotone superset, so setting them early is safe even if the
        // merge is abandoned (just extra false positives).
        let right_marks = right.ccm.marks_plain();
        left.ccm.or_marks(ctx, right_marks);
        let out = ctx.htm_execute(self.fallback_cell(), &RetryPolicy::DBX, |tx| {
            // Both split locks are held: contending structural ops queue.
            tx.mark_serialized();
            // Re-verify adjacency under transactional protection.
            if NodeRef::from_word(tx.read(&left.next)?) != NodeRef::of_leaf(right) {
                return Ok(false);
            }
            // Both leaves must share a parent, and the right leaf must
            // have a separator entry (not be a leftmost child).
            let parent_bits = tx.read(&left.parent)?;
            if parent_bits == 0 || parent_bits != tx.read(&right.parent)? {
                return Ok(false);
            }
            let parent = unsafe { NodeRef::from_word(parent_bits).as_internal() };
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
            let mut records = self.peek_all_for_merge(tx, left)?;
            self.peek_all_into(tx, right, &mut records)?;
            records.retain(|&(_, v)| v != TOMBSTONE);
            records.sort_unstable_by_key(|&(k, _)| k);
            if records.len() > Self::capacity() - Self::capacity() / 4 {
                return Ok(false);
            }

            // Invalidate two-step traversals (and plain chain walkers)
            // holding either leaf BEFORE any structural edit. Writes
            // become visible in program order on the fallback path and in
            // buffer order at commit, so the seqno bumps must be first: a
            // walker that hops through the right leaf after the unlink
            // must already see the bumped seqno, or it would trust a leaf
            // whose records have moved left — and the left leaf's own
            // records hop between segments in the redistribute below, so
            // readers holding it need invalidating too.
            probe::mark("merge:seqno");
            let rseq = tx.read(&right.seqno)?;
            tx.write(&right.seqno, rseq + 1)?;
            let lseq = tx.read(&left.seqno)?;
            tx.write(&left.seqno, lseq + 1)?;

            // Deal into the left leaf; empty the right one.
            probe::mark("merge:records");
            self.redistribute_for_merge(tx, left, &records)?;
            self.clear_segments(tx, right)?;

            // Unlink and drop the separator entry.
            let rnext = tx.read(&right.next)?;
            tx.write(&left.next, rnext)?;
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
    use std::sync::Arc;

    use euno_htm::{ConcurrentMap, Runtime, TxWord};

    use crate::tree::EunoBTreeDefault;

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

    #[test]
    fn merge_refuses_unlinked_left() {
        // Regression: maintain's chain walk is uninstrumented, so a racing
        // merge can unlink a leaf between the walk finding it and try_merge
        // locking it — the dead leaf's `next` still points into the live
        // chain, so the in-transaction adjacency re-check passes. Pre-fix,
        // merging into the dead leaf moved the successor's records into an
        // unreachable node, silently dropping them. Reproduce the race
        // deterministically: merge A←B (unlinking B), then ask for B←C.
        use crate::node::NodeRef;
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
        let mut cur = NodeRef::from_word(t.root_bits());
        while !cur.is_leaf() {
            cur = NodeRef::from_word(unsafe { cur.as_internal() }.child0.load_plain());
        }
        let a = unsafe { cur.as_leaf::<4, 4>() };
        let b = unsafe { NodeRef::from_word(a.next.load_plain()).as_leaf::<4, 4>() };
        let c = unsafe { NodeRef::from_word(b.next.load_plain()).as_leaf::<4, 4>() };
        assert_eq!(a.parent.load_plain(), b.parent.load_plain());
        assert_eq!(b.parent.load_plain(), c.parent.load_plain());

        // Calling try_merge directly stands in for maintain's inner loop,
        // so hold the epoch pin maintain would hold around it.
        ctx.epoch_enter();
        assert!(t.try_merge(&mut ctx, a, b), "setup merge must succeed");
        // B is now unlinked, but B.next still points at C and B.parent is
        // stale-valid: exactly what the racing walker would hold.
        assert!(
            !t.try_merge(&mut ctx, b, c),
            "must refuse to merge into an unlinked leaf"
        );
        ctx.epoch_exit();
        assert_eq!(
            t.collect_all_plain(),
            expected,
            "no records may vanish from the live chain"
        );
        for &(k, v) in &expected {
            assert_eq!(t.get(&mut ctx, k), Some(v), "key {k}");
        }
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
