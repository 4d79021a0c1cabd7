//! Structural modifications: leaf splits and their upward propagation
//! (§4.2.3, Algorithm 3 lines 75-86).
//!
//! Splits run in the *sorting-split-reorganizing* style: the caller has
//! already drained the leaf into the sorted reserved buffer; each half is
//! re-placed over its node's segments by the probe-path rule
//! ([`EunoBTree::redistribute`]), so both nodes keep every key findable in
//! one segment. Splits propagate upward through parent pointers, all
//! inside the lower region so index edits stay atomic.

use crate::ccm::Ccm;
use crate::node::{EunoLeaf, Guard, IndexNode, NodeRef, INTERNAL_FANOUT};
use crate::probe;
use crate::segment::{KeyPad, Keys};
use crate::tree::EunoBTree;
use euno_htm::bptree::{promote, Linked, Unpublished};
use euno_htm::euno_metrics::Counter;
use euno_htm::{EventKind, RetryPolicy, ThreadCtx, Tx, TxResult, TxWord};

/// What a lower region carries from attempt to attempt: whether its
/// caller holds the leaf's split lock, and the nodes the current attempt
/// has allocated, which the next attempt
/// [hands back](euno_htm::NodeArenas::hand_back) before it does anything
/// else — what is listed when the region returns is in the tree.
pub(crate) struct LowerRegion {
    pub split_locked: bool,
    pub unpublished: Unpublished,
}

impl LowerRegion {
    pub fn new(split_locked: bool) -> Self {
        LowerRegion {
            split_locked,
            unpublished: Unpublished::default(),
        }
    }
}

impl<const SEGS: usize, const K: usize> EunoBTree<SEGS, K>
where
    Keys<K>: KeyPad,
{
    /// A lower region's attempt starts here: the nodes the last attempt
    /// allocated go back to their arenas
    /// ([`euno_htm::NodeArenas::hand_back`]), and a split-born leaf's CCM
    /// block with its leaf.
    pub(crate) fn hand_back(&self, g: Guard<'_, SEGS, K>, unpublished: &mut Unpublished) {
        for node in unpublished.iter().filter(|n| n.is_leaf()) {
            if let Some(block) = g.leaf(node).ccm(g) {
                self.discard_block(block);
            }
        }
        self.arenas.hand_back(&self.rt, unpublished);
    }

    /// Split `leaf` because it is contended, not full
    /// ([`EunoBTree::split_if_contended`]): under its split lock, one HTM
    /// region that re-reads the leaf and splits it if it is still live and
    /// holds more records than segments. The lock is tried, not waited
    /// for: whoever holds it is reorganizing, splitting, merging or
    /// scanning this very leaf, and the next conflict here tries again.
    pub(crate) fn contention_split(
        &self,
        ctx: &mut ThreadCtx,
        g: Guard<'_, SEGS, K>,
        leaf: &EunoLeaf<SEGS, K>,
    ) {
        if !leaf.split_lock().try_acquire(ctx) {
            return;
        }
        let mut region = LowerRegion::new(true);
        let out = ctx.htm_execute(&self.ctrl.fallback, &RetryPolicy::DBX, |tx| {
            self.hand_back(g, &mut region.unpublished);
            // A merge that retired the leaf before the lock was ours left
            // its fence at 0; one that took its right neighbour in moved
            // nothing this split trusts.
            if tx.read(leaf.fence(0))? == 0 {
                return Ok(false);
            }
            let records = self.peek_all(tx, leaf)?;
            if records.len() <= SEGS {
                return Ok(false);
            }
            // No key is pending: the leaf's least, which stays left, adds
            // no mark to the right half's block.
            self.split_leaf(tx, g, leaf, &records, records[0].0, &mut region)?;
            Ok(true)
        });
        leaf.split_lock().release(ctx);
        if out.value {
            ctx.metric_add(Counter::ContentionSplits, 1);
        }
    }

    /// §4.2.3: sort → split → reorganize. `records` holds the full sorted
    /// contents (already drained from the segments); each half is re-placed
    /// over its node's segments by the probe-path rule. Returns the half
    /// that should receive `key`.
    pub(crate) fn split_leaf<'g>(
        &'g self,
        tx: &mut Tx<'_>,
        g: Guard<'g, SEGS, K>,
        leaf: &'g EunoLeaf<SEGS, K>,
        records: &[(u64, u64)],
        key: u64,
        region: &mut LowerRegion,
    ) -> TxResult<&'g EunoLeaf<SEGS, K>> {
        let right: &EunoLeaf<SEGS, K> = self.arenas.leaves.alloc(EunoLeaf::empty());
        right.register(&self.rt);
        region.unpublished.push(NodeRef::of_leaf(right));
        let mid = records.len() / 2;
        let sep = records[mid].0;

        // Invalidate concurrent readers of this leaf BEFORE any record
        // moves (Algorithm 3 line 80, same discipline as the merge path):
        // writes become visible in program order on the fallback path, so
        // a scan step — or a plain chain walker — that samples the leaf
        // mid-split must already see the bumped `seqno`, and an operation
        // holding the leaf for a key of the upper half the lowered fence,
        // or it would trust a record set whose upper half has moved right.
        // The leaf keeps its lower bound: the right half is the new node.
        probe::mark("split:seqno");
        leaf.bump_seqno(tx)?;
        let high = tx.read(leaf.fence(0))?;
        leaf.set_fence(tx, sep)?;

        probe::mark("split:records");
        self.redistribute(tx, leaf, &records[..mid])?;
        self.redistribute(tx, right, &records[mid..])?;
        right.set_fence(tx, high)?;

        // A leaf with a CCM block hands the unpublished right node one of
        // its own: fresh exact mark bits (the left node keeps its superset
        // bits) and the old leaf's verdict — half of a hot leaf is hot,
        // half of a calm one calm. The pending key the caller will insert
        // after the split must be included when it lands right of the
        // separator — its CCM-stage mark was set on the *old* leaf. Plain
        // loads on purpose: a transactional read would put the old block's
        // line into this region's footprint, where every lock-bit CAS on
        // the leaf would abort it. The verdict may flip under the load;
        // either value is one the leaf held a moment ago, and the detector
        // corrects both. A leaf without a block hands none on.
        if let Some(from) = leaf.ccm(g) {
            let mut marks = 0u64;
            for &(k, _) in &records[mid..] {
                marks |= 1 << Ccm::slot(k, Self::ccm_bits());
            }
            if key >= sep {
                marks |= 1 << Ccm::slot(key, Self::ccm_bits());
            }
            let block = self.alloc_block(right, Ccm::new(marks, from.bypass_plain()));
            let _ = right.install_block(None, block.addr());
            tx.charge(self.rt.cost.alu * (records.len() - mid) as u64);
        }

        let old_next = tx.read(leaf.next())?;
        tx.write(right.next(), old_next)?;
        tx.write(leaf.next(), NodeRef::of_leaf(right).to_word())?;
        let parent = tx.read(leaf.parent())?;
        tx.write(right.parent(), parent)?;

        // The separator's way up (Algorithm 3 lines 84-86). A split index
        // node's lower half stays where it is and the node
        // keeps its lower bound ([`IndexNode::split_into`]): subtree hints
        // (`EunoBTree::descend`) start walks at index nodes they remember,
        // which is sound only while no index node is ever unlinked, freed
        // or given a new lower bound — `euno-check`'s `IndexWatch` fails
        // `stress` on the change that breaks it.
        let mut climb = Linked {
            nodes: g,
            arenas: &self.arenas,
            rt: &self.rt,
            root: &self.ctrl.root,
            unpublished: &mut region.unpublished,
            changed: |_: &mut Tx<'_>, _: &IndexNode<INTERNAL_FANOUT>, _| Ok(()),
        };
        let (left_ref, right_ref) = (NodeRef::of_leaf(leaf), NodeRef::of_leaf(right));
        promote(tx, &mut climb, left_ref, sep, right_ref)?;
        tx.ctx().trace(EventKind::Split {
            left: leaf as *const EunoLeaf<SEGS, K> as u64,
            right: right as *const EunoLeaf<SEGS, K> as u64,
        });
        Ok(if key < sep { leaf } else { right })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use euno_htm::{AbortClass, ConcurrentMap, Runtime};

    use crate::probe;
    use crate::tree::EunoBTreeDefault;

    /// The ordering invariant the probes exist for: within the marks of
    /// one structural family, no `*:records` may appear before a
    /// `*:seqno` has (attempts that abort between the two marks leave a
    /// lone `seqno`, which is fine — the regression being guarded
    /// against, bumping after the records move, puts `records` first).
    fn assert_seqno_first(trace: &[&'static str], family: &str) {
        let seq_tag = format!("{family}:seqno");
        let rec_tag = format!("{family}:records");
        let mut seqno_seen = false;
        let mut records = 0;
        for &m in trace {
            if m == seq_tag {
                seqno_seen = true;
            } else if m == rec_tag {
                assert!(
                    seqno_seen,
                    "{rec_tag} published before any {seq_tag}: {trace:?}"
                );
                records += 1;
                seqno_seen = false;
            }
        }
        assert!(records > 0, "workload never exercised {family}: {trace:?}");
    }

    /// A split attempt that aborts (on the virtual backend a single thread
    /// meets the model's spurious aborts: 70 attempts of this load, a third
    /// of them splits)
    /// hands the nodes it allocated back, and a split-born leaf's CCM block
    /// with it: every node an arena holds is in the tree, every block a
    /// leaf's, and the memory report is the node counts times the node
    /// sizes, to the byte — with no block under the detector (a
    /// single-threaded load meets no conflict), one a leaf without it.
    #[test]
    fn an_aborted_split_leaks_no_node() {
        use crate::ccm::Ccm;
        use crate::config::EunoConfig;
        use crate::node::{IndexNode, INTERNAL_FANOUT};
        use crate::tree::DefaultLeaf;
        for (cfg, blocks_a_leaf) in [(EunoConfig::default(), 0), (EunoConfig::ccm_markbits(), 1)] {
            let rt = Runtime::new_virtual();
            let t = EunoBTreeDefault::with_config(Arc::clone(&rt), cfg);
            let mut ctx = rt.thread(1);
            for k in 0..200_000u64 {
                t.put(&mut ctx, k, k);
            }
            assert!(
                ctx.stats.aborts[AbortClass::Spurious] > 20,
                "the load met no aborts"
            );
            let stats = t.stats();
            let arenas = &t.arenas;
            assert_eq!(
                (arenas.leaves.node_count(), arenas.internals.node_count()),
                (stats.leaves, stats.internals)
            );
            assert_eq!(t.blocks.node_count(), stats.leaves * blocks_a_leaf);
            let leaf = std::mem::size_of::<DefaultLeaf>();
            let index = std::mem::size_of::<IndexNode<INTERNAL_FANOUT>>();
            let mem = t.memory();
            assert_eq!(
                mem.structural_bytes,
                stats.leaves * leaf + stats.internals * index
            );
            assert_eq!(mem.ccm_bytes, stats.leaves * blocks_a_leaf * Ccm::BYTES);
            assert_eq!(t.audit_quiescent(), Vec::<String>::new());
        }
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "probes are debug-only")]
    fn split_bumps_seqno_before_records_move() {
        let rt = Runtime::new_virtual();
        let t = EunoBTreeDefault::new(Arc::clone(&rt));
        let mut ctx = rt.thread(1);
        probe::take();
        for k in 0..200u64 {
            t.put(&mut ctx, k, k);
        }
        let trace = probe::take();
        assert_seqno_first(&trace, "split");
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "probes are debug-only")]
    fn reorg_bumps_seqno_before_records_move() {
        let rt = Runtime::new_virtual();
        let t = EunoBTreeDefault::new(Arc::clone(&rt));
        let mut ctx = rt.thread(1);
        // Fill one leaf, tombstone half, insert again: the overflow path
        // finds enough garbage to reorganize in place instead of split.
        for k in 0..18u64 {
            t.put(&mut ctx, k, k);
        }
        for k in 0..9u64 {
            t.delete(&mut ctx, k);
        }
        probe::take();
        t.put(&mut ctx, 100, 100);
        let trace = probe::take();
        assert_seqno_first(&trace, "reorg");
    }
}
