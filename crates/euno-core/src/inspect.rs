//! Tree introspection: structural statistics for experiments and
//! diagnostics (uninstrumented; intended for quiesced trees).

use std::convert::Infallible;

use crate::ccm::Ccm;
use crate::node::{EunoLeaf, Guard, NodeRef, INTERNAL_FANOUT};
use crate::segment::{home_segment, KeyPad, Keys, Segment};
use crate::tree::EunoBTree;
use euno_htm::{TxWord, KEY_SENTINEL, TOMBSTONE};

/// Stop collecting violations past this many — one is already a failed
/// audit, and a structurally broken big tree could otherwise flood.
const MAX_VIOLATIONS: usize = 64;

/// A structural snapshot of an [`EunoBTree`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TreeStats {
    /// Interior levels above the leaf layer.
    pub depth: usize,
    pub leaves: usize,
    pub internals: usize,
    /// Live (non-tombstoned) records.
    pub live_records: usize,
    /// Tombstoned slots awaiting compaction.
    pub tombstones: usize,
    /// Occupied slots ÷ total slots across all leaves.
    pub leaf_fill: f64,
    /// Fraction of leaves currently in adaptive bypass (a leaf without a
    /// CCM block is bypassed).
    pub bypassed_fraction: f64,
    /// Leaves that have a CCM block.
    pub ccm_blocks: usize,
    /// Histogram of live records per leaf, bucketed by occupancy quarter
    /// (0–25 %, 25–50 %, 50–75 %, 75–100 %).
    pub occupancy_quarters: [usize; 4],
}

impl<const SEGS: usize, const K: usize> EunoBTree<SEGS, K>
where
    Keys<K>: KeyPad,
{
    /// Walk the whole structure and summarize it. Not concurrency-safe in
    /// the linearizable sense (counts may be slightly stale under traffic)
    /// but never unsound — the walk holds an epoch pin, so nodes a
    /// concurrent merge retires stay readable until it finishes.
    pub fn stats(&self) -> TreeStats {
        self.pinned(|g| {
            let mut s = TreeStats::default();

            // Depth down the leftmost spine (every leaf is that deep), and
            // every index node.
            let mut cur = NodeRef::from_word(self.root_bits());
            while !cur.is_leaf() {
                s.depth += 1;
                cur = NodeRef::from_word(g.index_node(cur).child0.load_plain());
            }
            s.internals = self.index_lows_plain().len();

            // Leaf layer via the chain.
            let capacity = EunoLeaf::<SEGS, K>::capacity();
            let mut occupied_total = 0usize;
            let mut bypassed = 0usize;
            for leaf in self.chain_plain(g) {
                s.leaves += 1;
                let block = leaf.ccm(g);
                s.ccm_blocks += usize::from(block.is_some());
                if block.is_none_or(|c| c.bypass_plain()) {
                    bypassed += 1;
                }
                let live = Self::leaf_live_plain(leaf).len();
                let occupied: usize = leaf.segs.iter().map(|seg| seg.count_plain()).sum();
                occupied_total += occupied;
                s.live_records += live;
                s.tombstones += occupied - live;
                let quarter = ((4 * live) / capacity.max(1)).min(3);
                s.occupancy_quarters[quarter] += 1;
            }
            if s.leaves > 0 {
                s.leaf_fill = occupied_total as f64 / (s.leaves * capacity) as f64;
                s.bypassed_fraction = bypassed as f64 / s.leaves as f64;
            }
            s
        })
    }

    /// Per-leaf `(address, seqno)` snapshot of the live chain (the copy
    /// beside `next`, which a chain walker reads), taken under
    /// an epoch pin so concurrently retired leaves stay readable. An
    /// address identifies one leaf only while it stays on the chain:
    /// merged leaves are reclaimed after a grace period and the allocator
    /// may reuse their addresses, so consumers comparing snapshots must
    /// treat an address that left the chain and came back as a fresh
    /// identity (see `euno-check`'s `SeqnoWatch`).
    pub fn leaf_seqnos_plain(&self) -> Vec<(usize, u64)> {
        self.pinned(|g| {
            let seqno = |leaf: &EunoLeaf<SEGS, K>| {
                (
                    leaf as *const _ as usize,
                    leaf.seqno_beside_next().load_plain(),
                )
            };
            self.chain_plain(g).map(seqno).collect()
        })
    }

    /// Every index node's `(address, lower bound)` — the bound being what
    /// the separators above the node give it (`0` down the leftmost
    /// spine). For a **quiescent** tree. Subtree hints
    /// ([`EunoBTree::descend`]) follow a remembered index node without a
    /// version check, which is sound only while no node of one snapshot is
    /// missing from a later one or has a different bound there; `euno-check`'s
    /// `IndexWatch` compares snapshots for exactly that.
    pub fn index_lows_plain(&self) -> Vec<(usize, u64)> {
        self.pinned(|g| {
            let mut out = Vec::new();
            let mut stack = vec![(NodeRef::from_word(self.root_bits()), 0)];
            while let Some((nref, low)) = stack.pop() {
                if nref.is_leaf() || nref.is_null() {
                    continue;
                }
                let node = g.index_node(nref);
                out.push((node as *const _ as usize, low));
                stack.push((NodeRef::from_word(node.child0.load_plain()), low));
                let cnt = (node.count.load_plain() as usize).min(INTERNAL_FANOUT);
                for j in 0..cnt {
                    let child = NodeRef::from_word(node.children[j].load_plain());
                    stack.push((child, node.keys[j].load_plain()));
                }
            }
            out
        })
    }

    /// Plain (uninstrumented) root-to-leaf descent.
    fn plain_descend(&self, g: Guard<'_, SEGS, K>, key: u64) -> NodeRef {
        let at = self.descend(g, key, None, |cell| Ok(cell.load_plain()));
        NodeRef::of_leaf(at.ok().flatten().expect("quiescent tree").leaf)
    }

    /// Live `(key, value)` records of one leaf, sorted, via plain loads.
    pub(crate) fn leaf_live_plain(leaf: &EunoLeaf<SEGS, K>) -> Vec<(u64, u64)> {
        let record =
            |seg: &Segment<K>, i| (seg.key_cell(i).load_plain(), seg.val_cell(i).load_plain());
        let mut recs: Vec<(u64, u64)> = (leaf.segs.iter())
            .flat_map(|seg| (0..seg.count_plain()).map(move |i| record(seg, i)))
            .filter(|&(_, v)| v != TOMBSTONE)
            .collect();
        recs.sort_unstable_by_key(|&(k, _)| k);
        recs
    }

    /// Audit the structural invariants of a **quiescent** tree (no
    /// concurrent operations in flight). Returns human-readable violation
    /// descriptions; an empty vector is a clean bill of health. Checked:
    ///
    /// * no lock is left held: fallback word, root lock, every leaf's
    ///   split lock, every CCM lock-bit vector;
    /// * the index-reachable leaf sequence (in-order walk) is exactly the
    ///   `next`-chain sequence, with no cycle;
    /// * every node's children point back at it (`parent` consistency)
    ///   and the root's parent is null;
    /// * separator keys within each internal node are strictly ascending;
    /// * live keys are strictly ascending along the whole chain (no
    ///   duplicates within or across leaves);
    /// * every leaf's fence is its upper bound in the index: the separator
    ///   above it, `KEY_SENTINEL` at the end of the chain;
    /// * every segment's copy of a leaf's `seqno` reads the same (a writer
    ///   that bumps fewer than all of them leaves a reader checking another
    ///   copy trusting a leaf whose records moved);
    /// * **placement** — every record, tombstones included, sits in a
    ///   segment on its key's probe path with every segment before it on
    ///   that path full, its segment is sorted, and the leaf's own search
    ///   ([`EunoLeaf::find`], over plain loads) ends on it: a get or put
    ///   reads one segment and may stop there;
    /// * if mark bits are enabled, each CCM block's marks are a superset
    ///   of its leaf's live keys' slots (a get must never miss a present
    ///   key);
    /// * **CCM blocks** — no block is shared by two leaves, every leaf's
    ///   block is live in the tree's block arena, and the arena holds no
    ///   other (a retired leaf's block is retired too, an aborted split's
    ///   handed back); a CCM config without the detector gives every leaf
    ///   a block, a config with no CCM bits none;
    /// * a root descent for every live key lands on the leaf that holds it
    ///   (separator arithmetic agrees with record placement).
    pub fn audit_quiescent(&self) -> Vec<String> {
        self.pinned(|g| {
            let mut viol = Vec::new();
            macro_rules! report {
                ($($arg:tt)*) => {
                    if viol.len() < MAX_VIOLATIONS {
                        viol.push(format!($($arg)*));
                    } else {
                        return viol;
                    }
                };
            }
            let root = NodeRef::from_word(self.root_bits());

            if self.fallback_cell().load_plain() != 0 {
                report!("fallback lock held at quiescence");
            }
            if self.ctrl.root_lock.held_plain() != 0 {
                report!("root lock held at quiescence");
            }
            if g.parent_cell(root).load_plain() != 0 {
                report!("root has a non-null parent pointer");
            }

            // In-order walk of the index. Children pop in left-to-right order.
            let mut index_leaves: Vec<NodeRef> = Vec::new();
            let mut stack = vec![root];
            while let Some(nref) = stack.pop() {
                if nref.is_null() {
                    report!("null child reachable from the index");
                    continue;
                }
                if nref.is_leaf() {
                    index_leaves.push(nref);
                    continue;
                }
                let node = g.index_node(nref);
                let cnt = node.count.load_plain() as usize;
                if cnt > INTERNAL_FANOUT {
                    report!("internal {:#x} count {cnt} exceeds fanout", nref.to_word());
                    continue;
                }
                for j in 1..cnt {
                    let (a, b) = (node.keys[j - 1].load_plain(), node.keys[j].load_plain());
                    if a >= b {
                        report!(
                            "internal {:#x} separators not ascending at {j}: {a} ≥ {b}",
                            nref.to_word()
                        );
                    }
                }
                let me = NodeRef::of_index(node).to_word();
                let mut kids = vec![NodeRef::from_word(node.child0.load_plain())];
                for j in 0..cnt {
                    kids.push(NodeRef::from_word(node.children[j].load_plain()));
                }
                for &kid in &kids {
                    if kid.is_null() {
                        report!("internal {:#x} has a null child", me);
                        continue;
                    }
                    let back = g.parent_cell(kid).load_plain();
                    if back != me {
                        report!(
                            "child {:#x} of internal {:#x} has parent {:#x}",
                            kid.to_word(),
                            me,
                            back
                        );
                    }
                }
                stack.extend(kids.iter().rev().filter(|kid| !kid.is_null()));
            }

            // Leaf chain, with cycle detection bounded by the index count.
            let chain = self.chain_plain(g).take(index_leaves.len() + 1);
            let chain_leaves: Vec<NodeRef> = chain.map(NodeRef::of_leaf).collect();
            if chain_leaves.len() > index_leaves.len() {
                report!("leaf chain longer than the index: cycle or leaked leaf");
            }
            if chain_leaves != index_leaves {
                report!(
                    "index-reachable leaves ≠ chain sequence ({} vs {} leaves)",
                    index_leaves.len(),
                    chain_leaves.len()
                );
            }

            // Per-leaf content invariants along the chain.
            let mut prev_key: Option<u64> = None;
            let mut blocks = std::collections::HashSet::new();
            for (at, &lref) in chain_leaves.iter().enumerate() {
                let leaf = g.leaf(lref);
                let addr = lref.to_word();
                // The fence is the separator the index puts above the leaf.
                let fence = leaf.fence().load_plain();
                let holds = match chain_leaves.get(at + 1) {
                    Some(&next) => {
                        fence > 0
                            && self.plain_descend(g, fence - 1) == lref
                            && self.plain_descend(g, fence) == next
                    }
                    None => fence == KEY_SENTINEL,
                };
                if !holds {
                    report!("leaf {addr:#x} fence {fence:#x} is not its upper bound in the index");
                }
                if leaf.split_lock().held_plain() != 0 {
                    report!("leaf {addr:#x} split lock held at quiescence");
                }
                let copies: Vec<u64> = (0..SEGS).map(|s| leaf.seqno(s).load_plain()).collect();
                if copies.iter().any(|&c| c != copies[0]) {
                    report!("leaf {addr:#x} seqno copies disagree: {copies:?}");
                }
                let block = leaf.ccm(g);
                if let Some(locks) = block.map(Ccm::locks_plain).filter(|&l| l != 0) {
                    report!("leaf {addr:#x} CCM lock bits {locks:#b} held at quiescence");
                }
                match block {
                    Some(b) if !blocks.insert(b as *const Ccm) => {
                        report!("leaf {addr:#x} shares its CCM block {:#x}", b as *const Ccm as u64)
                    }
                    Some(b) if !self.blocks.holds(b) => {
                        report!("leaf {addr:#x} CCM block {:#x} is not live", b as *const Ccm as u64)
                    }
                    None if self.cfg.conflict_control() && !self.cfg.adaptive => {
                        report!("leaf {addr:#x} has no CCM block under a CCM config without the detector")
                    }
                    Some(_) if !self.cfg.conflict_control() => {
                        report!("leaf {addr:#x} has a CCM block under a config with no CCM bits")
                    }
                    _ => {}
                }
                // Slots: every segment's keys strictly ascending up to its
                // first free slot, and every slot after that free — what a
                // bisection over the slots and a count taken as the first
                // free slot stand on.
                for (at, seg) in leaf.segs.iter().enumerate() {
                    let count = seg.count_plain();
                    for i in 1..count {
                        if seg.key_cell(i - 1).load_plain() >= seg.key_cell(i).load_plain() {
                            report!("leaf {addr:#x} segment {at} not ascending at slot {i}");
                        }
                    }
                    for i in count + 1..K {
                        let key = seg.key_cell(i).load_plain();
                        if key != KEY_SENTINEL {
                            report!(
                                "leaf {addr:#x} segment {at} holds key {key} at slot {i}, \
                             past its free slot {count}"
                            );
                        }
                    }
                }
                // Placement: what the one-segment search stands on, for every
                // record — a tombstone holds its slot like any other.
                for (at, seg) in leaf.segs.iter().enumerate() {
                    for i in 0..seg.count_plain() {
                        let key = seg.key_cell(i).load_plain();
                        let home = home_segment(key, SEGS);
                        let before = (at + SEGS - home) % SEGS;
                        if let Some(gap) = (0..before)
                            .map(|j| (home + j) % SEGS)
                            .find(|&j| leaf.segs[j].count_plain() < K)
                        {
                            report!(
                                "leaf {addr:#x} key {key} (home {home}) is in segment {at}, \
                             past segment {gap} which has room"
                            );
                        }
                        let Ok((found, probe)) =
                            leaf.find(home, key, |cell| Ok::<_, Infallible>(cell.load_plain()));
                        if !probe.hit || (found, probe.slot) != (at, i) {
                            report!(
                                "leaf {addr:#x} search for key {key} (segment {at} slot {i}) \
                             ends at segment {found} slot {}, hit: {}",
                                probe.slot,
                                probe.hit
                            );
                        }
                    }
                }
                let recs = Self::leaf_live_plain(leaf);
                for w in recs.windows(2) {
                    if w[0].0 >= w[1].0 {
                        report!(
                            "leaf {addr:#x} keys not strictly ascending: {} ≥ {}",
                            w[0].0,
                            w[1].0
                        );
                    }
                }
                let marks = block.map_or(u64::MAX, Ccm::marks_plain);
                for &(k, _) in &recs {
                    if let Some(p) = prev_key {
                        if k <= p {
                            report!("chain order violated: key {k} after {p}");
                        }
                    }
                    prev_key = Some(k);
                    if self.cfg.ccm_mark_bits {
                        let slot = Ccm::slot(k, Self::ccm_bits());
                        if marks & (1u64 << slot) == 0 {
                            report!("leaf {addr:#x} mark bits miss live key {k} (slot {slot})");
                        }
                    }
                    let found = self.plain_descend(g, k);
                    if found != lref {
                        report!(
                            "descent for key {k} lands on leaf {:#x}, but it lives in {addr:#x}",
                            found.to_word()
                        );
                    }
                }
                if viol.len() >= MAX_VIOLATIONS {
                    return viol;
                }
            }
            // Every live block is a chain leaf's: a retired leaf's block
            // was retired with it, an aborted split's handed back.
            if self.blocks.node_count() != blocks.len() {
                report!(
                    "{} CCM blocks live, {} held by the chain's leaves",
                    self.blocks.node_count(),
                    blocks.len()
                );
            }
            viol
        })
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use euno_htm::{ConcurrentMap, Runtime};

    use crate::tree::EunoBTreeDefault;

    #[test]
    fn stats_on_empty_tree() {
        let rt = Runtime::new_virtual();
        let t = EunoBTreeDefault::new(Arc::clone(&rt));
        let s = t.stats();
        assert_eq!(s.depth, 0);
        assert_eq!(s.leaves, 1);
        assert_eq!(s.internals, 0);
        assert_eq!(s.live_records, 0);
    }

    #[test]
    fn stats_track_growth_and_deletion() {
        let rt = Runtime::new_virtual();
        let t = EunoBTreeDefault::new(Arc::clone(&rt));
        let mut ctx = rt.thread(1);
        for k in 0..3_000u64 {
            t.put(&mut ctx, k, k);
        }
        let s = t.stats();
        assert_eq!(s.live_records, 3_000);
        assert_eq!(s.tombstones, 0);
        assert!(s.depth >= 2, "3000 records at fanout 18 need depth ≥ 2");
        assert!(s.leaves >= 3_000 / 18);
        assert_eq!(s.leaves, t.leaf_count_plain());
        assert!(s.leaf_fill > 0.3 && s.leaf_fill <= 1.0);
        let total_q: usize = s.occupancy_quarters.iter().sum();
        assert_eq!(total_q, s.leaves);

        // Deletions become tombstones until compaction.
        for k in 0..1_000u64 {
            t.delete(&mut ctx, k);
        }
        let s = t.stats();
        assert_eq!(s.live_records, 2_000);
        assert_eq!(s.tombstones, 1_000);

        // A maintenance sweep compacts and merges.
        t.maintain(&mut ctx);
        let s2 = t.stats();
        assert_eq!(s2.live_records, 2_000);
        assert!(s2.tombstones < 1_000);
        assert!(s2.leaves <= s.leaves);
    }

    #[test]
    fn audit_clean_after_churn_and_maintain() {
        let rt = Runtime::new_virtual();
        let t = EunoBTreeDefault::new(Arc::clone(&rt));
        let mut ctx = rt.thread(1);
        for k in 0..2_000u64 {
            t.put(&mut ctx, k * 3, k);
        }
        for k in 0..2_000u64 {
            if k % 3 != 0 {
                t.delete(&mut ctx, k * 3);
            }
        }
        t.maintain(&mut ctx);
        let mut out = Vec::new();
        t.scan(&mut ctx, 0, 100, &mut out);
        assert_eq!(t.audit_quiescent(), Vec::<String>::new());
        let seqnos = t.leaf_seqnos_plain();
        assert_eq!(seqnos.len(), t.leaf_count_plain());
    }

    #[test]
    fn audit_flags_forged_violations() {
        use crate::ccm::Ccm;
        use crate::node::NodeRef;
        use crate::tree::DEFAULT_K as K;
        use euno_htm::{TxWord, KEY_SENTINEL};
        let rt = Runtime::new_virtual();
        let t = EunoBTreeDefault::new(Arc::clone(&rt));
        let mut ctx = rt.thread(1);
        for k in 0..200u64 {
            t.put(&mut ctx, k, k);
        }
        assert!(t.audit_quiescent().is_empty());

        // A leaked split lock is reported.
        t.pinned(|g| {
            let leaf = t.chain_plain(g).next().unwrap();
            leaf.split_lock().acquire(&mut ctx);
            let viol = t.audit_quiescent();
            assert!(
                viol.iter().any(|v| v.contains("split lock held")),
                "{viol:?}"
            );
            leaf.split_lock().release(&mut ctx);

            // Dropping a mark bit under a live key breaks the superset rule.
            t.protect_plain(leaf);
            let block = leaf.ccm(g).unwrap();
            let saved = block.marks_plain();
            block.forge_marks_plain(0);
            let viol = t.audit_quiescent();
            assert!(
                viol.iter().any(|v| v.contains("mark bits miss live key")),
                "{viol:?}"
            );
            block.forge_marks_plain(saved);

            // A block no chain leaf holds — a retired leaf's that stayed
            // behind — is reported.
            let stray = t.alloc_block(leaf, Ccm::new(0, true));
            let viol = t.audit_quiescent();
            assert!(
                viol.iter().any(|v| v.contains("CCM blocks live, 1 held")),
                "{viol:?}"
            );
            t.discard_block(stray);

            // A key past a segment's first free slot is one no search
            // finds.
            let seg = leaf.segs.iter().find(|s| s.count_plain() + 1 < K).unwrap();
            seg.key_cell(K - 1).store_plain(1_000_000);
            let viol = t.audit_quiescent();
            assert!(
                viol.iter().any(|v| v.contains("past its free slot")),
                "{viol:?}"
            );
            seg.key_cell(K - 1).store_plain(KEY_SENTINEL);

            // A fence that is not the leaf's upper bound.
            let saved_fence = leaf.fence().load_plain();
            leaf.fence().store_plain(saved_fence - 1);
            let viol = t.audit_quiescent();
            assert!(
                viol.iter().any(|v| v.contains("not its upper bound")),
                "{viol:?}"
            );
            leaf.fence().store_plain(saved_fence);

            // Unlinking a leaf from the chain desynchronizes it from the index.
            let saved_next = leaf.next().load_plain();
            let skip = g.leaf(NodeRef::from_word(saved_next));
            leaf.next().store_plain(skip.next().load_plain());
            let viol = t.audit_quiescent();
            assert!(
                viol.iter().any(|v| v.contains("chain sequence")),
                "{viol:?}"
            );
            leaf.next().store_plain(saved_next);
        });
        assert!(t.audit_quiescent().is_empty());
    }

    #[test]
    fn bypass_fraction_reflects_adaptive_state() {
        let rt = Runtime::new_virtual();
        let t = EunoBTreeDefault::new(Arc::clone(&rt));
        let mut ctx = rt.thread(1);
        for k in 0..500u64 {
            t.put(&mut ctx, k, k);
        }
        // Split-born leaves inherit the verdict and nothing here
        // conflicts: the whole tree is calm.
        assert_eq!(t.stats().bypassed_fraction, 1.0);
        // Protect one leaf: the fraction follows.
        ctx.pinned(|ctx, g| t.protect_plain(t.locate(ctx, g, 0).leaf));
        let s = t.stats();
        assert_eq!(s.bypassed_fraction, (s.leaves - 1) as f64 / s.leaves as f64);
    }
}
