//! The whole-operation HTM region (Algorithm 1) and the two comparators
//! that run one: the conventional HTM-B+Tree, and HTM-Masstree (§5.1
//! comparator (3)).
//!
//! HTM-B+Tree is the design the paper analyses and attacks — a textbook
//! B+Tree whose get/put/delete/scan each run, start to finish
//! (root-to-leaf traversal, leaf access, split propagation), inside a
//! single HTM region with a DBX-style retry policy and global-lock
//! fallback. It is simple and fast under low contention, and collapses
//! under high contention for the three reasons of §2.3: whole-operation
//! retry cost, false conflicts from the consecutive sorted layout and
//! shared `count` metadata, and true conflicts on hot records.
//!
//! HTM-Masstree is the Masstree structure in the same region, which
//! subsumes its fine-grained locks. The paper's finding: this performs
//! *worse* than lock-based Masstree at every contention level, "because
//! HTM-based Masstree has shared variable accesses which incurs frequent
//! HTM aborts" — the per-node version words that make the optimistic
//! protocol work become transactional read/write-set members, so every
//! writer's counter bump aborts every overlapping reader of that node.
//! "Even for a highly optimized concurrent B+Tree, it is still hard to
//! directly take advantage of HTM." Inside the region no locks are taken
//! (elision): the transaction reads each traversed node's version word
//! (subscribing to it — a concurrent non-transactional lock acquisition or
//! counter bump aborts us) and writers bump the counters transactionally,
//! exactly what naive lock subsumption produces.
//!
//! The region bodies, the descent and the leaf split are written once, in
//! [`HtmTree`]; a zero-sized [`Versions`] policy is what the two trees do
//! differently. DESIGN.md §4.9.

use std::marker::PhantomData;
use std::sync::Arc;

use euno_htm::bptree::{promote, upper_bound, Linked, Propagate, Unpublished};
use euno_htm::{
    ConcurrentMap, IndexNode, MemoryReport, NodeArenas, NodeRef, RetryPolicy, Runtime, ThreadCtx,
    Tx, TxCell, TxResult, KEY_SENTINEL, TOMBSTONE,
};

use crate::masstree::{
    node_visit_overhead, permutation_decode, LOCK_BIT, VINSERT_UNIT, VSPLIT_UNIT,
};
use crate::node::{empty_tree, Guard, Leaf, DEFAULT_FANOUT};

/// The conventional HTM-B+Tree.
pub type HtmBTree<const F: usize = DEFAULT_FANOUT> = HtmTree<NoVersions, F>;

/// Masstree with whole-operation HTM regions subsuming its locks.
pub type HtmMasstree = HtmTree<MasstreeVersions, DEFAULT_FANOUT>;

/// A B+Tree protected by one monolithic HTM region per operation, with
/// the version policy `V`.
pub struct HtmTree<V, const F: usize> {
    rt: Arc<Runtime>,
    ctrl: Box<euno_htm::ControlBlock>,
    arenas: NodeArenas<Leaf<F>, F>,
    versions: PhantomData<fn() -> V>,
}

/// What a whole-region tree adds to the sorted B+tree, statically
/// dispatched: the region bodies call each hook where that tree's own
/// accesses go. The first three do nothing unless a tree has version
/// words.
pub trait Versions<const F: usize>: Sized {
    /// What the tree reports as its name.
    const NAME: &'static str;

    /// The region steps onto the node whose version word is `version` on
    /// the way down, and searches its keys next iff `search` (every index
    /// node, and the leaf of a point operation).
    fn enter(_: &mut Tx<'_>, _version: &TxCell<u64>, _search: bool) -> TxResult<()> {
        Ok(())
    }

    /// Before each key load of a search.
    fn probe(_: &mut Tx<'_>) {}

    /// A node with the version word `version` has taken an insert or a
    /// delete (`inserted`), or has split (`split`).
    fn bump(_: &mut Tx<'_>, _version: &TxCell<u64>, _inserted: bool, _split: bool) -> TxResult<()> {
        Ok(())
    }

    /// Take a leaf split's separator up the tree.
    fn climb(tx: &mut Tx<'_>, split: Split<'_, '_, Self, F>) -> TxResult<()>;
}

/// A leaf split on its way up (Algorithm 1 lines 17-19): `leaf`'s records
/// from `sep` up are in `right` now; `path` holds the index nodes the
/// descent visited, root first, and `unpublished` the nodes this attempt
/// has allocated.
pub struct Split<'a, 't, V, const F: usize> {
    tree: &'t HtmTree<V, F>,
    leaf: &'t Leaf<F>,
    right: &'t Leaf<F>,
    sep: u64,
    path: &'a mut Vec<&'t IndexNode<F>>,
    unpublished: &'a mut Unpublished,
}

/// HTM-B+Tree's policy: no version words, and a split climbs the
/// descent's path stack.
pub struct NoVersions;

impl<const F: usize> Versions<F> for NoVersions {
    const NAME: &'static str = "HTM-B+Tree";

    fn climb(tx: &mut Tx<'_>, mut split: Split<'_, '_, Self, F>) -> TxResult<()> {
        let (leaf, sep) = (NodeRef::of_leaf(split.leaf), split.sep);
        let right = NodeRef::of_leaf(split.right);
        promote(tx, &mut split, leaf, sep, right)
    }
}

/// The way up in a tree without parent pointers.
impl<'t, const F: usize> Propagate<'t, Tx<'_>, F> for Split<'_, 't, NoVersions, F> {
    fn parent_of(&mut self, _: &mut Tx<'_>, _: NodeRef) -> TxResult<Option<&'t IndexNode<F>>> {
        Ok(self.path.pop())
    }

    fn new_index(&mut self, _: &mut Tx<'_>) -> &'t IndexNode<F> {
        let tree = self.tree;
        tree.arenas.alloc_index(&tree.rt, self.unpublished)
    }

    fn grow_root(&mut self, tx: &mut Tx<'_>, _: NodeRef, sep: u64, right: NodeRef) -> TxResult<()> {
        let ctrl = &self.tree.ctrl;
        let old_root = NodeRef(tx.read(&ctrl.root)?);
        let root = self.new_index(tx);
        root.init_root(tx, old_root, sep, right)?;
        tx.write(&ctrl.root, NodeRef::of_index(root).0)
    }
}

/// HTM-Masstree's policy: Masstree's version words, read and bumped
/// inside the region, its per-node and per-probe work, and a split that
/// climbs by parent pointer.
pub struct MasstreeVersions;

impl Versions<DEFAULT_FANOUT> for MasstreeVersions {
    const NAME: &'static str = "HTM-Masstree";

    /// Read the node's version word transactionally — the lock-subsumption
    /// step: it joins the read set, and a locked version (a concurrent
    /// fallback-path writer) forces an explicit abort, like hardware lock
    /// elision checking the elided lock. Then, before a search, the work
    /// of entering a Masstree node.
    fn enter(tx: &mut Tx<'_>, version: &TxCell<u64>, search: bool) -> TxResult<()> {
        if tx.read(version)? & LOCK_BIT != 0 {
            return tx.explicit_abort(0x10);
        }
        if search {
            node_visit_overhead(tx.ctx());
        }
        Ok(())
    }

    fn probe(tx: &mut Tx<'_>) {
        permutation_decode(tx.ctx());
    }

    /// Transactional version-counter bump — the shared-metadata write that
    /// makes this design abort-prone.
    fn bump(tx: &mut Tx<'_>, version: &TxCell<u64>, inserted: bool, split: bool) -> TxResult<()> {
        let mut next = tx.read(version)?;
        if inserted {
            next = next.wrapping_add(VINSERT_UNIT);
        }
        if split {
            next = next.wrapping_add(VSPLIT_UNIT);
        }
        tx.write(version, next)
    }

    /// The new leaf hangs under the old one's parent, and the old one's
    /// split counter moves; then the way up goes by parent pointer, with
    /// the version bumps the elided locks' unlocks would have made.
    fn climb(tx: &mut Tx<'_>, split: Split<'_, '_, Self, DEFAULT_FANOUT>) -> TxResult<()> {
        let (tree, leaf, right) = (split.tree, split.leaf, split.right);
        let parent = tx.read(&leaf.parent)?;
        tx.write(&right.parent, parent)?;
        Self::bump(tx, &leaf.version, false, true)?;
        let mut climb = Linked {
            nodes: tree.nodes(),
            arenas: &tree.arenas,
            rt: &tree.rt,
            root: &tree.ctrl.root,
            unpublished: split.unpublished,
            changed: |tx: &mut Tx<'_>, node: &IndexNode<DEFAULT_FANOUT>, split| {
                Self::bump(tx, &node.version, true, split)
            },
        };
        let (leaf, right) = (NodeRef::of_leaf(leaf), NodeRef::of_leaf(right));
        promote(tx, &mut climb, leaf, split.sep, right)
    }
}

impl<V: Versions<F>, const F: usize> HtmTree<V, F> {
    pub fn new(rt: Arc<Runtime>) -> Self {
        assert!(
            F >= 4 && F.is_multiple_of(2),
            "fanout must be an even number ≥ 4"
        );
        let (ctrl, arenas) = empty_tree(&rt);
        HtmTree {
            rt,
            ctrl,
            arenas,
            versions: PhantomData,
        }
    }

    /// Root-to-leaf descent, entering every node on the way and pushing
    /// the index nodes it visits on `path`; with `search`, the leaf's slot
    /// holding `key` too, if it is there.
    fn descend<'t>(
        &'t self,
        tx: &mut Tx<'_>,
        key: u64,
        search: bool,
        mut path: Option<&mut Vec<&'t IndexNode<F>>>,
    ) -> TxResult<(&'t Leaf<F>, Option<usize>)> {
        let nodes = self.nodes();
        let mut cur = NodeRef(tx.read(&self.ctrl.root)?);
        while !cur.is_leaf() {
            let node = nodes.index_node(cur);
            V::enter(tx, &node.version, true)?;
            if let Some(p) = path.as_deref_mut() {
                p.push(node);
            }
            let cnt = tx.read(&node.count)? as usize;
            let taken = upper_bound(cnt, key, |i| {
                V::probe(tx);
                tx.read(&node.keys[i])
            })?;
            cur = NodeRef(tx.read(node.child(taken))?);
        }
        let leaf = nodes.leaf(cur);
        V::enter(tx, &leaf.version, search)?;
        let slot = if search {
            leaf.find(tx, key, V::probe)?
        } else {
            None
        };
        Ok((leaf, slot))
    }

    /// Split a full leaf; returns the leaf that should receive `key`.
    fn split_leaf<'t>(
        &'t self,
        tx: &mut Tx<'_>,
        leaf: &'t Leaf<F>,
        key: u64,
        path: &mut Vec<&'t IndexNode<F>>,
        unpublished: &mut Unpublished,
    ) -> TxResult<&'t Leaf<F>> {
        let right: &'t Leaf<F> = self.arenas.leaves.alloc(Leaf::empty());
        right.register(&self.rt);
        unpublished.push(NodeRef::of_leaf(right));
        let sep = leaf.split_into(tx, right)?;
        let split = Split {
            tree: self,
            leaf,
            right,
            sep,
            path,
            unpublished,
        };
        V::climb(tx, split)?;
        Ok(if key < sep { leaf } else { right })
    }

    /// The root, by a plain load (quiescent tree).
    pub fn root_plain(&self) -> NodeRef {
        NodeRef(self.ctrl.root.load_plain())
    }

    /// The guard this tree's nodes are read through, as long as it lives.
    pub fn nodes(&self) -> Guard<'_, F> {
        self.arenas.until_drop()
    }
}

impl<V: Versions<F>, const F: usize> ConcurrentMap for HtmTree<V, F> {
    fn get(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        ctx.htm_execute(&self.ctrl.fallback, &RetryPolicy::DBX, |tx| {
            tx.set_op_key(key);
            match self.descend(tx, key, true, None)? {
                (leaf, Some(i)) => {
                    let v = tx.read(&leaf.vals[i])?;
                    Ok((v != TOMBSTONE).then_some(v))
                }
                (_, None) => Ok(None),
            }
        })
        .value
    }

    fn put(&self, ctx: &mut ThreadCtx, key: u64, value: u64) -> Option<u64> {
        assert!(key < KEY_SENTINEL && value != TOMBSTONE);
        // Carried across the region's attempts: the path's storage, and
        // the nodes the last attempt allocated (handed back by the next).
        let (mut path, mut unpublished) = (Vec::with_capacity(8), Unpublished::default());
        ctx.htm_execute(&self.ctrl.fallback, &RetryPolicy::DBX, |tx| {
            self.arenas.hand_back(&self.rt, &mut unpublished);
            path.clear();
            tx.set_op_key(key);
            let (leaf, slot) = self.descend(tx, key, true, Some(&mut path))?;
            if let Some(i) = slot {
                let old = tx.read(&leaf.vals[i])?;
                tx.write(&leaf.vals[i], value)?;
                return Ok((old != TOMBSTONE).then_some(old));
            }
            let cnt = tx.read(&leaf.count)? as usize;
            let target = if cnt == F {
                self.split_leaf(tx, leaf, key, &mut path, &mut unpublished)?
            } else {
                leaf
            };
            target.insert(tx, key, value)?;
            V::bump(tx, &target.version, true, false)?;
            Ok(None)
        })
        .value
    }

    fn delete(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        ctx.htm_execute(&self.ctrl.fallback, &RetryPolicy::DBX, |tx| {
            tx.set_op_key(key);
            match self.descend(tx, key, true, None)? {
                (leaf, Some(i)) => {
                    let old = tx.read(&leaf.vals[i])?;
                    if old == TOMBSTONE {
                        return Ok(None);
                    }
                    tx.write(&leaf.vals[i], TOMBSTONE)?;
                    V::bump(tx, &leaf.version, true, false)?;
                    Ok(Some(old))
                }
                (_, None) => Ok(None),
            }
        })
        .value
    }

    fn scan(
        &self,
        ctx: &mut ThreadCtx,
        from: u64,
        count: usize,
        out: &mut Vec<(u64, u64)>,
    ) -> usize {
        // Each attempt starts `out` over from where the scan found it.
        let base = out.len();
        ctx.htm_execute(&self.ctrl.fallback, &RetryPolicy::DBX, |tx| {
            out.truncate(base);
            tx.set_op_key(from);
            let (leaf, _) = self.descend(tx, from, false, None)?;
            leaf.collect(self.nodes(), tx, from, base.saturating_add(count), out)
        });
        out.len() - base
    }

    fn name(&self) -> &'static str {
        V::NAME
    }

    fn memory(&self) -> MemoryReport {
        MemoryReport {
            structural_bytes: self.arenas.live_bytes(),
            ..MemoryReport::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// Every case runs on both trees, HTM-B+Tree first.
    macro_rules! on_both_trees {
        ($($case:ident),* $(,)?) => {$(
            #[test]
            fn $case() {
                cases::$case::<NoVersions>();
                cases::$case::<MasstreeVersions>();
            }
        )*};
    }

    on_both_trees!(
        put_get_roundtrip,
        splits_preserve_all_keys,
        descending_inserts,
        delete_then_reinsert,
        scan_returns_sorted_live_records,
        scan_across_leaf_boundaries_and_tail,
        matches_btreemap_model,
        concurrent_threads_preserve_all_inserts,
        hot_leaf_contention_aborts_in_virtual_time,
        basic_roundtrip_and_splits,
        matches_model,
        version_bumps_cause_reader_aborts_under_overlap,
        concurrent_inserts_no_lost_updates,
    );

    mod cases {
        use super::*;

        type Tree<V> = HtmTree<V, 16>;

        fn tree<V: Versions<16>>() -> (Arc<Runtime>, Tree<V>, ThreadCtx) {
            let rt = Runtime::new_virtual();
            let t = Tree::<V>::new(Arc::clone(&rt));
            let ctx = rt.thread(1);
            (rt, t, ctx)
        }

        fn xorshift(mut state: u64) -> impl FnMut() -> u64 {
            move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            }
        }

        pub fn put_get_roundtrip<V: Versions<16>>() {
            let (_rt, t, mut ctx) = tree::<V>();
            assert_eq!(t.get(&mut ctx, 5), None);
            assert_eq!(t.put(&mut ctx, 5, 50), None);
            assert_eq!(t.get(&mut ctx, 5), Some(50));
            assert_eq!(t.put(&mut ctx, 5, 51), Some(50));
            assert_eq!(t.get(&mut ctx, 5), Some(51));
        }

        pub fn splits_preserve_all_keys<V: Versions<16>>() {
            let (_rt, t, mut ctx) = tree::<V>();
            let n = 5_000u64;
            for k in 0..n {
                t.put(&mut ctx, k * 7 % n, k * 7 % n + 1);
            }
            for k in 0..n {
                assert_eq!(t.get(&mut ctx, k), Some(k + 1), "key {k}");
            }
            let mut depth = 0;
            let mut cur = t.root_plain();
            while !cur.is_leaf() {
                cur = NodeRef(t.nodes().index_node(cur).child0.load_plain());
                depth += 1;
            }
            assert!(depth >= 2, "tree must have grown levels");
        }

        pub fn descending_inserts<V: Versions<16>>() {
            let (_rt, t, mut ctx) = tree::<V>();
            for k in (0..2_000u64).rev() {
                t.put(&mut ctx, k, k);
            }
            for k in 0..2_000u64 {
                assert_eq!(t.get(&mut ctx, k), Some(k));
            }
        }

        pub fn delete_then_reinsert<V: Versions<16>>() {
            let (_rt, t, mut ctx) = tree::<V>();
            t.put(&mut ctx, 10, 1);
            assert_eq!(t.delete(&mut ctx, 10), Some(1));
            assert_eq!(t.get(&mut ctx, 10), None);
            assert_eq!(t.delete(&mut ctx, 10), None, "double delete is a miss");
            assert_eq!(t.put(&mut ctx, 10, 2), None, "reinsert after delete");
            assert_eq!(t.get(&mut ctx, 10), Some(2));
        }

        pub fn scan_returns_sorted_live_records<V: Versions<16>>() {
            let (_rt, t, mut ctx) = tree::<V>();
            for k in 0..300u64 {
                t.put(&mut ctx, k, k * 10);
            }
            t.delete(&mut ctx, 105);
            let mut out = Vec::new();
            let n = t.scan(&mut ctx, 100, 10, &mut out);
            assert_eq!(n, 10);
            let keys: Vec<u64> = out.iter().map(|(k, _)| *k).collect();
            assert_eq!(keys, vec![100, 101, 102, 103, 104, 106, 107, 108, 109, 110]);
            assert!(out.iter().all(|(k, v)| *v == k * 10));
        }

        pub fn scan_across_leaf_boundaries_and_tail<V: Versions<16>>() {
            let (_rt, t, mut ctx) = tree::<V>();
            for k in 0..100u64 {
                t.put(&mut ctx, k, k);
            }
            let mut out = Vec::new();
            // Ask for more than remain: get the tail only.
            let n = t.scan(&mut ctx, 90, 50, &mut out);
            assert_eq!(n, 10);
            assert_eq!(out.first().unwrap().0, 90);
            assert_eq!(out.last().unwrap().0, 99);
        }

        pub fn matches_btreemap_model<V: Versions<16>>() {
            let (_rt, t, mut ctx) = tree::<V>();
            let mut model = BTreeMap::new();
            let mut rnd = xorshift(88172645463325252);
            for _ in 0..20_000 {
                let key = rnd() % 500;
                match rnd() % 10 {
                    0..=4 => {
                        let v = rnd() % 1_000_000;
                        assert_eq!(t.put(&mut ctx, key, v), model.insert(key, v));
                    }
                    5..=6 => {
                        assert_eq!(t.delete(&mut ctx, key), model.remove(&key));
                    }
                    _ => {
                        assert_eq!(t.get(&mut ctx, key), model.get(&key).copied());
                    }
                }
            }
            // Final full scan agrees with the model.
            let mut out = Vec::new();
            t.scan(&mut ctx, 0, usize::MAX, &mut out);
            let expect: Vec<(u64, u64)> = model.into_iter().collect();
            assert_eq!(out, expect);
        }

        pub fn concurrent_threads_preserve_all_inserts<V: Versions<16>>() {
            let rt = Runtime::new_concurrent();
            let t = Tree::<V>::new(Arc::clone(&rt));
            let per = 500u64;
            let threads = 4u64;
            std::thread::scope(|s| {
                for tid in 0..threads {
                    let t = &t;
                    let mut ctx = rt.thread(tid);
                    s.spawn(move || {
                        for i in 0..per {
                            let key = tid * per + i;
                            t.put(&mut ctx, key, key + 1);
                        }
                    });
                }
            });
            let mut ctx = rt.thread(99);
            for key in 0..threads * per {
                assert_eq!(t.get(&mut ctx, key), Some(key + 1), "key {key}");
            }
        }

        pub fn hot_leaf_contention_aborts_in_virtual_time<V: Versions<16>>() {
            // Interleave 8 logical threads by always advancing the one with
            // the smallest virtual clock (what euno-sim's scheduler does);
            // updates to one leaf must overlap in virtual time and conflict.
            let rt = Runtime::new_virtual();
            let t = Tree::<V>::new(Arc::clone(&rt));
            {
                let mut ctx = rt.thread(0);
                for k in 0..8u64 {
                    t.put(&mut ctx, k, 0);
                }
            }
            rt.reset_dynamics();
            let mut ctxs: Vec<ThreadCtx> = (1..=8).map(|i| rt.thread(i)).collect();
            for round in 0..400u64 {
                let idx = (0..ctxs.len()).min_by_key(|&i| (ctxs[i].clock, i)).unwrap();
                t.put(&mut ctxs[idx], round % 8, round);
            }
            let aborts: u64 = ctxs.iter().map(|c| c.stats.aborts.total()).sum();
            assert!(aborts > 0, "8 threads updating one leaf must conflict");
            // And the structure stayed correct throughout.
            let mut ctx = rt.thread(99);
            for k in 0..8u64 {
                assert!(t.get(&mut ctx, k).is_some());
            }
        }

        pub fn basic_roundtrip_and_splits<V: Versions<16>>() {
            let (_rt, t, mut ctx) = tree::<V>();
            for k in 0..3_000u64 {
                t.put(&mut ctx, (k * 11) % 3_000, k);
            }
            for k in 0..3_000u64 {
                assert!(t.get(&mut ctx, k).is_some(), "key {k}");
            }
        }

        pub fn matches_model<V: Versions<16>>() {
            let (_rt, t, mut ctx) = tree::<V>();
            let mut model = BTreeMap::new();
            let mut rnd = xorshift(0xD1B54A32D192ED03);
            for _ in 0..15_000 {
                let key = rnd() % 400;
                match rnd() % 10 {
                    0..=4 => {
                        let v = rnd() % 100_000;
                        assert_eq!(t.put(&mut ctx, key, v), model.insert(key, v));
                    }
                    5..=6 => assert_eq!(t.delete(&mut ctx, key), model.remove(&key)),
                    _ => assert_eq!(t.get(&mut ctx, key), model.get(&key).copied()),
                }
            }
            let mut out = Vec::new();
            t.scan(&mut ctx, 0, usize::MAX, &mut out);
            assert_eq!(out, model.into_iter().collect::<Vec<_>>());
        }

        pub fn version_bumps_cause_reader_aborts_under_overlap<V: Versions<16>>() {
            // The defining pathology: an overlapping reader and writer of the
            // same node conflict on the version word even when they touch
            // different records. (HTM-B+Tree, without version words, meets
            // the writer's `count` and index-node writes instead.)
            let rt = Runtime::new_virtual();
            let t = Tree::<V>::new(Arc::clone(&rt));
            {
                let mut ctx = rt.thread(0);
                for k in 0..8u64 {
                    t.put(&mut ctx, k, k);
                }
            }
            rt.reset_dynamics();
            let mut ctxs: Vec<ThreadCtx> = (1..=6).map(|i| rt.thread(i)).collect();
            for round in 0..600u64 {
                let idx = (0..ctxs.len()).min_by_key(|&i| (ctxs[i].clock, i)).unwrap();
                if idx % 2 == 0 {
                    // Writer repeatedly inserts fresh keys (bumps versions).
                    t.put(&mut ctxs[idx], 1_000 + round, round);
                } else {
                    // Reader touches a *different* existing key.
                    t.get(&mut ctxs[idx], round % 8);
                }
            }
            let aborts: u64 = ctxs.iter().map(|c| c.stats.aborts.total()).sum();
            assert!(aborts > 0, "version-word sharing must abort transactions");
        }

        pub fn concurrent_inserts_no_lost_updates<V: Versions<16>>() {
            let rt = Runtime::new_concurrent();
            let t = Tree::<V>::new(Arc::clone(&rt));
            let per = 300u64;
            std::thread::scope(|s| {
                for tid in 0..4u64 {
                    let t = &t;
                    let mut ctx = rt.thread(tid);
                    s.spawn(move || {
                        for i in 0..per {
                            let key = tid * per + i;
                            t.put(&mut ctx, key, key + 1);
                        }
                    });
                }
            });
            let mut ctx = rt.thread(9);
            for key in 0..4 * per {
                assert_eq!(t.get(&mut ctx, key), Some(key + 1), "key {key}");
            }
        }
    }
}
