//! The conventional HTM-B+Tree (Algorithm 1): one monolithic RTM region
//! per operation.
//!
//! This is the design the paper analyses and attacks — a textbook B+Tree
//! whose get/put/delete/scan each run, start to finish (root-to-leaf
//! traversal, leaf access, split propagation), inside a single HTM region
//! with a DBX-style retry policy and global-lock fallback. It is simple
//! and fast under low contention, and collapses under high contention for
//! the three reasons of §2.3: whole-operation retry cost, false conflicts
//! from the consecutive sorted layout and shared `count` metadata, and
//! true conflicts on hot records.

use std::sync::Arc;

use euno_htm::bptree::{promote, upper_bound, Propagate};
use euno_htm::{
    ConcurrentMap, IndexNode, MemoryReport, NodeArenas, NodeRef, RetryPolicy, Runtime, ThreadCtx,
    Tx, TxResult, TxWord, KEY_SENTINEL, TOMBSTONE,
};

use crate::node::{empty_tree, Leaf, DEFAULT_FANOUT};

/// A B+Tree protected by one monolithic HTM region per operation.
pub struct HtmBTree<const F: usize = DEFAULT_FANOUT> {
    rt: Arc<Runtime>,
    ctrl: Box<euno_htm::ControlBlock>,
    arenas: NodeArenas<Leaf<F>, F>,
}

/// A split's way up (Algorithm 1 lines 17-19) in a tree without parent
/// pointers: the index nodes the descent visited, root first, and the
/// list of nodes this attempt has allocated.
struct Climb<'a, 't, const F: usize> {
    tree: &'t HtmBTree<F>,
    path: &'a mut Vec<&'t IndexNode<F>>,
    unpublished: &'a mut Vec<NodeRef>,
}

impl<'t, const F: usize> Propagate<'t, Tx<'_>, F> for Climb<'_, 't, F> {
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

impl<const F: usize> HtmBTree<F> {
    pub fn new(rt: Arc<Runtime>) -> Self {
        assert!(
            F >= 4 && F.is_multiple_of(2),
            "fanout must be an even number ≥ 4"
        );
        let (ctrl, arenas) = empty_tree(&rt);
        HtmBTree { rt, ctrl, arenas }
    }

    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.rt
    }

    // ---------- in-transaction helpers ----------

    /// Root-to-leaf descent; pushes visited internal nodes on `path`.
    fn descend<'t>(
        &'t self,
        tx: &mut Tx<'_>,
        key: u64,
        mut path: Option<&mut Vec<&'t IndexNode<F>>>,
    ) -> TxResult<&'t Leaf<F>> {
        let mut cur = NodeRef(tx.read(&self.ctrl.root)?);
        while !cur.is_leaf() {
            // Safety: nodes live as long as the tree (deferred reclamation).
            let node: &'t IndexNode<F> = unsafe { cur.as_index::<F>() };
            if let Some(p) = path.as_deref_mut() {
                p.push(node);
            }
            let cnt = tx.read(&node.count)? as usize;
            let taken = upper_bound(cnt, key, |i| tx.read(&node.keys[i]))?;
            cur = NodeRef(tx.read(node.child(taken))?);
        }
        Ok(unsafe { cur.as_leaf::<Leaf<F>>() })
    }

    /// Split a full leaf; returns the leaf that should receive `key`.
    fn split_leaf<'t>(
        &'t self,
        tx: &mut Tx<'_>,
        leaf: &'t Leaf<F>,
        mut climb: Climb<'_, 't, F>,
        key: u64,
    ) -> TxResult<&'t Leaf<F>> {
        let new: &'t Leaf<F> = self.arenas.leaves.alloc(Leaf::empty());
        new.register(&self.rt);
        let (left, right) = (NodeRef::of_leaf(leaf), NodeRef::of_leaf(new));
        climb.unpublished.push(right);
        let sep = leaf.split_into(tx, new)?;
        promote(tx, &mut climb, left, sep, right)?;
        Ok(if key < sep { leaf } else { new })
    }

    /// The root, by a plain load (quiescent tree).
    pub fn root_plain(&self) -> NodeRef {
        NodeRef(self.ctrl.root.load_plain())
    }

    /// Depth of the tree (levels of internal nodes above the leaves).
    pub fn depth_plain(&self) -> usize {
        let mut d = 0;
        let mut cur = NodeRef::from_word(self.ctrl.root.load_plain());
        while !cur.is_leaf() {
            let n = unsafe { cur.as_index::<F>() };
            cur = NodeRef::from_word(n.child0.load_plain());
            d += 1;
        }
        d
    }
}

impl<const F: usize> ConcurrentMap for HtmBTree<F> {
    fn get(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        ctx.htm_execute(&self.ctrl.fallback, &RetryPolicy::DBX, |tx| {
            tx.set_op_key(key);
            let leaf = self.descend(tx, key, None)?;
            match leaf.find(tx, key, |_| {})? {
                Some(i) => {
                    let v = tx.read(&leaf.vals[i])?;
                    Ok((v != TOMBSTONE).then_some(v))
                }
                None => Ok(None),
            }
        })
        .value
    }

    fn put(&self, ctx: &mut ThreadCtx, key: u64, value: u64) -> Option<u64> {
        assert!(key < KEY_SENTINEL && value != TOMBSTONE);
        // Carried across the region's attempts: the path's storage, and
        // the nodes the last attempt allocated (handed back by the next).
        let (mut path, mut unpublished) = (Vec::with_capacity(8), Vec::new());
        ctx.htm_execute(&self.ctrl.fallback, &RetryPolicy::DBX, |tx| {
            self.arenas.hand_back(&self.rt, &mut unpublished);
            path.clear();
            tx.set_op_key(key);
            let leaf = self.descend(tx, key, Some(&mut path))?;
            if let Some(i) = leaf.find(tx, key, |_| {})? {
                let old = tx.read(&leaf.vals[i])?;
                tx.write(&leaf.vals[i], value)?;
                return Ok((old != TOMBSTONE).then_some(old));
            }
            let cnt = tx.read(&leaf.count)? as usize;
            let target = if cnt == F {
                let climb = Climb {
                    tree: self,
                    path: &mut path,
                    unpublished: &mut unpublished,
                };
                self.split_leaf(tx, leaf, climb, key)?
            } else {
                leaf
            };
            target.insert(tx, key, value)?;
            Ok(None)
        })
        .value
    }

    fn delete(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        ctx.htm_execute(&self.ctrl.fallback, &RetryPolicy::DBX, |tx| {
            tx.set_op_key(key);
            let leaf = self.descend(tx, key, None)?;
            match leaf.find(tx, key, |_| {})? {
                Some(i) => {
                    let old = tx.read(&leaf.vals[i])?;
                    if old == TOMBSTONE {
                        return Ok(None);
                    }
                    tx.write(&leaf.vals[i], TOMBSTONE)?;
                    Ok(Some(old))
                }
                None => Ok(None),
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
            let leaf = self.descend(tx, from, None)?;
            leaf.collect(tx, from, base.saturating_add(count), out)
        });
        out.len() - base
    }

    fn name(&self) -> &'static str {
        "HTM-B+Tree"
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

    fn tree() -> (Arc<Runtime>, HtmBTree<16>, ThreadCtx) {
        let rt = Runtime::new_virtual();
        let t = HtmBTree::new(Arc::clone(&rt));
        let ctx = rt.thread(1);
        (rt, t, ctx)
    }

    #[test]
    fn put_get_roundtrip() {
        let (_rt, t, mut ctx) = tree();
        assert_eq!(t.get(&mut ctx, 5), None);
        assert_eq!(t.put(&mut ctx, 5, 50), None);
        assert_eq!(t.get(&mut ctx, 5), Some(50));
        assert_eq!(t.put(&mut ctx, 5, 51), Some(50));
        assert_eq!(t.get(&mut ctx, 5), Some(51));
    }

    #[test]
    fn splits_preserve_all_keys() {
        let (_rt, t, mut ctx) = tree();
        let n = 5_000u64;
        for k in 0..n {
            t.put(&mut ctx, k * 7 % n, k * 7 % n + 1);
        }
        for k in 0..n {
            assert_eq!(t.get(&mut ctx, k), Some(k + 1), "key {k}");
        }
        assert!(t.depth_plain() >= 2, "tree must have grown levels");
    }

    #[test]
    fn descending_inserts() {
        let (_rt, t, mut ctx) = tree();
        for k in (0..2_000u64).rev() {
            t.put(&mut ctx, k, k);
        }
        for k in 0..2_000u64 {
            assert_eq!(t.get(&mut ctx, k), Some(k));
        }
    }

    #[test]
    fn delete_then_reinsert() {
        let (_rt, t, mut ctx) = tree();
        t.put(&mut ctx, 10, 1);
        assert_eq!(t.delete(&mut ctx, 10), Some(1));
        assert_eq!(t.get(&mut ctx, 10), None);
        assert_eq!(t.delete(&mut ctx, 10), None, "double delete is a miss");
        assert_eq!(t.put(&mut ctx, 10, 2), None, "reinsert after delete");
        assert_eq!(t.get(&mut ctx, 10), Some(2));
    }

    #[test]
    fn scan_returns_sorted_live_records() {
        let (_rt, t, mut ctx) = tree();
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

    #[test]
    fn scan_across_leaf_boundaries_and_tail() {
        let (_rt, t, mut ctx) = tree();
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

    #[test]
    fn matches_btreemap_model() {
        let (_rt, t, mut ctx) = tree();
        let mut model = BTreeMap::new();
        let mut state = 88172645463325252u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
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

    #[test]
    fn concurrent_threads_preserve_all_inserts() {
        let rt = Runtime::new_concurrent();
        let t = HtmBTree::<16>::new(Arc::clone(&rt));
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

    #[test]
    fn hot_leaf_contention_aborts_in_virtual_time() {
        // Interleave 8 logical threads by always advancing the one with
        // the smallest virtual clock (what euno-sim's scheduler does);
        // updates to one leaf must overlap in virtual time and conflict.
        let rt = Runtime::new_virtual();
        let t = HtmBTree::<16>::new(Arc::clone(&rt));
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
}
