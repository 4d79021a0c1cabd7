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

use euno_htm::{
    Arena, ConcurrentMap, MemoryReport, RetryPolicy, Runtime, ThreadCtx, Tx, TxResult, TxWord,
    KEY_SENTINEL, TOMBSTONE,
};

use crate::node::{Internal, Leaf, NodeRef, DEFAULT_FANOUT};

/// A B+Tree protected by one monolithic HTM region per operation.
pub struct HtmBTree<const F: usize = DEFAULT_FANOUT> {
    rt: Arc<Runtime>,
    ctrl: Box<euno_htm::ControlBlock>,
    leaves: Arena<Leaf<F>>,
    internals: Arena<Internal<F>>,
}

impl<const F: usize> HtmBTree<F> {
    pub fn new(rt: Arc<Runtime>) -> Self {
        assert!(
            F >= 4 && F.is_multiple_of(2),
            "fanout must be an even number ≥ 4"
        );
        let leaves = Arena::new();
        let internals = Arena::new();
        let first: &Leaf<F> = leaves.alloc(Leaf::empty());
        first.register(&rt);
        let ctrl = euno_htm::ControlBlock::new(NodeRef::of_leaf(first).to_word());
        rt.register_value(&*ctrl, euno_htm::LineClass::Structure);
        HtmBTree {
            rt,
            ctrl,
            leaves,
            internals,
        }
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
        mut path: Option<&mut Vec<&'t Internal<F>>>,
    ) -> TxResult<&'t Leaf<F>> {
        let mut cur = NodeRef::from_word(tx.read(&self.ctrl.root)?);
        while !cur.is_leaf() {
            // Safety: nodes live as long as the tree (deferred reclamation).
            let node: &'t Internal<F> = unsafe { cur.as_internal::<F>() };
            if let Some(p) = path.as_deref_mut() {
                p.push(node);
            }
            let cnt = tx.read(&node.count)? as usize;
            // Number of separators ≤ key (binary search).
            let (mut lo, mut hi) = (0usize, cnt);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if tx.read(&node.keys[mid])? <= key {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            cur = if lo == 0 {
                NodeRef::from_word(tx.read(&node.child0)?)
            } else {
                NodeRef::from_word(tx.read(&node.children[lo - 1])?)
            };
        }
        Ok(unsafe { cur.as_leaf::<F>() })
    }

    /// Binary search for `key` among the leaf's occupied slots.
    fn leaf_find(&self, tx: &mut Tx<'_>, leaf: &Leaf<F>, key: u64) -> TxResult<Option<usize>> {
        let cnt = tx.read(&leaf.count)? as usize;
        let (mut lo, mut hi) = (0usize, cnt);
        while lo < hi {
            let mid = (lo + hi) / 2;
            let k = tx.read(&leaf.keys[mid])?;
            if k < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < cnt && tx.read(&leaf.keys[lo])? == key {
            Ok(Some(lo))
        } else {
            Ok(None)
        }
    }

    /// Insert `key→val` into a non-full leaf, shifting the tail right —
    /// the consecutive-record data movement of §2.3.
    fn leaf_insert_at(&self, tx: &mut Tx<'_>, leaf: &Leaf<F>, key: u64, val: u64) -> TxResult<()> {
        let cnt = tx.read(&leaf.count)? as usize;
        debug_assert!(cnt < F);
        // Position = lower bound.
        let (mut lo, mut hi) = (0usize, cnt);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if tx.read(&leaf.keys[mid])? < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let mut i = cnt;
        while i > lo {
            let k = tx.read(&leaf.keys[i - 1])?;
            let v = tx.read(&leaf.vals[i - 1])?;
            tx.write(&leaf.keys[i], k)?;
            tx.write(&leaf.vals[i], v)?;
            i -= 1;
        }
        tx.write(&leaf.keys[lo], key)?;
        tx.write(&leaf.vals[lo], val)?;
        tx.write(&leaf.count, (cnt + 1) as u64)?;
        Ok(())
    }

    /// Split a full leaf; returns the leaf that should receive `key`.
    fn split_leaf<'t>(
        &'t self,
        tx: &mut Tx<'_>,
        leaf: &'t Leaf<F>,
        path: &[&'t Internal<F>],
        key: u64,
    ) -> TxResult<&'t Leaf<F>> {
        let new: &'t Leaf<F> = self.leaves.alloc(Leaf::empty());
        new.register(&self.rt);
        let mid = F / 2;
        for i in mid..F {
            let k = tx.read(&leaf.keys[i])?;
            let v = tx.read(&leaf.vals[i])?;
            tx.write(&new.keys[i - mid], k)?;
            tx.write(&new.vals[i - mid], v)?;
        }
        let sep = tx.read(&leaf.keys[mid])?;
        tx.write(&new.count, (F - mid) as u64)?;
        tx.write(&leaf.count, mid as u64)?;
        let old_next = tx.read(&leaf.next)?;
        tx.write(&new.next, old_next)?;
        tx.write(&leaf.next, NodeRef::of_leaf(new).to_word())?;
        self.insert_into_parents(tx, path, sep, NodeRef::of_leaf(new))?;
        Ok(if key < sep { leaf } else { new })
    }

    /// Propagate a split upward (Algorithm 1 lines 17-19).
    fn insert_into_parents(
        &self,
        tx: &mut Tx<'_>,
        path: &[&Internal<F>],
        mut sep: u64,
        mut right: NodeRef,
    ) -> TxResult<()> {
        for parent in path.iter().rev() {
            let cnt = tx.read(&parent.count)? as usize;
            if cnt < F {
                self.internal_insert_at(tx, parent, cnt, sep, right)?;
                return Ok(());
            }
            // Split the full internal node; promote the middle separator.
            let new: &Internal<F> = self.internals.alloc(Internal::empty());
            new.register(&self.rt);
            let mid = F / 2;
            let promoted = tx.read(&parent.keys[mid])?;
            let mid_child = tx.read(&parent.children[mid])?;
            tx.write(&new.child0, mid_child)?;
            for i in mid + 1..F {
                let k = tx.read(&parent.keys[i])?;
                let c = tx.read(&parent.children[i])?;
                tx.write(&new.keys[i - mid - 1], k)?;
                tx.write(&new.children[i - mid - 1], c)?;
            }
            tx.write(&new.count, (F - mid - 1) as u64)?;
            tx.write(&parent.count, mid as u64)?;
            // Insert the pending (sep, right) into the proper half.
            let target = if sep < promoted { *parent } else { new };
            let tcnt = tx.read(&target.count)? as usize;
            self.internal_insert_at(tx, target, tcnt, sep, right)?;
            sep = promoted;
            right = NodeRef::of_internal(new);
        }
        // Split reached the root: grow the tree by one level.
        let old_root = tx.read(&self.ctrl.root)?;
        let new_root: &Internal<F> = self.internals.alloc(Internal::empty());
        new_root.register(&self.rt);
        tx.write(&new_root.child0, old_root)?;
        tx.write(&new_root.keys[0], sep)?;
        tx.write(&new_root.children[0], right.to_word())?;
        tx.write(&new_root.count, 1)?;
        tx.write(&self.ctrl.root, NodeRef::of_internal(new_root).to_word())?;
        Ok(())
    }

    fn internal_insert_at(
        &self,
        tx: &mut Tx<'_>,
        node: &Internal<F>,
        cnt: usize,
        sep: u64,
        right: NodeRef,
    ) -> TxResult<()> {
        debug_assert!(cnt < F);
        let (mut lo, mut hi) = (0usize, cnt);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if tx.read(&node.keys[mid])? < sep {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let mut i = cnt;
        while i > lo {
            let k = tx.read(&node.keys[i - 1])?;
            let c = tx.read(&node.children[i - 1])?;
            tx.write(&node.keys[i], k)?;
            tx.write(&node.children[i], c)?;
            i -= 1;
        }
        tx.write(&node.keys[lo], sep)?;
        tx.write(&node.children[lo], right.to_word())?;
        tx.write(&node.count, (cnt + 1) as u64)?;
        Ok(())
    }

    /// Depth of the tree (levels of internal nodes above the leaves).
    pub fn depth_plain(&self) -> usize {
        let mut d = 0;
        let mut cur = NodeRef::from_word(self.ctrl.root.load_plain());
        while !cur.is_leaf() {
            let n = unsafe { cur.as_internal::<F>() };
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
            match self.leaf_find(tx, leaf, key)? {
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
        ctx.htm_execute(&self.ctrl.fallback, &RetryPolicy::DBX, |tx| {
            tx.set_op_key(key);
            let mut path = Vec::with_capacity(8);
            let leaf = self.descend(tx, key, Some(&mut path))?;
            if let Some(i) = self.leaf_find(tx, leaf, key)? {
                let old = tx.read(&leaf.vals[i])?;
                tx.write(&leaf.vals[i], value)?;
                return Ok((old != TOMBSTONE).then_some(old));
            }
            let cnt = tx.read(&leaf.count)? as usize;
            let target = if cnt == F {
                self.split_leaf(tx, leaf, &path, key)?
            } else {
                leaf
            };
            self.leaf_insert_at(tx, target, key, value)?;
            Ok(None)
        })
        .value
    }

    fn delete(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        ctx.htm_execute(&self.ctrl.fallback, &RetryPolicy::DBX, |tx| {
            tx.set_op_key(key);
            let leaf = self.descend(tx, key, None)?;
            match self.leaf_find(tx, leaf, key)? {
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
        let collected = ctx
            .htm_execute(&self.ctrl.fallback, &RetryPolicy::DBX, |tx| {
                tx.set_op_key(from);
                let mut acc = Vec::with_capacity(count.min(1024));
                let mut leaf = self.descend(tx, from, None)?;
                'outer: loop {
                    let cnt = tx.read(&leaf.count)? as usize;
                    for i in 0..cnt {
                        let k = tx.read(&leaf.keys[i])?;
                        if k < from {
                            continue;
                        }
                        let v = tx.read(&leaf.vals[i])?;
                        if v == TOMBSTONE {
                            continue;
                        }
                        acc.push((k, v));
                        if acc.len() == count {
                            break 'outer;
                        }
                    }
                    let next = NodeRef::from_word(tx.read(&leaf.next)?);
                    if next.is_null() {
                        break;
                    }
                    leaf = unsafe { next.as_leaf::<F>() };
                }
                Ok(acc)
            })
            .value;
        let n = collected.len();
        out.extend(collected);
        n
    }

    fn name(&self) -> &'static str {
        "HTM-B+Tree"
    }

    fn memory(&self) -> MemoryReport {
        MemoryReport {
            structural_bytes: self.leaves.live_bytes() + self.internals.live_bytes(),
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
