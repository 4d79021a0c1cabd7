//! HTM-Masstree: the Masstree structure with every operation wrapped in
//! one monolithic HTM region that subsumes its fine-grained locks (§5.1
//! comparator (3)).
//!
//! The paper's finding: this performs *worse* than lock-based Masstree at
//! every contention level, "because HTM-based Masstree has shared variable
//! accesses which incurs frequent HTM aborts" — the per-node version
//! words that make the optimistic protocol work become transactional
//! read/write-set members, so every writer's counter bump aborts every
//! overlapping reader of that node. "Even for a highly optimized
//! concurrent B+Tree, it is still hard to directly take advantage of
//! HTM."
//!
//! Inside the region no locks are taken (elision): the transaction reads
//! each traversed node's version word (subscribing to it — a concurrent
//! non-transactional lock acquisition or counter bump aborts us) and
//! writers bump the counters transactionally, exactly what naive lock
//! subsumption produces.

use std::sync::Arc;

use euno_htm::bptree::{promote, upper_bound, Linked};
use euno_htm::{
    ConcurrentMap, IndexNode, MemoryReport, NodeArenas, NodeRef, RetryPolicy, Runtime, ThreadCtx,
    Tx, TxCell, TxResult, KEY_SENTINEL, TOMBSTONE,
};

use crate::masstree::{
    node_visit_overhead, permutation_decode, version_of, MtLeaf, F, LOCK_BIT, VINSERT_UNIT,
    VSPLIT_UNIT,
};
use crate::node::{empty_tree, Leaf};

/// Masstree with whole-operation HTM regions subsuming its locks.
pub struct HtmMasstree {
    rt: Arc<Runtime>,
    ctrl: Box<euno_htm::ControlBlock>,
    arenas: NodeArenas<MtLeaf, F>,
}

impl HtmMasstree {
    pub fn new(rt: Arc<Runtime>) -> Self {
        let (ctrl, arenas) = empty_tree(&rt);
        HtmMasstree { rt, ctrl, arenas }
    }

    /// The root, by a plain load (quiescent tree).
    pub fn root_plain(&self) -> NodeRef {
        NodeRef(self.ctrl.root.load_plain())
    }

    /// Read a node's version word transactionally — the lock-subsumption
    /// step: joins the read set, and a locked version (a concurrent
    /// fallback-path writer) forces an explicit abort, like hardware lock
    /// elision checking the elided lock.
    fn subscribe_version(tx: &mut Tx<'_>, cell: &TxCell<u64>) -> TxResult<u64> {
        let v = tx.read(cell)?;
        if v & LOCK_BIT != 0 {
            return tx.explicit_abort(0x10);
        }
        Ok(v)
    }

    fn descend<'t>(&'t self, tx: &mut Tx<'_>, key: u64) -> TxResult<&'t MtLeaf> {
        let mut cur = NodeRef(tx.read(&self.ctrl.root)?);
        loop {
            Self::subscribe_version(tx, unsafe { version_of(cur) })?;
            if cur.is_leaf() {
                return Ok(unsafe { cur.as_leaf() });
            }
            let int = unsafe { cur.as_index::<F>() };
            node_visit_overhead(tx.ctx());
            let cnt = tx.read(&int.count)? as usize;
            let taken = upper_bound(cnt, key, |i| {
                permutation_decode(tx.ctx());
                tx.read(&int.keys[i])
            })?;
            cur = NodeRef(tx.read(int.child(taken))?);
        }
    }

    fn leaf_find(&self, tx: &mut Tx<'_>, leaf: &MtLeaf, key: u64) -> TxResult<Option<usize>> {
        node_visit_overhead(tx.ctx());
        leaf.find(tx, key, |tx| permutation_decode(tx.ctx()))
    }

    /// Transactional version-counter bump — the shared-metadata write that
    /// makes this design abort-prone.
    fn bump(tx: &mut Tx<'_>, cell: &TxCell<u64>, inserted: bool, split: bool) -> TxResult<()> {
        let v = tx.read(cell)?;
        let mut next = v;
        if inserted {
            next = next.wrapping_add(VINSERT_UNIT);
        }
        if split {
            next = next.wrapping_add(VSPLIT_UNIT);
        }
        tx.write(cell, next)
    }

    fn split_leaf<'t>(
        &'t self,
        tx: &mut Tx<'_>,
        leaf: &'t MtLeaf,
        key: u64,
        unpublished: &mut Vec<NodeRef>,
    ) -> TxResult<&'t MtLeaf> {
        let right: &MtLeaf = self.arenas.leaves.alloc(Leaf::empty());
        right.register(&self.rt);
        let (left_ref, right_ref) = (NodeRef::of_leaf(leaf), NodeRef::of_leaf(right));
        unpublished.push(right_ref);
        let sep = leaf.split_into(tx, right)?;
        let parent_bits = tx.read(&leaf.parent)?;
        tx.write(&right.parent, parent_bits)?;
        Self::bump(tx, &leaf.version, false, true)?;
        // The way up goes by parent pointer, with the version bumps the
        // elided locks' unlocks would have made.
        let mut climb = Linked {
            arenas: &self.arenas,
            rt: &self.rt,
            root: &self.ctrl.root,
            unpublished,
            changed: |tx: &mut Tx<'_>, node: &IndexNode<F>, split| {
                Self::bump(tx, &node.version, true, split)
            },
        };
        promote(tx, &mut climb, left_ref, sep, right_ref)?;
        Ok(if key < sep { leaf } else { right })
    }
}

impl ConcurrentMap for HtmMasstree {
    fn get(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        ctx.htm_execute(&self.ctrl.fallback, &RetryPolicy::DBX, |tx| {
            tx.set_op_key(key);
            let leaf = self.descend(tx, key)?;
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
        // The nodes the region's last attempt allocated, handed back by
        // the next.
        let mut unpublished = Vec::new();
        ctx.htm_execute(&self.ctrl.fallback, &RetryPolicy::DBX, |tx| {
            self.arenas.hand_back(&self.rt, &mut unpublished);
            tx.set_op_key(key);
            let leaf = self.descend(tx, key)?;
            if let Some(i) = self.leaf_find(tx, leaf, key)? {
                let old = tx.read(&leaf.vals[i])?;
                tx.write(&leaf.vals[i], value)?;
                return Ok((old != TOMBSTONE).then_some(old));
            }
            let cnt = tx.read(&leaf.count)? as usize;
            let target = if cnt == F {
                self.split_leaf(tx, leaf, key, &mut unpublished)?
            } else {
                leaf
            };
            target.insert(tx, key, value)?;
            Self::bump(tx, &target.version, true, false)?;
            Ok(None)
        })
        .value
    }

    fn delete(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        ctx.htm_execute(&self.ctrl.fallback, &RetryPolicy::DBX, |tx| {
            tx.set_op_key(key);
            let leaf = self.descend(tx, key)?;
            match self.leaf_find(tx, leaf, key)? {
                Some(i) => {
                    let old = tx.read(&leaf.vals[i])?;
                    if old == TOMBSTONE {
                        return Ok(None);
                    }
                    tx.write(&leaf.vals[i], TOMBSTONE)?;
                    Self::bump(tx, &leaf.version, true, false)?;
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
            let leaf = self.descend(tx, from)?;
            leaf.collect(tx, from, base.saturating_add(count), out)
        });
        out.len() - base
    }

    fn name(&self) -> &'static str {
        "HTM-Masstree"
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

    fn tree() -> (Arc<Runtime>, HtmMasstree, ThreadCtx) {
        let rt = Runtime::new_virtual();
        let t = HtmMasstree::new(Arc::clone(&rt));
        let ctx = rt.thread(1);
        (rt, t, ctx)
    }

    #[test]
    fn basic_roundtrip_and_splits() {
        let (_rt, t, mut ctx) = tree();
        for k in 0..3_000u64 {
            t.put(&mut ctx, (k * 11) % 3_000, k);
        }
        for k in 0..3_000u64 {
            assert!(t.get(&mut ctx, k).is_some(), "key {k}");
        }
    }

    #[test]
    fn matches_model() {
        let (_rt, t, mut ctx) = tree();
        let mut model = BTreeMap::new();
        let mut s = 0xD1B54A32D192ED03u64;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
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

    #[test]
    fn version_bumps_cause_reader_aborts_under_overlap() {
        // The defining pathology: an overlapping reader and writer of the
        // same node conflict on the version word even when they touch
        // different records.
        let rt = Runtime::new_virtual();
        let t = HtmMasstree::new(Arc::clone(&rt));
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

    #[test]
    fn concurrent_inserts_no_lost_updates() {
        let rt = Runtime::new_concurrent();
        let t = HtmMasstree::new(Arc::clone(&rt));
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
