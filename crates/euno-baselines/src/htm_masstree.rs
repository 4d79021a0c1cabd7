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

use euno_htm::{
    Arena, ConcurrentMap, MemoryReport, RetryPolicy, Runtime, ThreadCtx, Tx, TxCell, TxResult,
    TxWord, KEY_SENTINEL, TOMBSTONE,
};

use crate::masstree::{
    node_visit_overhead, permutation_decode, MtInternal, MtLeaf, MtRef, LOCK_BIT, VINSERT_UNIT,
    VSPLIT_UNIT,
};
use crate::node::DEFAULT_FANOUT;

const F: usize = DEFAULT_FANOUT;

/// Masstree with whole-operation HTM regions subsuming its locks.
pub struct HtmMasstree {
    rt: Arc<Runtime>,
    ctrl: Box<euno_htm::ControlBlock>,
    leaves: Arena<MtLeaf>,
    internals: Arena<MtInternal>,
}

impl HtmMasstree {
    pub fn new(rt: Arc<Runtime>) -> Self {
        let leaves = Arena::new();
        let internals = Arena::new();
        let first: &MtLeaf = leaves.alloc(MtLeaf::empty());
        rt.register_value(first, euno_htm::LineClass::Record);
        let ctrl = euno_htm::ControlBlock::new(MtRef::of_leaf(first).to_word());
        rt.register_value(&*ctrl, euno_htm::LineClass::Structure);
        HtmMasstree {
            ctrl,
            rt,
            leaves,
            internals,
        }
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
        let mut cur = MtRef::from_word(tx.read(&self.ctrl.root)?);
        loop {
            Self::subscribe_version(tx, unsafe { &cur.version().cell })?;
            if cur.is_leaf() {
                return Ok(unsafe { cur.leaf() });
            }
            let int: &MtInternal = unsafe { cur.internal() };
            node_visit_overhead(tx.ctx());
            let cnt = tx.read(&int.count)? as usize;
            let (mut lo, mut hi) = (0usize, cnt);
            while lo < hi {
                let mid = (lo + hi) / 2;
                permutation_decode(tx.ctx());
                if tx.read(&int.keys[mid])? <= key {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            cur = if lo == 0 {
                MtRef::from_word(tx.read(&int.child0)?)
            } else {
                MtRef::from_word(tx.read(&int.children[lo - 1])?)
            };
        }
    }

    fn leaf_find(&self, tx: &mut Tx<'_>, leaf: &MtLeaf, key: u64) -> TxResult<Option<usize>> {
        node_visit_overhead(tx.ctx());
        let cnt = tx.read(&leaf.count)? as usize;
        let (mut lo, mut hi) = (0usize, cnt);
        while lo < hi {
            let mid = (lo + hi) / 2;
            permutation_decode(tx.ctx());
            if tx.read(&leaf.keys[mid])? < key {
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

    fn leaf_insert(&self, tx: &mut Tx<'_>, leaf: &MtLeaf, key: u64, val: u64) -> TxResult<()> {
        let cnt = tx.read(&leaf.count)? as usize;
        debug_assert!(cnt < F);
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
        Self::bump(tx, &leaf.version.cell, true, false)
    }

    fn split_leaf<'t>(
        &'t self,
        tx: &mut Tx<'_>,
        leaf: &'t MtLeaf,
        key: u64,
    ) -> TxResult<&'t MtLeaf> {
        let right: &MtLeaf = self.leaves.alloc(MtLeaf::empty());
        self.rt.register_value(right, euno_htm::LineClass::Record);
        let mid = F / 2;
        for i in mid..F {
            let k = tx.read(&leaf.keys[i])?;
            let v = tx.read(&leaf.vals[i])?;
            tx.write(&right.keys[i - mid], k)?;
            tx.write(&right.vals[i - mid], v)?;
        }
        let sep = tx.read(&leaf.keys[mid])?;
        tx.write(&right.count, (F - mid) as u64)?;
        tx.write(&leaf.count, mid as u64)?;
        let old_next = tx.read(&leaf.next)?;
        tx.write(&right.next, old_next)?;
        tx.write(&leaf.next, MtRef::of_leaf(right).to_word())?;
        let parent_bits = tx.read(&leaf.parent)?;
        tx.write(&right.parent, parent_bits)?;
        Self::bump(tx, &leaf.version.cell, false, true)?;
        self.insert_into_parent(tx, MtRef::of_leaf(leaf), sep, MtRef::of_leaf(right))?;
        Ok(if key < sep { leaf } else { right })
    }

    fn insert_into_parent(
        &self,
        tx: &mut Tx<'_>,
        mut child: MtRef,
        mut sep: u64,
        mut right: MtRef,
    ) -> TxResult<()> {
        loop {
            let parent_bits = tx.read(unsafe { child.parent_cell() })?;
            if parent_bits == 0 {
                let nr: &MtInternal = self.internals.alloc(MtInternal::empty());
                self.rt.register_value(nr, euno_htm::LineClass::Structure);
                tx.write(&nr.child0, child.to_word())?;
                tx.write(&nr.keys[0], sep)?;
                tx.write(&nr.children[0], right.to_word())?;
                tx.write(&nr.count, 1)?;
                let nref = MtRef::of_internal(nr);
                tx.write(unsafe { child.parent_cell() }, nref.to_word())?;
                tx.write(unsafe { right.parent_cell() }, nref.to_word())?;
                tx.write(&self.ctrl.root, nref.to_word())?;
                return Ok(());
            }
            let parent: &MtInternal = unsafe { MtRef::from_word(parent_bits).internal() };
            let cnt = tx.read(&parent.count)? as usize;
            if cnt < F {
                self.internal_insert(tx, parent, cnt, sep, right)?;
                tx.write(unsafe { right.parent_cell() }, parent_bits)?;
                Self::bump(tx, &parent.version.cell, true, false)?;
                return Ok(());
            }
            let new_int: &MtInternal = self.internals.alloc(MtInternal::empty());
            self.rt
                .register_value(new_int, euno_htm::LineClass::Structure);
            let new_ref = MtRef::of_internal(new_int);
            let mid = F / 2;
            let promoted = tx.read(&parent.keys[mid])?;
            let mid_child = MtRef::from_word(tx.read(&parent.children[mid])?);
            tx.write(&new_int.child0, mid_child.to_word())?;
            tx.write(unsafe { mid_child.parent_cell() }, new_ref.to_word())?;
            for i in mid + 1..F {
                let k = tx.read(&parent.keys[i])?;
                let c = MtRef::from_word(tx.read(&parent.children[i])?);
                tx.write(&new_int.keys[i - mid - 1], k)?;
                tx.write(&new_int.children[i - mid - 1], c.to_word())?;
                tx.write(unsafe { c.parent_cell() }, new_ref.to_word())?;
            }
            tx.write(&new_int.count, (F - mid - 1) as u64)?;
            tx.write(&parent.count, mid as u64)?;
            let grandparent = tx.read(&parent.parent)?;
            tx.write(&new_int.parent, grandparent)?;
            Self::bump(tx, &parent.version.cell, true, true)?;

            let (target, target_bits) = if sep < promoted {
                (parent, parent_bits)
            } else {
                (new_int, new_ref.to_word())
            };
            let tcnt = tx.read(&target.count)? as usize;
            self.internal_insert(tx, target, tcnt, sep, right)?;
            tx.write(unsafe { right.parent_cell() }, target_bits)?;

            sep = promoted;
            right = new_ref;
            child = MtRef::from_word(parent_bits);
        }
    }

    fn internal_insert(
        &self,
        tx: &mut Tx<'_>,
        node: &MtInternal,
        cnt: usize,
        sep: u64,
        right: MtRef,
    ) -> TxResult<()> {
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
        ctx.htm_execute(&self.ctrl.fallback, &RetryPolicy::DBX, |tx| {
            tx.set_op_key(key);
            let leaf = self.descend(tx, key)?;
            if let Some(i) = self.leaf_find(tx, leaf, key)? {
                let old = tx.read(&leaf.vals[i])?;
                tx.write(&leaf.vals[i], value)?;
                return Ok((old != TOMBSTONE).then_some(old));
            }
            let cnt = tx.read(&leaf.count)? as usize;
            let target = if cnt == F {
                self.split_leaf(tx, leaf, key)?
            } else {
                leaf
            };
            self.leaf_insert(tx, target, key, value)?;
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
                    Self::bump(tx, &leaf.version.cell, true, false)?;
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
                let mut leaf = self.descend(tx, from)?;
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
                    let next = MtRef::from_word(tx.read(&leaf.next)?);
                    if next.is_null() {
                        break;
                    }
                    leaf = unsafe { next.leaf() };
                }
                Ok(acc)
            })
            .value;
        let n = collected.len();
        out.extend(collected);
        n
    }

    fn name(&self) -> &'static str {
        "HTM-Masstree"
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
