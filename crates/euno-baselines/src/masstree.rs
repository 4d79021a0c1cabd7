//! A fine-grained-locking concurrent B+Tree implementing the Masstree
//! §4.6 concurrency protocol — the paper's lock-based comparator.
//!
//! The paper compares Euno-B+Tree against "a highly optimized concurrent
//! B+Tree implementation derived from Masstree" (§5.1). The essence of
//! that design (Mao, Kohler, Morris, EuroSys 2012, §4.6) is per-node
//! *version words* combined with optimistic reads:
//!
//! * every node carries a version with a lock bit, an insert counter and a
//!   split counter;
//! * readers take no locks: they snapshot a *stable* version (spinning out
//!   writers), read the node, and re-check the version — retrying on any
//!   change ("before-and-after" validation);
//! * writers spin-lock the node, mutate in place, bump the matching
//!   counter and unlock; splits hand-over-hand lock upward (child before
//!   parent), which is deadlock-free because all multi-lock operations
//!   lock in the same leaf-to-root order.
//!
//! This protocol is exactly why Masstree executes ~2.1× the instructions
//! of Euno-B+Tree at θ = 0.5 (§5.2: "a put operation in Masstree needs on
//! average to check and manipulate a version number about 15 times while
//! traversing the tree") — every level costs a stable-read and a
//! validation on top of the key comparisons. Those instruction counts
//! emerge here from the same per-access charging as every other tree.

use std::convert::Infallible;
use std::sync::Arc;

use euno_htm::bptree::{promote, upper_bound, Propagate};
use euno_htm::{
    ConcurrentMap, EpisodeKind, IndexNode, MemoryReport, NodeArenas, NodeRef, Runtime, SpinBackoff,
    ThreadCtx, TxCell, KEY_SENTINEL, TOMBSTONE,
};

use crate::node::{empty_tree, Guard, Leaf, DEFAULT_FANOUT};

// ----- version word layout: [vsplit:31][vinsert:32][lock:1] -----

pub(crate) const LOCK_BIT: u64 = 1;
pub(crate) const VINSERT_UNIT: u64 = 1 << 1;
pub(crate) const VSPLIT_UNIT: u64 = 1 << 33;
const VSPLIT_MASK: u64 = !0 << 33;

/// A Masstree-style node version word with lock semantics on every engine
/// backend: what the `version` cell of a [`Leaf`] or an [`IndexNode`] is to
/// the two Masstrees. Written over the engine's two lock primitives — the
/// virtual lock clock ([`ThreadCtx::vlock_wait`] / [`ThreadCtx::vlock_hold`])
/// and the bounded [`SpinBackoff`] pause — so it holds no mode test of its
/// own: on the virtual clock a waiter arrives after the modeled release and
/// its first probe succeeds; on real threads the clock calls are no-ops and
/// the probe loop backs off like every other lock in the engine.
pub(crate) trait Version {
    fn cell(&self) -> &TxCell;

    /// The word's virtual-lock identity: its address.
    fn vkey(&self) -> u64 {
        self.cell() as *const _ as u64
    }

    /// Wait until unlocked; return the observed stable version.
    fn stable(&self, ctx: &mut ThreadCtx) -> u64 {
        let mut backoff = SpinBackoff::new();
        loop {
            let v = self.cell().load_direct(ctx);
            if v & LOCK_BIT == 0 {
                return v;
            }
            backoff.pause(ctx);
        }
    }

    /// Plain read for before/after validation.
    fn read(&self, ctx: &mut ThreadCtx) -> u64 {
        self.cell().load_direct(ctx)
    }

    /// Writer lock (quiet CAS on the lock bit, after the word's virtual
    /// hold has been waited out).
    fn lock(&self, ctx: &mut ThreadCtx) {
        ctx.vlock_wait(self.vkey());
        let mut backoff = SpinBackoff::new();
        loop {
            let v = self.cell().load_direct(ctx);
            if v & LOCK_BIT == 0 && self.cell().cas_direct_quiet(ctx, v, v | LOCK_BIT) {
                return;
            }
            backoff.pause(ctx);
        }
    }

    /// Unlock, bumping the insert and/or split counters.
    fn unlock(&self, ctx: &mut ThreadCtx, inserted: bool, split: bool) {
        ctx.vlock_hold(self.vkey());
        let v = self.cell().load_direct(ctx);
        debug_assert_ne!(v & LOCK_BIT, 0, "unlock of unlocked version");
        let mut next = v & !LOCK_BIT;
        if inserted {
            next = next.wrapping_add(VINSERT_UNIT);
        }
        if split {
            next = next.wrapping_add(VSPLIT_UNIT);
        }
        if inserted || split {
            // Counter bump: version-visible — overlapping optimistic
            // readers must observe it (published point write).
            self.cell().store_direct(ctx, next);
        } else {
            // Pure unlock: validators compare version values, and the
            // value is back to what they read before — invisible.
            self.cell().store_direct_quiet(ctx, next);
        }
    }
}

impl Version for TxCell {
    fn cell(&self) -> &TxCell {
        self
    }
}

/// The version word of whichever kind of node `node` points at.
fn version_of(nodes: Guard<'_, F>, node: NodeRef) -> &TxCell {
    match node.is_leaf() {
        true => &nodes.leaf(node).version,
        false => &nodes.index_node(node).version,
    }
}

fn vsplit_of(v: u64) -> u64 {
    v & VSPLIT_MASK
}

// ----- nodes -----

/// Masstree leaf: the sorted leaf with its version word, parent link and
/// B-link fence in use.
pub(crate) type MtLeaf = Leaf<F>;

/// Does an optimistic-read overlap force a retry? Masstree readers
/// validate node *versions*, which writers bump only for inserts and
/// splits — a concurrent value update changes no version, so a collision
/// on record storage is invisible to the protocol (the reader returns one
/// of the two linearizable values). Only collisions on header/metadata or
/// index-structure lines (count words, version words, child pointers)
/// correspond to observable version changes.
#[inline]
fn version_visible(overlap: Option<euno_htm::ConflictInfo>) -> bool {
    use euno_htm::AbortClass::*;
    match overlap {
        None => false,
        Some(ci) => matches!(
            ci.kind,
            FalseMetadata | FalseStructure | UnclassifiedConflict
        ),
    }
}

/// Charge the cost of one permutation-word indirection: real Masstree
/// stores records unsorted and reads them through a 64-bit permutation,
/// so every key comparison is `keys[perm[i]]` — an extra dependent load
/// plus shift/mask work. This (with the version protocol) is where the
/// paper's "Masstree executes ~2.1× the instructions" comes from (§5.2).
#[inline]
pub(crate) fn permutation_decode(ctx: &mut ThreadCtx) {
    // Two dependent loads (permutation word slot + key slice) plus the
    // extract/compare ALU work of variable-length key handling.
    ctx.stats.mem_accesses += 2;
    let c = 2 * ctx.runtime().cost.access_hit + 6 * ctx.runtime().cost.alu;
    ctx.charge(c);
}

/// Per-node overhead of entering a Masstree node: fetch and decode the
/// permutation word, border-node bookkeeping.
#[inline]
pub(crate) fn node_visit_overhead(ctx: &mut ThreadCtx) {
    ctx.stats.mem_accesses += 1;
    let c = ctx.runtime().cost.line_first_touch / 2 + 4 * ctx.runtime().cost.alu;
    ctx.charge(c);
}

/// Value-indirection charge: Masstree stores values out-of-node behind a
/// pointer (leafvalue/suffix storage), so touching a record's value is an
/// extra dependent cache access.
#[inline]
fn value_indirection(ctx: &mut ThreadCtx) {
    ctx.stats.mem_accesses += 1;
    ctx.charge(ctx.runtime().cost.line_first_touch / 2 + 2 * ctx.runtime().cost.alu);
}

/// The fine-grained-locking comparator tree ("Masstree" in the figures).
pub struct Masstree {
    rt: Arc<Runtime>,
    ctrl: Box<euno_htm::ControlBlock>,
    arenas: NodeArenas<MtLeaf, F>,
}

pub(crate) const F: usize = DEFAULT_FANOUT;

/// Hand-over-hand upward split propagation: the child is locked; each
/// level locks the parent (revalidating the link) before it inserts or
/// splits, and a split level stays locked until the levels above it are
/// done — lock order is strictly upward, so holding these locks cannot
/// deadlock. `held` is what [`Masstree::split_leaf`] still has to unlock.
struct HandOverHand<'t> {
    tree: &'t Masstree,
    /// Split index nodes with their new siblings, lowest level first.
    held: Vec<(&'t IndexNode<F>, &'t IndexNode<F>)>,
}

impl<'t> Propagate<'t, ThreadCtx, F> for HandOverHand<'t> {
    fn parent_of(
        &mut self,
        ctx: &mut ThreadCtx,
        child: NodeRef,
    ) -> Result<Option<&'t IndexNode<F>>, Infallible> {
        let nodes = self.tree.nodes();
        let link = nodes.parent_cell(child);
        while link.load_direct(ctx) == 0 {
            // Child is the root: serialize root replacement, and re-check
            // (another split may have already grown the tree). The lock is
            // held into `grow_root`.
            let root_lock = &self.tree.ctrl.root_lock;
            root_lock.acquire(ctx);
            if link.load_direct(ctx) == 0 {
                return Ok(None);
            }
            root_lock.release(ctx);
        }
        // Lock the parent, revalidating the link (the parent itself may
        // split concurrently and move `child` to a new node).
        loop {
            let p = NodeRef(link.load_direct(ctx));
            let int = nodes.index_node(p);
            int.version.lock(ctx);
            if link.load_direct(ctx) == p.0 {
                return Ok(Some(int));
            }
            int.version.unlock(ctx, false, false);
        }
    }

    fn new_index(&mut self, ctx: &mut ThreadCtx) -> &'t IndexNode<F> {
        let new = self.tree.arenas.internals.alloc(IndexNode::empty());
        new.register(&self.tree.rt);
        new.version.lock(ctx);
        new
    }

    fn adopt(
        &mut self,
        ctx: &mut ThreadCtx,
        child: NodeRef,
        parent: NodeRef,
    ) -> Result<(), Infallible> {
        self.tree
            .nodes()
            .parent_cell(child)
            .store_direct(ctx, parent.0);
        Ok(())
    }

    fn inserted(&mut self, ctx: &mut ThreadCtx, node: &'t IndexNode<F>) -> Result<(), Infallible> {
        node.version.unlock(ctx, true, false);
        Ok(())
    }

    fn split(
        &mut self,
        ctx: &mut ThreadCtx,
        node: &'t IndexNode<F>,
        new: &'t IndexNode<F>,
    ) -> Result<(), Infallible> {
        self.held.push((node, new));
        new.inherit_parent(ctx, node)
    }

    fn grow_root(
        &mut self,
        ctx: &mut ThreadCtx,
        child: NodeRef,
        sep: u64,
        right: NodeRef,
    ) -> Result<(), Infallible> {
        let tree = self.tree;
        let root = tree.arenas.internals.alloc(IndexNode::empty());
        root.register(&tree.rt);
        let root_ref = NodeRef::of_index(root);
        root.init_root(ctx, child, sep, right)?;
        self.adopt(ctx, child, root_ref)?;
        self.adopt(ctx, right, root_ref)?;
        tree.ctrl.root.store_direct(ctx, root_ref.0);
        tree.ctrl.root_lock.release(ctx);
        Ok(())
    }
}

impl Masstree {
    pub fn new(rt: Arc<Runtime>) -> Self {
        let (ctrl, arenas) = empty_tree(&rt);
        Masstree { rt, ctrl, arenas }
    }

    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.rt
    }

    /// The root, by a plain load (quiescent tree).
    pub fn root_plain(&self) -> NodeRef {
        NodeRef(self.ctrl.root.load_plain())
    }

    /// The guard this tree's nodes are read through, as long as it lives.
    pub fn nodes(&self) -> Guard<'_, F> {
        self.arenas.until_drop()
    }

    // ----- optimistic descent (readers and writer location) -----

    /// Optimistically walk to the leaf for `key`. Returns the leaf and the
    /// stable version observed on it, or `None` if validation failed and
    /// the caller should restart. Must run inside an OptimisticRead
    /// episode.
    fn descend(&self, ctx: &mut ThreadCtx, key: u64) -> Option<(&MtLeaf, u64)> {
        let nodes = self.nodes();
        let mut node = NodeRef(self.ctrl.root.load_direct(ctx));
        let mut v = version_of(nodes, node).stable(ctx);
        loop {
            if node.is_leaf() {
                return Some((nodes.leaf(node), v));
            }
            let int = nodes.index_node(node);
            node_visit_overhead(ctx);
            let cnt = (int.count.load_direct(ctx) as usize).min(F);
            // Masstree reads keys through a permutation word: one extra
            // decoded load per comparison (§4.6 of that paper).
            let Ok(taken) = upper_bound(cnt, key, |i| {
                permutation_decode(ctx);
                Ok::<_, Infallible>(int.keys[i].load_direct(ctx))
            });
            let child = NodeRef(int.child(taken).load_direct(ctx));
            // Before/after check: the child pointer is only trustworthy if
            // the node did not change while we searched it.
            if int.version.read(ctx) != v || child.is_null() {
                return None;
            }
            node = child;
            v = version_of(nodes, node).stable(ctx);
        }
    }

    /// Search a leaf's sorted records without locks. Returns
    /// (slot, value) when present.
    fn leaf_search(&self, ctx: &mut ThreadCtx, leaf: &MtLeaf, key: u64) -> Option<(usize, u64)> {
        node_visit_overhead(ctx);
        let Ok(slot) = leaf.find(ctx, key, permutation_decode);
        slot.map(|i| (i, leaf.vals[i].load_direct(ctx)))
    }

    /// Full optimistic read of one key: descent + leaf search + double
    /// validation (node version and, in virtual mode, episode overlap).
    /// The retry loop is the engine's [`ThreadCtx::optimistic_execute`].
    fn read_key(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        let found = ctx.optimistic_execute(Some(key), version_visible, |ctx| {
            let (leaf, v) = self.descend(ctx, key)?;
            let in_range = key < leaf.highkey.load_direct(ctx);
            let found = self.leaf_search(ctx, leaf, key);
            if found.is_some() {
                value_indirection(ctx);
            }
            if !in_range || leaf.version.read(ctx) != v {
                return None;
            }
            Some(found.map(|(_, val)| val))
        });
        found.filter(|&v| v != TOMBSTONE)
    }

    /// Locate and writer-lock the leaf for `key`, revalidating that no
    /// split moved the key range while we were locking.
    fn locate_locked(&self, ctx: &mut ThreadCtx, key: u64) -> &MtLeaf {
        loop {
            let (leaf, v) =
                ctx.optimistic_execute(None, version_visible, |ctx| self.descend(ctx, key));
            leaf.version.lock(ctx);
            // Two staleness guards once the lock is held: the split
            // counter (split since we located it) and the B-link fence
            // (we located it after a split had already shrunk its range).
            let split_since = vsplit_of(leaf.version.read(ctx)) != vsplit_of(v);
            let out_of_range = key >= leaf.highkey.load_direct(ctx);
            if split_since || out_of_range {
                leaf.version.unlock(ctx, false, false);
                ctx.stats.optimistic_retries += 1;
                continue;
            }
            return leaf;
        }
    }

    // ----- locked mutations -----

    /// Split a locked, full leaf; returns the (locked) leaf that should
    /// receive `key`. The sibling is returned locked too when it is the
    /// target; the non-target side is unlocked here.
    fn split_leaf<'t>(&'t self, ctx: &mut ThreadCtx, leaf: &'t MtLeaf, key: u64) -> &'t MtLeaf {
        let right: &MtLeaf = self.arenas.leaves.alloc(Leaf::empty());
        right.register(&self.rt);
        right.version.lock(ctx);
        let Ok(sep) = leaf.split_into(ctx, right);
        let parent_bits = leaf.parent.load_direct(ctx);
        right.parent.store_direct(ctx, parent_bits);
        // B-link fences: the right node inherits the old bound; the old
        // node's range now ends at the separator.
        let old_high = leaf.highkey.load_direct(ctx);
        right.highkey.store_direct(ctx, old_high);
        leaf.highkey.store_direct(ctx, sep);

        let mut climb = HandOverHand {
            tree: self,
            held: Vec::new(),
        };
        let Ok(()) = promote(
            ctx,
            &mut climb,
            NodeRef::of_leaf(leaf),
            sep,
            NodeRef::of_leaf(right),
        );
        for (node, new) in climb.held.into_iter().rev() {
            new.version.unlock(ctx, true, false);
            node.version.unlock(ctx, true, true);
        }

        // Release the non-target half. The *old* leaf must observe a
        // split-counter bump either here (when the new right node is the
        // target) or at the caller's final unlock (when the old leaf is) —
        // writers that located it before the split revalidate on vsplit.
        if key < sep {
            right.version.unlock(ctx, false, false);
            leaf
        } else {
            leaf.version.unlock(ctx, false, true);
            right
        }
    }
}

impl ConcurrentMap for Masstree {
    fn get(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        self.read_key(ctx, key)
    }

    fn put(&self, ctx: &mut ThreadCtx, key: u64, value: u64) -> Option<u64> {
        assert!(key < KEY_SENTINEL && value != TOMBSTONE);
        let leaf = self.locate_locked(ctx, key);
        ctx.episode_begin(EpisodeKind::LockedWrite);
        ctx.set_op_key(key);
        value_indirection(ctx);
        value_indirection(ctx);
        let result;
        let inserted;
        if let Some((slot, old)) = self.leaf_search(ctx, leaf, key) {
            leaf.vals[slot].store_direct(ctx, value);
            result = (old != TOMBSTONE).then_some(old);
            inserted = false;
        } else {
            let cnt = leaf.count.load_direct(ctx) as usize;
            let (target, old_leaf_needs_split_bump) = if cnt == F {
                let t = self.split_leaf(ctx, leaf, key);
                (t, std::ptr::eq(t, leaf))
            } else {
                (leaf, false)
            };
            let Ok(()) = target.insert(ctx, key, value);
            ctx.episode_end_locked_write();
            target.version.unlock(ctx, true, old_leaf_needs_split_bump);
            return None;
        }
        ctx.episode_end_locked_write();
        leaf.version.unlock(ctx, inserted, false);
        result
    }

    fn delete(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        let leaf = self.locate_locked(ctx, key);
        ctx.episode_begin(EpisodeKind::LockedWrite);
        ctx.set_op_key(key);
        let result = match self.leaf_search(ctx, leaf, key) {
            Some((slot, old)) if old != TOMBSTONE => {
                leaf.vals[slot].store_direct(ctx, TOMBSTONE);
                Some(old)
            }
            _ => None,
        };
        ctx.episode_end_locked_write();
        leaf.version.unlock(ctx, false, false);
        result
    }

    fn scan(
        &self,
        ctx: &mut ThreadCtx,
        from: u64,
        count: usize,
        out: &mut Vec<(u64, u64)>,
    ) -> usize {
        let mut collected = 0usize;
        let mut cursor = from;
        // Walk the leaf chain directly (a `hint`); re-descend only after a
        // validation failure. Descending per leaf would loop forever on a
        // leaf that yields no records ≥ cursor (e.g. all tombstoned).
        let mut hint: Option<NodeRef> = None;
        loop {
            // Optimistically read one leaf's run. `hint.take()` implements
            // the hint-reset on failure: a retry attempt (the hint was
            // consumed by the failed one) re-descends.
            let (part, next) = ctx.optimistic_execute(Some(cursor), version_visible, |ctx| {
                let (leaf, v) = match hint.take() {
                    Some(r) => {
                        let l = self.nodes().leaf(r);
                        let v = l.version.stable(ctx);
                        (l, v)
                    }
                    None => self.descend(ctx, cursor)?,
                };
                let cnt = (leaf.count.load_direct(ctx) as usize).min(F);
                let mut part = Vec::with_capacity(cnt);
                for i in 0..cnt {
                    let k = leaf.keys[i].load_direct(ctx);
                    let val = leaf.vals[i].load_direct(ctx);
                    if k >= cursor && val != TOMBSTONE {
                        part.push((k, val));
                    }
                }
                part.sort_unstable_by_key(|&(k, _)| k);
                let next = NodeRef(leaf.next.load_direct(ctx));
                if leaf.version.read(ctx) != v {
                    return None;
                }
                Some((part, next))
            });
            for (k, v) in part {
                if collected == count {
                    return collected;
                }
                out.push((k, v));
                collected += 1;
                cursor = k.saturating_add(1);
            }
            if collected == count || next.is_null() {
                return collected;
            }
            hint = Some(next);
        }
    }

    fn name(&self) -> &'static str {
        "Masstree"
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

    fn tree() -> (Arc<Runtime>, Masstree, ThreadCtx) {
        let rt = Runtime::new_virtual();
        let t = Masstree::new(Arc::clone(&rt));
        let ctx = rt.thread(1);
        (rt, t, ctx)
    }

    #[test]
    fn put_get_update() {
        let (_rt, t, mut ctx) = tree();
        assert_eq!(t.get(&mut ctx, 9), None);
        assert_eq!(t.put(&mut ctx, 9, 90), None);
        assert_eq!(t.get(&mut ctx, 9), Some(90));
        assert_eq!(t.put(&mut ctx, 9, 91), Some(90));
        assert_eq!(t.get(&mut ctx, 9), Some(91));
    }

    #[test]
    fn many_inserts_split_correctly() {
        let (_rt, t, mut ctx) = tree();
        let n = 4_000u64;
        for k in 0..n {
            t.put(&mut ctx, (k * 13) % n, k);
        }
        for k in 0..n {
            assert!(t.get(&mut ctx, k).is_some(), "key {k}");
        }
    }

    #[test]
    fn matches_model() {
        let (_rt, t, mut ctx) = tree();
        let mut model = BTreeMap::new();
        let mut s = 0x9E3779B97F4A7C15u64;
        let mut rnd = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for _ in 0..20_000 {
            let key = rnd() % 600;
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
    fn scan_sorted_run() {
        let (_rt, t, mut ctx) = tree();
        for k in 0..200u64 {
            t.put(&mut ctx, k, k + 1);
        }
        t.delete(&mut ctx, 50);
        let mut out = Vec::new();
        let n = t.scan(&mut ctx, 48, 5, &mut out);
        assert_eq!(n, 5);
        let keys: Vec<u64> = out.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![48, 49, 51, 52, 53]);
    }

    #[test]
    fn concurrent_inserts_no_lost_updates() {
        let rt = Runtime::new_concurrent();
        let t = Masstree::new(Arc::clone(&rt));
        let per = 400u64;
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
        let mut ctx = rt.thread(9);
        for key in 0..threads * per {
            assert_eq!(t.get(&mut ctx, key), Some(key + 1), "key {key}");
        }
    }

    #[test]
    fn concurrent_mixed_hot_keys() {
        let rt = Runtime::new_concurrent();
        let t = Masstree::new(Arc::clone(&rt));
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = &t;
                let mut ctx = rt.thread(tid);
                s.spawn(move || {
                    for i in 0..500u64 {
                        if i % 3 == 0 {
                            t.get(&mut ctx, i % 16);
                        } else {
                            t.put(&mut ctx, i % 16, tid * 1000 + i);
                        }
                    }
                });
            }
        });
        let mut ctx = rt.thread(9);
        for k in 0..16u64 {
            assert!(t.get(&mut ctx, k).is_some());
        }
    }

    #[test]
    fn held_version_lock_is_waited_out_with_backoff() {
        // A long-held version lock must not cost the waiter one
        // instrumented load per spin quantum: both of its waits — the
        // optimistic descent's `stable` and the writer's `lock` — pause
        // with the engine's bounded back-off, so the loads stay few while
        // the waited cycles accumulate in `cycles_lock_wait`.
        let rt = Runtime::new_concurrent();
        let t = Masstree::new(Arc::clone(&rt));
        let mut holder = rt.thread(0);
        for k in 0..4u64 {
            t.put(&mut holder, k, k);
        }
        std::thread::scope(|s| {
            // Held before the waiter exists: it can only arrive at a
            // locked leaf.
            let leaf = t.locate_locked(&mut holder, 2);
            let (t, rt2) = (&t, Arc::clone(&rt));
            let waiter = s.spawn(move || {
                let mut ctx = rt2.thread(1);
                assert_eq!(t.put(&mut ctx, 2, 20), Some(2));
                ctx.stats
            });
            std::thread::sleep(std::time::Duration::from_millis(20));
            leaf.version.unlock(&mut holder, false, false);
            let stats = waiter.join().unwrap();
            let quanta = stats.cycles_lock_wait / rt.cost.spin_iter.max(1);
            assert!(quanta > 0, "wait cycles accounted");
            // A tight spin issues one load per quantum waited; doubling
            // pauses approach one per 2^MAX_EXPONENT quanta.
            assert!(
                stats.mem_accesses * 8 < quanta,
                "mem_accesses = {}, lock-wait quanta = {quanta}",
                stats.mem_accesses
            );
        });
    }

    #[test]
    fn version_word_arithmetic() {
        assert_eq!(vsplit_of(0), 0);
        let v = VSPLIT_UNIT * 3 + VINSERT_UNIT * 5;
        assert_eq!(vsplit_of(v), VSPLIT_UNIT * 3);
        assert_eq!(vsplit_of(v | LOCK_BIT), VSPLIT_UNIT * 3);
        // Insert bumps never leak into the split counter.
        let w = VINSERT_UNIT * ((1 << 32) - 1);
        assert_eq!(vsplit_of(w), 0);
    }

    #[test]
    fn optimistic_retries_counted_under_contention() {
        // Virtual-time: interleave a writer and readers on one leaf.
        let rt = Runtime::new_virtual();
        let t = Masstree::new(Arc::clone(&rt));
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
                // Writers INSERT fresh keys: inserts bump node versions,
                // which is what the §4.6 protocol makes readers retry on
                // (value updates are version-invisible by design).
                t.put(&mut ctxs[idx], 8 + round, round);
            } else {
                t.get(&mut ctxs[idx], round % 8);
            }
        }
        let retries: u64 = ctxs.iter().map(|c| c.stats.optimistic_retries).sum();
        let lock_wait: u64 = ctxs.iter().map(|c| c.stats.cycles_lock_wait).sum();
        assert!(
            retries + lock_wait > 0,
            "overlapping inserts/reads must retry or convoy"
        );
        let aborts: u64 = ctxs.iter().map(|c| c.counts().aborts()).sum();
        assert_eq!(aborts, 0, "Masstree uses no HTM: no HTM aborts");
    }
}
