//! Euno-B+Tree: the Eunomia design pattern applied to a B+Tree (§4).
//!
//! This module is the façade: the struct, its constructors, the
//! [`ConcurrentMap`] surface, and the crate-internal accessors the
//! [`crate::rebalance`] module builds on. The operation machinery lives in
//! sibling modules, one per concern:
//!
//! * [`crate::traverse`] — the two-step transactional traversal
//!   (Algorithm 2): upper stage (`locate`: leaf hint, subtree hint,
//!   validated walk, HTM region), conflict-control stage, lower region;
//! * [`crate::leaf_ops`] — the one-segment leaf search, the
//!   deterministic write scheduler and reorganization (Algorithm 3);
//! * [`crate::structural`] — leaf splits and their upward propagation
//!   through the index (§4.2.3);
//! * [`crate::scan`] — range scans over the leaf chain (§4.2.4): one
//!   walk for every configuration.
//!
//! Every HTM region the tree starts runs under the one shared
//! [`RetryPolicy::DBX`](euno_htm::RetryPolicy::DBX) (§4.2.1 DBX-style
//! per-cause budgets).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use euno_htm::{
    Arena, ConcurrentMap, MemoryReport, Runtime, ThreadCtx, TransientBytes, Tx, TxCell, TxResult,
    TxWord, KEY_SENTINEL, TOMBSTONE,
};

use crate::ccm::Ccm;
use crate::config::EunoConfig;
use crate::node::{EunoLeaf, Guard, NodeArenas, NodeRef};
use crate::rebalance::Sweep;
use crate::segment::{KeyPad, Keys};

/// Segments a leaf of the default geometry has ([`EunoBTreeDefault`]).
pub const DEFAULT_SEGS: usize = 6;
/// Slots a segment of the default geometry has: three keys and their
/// values, the segment's fence copy and its link word fill one line.
pub const DEFAULT_K: usize = 3;

/// The Euno-B+Tree. `SEGS` segments of `K` slots per leaf (fanout =
/// `SEGS·K`): 18 at the default geometry, [`EunoBTreeDefault`], and in
/// the unpartitioned `+Split HTM` ablation variant,
/// [`EunoBTreeUnpartitioned`].
pub struct EunoBTree<const SEGS: usize = DEFAULT_SEGS, const K: usize = DEFAULT_K>
where
    Keys<K>: KeyPad,
{
    pub(crate) rt: Arc<Runtime>,
    pub(crate) cfg: EunoConfig,
    pub(crate) ctrl: Box<euno_htm::ControlBlock>,
    pub(crate) arenas: NodeArenas<SEGS, K>,
    /// The leaves' CCM blocks, one per leaf that has one ([`Ccm`]).
    pub(crate) blocks: Arena<Ccm>,
    pub(crate) reserved_bytes: TransientBytes,
    pub(crate) deletes: AtomicU64,
    /// This tree's owner id in every thread's two hint tables
    /// ([`EunoBTree::locate`]): process-unique, so a tree built where a
    /// dropped one lived inherits none of its hints.
    pub(crate) hint_owner: u64,
    /// The deferred-rebalance sweep that applied deletes cooperate on.
    /// Boxed like the control block: the token is an instrumented cell,
    /// and its line must not depend on where the tree struct itself lives
    /// (a stack slot in most callers).
    pub(crate) sweep: Box<Sweep>,
}

/// What the lower region concluded.
pub(crate) enum Lower {
    Done(Option<u64>),
    /// The key is at or above the leaf's fence: a split or merge took its
    /// range away since the upper stage; go back to the upper stage.
    Inconsistent,
    /// The insert needs a split but the split lock is not held; retry the
    /// operation acquiring it up front.
    NeedSplitLock,
}

#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum Req {
    Get,
    Put,
    Delete,
}

impl<const SEGS: usize, const K: usize> EunoBTree<SEGS, K>
where
    Keys<K>: KeyPad,
{
    pub fn new(rt: Arc<Runtime>) -> Self {
        Self::with_config(rt, EunoConfig::default())
    }

    pub fn with_config(rt: Arc<Runtime>, cfg: EunoConfig) -> Self {
        let arenas: NodeArenas<SEGS, K> = NodeArenas::default();
        let first = arenas.leaves.alloc(EunoLeaf::empty());
        first.register(&rt);
        let first = NodeRef::of_leaf(first);
        let ctrl = euno_htm::ControlBlock::new(first.to_word());
        rt.register_value(&*ctrl, euno_htm::LineClass::Structure);
        let tree = EunoBTree {
            rt,
            cfg,
            ctrl,
            arenas,
            blocks: Arena::new(),
            reserved_bytes: TransientBytes::new(),
            deletes: AtomicU64::new(0),
            hint_owner: euno_htm::fresh_owner(),
            sweep: Box::new(Sweep::new()),
        };
        // Without the detector a CCM config protects every leaf from its
        // birth on, this one included; every other leaf is split-born and
        // takes its block from the leaf it was split from.
        if tree.cfg.conflict_control() && !tree.cfg.adaptive {
            let first = tree.arenas.until_drop().leaf(first);
            let block = tree.alloc_block(first, Ccm::new(0, false));
            let _ = first.install_block(None, block.addr());
        }
        tree
    }

    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.rt
    }

    pub fn config(&self) -> &EunoConfig {
        &self.cfg
    }

    pub(crate) const fn ccm_bits() -> u32 {
        EunoLeaf::<SEGS, K>::ccm_bits()
    }

    pub(crate) const fn capacity() -> usize {
        EunoLeaf::<SEGS, K>::capacity()
    }

    /// Number of logical deletions performed (deferred-rebalance trigger
    /// observability; compaction happens lazily at reorganization).
    pub fn delete_count(&self) -> u64 {
        self.deletes.load(Ordering::Relaxed)
    }

    // ----- crate-internal accessors for the rebalance module -----

    pub(crate) fn root_bits(&self) -> u64 {
        self.ctrl.root.load_plain()
    }

    pub(crate) fn fallback_cell(&self) -> &TxCell<u64> {
        &self.ctrl.fallback
    }

    /// Append `leaf`'s raw records (including tombstones) to `out`.
    pub(crate) fn peek_all_into(
        &self,
        tx: &mut Tx<'_>,
        leaf: &EunoLeaf<SEGS, K>,
        out: &mut Vec<(u64, u64)>,
    ) -> TxResult<()> {
        for seg in &leaf.segs {
            seg.read_into(tx, out)?;
        }
        Ok(())
    }

    pub(crate) fn clear_segments(&self, tx: &mut Tx<'_>, leaf: &EunoLeaf<SEGS, K>) -> TxResult<()> {
        for seg in &leaf.segs {
            seg.write_all(tx, &[])?;
        }
        Ok(())
    }

    /// Run `f` with a guard over this tree's nodes, pinned through a
    /// temporary participant: for the plain walkers, which have no
    /// `ThreadCtx`. A leaf a merge retires meanwhile stays readable.
    pub fn pinned<R>(&self, f: impl for<'g> FnOnce(Guard<'g, SEGS, K>) -> R) -> R {
        self.rt.epoch().pinned(f)
    }

    /// The leaf chain, head first, by plain loads.
    pub(crate) fn chain_plain<'g>(
        &self,
        g: Guard<'g, SEGS, K>,
    ) -> impl Iterator<Item = &'g EunoLeaf<SEGS, K>> {
        let mut head = NodeRef::from_word(self.root_bits());
        while !head.is_leaf() {
            head = NodeRef::from_word(g.index_node(head).child0.load_plain());
        }
        std::iter::successors(Some(g.leaf(head)), move |leaf| {
            let next = NodeRef::from_word(leaf.next().load_plain());
            (!next.is_null()).then(|| g.leaf(next))
        })
    }

    /// Number of leaves currently linked into the chain (uninstrumented
    /// diagnostic).
    pub fn leaf_count_plain(&self) -> usize {
        self.pinned(|g| self.chain_plain(g).count())
    }

    /// Uninstrumented whole-tree audit: every live record in key order.
    /// Test/diagnostic helper — not concurrency safe.
    pub fn collect_all_plain(&self) -> Vec<(u64, u64)> {
        self.pinned(|g| {
            self.chain_plain(g)
                .flat_map(Self::leaf_live_plain)
                .collect()
        })
    }
}

impl<const SEGS: usize, const K: usize> ConcurrentMap for EunoBTree<SEGS, K>
where
    Keys<K>: KeyPad,
{
    fn get(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        self.traverse(ctx, Req::Get, key, 0)
    }

    fn put(&self, ctx: &mut ThreadCtx, key: u64, value: u64) -> Option<u64> {
        assert_storable(key, value);
        self.traverse(ctx, Req::Put, key, value)
    }

    fn delete(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        self.traverse(ctx, Req::Delete, key, 0)
    }

    fn scan(
        &self,
        ctx: &mut ThreadCtx,
        from: u64,
        count: usize,
        out: &mut Vec<(u64, u64)>,
    ) -> usize {
        self.scan_leaves(ctx, from, count, out)
    }

    fn maintain(&self, ctx: &mut ThreadCtx) -> u64 {
        // The inherent method (crate::rebalance) takes precedence in
        // method resolution, so this is not a recursive call.
        self.maintain(ctx) as u64
    }

    fn name(&self) -> &'static str {
        if self.cfg.read_opt {
            "Euno-ReadOpt"
        } else {
            "Euno-B+Tree"
        }
    }

    fn memory(&self) -> MemoryReport {
        MemoryReport {
            structural_bytes: self.arenas.live_bytes(),
            ccm_bytes: self.blocks.live_bytes(),
            reserved_live_bytes: self.reserved_bytes.live(),
            // Transient sort buffers: allocated per reorganization/scan,
            // freed immediately (§4.1 "the memory space is freed after the
            // process") — peak is the figure §5.7 cares about.
            reserved_peak_bytes: self.reserved_bytes.peak(),
            reserved_cumulative_bytes: self.reserved_bytes.cumulative(),
            retired_pending_bytes: self.arenas.leaves.retired_pending_bytes()
                + self.arenas.internals.retired_pending_bytes()
                + self.blocks.retired_pending_bytes(),
            reclaimed_bytes: self.arenas.leaves.reclaimed_bytes()
                + self.arenas.internals.reclaimed_bytes()
                + self.blocks.reclaimed_bytes(),
        }
    }
}

/// What every put checks, single or batched: a key below `KEY_SENTINEL`,
/// which marks a free slot, and a value other than `TOMBSTONE`, which marks
/// a deleted record.
pub(crate) fn assert_storable(key: u64, value: u64) {
    assert!(
        key < KEY_SENTINEL && value != TOMBSTONE,
        "put({key:#x}, {value:#x}): the key must be below KEY_SENTINEL and the value not TOMBSTONE"
    );
}

/// The default geometry: six segments of three slots (fanout 18), a
/// segment a line — 384 B a leaf.
pub type EunoBTreeDefault = EunoBTree<DEFAULT_SEGS, DEFAULT_K>;
/// A leaf of the default geometry.
pub type DefaultLeaf = EunoLeaf<DEFAULT_SEGS, DEFAULT_K>;
/// What a tree of the default geometry reads its nodes through.
pub type DefaultGuard<'g> = Guard<'g, DEFAULT_SEGS, DEFAULT_K>;
/// The `+Split HTM` ablation variant: one conventional sorted leaf of the
/// default geometry's eighteen slots, in the same 384 B.
pub type EunoBTreeUnpartitioned = EunoBTree<1, { DEFAULT_SEGS * DEFAULT_K }>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn tree() -> (Arc<Runtime>, EunoBTreeDefault, ThreadCtx) {
        tree_with(EunoConfig::default())
    }

    /// The all-episode tree, for tests that count what a get commits or
    /// feeds the CCM detector (the default tree's gets do neither).
    fn paper_tree() -> (Arc<Runtime>, EunoBTreeDefault, ThreadCtx) {
        tree_with(EunoConfig::paper())
    }

    fn tree_with(cfg: EunoConfig) -> (Arc<Runtime>, EunoBTreeDefault, ThreadCtx) {
        let rt = Runtime::new_virtual();
        let t = EunoBTree::with_config(Arc::clone(&rt), cfg);
        let ctx = rt.thread(1);
        (rt, t, ctx)
    }

    #[test]
    fn put_get_update_roundtrip() {
        let (_rt, t, mut ctx) = tree();
        assert_eq!(t.get(&mut ctx, 5), None);
        assert_eq!(t.put(&mut ctx, 5, 50), None);
        assert_eq!(t.get(&mut ctx, 5), Some(50));
        assert_eq!(t.put(&mut ctx, 5, 51), Some(50));
        assert_eq!(t.get(&mut ctx, 5), Some(51));
    }

    #[test]
    fn mark_bits_short_circuit_definite_misses() {
        // The CCM only filters while the leaf is protected: without the
        // detector, every leaf is, with a block of exact marks from birth.
        let (_rt, t, mut ctx) = tree_with(EunoConfig::ccm_markbits());
        t.put(&mut ctx, 1, 10);
        let marks = t.pinned(|g| {
            t.chain_plain(g)
                .next()
                .unwrap()
                .ccm(g)
                .unwrap()
                .marks_plain()
        });
        assert_eq!(
            marks,
            1 << Ccm::slot(1, DefaultLeaf::ccm_bits()),
            "the put claimed its mark"
        );
        // A key hashing to an unmarked slot must be answered without
        // entering the lower region: count commits before/after.
        let commits_before = ctx.metric(euno_htm::euno_metrics::Counter::Commits);
        let mut probe = 1000u64;
        while marks & (1 << Ccm::slot(probe, DefaultLeaf::ccm_bits())) != 0 {
            probe += 1;
        }
        assert_eq!(t.get(&mut ctx, probe), None);
        // Only the upper region committed (1 commit, not 2).
        assert_eq!(
            ctx.metric(euno_htm::euno_metrics::Counter::Commits) - commits_before,
            1
        );
    }

    #[test]
    fn fills_one_leaf_then_splits() {
        let (_rt, t, mut ctx) = tree();
        for k in 0..100u64 {
            assert_eq!(t.put(&mut ctx, k, k * 2), None, "insert {k}");
        }
        for k in 0..100u64 {
            assert_eq!(t.get(&mut ctx, k), Some(k * 2), "get {k}");
        }
        // Leaves split: root must now be internal.
        assert!(!NodeRef::from_word(t.ctrl.root.load_plain()).is_leaf());
    }

    #[test]
    fn large_ascending_and_descending_inserts() {
        for descending in [false, true] {
            let (_rt, t, mut ctx) = tree();
            let n = 3_000u64;
            if descending {
                for k in (0..n).rev() {
                    t.put(&mut ctx, k, k + 7);
                }
            } else {
                for k in 0..n {
                    t.put(&mut ctx, k, k + 7);
                }
            }
            for k in 0..n {
                assert_eq!(t.get(&mut ctx, k), Some(k + 7), "key {k} desc={descending}");
            }
            let all = t.collect_all_plain();
            assert_eq!(all.len(), n as usize);
            assert!(all.windows(2).all(|w| w[0].0 < w[1].0), "leaf chain sorted");
        }
    }

    #[test]
    fn random_inserts_match_model() {
        // The default tree's twin is `read_opt_matches_model_under_mixed_ops`.
        let (_rt, t, mut ctx) = paper_tree();
        let mut model = BTreeMap::new();
        let mut state = 0x243F6A8885A308D3u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..30_000 {
            let key = rnd() % 800;
            match rnd() % 10 {
                0..=4 => {
                    let v = rnd() % 1_000_000;
                    assert_eq!(t.put(&mut ctx, key, v), model.insert(key, v), "put {key}");
                }
                5..=6 => {
                    assert_eq!(t.delete(&mut ctx, key), model.remove(&key), "del {key}");
                }
                _ => {
                    assert_eq!(t.get(&mut ctx, key), model.get(&key).copied(), "get {key}");
                }
            }
        }
        let all = t.collect_all_plain();
        let expect: Vec<(u64, u64)> = model.into_iter().collect();
        assert_eq!(all, expect);
    }

    #[test]
    fn delete_then_reinsert_and_compaction() {
        let (_rt, t, mut ctx) = tree();
        for k in 0..16u64 {
            t.put(&mut ctx, k, k);
        }
        for k in 0..8u64 {
            assert_eq!(t.delete(&mut ctx, k), Some(k));
        }
        assert_eq!(t.delete_count(), 8);
        // Tombstones freed at reorganization: inserting more keys must not
        // grow the tree unnecessarily.
        for k in 100..108u64 {
            assert_eq!(t.put(&mut ctx, k, k), None);
        }
        for k in 0..8u64 {
            assert_eq!(t.get(&mut ctx, k), None);
        }
        for k in 8..16u64 {
            assert_eq!(t.get(&mut ctx, k), Some(k));
        }
    }

    #[test]
    fn scan_is_sorted_and_skips_tombstones() {
        let (_rt, t, mut ctx) = tree();
        for k in 0..500u64 {
            t.put(&mut ctx, k, k * 3);
        }
        t.delete(&mut ctx, 120);
        t.delete(&mut ctx, 121);
        let mut out = Vec::new();
        let n = t.scan(&mut ctx, 118, 6, &mut out);
        assert_eq!(n, 6);
        let keys: Vec<u64> = out.iter().map(|(k, _)| *k).collect();
        assert_eq!(keys, vec![118, 119, 122, 123, 124, 125]);
        assert!(out.iter().all(|(k, v)| *v == k * 3));
    }

    #[test]
    fn scan_whole_tree_matches_collect() {
        let (_rt, t, mut ctx) = tree();
        for k in (0..400u64).rev() {
            t.put(&mut ctx, k, k);
        }
        let mut out = Vec::new();
        let n = t.scan(&mut ctx, 0, usize::MAX, &mut out);
        assert_eq!(n, 400);
        assert_eq!(out, t.collect_all_plain());
    }

    #[test]
    fn unpartitioned_variant_works() {
        let rt = Runtime::new_virtual();
        let t: EunoBTreeUnpartitioned =
            EunoBTree::with_config(Arc::clone(&rt), EunoConfig::split_htm_only());
        let mut ctx = rt.thread(3);
        for k in 0..2_000u64 {
            t.put(&mut ctx, k * 3 % 2_000, k);
        }
        for k in 0..2_000u64 {
            assert!(t.get(&mut ctx, k).is_some(), "key {k}");
        }
    }

    #[test]
    fn all_ablation_configs_are_correct() {
        for cfg in [
            EunoConfig::part_leaf(),
            EunoConfig::ccm_lockbits(),
            EunoConfig::ccm_markbits(),
            EunoConfig::full(),
        ] {
            let rt = Runtime::new_virtual();
            let t: EunoBTreeDefault = EunoBTree::with_config(Arc::clone(&rt), cfg.clone());
            let mut ctx = rt.thread(5);
            let mut model = BTreeMap::new();
            let mut state = 11_400_714_819_323_198_485u64;
            let mut rnd = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state >> 11
            };
            for _ in 0..4_000 {
                let key = rnd() % 300;
                if rnd() % 2 == 0 {
                    let v = rnd() % 9_999;
                    assert_eq!(t.put(&mut ctx, key, v), model.insert(key, v));
                } else {
                    assert_eq!(t.get(&mut ctx, key), model.get(&key).copied());
                }
            }
            assert_eq!(
                t.collect_all_plain(),
                model.into_iter().collect::<Vec<_>>(),
                "config {cfg:?}"
            );
        }
    }

    #[test]
    fn adaptive_bypass_lifecycle() {
        let (_rt, t, mut ctx) = paper_tree();
        t.put(&mut ctx, 1, 1);
        // The first leaf: the root now, the head of the chain after splits.
        t.pinned(|g| {
            let leaf = t.chain_plain(g).next().unwrap();
            // Fresh leaves start bypassed (no contention history, no CCM
            // block)…
            assert!(leaf.ccm(g).is_none());
            // …split-born nodes inherit that, so a calm load stays bypassed…
            for k in 0..100u64 {
                t.put(&mut ctx, k, k);
            }
            assert_eq!(t.stats().bypassed_fraction, 1.0);
            // …and calm traffic on a bypassed leaf gives it no block, so
            // opens no detector window.
            assert_eq!(t.memory().ccm_bytes, 0);
            // A protected leaf earns its bypass back with one calm window of
            // operations that ran under its lock bits.
            t.protect_plain(leaf);
            let block = leaf.ccm(g).unwrap();
            for _ in 0..crate::ccm::ADAPTIVE_WINDOW - 1 {
                t.get(&mut ctx, 1);
                assert!(!block.bypass_plain());
            }
            t.get(&mut ctx, 1);
            assert!(block.bypass_plain(), "calm leaf must bypass CCM");
            assert_eq!(block.epoch_plain(), 1);
            assert_eq!(t.get(&mut ctx, 1), Some(1));
            assert_eq!(t.get(&mut ctx, 999_999), None);
        });
    }

    #[test]
    fn concurrent_threads_no_lost_updates() {
        for cfg in [EunoConfig::paper(), EunoConfig::default()] {
            let rt = Runtime::new_concurrent();
            let t = EunoBTreeDefault::with_config(Arc::clone(&rt), cfg);
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
            let mut ctx = rt.thread(99);
            for key in 0..threads * per {
                assert_eq!(t.get(&mut ctx, key), Some(key + 1), "key {key}");
            }
            let all = t.collect_all_plain();
            assert_eq!(all.len(), (threads * per) as usize);
        }
    }

    #[test]
    fn concurrent_same_hot_keys_converge() {
        let rt = Runtime::new_concurrent();
        let t = EunoBTreeDefault::new(Arc::clone(&rt));
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let t = &t;
                let mut ctx = rt.thread(tid);
                s.spawn(move || {
                    for i in 0..600u64 {
                        t.put(&mut ctx, i % 8, tid * 10_000 + i);
                    }
                });
            }
        });
        // Every hot key must hold one of the written values.
        let mut ctx = rt.thread(99);
        for k in 0..8u64 {
            let v = t.get(&mut ctx, k).expect("hot key present");
            assert!(v % 10_000 < 600);
        }
    }

    #[test]
    fn interleaved_scans_and_inserts_never_overflow_reserved() {
        // Regression: a scan used to cache oversize merges (> fanout) into
        // the reserved buffer, letting the next reorganization overflow
        // its capacity. Dense inserts interleaved with scans hit exactly
        // that pattern; debug assertions in write_sorted catch overflow.
        let (_rt, t, mut ctx) = tree();
        let mut expect = std::collections::BTreeMap::new();
        for k in 0..600u64 {
            t.put(&mut ctx, k % 97, k);
            expect.insert(k % 97, k);
            if k % 10 == 7 {
                let mut out = Vec::new();
                t.scan(&mut ctx, 0, usize::MAX, &mut out);
                let want: Vec<(u64, u64)> = expect.iter().map(|(&a, &b)| (a, b)).collect();
                assert_eq!(out, want, "after {k} ops");
            }
        }
        assert_eq!(
            t.collect_all_plain(),
            expect.into_iter().collect::<Vec<_>>()
        );
    }

    #[test]
    fn read_opt_matches_model_under_mixed_ops() {
        let (_rt, t, mut ctx) = tree();
        assert_eq!(t.name(), "Euno-ReadOpt");
        let mut model = BTreeMap::new();
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rnd = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20_000 {
            let key = rnd() % 600;
            match rnd() % 10 {
                0..=3 => {
                    let v = rnd() % 1_000_000;
                    assert_eq!(t.put(&mut ctx, key, v), model.insert(key, v), "put {key}");
                }
                4..=5 => {
                    assert_eq!(t.delete(&mut ctx, key), model.remove(&key), "del {key}");
                }
                _ => {
                    assert_eq!(t.get(&mut ctx, key), model.get(&key).copied(), "get {key}");
                }
            }
        }
        assert_eq!(t.collect_all_plain(), model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn read_opt_gets_survive_concurrent_writers() {
        // Episode-free readers race writers that split leaves and move
        // records: every get must return a value some put wrote for that
        // key (or miss while the key is genuinely absent).
        let rt = Runtime::new_concurrent();
        let t = EunoBTreeDefault::new(Arc::clone(&rt));
        {
            let mut ctx = rt.thread(0);
            for k in 0..2_000u64 {
                t.put(&mut ctx, k, k + 1);
            }
        }
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            for w in 0..2u64 {
                let (t, stop) = (&t, &stop);
                let rt = Arc::clone(&rt);
                s.spawn(move || {
                    let mut ctx = rt.thread(10 + w);
                    let mut i = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        // Updates keep the value recognizable; fresh keys
                        // force splits under the readers.
                        t.put(&mut ctx, i % 2_000, (i % 2_000) + 1);
                        t.put(&mut ctx, 10_000 + (i * 7 + w) % 4_000, 1);
                        i += 1;
                    }
                });
            }
            for r in 0..2u64 {
                let t = &t;
                let rt = Arc::clone(&rt);
                s.spawn(move || {
                    let mut ctx = rt.thread(20 + r);
                    for i in 0..30_000u64 {
                        let k = (i * 31 + r) % 2_000;
                        assert_eq!(t.get(&mut ctx, k), Some(k + 1), "stable key {k}");
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(80));
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
    }

    #[test]
    fn read_opt_scans_survive_churn_and_merges() {
        // Scans race a delete-heavy mutator plus maintenance merges that
        // retire leaves mid-walk: output must stay strictly ascending and
        // every stable key must keep appearing.
        let rt = Runtime::new_concurrent();
        let t = EunoBTreeDefault::new(Arc::clone(&rt));
        {
            let mut ctx = rt.thread(0);
            for k in 0..3_000u64 {
                t.put(&mut ctx, k, k);
            }
        }
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            {
                let (t, stop) = (&t, &stop);
                let rt = Arc::clone(&rt);
                s.spawn(move || {
                    let mut ctx = rt.thread(10);
                    let mut i = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        // Churn odd keys only: evens are the stable floor.
                        let k = 1 + 2 * (i % 1_500);
                        if i.is_multiple_of(3) {
                            t.put(&mut ctx, k, k);
                        } else {
                            t.delete(&mut ctx, k);
                        }
                        if i % 512 == 511 {
                            t.maintain(&mut ctx);
                        }
                        i += 1;
                    }
                });
            }
            for r in 0..2u64 {
                let t = &t;
                let rt = Arc::clone(&rt);
                s.spawn(move || {
                    let mut ctx = rt.thread(20 + r);
                    let mut out = Vec::new();
                    for i in 0..300u64 {
                        out.clear();
                        let from = (i * 53) % 2_500;
                        let n = t.scan(&mut ctx, from, 64, &mut out);
                        assert_eq!(n, out.len());
                        assert!(
                            out.windows(2).all(|w| w[0].0 < w[1].0),
                            "read-opt scan must stay strictly ascending"
                        );
                        assert!(out.iter().all(|&(k, _)| k >= from));
                        // Every even key in the delivered range must be
                        // present (they are never touched).
                        if let (Some(&(lo, _)), Some(&(hi, _))) = (out.first(), out.last()) {
                            let evens: Vec<u64> =
                                out.iter().map(|&(k, _)| k).filter(|k| k % 2 == 0).collect();
                            let want: Vec<u64> = (lo..=hi).filter(|k| k % 2 == 0).collect();
                            assert_eq!(evens, want, "stable keys missing from [{lo}, {hi}]");
                        }
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(80));
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        let mut ctx = rt.thread(99);
        for k in (0..3_000u64).step_by(2) {
            assert_eq!(t.get(&mut ctx, k), Some(k), "stable key {k}");
        }
    }

    #[test]
    fn memory_report_accounts_ccm_and_reserved() {
        // Without the detector every leaf carries a block: one line each.
        let (_rt, t, mut ctx) = tree_with(EunoConfig::ccm_markbits());
        for k in 0..2_000u64 {
            t.put(&mut ctx, k, k);
        }
        let m = t.memory();
        assert!(m.structural_bytes > 0);
        assert_eq!(
            m.ccm_bytes,
            t.stats().leaves * Ccm::BYTES,
            "CCM bytes counted"
        );
        assert!(m.reserved_peak_bytes > 0, "splits allocate reserved bufs");
        assert!(
            m.ccm_bytes < m.structural_bytes / 4,
            "CCM overhead stays small: {} vs {}",
            m.ccm_bytes,
            m.structural_bytes
        );
        // With it, a calm load earns none.
        let (_rt, t, mut ctx) = tree();
        for k in 0..2_000u64 {
            t.put(&mut ctx, k, k);
        }
        assert_eq!(t.memory().ccm_bytes, 0);
    }
}
