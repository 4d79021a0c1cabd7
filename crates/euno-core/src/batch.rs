//! Group-commit batch execution for the euno-serve front-end.
//!
//! A shard worker drains up to `batch_max` queued point requests and runs
//! them through shared episodes instead of one upper + one lower region
//! per request:
//!
//! 1. the batch is key-sorted by the caller, then taken in *chunks* of up
//!    to [`UPPER_CHUNK`] keys. The chunk's upper stage is the single-op
//!    one, once per leaf: [`EunoBTree::locate`] yields the target leaf and
//!    the key range it covers, and the chunk's following keys inside that
//!    range take the same leaf. On `read_opt` trees a get
//!    whose result cannot be reordered against an earlier same-key op is
//!    then answered outright by the episode-free leaf read;
//! 2. consecutive ops that landed on the same leaf form a *group*; the
//!    CCM stage (slot locks, mark bits, fast-miss filtering) runs once
//!    per group over the deduplicated slot set, and a single lower region
//!    applies every remaining op in the group, each checking its key
//!    against the leaf's fence on its home segment, as a single op's lower
//!    region does (every op's home is computed once, in step 1);
//! 3. anything the shared episodes cannot finish safely — a key at or
//!    above the fence (found by the group's episode, or already by an
//!    early get's leaf read, which then keeps its cell out of the group),
//!    an insert that would split — *bails to singles*: the
//!    op re-runs through the ordinary `traverse`
//!    path at the end of the batch.
//!
//! Safety notes mirroring the single-op path:
//!
//! * The whole batch runs under one epoch pin, so leaf pointers handed
//!   from upper to lower episodes survive concurrent merges.
//! * The group's conflict-control stage is the single-op one
//!   (`EunoBTree::ccm_enter` … `EunoBTree::ccm_leave`) over the
//!   group's *deduplicated* slot set (two ops can hash to one slot;
//!   re-acquiring a held CCM bit would self-deadlock), opened before the
//!   episode and closed after it.
//! * Every op's fence check runs inside the episode, after the ops before
//!   it: a split of our own (a fallback-path insert) lowers the fence, and
//!   the ops it took the range of bail rather than run against a leaf
//!   that no longer covers them. A reorganization moves records, not the
//!   range, and the ops after it run on the reorganized leaf. The check
//!   reads the line the op's search reads first.
//! * A group whose puts cannot all fit (`occupied + puts_in_group >
//!   capacity`) sends them to the single-op path *before* the episode.
//!   That is an economy, not the guarantee: the lower region never splits
//!   (`lower_body` returns `NeedSplitLock` and the rest of the group
//!   bails), so shared episodes stay split-free on the HTM path anyway.

use euno_htm::{EventKind, RetryPolicy, ThreadCtx};

use crate::ccm::Ccm;
use crate::node::{EunoLeaf, Guard, NodeRef};
use crate::segment::{KeyPad, Keys};
use crate::structural::LowerRegion;
use crate::traverse::{LeafRead, Located};
use crate::tree::{assert_storable, EunoBTree, Lower, Req};

/// Max keys located before their groups run: bounds how stale a located
/// leaf can be when its lower episode opens — a leaf is shared along its
/// keys only inside a chunk, so a group that split its own leaf costs the
/// keys behind it one re-locate, not a bail — and sizes the fixed
/// per-chunk buffers.
pub const UPPER_CHUNK: usize = 8;

/// One point request in a batch. Scans don't batch — they have no single
/// leaf to group on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BatchOp {
    Get { key: u64 },
    Put { key: u64, value: u64 },
    Delete { key: u64 },
}

impl BatchOp {
    #[inline]
    pub fn key(&self) -> u64 {
        match *self {
            BatchOp::Get { key } | BatchOp::Put { key, .. } | BatchOp::Delete { key } => key,
        }
    }

    #[inline]
    fn req(&self) -> Req {
        match self {
            BatchOp::Get { .. } => Req::Get,
            BatchOp::Put { .. } => Req::Put,
            BatchOp::Delete { .. } => Req::Delete,
        }
    }

    #[inline]
    fn newval(&self) -> u64 {
        match *self {
            BatchOp::Put { value, .. } => value,
            _ => 0,
        }
    }
}

/// What one batch did — the serve worker folds these into its metrics.
#[derive(Clone, Copy, Debug, Default)]
pub struct BatchStats {
    /// Gets answered outright during the upper stage (`read_opt` trees
    /// only).
    pub opt_gets: u64,
    /// Shared lower episodes (one per leaf group that reached step 3).
    pub lower_episodes: u64,
    /// Same-leaf groups executed (groups fully answered by the
    /// optimistic upper stage are skipped and not counted).
    pub groups: u64,
    /// Ops answered by the CCM mark-bit filter without a lower episode.
    pub fast_misses: u64,
    /// Ops that bailed out of shared episodes and re-ran individually.
    pub singles: u64,
    /// Conflict aborts across the upper stage and all shared episodes
    /// (the repo benchmark's ladder reports them per op).
    pub conflict_aborts: u64,
}

/// Reusable buffers so steady-state batches never allocate. One per
/// worker thread; capacities warm up on the first few batches.
#[derive(Default)]
pub struct BatchScratch {
    /// Deduplicated, sorted CCM slots of the current group.
    slots: Vec<u32>,
    /// Indices (into the batch) of ops that bailed to singles.
    singles: Vec<u32>,
}

/// What the chunk's upper stage left of one op.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Upper {
    /// Located; for the leaf's group to apply.
    Group,
    /// A get the episode-free leaf read answered: done, published.
    Early,
    /// A get whose leaf read found the key at or above the fence: the
    /// leaf is known not to cover it, so the op goes to the singles pass
    /// without joining a group.
    Moved,
}

/// Per-op position within a chunk after the upper episode.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Cell {
    /// Not yet applied; eligible for the group's lower episode.
    Pending,
    /// Resolved before the lower episode (fast miss).
    Resolved,
    /// Applied by the lower episode.
    Done,
    /// Must re-run through the single-op path.
    Single,
}

impl<const SEGS: usize, const K: usize> EunoBTree<SEGS, K>
where
    Keys<K>: KeyPad,
{
    /// Execute `ops` — **sorted by key** (stable for duplicates) — as
    /// shared group-commit episodes, writing each op's result (the
    /// previous value, `None` for misses) to the same index of `out`.
    ///
    /// Each op is individually linearizable, exactly as if issued through
    /// [`ConcurrentMap`](euno_htm::ConcurrentMap); the batch as a whole
    /// is *not* atomic. Duplicate keys apply in slice order.
    pub fn apply_batch(
        &self,
        ctx: &mut ThreadCtx,
        ops: &[BatchOp],
        out: &mut Vec<Option<u64>>,
        scratch: &mut BatchScratch,
    ) -> BatchStats {
        debug_assert!(ops.windows(2).all(|w| w[0].key() <= w[1].key()));
        for op in ops {
            if let BatchOp::Put { key, value } = *op {
                assert_storable(key, value);
            }
        }
        let mut stats = BatchStats::default();
        out.clear();
        out.resize(ops.len(), None);
        scratch.singles.clear();

        ctx.pinned(|ctx, nodes| {
            // Per-key program order across the batch: once any op on a key
            // bails to the (deferred) singles pass, every later op on that
            // key must bail too. The slice is key-sorted, so duplicates of a
            // key are adjacent and a single watermark carries across group
            // and chunk boundaries.
            let mut bailed_key: Option<u64> = None;
            // Carried across chunks: `(key, chain)` for the last op seen,
            // where `chain` holds while every op so far on that key was an
            // early-resolved get — the condition under which the next get on
            // the key may also resolve during the upper stage without
            // reordering against a pending write or a deferred single.
            let mut run: Option<(u64, bool)> = None;
            let mut base = 0;
            while base < ops.len() {
                let chunk = &ops[base..(base + UPPER_CHUNK).min(ops.len())];

                // Step 1: the chunk's leaves, and its early gets — finished
                // operations, published before the group stage (which skips
                // their cells).
                let mut leaves = [(0u64, 0u32); UPPER_CHUNK];
                let mut homes = [0usize; UPPER_CHUNK];
                let mut upper = [Upper::Group; UPPER_CHUNK];
                // Where the previous key was located, while that leaf is good
                // for reuse: a key inside its range is on the same leaf (same
                // pin, so nothing needs re-checking before the group does).
                let mut prev: Option<Located<'_, SEGS, K>> = None;
                for (j, op) in chunk.iter().enumerate() {
                    let key = op.key();
                    let home = self.home(ctx, key);
                    homes[j] = home;
                    let chain = match run {
                        Some((k, c)) if k == key => c,
                        _ => true,
                    };
                    let early_ok = self.cfg.read_opt
                        && op.req() == Req::Get
                        && chain
                        && bailed_key != Some(key);
                    let found = match prev.take() {
                        // One walk's conflicts are counted once.
                        Some(prev) if prev.covers(key) => Located {
                            conflicts: 0,
                            ..prev
                        },
                        _ => {
                            let found = self.locate_then(ctx, nodes, key, home, |_, _| ()).0;
                            stats.conflict_aborts += u64::from(found.conflicts);
                            found
                        }
                    };
                    leaves[j] = (NodeRef::of_leaf(found.leaf).to_word(), found.conflicts);
                    if early_ok {
                        match self.read_leaf(ctx, found.leaf, key, home) {
                            LeafRead::Value(value) => {
                                out[base + j] = value;
                                stats.opt_gets += 1;
                                upper[j] = Upper::Early;
                            }
                            LeafRead::Moved => upper[j] = Upper::Moved,
                            LeafRead::Spent => {}
                        }
                    }
                    run = Some((key, upper[j] == Upper::Early));
                    prev = (upper[j] != Upper::Moved).then_some(found);
                }

                // Step 2+3: same-leaf runs become groups.
                let mut g = 0;
                while g < chunk.len() {
                    if upper[g] == Upper::Moved {
                        // Only now, with every earlier cell's group run, may
                        // the per-key watermark move on to this key.
                        scratch.singles.push((base + g) as u32);
                        bailed_key = Some(chunk[g].key());
                        g += 1;
                        continue;
                    }
                    let bits = leaves[g].0;
                    let mut h = g + 1;
                    while h < chunk.len() && upper[h] != Upper::Moved && leaves[h].0 == bits {
                        h += 1;
                    }
                    if upper[g..h].iter().all(|&u| u == Upper::Early) {
                        // The whole group was answered episode-free.
                        g = h;
                        continue;
                    }
                    self.exec_group(
                        ctx,
                        nodes,
                        &chunk[g..h],
                        &homes[g..h],
                        base + g,
                        nodes.leaf(NodeRef::from_word(bits)),
                        leaves[g..h].iter().map(|l| l.1).sum(),
                        &upper[g..h],
                        &mut bailed_key,
                        out,
                        scratch,
                        &mut stats,
                    );
                    g = h;
                }
                base += chunk.len();
            }

            // Bailed ops re-run through the ordinary single-op path (still
            // under the batch's epoch pin, like `traverse` would pin itself).
            stats.singles = scratch.singles.len() as u64;
            for &idx in &scratch.singles {
                let op = &ops[idx as usize];
                out[idx as usize] =
                    self.traverse_pinned(ctx, nodes, op.req(), op.key(), op.newval());
            }
        });

        if ctx.tracing() {
            ctx.trace(EventKind::BatchExec {
                ops: ops.len() as u32,
                batched: (ops.len() as u64 - stats.singles) as u32,
            });
        }
        stats
    }

    /// CCM stage + one lower episode for a same-leaf group
    /// (`ops[0..n]` at batch offset `batch_off`). Cells the upper stage
    /// answered ([`Upper::Early`]) are skipped throughout; cells whose leaf
    /// it found moved away ([`Upper::Moved`]) never get here.
    #[allow(clippy::too_many_arguments)]
    fn exec_group(
        &self,
        ctx: &mut ThreadCtx,
        g: Guard<'_, SEGS, K>,
        ops: &[BatchOp],
        homes: &[usize],
        batch_off: usize,
        leaf: &EunoLeaf<SEGS, K>,
        upper_conflicts: u32,
        upper: &[Upper],
        bailed_key: &mut Option<u64>,
        out: &mut [Option<u64>],
        scratch: &mut BatchScratch,
        stats: &mut BatchStats,
    ) {
        stats.groups += 1;
        let mut cells = [Cell::Pending; UPPER_CHUNK];
        let n = ops.len();
        let mut active = 0u64;
        for j in 0..n {
            debug_assert!(upper[j] != Upper::Moved);
            if upper[j] == Upper::Early {
                cells[j] = Cell::Resolved;
            } else {
                active += 1;
            }
        }

        // ---- Conflict-control stage (outside any region). ----------
        ctx.charge(self.rt.cost.alu * 3 * active); // slot hashes

        // Puts that are certain to need a split bail before the episode.
        // This filter is purely an economy: the lower region never splits
        // regardless (`lower_body` returns `NeedSplitLock` and the rest
        // of the group bails), so it only needs to catch the hopeless
        // case — more new records than free capacity — not every
        // near-full leaf. Over-firing here is what it must avoid: each
        // false positive re-runs a put through the full two-episode
        // single path.
        let puts = ops.iter().filter(|o| o.req() == Req::Put).count();
        if puts > 0 && leaf.occupied_direct(ctx) + puts > Self::capacity() {
            for (j, op) in ops.iter().enumerate() {
                if op.req() == Req::Put {
                    cells[j] = Cell::Single;
                }
            }
        }
        // Enforce the cross-batch per-key order (see `apply_batch`): an
        // op whose key already has a bailed predecessor — in an earlier
        // group, or just above — must defer behind it.
        let mut prev_bailed = false;
        for (j, op) in ops.iter().enumerate() {
            if j == 0 || op.key() != ops[j - 1].key() {
                prev_bailed = *bailed_key == Some(op.key());
            }
            if prev_bailed && cells[j] == Cell::Pending {
                cells[j] = Cell::Single;
            }
            prev_bailed = prev_bailed || cells[j] == Cell::Single;
        }

        // One stage for the group, over its deduplicated slot set. Puts
        // claim existence even when they bail to singles: the mark vector
        // must stay a superset of live keys.
        scratch.slots.clear();
        let mut slot_of = [0u32; UPPER_CHUNK];
        let mut claims = 0u64;
        for (j, op) in ops.iter().enumerate() {
            if cells[j] != Cell::Resolved {
                slot_of[j] = Ccm::slot(op.key(), Self::ccm_bits());
                scratch.slots.push(slot_of[j]);
                claims |= u64::from(op.req() == Req::Put) << slot_of[j];
            }
        }
        scratch.slots.sort_unstable();
        scratch.slots.dedup();
        let stage = self.ccm_enter(ctx, g, leaf, &scratch.slots, claims);
        for (j, op) in ops.iter().enumerate() {
            if cells[j] == Cell::Pending && op.req() != Req::Put && stage.definite_miss(slot_of[j])
            {
                out[batch_off + j] = None;
                cells[j] = Cell::Resolved;
                stats.fast_misses += 1;
            }
        }

        // ---- One lower episode for everything still pending. -------
        let pending = cells[..n].iter().filter(|&&c| c == Cell::Pending).count();
        let mut lower_conflicts = 0;
        if pending > 0 {
            let mut region = LowerRegion::new(false);
            let res = ctx.htm_execute(&self.ctrl.fallback, &RetryPolicy::DBX, |tx| {
                self.hand_back(g, &mut region.unpublished);
                tx.set_op_key(ops[0].key());
                if stage.locked() {
                    // Same-record contenders queue on the CCM lock bits
                    // (§4.1), exactly as in the single-op path.
                    tx.mark_serialized();
                }
                let mut applied: [Option<Option<u64>>; UPPER_CHUNK] = [None; UPPER_CHUNK];
                for (j, op) in ops.iter().enumerate() {
                    if cells[j] != Cell::Pending {
                        continue;
                    }
                    tx.set_op_key(op.key());
                    let (req, key, newval) = (op.req(), op.key(), op.newval());
                    match self.lower_body(tx, g, leaf, req, key, homes[j], newval, &mut region)? {
                        Lower::Done(v) => applied[j] = Some(v),
                        // Reads only up to this point; this op and the
                        // rest of the group retry as singles.
                        Lower::NeedSplitLock | Lower::Inconsistent => break,
                    }
                }
                Ok(applied)
            });
            stats.lower_episodes += 1;
            stats.conflict_aborts += u64::from(res.conflict_aborts);
            lower_conflicts = res.conflict_aborts;
            for j in 0..n {
                if let (Cell::Pending, Some(v)) = (cells[j], res.value[j]) {
                    out[batch_off + j] = v;
                    cells[j] = Cell::Done;
                }
            }
        }

        self.ccm_leave(ctx, g, leaf, stage, upper_conflicts + lower_conflicts);

        // Post-episode bookkeeping, outside the locks (as in `traverse`):
        // applied deletes count toward the rebalance trigger and lend an
        // armed sweep a slice, and every op the shared episode couldn't
        // finish is queued.
        for (j, op) in ops.iter().enumerate() {
            match cells[j] {
                Cell::Done => {
                    if op.req() == Req::Delete && out[batch_off + j].is_some() {
                        self.after_delete(ctx);
                    }
                }
                Cell::Pending | Cell::Single => {
                    scratch.singles.push((batch_off + j) as u32);
                    *bailed_key = Some(op.key());
                }
                Cell::Resolved => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tree::EunoBTreeDefault;
    use euno_htm::{ConcurrentMap, Runtime};
    use euno_rng::SmallRng;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    fn sorted(mut ops: Vec<BatchOp>) -> Vec<BatchOp> {
        ops.sort_by_key(|o| o.key());
        ops
    }

    /// Seeded randomized equivalence: batches against a model map. Covers
    /// duplicates-in-batch, fast misses, near-full bail-to-singles and
    /// grouping across both virtual and concurrent runtimes.
    fn batch_matches_serial(rt: Arc<Runtime>, cfg: crate::EunoConfig) {
        let read_opt = cfg.read_opt;
        let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), cfg);
        let mut ctx = rt.thread(0xBA7C);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rng = SmallRng::seed_from_u64(0x5EED_BA7C);
        let mut out = Vec::new();
        let mut scratch = BatchScratch::default();

        for round in 0..200u64 {
            let len = rng.gen_range(1..40u64) as usize;
            let mut ops = Vec::with_capacity(len);
            for _ in 0..len {
                let key = rng.gen_range(0..300u64);
                ops.push(match rng.gen_range(0..10u32) {
                    0..=4 => BatchOp::Put {
                        key,
                        value: round * 1000 + key,
                    },
                    5..=7 => BatchOp::Get { key },
                    _ => BatchOp::Delete { key },
                });
            }
            let ops = sorted(ops);
            let stats = tree.apply_batch(&mut ctx, &ops, &mut out, &mut scratch);
            assert!(read_opt || stats.opt_gets == 0);
            for (op, got) in ops.iter().zip(&out) {
                let want = match *op {
                    BatchOp::Get { key } => model.get(&key).copied(),
                    BatchOp::Put { key, value } => model.insert(key, value),
                    BatchOp::Delete { key } => model.remove(&key),
                };
                assert_eq!(*got, want, "round {round} op {op:?}");
            }
        }
        // Final state identical to the model.
        for (&k, &v) in &model {
            assert_eq!(tree.get(&mut ctx, k), Some(v));
        }
    }

    #[test]
    fn batch_matches_serial_virtual() {
        batch_matches_serial(Runtime::new_virtual(), crate::EunoConfig::paper());
    }

    #[test]
    fn batch_matches_serial_concurrent() {
        batch_matches_serial(Runtime::new_concurrent(), crate::EunoConfig::paper());
    }

    /// The default tree additionally routes eligible gets through the
    /// episode-free early-resolution path; the model equivalence
    /// (including put-then-get and get-then-put adjacency on one key)
    /// must be preserved bit-for-bit.
    #[test]
    fn batch_matches_serial_read_opt_virtual() {
        batch_matches_serial(Runtime::new_virtual(), crate::EunoConfig::default());
    }

    #[test]
    fn batch_matches_serial_read_opt_concurrent() {
        batch_matches_serial(Runtime::new_concurrent(), crate::EunoConfig::default());
    }

    /// A batch refuses the puts `put` refuses: a value that reads as a
    /// tombstone (stored, it would make `get` answer `None`) and a key
    /// that reads as a free slot (stored, it would hide every record after
    /// it in its segment).
    #[test]
    #[should_panic(expected = "the value not TOMBSTONE")]
    fn batch_rejects_a_tombstone_value() {
        use euno_htm::TOMBSTONE;
        let rt = Runtime::new_virtual();
        let tree = EunoBTreeDefault::new(Arc::clone(&rt));
        let mut ctx = rt.thread(1);
        let ops = [BatchOp::Put {
            key: 5,
            value: TOMBSTONE,
        }];
        let (mut out, mut scratch) = (Vec::new(), BatchScratch::default());
        tree.apply_batch(&mut ctx, &ops, &mut out, &mut scratch);
    }

    #[test]
    #[should_panic(expected = "the key must be below KEY_SENTINEL")]
    fn batch_rejects_the_sentinel_key() {
        use euno_htm::KEY_SENTINEL;
        let rt = Runtime::new_virtual();
        let tree = EunoBTreeDefault::new(Arc::clone(&rt));
        let mut ctx = rt.thread(1);
        let ops = [
            BatchOp::Get { key: 3 },
            BatchOp::Put {
                key: KEY_SENTINEL,
                value: 9,
            },
        ];
        let (mut out, mut scratch) = (Vec::new(), BatchScratch::default());
        tree.apply_batch(&mut ctx, &ops, &mut out, &mut scratch);
    }

    #[test]
    fn batch_into_growing_tree_splits_via_singles() {
        // Monotone bulk inserts keep hitting near-full leaves, so the
        // pre-episode filter must route them to singles and the tree must
        // still split correctly.
        let rt = Runtime::new_concurrent();
        let tree = EunoBTreeDefault::new(Arc::clone(&rt));
        let mut ctx = rt.thread(1);
        let mut out = Vec::new();
        let mut scratch = BatchScratch::default();
        let mut singles = 0;
        for base in (0..4096u64).step_by(32) {
            let ops: Vec<BatchOp> = (base..base + 32)
                .map(|key| BatchOp::Put {
                    key,
                    value: key * 2,
                })
                .collect();
            let stats = tree.apply_batch(&mut ctx, &ops, &mut out, &mut scratch);
            singles += stats.singles;
            assert!(out.iter().all(|v| v.is_none()));
        }
        assert!(singles > 0, "bulk inserts never exercised the bail path");
        for key in (0..4096u64).step_by(97) {
            assert_eq!(tree.get(&mut ctx, key), Some(key * 2));
        }
    }

    #[test]
    fn batched_deletes_trigger_rebalance() {
        use euno_htm::euno_metrics::Counter;
        let rt = Runtime::new_virtual();
        let tree = EunoBTreeDefault::with_config(
            Arc::clone(&rt),
            crate::EunoConfig {
                rebalance_delete_threshold: 100,
                ..crate::EunoConfig::default()
            },
        );
        let mut ctx = rt.thread(2);
        for key in 0..512u64 {
            tree.put(&mut ctx, key, key);
        }
        let mut out = Vec::new();
        let mut scratch = BatchScratch::default();
        for base in (0..512u64).step_by(16) {
            let ops: Vec<BatchOp> = (base..base + 16)
                .map(|key| BatchOp::Delete { key })
                .collect();
            tree.apply_batch(&mut ctx, &ops, &mut out, &mut scratch);
            assert!(out
                .iter()
                .enumerate()
                .all(|(i, v)| *v == Some(base + i as u64)));
        }
        // Everything gone, and the batched deletes armed sweeps at every
        // 100th and carried them to the end of the chain in slices.
        for key in (0..512u64).step_by(31) {
            assert_eq!(tree.get(&mut ctx, key), None);
        }
        assert!(ctx.metric(Counter::SweepSlices) > 1);
        assert!(ctx.metric(Counter::SweepMerges) > 0);
        assert!(!tree.sweep_pending());
    }
}

#[cfg(test)]
mod perf_probe {
    use super::*;
    use crate::tree::EunoBTreeDefault;
    use euno_htm::{ConcurrentMap, Runtime};
    use euno_rng::SmallRng;
    use std::sync::Arc;

    #[test]
    #[ignore = "manual perf probe: cargo test -p euno-core --release -- --ignored probe_batch"]
    fn probe_batch_vs_single() {
        for (name, cfg) in [
            ("paper", crate::EunoConfig::paper()),
            ("default", crate::EunoConfig::default()),
        ] {
            let rt = Runtime::new_concurrent();
            let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), cfg);
            let mut ctx = rt.thread(7);
            // Preload the whole keyspace: the mixed phases below then
            // measure steady-state updates, not one-time insert/split
            // work that would land on whichever phase runs first.
            let keys = 200_000u64;
            for k in 0..keys {
                tree.put(&mut ctx, k, k + 1);
            }
            let rounds = 20_000usize;
            let batch = 32usize;

            let mut rng = SmallRng::seed_from_u64(9);
            let mut ops: Vec<BatchOp> = Vec::new();
            let mut out = Vec::new();
            let mut scratch = BatchScratch::default();

            let t0 = std::time::Instant::now();
            let mut agg = BatchStats::default();
            for _ in 0..rounds {
                ops.clear();
                for _ in 0..batch {
                    ops.push(BatchOp::Get {
                        key: rng.gen_range(0..keys),
                    });
                }
                ops.sort_unstable_by_key(|o| o.key());
                let st = tree.apply_batch(&mut ctx, &ops, &mut out, &mut scratch);
                agg.opt_gets += st.opt_gets;
                agg.lower_episodes += st.lower_episodes;
                agg.groups += st.groups;
                agg.fast_misses += st.fast_misses;
                agg.singles += st.singles;
                agg.conflict_aborts += st.conflict_aborts;
            }
            let batched = t0.elapsed();
            let n = (rounds * batch) as f64;
            eprintln!(
                "[{name}] per op: {:.3} optget, {:.3} lower, \
                 {:.3} groups, {:.3} fastmiss, {:.4} singles, {:.4} conflicts",
                agg.opt_gets as f64 / n,
                agg.lower_episodes as f64 / n,
                agg.groups as f64 / n,
                agg.fast_misses as f64 / n,
                agg.singles as f64 / n,
                agg.conflict_aborts as f64 / n
            );

            let mut rng = SmallRng::seed_from_u64(9);
            let t0 = std::time::Instant::now();
            for _ in 0..rounds {
                for _ in 0..batch {
                    tree.get(&mut ctx, rng.gen_range(0..keys));
                }
            }
            let single = t0.elapsed();
            eprintln!(
                "[{name}] gets: batched {:.0} ns/op, single {:.0} ns/op",
                batched.as_nanos() as f64 / n,
                single.as_nanos() as f64 / n
            );

            // Mixed 50/50 get/put. Groups are ~1 op at this keyspace, so
            // this measures the upper stage + per-group overhead against
            // the per-op episodes.
            let mut rng = SmallRng::seed_from_u64(11);
            let mut agg = BatchStats::default();
            let t0 = std::time::Instant::now();
            for _ in 0..rounds {
                ops.clear();
                for _ in 0..batch {
                    let key = rng.gen_range(0..keys);
                    ops.push(if rng.gen_range(0..2u64) == 0 {
                        BatchOp::Get { key }
                    } else {
                        BatchOp::Put { key, value: key }
                    });
                }
                ops.sort_unstable_by_key(|o| o.key());
                let st = tree.apply_batch(&mut ctx, &ops, &mut out, &mut scratch);
                agg.opt_gets += st.opt_gets;
                agg.lower_episodes += st.lower_episodes;
                agg.groups += st.groups;
                agg.singles += st.singles;
                agg.conflict_aborts += st.conflict_aborts;
            }
            let batched = t0.elapsed();
            eprintln!(
                "[{name}] mixed per op: {:.3} optget, \
                 {:.3} lower, {:.3} groups, {:.4} singles, {:.4} conflicts",
                agg.opt_gets as f64 / n,
                agg.lower_episodes as f64 / n,
                agg.groups as f64 / n,
                agg.singles as f64 / n,
                agg.conflict_aborts as f64 / n
            );

            let mut rng = SmallRng::seed_from_u64(11);
            let t0 = std::time::Instant::now();
            for _ in 0..rounds {
                for _ in 0..batch {
                    let key = rng.gen_range(0..keys);
                    if rng.gen_range(0..2u64) == 0 {
                        tree.get(&mut ctx, key);
                    } else {
                        tree.put(&mut ctx, key, key);
                    }
                }
            }
            let single = t0.elapsed();
            eprintln!(
                "[{name}] mixed: batched {:.0} ns/op, single {:.0} ns/op",
                batched.as_nanos() as f64 / n,
                single.as_nanos() as f64 / n
            );
        }
    }
}
