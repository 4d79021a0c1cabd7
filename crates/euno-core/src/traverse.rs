//! The two-step transactional traversal (Algorithm 2).
//!
//! Every point operation runs as:
//!
//! 1. an *upper stage* ([`EunoBTree::locate`]) descends the index and reads
//!    the target leaf's `seqno` into a local — episode-free validated walks
//!    under `read_opt`, the paper's HTM region otherwise and as their tail.
//!    A `read_opt` get then tries to read the leaf the same way
//!    ([`EunoBTree::read_leaf`]) and is done if that holds (one in
//!    [`GET_TWO_STEP_ONE_IN`] does not try);
//! 2. the conflict-control stage (outside any region, [`Ccm::enter`] …
//!    [`Ccm::leave`]) — on a protected leaf — takes the key's CCM lock
//!    bit, consults the mark bit, and pre-acquires the split lock for
//!    inserts into near-full leaves; on a bypassed leaf it is two loads;
//! 3. a *lower* HTM region re-reads `seqno` — if unchanged, the leaf
//!    pointer is still the right one and the operation completes locally;
//!    if changed, a concurrent split moved records and the operation
//!    retries from the root (the rare case).
//!
//! The HTM regions run on the layered executor in `euno_htm::exec` under
//! [`RetryPolicy::DBX`]; the episode-free sections are bounded by the two
//! private try budgets below and end on those regions.

use euno_htm::{AbortCause, RetryPolicy, ThreadCtx, TxCell, TxResult, TxWord, TOMBSTONE};
use euno_rng::Rng;

use crate::ccm::Ccm;
use crate::node::{EunoLeaf, NodeRef, INTERNAL_FANOUT};
use crate::probe;
use crate::tree::{EunoBTree, Lower, Req};

/// Episode-free walks [`EunoBTree::locate`] tries before the HTM upper
/// region finds the leaf. The tail must exist — in concurrent mode the
/// section check is the *global* TL2 clock, so steady writers anywhere in
/// the tree can fail a walk forever — and a failed walk is cheap (it read
/// the index and one leaf header), so the budget only has to ride out a
/// burst of index writes. Sweep in DESIGN.md §4.4.
const LOCATE_TRIES: u32 = 4;

/// Episode-free leaf reads a `read_opt` get tries before it goes on to the
/// CCM stage and the lower region like any other operation. The tail must
/// exist for the reason above; it can wait, because a try is short (one
/// leaf, not the index above it) and the lower region costs an episode and
/// a turn on the key's CCM lock bit. `virt-hot --seed 1 --seconds 10`
/// (ops/s, p99, p999): 1 → 27.42 M / 1 031 / 1 355 ns, 2 → 27.52 M /
/// 1 023 / 1 361, 4 → 27.69 M / 947 / 1 268, 8 → 27.73 M / 930 / 1 167,
/// 16 and unbounded → 27.73 M / 925 / 1 166 (no get of that run needs a
/// ninth try twice over); seed 3 is flat from 4 on.
const GET_TRIES: u32 = 8;

/// One `read_opt` get in this many — drawn from the thread's own RNG —
/// skips the episode-free leaf read and runs as the two-step get it would
/// fall back on: conflict-control stage, lower region. When it was added
/// an uncontended get and an uncontended put were disjoint populations
/// (every get ≥ 90 cycles cheaper than every put, nothing between), and
/// the pooled median of a half-get, half-put workload was whichever kind
/// the seed gave a 0.05 % majority: `virt-flat` p50 read 514–560 ns across
/// seeds, with the sample 561.2–562.6 — the dearer value, every time.
/// Since a calm leaf runs no conflict control (DESIGN.md §4.8) a put is
/// ≈ 110 cycles cheaper and abuts the gets (p50 513.0–513.9 ns over seeds
/// 1…7), so the gap the sample was put on has closed; what it still does
/// is keep the fallback running everywhere rather than only under
/// contention. On a bypassed leaf the sampled get feeds the detector
/// nothing, like any calm operation there. Costs 2 cycles per get on
/// average (−0.06 % `virt-flat` throughput); DESIGN.md §4.4 says when it
/// can go.
const GET_TWO_STEP_ONE_IN: u32 = 128;

/// Child index for `key` in an internal node of `count` separators: the
/// number of separators ≤ `key` (0 ⇒ `child0`).
fn search_internal(
    count: usize,
    key: u64,
    mut key_at: impl FnMut(usize) -> TxResult<u64>,
) -> TxResult<usize> {
    let (mut lo, mut hi) = (0, count);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if key_at(mid)? <= key {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

impl<const SEGS: usize, const K: usize> EunoBTree<SEGS, K> {
    /// The one root-to-leaf search: every descent in the crate is this
    /// loop over a different `load` (transactional read, direct load,
    /// plain load). `Ok(None)` on an implausible intermediate state — a
    /// null child word from a half-applied commit, runaway depth — which
    /// only an unvalidated loader can meet; its caller retries. Every
    /// child word is stored word-atomically by writers, so a sampled
    /// pointer is always either the old or the new node, and retired nodes
    /// stay readable under the caller's epoch pin.
    pub(crate) fn descend(
        &self,
        key: u64,
        mut load: impl FnMut(&TxCell<u64>) -> TxResult<u64>,
    ) -> TxResult<Option<&EunoLeaf<SEGS, K>>> {
        let mut cur = NodeRef::from_word(load(&self.ctrl.root)?);
        let mut depth = 0;
        while !cur.is_leaf() {
            depth += 1;
            if cur.is_null() || depth > 64 {
                return Ok(None);
            }
            let node = unsafe { cur.as_internal() };
            // Clamp: a stale count paired with a newer key array (or vice
            // versa) must degrade to a wrong-leaf descent caught by
            // validation, never an out-of-bounds index.
            let cnt = (load(&node.count)? as usize).min(INTERNAL_FANOUT);
            let child = match search_internal(cnt, key, |i| load(&node.keys[i]))? {
                0 => &node.child0,
                i => &node.children[i - 1],
            };
            cur = NodeRef::from_word(load(child)?);
        }
        Ok((cur.0 & !1 != 0).then(|| unsafe { cur.as_leaf::<SEGS, K>() }))
    }

    /// Algorithm 2 lines 23-28 as the paper has them: one HTM region
    /// finds the leaf and reads its version.
    fn upper_region(&self, ctx: &mut ThreadCtx, key: u64) -> (&EunoLeaf<SEGS, K>, u64, u32) {
        let fp = self.cfg.middle_path.then(|| self.middle_footprint(key));
        let out = ctx.htm_execute_with(&self.ctrl.fallback, &RetryPolicy::DBX, fp.as_ref(), |tx| {
            tx.set_op_key(key);
            // A transaction reads a consistent index; an attempt that did
            // not is doomed, so abort it rather than follow the pointer.
            let leaf = self
                .descend(key, |cell| tx.read(cell))?
                .ok_or(AbortCause::Explicit(0x11))?;
            let seq = tx.read(&leaf.seqno)?;
            Ok((NodeRef::of_leaf(leaf).to_word(), seq))
        });
        let (bits, seq) = out.value;
        let leaf = unsafe { NodeRef::from_word(bits).as_leaf::<SEGS, K>() };
        (leaf, seq, out.conflict_aborts)
    }

    /// Run `read` as an episode-free validated section until it holds or
    /// `tries` runs out (each run takes one): engine snapshot, `read`
    /// (which returns `None` when its own `seqno` bracket failed), engine
    /// validation — the TL2 clock plus the fallback cell in concurrent
    /// mode, the window-overlap verdict at episode close in virtual mode.
    /// `None` ⇒ budget spent; the give-up costs one empty section.
    pub(crate) fn validated_section<R>(
        &self,
        ctx: &mut ThreadCtx,
        key: u64,
        tries: &mut u32,
        mut read: impl FnMut(&mut ThreadCtx) -> Option<R>,
    ) -> Option<R> {
        ctx.optimistic_execute(
            Some(key),
            |overlap| overlap.is_some(),
            |ctx| {
                if *tries == 0 {
                    return Some(None);
                }
                *tries -= 1;
                let snap = ctx.optimistic_snapshot();
                let out = read(ctx)?;
                ctx.optimistic_validate(self.fallback_cell(), snap)
                    .then_some(Some(out))
            },
        )
    }

    /// The upper stage of every operation: the leaf covering `key`, the
    /// `seqno` it had while it did, and the conflict aborts spent finding
    /// it. The pair is a *hint* (guideline 1) — whoever acts on the leaf
    /// re-checks `seqno` where it acts, and restarts here on a mismatch.
    /// The caller holds an epoch pin, which is what keeps the leaf
    /// readable if a merge retires it in between.
    ///
    /// Under `read_opt` this is up to [`LOCATE_TRIES`] episode-free walks
    /// — a validated section proves the descent atomic, i.e. the leaf
    /// covered `key` while its `seqno` read the returned value — then the
    /// HTM upper region; without it, the HTM upper region alone.
    pub fn locate(&self, ctx: &mut ThreadCtx, key: u64) -> (&EunoLeaf<SEGS, K>, u64, u32) {
        debug_assert!(ctx.epoch_pinned(), "the leaf hand-over needs a pin");
        if self.cfg.read_opt {
            let walk = self.validated_section(ctx, key, &mut { LOCATE_TRIES }, |ctx| {
                let leaf = self.descend(key, |cell| Ok(cell.load_direct(ctx))).ok()??;
                Some((leaf, leaf.seqno.load_direct(ctx)))
            });
            if let Some((leaf, seq)) = walk {
                return (leaf, seq, 0);
            }
        }
        self.upper_region(ctx, key)
    }

    /// Algorithm 2: the traversal shared by get, put and delete.
    pub(crate) fn traverse(
        &self,
        ctx: &mut ThreadCtx,
        req: Req,
        key: u64,
        newval: u64,
    ) -> Option<u64> {
        // Pin for the whole operation: the leaf pointer handed from the
        // upper to the lower region must survive a concurrent merge's
        // retirement (the epoch collector frees it only after this pin —
        // which predates the unlink — is released).
        ctx.epoch_enter();
        let out = self.traverse_pinned(ctx, req, key, newval);
        ctx.epoch_exit();
        out
    }

    pub(crate) fn traverse_pinned(
        &self,
        ctx: &mut ThreadCtx,
        req: Req,
        key: u64,
        newval: u64,
    ) -> Option<u64> {
        let mut force_split_lock = false;
        loop {
            // Step 1: upper stage.
            let (leaf, seqno, upper_conflicts) = self.locate(ctx, key);
            probe::point("locate:done");
            if req == Req::Get
                && self.cfg.read_opt
                && ctx.rng().gen_range(0..GET_TWO_STEP_ONE_IN) != 0
            {
                if let Some(value) = self.read_leaf(ctx, leaf, seqno, key) {
                    return value;
                }
            }

            // Step 2: conflict control (outside any region).
            let slot = Ccm::slot(key, Self::ccm_bits());
            ctx.charge(self.rt.cost.alu * 3); // hash computation
            let (slots, claim) = ([slot], u64::from(req == Req::Put) << slot);
            let stage = leaf.ccm.enter(ctx, &self.cfg, &slots, claim);
            // Pre-lock if an insert may split (lines 39-40).
            let split_locked = req == Req::Put
                && (stage.may_insert()
                    && leaf.occupied_direct(ctx) + self.cfg.near_full_slack >= Self::capacity()
                    || force_split_lock);
            if split_locked {
                leaf.ccm.split_lock.acquire(ctx);
            }

            // Step 3: lower region.
            let (outcome, lower_conflicts) = if req != Req::Put && stage.definite_miss(slot) {
                // Never enter the leaf (line 35).
                (Lower::Done(None), 0)
            } else {
                // Middle-path footprint: the tree-global slot table, not
                // the CCM (whose slot bit may already be held from step 2
                // — re-acquiring it here would self-deadlock).
                let fp = self.cfg.middle_path.then(|| self.middle_footprint(key));
                let out = ctx.htm_execute_with(
                    &self.ctrl.fallback,
                    &RetryPolicy::DBX,
                    fp.as_ref(),
                    |tx| {
                        tx.set_op_key(key);
                        if stage.locked() {
                            // Same-record contenders queue on the CCM lock bit
                            // (§4.1): this attempt's true conflicts are
                            // serialized away, so the storm model must not
                            // re-manufacture them.
                            tx.mark_serialized();
                        }
                        if tx.read(&leaf.seqno)? != seqno {
                            return Ok(Lower::Inconsistent);
                        }
                        self.lower_body(tx, leaf, req, key, newval, split_locked)
                    },
                );
                (out.value, out.conflict_aborts)
            };

            if split_locked {
                leaf.ccm.split_lock.release(ctx);
            }
            leaf.ccm
                .leave(ctx, &self.cfg, stage, upper_conflicts + lower_conflicts);

            match outcome {
                Lower::Done(v) => {
                    if req == Req::Delete && v.is_some() {
                        self.after_delete(ctx);
                    }
                    return v;
                }
                Lower::Inconsistent => probe::mark("lower:inconsistent"),
                Lower::NeedSplitLock => {
                    force_split_lock = true;
                }
            }
        }
    }

    /// The episode-free leaf read of a `read_opt` get: search `leaf` with
    /// direct loads inside up to [`GET_TRIES`] validated sections, each
    /// bracketed by `seqno` — the seqno-bump-first discipline on splits,
    /// merges and reorganizations guarantees a reader that saw moving
    /// records also sees a changed `seqno`. `None` ⇒ not read (budget
    /// spent, or `seqno` has moved on): the caller runs the lower region,
    /// which queues behind same-record writers instead of racing them and
    /// reports a moved `seqno` itself.
    pub(crate) fn read_leaf(
        &self,
        ctx: &mut ThreadCtx,
        leaf: &EunoLeaf<SEGS, K>,
        seqno: u64,
        key: u64,
    ) -> Option<Option<u64>> {
        self.validated_section(ctx, key, &mut { GET_TRIES }, |ctx| {
            if leaf.seqno.load_direct(ctx) != seqno {
                return Some(None);
            }
            let found = leaf.segs.iter().find_map(|seg| seg.find_direct(ctx, key));
            (leaf.seqno.load_direct(ctx) == seqno)
                .then_some(Some(found.filter(|&v| v != TOMBSTONE)))
        })
        .flatten()
    }
}
