//! The two-step transactional traversal (Algorithm 2).
//!
//! Every point operation runs as:
//!
//! 1. an *upper stage* ([`EunoBTree::locate`]) finds the target leaf and
//!    the `seqno` it had while it covered the key — under `read_opt` from
//!    the thread's own leaf hint if it still holds, else by episode-free
//!    validated walks (from an index node the thread remembers for the
//!    key's neighbourhood, else from the root); the paper's HTM region
//!    otherwise and as their tail.
//!    A `read_opt` get reads the leaf episode-free as well — inside the
//!    walk's own section when a walk found it
//!    ([`EunoBTree::locate_then`]), in a section of its own when a hint or
//!    the HTM region did ([`EunoBTree::read_leaf`]) — and is done if that
//!    holds (one in [`GET_TWO_STEP_ONE_IN`] does not try);
//! 2. the conflict-control stage (outside any region,
//!    [`EunoBTree::ccm_enter`] … [`EunoBTree::ccm_leave`]) — on a
//!    protected leaf — takes the key's CCM lock bit, consults the mark
//!    bit, and pre-acquires the split lock for inserts into near-full
//!    leaves; on a leaf without a CCM block it is one load, on a bypassed
//!    one with a block two;
//! 3. a *lower* HTM region re-reads `seqno` — if unchanged, the leaf
//!    pointer is still the right one and the operation completes locally;
//!    if changed, a concurrent split moved records and the operation
//!    retries from the root (the rare case).
//!
//! Every `seqno` an operation checks is its key's home segment's copy
//! ([`EunoLeaf::seqno`]), on the line the leaf search reads first; the
//! home is computed once, before step 1. (The HTM upper region alone hands
//! over another copy, the one beside the leaf's fence: the copies are equal
//! at every commit.)
//!
//! The HTM regions run on the layered executor in `euno_htm::exec` under
//! [`RetryPolicy::DBX`]; the episode-free sections are bounded by the two
//! private try budgets below and end on those regions.

use std::convert::Infallible;

use euno_htm::bptree::upper_bound;
use euno_htm::euno_metrics::Counter;
use euno_htm::{
    AbortCause, Anchor, RetryPolicy, ThreadCtx, TxCell, TxResult, TxWord, KEY_SENTINEL, TOMBSTONE,
};
use euno_rng::Rng;

use crate::ccm::Ccm;
use crate::node::{EunoLeaf, Guard, NodeRef, INTERNAL_FANOUT};
use crate::probe;
use crate::segment::{KeyPad, Keys};
use crate::structural::LowerRegion;
use crate::tree::{EunoBTree, Lower, Req};

/// A leaf counts as "near full" (Algorithm 2 line 39) when its live
/// records ≥ capacity − this: an insert there pre-acquires the split lock.
const NEAR_FULL_SLACK: usize = 4;

/// Episode-free walks [`EunoBTree::locate`] tries before the HTM upper
/// region finds the leaf. The tail must exist — in concurrent mode the
/// section check is the *global* TL2 clock, so steady writers anywhere in
/// the tree can fail a walk forever — and a failed walk is cheap (it read
/// the index and one leaf key line), so the budget only has to ride out a
/// burst of index writes. Sweep in DESIGN.md §4.4.
const LOCATE_TRIES: u32 = 4;

/// Rounds of the HTM upper region whose pair section may fail before the
/// region reads the key's home copy of `seqno` itself
/// ([`EunoBTree::locate`]'s last rung). The tail must exist for the reason
/// above, and it aborts under every write to the home line, so it has to
/// stay rare. Swept (`EUNO_BENCH_SCALE=0.3`) on the `paper()` cells with
/// the most contention — Figure 12 Self-Similar at 12 and 20 threads,
/// Figure 10 θ = 0.99 at 20, Figure 8 and Figure 13's `+Adaptive` at
/// θ = 0.99 and 0.9: 4, 8, 16 and 32 rounds read the same to the last
/// digit (no operation went that far), 1 round 0.1–1.8 % less, and 0 — the
/// region always reads the pair — 8–68 % less. The floor is set by
/// `tests/adaptive.rs`'s sixteen threads on one leaf, where a section
/// fails in long streaks: with 4 rounds the fallback lock's storms left
/// 0.938 of the calm leaves bypassed (the test wants 0.95); 8 and more
/// pass.
const PAIR_ROUNDS: u32 = 16;

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

/// Keys per leaf-hint block: a hint is filed under `key >> 3`, so one
/// entry serves the (up to) eight neighbouring keys its leaf covers. Swept
/// together with the table's slot count (`euno_htm::hint`); DESIGN.md §4.4.
const HINT_BLOCK_SHIFT: u32 = 3;

/// Keys per subtree-hint block: a walk from the root files the index node
/// it may be started at next time under `key >> 10`, and only a node whose
/// range holds all 1 024 keys of that block — so the entry serves every
/// one of them, and "deepest node that does" picks the level for whatever
/// density the keys have. Swept together with the table's slot count
/// (`euno_htm::hint`); DESIGN.md §4.4.
const SUBTREE_BLOCK_SHIFT: u32 = 10;

/// What a [descent](EunoBTree::descend) found.
pub(crate) struct Descent<'g, const SEGS: usize, const K: usize>
where
    Keys<K>: KeyPad,
{
    pub leaf: &'g EunoLeaf<SEGS, K>,
    /// The leaf's `[low, high)`: the separators that bound the path taken.
    /// `high` is exact only if the descent started at the root or
    /// `narrowed`.
    pub low: u64,
    pub high: u64,
    /// Index levels read.
    pub levels: u64,
    /// Some level took a child other than its node's last, i.e. probed a
    /// separator above the key.
    pub narrowed: bool,
    /// Of a descent from the root: where a later descent for a key of this
    /// one's subtree-hint block may start — the deepest index node whose
    /// range on entry held the whole block and at or below which the path
    /// narrowed — as `[node, its lower bound]`.
    pub anchor: Option<Anchor>,
}

/// What the upper stage hands over: a leaf, the `seqno` it had while it
/// covered `[low, high)`, and the conflict aborts spent finding it.
pub struct Located<'g, const SEGS: usize, const K: usize>
where
    Keys<K>: KeyPad,
{
    pub leaf: &'g EunoLeaf<SEGS, K>,
    pub seqno: u64,
    /// The leaf's key range as the index had it: the separators that
    /// bound the path taken (`0` / `u64::MAX` where there is none).
    pub low: u64,
    pub high: u64,
    pub conflicts: u32,
}

impl<const SEGS: usize, const K: usize> Located<'_, SEGS, K>
where
    Keys<K>: KeyPad,
{
    #[inline]
    pub fn covers(&self, key: u64) -> bool {
        (self.low..self.high).contains(&key)
    }
}

/// What [`EunoBTree::read_leaf`] concluded.
pub(crate) enum LeafRead {
    /// Read under an unchanged `seqno`: the get's answer.
    Value(Option<u64>),
    /// `seqno` has moved on: the pair is dead, go back to `locate`.
    Moved,
    /// Try budget spent under writers: the pair may still be good.
    Spent,
}

impl<const SEGS: usize, const K: usize> EunoBTree<SEGS, K>
where
    Keys<K>: KeyPad,
{
    /// The one search for a leaf: every descent in the crate is this loop
    /// over a different `load` (transactional read, direct load, plain
    /// load). `Ok(None)` on an implausible intermediate state — a null
    /// child word from a half-applied commit, runaway depth — which only
    /// an unvalidated loader can meet; its caller retries. Every child
    /// word is stored word-atomically by writers, so a sampled pointer is
    /// always either the old or the new node, and retired nodes stay
    /// readable under the pin `g` stands for.
    ///
    /// Beside the leaf, the `[low, high)` it covers: every level's search
    /// narrows the range to the separators around the child it took, so
    /// the range costs no load the search did not make (and means what the
    /// leaf does only if the loads were consistent, like the leaf itself).
    ///
    /// `from` starts the search at an index node instead of the root: an
    /// [`Anchor`] an earlier descent from the root returned. Three things
    /// no writer of this tree ever does make that sound without a version
    /// word: an index node is never unlinked or freed while the tree
    /// lives, its lower bound never changes, and its upper bound only
    /// shrinks — by its own split, which keeps the lower half in place. A
    /// key the anchor was filed for is therefore never below the node's
    /// range, and it is still inside it **iff the descent `narrowed`**:
    /// every separator under the node lies below the node's upper bound,
    /// so one above `key` proves `key` does too. The result is then word
    /// for word what a descent from the root reads in the same snapshot;
    /// without the proof it is nothing (the node may have split and the
    /// key gone right) and the caller starts over at the root.
    pub(crate) fn descend<'g>(
        &self,
        g: Guard<'g, SEGS, K>,
        key: u64,
        from: Option<Anchor>,
        mut load: impl FnMut(&TxCell<u64>) -> TxResult<u64>,
    ) -> TxResult<Option<Descent<'g, SEGS, K>>> {
        let (mut cur, low) = match from {
            Some([node, low]) => (NodeRef(node), low),
            None => (NodeRef::from_word(load(&self.ctrl.root)?), 0),
        };
        let mut range = (low, u64::MAX);
        let block = (key >> SUBTREE_BLOCK_SHIFT) << SUBTREE_BLOCK_SHIFT;
        let block_last = block | ((1 << SUBTREE_BLOCK_SHIFT) - 1);
        let (mut levels, mut narrowed) = (0, false);
        let (mut holds_block, mut anchor) = (None, None);
        while !cur.is_leaf() {
            levels += 1;
            if cur.is_null() || levels > 64 {
                return Ok(None);
            }
            let node = g.index_node(cur);
            // (From an anchor the upper bound is unknown until narrowed,
            // and nothing is filed: the thread has its entry.)
            if from.is_none() && range.0 <= block && block_last < range.1 {
                holds_block = Some([cur.0, range.0]);
            }
            // Clamp: a stale count paired with a newer key array (or vice
            // versa) must degrade to a wrong-leaf descent caught by
            // validation, never an out-of-bounds index.
            let cnt = (load(&node.count)? as usize).min(INTERNAL_FANOUT);
            // The probes that decide the child also bound it — the last
            // `≤` one from below, the last `>` one from above — and are
            // folded into `range` on the way.
            let taken = upper_bound(cnt, key, |i| {
                let sep = load(&node.keys[i])?;
                if sep <= key {
                    range.0 = range.0.max(sep);
                } else {
                    range.1 = range.1.min(sep);
                }
                Ok(sep)
            })?;
            // Not the last child: the search's last `>` probe was the
            // separator above it. (A key that runs down the rightmost
            // spine meets none, and an anchor filed for it would be one
            // every later descent comes back from empty-handed: an
            // ascending load would walk twice for every key.)
            if taken < cnt {
                narrowed = true;
                anchor = holds_block;
            }
            cur = NodeRef::from_word(load(node.child(taken))?);
        }
        Ok((cur.0 & !1 != 0).then(|| Descent {
            leaf: g.leaf(cur),
            low: range.0,
            high: range.1,
            levels,
            narrowed,
            anchor,
        }))
    }

    /// Algorithm 2 lines 23-28: one HTM region finds the leaf — and only
    /// the leaf. Every line of a leaf carries records, and so value writes:
    /// a region that read one would abort under every put to that segment,
    /// same-record writers queued on the CCM lock bit included. The
    /// version is read after the region instead, in a validated section of
    /// one line: the leaf's fence ([`EunoLeaf::fence`]) and the copy of
    /// `seqno` beside it ([`EunoLeaf::seqno_beside_fence`]; the copies are
    /// equal at every commit, so the lower region checks it against the
    /// key's home copy). A leaf's lower bound never moves while it lives,
    /// so a fence above `key` proves the leaf covered `key` while its
    /// `seqno` read what the section read — the pair the lower region
    /// checks. A fence at or below `key` — the leaf split, or was merged
    /// away, since the region — sends the search round again; so does a
    /// section that keeps failing, up to [`PAIR_ROUNDS`] rounds, after
    /// which the region reads the key's home copy itself, as the paper has
    /// it — and so does every round if `home_copy`, which an operation
    /// asks for once the lower region has refused a pair. (What the
    /// section costs under contention is in DESIGN.md §8.)
    fn upper_region<'g>(
        &self,
        ctx: &mut ThreadCtx,
        g: Guard<'g, SEGS, K>,
        key: u64,
        home: usize,
        home_copy: bool,
    ) -> Located<'g, SEGS, K> {
        let mut conflicts = 0;
        for round in 0.. {
            // Read inside the region, the home copy always holds: the
            // region ends on the fallback lock at worst.
            let inside = home_copy || round >= PAIR_ROUNDS;
            let out = ctx.htm_execute(&self.ctrl.fallback, &RetryPolicy::DBX, |tx| {
                tx.set_op_key(key);
                // A transaction reads a consistent index; an attempt that
                // did not is doomed, so abort it rather than follow the
                // pointer.
                let at = self
                    .descend(g, key, None, |cell| tx.read(cell))?
                    .ok_or(AbortCause::Explicit(0x11))?;
                let seqno = match inside {
                    true => Some(tx.read(at.leaf.seqno(home))?),
                    false => None,
                };
                Ok((at.leaf, at.low, at.high, seqno))
            });
            conflicts += out.conflict_aborts;
            let (leaf, low, high, seqno) = out.value;
            let located = |seqno, high| Located {
                leaf,
                seqno,
                low,
                high,
                conflicts,
            };
            if let Some(seqno) = seqno {
                return located(seqno, high);
            }
            let pair = self.validated_section(ctx, key, &mut { LOCATE_TRIES }, |ctx| {
                let seqno = leaf.seqno_beside_fence().load_direct(ctx);
                Some((seqno, leaf.fence().load_direct(ctx)))
            });
            // (The last leaf's fence, `KEY_SENTINEL`, covers that key too.)
            let covers = |&(_, fence): &(u64, u64)| key < fence || fence == KEY_SENTINEL;
            if let Some((seqno, fence)) = pair.filter(covers) {
                return located(seqno, high.min(fence));
            }
        }
        unreachable!("the round that reads inside the region returns")
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
    /// `seqno` it had while it did (the copy on `key`'s home segment, whose
    /// home this charges — or, from the HTM region, the copy beside the
    /// fence), the key range it covered then, and the
    /// conflict aborts spent finding it. The pair is a *hint* in the sense
    /// of guideline 1 — whoever acts on the leaf re-checks `seqno` where it
    /// acts, and restarts here on a mismatch. The caller holds an epoch
    /// pin, which is what keeps the leaf readable if a merge retires it in
    /// between.
    ///
    /// Without `read_opt` this is the HTM upper region. With it, four
    /// rungs:
    ///
    /// 1. **the thread's leaf hint** — what this thread's last walk for a
    ///    key of the same block found: `(leaf, seqno, low, high,
    ///    retirement generation)`. It is handed back as it stands if it
    ///    covers `key`, no leaf has been retired since before that walk
    ///    (checked first: only then is the pointer safe to follow — the
    ///    argument is at [`EunoBTree::retire_generation`]), and the leaf's
    ///    `seqno` still reads the same — every split, reorganization and
    ///    merge moves it, so an unmoved `seqno` means an unmoved range. No
    ///    section, no episode, no index line;
    /// 2. **the thread's subtree hint** — the [`Anchor`] this thread's last
    ///    walk from the root for a key of the same (wider) block returned:
    ///    the episode-free walk of rung 3 starts there instead of at the
    ///    root, and what it finds is taken iff the walk narrowed (the
    ///    argument is at [`EunoBTree::descend`]); if not, the hint is
    ///    dropped and the same section walks on from the root — a hint
    ///    turned away is the table's miss, not a writer's doing, and costs
    ///    no retry, no back-off and no try;
    /// 3. up to [`LOCATE_TRIES`] episode-free walks (rung 2's included) — a
    ///    validated section proves the descent atomic, i.e. the leaf
    ///    covered `key` while its `seqno` read the returned value;
    /// 4. the HTM upper region, from the root.
    ///
    /// Whatever rungs 2 to 4 find replaces the leaf hint, so a caller that
    /// comes back because `seqno` had moved is never handed the same pair;
    /// a walk from the root replaces the subtree hint if it has one to
    /// give.
    pub fn locate<'g>(
        &self,
        ctx: &mut ThreadCtx,
        g: Guard<'g, SEGS, K>,
        key: u64,
    ) -> Located<'g, SEGS, K> {
        let home = self.home(ctx, key);
        self.locate_then(ctx, g, key, home, |_, _| ()).0
    }

    /// [`EunoBTree::locate`] for a key whose home segment the caller has
    /// computed, and `tail` run on the leaf inside the walk's own validated
    /// section, right after its `seqno` load — if rung 2 or 3 answered.
    /// What `tail` reads is then validated with the walk: it read the leaf
    /// while the leaf covered `key` under the `seqno` returned, with no
    /// second section and no second `seqno` load. (A
    /// tail that runs on a rejected walk is run again on the next; its
    /// value is only ever that of the section that held.)
    pub(crate) fn locate_then<'g, T>(
        &self,
        ctx: &mut ThreadCtx,
        g: Guard<'g, SEGS, K>,
        key: u64,
        home: usize,
        mut tail: impl FnMut(&mut ThreadCtx, &EunoLeaf<SEGS, K>) -> T,
    ) -> (Located<'g, SEGS, K>, Option<T>) {
        if !self.cfg.read_opt {
            return (self.upper_region(ctx, g, key, home, false), None);
        }
        let block = key >> HINT_BLOCK_SHIFT;
        // One load serves both ends of the generation rule: it follows this
        // operation's pin (for the hint about to be used) and precedes the
        // walk below (for the hint about to be recorded).
        let generation = self.retire_generation(ctx);
        if let Some([bits, seqno, low, high, recorded_at]) = ctx.hint_probe(self.hint_owner, block)
        {
            if (low..high).contains(&key) {
                // The generation first: only a hint it vouches for names
                // memory that is still a leaf of this tree.
                if recorded_at == generation || probe::mutated("hint:any-generation") {
                    let leaf = g.leaf(NodeRef::from_word(bits));
                    if leaf.seqno(home).load_direct(ctx) == seqno {
                        ctx.metric_add(Counter::LeafHintHits, 1);
                        let at = Located {
                            leaf,
                            seqno,
                            low,
                            high,
                            conflicts: 0,
                        };
                        return (at, None);
                    }
                }
                ctx.metric_add(Counter::LeafHintStale, 1);
            }
        }
        let subtree_block = key >> SUBTREE_BLOCK_SHIFT;
        let mut from = ctx.anchor_probe(self.hint_owner, subtree_block);
        // The mutation twin of the one-section get: the section closes
        // before `tail` reads the leaf.
        let tail_inside = !probe::mutated("get:leaf-read-after-section");
        let walk = self.validated_section(ctx, key, &mut { LOCATE_TRIES }, |ctx| {
            let mut at = self
                .descend(g, key, from, |cell| Ok(cell.load_direct(ctx)))
                .ok()??;
            if from.is_some() && !at.narrowed && !probe::mutated("subtree:trust-unnarrowed") {
                from = None;
                ctx.metric_add(Counter::SubtreeHintUnusable, 1);
                at = self
                    .descend(g, key, None, |cell| Ok(cell.load_direct(ctx)))
                    .ok()??;
            }
            if from.is_none() {
                // The walk that may file an anchor pays for looking: one
                // containment test a level.
                ctx.charge(self.rt.cost.alu * at.levels);
            }
            let seqno = at.leaf.seqno(home).load_direct(ctx);
            let out = tail_inside.then(|| {
                probe::point("walk:seqno");
                tail(ctx, at.leaf)
            });
            Some((at, seqno, out))
        });
        let (at, out) = match walk {
            Some((at, seqno, out)) => {
                let out = out.or_else(|| {
                    probe::point("walk:seqno");
                    Some(tail(ctx, at.leaf))
                });
                if from.is_some() {
                    ctx.metric_add(Counter::SubtreeHintHits, 1);
                } else if let Some(anchor) = at.anchor {
                    ctx.anchor_record(self.hint_owner, subtree_block, anchor);
                }
                let at = Located {
                    leaf: at.leaf,
                    seqno,
                    low: at.low,
                    high: at.high,
                    conflicts: 0,
                };
                (at, out)
            }
            None => (self.upper_region(ctx, g, key, home, false), None),
        };
        let bits = NodeRef::of_leaf(at.leaf).to_word();
        ctx.hint_record(
            self.hint_owner,
            block,
            [bits, at.seqno, at.low, at.high, generation],
        );
        (at, out)
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
        ctx.pinned(|ctx, g| self.traverse_pinned(ctx, g, req, key, newval))
    }

    pub(crate) fn traverse_pinned(
        &self,
        ctx: &mut ThreadCtx,
        g: Guard<'_, SEGS, K>,
        req: Req,
        key: u64,
        newval: u64,
    ) -> Option<u64> {
        let home = self.home(ctx, key);
        let (mut force_split_lock, mut refused) = (false, false);
        loop {
            // Step 1: upper stage. A `read_opt` get that a walk answers
            // reads its leaf inside the walk's section and is done there.
            let episode_free = req == Req::Get
                && self.cfg.read_opt
                && ctx.rng().gen_range(0..GET_TWO_STEP_ONE_IN) != 0;
            let (located, answer) = if episode_free {
                self.locate_then(ctx, g, key, home, |ctx, leaf| {
                    self.read_record(ctx, leaf, key, home)
                })
            } else if refused && !self.cfg.read_opt {
                // The refused pair was read beside the fence; the next one
                // is read from the home copy the lower region checks, so
                // that no operation can loop on two copies that disagree
                // (`bump_seqno`'s mutation twin is convicted, not hung).
                (self.upper_region(ctx, g, key, home, true), None)
            } else {
                (self.locate_then(ctx, g, key, home, |_, _| ()).0, None)
            };
            if let Some(value) = answer {
                return value;
            }
            let Located {
                leaf,
                seqno,
                conflicts: upper_conflicts,
                ..
            } = located;
            probe::point("locate:done");
            if episode_free {
                match self.read_leaf(ctx, leaf, seqno, key, home) {
                    LeafRead::Value(value) => return value,
                    // A dead pair has nothing to queue for: no conflict
                    // control, no region — straight back to the upper stage.
                    LeafRead::Moved => {
                        probe::mark("leaf:moved");
                        continue;
                    }
                    LeafRead::Spent => {}
                }
            }

            // Step 2: conflict control (outside any region).
            let slot = Ccm::slot(key, Self::ccm_bits());
            ctx.charge(self.rt.cost.alu * 3); // hash computation
            let (slots, claim) = ([slot], u64::from(req == Req::Put) << slot);
            let stage = self.ccm_enter(ctx, g, leaf, &slots, claim);
            // Pre-lock if an insert may split (lines 39-40).
            let split_locked = req == Req::Put
                && (stage.may_insert()
                    && leaf.occupied_direct(ctx) + NEAR_FULL_SLACK >= Self::capacity()
                    || force_split_lock);
            if split_locked {
                leaf.split_lock().acquire(ctx);
            }

            // Step 3: lower region.
            let (outcome, lower_conflicts) = if req != Req::Put && stage.definite_miss(slot) {
                // Never enter the leaf (line 35).
                (Lower::Done(None), 0)
            } else {
                let mut region = LowerRegion::new(split_locked);
                let out = ctx.htm_execute(&self.ctrl.fallback, &RetryPolicy::DBX, |tx| {
                    self.hand_back(g, &mut region.unpublished);
                    tx.set_op_key(key);
                    if stage.locked() {
                        // Same-record contenders queue on the CCM lock bit
                        // (§4.1): this attempt's true conflicts are
                        // serialized away, so the storm model must not
                        // re-manufacture them.
                        tx.mark_serialized();
                    }
                    if tx.read(leaf.seqno(home))? != seqno {
                        return Ok(Lower::Inconsistent);
                    }
                    self.lower_body(tx, g, leaf, req, key, home, newval, &mut region)
                });
                (out.value, out.conflict_aborts)
            };

            if split_locked {
                leaf.split_lock().release(ctx);
            }
            self.ccm_leave(ctx, g, leaf, stage, upper_conflicts + lower_conflicts);

            match outcome {
                Lower::Done(v) => {
                    if req == Req::Delete && v.is_some() {
                        self.after_delete(ctx);
                    }
                    return v;
                }
                Lower::Inconsistent => {
                    probe::mark("lower:inconsistent");
                    refused = true;
                }
                Lower::NeedSplitLock => {
                    force_split_lock = true;
                }
            }
        }
    }

    /// `key`'s value in `leaf`, by direct loads: the key's `home` segment,
    /// and on only while the one just read is full ([`EunoLeaf::find`]).
    /// Means what the leaf does only inside a validated section that also
    /// vouches for `seqno`.
    fn read_record(
        &self,
        ctx: &mut ThreadCtx,
        leaf: &EunoLeaf<SEGS, K>,
        key: u64,
        home: usize,
    ) -> Option<u64> {
        let Ok((seg, at)) = leaf.find(home, key, |cell| Ok::<_, Infallible>(cell.load_direct(ctx)));
        at.hit
            .then(|| leaf.segs[seg].val_cell(at.slot).load_direct(ctx))
            .filter(|&v| v != TOMBSTONE)
    }

    /// The episode-free leaf read of a `read_opt` get handed a pair by the
    /// leaf-hint rung or the HTM rung ([`EunoBTree::read_record`]) inside
    /// up to [`GET_TRIES`] validated sections, each bracketed by the `home`
    /// segment's copy of `seqno`: the seqno-bump-first discipline on
    /// splits, merges and
    /// reorganizations guarantees a reader that saw moving records, or a
    /// segment that stopped being full, also sees a changed `seqno`. A get
    /// that comes back without a value either found `seqno` moved — the
    /// pair is dead and only `locate` can replace it — or spent its budget,
    /// in which case the lower region takes the same pair and queues behind
    /// same-record writers instead of racing them.
    pub(crate) fn read_leaf(
        &self,
        ctx: &mut ThreadCtx,
        leaf: &EunoLeaf<SEGS, K>,
        seqno: u64,
        key: u64,
        home: usize,
    ) -> LeafRead {
        let copy = leaf.seqno(home);
        self.validated_section(ctx, key, &mut { GET_TRIES }, |ctx| {
            if copy.load_direct(ctx) != seqno {
                return Some(LeafRead::Moved);
            }
            let found = self.read_record(ctx, leaf, key, home);
            (copy.load_direct(ctx) == seqno).then_some(LeafRead::Value(found))
        })
        .unwrap_or(LeafRead::Spent)
    }
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use euno_htm::euno_metrics::Counter;
    use euno_htm::{ConcurrentMap, RetryPolicy, Runtime, TxWord};
    use euno_rng::{Rng, SmallRng};

    use super::{Descent, SUBTREE_BLOCK_SHIFT};
    use crate::node::NodeRef;
    use crate::tree::{DefaultGuard, DefaultLeaf, EunoBTreeDefault, DEFAULT_K, DEFAULT_SEGS};

    /// Every leaf with the range the index gives it, in key order: a plain
    /// in-order traversal that hands each child the separators around it.
    fn ranges_by_full_traversal(t: &EunoBTreeDefault) -> Vec<(usize, u64, u64)> {
        type Out = Vec<(usize, u64, u64)>;
        fn visit(g: DefaultGuard, node: NodeRef, low: u64, high: u64, out: &mut Out) {
            if node.is_leaf() {
                out.push((g.leaf(node) as *const DefaultLeaf as usize, low, high));
                return;
            }
            let n = g.index_node(node);
            let cnt = n.count.load_plain() as usize;
            let seps: Vec<u64> = (0..cnt).map(|i| n.keys[i].load_plain()).collect();
            for i in 0..=cnt {
                let child = match i {
                    0 => &n.child0,
                    i => &n.children[i - 1],
                };
                let lo = if i == 0 { low } else { seps[i - 1] };
                let hi = if i == cnt { high } else { seps[i] };
                visit(g, NodeRef::from_word(child.load_plain()), lo, hi, out);
            }
        }
        let mut out = Vec::new();
        let root = NodeRef::from_word(t.root_bits());
        t.pinned(|g| visit(g, root, 0, u64::MAX, &mut out));
        out
    }

    /// The walk's probes bound the leaf exactly: for every key and every
    /// loader, `descend`'s `[low, high)` is the range a full traversal
    /// reads off the separators — from the root, from the anchor a descent
    /// from the root returns (for any key of the anchor's block, whenever
    /// the descent narrowed), and out of `locate`, whichever rung answers.
    #[test]
    fn descend_range_equals_the_full_traversal_range() {
        // (records, index levels above the leaves)
        for (records, depth) in [(10u64, 0usize), (120, 1), (1_500, 2), (24_000, 3)] {
            let rt = Runtime::new_virtual();
            let t = EunoBTreeDefault::new(Arc::clone(&rt));
            let mut ctx = rt.thread(1);
            let mut rng = SmallRng::seed_from_u64(0xF0_1D ^ records);
            // Clusters of some 32 keys over 2 048: a subtree-hint block
            // (1 024 keys) then spans a leaf or three, so its deepest
            // holder is an index node one or two levels up.
            let clusters: Vec<u64> = (0..records / 32 + 1)
                .map(|_| rng.gen_range(0..u64::MAX / 2))
                .collect();
            let mut keys: Vec<u64> = (0..records)
                .map(|_| clusters[rng.gen_range(0..clusters.len())] + rng.gen_range(0..2_048u64))
                .collect();
            for &k in &keys {
                t.put(&mut ctx, k, 1);
            }
            // Merges drop separators and leave underfull index nodes.
            keys.sort_unstable();
            for &k in keys
                .iter()
                .skip(records as usize / 3)
                .take(records as usize / 3)
            {
                t.delete(&mut ctx, k);
            }
            t.maintain(&mut ctx);
            assert_eq!(t.stats().depth, depth, "{records} records");

            let truth = ranges_by_full_traversal(&t);
            assert!(truth.windows(2).all(|w| w[0].2 == w[1].1), "ranges tile");
            assert_eq!((truth[0].1, truth[truth.len() - 1].2), (0, u64::MAX));
            let want = |key: u64| {
                truth[truth
                    .partition_point(|&(_, _, high)| high <= key)
                    .min(truth.len() - 1)]
            };
            let flat = |at: Option<Descent<'_, DEFAULT_SEGS, DEFAULT_K>>| {
                let at = at.expect("quiescent tree");
                (at.leaf as *const DefaultLeaf as usize, at.low, at.high)
            };

            // A thread of its own for `locate`, so that its tables hold
            // what its walks filed and nothing else.
            let mut hinted = rt.thread(2);
            let mut anchored = 0;
            ctx.pinned(|ctx, g| {
                hinted.pinned(|hinted, _: DefaultGuard| {
                    for i in 0..10_000 {
                        let key = match i % 4 {
                            // Both ends of the keyspace; on, just below and just
                            // above a stored key — where the separators are — and
                            // anywhere at all.
                            _ if i < 2 => [0, u64::MAX][i],
                            0 => keys[rng.gen_range(0..keys.len())],
                            1 => keys[rng.gen_range(0..keys.len())].saturating_sub(1),
                            2 => keys[rng.gen_range(0..keys.len())] + 1,
                            _ => rng.gen_range(0..u64::MAX),
                        };
                        let want_key = want(key);
                        let plain = t.descend(g, key, None, |c| Ok(c.load_plain())).unwrap();
                        let anchor = plain.as_ref().expect("quiescent tree").anchor;
                        let direct =
                            flat(t.descend(g, key, None, |c| Ok(c.load_direct(ctx))).unwrap());
                        let tx = ctx
                            .htm_execute(t.fallback_cell(), &RetryPolicy::DBX, |tx| {
                                Ok(flat(t.descend(g, key, None, |c| tx.read(c))?))
                            })
                            .value;
                        assert_eq!(flat(plain), want_key, "plain loads, key {key}");
                        assert_eq!(direct, want_key, "direct loads, key {key}");
                        assert_eq!(tx, want_key, "transactional reads, key {key}");

                        // From the anchor: the key it was returned for narrows
                        // (that is the rule an anchor is chosen by); any other key
                        // of its block either narrows too, and then ends where a
                        // descent from the root does, or says it did not.
                        if let Some(anchor) = anchor {
                            anchored += 1;
                            let block = key >> SUBTREE_BLOCK_SHIFT << SUBTREE_BLOCK_SHIFT;
                            let last = block | ((1 << SUBTREE_BLOCK_SHIFT) - 1);
                            for other in [key, block, last, rng.gen_range(block..last)] {
                                let at = t
                                    .descend(g, other, Some(anchor), |c| Ok(c.load_plain()))
                                    .unwrap()
                                    .expect("quiescent tree");
                                assert!(at.narrowed || other != key, "key {key}: its own anchor");
                                if at.narrowed {
                                    assert_eq!(
                                        flat(Some(at)),
                                        want(other),
                                        "anchored, key {other}"
                                    );
                                } else {
                                    assert_eq!(at.high, u64::MAX, "an unproven bound, key {other}");
                                }
                            }
                        }

                        let at = t.locate(hinted, g, key);
                        let got = (at.leaf as *const DefaultLeaf as usize, at.low, at.high);
                        assert_eq!(got, want_key, "locate, key {key}");
                        assert_eq!(at.seqno, at.leaf.seqno(0).load_plain(), "locate, key {key}");
                    }
                })
            });
            // All three rungs answered, or the loop above compared less
            // than it says. (Unusable on a quiescent tree: the key sits in
            // the rightmost leaf under an anchor filed for a neighbour.)
            let [leaf_hits, subtree_hits, unusable] = [
                Counter::LeafHintHits,
                Counter::SubtreeHintHits,
                Counter::SubtreeHintUnusable,
            ]
            .map(|c| hinted.metric(c));
            let what = format!(
                "{records} records: {anchored} anchors, hits {leaf_hits} leaf / \
                 {subtree_hits} subtree, {unusable} unusable"
            );
            if depth == 0 {
                assert_eq!((anchored, subtree_hits), (0, 0), "no index: {what}");
            } else {
                assert!(anchored > 5_000 && leaf_hits > 100, "{what}");
                assert!(subtree_hits > 500 && 4 * unusable <= subtree_hits, "{what}");
            }
        }
    }
}
