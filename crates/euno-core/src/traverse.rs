//! The two-step transactional traversal (Algorithm 2).
//!
//! Every point operation runs as:
//!
//! 1. an *upper* HTM region descends the index and reads the target leaf's
//!    `seqno` into a local;
//! 2. the conflict-control stage (outside any region) takes the key's CCM
//!    lock bit, consults the mark bit, and pre-acquires the split lock for
//!    inserts into near-full leaves;
//! 3. a *lower* HTM region re-reads `seqno` — if unchanged, the leaf
//!    pointer is still the right one and the operation completes locally;
//!    if changed, a concurrent split moved records and the operation
//!    retries from the root (the rare case).
//!
//! Both regions run on the layered executor in `euno_htm::exec` under
//! [`RetryPolicy::DBX`]; this module owns no retry loop of its own.

use euno_htm::{RetryPolicy, ThreadCtx, Tx, TxResult, TxWord, TOMBSTONE};

use crate::ccm::Ccm;
use crate::node::{EunoInternal, EunoLeaf, NodeRef, INTERNAL_FANOUT};
use crate::tree::{EunoBTree, Lower, Req};

impl<const SEGS: usize, const K: usize> EunoBTree<SEGS, K> {
    /// Root-to-leaf descent inside the upper HTM region.
    pub(crate) fn descend<'t>(
        &'t self,
        tx: &mut Tx<'_>,
        key: u64,
    ) -> TxResult<&'t EunoLeaf<SEGS, K>> {
        let mut cur = NodeRef::from_word(tx.read(&self.ctrl.root)?);
        while !cur.is_leaf() {
            let node: &EunoInternal = unsafe { cur.as_internal() };
            let cnt = tx.read(&node.count)? as usize;
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
        Ok(unsafe { cur.as_leaf::<SEGS, K>() })
    }

    /// Algorithm 2 lines 23-28: find the leaf, read its version.
    pub(crate) fn upper_region(
        &self,
        ctx: &mut ThreadCtx,
        key: u64,
    ) -> (&EunoLeaf<SEGS, K>, u64, u32) {
        let fp = self.cfg.middle_path.then(|| self.middle_footprint(key));
        let out = ctx.htm_execute_with(&self.ctrl.fallback, &RetryPolicy::DBX, fp.as_ref(), |tx| {
            tx.set_op_key(key);
            let leaf = self.descend(tx, key)?;
            let seq = tx.read(&leaf.seqno)?;
            Ok((NodeRef::of_leaf(leaf).to_word(), seq))
        });
        let (bits, seq) = out.value;
        let leaf = unsafe { NodeRef::from_word(bits).as_leaf::<SEGS, K>() };
        (leaf, seq, out.conflict_aborts)
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
            // Step 1: upper region.
            let (leaf, seqno, upper_conflicts) = self.upper_region(ctx, key);

            // Step 2: conflict control (outside any region).
            let ccm_configured = self.cfg.ccm_lock_bits || self.cfg.ccm_mark_bits;
            let ccm_active = ccm_configured && !(self.cfg.adaptive && leaf.ccm.bypassed(ctx));
            let slot = Ccm::slot(key, Self::ccm_bits());
            ctx.charge(self.rt.cost.alu * 3); // hash computation
            let mut slot_locked = false;
            if ccm_active && self.cfg.ccm_lock_bits {
                leaf.ccm.lock_slot(ctx, slot);
                slot_locked = true;
            }
            let mut split_locked = false;
            let mut fast_miss = false;
            if self.cfg.ccm_mark_bits {
                match req {
                    Req::Put => {
                        // Claim existence (line 38). This runs even when
                        // the leaf is adaptively bypassed: the mark vector
                        // must stay a superset of the live keys or gets
                        // would miss real records once protection
                        // re-engages.
                        let existed = leaf.ccm.set_mark(ctx, slot);
                        // Pre-lock if an insert may split (lines 39-40).
                        if ccm_active
                            && !existed
                            && leaf.occupied_direct(ctx) + self.cfg.near_full_slack
                                >= Self::capacity()
                        {
                            leaf.split_lock.acquire(ctx);
                            split_locked = true;
                        }
                    }
                    // Definite miss: never enter the leaf (line 35).
                    Req::Get | Req::Delete => {
                        if ccm_active && !leaf.ccm.marked(ctx, slot) {
                            fast_miss = true;
                        }
                    }
                }
            }
            if force_split_lock && req == Req::Put && !split_locked {
                leaf.split_lock.acquire(ctx);
                split_locked = true;
            }

            // Step 3: lower region.
            let (outcome, lower_conflicts) = if fast_miss {
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
                        if slot_locked {
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
                leaf.split_lock.release(ctx);
            }
            if slot_locked {
                leaf.ccm.unlock_slot(ctx, slot);
            }
            if self.cfg.adaptive {
                leaf.ccm.record_outcome(
                    ctx,
                    upper_conflicts + lower_conflicts,
                    self.cfg.adaptive_window,
                    self.cfg.adaptive_conflict_rate,
                );
            }

            match outcome {
                Lower::Done(v) => {
                    if req == Req::Delete && v.is_some() {
                        self.after_delete(ctx);
                    }
                    return v;
                }
                Lower::Inconsistent => continue,
                Lower::NeedSplitLock => {
                    force_split_lock = true;
                    continue;
                }
            }
        }
    }

    /// Direct-load root-to-leaf descent for the episode-free read path.
    /// Returns `None` on any implausible intermediate state (null child
    /// words from a half-applied commit, runaway depth) — the caller's
    /// optimistic retry loop re-descends. Every child word is stored
    /// word-atomically by writers, so a sampled pointer is always either
    /// the old or the new node, and retired nodes stay readable under the
    /// caller's epoch pin; validation afterwards decides whether the
    /// descent was consistent.
    pub(crate) fn descend_direct<'t>(
        &'t self,
        ctx: &mut ThreadCtx,
        key: u64,
    ) -> Option<&'t EunoLeaf<SEGS, K>> {
        let mut cur = NodeRef::from_word(self.ctrl.root.load_direct(ctx));
        let mut depth = 0;
        while !cur.is_leaf() {
            if cur.is_null() {
                return None;
            }
            depth += 1;
            if depth > 64 {
                return None;
            }
            let node: &EunoInternal = unsafe { cur.as_internal() };
            // Clamp: a stale count paired with a newer key array (or vice
            // versa) must degrade to a wrong-leaf descent caught by
            // validation, never an out-of-bounds index.
            let cnt = (node.count.load_direct(ctx) as usize).min(INTERNAL_FANOUT);
            let (mut lo, mut hi) = (0usize, cnt);
            while lo < hi {
                let mid = (lo + hi) / 2;
                if node.keys[mid].load_direct(ctx) <= key {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            cur = if lo == 0 {
                NodeRef::from_word(node.child0.load_direct(ctx))
            } else {
                NodeRef::from_word(node.children[lo - 1].load_direct(ctx))
            };
        }
        (cur.0 & !1 != 0).then(|| unsafe { cur.as_leaf::<SEGS, K>() })
    }

    /// Episode-free point lookup (the `read_opt` path): optimistic
    /// descent with direct loads under an epoch pin, bracketed by the
    /// leaf's `seqno` — read it, search the segments, re-read it — and
    /// closed out by the engine-level snapshot check (TL2 version clock plus
    /// the fallback cell in concurrent mode, window overlap in virtual
    /// mode). Any change retries from the root; the seqno-bump-first
    /// discipline on splits, merges and reorganizations guarantees a
    /// reader that saw moving records also sees a changed seqno.
    pub(crate) fn get_read_opt(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        ctx.epoch_enter();
        let out = ctx.optimistic_execute(
            Some(key),
            |overlap| overlap.is_some(),
            |ctx| {
                let snap = ctx.optimistic_snapshot();
                let leaf = self.descend_direct(ctx, key)?;
                let s1 = leaf.seqno.load_direct(ctx);
                let mut found = None;
                for seg in &leaf.segs {
                    if let Some(v) = seg.find_direct(ctx, key) {
                        found = Some(v);
                        break;
                    }
                }
                if leaf.seqno.load_direct(ctx) != s1
                    || !ctx.optimistic_validate(self.fallback_cell(), snap)
                {
                    return None;
                }
                Some(found.filter(|&v| v != TOMBSTONE))
            },
        );
        ctx.epoch_exit();
        out
    }
}
