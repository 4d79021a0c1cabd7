//! Intra-leaf operations: the one-segment leaf search, the deterministic
//! write scheduler, and leaf reorganization (Algorithm 3).
//!
//! Every key has a **probe path** over the leaf's segments — its
//! [home](home_segment), then the segments after it, cyclically — and
//! lives in the first segment on that path that had room when it was
//! placed. An insert takes that segment (`EunoLeaf::find` has just
//! named it); a leaf whose path is full first *reorganizes* — merges into
//! the transient sorted buffer (the paper's *reserved keys*), drops
//! tombstones, and re-places every record by the same rule — and splits
//! only when genuinely full (the split itself lives in
//! [`crate::structural`]).

use euno_htm::{EventKind, ThreadCtx, Tx, TxCell, TxResult, TOMBSTONE};

use crate::node::{covers, EunoLeaf, Guard};
use crate::probe;
use crate::segment::{home_segment, KeyPad, Keys, Probe, HOME_ALU};
use crate::structural::LowerRegion;
use crate::tree::{EunoBTree, Lower, Req};

impl<const SEGS: usize, const K: usize> EunoLeaf<SEGS, K>
where
    Keys<K>: KeyPad,
{
    /// The leaf's one search, over whatever `load` the caller reads with:
    /// walk `key`'s probe path from its home segment (`home`, which the
    /// caller has computed once for the operation) and stop at the first
    /// segment that holds the key or is not full. Returns that segment and
    /// where its search ended: a hit; or, with room, where `key` is to be
    /// inserted; or, full, the whole path was (the leaf is full).
    ///
    /// **The probe-path invariant** is what lets the walk stop: a record
    /// is in a segment on its key's path, and every segment before that
    /// one on the path is full. It holds when a record is placed, and it
    /// keeps holding between structural changes: a delete leaves a
    /// tombstone, so a slot is freed only in a reorganization, a split or a
    /// merge, each one atomic. A reader whose walk is atomic too — the
    /// lower region, a validated section ([`EunoBTree::read_leaf`]) —
    /// therefore never stops short of a key that is there; a scan step,
    /// whose sections each read one segment, brackets them with `seqno`,
    /// which each of those changes bumps before a record moves.
    /// `audit_quiescent` holds every record of every leaf to the invariant.
    pub(crate) fn find<E>(
        &self,
        home: usize,
        key: u64,
        mut load: impl FnMut(&TxCell) -> Result<u64, E>,
    ) -> Result<(usize, Probe), E> {
        let mut seg = home;
        loop {
            let at = self.segs[seg].search(key, &mut load)?;
            let next = (seg + 1) % SEGS;
            if at.hit || at.room || next == home || probe::mutated("leaf:stop-at-home") {
                return Ok((seg, at));
            }
            seg = next;
        }
    }
}

impl<const SEGS: usize, const K: usize> EunoBTree<SEGS, K>
where
    Keys<K>: KeyPad,
{
    /// What finding a key's home segment is charged on the virtual clock
    /// (nothing where there is one segment to find).
    pub(crate) const HOME_COST: u64 = if SEGS > 1 { HOME_ALU } else { 0 };

    /// `key`'s home segment, charged [`Self::HOME_COST`]. An operation
    /// computes it once, before its upper stage: the fence copy every stage
    /// checks is the home segment's, and the leaf search starts there.
    pub(crate) fn home(&self, ctx: &mut ThreadCtx, key: u64) -> usize {
        ctx.charge(self.rt.cost.alu * Self::HOME_COST);
        home_segment(key, SEGS)
    }

    /// The lower region's work on `leaf`: `req` on `key`, whose home
    /// segment is `home` — if `key` is below the fence on that segment's
    /// line, the first the search reads (the upper stage handed over a
    /// leaf whose lower bound is at or below `key`, and that bound has not
    /// moved), else [`Lower::Inconsistent`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn lower_body(
        &self,
        tx: &mut Tx<'_>,
        g: Guard<'_, SEGS, K>,
        leaf: &EunoLeaf<SEGS, K>,
        req: Req,
        key: u64,
        home: usize,
        newval: u64,
        region: &mut LowerRegion,
    ) -> TxResult<Lower> {
        if !covers(tx.read(leaf.fence(home))?, key) {
            return Ok(Lower::Inconsistent);
        }
        let (seg, at) = leaf.find(home, key, |cell| tx.read(cell))?;
        let found = at.hit.then(|| leaf.segs[seg].val_cell(at.slot));
        match req {
            Req::Get => Ok(Lower::Done(match found {
                Some(vc) => {
                    let v = tx.read(vc)?;
                    (v != TOMBSTONE).then_some(v)
                }
                None => None,
            })),
            Req::Delete => {
                if let Some(vc) = found {
                    let old = tx.read(vc)?;
                    if old != TOMBSTONE {
                        tx.write(vc, TOMBSTONE)?;
                        return Ok(Lower::Done(Some(old)));
                    }
                }
                Ok(Lower::Done(None))
            }
            Req::Put => {
                if let Some(vc) = found {
                    let old = tx.read(vc)?;
                    tx.write(vc, newval)?;
                    return Ok(Lower::Done((old != TOMBSTONE).then_some(old)));
                }
                // The deterministic write scheduler (Algorithm 3 lines
                // 60-66): the first segment on the key's path with room.
                if at.room {
                    leaf.segs[seg].insert_at(tx, at, key, newval)?;
                    return Ok(Lower::Done(None));
                }
                self.insert_into_full(tx, g, leaf, key, home, newval, region)
            }
        }
    }

    /// Algorithm 3 lines 67-86: every segment on the key's path — every
    /// segment — is full. Reorganize if tombstones make room, else split.
    #[allow(clippy::too_many_arguments)]
    fn insert_into_full(
        &self,
        tx: &mut Tx<'_>,
        g: Guard<'_, SEGS, K>,
        leaf: &EunoLeaf<SEGS, K>,
        key: u64,
        home: usize,
        newval: u64,
        region: &mut LowerRegion,
    ) -> TxResult<Lower> {
        // Reorganizing or splitting rewrites shared state, so demand the
        // advisory split lock first (the serialized fallback path is
        // already exclusive).
        if !region.split_locked && !tx.is_fallback() {
            return Ok(Lower::NeedSplitLock);
        }

        // moveToReserved: merge every segment into the (transient) sorted
        // buffer, compacting tombstones — the deferred deletion cleanup of
        // §4.2.4 happens here too. The segments are rewritten whole below,
        // so nothing needs draining first.
        let records = self.peek_all(tx, leaf)?;

        let target = if records.len() < Self::capacity() {
            // Sufficient room after reorganization (lines 67-74).
            //
            // Bump the version before any record moves, as on the split
            // and merge paths: slots are freed and records change segments
            // here, so a scan step whose sections straddle this could read
            // a key's new segment before and its old one after, unless the
            // bump is published first. The range does not change: no
            // point operation's hand-over is voided.
            probe::mark("reorg:seqno");
            leaf.bump_seqno(tx)?;
            probe::mark("reorg:records");
            self.redistribute(tx, leaf, &records)?;
            tx.ctx().trace(EventKind::Reorg {
                leaf: leaf as *const EunoLeaf<SEGS, K> as u64,
            });
            leaf
        } else {
            // Really full: sort, split, reorganize (lines 75-86).
            self.split_leaf(tx, g, leaf, &records, key, region)?
        };
        // The new key, by the same rule as every other record.
        let (seg, at) = target.find(home, key, |cell| tx.read(cell))?;
        target.segs[seg].insert_at(tx, at, key, newval)?;
        Ok(Lower::Done(None))
    }

    /// Re-place `records` (sorted) over the segments: each goes to the
    /// first segment on its key's probe path with room, in key order — so
    /// every segment stays sorted, the probe-path invariant holds by
    /// construction, and adjacent keys land in different segments (and
    /// lines) because their homes differ.
    pub(crate) fn redistribute(
        &self,
        tx: &mut Tx<'_>,
        leaf: &EunoLeaf<SEGS, K>,
        records: &[(u64, u64)],
    ) -> TxResult<()> {
        debug_assert!(records.len() <= Self::capacity());
        let (mut parts, mut lens) = ([[(0, 0); K]; SEGS], [0; SEGS]);
        for (i, &record) in records.iter().enumerate() {
            let mut seg = match probe::mutated("place:deal-round-robin") {
                false => home_segment(record.0, SEGS),
                true => i % SEGS,
            };
            while lens[seg] == K {
                seg = (seg + 1) % SEGS;
            }
            parts[seg][lens[seg]] = record;
            lens[seg] += 1;
        }
        tx.charge(self.rt.cost.alu * Self::HOME_COST * records.len() as u64);
        for (seg, (part, len)) in leaf.segs.iter().zip(parts.iter().zip(lens)) {
            seg.write_all(tx, &part[..len])?;
        }
        Ok(())
    }

    /// `moveToReserved`: every record of `leaf` in one sorted transient
    /// buffer, tombstones dropped — for a reorganization, a split or a
    /// merge, which rewrite the segments from it (scans sort in place on
    /// the caller's buffer instead). The buffer is the paper's *reserved
    /// keys* — a leaf's worth, taken for the reorganization and released
    /// right after (its footprint is charged to the §5.7 transient
    /// accounting) — and lives on the stack ([`Reserved`]).
    pub(crate) fn peek_all(
        &self,
        tx: &mut Tx<'_>,
        leaf: &EunoLeaf<SEGS, K>,
    ) -> TxResult<Reserved<SEGS, K>> {
        let mut records = Reserved {
            records: [[(0, 0); K]; SEGS],
            len: 0,
        };
        for seg in &leaf.segs {
            seg.read_into(tx, &mut records)?;
        }
        records.sort_unstable_by_key(|&(k, _)| k);
        // Merge-sort cost beyond the per-cell charges.
        tx.charge(self.rt.cost.alu * records.len() as u64);
        let bytes = Self::capacity() * std::mem::size_of::<(u64, u64)>();
        self.reserved_bytes.allocated(bytes);
        self.reserved_bytes.freed(bytes);
        Ok(records)
    }
}

/// A leaf's live records, as [`EunoBTree::peek_all`] gathers them: room
/// for a full leaf, on the stack, so a split or a reorganization
/// allocates nothing for its reserved keys. Tombstones are dropped as
/// they come in.
pub(crate) struct Reserved<const SEGS: usize, const K: usize> {
    records: [[(u64, u64); K]; SEGS],
    len: usize,
}

impl<const SEGS: usize, const K: usize> Extend<(u64, u64)> for Reserved<SEGS, K> {
    fn extend<I: IntoIterator<Item = (u64, u64)>>(&mut self, iter: I) {
        for record in iter.into_iter().filter(|&(_, v)| v != TOMBSTONE) {
            self.records.as_flattened_mut()[self.len] = record;
            self.len += 1;
        }
    }
}

impl<const SEGS: usize, const K: usize> std::ops::Deref for Reserved<SEGS, K> {
    type Target = [(u64, u64)];

    fn deref(&self) -> &[(u64, u64)] {
        &self.records.as_flattened()[..self.len]
    }
}

impl<const SEGS: usize, const K: usize> std::ops::DerefMut for Reserved<SEGS, K> {
    fn deref_mut(&mut self) -> &mut [(u64, u64)] {
        &mut self.records.as_flattened_mut()[..self.len]
    }
}
