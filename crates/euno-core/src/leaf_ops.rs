//! Intra-leaf operations: scattered-leaf search, the randomized write
//! scheduler, and leaf reorganization (Algorithm 3).
//!
//! Inserts use the randomized **write scheduler** over the leaf's segments
//! (Algorithm 3); overflowing leaves first *reorganize* — merge into the
//! transient sorted buffer (the paper's *reserved keys*), drop tombstones,
//! and deal the records round-robin back over the segments so key-adjacent
//! records stay on different cache lines — and split only when genuinely
//! full (the split itself lives in [`crate::structural`]).

use euno_htm::{EventKind, Tx, TxCell, TxResult, TOMBSTONE};
use euno_rng::Rng;

use crate::node::EunoLeaf;
use crate::probe;
use crate::tree::{EunoBTree, Lower, Req};

/// Write-scheduler retries before reorganizing (Algorithm 3 line 61).
const SCHEDULER_RETRIES: u32 = 3;

impl<const SEGS: usize, const K: usize> EunoBTree<SEGS, K> {
    /// Locate `key`'s value cell: compare each segment's first/last
    /// element, binary-searching only segments whose range brackets the
    /// key (the paper's scattered-leaf search).
    fn leaf_find<'t>(
        &self,
        tx: &mut Tx<'_>,
        leaf: &'t EunoLeaf<SEGS, K>,
        key: u64,
    ) -> TxResult<Option<&'t TxCell<u64>>> {
        for seg in &leaf.segs {
            if let Some(i) = seg.find(tx, key)? {
                return Ok(Some(seg.val_cell(i)));
            }
        }
        Ok(None)
    }

    pub(crate) fn lower_body(
        &self,
        tx: &mut Tx<'_>,
        leaf: &EunoLeaf<SEGS, K>,
        req: Req,
        key: u64,
        newval: u64,
        have_split_lock: bool,
    ) -> TxResult<Lower> {
        let found = self.leaf_find(tx, leaf, key)?;
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
                self.insert_record(tx, leaf, key, newval, have_split_lock)
            }
        }
    }

    /// Algorithm 3: write-scheduler dispatch, reorganization, split.
    fn insert_record(
        &self,
        tx: &mut Tx<'_>,
        leaf: &EunoLeaf<SEGS, K>,
        key: u64,
        newval: u64,
        have_split_lock: bool,
    ) -> TxResult<Lower> {
        // 1. Randomized dispatch to a non-full segment (lines 60-66). The
        //    scheduler never repeats the previous index (line 60).
        let mut idx = if SEGS == 1 {
            0
        } else {
            tx.ctx().rng().gen_range(0..SEGS)
        };
        let mut tries = 0;
        loop {
            if !leaf.segs[idx].is_full_tx(tx)? {
                leaf.segs[idx].insert(tx, key, newval)?;
                return Ok(Lower::Done(None));
            }
            if SEGS == 1 || tries >= SCHEDULER_RETRIES {
                break;
            }
            let prev = idx;
            while idx == prev && SEGS > 1 {
                idx = tx.ctx().rng().gen_range(0..SEGS);
            }
            tries += 1;
        }

        // 2. Retries exhausted: the leaf is near-full or unevenly loaded
        //    (lines 67-86). Reorganizing or splitting rewrites shared
        //    state, so demand the advisory split lock first when the node
        //    may genuinely be full (the serialized fallback path is already
        //    exclusive).
        let occupied = leaf.occupied_tx(tx)?;
        if occupied >= Self::capacity() && !have_split_lock && !tx.is_fallback() {
            return Ok(Lower::NeedSplitLock);
        }

        // moveToReserved: merge every segment into the (transient) sorted
        // buffer, compacting tombstones — the deferred deletion cleanup of
        // §4.2.4 happens here too.
        let records = self.collect_all(tx, leaf)?;

        if records.len() < Self::capacity() {
            // 2a. Sufficient room after reorganization (lines 67-74): deal
            //     the sorted records round-robin over the segments so
            //     key-adjacent records land on different cache lines, then
            //     place the new key in the emptiest segment.
            //
            // Bump the version before any record moves, as on the split
            // and merge paths: records hop between segments here, so an
            // episode-free reader searching segment by segment could miss
            // a key that moved from a not-yet-searched segment into an
            // already-searched one unless the bump is published first.
            probe::mark("reorg:seqno");
            let seq = tx.read(&leaf.seqno)?;
            tx.write(&leaf.seqno, seq + 1)?;
            probe::mark("reorg:records");
            self.redistribute(tx, leaf, &records)?;
            tx.ctx().trace(EventKind::Reorg {
                leaf: leaf as *const EunoLeaf<SEGS, K> as u64,
            });
            let seg = self.emptiest_segment(tx, leaf)?;
            leaf.segs[seg].insert(tx, key, newval)?;
            Ok(Lower::Done(None))
        } else {
            // 2b. Really full: sort, split, reorganize (lines 75-86).
            debug_assert!(have_split_lock || tx.is_fallback());
            let target = self.split_leaf(tx, leaf, &records, key)?;
            let seg = self.emptiest_segment(tx, target)?;
            target.segs[seg].insert(tx, key, newval)?;
            Ok(Lower::Done(None))
        }
    }

    /// Index of the segment with the fewest records (guaranteed non-full
    /// after a reorganization left total occupancy below capacity).
    pub(crate) fn emptiest_segment(
        &self,
        tx: &mut Tx<'_>,
        leaf: &EunoLeaf<SEGS, K>,
    ) -> TxResult<usize> {
        let mut best = 0;
        let mut best_cnt = usize::MAX;
        for (i, seg) in leaf.segs.iter().enumerate() {
            let c = seg.count_tx(tx)?;
            if c < best_cnt {
                best = i;
                best_cnt = c;
            }
        }
        debug_assert!(best_cnt < K, "no free slot after reorganization");
        Ok(best)
    }

    /// Deal `records` (sorted) round-robin across the segments: segment
    /// `i` receives records `i, i+SEGS, i+2·SEGS, …` — each segment stays
    /// sorted while adjacent keys land in different segments (and lines).
    pub(crate) fn redistribute(
        &self,
        tx: &mut Tx<'_>,
        leaf: &EunoLeaf<SEGS, K>,
        records: &[(u64, u64)],
    ) -> TxResult<()> {
        debug_assert!(records.len() <= Self::capacity());
        let mut part = Vec::with_capacity(records.len().div_ceil(SEGS));
        for (i, seg) in leaf.segs.iter().enumerate() {
            part.clear();
            part.extend(records.iter().copied().skip(i).step_by(SEGS));
            seg.write_all(tx, &part)?;
        }
        Ok(())
    }

    /// `moveToReserved`: drain every segment into one sorted transient
    /// buffer, dropping tombstones. The buffer is the paper's *reserved
    /// keys* — allocated for the reorganization and released right after
    /// (its footprint is charged to the §5.7 transient accounting).
    fn collect_all(&self, tx: &mut Tx<'_>, leaf: &EunoLeaf<SEGS, K>) -> TxResult<Vec<(u64, u64)>> {
        let mut records = Vec::with_capacity(Self::capacity());
        for seg in &leaf.segs {
            seg.drain_into(tx, &mut records)?;
        }
        records.retain(|&(_, v)| v != TOMBSTONE);
        records.sort_unstable_by_key(|&(k, _)| k);
        // Merge-sort cost beyond the per-cell charges.
        tx.charge(self.rt.cost.alu * records.len() as u64);
        let bytes = records.capacity() * 16;
        self.reserved_bytes.allocated(bytes);
        self.reserved_bytes.freed(bytes);
        Ok(records)
    }

    /// Read every record sorted, tombstones dropped, WITHOUT draining the
    /// segments — the read-only counterpart of [`Self::collect_all`] used
    /// by merges (scans sort in place on the caller's buffer instead).
    pub(crate) fn peek_all(
        &self,
        tx: &mut Tx<'_>,
        leaf: &EunoLeaf<SEGS, K>,
    ) -> TxResult<Vec<(u64, u64)>> {
        let mut records = Vec::with_capacity(Self::capacity());
        for seg in &leaf.segs {
            seg.read_into(tx, &mut records)?;
        }
        records.retain(|&(_, v)| v != TOMBSTONE);
        records.sort_unstable_by_key(|&(k, _)| k);
        tx.charge(self.rt.cost.alu * records.len() as u64);
        let bytes = records.capacity() * 16;
        self.reserved_bytes.allocated(bytes);
        self.reserved_bytes.freed(bytes);
        Ok(records)
    }
}
