//! Range scans over the leaf chain (§4.2.4): one walk for every
//! configuration (design in DESIGN.md §4.7).
//!
//! Under one epoch pin the scan takes the chain a leaf at a time. Each
//! *leaf step* is an episode-free optimistic section per segment, leaving a
//! sorted batch on the tail of the caller's buffer and returning a validated
//! hint: the successor, its `seqno` and its segment 0's records, read in
//! the step's closing section; the following step starts at the hinted
//! leaf, past its segment 0, and re-descends from the root only when that
//! leaf's `seqno` has moved.
//! A step that keeps failing validation runs its leaf through the locked
//! rung — split lock plus one HTM region — which is what bounds a scan.

use euno_htm::euno_metrics::Counter;
use euno_htm::{RetryPolicy, ThreadCtx, TxWord, KEY_SENTINEL, TOMBSTONE};

use crate::node::{EunoLeaf, Guard, NodeRef};
use crate::probe;
use crate::segment::{KeyPad, Keys};
use crate::tree::EunoBTree;

/// Sections a leaf step may fail before the locked rung takes the leaf.
/// The tail must exist — in concurrent mode the snapshot check is the
/// *global* TL2 clock, so steady writers anywhere in the tree can fail a
/// reader forever — but stay rare: a locked step that reaches the fallback
/// lock parks every other thread. `virt-scan-churn --seed 3 --seconds 10`:
/// 4 → 27.56 M ops/s (797 locked steps, p999 × 3.4), 8 → 28.76 M (4), 16, 64
/// and unbounded → 28.74 M (0: only `scan_ladder.rs` and TL2 reach the rung).
const STEP_TRIES: u32 = 16;

/// A leaf and the `seqno` it had inside a validated section that read it
/// (any copy: the copies are equal at every commit).
type Pair<'g, const SEGS: usize, const K: usize> = (&'g EunoLeaf<SEGS, K>, u64);

/// Where the next leaf step starts: the chain successor and its `seqno`,
/// read beside `next` in the closing section of the step before — and,
/// where that was an optimistic step of a leaf of more than one segment,
/// the successor's segment 0's records ([`Carried`]), read in the same
/// section.
struct Hint<'g, const SEGS: usize, const K: usize>
where
    Keys<K>: KeyPad,
{
    pair: Pair<'g, SEGS, K>,
    first: Option<Carried<K>>,
}

/// The records, at or above the cursor, of one segment of a step's leaf,
/// read beside the leaf's `seqno` in the section that found the leaf — the
/// step before's closing section (segment 0), or the walk that located it
/// (the cursor's home segment): the step skips that segment, whose line —
/// every segment line carries records, and so takes value writes — is then
/// read once, not twice (DESIGN.md §4.7 has what the second read cost).
/// Never the last segment, which the closing section reads for `next`.
struct Carried<const K: usize> {
    seg: usize,
    records: [(u64, u64); K],
    len: usize,
}

impl<const K: usize> Carried<K> {
    /// The records of `seg` at or above `from`, by direct loads.
    fn read<const SEGS: usize>(
        ctx: &mut ThreadCtx,
        leaf: &EunoLeaf<SEGS, K>,
        seg: usize,
        from: u64,
    ) -> Self
    where
        Keys<K>: KeyPad,
    {
        debug_assert!(seg + 1 < SEGS, "the closing segment is never carried");
        let mut carried = Carried {
            seg,
            records: [(0, 0); K],
            len: 0,
        };
        leaf.segs[seg].read_direct(ctx, from, |r| {
            carried.records[carried.len] = r;
            carried.len += 1;
        });
        carried
    }
}

impl<const SEGS: usize, const K: usize> EunoBTree<SEGS, K>
where
    Keys<K>: KeyPad,
{
    /// Walk the leaf chain from the leaf covering `from`, appending up to
    /// `count` live records to `out`. Returns the number collected.
    pub(crate) fn scan_leaves(
        &self,
        ctx: &mut ThreadCtx,
        from: u64,
        count: usize,
        out: &mut Vec<(u64, u64)>,
    ) -> usize {
        self.scan_leaves_budgeted(ctx, from, count, out, STEP_TRIES)
    }

    /// [`Self::scan_leaves`] with the per-step try budget as an argument,
    /// so tests can pin a rung (0 ⇒ every step takes the locked rung).
    fn scan_leaves_budgeted(
        &self,
        ctx: &mut ThreadCtx,
        from: u64,
        count: usize,
        out: &mut Vec<(u64, u64)>,
        tries: u32,
    ) -> usize {
        let start = out.len();
        let mut cursor = from;
        // Pinned throughout: hinted leaves must outlive merge retirements.
        ctx.pinned(|ctx, g| {
            let mut hint = None;
            while out.len() - start < count {
                let want = count - (out.len() - start);
                hint = self.leaf_step(ctx, g, cursor, hint.take(), want, tries, out);
                // Advance past the last delivered key. (No record is at the
                // top of the keyspace: that is `KEY_SENTINEL`, a free
                // slot's, which no put stores.)
                if let Some(&(k, _)) = out[start..].last() {
                    debug_assert!(k < KEY_SENTINEL);
                    cursor = k + 1;
                }
                if hint.is_none() {
                    break;
                }
            }
        });
        out.truncate(start.saturating_add(count));
        out.len() - start
    }

    /// One leaf step: append the live records ≥ `cursor` of the leaf that
    /// covers `cursor` to `out`, sorted, and return the successor hint —
    /// `None` at the chain's end, or where the leaf alone gives the scan
    /// the `want` records it still needs: the successor's line is then not
    /// read at all.
    /// Nothing unvalidated survives on `out`, so retries never duplicate;
    /// a record-less leaf is an empty batch with a hint, stepped over.
    ///
    /// One validated section per segment, so a write to the leaf voids one
    /// line of the read and not seven; `tries` bounds the sections that
    /// *fail*. Only the last checks `seqno` (DESIGN.md §4.7), on the copy
    /// beside `next` on the segment line that section reads anyway: while it
    /// stands a key stays in its segment — whatever moves a record bumps
    /// every copy first — and it only grows under the pin, so reading `s1`
    /// in a validated section before the step and in its last means it
    /// read `s1` throughout: the sections are atomic images of disjoint key
    /// sets.
    #[allow(clippy::too_many_arguments)]
    fn leaf_step<'g>(
        &self,
        ctx: &mut ThreadCtx,
        g: Guard<'g, SEGS, K>,
        cursor: u64,
        mut hint: Option<Hint<'g, SEGS, K>>,
        want: usize,
        mut tries: u32,
        out: &mut Vec<(u64, u64)>,
    ) -> Option<Hint<'g, SEGS, K>> {
        let base = out.len();
        let mut pair = None;
        'walk: while tries > 0 {
            // No hint (first step, or the hinted leaf has split or been
            // merged away): walk to the cursor's leaf — as its own stage,
            // so a retried leaf read never re-walks the index — and read
            // every segment of it.
            out.truncate(base);
            let ((leaf, s1), first) = match hint.take() {
                Some(Hint { pair, first }) => (pair, first),
                // A walk that finds the leaf reads the cursor's home
                // segment in its own section, after the `seqno` copy there.
                None => {
                    let home = self.home(ctx, cursor);
                    let (at, first) = self.locate_then(ctx, g, cursor, home, |ctx, leaf| {
                        (home + 1 < SEGS).then(|| Carried::read(ctx, leaf, home, cursor))
                    });
                    ((at.leaf, at.seqno), first.flatten())
                }
            };
            if let Some(first) = &first {
                out.extend_from_slice(&first.records[..first.len]);
            }
            pair = Some((leaf, s1));
            let mut next = None;
            let skip = first.as_ref().map(|first| first.seg);
            for (i, seg) in leaf.segs.iter().enumerate() {
                if Some(i) == skip {
                    continue;
                }
                let (mark, last) = (out.len(), i + 1 == SEGS);
                // `Some(false)` ⇒ the leaf's `seqno` is no longer `s1`.
                let held = self.validated_section(ctx, cursor, &mut tries, |ctx| {
                    out.truncate(mark);
                    seg.read_direct(ctx, cursor, |r| out.push(r));
                    if !last {
                        return Some(true);
                    }
                    let n = NodeRef::from_word(leaf.next().load_direct(ctx));
                    let live = out[base..]
                        .iter()
                        .filter(|&&(k, v)| k >= cursor && v != TOMBSTONE);
                    next = (!n.is_null() && live.count() < want).then(|| {
                        let n = g.leaf(n);
                        let seqno = n.seqno(0).load_direct(ctx);
                        let first = (SEGS > 1).then(|| Carried::read(ctx, n, 0, cursor));
                        Hint {
                            pair: (n, seqno),
                            first,
                        }
                    });
                    let stands = leaf.seqno_beside_next().load_direct(ctx) == s1;
                    Some(stands || probe::mutated("scan:skip-closing-seqno"))
                });
                match held {
                    Some(true) if last => {
                        ctx.charge(self.rt.cost.alu * sort_batch(out, base, cursor));
                        return next;
                    }
                    // A section that held gives its try back.
                    Some(true) => tries += 1,
                    Some(false) => {
                        probe::mark("scan:moved");
                        pair = None;
                        continue 'walk;
                    }
                    None => break 'walk,
                }
                probe::point("scan:section");
            }
        }
        // The last try's unvalidated read is still on the tail.
        out.truncate(base);
        ctx.metric_add(Counter::ScanLockedSteps, 1);
        let pair = pair.or(hint.map(|h| h.pair));
        self.leaf_step_locked(ctx, g, cursor, pair, out)
    }

    /// The locked rung of [`Self::leaf_step`] (§4.2.4 as the paper has
    /// it): split lock plus one HTM region, re-finding the cursor's leaf
    /// while its `seqno` moves. Ends on the fallback lock at worst.
    fn leaf_step_locked<'g>(
        &self,
        ctx: &mut ThreadCtx,
        g: Guard<'g, SEGS, K>,
        cursor: u64,
        mut pair: Option<Pair<'g, SEGS, K>>,
        out: &mut Vec<(u64, u64)>,
    ) -> Option<Hint<'g, SEGS, K>> {
        let base = out.len();
        loop {
            let (leaf, seqno) = pair.take().unwrap_or_else(|| {
                let at = self.locate(ctx, g, cursor);
                (at.leaf, at.seqno)
            });
            leaf.split_lock().acquire(ctx);
            let piece = ctx.htm_execute(&self.ctrl.fallback, &RetryPolicy::DBX, |tx| {
                tx.set_op_key(cursor);
                out.truncate(base);
                if tx.read(leaf.seqno_beside_next())? != seqno {
                    return Ok(None);
                }
                self.peek_all_into(tx, leaf, out)?;
                tx.charge(self.rt.cost.alu * sort_batch(out, base, cursor));
                // The tail of `out` is the paper's transient sorted buffer.
                let bytes = Self::capacity() * 16;
                self.reserved_bytes.allocated(bytes);
                self.reserved_bytes.freed(bytes);
                let next = NodeRef::from_word(tx.read(leaf.next())?);
                if next.is_null() {
                    return Ok(Some(None));
                }
                let n = g.leaf(next);
                let pair = (n, tx.read(n.seqno_beside_next())?);
                Ok(Some(Some(Hint { pair, first: None })))
            });
            leaf.split_lock().release(ctx);
            if let Some(next) = piece.value {
                return next;
            }
        }
    }
}

/// Reduce the raw leaf read on `out[base..]` to the batch a step delivers:
/// live records ≥ `cursor`, in key order. Returns the batch length.
fn sort_batch(out: &mut Vec<(u64, u64)>, base: usize, cursor: u64) -> u64 {
    let mut kept = base;
    for i in base..out.len() {
        if out[i].0 >= cursor && out[i].1 != TOMBSTONE {
            out.swap(kept, i);
            kept += 1;
        }
    }
    out.truncate(kept);
    out[base..].sort_unstable_by_key(|&(k, _)| k);
    (kept - base) as u64
}

#[cfg(test)]
mod tests {
    use std::sync::Arc;

    use euno_htm::euno_metrics::Counter;
    use euno_htm::{ConcurrentMap, Runtime, ThreadCtx};

    use super::STEP_TRIES;
    use crate::probe;
    use crate::tree::EunoBTreeDefault;

    /// One scan pinned to a rung: `tries` 0 is the locked rung only.
    fn scan_on_rung(
        t: &EunoBTreeDefault,
        ctx: &mut ThreadCtx,
        from: u64,
        count: usize,
        tries: u32,
    ) -> Vec<(u64, u64)> {
        let mut out = vec![(7, 7)];
        let n = t.scan_leaves_budgeted(ctx, from, count, &mut out, tries);
        assert_eq!(out.len(), n + 1, "appends, and reports what it appended");
        assert_eq!(out.remove(0), (7, 7), "the caller's records are untouched");
        out
    }

    #[test]
    fn the_two_rungs_agree() {
        let rt = Runtime::new_virtual();
        let t = EunoBTreeDefault::new(Arc::clone(&rt));
        let mut ctx = rt.thread(1);
        for k in (0..1_200u64).rev() {
            t.put(&mut ctx, k * 2, k);
        }
        t.delete(&mut ctx, 100);
        t.delete(&mut ctx, 102);
        // Whole tree, across the tombstones, mid-leaf cursors (between two
        // keys and on one), into and on the last leaf, past the end, and
        // the degenerate counts.
        for (from, count) in [
            (0u64, usize::MAX),
            (95, 10),
            (1_001, 40),
            (1_002, 1),
            (2_380, 64),
            (2_398, 10),
            (5_000, 3),
            (u64::MAX, 10),
            (0, 0),
        ] {
            let locked = scan_on_rung(&t, &mut ctx, from, count, 0);
            let steps = ctx.metric(Counter::ScanLockedSteps);
            assert!(count == 0 || steps > 0, "budget 0 takes the locked rung");
            let optimistic = scan_on_rung(&t, &mut ctx, from, count, STEP_TRIES);
            assert_eq!(
                ctx.metric(Counter::ScanLockedSteps),
                steps,
                "an undisturbed scan never reaches the tail"
            );
            assert_eq!(locked, optimistic, "from={from} count={count}");
            let want: Vec<_> = t
                .collect_all_plain()
                .into_iter()
                .filter(|&(k, _)| k >= from)
                .take(count)
                .collect();
            assert_eq!(optimistic, want, "from={from} count={count}");
        }
    }

    #[test]
    fn scan_from_top_of_keyspace_is_empty() {
        let rt = Runtime::new_virtual();
        let t = EunoBTreeDefault::new(Arc::clone(&rt));
        let mut ctx = rt.thread(1);
        for k in 0..200u64 {
            t.put(&mut ctx, k, k);
        }
        let mut out = Vec::new();
        assert_eq!(t.scan(&mut ctx, u64::MAX, 10, &mut out), 0);
        assert!(out.is_empty());
        // The topmost insertable key is still delivered, once.
        t.put(&mut ctx, u64::MAX - 1, 42);
        assert_eq!(t.scan(&mut ctx, u64::MAX - 1, 10, &mut out), 1);
        assert_eq!(out, vec![(u64::MAX - 1, 42)]);
    }

    #[test]
    fn split_during_scan_stays_sorted_and_duplicate_free() {
        // Concurrent splits and reorganizations force the seqno-mismatch
        // retry path mid-scan, and puts that overwrite a tombstone land
        // between a step's sections; the cursor and the per-section marks
        // must make every emitted run strictly ascending (no re-delivery
        // after a re-find, no key read in two segments).
        use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
        // 255 unused keys between any two the writers use.
        let key = |k: u64| k << 8;
        let rt = Runtime::new_concurrent();
        let t = EunoBTreeDefault::new(Arc::clone(&rt));
        {
            let mut ctx = rt.thread(0);
            for k in (0..4_000u64).step_by(4) {
                t.put(&mut ctx, key(k), k);
            }
        }
        let stop = AtomicBool::new(false);
        let reorganizations: usize = std::thread::scope(|s| {
            let mut writers = Vec::new();
            for w in 0..2u64 {
                let (t, stop) = (&t, &stop);
                let rt = Arc::clone(&rt);
                writers.push(s.spawn(move || {
                    let mut ctx = rt.thread(10 + w);
                    let mut k = w + 1;
                    // Dense inserts into the gaps keep splitting leaves
                    // under the scanners.
                    while !stop.load(Relaxed) {
                        t.put(&mut ctx, key(k % 4_000), k);
                        k += if k % 4 == 3 { 2 } else { 1 };
                    }
                    probe::take()
                }));
            }
            {
                let (t, stop) = (&t, &stop);
                let rt = Arc::clone(&rt);
                writers.push(s.spawn(move || {
                    let mut ctx = rt.thread(12);
                    let mut i = 0u64;
                    while !stop.load(Relaxed) {
                        // A preloaded key goes and comes back — into the
                        // slot its tombstone kept for it.
                        let k = key(i * 4 % 400);
                        t.delete(&mut ctx, k);
                        t.put(&mut ctx, k, k);
                        // A key nobody puts again (another one every lap)
                        // leaves its tombstone for good: they fill the
                        // leaf — a hundred keys' worth of leaves, so that
                        // a lap is short — until a put finds every segment
                        // full and has to reorganize it.
                        let once = k + 1 + i / 100 % 255;
                        t.put(&mut ctx, once, k);
                        t.delete(&mut ctx, once);
                        i += 1;
                    }
                    probe::take()
                }));
            }
            for r in 0..2u64 {
                let t = &t;
                let rt = Arc::clone(&rt);
                s.spawn(move || {
                    let mut ctx = rt.thread(20 + r);
                    let mut out = Vec::new();
                    for i in 0..200u64 {
                        out.clear();
                        let from = key((i * 37) % 3_000);
                        let n = t.scan(&mut ctx, from, 64, &mut out);
                        assert_eq!(n, out.len());
                        assert!(
                            out.windows(2).all(|w| w[0].0 < w[1].0),
                            "scan output must be strictly ascending"
                        );
                        assert!(out.iter().all(|&(k, _)| k >= from));
                    }
                });
            }
            std::thread::sleep(std::time::Duration::from_millis(100));
            stop.store(true, Relaxed);
            let marks = writers.into_iter().flat_map(|w| w.join().unwrap());
            marks.filter(|&m| m == "reorg:seqno").count()
        });
        // Probe marks exist in debug builds only.
        assert!(
            reorganizations > 0 || !cfg!(debug_assertions),
            "no leaf was reorganized under the scanners"
        );
    }
}
