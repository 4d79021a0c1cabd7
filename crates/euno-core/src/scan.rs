//! Range scans over the leaf chain (§4.2.4): one walk for every
//! configuration (design in DESIGN.md §4.7).
//!
//! Under one epoch pin the scan takes the chain a leaf at a time. Each
//! *leaf step* is an episode-free optimistic section per segment — the
//! last two share the closing section — leaving a sorted batch on the tail
//! of the caller's buffer and returning the successor it read in its
//! closing section; the following step starts there without touching the
//! index, and re-descends from the root only when that leaf has split or
//! been merged away.
//!
//! The scan is the one reader of `seqno` ([`EunoLeaf::seqno_carried`],
//! [`EunoLeaf::seqno_closing`]): a step reads one copy with segment 0,
//! before its other sections, and the other in its closing section, so
//! each of its six lines is read once. A walk that finds the step's leaf
//! reads segment 0 and the first copy inside its own section; otherwise —
//! a leaf hint, the HTM region, the step before — the step reads them in an
//! *opening* section that first checks the cursor against the fence there,
//! as a point operation does.
//! A step that keeps failing validation runs its leaf through the locked
//! rung — split lock plus one HTM region — which is what bounds a scan.

use euno_htm::euno_metrics::Counter;
use euno_htm::{RetryPolicy, ThreadCtx, KEY_SENTINEL, TOMBSTONE};

use crate::node::{covers, EunoLeaf, Guard, NodeRef};
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

/// Where a leaf step starts: the leaf, and what the walk that found it
/// read of it in its own section ([`Carried`]), if a walk did.
struct Hint<'g, const SEGS: usize, const K: usize>
where
    Keys<K>: KeyPad,
{
    leaf: &'g EunoLeaf<SEGS, K>,
    carried: Option<Carried<K>>,
}

/// What a walk reads of the leaf it found for a scan, inside its validated
/// section: the carried copy of `seqno` — the step's bracket opens there —
/// and, where the step reads segment 0 apart from its closing section
/// ([`EunoLeaf::CLOSING`] > 0), that segment's records at or above the
/// cursor. The step skips that segment, whose line — every segment line
/// carries records, and so takes value writes — is then read once, not
/// twice (DESIGN.md §4.7 has what the second read cost).
struct Carried<const K: usize> {
    seqno: u64,
    records: [(u64, u64); K],
    len: usize,
}

impl<const K: usize> Carried<K> {
    /// Segment 0 of `leaf` from `from` on, by direct loads.
    fn read<const SEGS: usize>(ctx: &mut ThreadCtx, leaf: &EunoLeaf<SEGS, K>, from: u64) -> Self
    where
        Keys<K>: KeyPad,
    {
        let mut carried = Carried {
            seqno: leaf.seqno_carried().load_direct(ctx),
            records: [(0, 0); K],
            len: 0,
        };
        if EunoLeaf::<SEGS, K>::CLOSING > 0 {
            leaf.segs[0].read_direct(ctx, from, |r| {
                carried.records[carried.len] = r;
                carried.len += 1;
            });
        }
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
        // What vetoes this thread's contention splits for a while.
        ctx.note_scan();
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
    /// covers `cursor` to `out`, sorted, and return the successor — `None`
    /// at the chain's end, or where the leaf alone gives the scan the
    /// `want` records it still needs.
    /// Nothing unvalidated survives on `out`, so retries never duplicate;
    /// a record-less leaf is an empty batch with a successor, stepped over.
    ///
    /// One validated section per segment below [`EunoLeaf::CLOSING`] and
    /// one for the rest, so a write to the leaf voids one line of the read
    /// and not six; `tries` bounds the sections that *fail*. The first
    /// reads `s1`, the carried copy of `seqno`, with segment 0 — in the
    /// walk's section, or in an opening section that checks `cursor <
    /// fence` first; only the closing section checks the closing copy
    /// against it (DESIGN.md §4.7): while `seqno` stands a key stays in its
    /// segment — whatever moves a record bumps both copies first — and it
    /// only grows under the pin, so reading `s1` in a validated section
    /// before the others and in the last means it read `s1` throughout: the
    /// sections are atomic images of disjoint key sets.
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
        let closing = EunoLeaf::<SEGS, K>::CLOSING;
        let mut current = None;
        'walk: while tries > 0 {
            // No hint (first step, or the leaf has split or been merged
            // away): walk to the cursor's leaf — as its own stage, so a
            // retried leaf read never re-walks the index.
            out.truncate(base);
            let Hint { leaf, carried } = hint.take().unwrap_or_else(|| {
                let home = self.home(ctx, cursor);
                let (at, carried) = self.locate_then(ctx, g, cursor, home, |ctx, leaf| {
                    Carried::read(ctx, leaf, cursor)
                });
                Hint {
                    leaf: at.leaf,
                    carried,
                }
            });
            current = Some(leaf);
            let mut seqno = carried.as_ref().map(|c| c.seqno);
            if let Some(c) = &carried {
                out.extend_from_slice(&c.records[..c.len]);
            }
            let mut next = None;
            let first = usize::from(seqno.is_some() && closing > 0);
            for i in first..=closing {
                if i == 1 && probe::mutated("scan:skip-segment") {
                    continue;
                }
                let mark = out.len();
                let segs = match i == closing {
                    true => &leaf.segs[closing..],
                    false => std::slice::from_ref(&leaf.segs[i]),
                };
                // `Some(false)` ⇒ the leaf no longer covers the cursor
                // (opening), or its `seqno` is no longer `s1` (closing).
                let held = self.validated_section(ctx, cursor, &mut tries, |ctx| {
                    out.truncate(mark);
                    if i == 0 && carried.is_none() {
                        // The opening section: what a point operation
                        // checks, and the version the step brackets with.
                        if !covers(leaf.fence(0).load_direct(ctx), cursor) {
                            return Some(false);
                        }
                        seqno = Some(leaf.seqno_carried().load_direct(ctx));
                    }
                    for seg in segs {
                        seg.read_direct(ctx, cursor, |r| out.push(r));
                    }
                    if i < closing {
                        return Some(true);
                    }
                    let n = NodeRef::from_word(leaf.next().load_direct(ctx));
                    let live = out[base..]
                        .iter()
                        .filter(|&&(k, v)| k >= cursor && v != TOMBSTONE);
                    next = (!n.is_null() && live.count() < want).then(|| Hint {
                        leaf: g.leaf(n),
                        carried: None,
                    });
                    let stands = Some(leaf.seqno_closing().load_direct(ctx)) == seqno;
                    Some(stands || probe::mutated("scan:skip-closing-seqno"))
                });
                match held {
                    Some(true) if i == closing => {
                        ctx.charge(self.rt.cost.alu * sort_batch(out, base, cursor));
                        return next;
                    }
                    // A section that held gives its try back.
                    Some(true) => {
                        tries += 1;
                        probe::point("scan:section");
                    }
                    Some(false) => {
                        probe::mark("scan:moved");
                        current = None;
                        continue 'walk;
                    }
                    None => break 'walk,
                }
            }
        }
        // The last try's unvalidated read is still on the tail.
        out.truncate(base);
        ctx.metric_add(Counter::ScanLockedSteps, 1);
        let leaf = current.or(hint.map(|h| h.leaf));
        self.leaf_step_locked(ctx, g, cursor, leaf, out)
    }

    /// The locked rung of [`Self::leaf_step`] (§4.2.4 as the paper has
    /// it): split lock plus one HTM region, re-finding the cursor's leaf
    /// while the cursor is at or above its fence. The leaf's lower bound is
    /// at or below the cursor — `locate` found it for the cursor — or it is
    /// a successor the cursor has not passed, so the fence check is the
    /// point operations' one, and the one a step's opening section makes.
    /// Ends on the fallback lock at worst.
    fn leaf_step_locked<'g>(
        &self,
        ctx: &mut ThreadCtx,
        g: Guard<'g, SEGS, K>,
        cursor: u64,
        mut leaf: Option<&'g EunoLeaf<SEGS, K>>,
        out: &mut Vec<(u64, u64)>,
    ) -> Option<Hint<'g, SEGS, K>> {
        let base = out.len();
        loop {
            let leaf = leaf
                .take()
                .unwrap_or_else(|| self.locate(ctx, g, cursor).leaf);
            leaf.split_lock().acquire(ctx);
            let piece = ctx.htm_execute(&self.ctrl.fallback, &RetryPolicy::DBX, |tx| {
                tx.set_op_key(cursor);
                out.truncate(base);
                if !covers(tx.read(leaf.fence(0))?, cursor) {
                    return Ok(None);
                }
                self.peek_all_into(tx, leaf, out)?;
                tx.charge(self.rt.cost.alu * sort_batch(out, base, cursor));
                // The tail of `out` is the paper's transient sorted buffer.
                let bytes = Self::capacity() * 16;
                self.reserved_bytes.allocated(bytes);
                self.reserved_bytes.freed(bytes);
                let next = NodeRef::from_word(tx.read(leaf.next())?);
                Ok(Some((!next.is_null()).then(|| Hint {
                    leaf: g.leaf(next),
                    carried: None,
                })))
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
