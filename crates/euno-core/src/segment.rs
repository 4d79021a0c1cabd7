//! Leaf segments: the partitioned record storage of §4.1 (Figure 4).
//!
//! A Euno leaf splits its slots into `SEGS` segments of `K` slots. Keys
//! are sorted *within* a segment, unordered *across* segments; each
//! segment has its own occupancy metadata. Two layout decisions carry the
//! design's conflict behaviour:
//!
//! * every segment is a separate line-aligned block, so concurrent inserts
//!   dispatched to different segments touch disjoint cache lines;
//! * within a segment, the key area (with the count) and the value area
//!   live on *different* lines, so a search — which reads keys only —
//!   never collides with a concurrent value update. Under a hot Zipfian
//!   mix of gets and updates this is what keeps the lower HTM region's
//!   read set out of the write stream.

use euno_htm::{ThreadCtx, Tx, TxCell, TxResult, KEY_SENTINEL};

/// Key half of a segment: occupancy count + sorted keys, own line(s).
#[repr(C, align(64))]
struct SegKeys<const K: usize> {
    count: TxCell<u64>,
    keys: [TxCell<u64>; K],
}

/// Value half of a segment: parallel to the keys, own line(s).
#[repr(C, align(64))]
struct SegVals<const K: usize> {
    vals: [TxCell<u64>; K],
}

/// One line-aligned segment.
#[repr(C, align(64))]
pub struct Segment<const K: usize> {
    k: SegKeys<K>,
    v: SegVals<K>,
}

impl<const K: usize> Segment<K> {
    pub fn empty() -> Self {
        Segment {
            k: SegKeys {
                count: TxCell::new(0),
                keys: std::array::from_fn(|_| TxCell::new(KEY_SENTINEL)),
            },
            v: SegVals {
                vals: std::array::from_fn(|_| TxCell::new(0)),
            },
        }
    }

    #[inline]
    pub fn count_tx(&self, tx: &mut Tx<'_>) -> TxResult<usize> {
        Ok(tx.read(&self.k.count)? as usize)
    }

    /// Uninstrumented count (assertions, plain traversal).
    pub fn count_plain(&self) -> usize {
        self.k.count.load_plain() as usize
    }

    pub fn is_full_tx(&self, tx: &mut Tx<'_>) -> TxResult<bool> {
        Ok(self.count_tx(tx)? == K)
    }

    pub fn key_cell(&self, i: usize) -> &TxCell<u64> {
        &self.k.keys[i]
    }

    pub fn val_cell(&self, i: usize) -> &TxCell<u64> {
        &self.v.vals[i]
    }

    /// Search for `key`. The paper's fast path: compare against the
    /// segment's first and last element (keys are sorted within the
    /// segment), then binary-search only if the key is inside the range.
    pub fn find(&self, tx: &mut Tx<'_>, key: u64) -> TxResult<Option<usize>> {
        let cnt = self.count_tx(tx)?;
        if cnt == 0 {
            return Ok(None);
        }
        let first = tx.read(&self.k.keys[0])?;
        if key < first {
            return Ok(None);
        }
        let last = tx.read(&self.k.keys[cnt - 1])?;
        if key > last {
            return Ok(None);
        }
        let (mut lo, mut hi) = (0usize, cnt);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if tx.read(&self.k.keys[mid])? < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < cnt && tx.read(&self.k.keys[lo])? == key {
            Ok(Some(lo))
        } else {
            Ok(None)
        }
    }

    /// Insert `key → val` keeping the segment sorted. Caller guarantees
    /// the key is absent from the whole leaf and the segment is not full.
    /// Shifts at most `K − 1` slots — all within this segment's lines, so
    /// the data movement never interferes with other segments.
    pub fn insert(&self, tx: &mut Tx<'_>, key: u64, val: u64) -> TxResult<()> {
        let cnt = self.count_tx(tx)?;
        debug_assert!(cnt < K, "insert into full segment");
        let (mut lo, mut hi) = (0usize, cnt);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if tx.read(&self.k.keys[mid])? < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        let mut i = cnt;
        while i > lo {
            let k = tx.read(&self.k.keys[i - 1])?;
            let v = tx.read(&self.v.vals[i - 1])?;
            tx.write(&self.k.keys[i], k)?;
            tx.write(&self.v.vals[i], v)?;
            i -= 1;
        }
        tx.write(&self.k.keys[lo], key)?;
        tx.write(&self.v.vals[lo], val)?;
        tx.write(&self.k.count, (cnt + 1) as u64)?;
        Ok(())
    }

    /// Read this segment's records into `out` (transactionally).
    pub fn read_into(&self, tx: &mut Tx<'_>, out: &mut Vec<(u64, u64)>) -> TxResult<()> {
        let cnt = self.count_tx(tx)?;
        for i in 0..cnt {
            let k = tx.read(&self.k.keys[i])?;
            let v = tx.read(&self.v.vals[i])?;
            out.push((k, v));
        }
        Ok(())
    }

    /// Drain this segment's records into `out` and reset the count — the
    /// per-segment half of `moveToReserved`.
    pub fn drain_into(&self, tx: &mut Tx<'_>, out: &mut Vec<(u64, u64)>) -> TxResult<()> {
        self.read_into(tx, out)?;
        if self.count_tx(tx)? > 0 {
            tx.write(&self.k.count, 0)?;
        }
        Ok(())
    }

    /// Episode-free search for `key`, returning its value. Direct loads
    /// only: the caller validates the whole read (leaf `seqno`, seqlock,
    /// fallback cell) afterwards and retries on any change, so this scan
    /// tolerates — but must not crash on — torn intermediate states. The
    /// count is clamped to `K` because a torn read may observe a transient
    /// out-of-range value.
    pub fn find_direct(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        let cnt = (self.k.count.load_direct(ctx) as usize).min(K);
        if cnt == 0 {
            return None;
        }
        if key < self.k.keys[0].load_direct(ctx) || key > self.k.keys[cnt - 1].load_direct(ctx) {
            return None;
        }
        let (mut lo, mut hi) = (0usize, cnt);
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.k.keys[mid].load_direct(ctx) < key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo < cnt && self.k.keys[lo].load_direct(ctx) == key {
            Some(self.v.vals[lo].load_direct(ctx))
        } else {
            None
        }
    }

    /// Episode-free bulk read into `out`; same validation contract as
    /// [`Segment::find_direct`]: what a torn state leaves on `out` is the
    /// caller's to discard when its validation fails.
    pub fn read_into_direct(&self, ctx: &mut ThreadCtx, out: &mut Vec<(u64, u64)>) {
        let cnt = (self.k.count.load_direct(ctx) as usize).min(K);
        for i in 0..cnt {
            let k = self.k.keys[i].load_direct(ctx);
            let v = self.v.vals[i].load_direct(ctx);
            out.push((k, v));
        }
    }

    /// Replace this segment's contents with `records` (sorted by key).
    pub fn write_all(&self, tx: &mut Tx<'_>, records: &[(u64, u64)]) -> TxResult<()> {
        debug_assert!(records.len() <= K);
        debug_assert!(records.windows(2).all(|w| w[0].0 < w[1].0));
        for (i, &(k, v)) in records.iter().enumerate() {
            tx.write(&self.k.keys[i], k)?;
            tx.write(&self.v.vals[i], v)?;
        }
        tx.write(&self.k.count, records.len() as u64)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euno_htm::{LineId, RetryPolicy, Runtime, ThreadCtx};

    fn with_tx<R>(f: impl FnMut(&mut Tx<'_>) -> TxResult<R>) -> R {
        let rt = Runtime::new_virtual();
        let mut ctx: ThreadCtx = rt.thread(0);
        let fb = TxCell::new(0u64);
        ctx.htm_execute(&fb, &RetryPolicy::default(), f).value
    }

    #[test]
    fn segment_geometry_separates_keys_and_values() {
        assert_eq!(std::mem::align_of::<Segment<4>>(), 64);
        assert_eq!(std::mem::size_of::<Segment<4>>(), 128);
        let seg: Segment<4> = Segment::empty();
        // The search path (count + keys) and the update path (vals) must
        // fault on different lines.
        let key_line = seg.key_cell(0).line();
        let val_line = seg.val_cell(0).line();
        assert_ne!(key_line, val_line, "keys and values must not share a line");
        assert_eq!(
            LineId::of_ptr(&seg.k.count as *const _),
            key_line,
            "count lives with the keys"
        );
        // Segments in an array start on distinct lines.
        let arr: [Segment<4>; 2] = [Segment::empty(), Segment::empty()];
        assert_ne!(arr[0].key_cell(0).line(), arr[1].key_cell(0).line());
        assert_ne!(arr[0].val_cell(0).line(), arr[1].val_cell(0).line());
    }

    #[test]
    fn insert_keeps_sorted_and_find_works() {
        let seg: Segment<4> = Segment::empty();
        with_tx(|tx| {
            seg.insert(tx, 30, 300)?;
            seg.insert(tx, 10, 100)?;
            seg.insert(tx, 20, 200)?;
            assert_eq!(seg.find(tx, 10)?, Some(0));
            assert_eq!(seg.find(tx, 20)?, Some(1));
            assert_eq!(seg.find(tx, 30)?, Some(2));
            assert_eq!(seg.find(tx, 15)?, None);
            assert_eq!(seg.find(tx, 5)?, None, "below first: fast reject");
            assert_eq!(seg.find(tx, 99)?, None, "above last: fast reject");
            assert_eq!(tx.read(seg.key_cell(0))?, 10);
            assert_eq!(tx.read(seg.key_cell(1))?, 20);
            assert_eq!(tx.read(seg.key_cell(2))?, 30);
            Ok(())
        });
    }

    #[test]
    fn drain_empties_and_returns_pairs() {
        let seg: Segment<4> = Segment::empty();
        let got = with_tx(|tx| {
            seg.insert(tx, 2, 20)?;
            seg.insert(tx, 1, 10)?;
            let mut out = Vec::new();
            seg.drain_into(tx, &mut out)?;
            assert_eq!(seg.count_tx(tx)?, 0);
            Ok(out)
        });
        assert_eq!(got, vec![(1, 10), (2, 20)]);
        assert_eq!(seg.count_plain(), 0);
    }

    #[test]
    fn write_all_replaces_contents() {
        let seg: Segment<4> = Segment::empty();
        with_tx(|tx| {
            seg.insert(tx, 9, 90)?;
            seg.write_all(tx, &[(1, 10), (5, 50), (7, 70)])?;
            assert_eq!(seg.count_tx(tx)?, 3);
            assert_eq!(seg.find(tx, 9)?, None);
            assert_eq!(seg.find(tx, 5)?, Some(1));
            let mut out = Vec::new();
            seg.read_into(tx, &mut out)?;
            assert_eq!(out, vec![(1, 10), (5, 50), (7, 70)]);
            Ok(())
        });
    }

    #[test]
    fn direct_reads_agree_with_transactional_state() {
        let rt = Runtime::new_virtual();
        let mut ctx: ThreadCtx = rt.thread(0);
        let fb = TxCell::new(0u64);
        let seg: Segment<4> = Segment::empty();
        ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
            seg.insert(tx, 30, 300)?;
            seg.insert(tx, 10, 100)?;
            seg.insert(tx, 20, 200)?;
            Ok(())
        });
        assert_eq!(seg.find_direct(&mut ctx, 10), Some(100));
        assert_eq!(seg.find_direct(&mut ctx, 20), Some(200));
        assert_eq!(seg.find_direct(&mut ctx, 30), Some(300));
        assert_eq!(seg.find_direct(&mut ctx, 15), None);
        assert_eq!(seg.find_direct(&mut ctx, 5), None);
        assert_eq!(seg.find_direct(&mut ctx, 99), None);
        let mut out = Vec::new();
        seg.read_into_direct(&mut ctx, &mut out);
        assert_eq!(out, vec![(10, 100), (20, 200), (30, 300)]);
        // A torn out-of-range count is clamped, never read past K.
        seg.k.count.store_plain(77);
        let mut out = Vec::new();
        seg.read_into_direct(&mut ctx, &mut out);
        assert_eq!(out.len(), 4, "count clamped to K");
        seg.k.count.store_plain(3);
    }

    #[test]
    fn fills_to_capacity() {
        let seg: Segment<4> = Segment::empty();
        with_tx(|tx| {
            for k in [4u64, 3, 2, 1] {
                assert!(!seg.is_full_tx(tx)?);
                seg.insert(tx, k, k)?;
            }
            assert!(seg.is_full_tx(tx)?);
            for k in 1..=4u64 {
                assert!(seg.find(tx, k)?.is_some());
            }
            Ok(())
        });
    }
}
