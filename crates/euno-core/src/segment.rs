//! Leaf segments: the partitioned record storage of §4.1 (Figure 4).
//!
//! A Euno leaf splits its slots into `SEGS` segments of `K` slots. Keys
//! are sorted *within* a segment, unordered *across* segments; each
//! segment has its own occupancy metadata. Three layout decisions carry
//! the design's conflict behaviour:
//!
//! * every segment is a separate line-aligned block, so concurrent inserts
//!   dispatched to different segments touch disjoint cache lines;
//! * within a segment, the key area and the value area live on
//!   *different* lines, so a search — which reads keys only — never
//!   collides with a concurrent value update. Under a hot Zipfian mix of
//!   gets and updates this is what keeps the lower HTM region's read set
//!   out of the write stream. The key line holds `count`, the segment's
//!   copy of the leaf's `seqno`, the keys and two link words — at `K` = 4
//!   exactly its eight words — so an operation that checks `seqno` on its
//!   key's home segment reads no line it would not read anyway; the last
//!   segment's link words are the leaf's `next` and `parent`, and the
//!   leaf's split lock and block word ride segment 0's — or, in a leaf of
//!   one segment, the key block's spare words ([`KeyPad`],
//!   [`crate::EunoLeaf`]);
//! * which segment a key goes to is a function of the key
//!   ([`home_segment`]), so a search reads one segment, not all of them.

use euno_htm::bptree::{insert_at, lower_bound};
use euno_htm::{ThreadCtx, Tx, TxCell, TxResult, KEY_SENTINEL};

/// The segment a key is looked for first — and, while that one has room,
/// the only one: the XOR of the key's 32 bit pairs, `mod segs`. Two keys
/// that differ in one bit pair have different homes (for `segs` = 4; in
/// the low bit of the pair for 2), so a run of adjacent hot keys is on
/// different lines by construction, and any aligned run of `4^n` keys at
/// a power-of-two stride puts the same number in every segment. Costs
/// [`HOME_ALU`] operations.
#[inline]
pub fn home_segment(key: u64, segs: usize) -> usize {
    let x = key ^ (key >> 32);
    let x = x ^ (x >> 16);
    let x = x ^ (x >> 8);
    let x = x ^ (x >> 4);
    ((x ^ (x >> 2)) & 3) as usize % segs
}

/// What [`home_segment`] is charged on the virtual clock: five
/// shift-and-XOR steps and the reduction.
pub const HOME_ALU: u64 = 6;

/// A key block of `K` keys, as a type: what [`KeyPad`] is implemented
/// for.
pub struct Keys<const K: usize>;

/// What a key block leaves spare on its last line past `count`, `seqno`,
/// the keys and the two link words — nothing at `K` = 4 (eight words, one
/// line), four words at `K` = 8 and 16 (twelve of sixteen, twenty of
/// twenty-four) — named so that a leaf with no link words to spare can put
/// its own words there ([`crate::EunoLeaf::split_lock`]).
pub trait KeyPad {
    type Spare: AsRef<[TxCell<u64>]> + Default + Send + Sync;
}

impl KeyPad for Keys<4> {
    type Spare = [TxCell<u64>; 0];
}

impl KeyPad for Keys<8> {
    type Spare = [TxCell<u64>; 4];
}

impl KeyPad for Keys<16> {
    type Spare = [TxCell<u64>; 4];
}

/// Key half of a segment, own line(s): occupancy count, this segment's
/// copy of the leaf's `seqno`, sorted keys, two link words (the leaf's
/// `next` and `parent` in its last segment; its split lock and block word
/// in segment 0 of a partitioned leaf) and the key block's spare words.
#[repr(C, align(64))]
struct SegKeys<const K: usize>
where
    Keys<K>: KeyPad,
{
    count: TxCell<u64>,
    seqno: TxCell<u64>,
    keys: [TxCell<u64>; K],
    links: [TxCell<u64>; 2],
    spare: <Keys<K> as KeyPad>::Spare,
}

/// Value half of a segment: parallel to the keys, own line(s).
#[repr(C, align(64))]
struct SegVals<const K: usize> {
    vals: [TxCell<u64>; K],
}

/// One line-aligned segment.
#[repr(C, align(64))]
pub struct Segment<const K: usize>
where
    Keys<K>: KeyPad,
{
    k: SegKeys<K>,
    v: SegVals<K>,
}

/// Where a [search](Segment::search) of one segment ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Probe {
    /// Lower bound of the key: the slot it is in, or would be inserted at.
    pub slot: usize,
    /// The key is at `slot`.
    pub hit: bool,
    /// Records in the segment; `K` ⇒ full, and the key may have spilled.
    pub count: usize,
}

impl<const K: usize> Segment<K>
where
    Keys<K>: KeyPad,
{
    pub fn empty() -> Self {
        Segment {
            k: SegKeys {
                count: TxCell::new(0),
                seqno: TxCell::new(0),
                keys: std::array::from_fn(|_| TxCell::new(KEY_SENTINEL)),
                links: [TxCell::new(0), TxCell::new(0)],
                spare: Default::default(),
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

    pub fn key_cell(&self, i: usize) -> &TxCell<u64> {
        &self.k.keys[i]
    }

    pub fn val_cell(&self, i: usize) -> &TxCell<u64> {
        &self.v.vals[i]
    }

    /// This segment's copy of the leaf's `seqno` ([`crate::EunoLeaf::seqno`]).
    pub(crate) fn seqno_cell(&self) -> &TxCell<u64> {
        &self.k.seqno
    }

    /// The key line's two link words ([`crate::EunoLeaf::next`] and
    /// [`crate::EunoLeaf::parent`] in the last segment).
    pub(crate) fn links(&self) -> &[TxCell<u64>; 2] {
        &self.k.links
    }

    /// The key block's spare words ([`KeyPad`]).
    pub(crate) fn spare(&self) -> &[TxCell<u64>] {
        self.k.spare.as_ref()
    }

    /// The one search of a segment: lower bound of `key` among the sorted
    /// keys, over whatever `load` the caller reads with (transactional
    /// read, direct load, plain load) — as [`EunoBTree::descend`] is over
    /// the index. The last probe that did not go right is the slot the
    /// search ends on, so whether it holds `key` costs no further load.
    /// The count is clamped to `K`: an unvalidated loader may observe a
    /// torn, out-of-range value, and must not crash on it (its caller
    /// validates the whole read afterwards and retries).
    ///
    /// [`EunoBTree::descend`]: crate::EunoBTree::descend
    pub fn search<E>(
        &self,
        key: u64,
        mut load: impl FnMut(&TxCell<u64>) -> Result<u64, E>,
    ) -> Result<Probe, E> {
        let count = (load(&self.k.count)? as usize).min(K);
        let mut hit = false;
        let slot = lower_bound(count, key, |i| {
            let at = load(&self.k.keys[i])?;
            if at >= key {
                hit = at == key;
            }
            Ok(at)
        })?;
        Ok(Probe { slot, hit, count })
    }

    /// Insert `key → val` at `at`, where a [search](Segment::search) of
    /// this segment in the same transaction ended without a hit and with
    /// room. Shifts at most `K − 1` slots — all within this segment's
    /// lines, so the data movement never interferes with other segments.
    pub fn insert_at(&self, tx: &mut Tx<'_>, at: Probe, key: u64, val: u64) -> TxResult<()> {
        debug_assert!(!at.hit && at.count < K, "insert at {at:?}");
        let (keys, vals) = (&self.k.keys, &self.v.vals);
        insert_at(tx, &self.k.count, keys, vals, at.count, at.slot, key, val)
    }

    /// Insert `key → val` keeping the segment sorted. Caller guarantees
    /// the key is absent from the whole leaf and the segment is not full.
    pub fn insert(&self, tx: &mut Tx<'_>, key: u64, val: u64) -> TxResult<()> {
        let at = self.search(key, |cell| tx.read(cell))?;
        self.insert_at(tx, at, key, val)
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

    /// Episode-free bulk read into `out` of the records whose key is at
    /// least `from`: every key is loaded, a value only beside a key that
    /// is kept — a scan step has no use for the records below its cursor,
    /// and a value line none of whose records it delivers is a line its
    /// section need not read. Direct loads only: the caller validates the
    /// whole read (leaf `seqno`, engine snapshot) afterwards and retries on
    /// any change, so what a torn state leaves on `out` is the caller's to
    /// discard; the count is clamped to `K` as in [`Segment::search`].
    pub fn read_into_direct(&self, ctx: &mut ThreadCtx, from: u64, out: &mut Vec<(u64, u64)>) {
        let cnt = (self.k.count.load_direct(ctx) as usize).min(K);
        for i in 0..cnt {
            let k = self.k.keys[i].load_direct(ctx);
            if k >= from {
                out.push((k, self.v.vals[i].load_direct(ctx)));
            }
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
    use std::convert::Infallible;

    /// The slot `key` is in, by a transactional search.
    fn find<const K: usize>(seg: &Segment<K>, tx: &mut Tx<'_>, key: u64) -> TxResult<Option<usize>>
    where
        Keys<K>: KeyPad,
    {
        let at = seg.search(key, |cell| tx.read(cell))?;
        Ok(at.hit.then_some(at.slot))
    }

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
        for (cell, what) in [
            (&seg.k.count, "count"),
            (&seg.k.seqno, "the seqno copy"),
            (&seg.k.links[1], "the links"),
        ] {
            let line = LineId::of_ptr(cell as *const _);
            assert_eq!(line, key_line, "{what} lives with the keys");
        }
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
            assert_eq!(find(&seg, tx, 10)?, Some(0));
            assert_eq!(find(&seg, tx, 20)?, Some(1));
            assert_eq!(find(&seg, tx, 30)?, Some(2));
            assert_eq!(find(&seg, tx, 15)?, None);
            assert_eq!(find(&seg, tx, 5)?, None, "below the first");
            assert_eq!(find(&seg, tx, 99)?, None, "above the last");
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
            assert_eq!(find(&seg, tx, 9)?, None);
            assert_eq!(find(&seg, tx, 5)?, Some(1));
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
        // The same search over another loader: slot, hit and count agree.
        for (key, slot, hit) in [
            (10, 0, true),
            (20, 1, true),
            (30, 2, true),
            (15, 1, false),
            (5, 0, false),
            (99, 3, false),
        ] {
            let Ok(at) = seg.search(key, |cell| Ok::<_, Infallible>(cell.load_direct(&mut ctx)));
            let want = Probe {
                slot,
                hit,
                count: 3,
            };
            assert_eq!(at, want, "key {key}");
        }
        let mut out = Vec::new();
        seg.read_into_direct(&mut ctx, 0, &mut out);
        assert_eq!(out, vec![(10, 100), (20, 200), (30, 300)]);
        // From a key on, only the records at or above it — and only their
        // values are loaded: one key line, one value per record kept.
        let (mut out, before) = (Vec::new(), ctx.stats.mem_accesses);
        seg.read_into_direct(&mut ctx, 15, &mut out);
        assert_eq!(out, vec![(20, 200), (30, 300)]);
        assert_eq!(ctx.stats.mem_accesses - before, 1 + 3 + 2);
        // A torn out-of-range count is clamped, never read past K.
        seg.k.count.store_plain(77);
        let mut out = Vec::new();
        seg.read_into_direct(&mut ctx, 0, &mut out);
        assert_eq!(out.len(), 4, "count clamped to K");
        let Ok(at) = seg.search(99, |cell| Ok::<_, Infallible>(cell.load_plain()));
        assert_eq!(at.count, 4, "in a search as well");
        seg.k.count.store_plain(3);
    }

    #[test]
    fn homes_spread_aligned_runs_and_separate_neighbours() {
        // Four keys at any power-of-two stride, aligned: one a segment.
        for shift in 0..20 {
            for base in [0u64, 4, 1 << 30, 0xdead_beef_0000] {
                let base = (base >> 2 << 2) << shift;
                let mut seen = [false; 4];
                for i in 0..4u64 {
                    seen[home_segment(base + (i << shift), 4)] = true;
                }
                assert_eq!(seen, [true; 4], "stride 2^{shift} from {base}");
            }
        }
        // One bit pair apart is never the same home; one segment is one home.
        for key in [0u64, 7, 0x1234_5678_9abc_def0, u64::MAX - 1] {
            for pair in 0..32 {
                for flip in 1..4u64 {
                    let other = key ^ (flip << (2 * pair));
                    assert_ne!(home_segment(key, 4), home_segment(other, 4));
                }
            }
            assert_eq!(home_segment(key, 1), 0);
            assert!(home_segment(key, 2) < 2);
        }
    }

    #[test]
    fn fills_to_capacity() {
        let seg: Segment<4> = Segment::empty();
        with_tx(|tx| {
            for k in [4u64, 3, 2, 1] {
                assert!(seg.count_tx(tx)? < 4);
                seg.insert(tx, k, k)?;
            }
            assert_eq!(seg.count_tx(tx)?, 4);
            for k in 1..=4u64 {
                assert!(find(&seg, tx, k)?.is_some());
            }
            Ok(())
        });
    }
}
