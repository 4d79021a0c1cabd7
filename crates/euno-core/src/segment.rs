//! Leaf segments: the partitioned record storage of §4.1 (Figure 4).
//!
//! A Euno leaf splits its slots into `SEGS` segments of `K` slots. Keys
//! are sorted *within* a segment, unordered *across* segments. Three
//! layout decisions carry the design's conflict behaviour:
//!
//! * a segment is **one line-aligned block**, so concurrent operations
//!   dispatched to different segments touch disjoint cache lines. At
//!   `K` = 3 the block is exactly one line — eight words: the segment's
//!   copy of the leaf's fence, one link word, three keys and their three
//!   values — so an operation that checks the fence on its key's home
//!   segment, searches its keys and reads or writes a value touches that
//!   one line and no other. Keys and values used to sit on two lines, so
//!   that a search would not collide with a value update; but a get that
//!   hits reads the value line, and a put reads the key line before it
//!   writes the value line, so the only reads the split kept apart were
//!   misses, and it cost a line per operation and half a line of padding
//!   per segment (DESIGN.md §8 has the measurements);
//! * a segment keeps **no count**: a free slot holds [`KEY_SENTINEL`] (the
//!   baselines' leaf rule), free slots follow the records, and a segment's
//!   record count is the index of its first free slot. A search is a
//!   bisection over all `K` slots — the sentinel sorts above every key —
//!   so it needs no word but the keys it probes;
//! * which segment a key goes to is a function of the key
//!   ([`home_segment`]), so a search reads one segment, not all of them.
//!
//! The link word and any spare words a segment has past its values carry
//! the leaf's own words — `next`, `parent`, the split lock, the block word
//! and the two copies of `seqno` ([`crate::EunoLeaf`]); a geometry with
//! fewer than six segments lends its segments' spare words ([`KeyPad`]).

use euno_htm::bptree::lower_bound;
use euno_htm::{ThreadCtx, Tx, TxCell, TxResult, KEY_SENTINEL};

/// The segment a key is looked for first — and, while that one has room,
/// the only one: Fibonacci hashing, the top 32 bits of `key · φ·2⁶⁴`
/// scaled to `segs`. Consecutive keys advance the hash by the golden
/// ratio's fraction, 0.382 of a turn, and keys two apart by 0.236, so at
/// `segs` = 6 (homes a sixth of a turn wide) keys one or two apart never
/// share a home, and nine consecutive keys of one parity — what an
/// ascending load leaves in a leaf — spread so that no home gets more
/// than its segment holds. Costs [`HOME_ALU`] operations.
#[inline]
pub fn home_segment(key: u64, segs: usize) -> usize {
    (((key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) * segs as u64) >> 32) as usize
}

/// What [`home_segment`] is charged on the virtual clock: a multiply, a
/// shift, a multiply and a shift.
pub const HOME_ALU: u64 = 4;

/// A segment of `K` slots, as a type: what [`KeyPad`] is implemented for.
pub struct Keys<const K: usize>;

/// The words a segment carries past its fence copy, its link word, its
/// keys and its values: none at `K` = 3 (eight words, one line), two at
/// `K` = 6 (sixteen words, two lines), five at `K` = 18 (forty-three words
/// of forty-eight, six lines) — named so that a leaf with fewer than six
/// segments, and so fewer than six link words, can put its own words
/// there ([`crate::EunoLeaf::split_lock`]).
pub trait KeyPad {
    type Spare: AsRef<[TxCell<u64>]> + Default + Send + Sync;
}

impl KeyPad for Keys<3> {
    type Spare = [TxCell<u64>; 0];
}

impl KeyPad for Keys<6> {
    type Spare = [TxCell<u64>; 2];
}

impl KeyPad for Keys<18> {
    type Spare = [TxCell<u64>; 5];
}

/// One line-aligned segment: this segment's copy of the leaf's fence, one
/// link word (one of the leaf's own words), `K` sorted keys
/// with free slots at [`KEY_SENTINEL`] after them, the `K` values parallel
/// to the keys, and the spare words ([`KeyPad`]).
#[repr(C, align(64))]
pub struct Segment<const K: usize>
where
    Keys<K>: KeyPad,
{
    fence: TxCell<u64>,
    link: TxCell<u64>,
    keys: [TxCell<u64>; K],
    vals: [TxCell<u64>; K],
    spare: <Keys<K> as KeyPad>::Spare,
}

/// Where a [search](Segment::search) of one segment ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Probe {
    /// Lower bound of the key among the `K` slots: the slot it is in, or
    /// would be inserted at.
    pub slot: usize,
    /// The key is at `slot`.
    pub hit: bool,
    /// A miss, and the segment has a free slot: the key may be inserted
    /// at `slot`. A miss without room is a full segment, past which the
    /// key may have spilled.
    pub room: bool,
}

impl<const K: usize> Segment<K>
where
    Keys<K>: KeyPad,
{
    pub fn empty() -> Self {
        Segment {
            fence: TxCell::new(KEY_SENTINEL),
            link: TxCell::new(0),
            keys: std::array::from_fn(|_| TxCell::new(KEY_SENTINEL)),
            vals: std::array::from_fn(|_| TxCell::new(0)),
            spare: Default::default(),
        }
    }

    /// Records in the segment — the index of its first free slot — by
    /// plain loads (assertions, plain traversal).
    pub fn count_plain(&self) -> usize {
        (self.keys.iter())
            .position(|k| k.load_plain() == KEY_SENTINEL)
            .unwrap_or(K)
    }

    pub fn key_cell(&self, i: usize) -> &TxCell<u64> {
        &self.keys[i]
    }

    pub fn val_cell(&self, i: usize) -> &TxCell<u64> {
        &self.vals[i]
    }

    /// This segment's copy of the leaf's fence ([`crate::EunoLeaf::fence`]):
    /// `KEY_SENTINEL` until a split lowers it.
    pub(crate) fn fence_cell(&self) -> &TxCell<u64> {
        &self.fence
    }

    /// The link word: one of the leaf's own words ([`crate::EunoLeaf`]).
    pub(crate) fn link(&self) -> &TxCell<u64> {
        &self.link
    }

    /// The spare words ([`KeyPad`]).
    pub(crate) fn spare(&self) -> &[TxCell<u64>] {
        self.spare.as_ref()
    }

    /// The one search of a segment: lower bound of `key` among the `K`
    /// slots, over whatever `load` the caller reads with (transactional
    /// read, direct load, plain load) — as [`EunoBTree::descend`] is over
    /// the index. A free slot's sentinel sorts above every key, so the
    /// bisection needs no count. The last probe that did not go right is
    /// the slot the search ends on, so whether it holds `key` costs no
    /// further load; whether a miss has room is the last slot's key, which
    /// the search has read if it ended at or next to it, and loads
    /// otherwise. Every load is bounded by `K`, so an unvalidated loader
    /// that observes a torn state gets a wrong answer, never a crash (its
    /// caller validates the whole read afterwards and retries).
    ///
    /// [`EunoBTree::descend`]: crate::EunoBTree::descend
    pub fn search<E>(
        &self,
        key: u64,
        mut load: impl FnMut(&TxCell<u64>) -> Result<u64, E>,
    ) -> Result<Probe, E> {
        let (mut hit, mut last) = (false, None);
        let slot = lower_bound(K, key, |i| {
            let at = load(&self.keys[i])?;
            if at >= key {
                // (A free slot is no hit, also for a search of the
                // sentinel itself, which a get or delete may ask for.)
                hit = at == key && at != KEY_SENTINEL;
            }
            if i == K - 1 {
                last = Some(at);
            }
            Ok(at)
        })?;
        let room = !hit
            && slot < K
            && match last {
                Some(at) => at == KEY_SENTINEL,
                None => load(&self.keys[K - 1])? == KEY_SENTINEL,
            };
        Ok(Probe { slot, hit, room })
    }

    /// Insert `key → val` at `at`, where a [search](Segment::search) of
    /// this segment in the same transaction ended without a hit and with
    /// room: each record from `at.slot` to the first free slot moves one
    /// slot right — all on this segment's line, so the data movement never
    /// interferes with other segments.
    pub fn insert_at(&self, tx: &mut Tx<'_>, at: Probe, key: u64, val: u64) -> TxResult<()> {
        debug_assert!(at.room, "insert at {at:?}");
        let mut carry = (key, val);
        for i in at.slot..K {
            let moved = tx.read(&self.keys[i])?;
            tx.write(&self.keys[i], carry.0)?;
            if moved == KEY_SENTINEL {
                return tx.write(&self.vals[i], carry.1);
            }
            let moved = (moved, tx.read(&self.vals[i])?);
            tx.write(&self.vals[i], carry.1)?;
            carry = moved;
        }
        unreachable!("a segment with room has a free slot")
    }

    /// Read this segment's records into `out` (transactionally).
    pub fn read_into(&self, tx: &mut Tx<'_>, out: &mut impl Extend<(u64, u64)>) -> TxResult<()> {
        for (key, val) in self.keys.iter().zip(&self.vals) {
            let k = tx.read(key)?;
            if k == KEY_SENTINEL {
                break;
            }
            out.extend([(k, tx.read(val)?)]);
        }
        Ok(())
    }

    /// Episode-free bulk read, into `out`, of the records whose key is at
    /// least `from`: keys up to the first free slot, a value only beside a
    /// key that is kept — a scan step has no use for the records below its
    /// cursor. At most `K` records. Direct loads only: the caller validates
    /// the whole read (engine snapshot, and the leaf's `seqno` around the
    /// step) afterwards and
    /// retries on any change, so what a torn state hands `out` is the
    /// caller's to discard.
    pub fn read_direct(&self, ctx: &mut ThreadCtx, from: u64, mut out: impl FnMut((u64, u64))) {
        for (key, val) in self.keys.iter().zip(&self.vals) {
            let k = key.load_direct(ctx);
            if k == KEY_SENTINEL {
                break;
            }
            if k >= from {
                out((k, val.load_direct(ctx)));
            }
        }
    }

    /// Replace this segment's contents with `records` (sorted by key): the
    /// records in the first slots, and every slot after them that holds a
    /// key freed.
    pub fn write_all(&self, tx: &mut Tx<'_>, records: &[(u64, u64)]) -> TxResult<()> {
        debug_assert!(records.len() <= K);
        debug_assert!(records.windows(2).all(|w| w[0].0 < w[1].0));
        for (i, &(k, v)) in records.iter().enumerate() {
            tx.write(&self.keys[i], k)?;
            tx.write(&self.vals[i], v)?;
        }
        for key in &self.keys[records.len()..] {
            if tx.read(key)? == KEY_SENTINEL {
                break;
            }
            tx.write(key, KEY_SENTINEL)?;
        }
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

    /// Insert `key → val` where a search of the segment says it goes.
    fn insert<const K: usize>(seg: &Segment<K>, tx: &mut Tx<'_>, key: u64, val: u64) -> TxResult<()>
    where
        Keys<K>: KeyPad,
    {
        let at = seg.search(key, |cell| tx.read(cell))?;
        seg.insert_at(tx, at, key, val)
    }

    fn with_tx<R>(f: impl FnMut(&mut Tx<'_>) -> TxResult<R>) -> R {
        let rt = Runtime::new_virtual();
        let mut ctx: ThreadCtx = rt.thread(0);
        let fb = TxCell::new(0u64);
        ctx.htm_execute(&fb, &RetryPolicy::default(), f).value
    }

    #[test]
    fn segment_geometry_puts_a_segment_on_one_line() {
        assert_eq!(std::mem::align_of::<Segment<3>>(), 64);
        assert_eq!(std::mem::size_of::<Segment<3>>(), 64);
        assert_eq!(std::mem::size_of::<Segment<6>>(), 128);
        assert_eq!(std::mem::size_of::<Segment<18>>(), 384);
        let seg: Segment<3> = Segment::empty();
        // The search path (keys), the update path (values) and the
        // fence copy an operation checks share the segment's one line.
        let line = seg.key_cell(0).line();
        for (cell, what) in [
            (seg.fence_cell(), "the fence copy"),
            (seg.link(), "the link word"),
            (seg.key_cell(2), "the last key"),
            (seg.val_cell(0), "the first value"),
            (seg.val_cell(2), "the last value"),
        ] {
            assert_eq!(LineId::of_ptr(cell as *const _), line, "{what}");
        }
        // Segments in an array are on distinct lines.
        let arr: [Segment<3>; 2] = [Segment::empty(), Segment::empty()];
        assert_ne!(arr[0].val_cell(2).line(), arr[1].key_cell(0).line());
    }

    #[test]
    fn insert_keeps_sorted_and_find_works() {
        let seg: Segment<3> = Segment::empty();
        with_tx(|tx| {
            insert(&seg, tx, 30, 300)?;
            insert(&seg, tx, 10, 100)?;
            insert(&seg, tx, 20, 200)?;
            assert_eq!(find(&seg, tx, 10)?, Some(0));
            assert_eq!(find(&seg, tx, 20)?, Some(1));
            assert_eq!(find(&seg, tx, 30)?, Some(2));
            assert_eq!(find(&seg, tx, 15)?, None);
            assert_eq!(find(&seg, tx, 5)?, None, "below the first");
            assert_eq!(find(&seg, tx, 99)?, None, "above the last");
            assert_eq!(tx.read(seg.key_cell(0))?, 10);
            assert_eq!(tx.read(seg.key_cell(1))?, 20);
            assert_eq!(tx.read(seg.key_cell(2))?, 30);
            assert_eq!(tx.read(seg.val_cell(1))?, 200);
            Ok(())
        });
        assert_eq!(seg.count_plain(), 3);
    }

    /// A drain — what a merge does to the leaf it empties — is a read and
    /// a rewrite with nothing: every slot free again.
    #[test]
    fn drain_empties_and_returns_pairs() {
        let seg: Segment<3> = Segment::empty();
        let got = with_tx(|tx| {
            insert(&seg, tx, 2, 20)?;
            insert(&seg, tx, 1, 10)?;
            let mut out = Vec::new();
            seg.read_into(tx, &mut out)?;
            seg.write_all(tx, &[])?;
            assert!(seg.search(1, |cell| tx.read(cell))?.room);
            Ok(out)
        });
        assert_eq!(got, vec![(1, 10), (2, 20)]);
        assert_eq!(seg.count_plain(), 0);
    }

    #[test]
    fn write_all_replaces_contents() {
        let seg: Segment<3> = Segment::empty();
        with_tx(|tx| {
            insert(&seg, tx, 9, 90)?;
            seg.write_all(tx, &[(1, 10), (5, 50), (7, 70)])?;
            assert_eq!(find(&seg, tx, 9)?, None);
            assert_eq!(find(&seg, tx, 5)?, Some(1));
            let mut out = Vec::new();
            seg.read_into(tx, &mut out)?;
            assert_eq!(out, vec![(1, 10), (5, 50), (7, 70)]);
            seg.write_all(tx, &[(4, 40)])?;
            out.clear();
            seg.read_into(tx, &mut out)?;
            assert_eq!(out, vec![(4, 40)]);
            Ok(())
        });
        assert_eq!(seg.count_plain(), 1);
        assert_eq!(seg.key_cell(1).load_plain(), KEY_SENTINEL);
        assert_eq!(seg.key_cell(2).load_plain(), KEY_SENTINEL);
    }

    #[test]
    fn direct_reads_agree_with_transactional_state() {
        let rt = Runtime::new_virtual();
        let mut ctx: ThreadCtx = rt.thread(0);
        let fb = TxCell::new(0u64);
        let seg: Segment<3> = Segment::empty();
        ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
            insert(&seg, tx, 30, 300)?;
            insert(&seg, tx, 10, 100)?;
            Ok(())
        });
        // The same search over another loader: slot, hit and room agree.
        for (key, slot, hit, room) in [
            (10, 0, true, false),
            (30, 1, true, false),
            (20, 1, false, true),
            (5, 0, false, true),
            (99, 2, false, true),
        ] {
            let Ok(at) = seg.search(key, |cell| Ok::<_, Infallible>(cell.load_direct(&mut ctx)));
            assert_eq!(at, Probe { slot, hit, room }, "key {key}");
        }
        let mut out = Vec::new();
        seg.read_direct(&mut ctx, 0, |r| out.push(r));
        assert_eq!(out, vec![(10, 100), (30, 300)]);
        // From a key on, only the records at or above it — and only their
        // values are loaded: two keys, the free slot's sentinel, one value.
        let (mut out, before) = (Vec::new(), ctx.stats.mem_accesses);
        seg.read_direct(&mut ctx, 15, |r| out.push(r));
        assert_eq!(out, vec![(30, 300)]);
        assert_eq!(ctx.stats.mem_accesses - before, 3 + 1);
        // The sentinel is never found: it marks a free slot.
        let Ok(at) = seg.search(KEY_SENTINEL, |cell| Ok::<_, Infallible>(cell.load_plain()));
        assert!(!at.hit && at.room, "{at:?}");
        // Full: a miss has no room, whichever side of the keys it falls.
        ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| insert(&seg, tx, 20, 200));
        for key in [5, 25, 99] {
            let Ok(at) = seg.search(key, |cell| Ok::<_, Infallible>(cell.load_plain()));
            assert!(!at.hit && !at.room, "key {key}: {at:?}");
        }
    }

    #[test]
    fn homes_spread_aligned_runs_and_separate_neighbours() {
        let bases = (0..200_000u64).chain((0..2_000).map(|i| (i << 40) ^ 0xdead_beef));
        for base in bases {
            // One or two apart is never the same home.
            let home = home_segment(base, 6);
            assert_ne!(home, home_segment(base + 1, 6), "{base} and its successor");
            assert_ne!(home, home_segment(base + 2, 6), "{base} and the key two on");
            // Nine consecutive keys of one parity — an ascending load's
            // leaf — are placed with no spill: no home gets four.
            let mut homes = [0; 6];
            for i in 0..9 {
                homes[home_segment(base + 2 * i, 6)] += 1;
            }
            assert!(homes.iter().all(|&n| n <= 3), "from {base}: {homes:?}");
        }
        for key in [0u64, 7, 0x1234_5678_9abc_def0, u64::MAX - 1] {
            assert_eq!(home_segment(key, 1), 0, "one segment is one home");
            assert!(home_segment(key, 6) < 6);
        }
    }

    #[test]
    fn fills_to_capacity() {
        let seg: Segment<3> = Segment::empty();
        with_tx(|tx| {
            for k in [3u64, 2, 1] {
                assert!(seg.search(k, |cell| tx.read(cell))?.room);
                insert(&seg, tx, k, k)?;
            }
            for k in 1..=3u64 {
                assert!(find(&seg, tx, k)?.is_some());
            }
            Ok(())
        });
        assert_eq!(seg.count_plain(), 3);
    }
}
