//! Euno-B+Tree's own node type: the partitioned leaf (Figure 4). The index
//! nodes above it (with parent links) and the tagged pointer are the
//! shared B+tree's, `euno_htm::bptree`.
//!
//! Layout is cache-line-deliberate — eight segment lines, 512 B at the
//! paper's geometry, with no header line and no CCM line:
//!
//! * each segment is line-aligned with keys and values on separate lines
//!   (see [`Segment`]);
//! * the leaf's words ride the segments' key lines, where operations look
//!   anyway: every segment carries a copy of `seqno` beside its `count`, so
//!   an operation checks the copy on its key's home segment; the last
//!   segment's two spare words are `next` and `parent`, which a scan's
//!   closing section reads beside that segment's copy. Split,
//!   reorganization and merge bump every copy at once
//!   ([`EunoLeaf::bump_seqno`]), before any record moves, so the copies
//!   are equal at every commit and whichever one a reader brackets with
//!   moves before a record does;
//! * the split lock and the *block word* — which names the leaf's CCM
//!   block, allocated apart from it when the leaf first needs one (see
//!   [`Ccm`]) — are segment 0's two link words, or in a leaf of one
//!   segment its key block's spare words ([`KeyPad`]). Both are written
//!   only from outside regions; the block word is written once in the
//!   leaf's life ([`EunoLeaf::install_block`]), by a quiet CAS, and read
//!   inside a region only by a split, plainly, on a line that region
//!   writes anyway. The split lock is not quiet: it shares a line that
//!   every region and scan section over segment 0 reads, so each acquire
//!   and release publishes a point write that aborts such a region
//!   overlapping it — false sharing the CCM line used to spare it
//!   (DESIGN.md §4.8, "Layout", has the measured cost).
//!
//! Records live **spread over the segments at all times**, each in the
//! first segment on its key's probe path that had room
//! ([`crate::segment::home_segment`]): keys that are adjacent in key order
//! have different homes and therefore live on different cache lines, from
//! the first insert on and again after every reorganization, split and
//! merge, which re-place records by the same rule. This placement is what
//! keeps a hot run of Zipfian keys off one line (the *reserved keys* sort
//! buffer of §4.1 is transient scratch, tracked for the §5.7 memory
//! analysis but never the steady-state home of records).

use euno_htm::{
    LineClass, LockWord, ParentLinked, Runtime, SideBlock, ThreadCtx, Tx, TxCell, TxResult,
};

pub use euno_htm::{IndexNode, NodeRef};

use crate::ccm::Ccm;
use crate::probe;
use crate::segment::{KeyPad, Keys, Segment};

/// Internal-node fanout (the paper sets node fanout to 16, §5.7).
pub const INTERNAL_FANOUT: usize = 16;

/// A partitioned leaf: `SEGS` segments of `K` slots, which also carry the
/// leaf's `seqno`, `next`, `parent`, split lock and block word.
#[repr(C, align(64))]
pub struct EunoLeaf<const SEGS: usize, const K: usize>
where
    Keys<K>: KeyPad,
{
    pub segs: [Segment<K>; SEGS],
}

impl<const SEGS: usize, const K: usize> EunoLeaf<SEGS, K>
where
    Keys<K>: KeyPad,
{
    pub fn empty() -> Self {
        assert!(SEGS >= 1 && K >= 2, "need at least one segment of ≥2 slots");
        assert!(
            2 * SEGS * K <= 64,
            "CCM bit vectors are single words: 2·fanout ≤ 64"
        );
        let leaf = EunoLeaf {
            segs: std::array::from_fn(|_| Segment::empty()),
        };
        assert!(
            leaf.own_words().len() >= 2,
            "no key line has two words to spare"
        );
        leaf
    }

    /// The segment whose key line carries `next` and `parent`.
    const LAST: usize = SEGS - 1;

    /// The block word of a leaf a merge has retired: no block may be
    /// installed on it any more (a birth that finds it frees its block).
    const SEALED: u64 = 1;

    /// Segment `seg`'s copy of the version number tracking splits (the
    /// consistency glue between the upper and lower HTM regions,
    /// §4.1/Figure 4). An operation reads its key's home segment's copy;
    /// a scan step, [`Self::seqno_beside_next`].
    pub fn seqno(&self, seg: usize) -> &TxCell<u64> {
        self.segs[seg].seqno_cell()
    }

    /// The copy of `seqno` a chain walker reads: the last segment's,
    /// beside `next`.
    pub fn seqno_beside_next(&self) -> &TxCell<u64> {
        self.seqno(Self::LAST)
    }

    /// Next-leaf chain for range scans (NodeRef bits).
    pub fn next(&self) -> &TxCell<u64> {
        &self.segs[Self::LAST].links()[0]
    }

    /// Parent internal node (NodeRef bits; 0 at the root).
    pub fn parent(&self) -> &TxCell<u64> {
        &self.segs[Self::LAST].links()[1]
    }

    /// Where the split lock and the block word live: segment 0's link
    /// words where another segment carries the chain, else its key block's
    /// spare words — a key line either way.
    fn own_words(&self) -> &[TxCell<u64>] {
        match SEGS > 1 {
            true => self.segs[0].links(),
            false => self.segs[0].spare(),
        }
    }

    /// Serializes splits, merges and locked scan steps on this leaf.
    /// Written only from outside regions, on segment 0's key line: each
    /// write aborts an overlapping region that reads that line.
    pub fn split_lock(&self) -> &LockWord {
        self.own_words()[0].as_lock()
    }

    /// The block word: 0 while the leaf has no CCM block, the block's
    /// address once [`Self::install_block`] has given it one.
    fn block_cell(&self) -> &TxCell<u64> {
        &self.own_words()[1]
    }

    /// The block word, by a direct (charged) load.
    pub(crate) fn block_word_direct(&self, ctx: &mut ThreadCtx) -> u64 {
        self.block_cell().load_direct(ctx)
    }

    /// The block word, uninstrumented.
    pub(crate) fn block_word_plain(&self) -> u64 {
        self.block_cell().load_plain()
    }

    /// The block a block word of this leaf names, if any.
    pub(crate) fn ccm_block<'g>(&self, g: Guard<'g, SEGS, K>, word: u64) -> Option<&'g Ccm> {
        match word {
            Self::SEALED => None,
            _ => g.block(word),
        }
    }

    /// The leaf's CCM block, if it has one (uninstrumented).
    pub fn ccm<'g>(&self, g: Guard<'g, SEGS, K>) -> Option<&'g Ccm> {
        self.ccm_block(g, self.block_word_plain())
    }

    /// The one writer of the block word: `word` — a block's address, or
    /// the seal a merge leaves on the leaf it retires — goes in if the
    /// leaf has neither. On a leaf other threads can reach (`ctx` given),
    /// by CAS from 0, a loser getting back the word that won; on one they
    /// cannot yet (a split-born leaf, before its region commits), by plain
    /// store. The CAS is quiet: no reader validates against the word.
    pub(crate) fn install_block(&self, ctx: Option<&mut ThreadCtx>, word: u64) -> Result<(), u64> {
        match ctx {
            Some(ctx) => match self.block_cell().cas_direct_quiet(ctx, 0, word) {
                true => Ok(()),
                false => Err(self.block_word_direct(ctx)),
            },
            None => {
                debug_assert_eq!(self.block_word_plain(), 0, "a block is installed once");
                self.block_cell().store_plain(word);
                Ok(())
            }
        }
    }

    /// Seal a leaf a merge has just unlinked and return the block it had,
    /// to be retired with it: a birth that loses to the seal frees its own.
    pub(crate) fn seal<'g>(&self, ctx: &mut ThreadCtx, g: Guard<'g, SEGS, K>) -> Option<&'g Ccm> {
        match self.install_block(Some(ctx), Self::SEALED) {
            Ok(()) => None,
            Err(word) => self.ccm_block(g, word),
        }
    }

    /// The one writer of `seqno`: every segment's copy goes up by one.
    /// Split, reorganization and merge call it before any record moves,
    /// so the copies are equal at every commit and a reader bracketing
    /// with any one of them sees it move first. (Its mutation twin bumps
    /// copy 0 alone: `tests/upper_walk.rs` convicts it.)
    pub(crate) fn bump_seqno(&self, tx: &mut Tx<'_>) -> TxResult<()> {
        let seq = tx.read(self.seqno(0))? + 1;
        for seg in &self.segs {
            tx.write(seg.seqno_cell(), seq)?;
            if probe::mutated("seqno:bump-one-copy") {
                break;
            }
        }
        Ok(())
    }

    /// Total record slots (the paper's leaf fanout).
    pub const fn capacity() -> usize {
        SEGS * K
    }

    /// CCM bit-vector length: 2 × fanout (§4.1).
    pub const fn ccm_bits() -> u32 {
        (2 * SEGS * K) as u32
    }

    /// Approximate occupancy from outside any region (the Algorithm 2
    /// line 39 `isNearFull` check happens before the lower region).
    pub fn occupied_direct(&self, ctx: &mut euno_htm::ThreadCtx) -> usize {
        let mut n = 0;
        for s in &self.segs {
            n += s.count_plain();
            ctx.charge(ctx.runtime().cost.access_hit);
        }
        n
    }

    pub fn register(&self, rt: &Runtime) {
        // Segments: record storage (their count and `seqno` words, the
        // last one's links and the split lock and block word live amid
        // the records deliberately — per-segment metadata is the point).
        // Attributed: the contention profiler maps address-carrying trace
        // events (conflict lines, lock cells) inside the leaf — and in its
        // CCM block ([`Runtime::register_side_block`]) — to its base.
        let base = self as *const Self as usize;
        let parts = [(0, LineClass::Record)];
        rt.register_node(base, std::mem::size_of::<Self>(), &parts, true);
    }

    /// The leaf has been retired: the simulation forgets its lines' heat
    /// here, not when the allocator re-issues the address
    /// ([`Runtime::forget_node_heat`]).
    pub fn forget_heat(&self, rt: &Runtime) {
        rt.forget_node_heat(self as *const Self as usize, std::mem::size_of::<Self>());
    }
}

impl<const SEGS: usize, const K: usize> ParentLinked for EunoLeaf<SEGS, K>
where
    Keys<K>: KeyPad,
{
    fn parent(&self) -> &TxCell<u64> {
        EunoLeaf::parent(self)
    }
}

impl<const SEGS: usize, const K: usize> SideBlock for EunoLeaf<SEGS, K>
where
    Keys<K>: KeyPad,
{
    type Block = Ccm;
}

/// Arenas owning all of a tree's nodes (its CCM blocks have their own).
pub type NodeArenas<const S: usize, const K: usize> =
    euno_htm::NodeArenas<EunoLeaf<S, K>, INTERNAL_FANOUT>;

/// What a tree of this geometry reads its nodes through, while the epoch
/// pin that handed it out holds ([`euno_htm::Guard`]).
pub type Guard<'g, const S: usize, const K: usize> =
    euno_htm::Guard<'g, EunoLeaf<S, K>, INTERNAL_FANOUT>;

#[cfg(test)]
mod tests {
    use super::*;
    use euno_htm::LineId;

    type Leaf44 = EunoLeaf<4, 4>;

    /// The line facts of the layout, at both geometries the crate builds:
    /// every segment's `seqno` copy on that segment's (first) key line,
    /// `next` and `parent` on the last segment's last key line, and the
    /// split lock and the block word on a key line of segment 0 — its
    /// last, beside keys; `key_lines` key lines a segment, as before they
    /// moved in.
    fn line_facts<const SEGS: usize, const K: usize>(key_lines: usize)
    where
        Keys<K>: KeyPad,
    {
        let l: Box<EunoLeaf<SEGS, K>> = Box::new(EunoLeaf::empty());
        let line = |cell: &TxCell<u64>| cell.line();
        for (i, seg) in l.segs.iter().enumerate() {
            assert_eq!(line(l.seqno(i)), seg.key_cell(0).line(), "segment {i}");
            let lines: std::collections::HashSet<LineId> =
                (0..K).map(|j| seg.key_cell(j).line()).collect();
            assert_eq!(lines.len(), key_lines, "segment {i}'s key lines");
            assert!(!lines.contains(&seg.val_cell(0).line()));
        }
        let last_key = l.segs[EunoLeaf::<SEGS, K>::LAST].key_cell(K - 1).line();
        assert_eq!(line(l.next()), last_key, "next on the last key line");
        assert_eq!(line(l.parent()), last_key, "parent on the last key line");
        let first_key = l.segs[0].key_cell(K - 1).line();
        let lock = LineId::of_addr(l.split_lock() as *const LockWord as usize);
        assert_eq!(lock, first_key, "the split lock on segment 0's key line");
        assert_eq!(line(l.block_cell()), first_key, "the block word too");
        let at = |cell: &TxCell<u64>| cell as *const TxCell<u64> as usize;
        let words = [
            l.split_lock() as *const LockWord as usize,
            at(l.block_cell()),
        ];
        assert!(words[0] != words[1], "two words");
        assert!(words
            .iter()
            .all(|&w| w != at(l.next()) && w != at(l.parent())));
    }

    #[test]
    fn leaf_line_discipline() {
        line_facts::<4, 4>(1);
        line_facts::<1, 16>(3);
        // Eight segment lines, no line to spare, and nothing else. The
        // unpartitioned leaf's key area stays three lines (count, `seqno`,
        // sixteen keys, the links, the split lock and the block word are
        // twenty-two words of twenty-four).
        assert_eq!(std::mem::size_of::<Leaf44>(), 512);
        assert_eq!(std::mem::size_of::<EunoLeaf<1, 16>>(), 320);
        assert_eq!(std::mem::size_of::<EunoLeaf<2, 8>>(), 384);
    }

    #[test]
    fn capacity_and_bits() {
        assert_eq!(Leaf44::capacity(), 16);
        assert_eq!(Leaf44::ccm_bits(), 32);
        assert_eq!(EunoLeaf::<1, 16>::capacity(), 16);
        assert_eq!(EunoLeaf::<2, 8>::ccm_bits(), 32);
    }

    #[test]
    fn noderef_round_trips() {
        let l: Box<Leaf44> = Box::new(EunoLeaf::empty());
        let i: Box<IndexNode<INTERNAL_FANOUT>> = Box::new(IndexNode::empty());
        let lr = NodeRef::of_leaf(&*l);
        let ir = NodeRef::of_index(&i);
        assert!(lr.is_leaf() && !ir.is_leaf());
        euno_htm::Collector::new().pinned(|g: Guard<4, 4>| {
            assert!(std::ptr::eq(g.leaf(lr), &*l));
            assert!(std::ptr::eq(g.index_node(ir), &*i));
            assert!(std::ptr::eq(g.parent_cell(lr), l.parent()));
            assert!(std::ptr::eq(g.parent_cell(ir), &i.parent));
        });
    }

    #[test]
    #[should_panic(expected = "is no node of that kind")]
    fn a_guard_checks_the_kind() {
        let i: Box<IndexNode<INTERNAL_FANOUT>> = Box::new(IndexNode::empty());
        euno_htm::Collector::new().pinned(|g: Guard<4, 4>| {
            g.leaf(NodeRef::of_index(&i));
        });
    }

    #[test]
    #[should_panic(expected = "2·fanout ≤ 64")]
    fn oversized_ccm_rejected() {
        let _l: EunoLeaf<8, 8> = EunoLeaf::empty();
    }
}
