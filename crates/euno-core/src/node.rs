//! Euno-B+Tree's own node type: the partitioned leaf (Figure 4). The index
//! nodes above it (with parent links) and the tagged pointer are the
//! shared B+tree's, `euno_htm::bptree`.
//!
//! Layout is cache-line-deliberate — six segment lines, 384 B at the
//! default geometry, with no header line, no CCM line and no value line:
//!
//! * each segment is one line: its copy of `seqno`, one link word, its
//!   keys and their values (see [`Segment`]). An operation checks the copy
//!   on its key's home segment, searches that segment's keys and reads or
//!   writes a value there — one line, where the previous layout touched a
//!   key line and a value line;
//! * the leaf's own words ride the segments' link words, dealt out from
//!   the last segment down: `next` on the last segment's line, which a
//!   scan's closing section reads beside that segment's copy of `seqno`;
//!   `parent` on the one before; the split lock and the *block word* —
//!   which names the leaf's CCM block, allocated apart from it when the
//!   leaf first needs one (see [`Ccm`]) — on the two before that, and the
//!   *fence*, the leaf's upper bound ([`EunoLeaf::fence`]), on the one
//!   before those. A geometry with fewer than five segments puts the rest
//!   on segment 0's spare words ([`KeyPad`]). Every line of the leaf
//!   carries records, and so value writes: an HTM region that read one
//!   would abort under every put to that segment, which is why the upper
//!   region reads the fence, and the copy of `seqno` on its line, after
//!   the region, not in it ([`crate::EunoBTree::locate`]). The block word
//!   is written once in the leaf's life ([`EunoLeaf::install_block`]), by
//!   a quiet CAS, and read inside a region only by a split, plainly, on a
//!   line that region writes anyway. The split lock is not quiet: it shares a line that
//!   every region and scan section over its segment reads, so each
//!   acquire and release publishes a point write that aborts such a region
//!   overlapping it (DESIGN.md §4.8, "Layout", has the measured cost);
//! * split, reorganization and merge bump every copy of `seqno` at once
//!   ([`EunoLeaf::bump_seqno`]), before any record moves, so the copies
//!   are equal at every commit and whichever one a reader brackets with
//!   moves before a record does.
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
    KEY_SENTINEL,
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
            SEGS + leaf.segs[0].spare().len() >= Self::OWN_WORDS,
            "the segments have no five words to spare"
        );
        leaf.fence().store_plain(KEY_SENTINEL);
        leaf
    }

    /// The segment whose line carries `next`.
    const LAST: usize = SEGS - 1;

    /// `next`, `parent`, the split lock, the block word and the fence.
    const OWN_WORDS: usize = 5;

    /// The block word of a leaf a merge has retired: no block may be
    /// installed on it any more (a birth that finds it frees its block).
    const SEALED: u64 = 1;

    /// The leaf's own word `i` of [`Self::OWN_WORDS`]: the link word of
    /// segment `SEGS − 1 − i` while there is one, else one of segment 0's
    /// spare words.
    fn own_word(&self, i: usize) -> &TxCell<u64> {
        match Self::LAST.checked_sub(i) {
            Some(seg) => self.segs[seg].link(),
            None => &self.segs[0].spare()[i - SEGS],
        }
    }

    /// Segment `seg`'s copy of the version number tracking splits (the
    /// consistency glue between the upper and lower HTM regions,
    /// §4.1/Figure 4). An operation checks its key's home segment's copy;
    /// a scan step, [`Self::seqno_beside_next`]; the HTM upper region
    /// hands over [`Self::seqno_beside_fence`].
    pub fn seqno(&self, seg: usize) -> &TxCell<u64> {
        self.segs[seg].seqno_cell()
    }

    /// The copy of `seqno` a chain walker reads: the last segment's,
    /// beside `next`.
    pub fn seqno_beside_next(&self) -> &TxCell<u64> {
        self.seqno(Self::LAST)
    }

    /// The copy of `seqno` the HTM upper region's section reads with the
    /// fence ([`crate::EunoBTree::locate`]): the fence's segment's, on the
    /// fence's line wherever the fence rides a link word.
    pub fn seqno_beside_fence(&self) -> &TxCell<u64> {
        self.seqno(Self::LAST.saturating_sub(4))
    }

    /// Next-leaf chain for range scans (NodeRef bits).
    pub fn next(&self) -> &TxCell<u64> {
        self.own_word(0)
    }

    /// Parent internal node (NodeRef bits; 0 at the root).
    pub fn parent(&self) -> &TxCell<u64> {
        self.own_word(1)
    }

    /// Serializes splits, merges and locked scan steps on this leaf.
    /// Written only from outside regions, on a segment's line: each write
    /// aborts an overlapping region that reads that line.
    pub fn split_lock(&self) -> &LockWord {
        self.own_word(2).as_lock()
    }

    /// The block word: 0 while the leaf has no CCM block, the block's
    /// address once [`Self::install_block`] has given it one.
    fn block_cell(&self) -> &TxCell<u64> {
        self.own_word(3)
    }

    /// The *fence*: the upper bound of the keys the leaf covers —
    /// `KEY_SENTINEL` at the end of the chain, the separator a split put
    /// above it, its right neighbour's fence once a merge has taken that
    /// neighbour in — and 0 once a merge has retired it. A leaf's lower
    /// bound never changes while it lives (a split keeps the lower half, a
    /// merge the left leaf), so a leaf covers `key` exactly while `key` is
    /// below its fence: what the pair an HTM upper region hands over is
    /// read against ([`crate::EunoBTree::locate`]). Written by splits and
    /// merges, inside their regions, after the `seqno` bump.
    pub fn fence(&self) -> &TxCell<u64> {
        self.own_word(4)
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
        // Segments: record storage (their `seqno` copies and the leaf's
        // own words live amid the records deliberately — per-segment
        // metadata is the point).
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
    use crate::tree::{DefaultGuard, DefaultLeaf};
    use euno_htm::LineId;

    /// The line facts of the layout, at every geometry the crate builds:
    /// every segment's `seqno` copy, link word, keys and values on that
    /// segment's `lines` lines and on no other segment's; `next` beside
    /// the last segment's copy of `seqno`, the fence beside the copy the
    /// upper region reads with it where the fence rides a link word; and
    /// the leaf's five own words apart.
    fn line_facts<const SEGS: usize, const K: usize>(lines: usize)
    where
        Keys<K>: KeyPad,
    {
        let l: Box<EunoLeaf<SEGS, K>> = Box::new(EunoLeaf::empty());
        let line = |cell: &TxCell<u64>| cell.line();
        let mut seen = std::collections::HashSet::new();
        for (i, seg) in l.segs.iter().enumerate() {
            let mine: std::collections::HashSet<LineId> = (0..K)
                .flat_map(|j| [line(seg.key_cell(j)), line(seg.val_cell(j))])
                .chain([line(l.seqno(i)), line(seg.link())])
                .collect();
            assert_eq!(mine.len(), lines, "segment {i}'s lines");
            assert!(mine.iter().all(|&at| seen.insert(at)), "segment {i}");
            assert_eq!(line(l.seqno(i)), line(seg.key_cell(0)), "segment {i}");
        }
        let last = EunoLeaf::<SEGS, K>::LAST;
        assert_eq!(line(l.next()), line(l.seqno_beside_next()));
        assert_eq!(line(l.next()), line(l.segs[last].key_cell(0)));
        if SEGS >= EunoLeaf::<SEGS, K>::OWN_WORDS {
            assert_eq!(line(l.fence()), line(l.seqno_beside_fence()));
        }
        let at = |cell: &TxCell<u64>| cell as *const TxCell<u64> as usize;
        let words = [
            at(l.next()),
            at(l.parent()),
            l.split_lock() as *const LockWord as usize,
            at(l.block_cell()),
            at(l.fence()),
        ];
        let distinct: std::collections::HashSet<usize> = words.into_iter().collect();
        assert_eq!(distinct.len(), 5, "five words");
    }

    #[test]
    fn leaf_line_discipline() {
        line_facts::<6, 3>(1);
        line_facts::<3, 6>(2);
        // (Five of the unpartitioned segment's lines hold its `seqno`, link
        // word, keys and values; its spare words reach into a sixth.)
        line_facts::<1, 18>(5);
        // Six segment lines and nothing else; the unpartitioned leaf's one
        // segment is the same 384 B (`seqno`, `next`, eighteen keys,
        // eighteen values, `parent`, the split lock and the block word are
        // forty-one words of forty-eight).
        assert_eq!(std::mem::size_of::<DefaultLeaf>(), 384);
        assert_eq!(std::mem::size_of::<EunoLeaf<1, 18>>(), 384);
        assert_eq!(std::mem::size_of::<EunoLeaf<3, 6>>(), 384);
    }

    #[test]
    fn capacity_and_bits() {
        assert_eq!(DefaultLeaf::capacity(), 18);
        assert_eq!(DefaultLeaf::ccm_bits(), 36);
        assert_eq!(EunoLeaf::<1, 18>::capacity(), 18);
        assert_eq!(EunoLeaf::<3, 6>::ccm_bits(), 36);
    }

    #[test]
    fn noderef_round_trips() {
        let l: Box<DefaultLeaf> = Box::new(EunoLeaf::empty());
        let i: Box<IndexNode<INTERNAL_FANOUT>> = Box::new(IndexNode::empty());
        let lr = NodeRef::of_leaf(&*l);
        let ir = NodeRef::of_index(&i);
        assert!(lr.is_leaf() && !ir.is_leaf());
        euno_htm::Collector::new().pinned(|g: DefaultGuard| {
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
        euno_htm::Collector::new().pinned(|g: DefaultGuard| {
            g.leaf(NodeRef::of_index(&i));
        });
    }

    #[test]
    #[should_panic(expected = "2·fanout ≤ 64")]
    fn oversized_ccm_rejected() {
        let _l: EunoLeaf<12, 3> = EunoLeaf::empty();
    }
}
