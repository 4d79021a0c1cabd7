//! Euno-B+Tree's own node type: the partitioned leaf (Figure 4). The index
//! nodes above it (with parent links) and the tagged pointer are the
//! shared B+tree's, `euno_htm::bptree`.
//!
//! Layout is cache-line-deliberate — eight segment lines and the CCM
//! line, 576 B at the paper's geometry, with no header line:
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
//! * the CCM is one separate line (see [`Ccm`]), and the split lock is a
//!   word of it — both are written only from outside regions and read
//!   inside none, so neither invalidates a line transactions read.
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

use euno_htm::{LineClass, ParentLinked, Runtime, Tx, TxCell, TxResult};

pub use euno_htm::{IndexNode, NodeRef};

use crate::ccm::Ccm;
use crate::probe;
use crate::segment::Segment;

/// Internal-node fanout (the paper sets node fanout to 16, §5.7).
pub const INTERNAL_FANOUT: usize = 16;

/// A partitioned leaf: `SEGS` segments of `K` slots, which also carry the
/// leaf's `seqno`, `next` and `parent`, and the conflict-control module
/// (which hosts the split lock).
#[repr(C, align(64))]
pub struct EunoLeaf<const SEGS: usize, const K: usize> {
    pub segs: [Segment<K>; SEGS],
    pub ccm: Ccm,
}

impl<const SEGS: usize, const K: usize> EunoLeaf<SEGS, K> {
    pub fn empty() -> Self {
        assert!(SEGS >= 1 && K >= 2, "need at least one segment of ≥2 slots");
        assert!(
            2 * SEGS * K <= 64,
            "CCM bit vectors are single words: 2·fanout ≤ 64"
        );
        EunoLeaf {
            segs: std::array::from_fn(|_| Segment::empty()),
            ccm: Ccm::new(),
        }
    }

    /// The segment whose key line carries `next` and `parent`.
    const LAST: usize = SEGS - 1;

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
        self.segs[Self::LAST].link_cell(0)
    }

    /// Parent internal node (NodeRef bits; 0 at the root).
    pub fn parent(&self) -> &TxCell<u64> {
        self.segs[Self::LAST].link_cell(1)
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
        let parts = [
            // Segments: record storage (their count and `seqno` words, and
            // the last one's links, live amid the records deliberately —
            // per-segment metadata is the point).
            (std::mem::offset_of!(Self, segs), LineClass::Record),
            // CCM line (lock bits, mark bits, detector, split lock).
            (std::mem::offset_of!(Self, ccm), LineClass::Metadata),
        ];
        // Attributed: the contention profiler maps address-carrying trace
        // events (conflict lines, lock cells, CCM words) inside the leaf
        // to its base.
        let base = self as *const Self as usize;
        rt.register_node(base, std::mem::size_of::<Self>(), &parts, true);
    }

    /// The leaf has been retired: the simulation forgets its lines' heat
    /// here, not when the allocator re-issues the address
    /// ([`Runtime::forget_node_heat`]).
    pub fn forget_heat(&self, rt: &Runtime) {
        rt.forget_node_heat(self as *const Self as usize, std::mem::size_of::<Self>());
    }
}

impl<const SEGS: usize, const K: usize> ParentLinked for EunoLeaf<SEGS, K> {
    fn parent(&self) -> &TxCell<u64> {
        EunoLeaf::parent(self)
    }
}

/// Arenas owning all of a tree's allocations.
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
    /// CCM line — carrying the split lock — shared with no key line.
    fn line_facts<const SEGS: usize, const K: usize>() {
        let l: Box<EunoLeaf<SEGS, K>> = Box::new(EunoLeaf::empty());
        let line = |cell: &TxCell<u64>| cell.line();
        let ccm = LineId::of_addr(&l.ccm as *const _ as usize);
        let lock_line = LineId::of_addr(&l.ccm.split_lock as *const _ as usize);
        let mut key_lines = std::collections::HashSet::new();
        for (i, seg) in l.segs.iter().enumerate() {
            assert_eq!(line(l.seqno(i)), seg.key_cell(0).line(), "segment {i}");
            key_lines.extend((0..K).map(|j| seg.key_cell(j).line()));
            assert_ne!(seg.key_cell(0).line(), seg.val_cell(0).line());
        }
        let last_key = l.segs[EunoLeaf::<SEGS, K>::LAST].key_cell(K - 1).line();
        assert_eq!(line(l.next()), last_key, "next on the last key line");
        assert_eq!(line(l.parent()), last_key, "parent on the last key line");
        assert!(!key_lines.contains(&ccm), "the CCM line holds no key");
        // The split lock rides the CCM line (written outside regions only,
        // like everything else there).
        assert_eq!(lock_line, ccm);
    }

    #[test]
    fn leaf_line_discipline() {
        line_facts::<4, 4>();
        line_facts::<1, 16>();
        // Eight segment lines and the CCM line: no line to spare. The
        // unpartitioned leaf's key area stays three lines (count, `seqno`,
        // sixteen keys and the links are twenty words).
        assert_eq!(std::mem::size_of::<Leaf44>(), 576);
        assert_eq!(std::mem::size_of::<EunoLeaf<1, 16>>(), 384);
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
