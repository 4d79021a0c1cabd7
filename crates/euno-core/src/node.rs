//! Euno-B+Tree's own node type: the partitioned leaf (Figure 4). The index
//! nodes above it (with parent links) and the tagged pointer are the
//! shared B+tree's, `euno_htm::bptree`.
//!
//! Layout is cache-line-deliberate:
//!
//! * the leaf header (`seqno`, `next`, `parent`) has its own line — it is
//!   read inside HTM regions, so nothing that gets CAS'd from outside
//!   regions may share it;
//! * each segment is line-aligned with keys and values on separate lines
//!   (see [`Segment`]);
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

use euno_htm::{LineClass, ParentLinked, Runtime, TxCell};

pub use euno_htm::{IndexNode, NodeRef};

use crate::ccm::Ccm;
use crate::segment::Segment;

/// Internal-node fanout (the paper sets node fanout to 16, §5.7).
pub const INTERNAL_FANOUT: usize = 16;

/// A partitioned leaf: header, `SEGS` segments of `K` slots, and the
/// conflict-control module (which hosts the split lock).
#[repr(C, align(64))]
pub struct EunoLeaf<const SEGS: usize, const K: usize> {
    /// Version number tracking splits (the consistency glue between the
    /// upper and lower HTM regions, §4.1/Figure 4).
    pub seqno: TxCell<u64>,
    /// Next-leaf chain for range scans (NodeRef bits).
    pub next: TxCell<u64>,
    /// Parent internal node (NodeRef bits; 0 at the root).
    pub parent: TxCell<u64>,
    _pad0: [u64; 5],
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
            seqno: TxCell::new(0),
            next: TxCell::new(0),
            parent: TxCell::new(0),
            _pad0: [0; 5],
            segs: std::array::from_fn(|_| Segment::empty()),
            ccm: Ccm::new(),
        }
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
            // Header line.
            (0, LineClass::Metadata),
            // Segments: record storage (their count words live amid the
            // records deliberately — per-segment metadata is the point).
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
        &self.parent
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

    #[test]
    fn leaf_line_discipline() {
        let l: Box<Leaf44> = Box::new(EunoLeaf::empty());
        let header = LineId::of_ptr(&l.seqno as *const _);
        let lock_line = LineId::of_addr(&l.ccm.split_lock as *const _ as usize);
        let seg0k = l.segs[0].key_cell(0).line();
        let seg0v = l.segs[0].val_cell(0).line();
        let seg1k = l.segs[1].key_cell(0).line();
        let ccm = LineId::of_addr(&l.ccm as *const _ as usize);
        // All regions on distinct lines.
        let set: std::collections::HashSet<_> =
            [header, seg0k, seg0v, seg1k, ccm].into_iter().collect();
        assert_eq!(
            set.len(),
            5,
            "header/segment-keys/segment-vals/ccm must not share lines"
        );
        // The split lock rides the CCM line (written outside regions only,
        // like everything else there) and the leaf has no line to spare.
        assert_eq!(lock_line, ccm);
        assert_eq!(std::mem::size_of::<Leaf44>(), 640);
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
            assert!(std::ptr::eq(g.parent_cell(lr), &l.parent));
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
