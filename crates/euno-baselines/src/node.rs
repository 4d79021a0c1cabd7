//! The conventional sorted B+Tree leaf — the layout the paper's §2.3
//! analysis blames for false conflicts — shared by the three baselines.
//! (The index node above it, the tagged pointer and the sequential phases
//! are `euno_htm::bptree`'s, shared with Euno-B+Tree as well.)
//!
//! Keys in a node are stored **sorted and consecutive**: an insertion
//! shifts every slot after the insertion point one position right, writing
//! a swath of contiguous cells. Because cells sit eight to a cache line,
//! two inserts of *different* keys into the same node almost always touch
//! a common line — that is the "cache line sharing of consecutive records"
//! false-conflict source. The per-node `count` word is the "shared
//! metadata" source. Both layouts are deliberate reproductions.
//!
//! Nodes are `repr(C, align(64))` with the header padded to one cache
//! line, so header metadata and record storage fault on *different* lines
//! and the abort classifier can attribute conflicts precisely.

use euno_htm::bptree::{lower_bound, sorted_insert, Access};
use euno_htm::{ControlBlock, LineClass, NodeArenas, NodeRef, ParentLinked, Runtime};
use euno_htm::{Tx, TxCell, TxResult};
use euno_htm::{KEY_SENTINEL, TOMBSTONE};

/// Default node fanout; §5.7 sets the paper's fanout to 16.
pub const DEFAULT_FANOUT: usize = 16;

/// What a baseline reads its nodes through, in HTM regions too: it frees no
/// node before it drops, so a borrow of it is enough ([`NodeArenas::until_drop`]).
pub type Guard<'t, const F: usize> = euno_htm::Guard<'t, Leaf<F>, F>;

/// A leaf node: sorted keys with co-located values, chained for scans.
/// `parent`, `version` and `highkey` are the two Masstrees'; HTM-B+Tree
/// never touches them.
#[repr(C, align(64))]
pub struct Leaf<const F: usize> {
    /// Number of occupied slots (including tombstoned records).
    pub count: TxCell<u64>,
    /// Next-leaf link (NodeRef bits; 0 = end).
    pub next: TxCell<u64>,
    /// Parent index node (NodeRef bits; 0 at the root).
    pub parent: TxCell<u64>,
    /// Masstree's version word.
    pub version: TxCell<u64>,
    /// B-link fence: exclusive upper bound of this leaf's key range
    /// (`KEY_SENTINEL` = +∞). A traversal that lands here *after* a
    /// concurrent split detects the shrunken range by `key ≥ highkey`
    /// and retries — closing the stale-child-pointer race that version
    /// validation alone cannot see once the split has completed.
    pub highkey: TxCell<u64>,
    _pad: [u64; 3],
    /// Sorted keys; unoccupied slots hold `KEY_SENTINEL`.
    pub keys: [TxCell<u64>; F],
    /// Values parallel to `keys`; `TOMBSTONE` marks a deleted record.
    pub vals: [TxCell<u64>; F],
}

impl<const F: usize> Leaf<F> {
    pub fn empty() -> Self {
        Leaf {
            count: TxCell::new(0),
            next: TxCell::new(0),
            parent: TxCell::new(0),
            version: TxCell::new(0),
            highkey: TxCell::new(KEY_SENTINEL),
            _pad: [0; 3],
            keys: std::array::from_fn(|_| TxCell::new(KEY_SENTINEL)),
            vals: std::array::from_fn(|_| TxCell::new(0)),
        }
    }

    /// Tag this node's lines for conflict classification: header ⇒
    /// metadata, key/value slots ⇒ record.
    pub fn register(&self, rt: &Runtime) {
        let parts = [
            (0, LineClass::Metadata),
            (std::mem::offset_of!(Leaf<F>, keys), LineClass::Record),
        ];
        let base = self as *const Self as usize;
        rt.register_node(base, std::mem::size_of::<Self>(), &parts, false);
    }

    /// Binary search for `key` among the occupied slots; `probe` runs
    /// before each of the search's key loads (Masstree's permutation
    /// decode). The count is clamped to `F`: an unvalidated loader may
    /// observe a torn one, and its caller validates afterwards.
    pub fn find<A: Access>(
        &self,
        a: &mut A,
        key: u64,
        mut probe: impl FnMut(&mut A),
    ) -> Result<Option<usize>, A::Error> {
        let cnt = (a.load(&self.count)? as usize).min(F);
        let lo = lower_bound(cnt, key, |i| {
            probe(a);
            a.load(&self.keys[i])
        })?;
        Ok((lo < cnt && a.load(&self.keys[lo])? == key).then_some(lo))
    }

    /// Insert `key→val` into a non-full leaf that does not hold `key`,
    /// shifting the tail right.
    pub fn insert<A: Access>(&self, a: &mut A, key: u64, val: u64) -> Result<(), A::Error> {
        let cnt = a.load(&self.count)? as usize;
        debug_assert!(cnt < F);
        sorted_insert(a, &self.count, &self.keys, &self.vals, cnt, key, val)
    }

    /// Split this full leaf: the upper half of its records moves to the
    /// fresh `right`, which takes its place in the leaf chain after it.
    /// Returns the separator — `right`'s first key.
    pub fn split_into<A: Access>(&self, a: &mut A, right: &Self) -> Result<u64, A::Error> {
        let mid = F / 2;
        for i in mid..F {
            let k = a.load(&self.keys[i])?;
            let v = a.load(&self.vals[i])?;
            a.store(&right.keys[i - mid], k)?;
            a.store(&right.vals[i - mid], v)?;
        }
        let sep = a.load(&self.keys[mid])?;
        a.store(&right.count, (F - mid) as u64)?;
        a.store(&self.count, mid as u64)?;
        let old_next = a.load(&self.next)?;
        a.store(&right.next, old_next)?;
        a.store(&self.next, NodeRef::of_leaf(right).0)?;
        Ok(sep)
    }

    /// The body of a whole-scan HTM region: walk the leaf chain from this
    /// leaf, appending live records with key `≥ from` to `out` until it
    /// holds `upto` or the chain ends. An `out` that holds `upto` already
    /// gets nothing, and no leaf is read.
    pub fn collect<'t>(
        &'t self,
        g: Guard<'t, F>,
        tx: &mut Tx<'_>,
        from: u64,
        upto: usize,
        out: &mut Vec<(u64, u64)>,
    ) -> TxResult<()> {
        let mut leaf = self;
        while out.len() < upto {
            let cnt = tx.read(&leaf.count)? as usize;
            for i in 0..cnt {
                let k = tx.read(&leaf.keys[i])?;
                if k < from {
                    continue;
                }
                let v = tx.read(&leaf.vals[i])?;
                if v == TOMBSTONE {
                    continue;
                }
                out.push((k, v));
                if out.len() == upto {
                    return Ok(());
                }
            }
            let next = NodeRef(tx.read(&leaf.next)?);
            if next.is_null() {
                return Ok(());
            }
            leaf = g.leaf(next);
        }
        Ok(())
    }
}

/// What an empty baseline tree is made of: one registered leaf, and the
/// registered control block whose root word points at it.
pub(crate) fn empty_tree<const F: usize>(
    rt: &Runtime,
) -> (Box<ControlBlock>, NodeArenas<Leaf<F>, F>) {
    let arenas = NodeArenas::default();
    let first: &Leaf<F> = arenas.leaves.alloc(Leaf::empty());
    first.register(rt);
    let ctrl = ControlBlock::new(NodeRef::of_leaf(first).0);
    rt.register_value(&*ctrl, LineClass::Structure);
    (ctrl, arenas)
}

impl<const F: usize> ParentLinked for Leaf<F> {
    fn parent(&self) -> &TxCell<u64> {
        &self.parent
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euno_htm::{IndexNode, LineId, TxWord};

    #[test]
    fn leaf_layout_separates_header_from_records() {
        let l: Leaf<16> = Leaf::empty();
        let header_line = LineId::of_ptr(&l as *const _);
        let first_key_line = l.keys[0].line();
        assert_ne!(
            header_line, first_key_line,
            "count/next must not share a line with record slots"
        );
        // 16 keys = 128 bytes = exactly 2 lines, line-aligned.
        assert_eq!(l.keys[0].line().0 + 1, l.keys[8].line().0);
        assert_eq!(l.keys[0].line(), l.keys[7].line());
    }

    #[test]
    fn node_sizes_are_line_multiples() {
        assert_eq!(std::mem::size_of::<Leaf<16>>() % 64, 0);
        assert_eq!(std::mem::size_of::<IndexNode<16>>() % 64, 0);
        assert_eq!(std::mem::align_of::<Leaf<16>>(), 64);
    }

    #[test]
    fn noderef_tagging_roundtrip() {
        let l: Leaf<16> = Leaf::empty();
        let i: IndexNode<16> = IndexNode::empty();
        let lr = NodeRef::of_leaf(&l);
        let ir = NodeRef::of_index(&i);
        assert!(lr.is_leaf());
        assert!(!ir.is_leaf());
        assert!(!lr.is_null());
        assert!(NodeRef::NULL.is_null());
        euno_htm::Collector::new().pinned(|g: Guard<16>| {
            assert!(std::ptr::eq(g.leaf(lr), &l));
            assert!(std::ptr::eq(g.index_node(ir), &i));
        });
        // TxWord roundtrip preserves the tag.
        let w = lr.to_word();
        assert_eq!(NodeRef::from_word(w), lr);
    }

    #[test]
    fn registration_tags_classes() {
        let rt = Runtime::new_virtual();
        let l: Box<Leaf<16>> = Box::new(Leaf::empty());
        l.register(&rt);
        assert_eq!(rt.class_of(l.keys[3].line()), LineClass::Record);
        assert_eq!(
            rt.class_of(LineId::of_ptr(&l.count as *const _)),
            LineClass::Metadata
        );
        let i: Box<IndexNode<16>> = Box::new(IndexNode::empty());
        i.register(&rt);
        assert_eq!(rt.class_of(i.keys[0].line()), LineClass::Structure);
    }
}
