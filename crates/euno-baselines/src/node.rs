//! Conventional sorted B+Tree nodes — the layout the paper's §2.3 analysis
//! blames for false conflicts.
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

use euno_htm::{LineClass, Runtime, TxCell, TxWord, KEY_SENTINEL};

/// Default node fanout; §5.7 sets the paper's fanout to 16.
pub const DEFAULT_FANOUT: usize = 16;

/// A leaf node: sorted keys with co-located values, chained for scans.
#[repr(C, align(64))]
pub struct Leaf<const F: usize> {
    /// Number of occupied slots (including tombstoned records).
    pub count: TxCell<u64>,
    /// Next-leaf link (NodeRef bits; 0 = end).
    pub next: TxCell<u64>,
    _pad: [u64; 6],
    /// Sorted keys; unoccupied slots hold `KEY_SENTINEL`.
    pub keys: [TxCell<u64>; F],
    /// Values parallel to `keys`; `TOMBSTONE` marks a deleted record.
    pub vals: [TxCell<u64>; F],
}

/// An internal node: sorted separator keys and child pointers.
/// `child0` is left of `keys[0]`; `children[i]` is right of `keys[i]`.
#[repr(C, align(64))]
pub struct Internal<const F: usize> {
    /// Number of separator keys.
    pub count: TxCell<u64>,
    /// Leftmost child.
    pub child0: TxCell<u64>,
    _pad: [u64; 6],
    pub keys: [TxCell<u64>; F],
    pub children: [TxCell<u64>; F],
}

impl<const F: usize> Leaf<F> {
    pub fn empty() -> Self {
        Leaf {
            count: TxCell::new(0),
            next: TxCell::new(0),
            _pad: [0; 6],
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
}

impl<const F: usize> Internal<F> {
    pub fn empty() -> Self {
        Internal {
            count: TxCell::new(0),
            child0: TxCell::new(0),
            _pad: [0; 6],
            keys: std::array::from_fn(|_| TxCell::new(KEY_SENTINEL)),
            children: std::array::from_fn(|_| TxCell::new(0)),
        }
    }

    /// Interior structure: every line is `Structure` class (conflicts here
    /// are the rare non-leaf-level kind of §2.3).
    pub fn register(&self, rt: &Runtime) {
        rt.register_value(self, LineClass::Structure);
    }
}

/// A tagged node pointer stored in cells: bit 0 set ⇒ leaf.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NodeRef(pub u64);

impl NodeRef {
    pub const NULL: NodeRef = NodeRef(0);

    pub fn of_leaf<const F: usize>(l: &Leaf<F>) -> Self {
        NodeRef(l as *const Leaf<F> as u64 | 1)
    }

    pub fn of_internal<const F: usize>(i: &Internal<F>) -> Self {
        NodeRef(i as *const Internal<F> as u64)
    }

    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    #[inline]
    pub fn is_leaf(self) -> bool {
        self.0 & 1 == 1
    }

    /// # Safety
    /// `self` must have been created by [`NodeRef::of_leaf`] on a node from
    /// an arena that outlives `'a` (the trees guarantee this: nodes are
    /// only reclaimed when the tree drops).
    #[inline]
    pub unsafe fn as_leaf<'a, const F: usize>(self) -> &'a Leaf<F> {
        debug_assert!(self.is_leaf() && !self.is_null());
        &*((self.0 & !1) as *const Leaf<F>)
    }

    /// # Safety
    /// As [`NodeRef::as_leaf`], for internal nodes.
    #[inline]
    pub unsafe fn as_internal<'a, const F: usize>(self) -> &'a Internal<F> {
        debug_assert!(!self.is_leaf() && !self.is_null());
        &*(self.0 as *const Internal<F>)
    }
}

impl TxWord for NodeRef {
    fn to_word(self) -> u64 {
        self.0
    }
    fn from_word(w: u64) -> Self {
        NodeRef(w)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euno_htm::LineId;

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
        assert_eq!(std::mem::size_of::<Internal<16>>() % 64, 0);
        assert_eq!(std::mem::align_of::<Leaf<16>>(), 64);
    }

    #[test]
    fn noderef_tagging_roundtrip() {
        let l: Leaf<16> = Leaf::empty();
        let i: Internal<16> = Internal::empty();
        let lr = NodeRef::of_leaf(&l);
        let ir = NodeRef::of_internal(&i);
        assert!(lr.is_leaf());
        assert!(!ir.is_leaf());
        assert!(!lr.is_null());
        assert!(NodeRef::NULL.is_null());
        let l2 = unsafe { lr.as_leaf::<16>() };
        assert!(std::ptr::eq(l2, &l));
        let i2 = unsafe { ir.as_internal::<16>() };
        assert!(std::ptr::eq(i2, &i));
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
        let i: Box<Internal<16>> = Box::new(Internal::empty());
        i.register(&rt);
        assert_eq!(rt.class_of(i.keys[0].line()), LineClass::Structure);
    }
}
