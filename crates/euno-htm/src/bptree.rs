//! One sequential B+tree under every tree of the workspace.
//!
//! The paper's argument is that Euno-B+Tree *is* the DBX B+tree with
//! different synchronisation around the same sequential steps (Algorithm 1
//! against Algorithms 2–3; §5.1 compares it with three more trees of that
//! shape). Those steps are written here, once, over whatever reads and
//! writes the caller supplies — an [`Access`] ([`Tx`], [`ThreadCtx`]) or a
//! load closure: the two searches of a sorted cell array by a `key_at(i)`
//! probe (so whatever a tree does per probe rides inside it), the sorted
//! insert over two parallel arrays, the [`IndexNode`] with its split, the
//! tagged [`NodeRef`], and [`promote`], a split's way up, over the
//! [`Propagate`] hooks that are each tree's own synchronisation.
//!
//! The virtual clock charges per instrumented access, so "the same steps"
//! is checkable as equality: `tests/bptree_kernels.rs` pins the access
//! counts, and the golden digest and every recorded row stand on them.
//! DESIGN.md §4.9.

use std::convert::Infallible;
use std::marker::PhantomData;

use crate::abort::{AbortCause, TxResult};
use crate::arena::Arena;
use crate::ctx::{ThreadCtx, Tx};
use crate::line::LineClass;
use crate::map::KEY_SENTINEL;
use crate::runtime::Runtime;
use crate::word::{TxCell, TxWord};

/// The reads and writes a phase is run over.
pub trait Access {
    type Error;
    fn load(&mut self, cell: &TxCell<u64>) -> Result<u64, Self::Error>;
    fn store(&mut self, cell: &TxCell<u64>, v: u64) -> Result<(), Self::Error>;
}

/// Inside an HTM region: transactional reads, buffered writes.
impl Access for Tx<'_> {
    type Error = AbortCause;
    #[inline]
    fn load(&mut self, cell: &TxCell<u64>) -> Result<u64, AbortCause> {
        self.read(cell)
    }
    #[inline]
    fn store(&mut self, cell: &TxCell<u64>, v: u64) -> Result<(), AbortCause> {
        self.write(cell, v)
    }
}

/// Outside any region (under a lock, or validated afterwards): direct
/// loads and stores.
impl Access for ThreadCtx {
    type Error = Infallible;
    #[inline]
    fn load(&mut self, cell: &TxCell<u64>) -> Result<u64, Infallible> {
        Ok(cell.load_direct(self))
    }
    #[inline]
    fn store(&mut self, cell: &TxCell<u64>, v: u64) -> Result<(), Infallible> {
        cell.store_direct(self, v);
        Ok(())
    }
}

/// The one binary search: how many of `count` sorted slots `goes_right`
/// holds for (it holds for a prefix of them).
#[inline]
fn bisect<E>(
    count: usize,
    mut goes_right: impl FnMut(usize) -> Result<bool, E>,
) -> Result<usize, E> {
    let (mut lo, mut hi) = (0, count);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if goes_right(mid)? {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok(lo)
}

/// How many of the `count` sorted keys are `≤ key`: the child to take in
/// an index node (0 ⇒ `child0`).
#[inline]
pub fn upper_bound<E>(
    count: usize,
    key: u64,
    mut key_at: impl FnMut(usize) -> Result<u64, E>,
) -> Result<usize, E> {
    bisect(count, |i| Ok(key_at(i)? <= key))
}

/// How many of the `count` sorted keys are `< key`: the slot `key` is in,
/// or would be inserted at. The last probe that did not go right read the
/// slot the search ends on.
#[inline]
pub fn lower_bound<E>(
    count: usize,
    key: u64,
    mut key_at: impl FnMut(usize) -> Result<u64, E>,
) -> Result<usize, E> {
    bisect(count, |i| Ok(key_at(i)? < key))
}

/// Put `key → val` at slot `at` of two parallel arrays holding `n` pairs,
/// shifting the tail one slot right — the consecutive-record data movement
/// of §2.3 — and count it. `2(n − at)` loads, `2(n − at) + 3` stores.
#[inline]
#[allow(clippy::too_many_arguments)]
pub fn insert_at<A: Access>(
    a: &mut A,
    count: &TxCell<u64>,
    keys: &[TxCell<u64>],
    vals: &[TxCell<u64>],
    n: usize,
    at: usize,
    key: u64,
    val: u64,
) -> Result<(), A::Error> {
    debug_assert!(at <= n && n < keys.len(), "insert at {at} of {n}");
    for i in (at..n).rev() {
        let k = a.load(&keys[i])?;
        let v = a.load(&vals[i])?;
        a.store(&keys[i + 1], k)?;
        a.store(&vals[i + 1], v)?;
    }
    a.store(&keys[at], key)?;
    a.store(&vals[at], val)?;
    a.store(count, (n + 1) as u64)
}

/// [`insert_at`] the lower bound of `key`.
#[inline]
pub fn sorted_insert<A: Access>(
    a: &mut A,
    count: &TxCell<u64>,
    keys: &[TxCell<u64>],
    vals: &[TxCell<u64>],
    n: usize,
    key: u64,
    val: u64,
) -> Result<(), A::Error> {
    let at = lower_bound(n, key, |i| a.load(&keys[i]))?;
    insert_at(a, count, keys, vals, n, at, key, val)
}

/// An index node: sorted separator keys and child pointers. `child0` is
/// left of `keys[0]`; `children[i]` is right of `keys[i]`. Every line is
/// `Structure` class (conflicts here are the rare non-leaf-level kind of
/// §2.3).
///
/// The fields are in the order a search reads them: `count` and the first
/// seven separators share line 0, so a search that probes no separator
/// past the seventh reads that line and its child's — two lines a level.
/// At fanout 16 (320 B, five lines) `keys[7..15]` fill line 1, and
/// `keys[15]`, `child0`, `parent`, `version` and `children[0..4]` line 2;
/// the children go on over lines 3 and 4, and the tail pads to the line.
/// `parent` and `version` are for the trees that keep them and cost the
/// others nothing, being never touched. DESIGN.md §4.9.
#[repr(C, align(64))]
pub struct IndexNode<const F: usize> {
    /// Number of separator keys.
    pub count: TxCell<u64>,
    pub keys: [TxCell<u64>; F],
    /// Leftmost child.
    pub child0: TxCell<u64>,
    /// Parent index node (NodeRef bits; 0 at the root).
    pub parent: TxCell<u64>,
    /// Masstree's version word.
    pub version: TxCell<u64>,
    pub children: [TxCell<u64>; F],
}

impl<const F: usize> IndexNode<F> {
    pub fn empty() -> Self {
        IndexNode {
            count: TxCell::new(0),
            keys: std::array::from_fn(|_| TxCell::new(KEY_SENTINEL)),
            child0: TxCell::new(0),
            parent: TxCell::new(0),
            version: TxCell::new(0),
            children: std::array::from_fn(|_| TxCell::new(0)),
        }
    }

    pub fn register(&self, rt: &Runtime) {
        rt.register_value(self, LineClass::Structure);
    }

    /// The cell of child `i` of `count + 1`, as a search numbers them.
    #[inline]
    pub fn child(&self, i: usize) -> &TxCell<u64> {
        match i {
            0 => &self.child0,
            i => &self.children[i - 1],
        }
    }

    /// Insert `(sep, right)` into this node of `n < F` separators.
    pub fn insert<A: Access>(
        &self,
        a: &mut A,
        n: usize,
        sep: u64,
        right: NodeRef,
    ) -> Result<(), A::Error> {
        sorted_insert(a, &self.count, &self.keys, &self.children, n, sep, right.0)
    }

    /// Split this full node: the separators above the middle one move to
    /// `new` with their children (`moved` is told of each, the middle
    /// one's first), both counts are set, and the middle separator —
    /// which stays in neither — is returned for the level above. The
    /// lower half stays where it is and the node keeps its lower bound.
    pub fn split_into<A: Access>(
        &self,
        a: &mut A,
        new: &Self,
        mut moved: impl FnMut(&mut A, NodeRef) -> Result<(), A::Error>,
    ) -> Result<u64, A::Error> {
        let mid = F / 2;
        let promoted = a.load(&self.keys[mid])?;
        let mid_child = a.load(&self.children[mid])?;
        a.store(&new.child0, mid_child)?;
        moved(a, NodeRef(mid_child))?;
        for i in mid + 1..F {
            let k = a.load(&self.keys[i])?;
            let c = a.load(&self.children[i])?;
            a.store(&new.keys[i - mid - 1], k)?;
            a.store(&new.children[i - mid - 1], c)?;
            moved(a, NodeRef(c))?;
        }
        a.store(&new.count, (F - mid - 1) as u64)?;
        a.store(&self.count, mid as u64)?;
        Ok(promoted)
    }

    /// Make this fresh node a root over `left | sep | right`.
    pub fn init_root<A: Access>(
        &self,
        a: &mut A,
        left: NodeRef,
        sep: u64,
        right: NodeRef,
    ) -> Result<(), A::Error> {
        a.store(&self.child0, left.0)?;
        a.store(&self.keys[0], sep)?;
        a.store(&self.children[0], right.0)?;
        a.store(&self.count, 1)
    }

    /// This node was split off `from`: it hangs under the same parent.
    pub fn inherit_parent<A: Access>(&self, a: &mut A, from: &Self) -> Result<(), A::Error> {
        let above = a.load(&from.parent)?;
        a.store(&self.parent, above)
    }
}

/// A leaf that keeps a pointer to the index node above it.
pub trait ParentLinked {
    fn parent(&self) -> &TxCell<u64>;
}

/// A tagged node pointer stored in cells: bit 0 set ⇒ leaf (of whatever
/// type the tree has), clear ⇒ [`IndexNode`].
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct NodeRef(pub u64);

impl NodeRef {
    pub const NULL: NodeRef = NodeRef(0);

    pub fn of_leaf<L>(l: &L) -> Self {
        NodeRef(l as *const L as u64 | 1)
    }

    pub fn of_index<const F: usize>(i: &IndexNode<F>) -> Self {
        NodeRef(i as *const IndexNode<F> as u64)
    }

    #[inline]
    pub fn is_null(self) -> bool {
        self.0 == 0
    }

    #[inline]
    pub fn is_leaf(self) -> bool {
        self.0 & 1 == 1
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

/// The one way from a [`NodeRef`] to a node: read access to a tree's nodes
/// for `'g`, handed out by what keeps them alive — an epoch pin
/// ([`ThreadCtx::pinned`], [`Collector::pinned`](crate::Collector::pinned))
/// or, for a tree that frees no node before it drops, its arenas
/// ([`NodeArenas::until_drop`]) — for a scope `'g` cannot leave. `L` and
/// `F` are the tree's, by type; the words resolved are its own links, and
/// each resolution checks the kind against the tag bit (a register test,
/// not charged on the virtual clock). DESIGN.md §4.4.
///
/// ```
/// use euno_htm::{Guard, NodeArenas, NodeRef, Runtime};
/// let arenas: NodeArenas<u64, 4> = NodeArenas::default();
/// let seven = NodeRef::of_leaf(arenas.leaves.alloc(7u64));
/// let mut ctx = Runtime::new_virtual().thread(0);
/// assert_eq!(ctx.pinned(|_, g: Guard<u64, 4>| *g.leaf(seven)), 7);
/// ```
///
/// Nothing it resolves can be returned out of the scope:
/// ```compile_fail
/// use euno_htm::{Guard, NodeArenas, NodeRef, Runtime};
/// let arenas: NodeArenas<u64, 4> = NodeArenas::default();
/// let seven = NodeRef::of_leaf(arenas.leaves.alloc(7u64));
/// let mut ctx = Runtime::new_virtual().thread(0);
/// let escaped: &u64 = ctx.pinned(|_, g: Guard<u64, 4>| g.leaf(seven));
/// ```
pub struct Guard<'g, L, const F: usize> {
    nodes: PhantomData<fn() -> (&'g L, &'g IndexNode<F>)>,
}

impl<L, const F: usize> Clone for Guard<'_, L, F> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<L, const F: usize> Copy for Guard<'_, L, F> {}

impl<'g, L, const F: usize> Guard<'g, L, F> {
    /// For what keeps the nodes alive for `'g`, and nothing else.
    pub(crate) fn new() -> Self {
        Guard { nodes: PhantomData }
    }

    pub fn leaf(self, node: NodeRef) -> &'g L {
        self.resolve(node, true)
    }

    pub fn index_node(self, node: NodeRef) -> &'g IndexNode<F> {
        self.resolve(node, false)
    }

    fn resolve<T>(self, node: NodeRef, leaf: bool) -> &'g T {
        assert!(
            node.is_leaf() == leaf && node.0 > 1,
            "{node:?} is no node of that kind"
        );
        self.at(node.0 & !1)
    }

    /// The one cast. `addr` is a word of the tree's that names a `T`: a
    /// node whose kind its tag checked ([`Guard::resolve`]), or the side
    /// block its leaf's block word names ([`Guard::block`]).
    fn at<T>(self, addr: u64) -> &'g T {
        debug_assert!(addr.is_multiple_of(std::mem::align_of::<T>() as u64));
        // SAFETY: the word is the tree's, so it names a node — or a side
        // block — its arenas allocated; and whatever handed out `self`
        // keeps that allocated for `'g` (see the type's documentation; a
        // side block is retired with its leaf, never before).
        unsafe { &*(addr as *const T) }
    }
}

/// A leaf that may own one side block, allocated apart from it and named
/// by one word of the leaf: 0 while it has none, the block's address once
/// the tree has installed one — for good, until the two are retired
/// together. Euno's leaf keeps its conflict-control block this way.
pub trait SideBlock {
    type Block;
}

impl<'g, L: SideBlock, const F: usize> Guard<'g, L, F> {
    /// The side block a leaf's block word names, if it names one.
    pub fn block(self, word: u64) -> Option<&'g L::Block> {
        (word != 0).then(|| self.at(word))
    }
}

impl<'g, L: ParentLinked, const F: usize> Guard<'g, L, F> {
    /// The node's parent-pointer cell, whatever its kind.
    pub fn parent_cell(self, node: NodeRef) -> &'g TxCell<u64> {
        match node.is_leaf() {
            true => self.leaf(node).parent(),
            false => &self.index_node(node).parent,
        }
    }
}

/// What a tree supplies to [`promote`]: its synchronisation around each
/// step of the climb, over the access `A` it runs the climb with. `'t` is
/// the tree's lifetime — its nodes'.
pub trait Propagate<'t, A: Access, const F: usize> {
    /// The index node above `child`, ready to be changed (found by its
    /// parent pointer, popped off a path stack, locked — the tree's
    /// business); `None` when `child` is the root.
    fn parent_of(
        &mut self,
        a: &mut A,
        child: NodeRef,
    ) -> Result<Option<&'t IndexNode<F>>, A::Error>;

    /// A fresh index node, registered, to split a full one into.
    fn new_index(&mut self, a: &mut A) -> &'t IndexNode<F>;

    /// `child` now hangs under `parent`. Nothing to do for a tree without
    /// parent pointers.
    fn adopt(&mut self, _a: &mut A, _child: NodeRef, _parent: NodeRef) -> Result<(), A::Error> {
        Ok(())
    }

    /// `node` had room and took the pending separator: the climb ends.
    fn inserted(&mut self, _a: &mut A, _node: &'t IndexNode<F>) -> Result<(), A::Error> {
        Ok(())
    }

    /// `node` was full and its upper half is now in `new`.
    fn split(
        &mut self,
        _a: &mut A,
        _node: &'t IndexNode<F>,
        _new: &'t IndexNode<F>,
    ) -> Result<(), A::Error> {
        Ok(())
    }

    /// `child`, the root, has split: the tree grows a level — a new root
    /// over `child | sep | right`.
    fn grow_root(
        &mut self,
        a: &mut A,
        child: NodeRef,
        sep: u64,
        right: NodeRef,
    ) -> Result<(), A::Error>;
}

/// Propagate a split upward (Algorithm 1 lines 17-19, Algorithm 3 lines
/// 84-86): `child` has split, `right` is its new sibling and `sep` the
/// separator between them. Insert `(sep, right)` into the node above; if
/// that is full, split it, promote its middle separator, insert the
/// pending pair into the proper half and go on one level up; if there is
/// no node above, grow the root.
pub fn promote<'t, A: Access, const F: usize>(
    a: &mut A,
    sync: &mut impl Propagate<'t, A, F>,
    mut child: NodeRef,
    mut sep: u64,
    mut right: NodeRef,
) -> Result<(), A::Error> {
    loop {
        let Some(parent) = sync.parent_of(a, child)? else {
            return sync.grow_root(a, child, sep, right);
        };
        let parent_ref = NodeRef::of_index(parent);
        let n = a.load(&parent.count)? as usize;
        if n < F {
            parent.insert(a, n, sep, right)?;
            sync.adopt(a, right, parent_ref)?;
            return sync.inserted(a, parent);
        }
        let new = sync.new_index(a);
        let new_ref = NodeRef::of_index(new);
        let promoted = parent.split_into(a, new, |a, moved| sync.adopt(a, moved, new_ref))?;
        sync.split(a, parent, new)?;
        let (target, target_ref) = if sep < promoted {
            (parent, parent_ref)
        } else {
            (new, new_ref)
        };
        let n = a.load(&target.count)? as usize;
        target.insert(a, n, sep, right)?;
        sync.adopt(a, right, target_ref)?;
        (child, sep, right) = (parent_ref, promoted, new_ref);
    }
}

/// [`Propagate`] for a tree that climbs by parent pointer inside an HTM
/// region and lists what it allocates as unpublished.
pub struct Linked<'a, 't, L, const F: usize, V> {
    pub nodes: Guard<'t, L, F>,
    pub arenas: &'t NodeArenas<L, F>,
    pub rt: &'t Runtime,
    /// The tree's root word.
    pub root: &'t TxCell<u64>,
    pub unpublished: &'a mut Unpublished,
    /// What an index node that took a separator owes its readers, told
    /// whether it split to take it (a version bump; nothing for a tree
    /// without versions).
    pub changed: V,
}

impl<'t, L, const F: usize, V> Propagate<'t, Tx<'_>, F> for Linked<'_, 't, L, F, V>
where
    L: ParentLinked + 't,
    V: FnMut(&mut Tx<'_>, &IndexNode<F>, bool) -> TxResult<()>,
{
    fn parent_of(&mut self, tx: &mut Tx<'_>, child: NodeRef) -> TxResult<Option<&'t IndexNode<F>>> {
        let above = NodeRef(tx.read(self.nodes.parent_cell(child))?);
        Ok((!above.is_null()).then(|| self.nodes.index_node(above)))
    }

    fn new_index(&mut self, _: &mut Tx<'_>) -> &'t IndexNode<F> {
        self.arenas.alloc_index(self.rt, self.unpublished)
    }

    fn adopt(&mut self, tx: &mut Tx<'_>, child: NodeRef, parent: NodeRef) -> TxResult<()> {
        tx.write(self.nodes.parent_cell(child), parent.0)
    }

    fn inserted(&mut self, tx: &mut Tx<'_>, node: &'t IndexNode<F>) -> TxResult<()> {
        (self.changed)(tx, node, false)
    }

    fn split(
        &mut self,
        tx: &mut Tx<'_>,
        node: &'t IndexNode<F>,
        new: &'t IndexNode<F>,
    ) -> TxResult<()> {
        new.inherit_parent(tx, node)?;
        (self.changed)(tx, node, true)
    }

    fn grow_root(
        &mut self,
        tx: &mut Tx<'_>,
        child: NodeRef,
        sep: u64,
        right: NodeRef,
    ) -> TxResult<()> {
        let root = self.new_index(tx);
        let root_ref = NodeRef::of_index(root);
        root.init_root(tx, child, sep, right)?;
        self.adopt(tx, child, root_ref)?;
        self.adopt(tx, right, root_ref)?;
        tx.write(self.root, root_ref.0)
    }
}

/// What an HTM attempt has allocated and not yet published — a split's
/// new leaf, an index node for each level it splits, a new root — for the
/// next attempt to [hand back](NodeArenas::hand_back). Inline up to
/// [`UNPUBLISHED_INLINE`] nodes (a split that climbs seven levels), so a
/// region that lists its nodes allocates nothing; a deeper climb spills.
pub struct Unpublished {
    len: usize,
    inline: [NodeRef; UNPUBLISHED_INLINE],
    spill: Vec<NodeRef>,
}

pub const UNPUBLISHED_INLINE: usize = 8;

impl Default for Unpublished {
    fn default() -> Self {
        Unpublished {
            len: 0,
            inline: [NodeRef::NULL; UNPUBLISHED_INLINE],
            spill: Vec::new(),
        }
    }
}

impl Unpublished {
    pub fn push(&mut self, node: NodeRef) {
        match self.inline.get_mut(self.len) {
            Some(slot) => {
                *slot = node;
                self.len += 1;
            }
            None => self.spill.push(node),
        }
    }

    /// The nodes listed, in the order they were.
    pub fn iter(&self) -> impl Iterator<Item = NodeRef> + '_ {
        self.inline[..self.len].iter().chain(&self.spill).copied()
    }

    /// Empty the list, yielding what it held.
    pub fn drain(&mut self) -> impl Iterator<Item = NodeRef> + '_ {
        let len = std::mem::take(&mut self.len);
        self.inline[..len]
            .iter()
            .copied()
            .chain(self.spill.drain(..))
    }
}

/// The arenas owning a tree's nodes: leaves of its own type, index nodes
/// of the shared one.
pub struct NodeArenas<L, const F: usize> {
    pub leaves: Arena<L>,
    pub internals: Arena<IndexNode<F>>,
}

impl<L, const F: usize> Default for NodeArenas<L, F> {
    fn default() -> Self {
        NodeArenas {
            leaves: Arena::new(),
            internals: Arena::new(),
        }
    }
}

impl<L, const F: usize> NodeArenas<L, F> {
    /// The tree-lifetime [`Guard`], for a tree that frees no node before it
    /// drops (an aborted attempt's nodes, never published, aside): its
    /// nodes live as long as these arenas. A tree that retires nodes while
    /// it lives reads them under an epoch pin instead.
    pub fn until_drop(&self) -> Guard<'_, L, F> {
        Guard::new()
    }

    /// A fresh registered index node, listed as `unpublished` until the
    /// attempt that allocated it commits.
    pub fn alloc_index(&self, rt: &Runtime, unpublished: &mut Unpublished) -> &IndexNode<F> {
        let node = self.internals.alloc(IndexNode::empty());
        node.register(rt);
        unpublished.push(NodeRef::of_index(node));
        node
    }

    /// An HTM region's attempt starts here. An attempt that does not
    /// commit publishes nothing — its writes were buffered or are rolled
    /// back on every backend, and the fallback path, whose writes are
    /// direct, does not abort — so no other thread can have seen the nodes
    /// the last attempt allocated: they go back to their arenas, freed at
    /// once, with no reader to wait out. What is listed when the region
    /// returns is in the tree.
    pub fn hand_back(&self, rt: &Runtime, unpublished: &mut Unpublished) {
        for node in unpublished.drain() {
            let addr = (node.0 & !1) as usize;
            if node.is_leaf() {
                rt.forget_node_heat(addr, std::mem::size_of::<L>());
                self.leaves.discard(addr as *const L);
            } else {
                rt.forget_node_heat(addr, std::mem::size_of::<IndexNode<F>>());
                self.internals.discard(addr as *const IndexNode<F>);
            }
        }
    }

    /// Bytes in nodes still linked into the structure.
    pub fn live_bytes(&self) -> usize {
        self.leaves.live_bytes() + self.internals.live_bytes()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The line map the cost arithmetic of `locate_cost.rs` stands on.
    #[test]
    fn an_index_node_is_searched_on_two_lines_a_level() {
        let node: Box<IndexNode<16>> = Box::new(IndexNode::empty());
        assert_eq!(std::mem::size_of::<IndexNode<16>>(), 320);
        assert_eq!(std::mem::align_of::<IndexNode<16>>(), 64);
        let line = |cell: &TxCell<u64>| cell.line().0 - node.count.line().0;
        assert_eq!(node.count.raw_ptr() as usize % 64, 0, "count opens line 0");
        assert!(node.keys[..7].iter().all(|k| line(k) == 0));
        assert!(node.keys[7..15].iter().all(|k| line(k) == 1));
        assert_eq!(line(&node.keys[15]), 2);
        for cell in [&node.child0, &node.parent, &node.version] {
            assert_eq!(line(cell), 2);
        }
        assert!(node.children[..4].iter().all(|c| line(c) == 2));
        assert!(node.children[4..12].iter().all(|c| line(c) == 3));
        assert!(node.children[12..].iter().all(|c| line(c) == 4));
    }
}
