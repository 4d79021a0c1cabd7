//! What each operation of the two whole-operation-region trees costs, as
//! exact equalities on the virtual clock: `ctx.clock` and
//! `stats.mem_accesses` across one uncontended operation. The clock
//! charges per instrumented access, so these pairs pin the region bodies'
//! access sequences the way `euno-htm/tests/bptree_kernels.rs` pins the
//! kernels' — a descent, a leaf search, a version bump or a split climb
//! that reads one cell more, or one fewer, fails here before it moves a
//! recorded row.
//!
//! Every tree starts on a fresh virtual runtime from the same preload:
//! `PRELOAD` keys, the even numbers from 0 up, in ascending order, which
//! leaves every leaf but the rightmost half full. The two splits are
//! measured on the ascending sequence that goes on from there: the first
//! put that finds the rightmost leaf full under a parent with room, and
//! the first that finds the whole rightmost spine full and grows the root.

use std::sync::Arc;

use euno_baselines::{Guard, HtmBTree, HtmMasstree, Leaf};
use euno_htm::{ConcurrentMap, NodeRef, Runtime, ThreadCtx};

const PRELOAD: u64 = 300;

/// `(clock, mem_accesses)` deltas, in the order `costs` measures them.
type Costs = [(u64, u64); 9];

/// One operation's deltas.
fn delta(ctx: &mut ThreadCtx, op: impl FnOnce(&mut ThreadCtx)) -> (u64, u64) {
    let (clock, accesses) = (ctx.clock, ctx.stats.mem_accesses);
    op(ctx);
    (ctx.clock - clock, ctx.stats.mem_accesses - accesses)
}

/// The counts along a quiescent tree's rightmost spine, root first, the
/// leaf's last.
fn spine<const F: usize>(nodes: Guard<F>, root: NodeRef) -> Vec<usize> {
    let mut counts = Vec::new();
    let mut cur = root;
    while !cur.is_leaf() {
        let node = nodes.index_node(cur);
        let n = node.count.load_plain() as usize;
        counts.push(n);
        cur = NodeRef(node.child(n).load_plain());
    }
    counts.push(nodes.leaf(cur).count.load_plain() as usize);
    counts
}

/// Get hit, get miss, put overwrite, put insert, delete, delete miss, a
/// 16-record scan, a put that splits a leaf, a put that grows the root.
fn costs<T: ConcurrentMap, const F: usize>(
    new: fn(Arc<Runtime>) -> T,
    root: fn(&T) -> NodeRef,
    nodes: fn(&T) -> Guard<'_, F>,
) -> Costs {
    let rt = Runtime::new_virtual();
    let tree = new(Arc::clone(&rt));
    let mut ctx = rt.thread(1);
    for k in 0..PRELOAD {
        tree.put(&mut ctx, 2 * k, 2 * k + 1);
    }
    let bytes = |tree: &T| tree.memory().structural_bytes;
    let before = bytes(&tree);
    let mut out = Vec::new();
    let point = [
        delta(&mut ctx, |c| assert_eq!(tree.get(c, 200), Some(201))),
        delta(&mut ctx, |c| assert_eq!(tree.get(c, 201), None)),
        delta(&mut ctx, |c| assert_eq!(tree.put(c, 200, 7), Some(201))),
        delta(&mut ctx, |c| assert_eq!(tree.put(c, 201, 7), None)),
        delta(&mut ctx, |c| assert_eq!(tree.delete(c, 200), Some(7))),
        delta(&mut ctx, |c| assert_eq!(tree.delete(c, 203), None)),
        delta(&mut ctx, |c| {
            assert_eq!(tree.scan(c, 100, 16, &mut out), 16)
        }),
    ];
    assert_eq!(bytes(&tree), before, "no point operation split a leaf");
    assert_eq!(out.first(), Some(&(100, 101)));

    let mut next = 2 * PRELOAD;
    let mut ascend_until = |ctx: &mut ThreadCtx, ready: &dyn Fn(&[usize]) -> bool| {
        while !ready(&spine::<F>(nodes(&tree), root(&tree))) {
            tree.put(ctx, next, next + 1);
            next += 2;
        }
        let key = next;
        next += 2;
        key
    };
    let key = ascend_until(&mut ctx, &|s| s[s.len() - 1] == F && s[s.len() - 2] < F);
    let (root_before, nodes_before) = (root(&tree), bytes(&tree));
    let split_leaf = delta(&mut ctx, |c| assert_eq!(tree.put(c, key, key + 1), None));
    assert_eq!(root(&tree), root_before);
    assert_eq!(bytes(&tree) - nodes_before, std::mem::size_of::<Leaf<F>>());

    let key = ascend_until(&mut ctx, &|s| s.iter().all(|&n| n == F));
    let root_before = root(&tree);
    let grow_root = delta(&mut ctx, |c| assert_eq!(tree.put(c, key, key + 1), None));
    assert_ne!(root(&tree), root_before, "the root grew");

    let [a, b, c, d, e, f, g] = point;
    [a, b, c, d, e, f, g, split_leaf, grow_root]
}

#[test]
fn htm_btree_16_costs() {
    let got = costs::<_, 16>(HtmBTree::<16>::new, HtmBTree::root_plain, HtmBTree::nodes);
    #[rustfmt::skip]
    let want = [
        (279, 16), (253, 15),   // get hit, miss
        (305, 17), (451, 35),   // put overwrite, insert
        (305, 17), (253, 15),   // delete, delete miss
        (516, 49),              // scan 16
        (665, 68), (1262, 152), // put splitting a leaf, growing the root
    ];
    assert_eq!(got, want);
}

#[test]
fn htm_btree_4_costs() {
    let got = costs::<_, 4>(HtmBTree::<4>::new, HtmBTree::root_plain, HtmBTree::nodes);
    #[rustfmt::skip]
    let want = [
        (363, 21), (360, 20),
        (389, 22), (439, 31),
        (389, 22), (357, 19),
        (788, 63),
        (547, 44), (1032, 106),
    ];
    assert_eq!(got, want);
}

/// The version subscriptions, the per-node and per-probe charges and the
/// bumps on top of `htm_btree_16_costs`' descent over the same shape.
#[test]
fn htm_masstree_costs() {
    let got = costs::<_, 16>(
        HtmMasstree::new,
        HtmMasstree::root_plain,
        HtmMasstree::nodes,
    );
    #[rustfmt::skip]
    let want = [
        (435, 38), (409, 37),
        (461, 39), (613, 59),
        (490, 41), (409, 37),
        (642, 64),
        (932, 102), (1965, 218),
    ];
    assert_eq!(got, want);
}
