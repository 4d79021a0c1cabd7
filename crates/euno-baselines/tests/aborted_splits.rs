//! A split attempt that aborts must hand back the nodes it allocated:
//! after sixteen logical threads have raced ascending puts into the
//! rightmost leaf — where every attempt that loses has usually got as far
//! as its split — `memory()` accounts for exactly the nodes a plain walk
//! reaches. (The HTM baselines leaked every one until the split phase
//! they share with Euno-B+Tree carried its unpublished-node list to them:
//! 135 716 nodes allocated against 13 497 reachable for `HtmBTree` on
//! this load. `Masstree` allocates under locks and never abandons a
//! node.)

use std::sync::Arc;

use euno_baselines::{Guard, HtmBTree, HtmMasstree, Leaf, Masstree};
use euno_htm::{ConcurrentMap, IndexNode, NodeRef, Runtime, ThreadCtx};

const THREADS: u64 = 16;
const PUTS_PER_THREAD: u64 = 6_000;

/// Interleave the threads as `euno-sim`'s scheduler does — always advance
/// the one with the smallest virtual clock — each putting its share of
/// one ascending key sequence. Returns the aborts the run met.
fn race_ascending_puts(rt: &Arc<Runtime>, tree: &dyn ConcurrentMap) -> u64 {
    let mut ctxs: Vec<ThreadCtx> = (1..=THREADS).map(|i| rt.thread(i)).collect();
    let mut done = vec![0u64; ctxs.len()];
    for _ in 0..THREADS * PUTS_PER_THREAD {
        let t = (0..ctxs.len())
            .filter(|&t| done[t] < PUTS_PER_THREAD)
            .min_by_key(|&t| (ctxs[t].clock, t))
            .expect("puts left");
        let key = done[t] * THREADS + t as u64;
        assert_eq!(tree.put(&mut ctxs[t], key, key + 1), None);
        done[t] += 1;
    }
    let mut ctx = rt.thread(99);
    for key in 0..THREADS * PUTS_PER_THREAD {
        assert_eq!(tree.get(&mut ctx, key), Some(key + 1), "key {key}");
    }
    ctxs.iter().map(|c| c.stats.aborts.total()).sum()
}

/// Nodes of a quiescent tree reachable from `root` by a plain walk, index
/// nodes and leaves alike — what `memory()` must account for, no more.
fn reachable_nodes(nodes: Guard<16>, root: NodeRef) -> usize {
    if root.is_leaf() {
        return 1;
    }
    let node = nodes.index_node(root);
    let children = node.count.load_plain() as usize + 1;
    1 + (0..children)
        .map(|i| reachable_nodes(nodes, NodeRef(node.child(i).load_plain())))
        .sum::<usize>()
}

/// Every baseline node is one header line and sixteen pairs of cells.
const NODE_BYTES: usize = 320;

#[test]
fn every_baseline_node_is_320_bytes() {
    assert_eq!(std::mem::size_of::<Leaf<16>>(), NODE_BYTES);
    assert_eq!(std::mem::size_of::<IndexNode<16>>(), NODE_BYTES);
}

#[test]
fn htm_btree_accounts_for_reachable_nodes_only() {
    let rt = Runtime::new_virtual();
    let tree = HtmBTree::<16>::new(Arc::clone(&rt));
    let aborts = race_ascending_puts(&rt, &tree);
    assert!(aborts > 10_000, "the load met {aborts} aborts");
    assert_eq!(
        tree.memory().structural_bytes,
        reachable_nodes(tree.nodes(), tree.root_plain()) * NODE_BYTES
    );
}

#[test]
fn htm_masstree_accounts_for_reachable_nodes_only() {
    let rt = Runtime::new_virtual();
    let tree = HtmMasstree::new(Arc::clone(&rt));
    let aborts = race_ascending_puts(&rt, &tree);
    assert!(aborts > 10_000, "the load met {aborts} aborts");
    assert_eq!(
        tree.memory().structural_bytes,
        reachable_nodes(tree.nodes(), tree.root_plain()) * NODE_BYTES
    );
}

#[test]
fn masstree_accounts_for_reachable_nodes_only() {
    let rt = Runtime::new_virtual();
    let tree = Masstree::new(Arc::clone(&rt));
    race_ascending_puts(&rt, &tree);
    assert_eq!(
        tree.memory().structural_bytes,
        reachable_nodes(tree.nodes(), tree.root_plain()) * NODE_BYTES
    );
}
