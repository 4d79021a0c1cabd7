//! Subtree hints (DESIGN.md §4.4): on a leaf-hint miss `locate` starts its
//! walk at the index node this thread's last walk from the root found to
//! hold the key's 1 024-key block — and whatever has happened to that node
//! since must end in the key's leaf after at most one more walk, never in a
//! wrong one.
//!
//! (That a hinted `locate` on a tree at rest returns word for word what a
//! walk from the root does — trees of one to four levels, after merges — is
//! checked where that truth table is built: `traverse.rs`,
//! `descend_range_equals_the_full_traversal_range`.)

use std::collections::BTreeMap;
use std::sync::Arc;

use euno_core::{probe, DefaultLeaf, EunoBTreeDefault, EunoConfig, NodeRef};
use euno_htm::euno_metrics::Counter;
use euno_htm::{Backend, ConcurrentMap, CostModel, Runtime, ThreadCtx};
use euno_rng::{Rng, SmallRng};

/// Preloaded keys are multiples of this: sixteen to a subtree-hint block,
/// nine to a leaf once an ascending load has split it, so a block is two
/// leaves or parts of three, and every key is a leaf-hint block of its own
/// — a second key of the same leaf misses the first rung and lands on the
/// second.
const STEP: u64 = 64;
const BLOCK: u64 = 1024;

type Model = BTreeMap<u64, u64>;

/// Address and key range of the leaf `locate` hands over.
fn located(tree: &EunoBTreeDefault, ctx: &mut ThreadCtx, key: u64) -> (usize, u64, u64) {
    ctx.pinned(|ctx, g| {
        let at = tree.locate(ctx, g, key);
        (at.leaf as *const DefaultLeaf as usize, at.low, at.high)
    })
}

fn hits(ctx: &ThreadCtx) -> u64 {
    ctx.metric(Counter::SubtreeHintHits)
}

fn unusable(ctx: &ThreadCtx) -> u64 {
    ctx.metric(Counter::SubtreeHintUnusable)
}

/// One leaf as the preload left it.
struct LeafAt {
    /// The preloaded keys it holds, ascending.
    keys: Vec<u64>,
    /// The index node above it.
    parent: u64,
}

/// A tree preloaded in ascending order by thread B, thread A with empty
/// tables, and the leaves in chain order. (An ascending load files no
/// subtree hint — every key runs down the rightmost spine — so B's tables
/// hold none either.)
struct Fixture {
    rt: Arc<Runtime>,
    tree: Arc<EunoBTreeDefault>,
    model: Model,
    a: ThreadCtx,
    b: ThreadCtx,
    leaves: Vec<LeafAt>,
}

fn fixture(preloaded: u64) -> Fixture {
    fixture_on(Runtime::new_virtual(), preloaded)
}

fn fixture_on(rt: Arc<Runtime>, preloaded: u64) -> Fixture {
    let tree = Arc::new(EunoBTreeDefault::with_config(
        Arc::clone(&rt),
        EunoConfig {
            rebalance_delete_threshold: 0,
            ..EunoConfig::default()
        },
    ));
    let (mut a, mut b) = (rt.thread(1), rt.thread(2));
    let mut model = Model::new();
    for key in (0..preloaded).map(|i| i * STEP) {
        assert_eq!(tree.put(&mut b, key, key + 1), model.insert(key, key + 1));
    }
    assert_eq!(
        hits(&b) + unusable(&b),
        0,
        "an ascending load files nothing"
    );
    let mut leaves: Vec<(usize, LeafAt)> = Vec::new();
    for key in (0..preloaded).map(|i| i * STEP) {
        let at = located(&tree, &mut b, key).0;
        match leaves.last_mut() {
            Some((leaf, group)) if *leaf == at => group.keys.push(key),
            _ => {
                let parent = tree.pinned(|g| g.leaf(NodeRef(at as u64 | 1)).parent().load_plain());
                leaves.push((
                    at,
                    LeafAt {
                        keys: vec![key],
                        parent,
                    },
                ));
            }
        }
    }
    // The scheduler-less threads share no clock: keep A ahead of whatever
    // B commits, so A's walks are refused by the tree and not by a window.
    a.clock += 1 << 32;
    Fixture {
        rt,
        tree,
        model,
        a,
        b,
        leaves: leaves.into_iter().map(|(_, group)| group).collect(),
    }
}

impl Fixture {
    /// A's get, checked against the model; what it answered, and how the
    /// upper stage got there: `(subtree hits, unusable hints, section
    /// retries)` it added.
    fn get(&mut self, key: u64) -> (Option<u64>, (u64, u64, u64)) {
        let counts = |a: &ThreadCtx| (hits(a), unusable(a), a.stats.optimistic_retries);
        let before = counts(&self.a);
        let got = self.tree.get(&mut self.a, key);
        let after = counts(&self.a);
        (
            got,
            (after.0 - before.0, after.1 - before.1, after.2 - before.2),
        )
    }

    /// A's get must answer like the model, by the rungs named.
    fn expect(&mut self, key: u64, how: (u64, u64, u64), what: &str) {
        let (got, took) = self.get(key);
        assert_eq!(got, self.model.get(&key).copied(), "{what}: get {key}");
        assert_eq!(took, how, "{what}: get {key} (hits, unusable, retries)");
    }

    fn put(&mut self, key: u64) {
        assert_eq!(
            self.tree.put(&mut self.b, key, key + 1),
            self.model.insert(key, key + 1),
            "put {key}"
        );
    }

    fn delete(&mut self, key: u64) {
        assert_eq!(
            self.tree.delete(&mut self.b, key),
            self.model.remove(&key),
            "delete {key}"
        );
    }

    /// The index node above the leaf that covers `key` now.
    fn parent_of(&mut self, key: u64) -> u64 {
        let leaf = located(&self.tree, &mut self.b, key).0;
        let leaf = NodeRef(leaf as u64 | 1);
        self.tree.pinned(|g| g.leaf(leaf).parent().load_plain())
    }

    /// Runs of chain-adjacent leaves under one index node: `(first, len)`.
    fn siblings(&self) -> Vec<(usize, usize)> {
        let mut runs: Vec<(usize, usize)> = Vec::new();
        for (i, leaf) in self.leaves.iter().enumerate() {
            match runs.last_mut() {
                Some((first, len)) if self.leaves[*first].parent == leaf.parent => *len += 1,
                _ => runs.push((i, 1)),
            }
        }
        runs
    }

    /// The last two leaves under some mid-tree index node that is not its
    /// own parent's last child, the two being one subtree-hint block:
    /// `(second to last, last)`.
    fn block_at_the_end_of_a_node(&self) -> (usize, usize) {
        let runs = self.siblings();
        runs[1..runs.len() - 1]
            .iter()
            .map(|&(first, len)| first + len - 2)
            .find(|&l| {
                let last = self.tree.pinned(|g| {
                    let node = g.index_node(NodeRef(self.leaves[l].parent));
                    let above = g.index_node(NodeRef(node.parent.load_plain()));
                    above.children[above.count.load_plain() as usize - 1].load_plain()
                });
                self.leaves[l].keys[0].is_multiple_of(BLOCK)
                    && self.leaves[l + 1].keys[0] / BLOCK == self.leaves[l].keys[0] / BLOCK
                    && last != self.leaves[l].parent
            })
            .map(|l| (l, l + 1))
            .expect("a node whose last two leaves are one block")
    }

    fn finish(self, what: &str) {
        assert_eq!(
            self.tree.collect_all_plain(),
            self.model.into_iter().collect::<Vec<_>>(),
            "{what}"
        );
        assert_eq!(self.tree.audit_quiescent(), Vec::<String>::new(), "{what}");
    }
}

/// (ii-a) The hinted node splits, and the key's half moves to the new
/// sibling: what A's next get for a key of that half answers, and what it
/// should.
fn get_after_the_hinted_node_split(mutation: Option<&'static str>) -> (Option<u64>, Option<u64>) {
    let mut f = fixture(2_000);
    // A node in mid-tree, as the ascending load left it — nine leaves —
    // and of its leaves one that will be in the upper half once eight
    // more have split off below, with its block inside the node.
    let (first, len) = f.siblings()[3];
    assert_eq!(len, 9);
    let l = (first + 5..first + 8)
        .find(|l| f.leaves[*l].keys[0].is_multiple_of(BLOCK))
        .expect("a block that starts in the node's upper half");
    let keys = f.leaves[l].keys.clone();
    let node = f.leaves[l].parent;

    // A walks from the root and files the node; the next key of the block
    // starts there.
    f.expect(keys[0], (0, 0, 0), "first visit");
    f.expect(keys[1], (1, 0, 0), "from the node");

    // B splits the node's leaves, left to right, until the node is full
    // and splits itself.
    let index_nodes = f.tree.stats().internals;
    for leaf in first..first + len {
        let low = f.leaves[leaf].keys[0];
        for filler in low + 1..low + 11 {
            f.put(filler);
        }
        if f.tree.stats().internals > index_nodes {
            break;
        }
    }
    assert_eq!(f.tree.stats().internals, index_nodes + 1, "one node split");
    let lowest = f.leaves[first].keys[0];
    assert_eq!(f.parent_of(lowest), node, "the lower half stayed");
    assert_ne!(f.parent_of(keys[2]), node, "the key's half moved");

    probe::mutate(mutation);
    let (got, took) = f.get(keys[2]);
    probe::mutate(None);
    let want = f.model.get(&keys[2]).copied();
    if got == want {
        // Turned away, walked from the root once, filed what that found.
        assert_eq!(took, (0, 1, 0), "after the split (hits, unusable, retries)");
        f.expect(keys[3], (1, 0, 0), "from the re-filed node");
        f.finish("hinted node split");
    }
    (got, want)
}

#[test]
fn a_hinted_node_that_split_is_not_believed_about_the_half_it_lost() {
    let (got, want) = get_after_the_hinted_node_split(None);
    assert!(want.is_some());
    assert_eq!(got, want);
}

/// The same scenario with the narrowing rule switched off must go wrong, or
/// the test above proves nothing: the walk from the split node ends in the
/// last leaf it kept, which never held the key.
#[test]
#[cfg_attr(not(debug_assertions), ignore = "probes are debug-only")]
fn without_the_narrowing_rule_the_split_node_is_believed() {
    let (got, want) = get_after_the_hinted_node_split(Some("subtree:trust-unnarrowed"));
    assert!(want.is_some());
    assert_eq!(got, None, "the stale hint was followed to the wrong leaf");
}

/// (ii-b) The root grows. The hinted node *is* the old root: it keeps its
/// lower half under the new one, and serves it; the upper half it lost.
#[test]
fn the_old_root_serves_what_it_kept_when_the_root_grows() {
    let mut f = fixture(100);
    assert_eq!(f.tree.stats().depth, 1);
    let root = f.leaves[0].parent;
    let (low, high) = (f.leaves[2].keys.clone(), f.leaves[9].keys.clone());
    let one_block = |keys: &[u64]| keys[0] / BLOCK == keys[3] / BLOCK;
    assert!(one_block(&low) && one_block(&high));
    for keys in [&low, &high] {
        f.expect(keys[0], (0, 0, 0), "first visit");
        f.expect(keys[1], (1, 0, 0), "from the root");
    }

    let mut next = 100 * STEP;
    while f.tree.stats().depth == 1 {
        f.put(next);
        next += STEP;
    }
    assert_eq!(f.parent_of(low[0]), root, "the lower half stayed");
    assert_ne!(f.parent_of(high[0]), root, "the upper half moved");

    f.expect(low[2], (1, 0, 0), "from the old root");
    f.expect(high[2], (0, 1, 0), "turned away by the old root");
    f.expect(high[3], (1, 0, 0), "from the re-filed node");
    f.finish("root grew");
}

/// (ii-c) A leaf merge drops the one separator that stood above the key in
/// the hinted node: the key's leaf is now the node's last, and a walk from
/// the node can no longer tell that the key is the node's.
#[test]
fn a_merge_that_drops_the_narrowing_separator_costs_one_walk() {
    let mut f = fixture(2_000);
    let (left, right) = f.block_at_the_end_of_a_node();
    let (left, right) = (f.leaves[left].keys.clone(), f.leaves[right].keys.clone());
    f.expect(left[0], (0, 0, 0), "first visit");
    f.expect(left[1], (1, 0, 0), "from the node");

    // Thin the right leaf only: the left one stays too full for *its*
    // left neighbour to absorb it first. Its first key, which is in the
    // block, survives.
    for &key in &right[1..] {
        f.delete(key);
    }
    assert_eq!(f.tree.maintain(&mut f.b), 1);
    let survivor = right[0];
    assert_eq!(
        located(&f.tree, &mut f.b, survivor),
        located(&f.tree, &mut f.b, left[0]),
        "one leaf now"
    );

    f.expect(left[2], (0, 1, 0), "turned away: the last leaf");
    f.expect(survivor, (1, 0, 0), "from the node above");
    f.expect(left[3], (1, 0, 0), "from the node above");
    f.finish("merge dropped the separator");
}

/// (ii-d) Nothing changes, but the second key of the block lies in the
/// hinted node's rightmost leaf: no separator under the node is above it.
#[test]
fn a_key_in_the_subtrees_rightmost_leaf_costs_one_walk_once() {
    let mut f = fixture(2_000);
    let (left, right) = f.block_at_the_end_of_a_node();
    let (left, right) = (f.leaves[left].keys.clone(), f.leaves[right].keys.clone());
    f.expect(left[0], (0, 0, 0), "first visit");
    f.expect(right[0], (0, 1, 0), "turned away: the last leaf");
    // That walk filed the node above, which holds the block too and has a
    // separator above all of it.
    f.expect(right[1], (1, 0, 0), "from the node above");
    f.expect(left[1], (1, 0, 0), "from the node above");
    f.finish("rightmost leaf");
}

/// (ii-e) A hint the walk turns away is this thread's table coming up
/// short, not a writer's doing: the walk goes on from the root in the same
/// section. No retry is counted and no back-off charged — the get costs
/// the same whatever a back-off costs (`locate_cost.rs` has the cycles).
#[test]
fn a_turned_away_hint_is_not_charged_as_contention() {
    let cycles = [40, 4_000].map(|backoff_base| {
        let cost = CostModel {
            backoff_base,
            ..CostModel::default()
        };
        let mut f = fixture_on(Runtime::new(Backend::Virtual, cost), 2_000);
        let (left, right) = f.block_at_the_end_of_a_node();
        let (left, right) = (f.leaves[left].keys[0], f.leaves[right].keys[0]);
        f.expect(left, (0, 0, 0), "first visit");
        let start = f.a.clock;
        let (got, took) = f.get(right);
        assert_eq!(got, f.model.get(&right).copied());
        let cycles = f.a.clock - start;
        f.finish("turned away");
        (cycles, took)
    });
    assert_eq!(cycles[0].0, cycles[1].0, "a back-off was charged");
    for (_, took) in cycles {
        assert_eq!(took, (0, 1, 0), "turned away (hits, unusable, retries)");
    }
}

/// (ii-f) …and spends no try of the walk's budget: on STM threads, a hint
/// turned away and then three writes that each fail a section leave the
/// fourth section to answer — no HTM region. (A commit anywhere fails an
/// STM section: the check is the global clock.)
#[test]
#[cfg_attr(not(debug_assertions), ignore = "probes are debug-only")]
fn a_turned_away_hint_spends_no_try_of_the_walks_budget() {
    /// `LOCATE_TRIES` in `traverse.rs`, less the one that must hold.
    const FAILED_SECTIONS: u64 = 3;
    let mut f = fixture_on(Runtime::new_concurrent(), 2_000);
    let (left, right) = f.block_at_the_end_of_a_node();
    let (left, right) = (f.leaves[left].keys[0], f.leaves[right].keys[0]);
    f.expect(left, (0, 0, 0), "first visit");

    fn overwrite_at_each_pass(rt: Arc<Runtime>, tree: Arc<EunoBTreeDefault>, key: u64, left: u64) {
        probe::once_at("walk:seqno", move || {
            tree.put(&mut rt.thread(3), key, left);
            if left > 1 {
                overwrite_at_each_pass(rt, tree, key, left - 1);
            }
        });
    }
    overwrite_at_each_pass(
        Arc::clone(&f.rt),
        Arc::clone(&f.tree),
        right,
        FAILED_SECTIONS,
    );
    f.model.insert(right, 1);
    let attempts = f.a.metric(Counter::Attempts);
    let (got, took) = f.get(right);
    assert_eq!(
        f.a.metric(Counter::Attempts),
        attempts,
        "the HTM region ran"
    );
    assert_eq!(got, Some(1));
    assert_eq!(took, (0, 1, FAILED_SECTIONS), "(hits, unusable, retries)");
    f.finish("turned away under writes");
}

/// (iii) An ascending load — every key runs down the rightmost spine, where
/// no separator lies above it — files no hint that comes back unusable;
/// reads of what it loaded then file and use them.
#[test]
fn an_ascending_load_files_no_unusable_hint() {
    const KEYS: u64 = 50_000;
    let rt = Runtime::new_virtual();
    let tree = EunoBTreeDefault::new(Arc::clone(&rt));
    let mut ctx = rt.thread(1);
    for key in 0..KEYS {
        tree.put(&mut ctx, key, key);
    }
    let walks = KEYS - ctx.metric(Counter::LeafHintHits);
    assert!(
        100 * unusable(&ctx) <= walks,
        "{} of {walks} walks came back from an unusable hint",
        unusable(&ctx)
    );

    let mut rng = SmallRng::seed_from_u64(0x5EED);
    for _ in 0..KEYS {
        let key = rng.gen_range(0..KEYS);
        assert_eq!(tree.get(&mut ctx, key), Some(key));
    }
    let walks = 2 * KEYS - ctx.metric(Counter::LeafHintHits);
    assert!(2 * hits(&ctx) > KEYS / 2, "{} subtree hits", hits(&ctx));
    assert!(100 * unusable(&ctx) <= walks, "{} unusable", unusable(&ctx));
}

/// (iv) Two trees, one thread, the same keys: the table is shared, the
/// entries are not — also not with a tree that has been dropped and whose
/// nodes' addresses a new one may have been given.
#[test]
fn no_tree_is_served_another_trees_node() {
    const KEYS: u64 = 2_000;
    let rt = Runtime::new_virtual();
    let mut ctx = rt.thread(1);
    let build = |ctx: &mut ThreadCtx, tag: u64| {
        let tree = EunoBTreeDefault::new(Arc::clone(&rt));
        for key in (0..KEYS).map(|i| i * STEP) {
            tree.put(ctx, key, key << 8 | tag);
        }
        tree
    };
    let owns = |tree: &EunoBTreeDefault, ctx: &mut ThreadCtx, key: u64| {
        let leaf = located(tree, ctx, key).0;
        tree.leaf_seqnos_plain().iter().any(|&(at, _)| at == leaf)
    };
    let (one, two) = (build(&mut ctx, 1), build(&mut ctx, 2));
    for round in 0..3 {
        let before = hits(&ctx);
        for key in (0..KEYS).map(|i| i * STEP) {
            assert_eq!(one.get(&mut ctx, key), Some(key << 8 | 1));
            assert_eq!(two.get(&mut ctx, key), Some(key << 8 | 2));
            if key % (16 * STEP) == 0 {
                assert!(owns(&one, &mut ctx, key) && owns(&two, &mut ctx, key));
            }
        }
        // 4 000 leaves' worth of leaf hints do not fit the first table;
        // both trees' 125 blocks fit the second side by side (the same
        // block of two owners never shares a slot).
        if round > 0 {
            assert!(
                hits(&ctx) - before > KEYS,
                "round {round}: {} subtree hits",
                hits(&ctx) - before
            );
        }
    }

    drop(one);
    let three = build(&mut ctx, 3);
    for key in (0..KEYS).map(|i| i * STEP) {
        assert_eq!(three.get(&mut ctx, key), Some(key << 8 | 3));
        assert_eq!(two.get(&mut ctx, key), Some(key << 8 | 2));
        if key % (16 * STEP) == 0 {
            assert!(owns(&three, &mut ctx, key) && owns(&two, &mut ctx, key));
        }
    }
    assert_eq!(three.audit_quiescent(), Vec::<String>::new());
    assert_eq!(two.audit_quiescent(), Vec::<String>::new());
}

/// (v) `paper()` has no second rung any more than a first: nothing probed,
/// nothing filed, and so nothing of this file can move its figures.
#[test]
fn the_papers_tree_probes_and_files_nothing() {
    let rt = Runtime::new_virtual();
    let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), EunoConfig::paper());
    let mut ctx = rt.thread(1);
    let mut rng = SmallRng::seed_from_u64(0xFACE);
    let mut model = Model::new();
    for _ in 0..20_000 {
        let key = rng.gen_range(0..4_000u64) * STEP;
        match rng.gen_range(0..3u32) {
            0 => assert_eq!(tree.get(&mut ctx, key), model.get(&key).copied()),
            1 => assert_eq!(tree.put(&mut ctx, key, key), model.insert(key, key)),
            _ => assert_eq!(tree.delete(&mut ctx, key), model.remove(&key)),
        }
    }
    assert!(
        tree.stats().depth >= 2,
        "deep enough to have had something to file"
    );
    for counter in [
        Counter::LeafHintHits,
        Counter::LeafHintStale,
        Counter::SubtreeHintHits,
        Counter::SubtreeHintUnusable,
    ] {
        assert_eq!(ctx.metric(counter), 0, "{}", counter.name());
    }
}
