//! The shared B+tree kernels (`euno_htm::bptree`) against `Vec` models,
//! over an accessor that counts: what each kernel returns, and exactly how
//! many loads and stores it makes. The virtual clock charges per
//! instrumented access, so these counts are what hold `locate_cost.rs`'s
//! equalities, the golden digest and every recorded baseline row where
//! they are — a kernel that reads one cell more moves all of them.
//! Cases come from seeded `euno-rng` streams, as in `prop_engine.rs`.

use std::convert::Infallible;

use euno_htm::bptree::{
    insert_at, lower_bound, promote, sorted_insert, upper_bound, Access, Propagate,
};
use euno_htm::{Guard, IndexNode, NodeArenas, NodeRef, TxCell};
use euno_rng::SmallRng;

/// Plain loads and stores, counted.
#[derive(Default)]
struct Counting {
    loads: usize,
    stores: usize,
}

impl Access for Counting {
    type Error = Infallible;
    fn load(&mut self, cell: &TxCell) -> Result<u64, Infallible> {
        self.loads += 1;
        Ok(cell.load_plain())
    }
    fn store(&mut self, cell: &TxCell, v: u64) -> Result<(), Infallible> {
        self.stores += 1;
        cell.store_plain(v);
        Ok(())
    }
}

fn cells(n: usize) -> Vec<TxCell> {
    (0..n).map(|_| TxCell::new(u64::MAX)).collect()
}

fn values(cells: &[TxCell], n: usize) -> Vec<u64> {
    cells[..n].iter().map(|c| c.load_plain()).collect()
}

/// `n` distinct sorted keys.
fn sorted_keys(rng: &mut SmallRng, n: usize) -> Vec<u64> {
    let mut keys = std::collections::BTreeSet::new();
    while keys.len() < n {
        keys.insert(rng.gen_range(0..1_000u64));
    }
    keys.into_iter().collect()
}

/// The slots a bisect of `[lo, hi)` reads when `goes_right(slot)` says
/// which half the answer is in: the reference the kernels' probes are
/// held to.
fn bisect_probes(lo: usize, hi: usize, goes_right: &dyn Fn(usize) -> bool, out: &mut Vec<usize>) {
    if lo < hi {
        let mid = lo + (hi - lo) / 2;
        out.push(mid);
        if goes_right(mid) {
            bisect_probes(mid + 1, hi, goes_right, out);
        } else {
            bisect_probes(lo, mid, goes_right, out);
        }
    }
}

#[test]
fn searches_return_the_models_bound_in_exactly_a_bisects_probes() {
    let mut rng = SmallRng::seed_from_u64(0xb15ec7);
    for count in 0..=16usize {
        for _ in 0..24 {
            let keys = sorted_keys(&mut rng, count);
            // Every stored key, its neighbours, and both ends.
            let mut wanted: Vec<u64> = keys
                .iter()
                .flat_map(|&k| [k.saturating_sub(1), k, k + 1])
                .collect();
            wanted.extend([0, 1_001]);
            for key in wanted {
                let mut probed = Vec::new();
                let Ok(upper) = upper_bound(count, key, |i| {
                    probed.push(i);
                    Ok::<_, Infallible>(keys[i])
                });
                assert_eq!(upper, keys.partition_point(|&k| k <= key), "{keys:?} {key}");
                let mut reference = Vec::new();
                bisect_probes(0, count, &|i| keys[i] <= key, &mut reference);
                assert_eq!(probed, reference, "upper bound of {key} in {keys:?}");

                let mut probed = Vec::new();
                let Ok(lower) = lower_bound(count, key, |i| {
                    probed.push(i);
                    Ok::<_, Infallible>(keys[i])
                });
                assert_eq!(lower, keys.partition_point(|&k| k < key), "{keys:?} {key}");
                let mut reference = Vec::new();
                bisect_probes(0, count, &|i| keys[i] < key, &mut reference);
                assert_eq!(probed, reference, "lower bound of {key} in {keys:?}");
                // ⌊log₂ n⌋ or one more, never a probe outside the keys.
                let floor_log2 = (count + 1).ilog2() as usize;
                assert!((floor_log2..=floor_log2 + 1).contains(&probed.len()));
                assert!(probed.iter().all(|&i| i < count));
            }
        }
    }
}

/// A probe's error ends the search there.
#[test]
fn a_failed_probe_ends_the_search() {
    let mut probes = 0;
    let out = lower_bound(16, 5, |_| {
        probes += 1;
        Err::<u64, &str>("aborted")
    });
    assert_eq!((out, probes), (Err("aborted"), 1));
}

#[test]
fn insert_at_p_of_n_makes_2_n_minus_p_loads_and_3_more_stores() {
    let mut rng = SmallRng::seed_from_u64(0x1d5e27);
    for n in 0..16usize {
        for p in 0..=n {
            let mut model_keys = sorted_keys(&mut rng, n);
            let mut model_vals: Vec<u64> = model_keys.iter().map(|k| k * 10).collect();
            let (keys, vals, count) = (cells(16), cells(16), TxCell::new(n as u64));
            for i in 0..n {
                keys[i].store_plain(model_keys[i]);
                vals[i].store_plain(model_vals[i]);
            }
            let mut a = Counting::default();
            let Ok(()) = insert_at(&mut a, &count, &keys, &vals, n, p, 7_777, 8_888);
            model_keys.insert(p, 7_777);
            model_vals.insert(p, 8_888);
            assert_eq!(values(&keys, n + 1), model_keys, "{p} of {n}");
            assert_eq!(values(&vals, n + 1), model_vals, "{p} of {n}");
            assert_eq!(count.load_plain(), n as u64 + 1);
            assert_eq!((a.loads, a.stores), (2 * (n - p), 2 * (n - p) + 3));
        }
    }
}

#[test]
fn sorted_insert_keeps_both_arrays_in_key_order() {
    let mut rng = SmallRng::seed_from_u64(0x50a7ed);
    for _ in 0..64 {
        let (keys, vals, count) = (cells(16), cells(16), TxCell::new(0));
        let mut model = std::collections::BTreeMap::new();
        while model.len() < 16 {
            let key = rng.gen_range(0..1_000u64);
            if model.contains_key(&key) {
                continue;
            }
            let n = model.len();
            let p = model.range(..key).count();
            let mut a = Counting::default();
            let Ok(()) = sorted_insert(&mut a, &count, &keys, &vals, n, key, key + 1);
            model.insert(key, key + 1);
            assert_eq!(
                values(&keys, n + 1),
                model.keys().copied().collect::<Vec<_>>()
            );
            assert_eq!(
                values(&vals, n + 1),
                model.values().copied().collect::<Vec<_>>()
            );
            // The search's probes, then the shift.
            let mut probes = Vec::new();
            let before: Vec<u64> = model.keys().copied().filter(|&k| k != key).collect();
            bisect_probes(0, n, &|i| before[i] < key, &mut probes);
            assert_eq!(a.loads, probes.len() + 2 * (n - p));
            assert_eq!(a.stores, 2 * (n - p) + 3);
        }
    }
}

/// A full node of fanout `F`: separators `10, 20, …`, children `c(0)` (the
/// leftmost) to `c(F)`, as leaf-tagged words.
fn full_node<const F: usize>() -> IndexNode<F> {
    let node = IndexNode::empty();
    node.count.store_plain(F as u64);
    node.child0.store_plain(c(0));
    for i in 0..F {
        node.keys[i].store_plain(10 * (i as u64 + 1));
        node.children[i].store_plain(c(i + 1));
    }
    node
}

fn c(i: usize) -> u64 {
    (i as u64) << 8 | 1
}

fn split_of_a_full_node<const F: usize>() {
    let (node, new) = (full_node::<F>(), IndexNode::<F>::empty());
    let (mut a, mut moved) = (Counting::default(), Vec::new());
    let Ok(promoted) = node.split_into(&mut a, &new, |_, child| {
        moved.push(child.0);
        Ok(())
    });
    let mid = F / 2;
    assert_eq!(promoted, 10 * (mid as u64 + 1), "keys[F/2] goes up");
    // The lower half stays, the upper half — less the promoted separator —
    // is in the new node, and both are sorted runs of the old one.
    assert_eq!(
        (node.count.load_plain(), new.count.load_plain()),
        (mid as u64, (F - mid - 1) as u64)
    );
    let want: Vec<u64> = (1..=F as u64).map(|i| 10 * i).collect();
    assert_eq!(values(&node.keys, mid), want[..mid]);
    assert_eq!(values(&new.keys, F - mid - 1), want[mid + 1..]);
    assert_eq!(node.child0.load_plain(), c(0));
    assert_eq!(
        values(&node.children, mid),
        (1..=mid).map(c).collect::<Vec<_>>()
    );
    assert_eq!(new.child0.load_plain(), c(mid + 1));
    let right_children: Vec<u64> = (mid + 2..=F).map(c).collect();
    assert_eq!(values(&new.children, F - mid - 1), right_children);
    // The hook hears of every child that changed nodes, the middle one's
    // first: F/2 of them.
    assert_eq!(moved, (mid + 1..=F).map(c).collect::<Vec<_>>());
    assert_eq!(moved.len(), F / 2);
    let pairs = F - mid - 1;
    assert_eq!((a.loads, a.stores), (2 + 2 * pairs, 1 + 2 * pairs + 2));
}

#[test]
fn an_index_split_promotes_the_middle_key_and_reports_every_moved_child() {
    split_of_a_full_node::<4>();
    split_of_a_full_node::<8>();
    split_of_a_full_node::<16>();
}

/// The hooks of a tree without parent pointers or locks: a path stack.
struct PathStack<'t, const F: usize> {
    nodes: &'t NodeArenas<u64, F>,
    root: &'t TxCell,
    path: Vec<&'t IndexNode<F>>,
    grown: usize,
    splits: usize,
}

impl<'t, const F: usize> Propagate<'t, Counting, F> for PathStack<'t, F> {
    fn parent_of(
        &mut self,
        _: &mut Counting,
        _: NodeRef,
    ) -> Result<Option<&'t IndexNode<F>>, Infallible> {
        Ok(self.path.pop())
    }
    fn new_index(&mut self, _: &mut Counting) -> &'t IndexNode<F> {
        self.nodes.internals.alloc(IndexNode::empty())
    }
    fn split(
        &mut self,
        _: &mut Counting,
        _: &'t IndexNode<F>,
        _: &'t IndexNode<F>,
    ) -> Result<(), Infallible> {
        self.splits += 1;
        Ok(())
    }
    fn grow_root(
        &mut self,
        a: &mut Counting,
        child: NodeRef,
        sep: u64,
        right: NodeRef,
    ) -> Result<(), Infallible> {
        self.grown += 1;
        let root = self.new_index(a);
        root.init_root(a, child, sep, right)?;
        a.store(self.root, NodeRef::of_index(root).0)
    }
}

/// In-order walk: every separator, and the depth of every leaf word.
fn walk<const F: usize>(
    g: Guard<u64, F>,
    node: NodeRef,
    depth: usize,
    seps: &mut Vec<u64>,
    leaves: &mut Vec<usize>,
) {
    if node.is_leaf() {
        leaves.push(depth);
        return;
    }
    let index = g.index_node(node);
    let n = index.count.load_plain() as usize;
    assert!((1..=F).contains(&n), "index node of {n} separators");
    for i in 0..=n {
        walk::<F>(
            g,
            NodeRef(index.child(i).load_plain()),
            depth + 1,
            seps,
            leaves,
        );
        if i < n {
            seps.push(index.keys[i].load_plain());
        }
    }
}

/// Leaves are words only; every step pretends the leaf under a fresh
/// separator has split and lets `promote` carry the separator up a path
/// found by `upper_bound`. The tree must stay a B+tree over exactly the
/// model's separators, and grow a level exactly when every node on the
/// path was full.
fn promote_against_a_model<const F: usize>(seed: u64, steps: usize) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let nodes: NodeArenas<u64, F> = NodeArenas::default();
    let g = nodes.until_drop();
    let root = TxCell::new(c(0));
    let mut model = std::collections::BTreeSet::new();
    let (mut grown_total, mut depth) = (0, 0);
    for step in 1..=steps {
        let sep = loop {
            let sep = rng.gen_range(0..1u64 << 40);
            if model.insert(sep) {
                break sep;
            }
        };
        let (mut path, mut cur) = (Vec::new(), NodeRef(root.load_plain()));
        while !cur.is_leaf() {
            let node = g.index_node(cur);
            path.push(node);
            let n = node.count.load_plain() as usize;
            let Ok(taken) = upper_bound(n, sep, |i| Ok::<_, Infallible>(node.keys[i].load_plain()));
            cur = NodeRef(node.child(taken).load_plain());
        }
        let full_all_the_way = path.iter().all(|n| n.count.load_plain() as usize == F);
        let full_levels = path
            .iter()
            .rev()
            .take_while(|n| n.count.load_plain() as usize == F)
            .count();
        let mut sync = PathStack {
            nodes: &nodes,
            root: &root,
            path,
            grown: 0,
            splits: 0,
        };
        let Ok(()) = promote(
            &mut Counting::default(),
            &mut sync,
            cur,
            sep,
            NodeRef(c(step)),
        );
        assert_eq!(sync.grown, usize::from(full_all_the_way), "step {step}");
        assert_eq!(sync.splits, full_levels, "step {step}");
        grown_total += sync.grown;

        let (mut seps, mut leaves) = (Vec::new(), Vec::new());
        walk::<F>(g, NodeRef(root.load_plain()), 0, &mut seps, &mut leaves);
        assert_eq!(
            seps,
            model.iter().copied().collect::<Vec<_>>(),
            "step {step}"
        );
        assert_eq!(
            leaves.len(),
            step + 1,
            "one leaf word a separator, and the first"
        );
        depth = leaves[0];
        assert!(leaves.iter().all(|&d| d == depth), "leaves at one depth");
    }
    assert_eq!(grown_total, depth, "a level a root growth");
    assert!(depth >= 3, "the run split index nodes above index nodes");
}

#[test]
fn promote_grows_the_root_exactly_when_the_path_runs_out() {
    promote_against_a_model::<4>(0x9a7b_57ac, 600);
    promote_against_a_model::<16>(0x9a7b_57ad, 6_000);
}
