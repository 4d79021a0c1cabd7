//! Leaf hints (DESIGN.md §4.4): `locate` hands a thread back the pair its
//! own last walk found — and every way that pair can have gone bad since
//! must end in a fresh walk, never in a wrong leaf.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::Arc;

use euno_core::{probe, DefaultLeaf, EunoBTreeDefault, EunoConfig, NodeRef};
use euno_htm::euno_metrics::Counter;
use euno_htm::{ConcurrentMap, Runtime, ThreadCtx};
use euno_rng::{Rng, SmallRng};
use euno_sim::VirtualScheduler;

/// Preloaded keys are multiples of this, so every leaf has room for
/// filler keys between its records.
const STEP: u64 = 16;
const PRELOADED: u64 = 240;

type Model = BTreeMap<u64, u64>;

/// Address, `seqno` and key range of the leaf `locate` hands over.
fn located(tree: &EunoBTreeDefault, ctx: &mut ThreadCtx, key: u64) -> (usize, u64, u64, u64) {
    ctx.pinned(|ctx, g| {
        let at = tree.locate(ctx, g, key);
        let leaf = at.leaf as *const DefaultLeaf as usize;
        (leaf, at.seqno, at.low, at.high)
    })
}

/// `seqno` of the chained leaf at `addr`, if one lives there.
fn chained_seqno(tree: &EunoBTreeDefault, addr: usize) -> Option<u64> {
    let chain = tree.leaf_seqnos_plain();
    chain.iter().find(|&&(at, _)| at == addr).map(|&(_, s)| s)
}

fn hits(ctx: &ThreadCtx) -> u64 {
    ctx.metric(Counter::LeafHintHits)
}

fn stale(ctx: &ThreadCtx) -> u64 {
    ctx.metric(Counter::LeafHintStale)
}

fn put(tree: &EunoBTreeDefault, ctx: &mut ThreadCtx, model: &mut Model, key: u64, value: u64) {
    assert_eq!(
        tree.put(ctx, key, value),
        model.insert(key, value),
        "put {key}"
    );
}

fn delete(tree: &EunoBTreeDefault, ctx: &mut ThreadCtx, model: &mut Model, key: u64) {
    assert_eq!(tree.delete(ctx, key), model.remove(&key), "delete {key}");
}

/// A preloaded tree, two threads, and two adjacent mid-chain leaves that
/// share a parent (so the right one can be merged into the left one).
struct Fixture {
    rt: Arc<Runtime>,
    tree: EunoBTreeDefault,
    model: Model,
    a: ThreadCtx,
    b: ThreadCtx,
    /// Preloaded keys of the left and the right leaf of the pair.
    left: Vec<u64>,
    right: Vec<u64>,
}

fn fixture() -> Fixture {
    let rt = Runtime::new_virtual();
    let tree = EunoBTreeDefault::with_config(
        Arc::clone(&rt),
        EunoConfig {
            rebalance_delete_threshold: 0,
            ..EunoConfig::default()
        },
    );
    let (mut a, b) = (rt.thread(1), rt.thread(2));
    let mut model = Model::new();
    for key in (0..PRELOADED).map(|i| i * STEP) {
        put(&tree, &mut a, &mut model, key, key + 1);
    }
    // Preloaded keys grouped by leaf, in chain order.
    let mut groups: Vec<(usize, Vec<u64>)> = Vec::new();
    for key in (0..PRELOADED).map(|i| i * STEP) {
        let at = located(&tree, &mut a, key).0;
        match groups.last_mut() {
            Some((leaf, keys)) if *leaf == at => keys.push(key),
            _ => groups.push((at, vec![key])),
        }
    }
    // The right leaf must have a separator of its own in the shared
    // parent, i.e. not be a first child.
    let g = (groups.len() / 2..groups.len() - 1)
        .find(|&g| {
            let leaf = NodeRef(groups[g].0 as u64 | 1);
            tree.pinned(|nodes| {
                let parent = nodes.index_node(NodeRef(nodes.leaf(leaf).parent().load_plain()));
                parent.child0.load_plain() != leaf.0
            })
        })
        .expect("a leaf that is not a first child");
    let (left, right) = (groups[g - 1].1.clone(), groups[g].1.clone());
    // The scheduler-less threads share no clock: keep A ahead of whatever
    // B commits, so A's walks are refused by the tree and not by a window.
    a.clock += 1 << 32;
    Fixture {
        rt,
        tree,
        model,
        a,
        b,
        left,
        right,
    }
}

#[derive(Clone, Copy, Debug)]
enum Cause {
    Split,
    Reorg,
    /// The hinted leaf absorbs its right sibling: its range grows.
    MergeSurvivor,
    /// The hinted leaf is merged into its left sibling, retired and freed.
    MergeRetired,
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Get,
    Put,
    Delete,
    Scan,
}

/// (a) A holds hints for every key of a leaf; B changes the leaf under
/// them; A's next operations on the old range answer like the model, and
/// the hints were turned away rather than followed.
fn stale_hint_is_turned_away(cause: Cause, op: Op) {
    let what = format!("{cause:?} {op:?}");
    let Fixture {
        rt,
        tree,
        mut model,
        mut a,
        mut b,
        left,
        right,
    } = fixture();
    let hinted = match cause {
        Cause::MergeSurvivor => left.clone(),
        _ => right.clone(),
    };
    let (leaf0, seqno0, low0, high0) = located(&tree, &mut a, hinted[0]);

    // A learns the leaf, block by block, and is then served from its table.
    for &key in &hinted {
        assert_eq!(tree.get(&mut a, key), model.get(&key).copied(), "{what}");
    }
    let warm = hits(&a);
    for &key in &hinted {
        assert_eq!(located(&tree, &mut a, key), (leaf0, seqno0, low0, high0));
    }
    assert_eq!(hits(&a) - warm, hinted.len() as u64, "{what}: all hits");

    let top = *hinted.last().unwrap();
    let mut fillers = (hinted[0] + 1..top).filter(|k| k % STEP != 0);
    match cause {
        Cause::Split => {
            // (Uneven segments may reorganize the leaf first; go on until
            // its top key has moved to a new sibling.)
            while located(&tree, &mut b, top).0 == leaf0 {
                let key = fillers.next().expect("leaf never split");
                put(&tree, &mut b, &mut model, key, key + 1);
            }
        }
        Cause::Reorg => {
            let leaves = tree.leaf_count_plain();
            for &key in &hinted[..hinted.len() - 1] {
                delete(&tree, &mut b, &mut model, key);
            }
            while chained_seqno(&tree, leaf0) == Some(seqno0) {
                let key = fillers.next().expect("leaf never reorganized");
                put(&tree, &mut b, &mut model, key, key + 1);
                delete(&tree, &mut b, &mut model, key);
            }
            assert_eq!(tree.leaf_count_plain(), leaves, "{what}: no split");
        }
        Cause::MergeSurvivor | Cause::MergeRetired => {
            // Thin the right leaf only: the left one stays too full for
            // *its* left neighbour to absorb it first.
            for &key in &right[..right.len() - 1] {
                delete(&tree, &mut b, &mut model, key);
            }
            assert_eq!(tree.maintain(&mut b), 1, "{what}");
            // Nobody is pinned: the merged-away leaf is really freed.
            for _ in 0..4 {
                rt.epoch().collect();
            }
            assert!(tree.memory().reclaimed_bytes > 0, "{what}");
            let survivor = located(&tree, &mut b, left[0]);
            assert_eq!(located(&tree, &mut b, right[0]), survivor, "{what}");
            match cause {
                Cause::MergeSurvivor => assert_eq!(survivor.0, leaf0, "{what}"),
                _ => assert_eq!(chained_seqno(&tree, leaf0), None, "{what}"),
            }
        }
    }

    let turned_away = stale(&a);
    let old_range: Vec<u64> = (hinted[0]..=top).step_by(STEP as usize / 2).collect();
    for &key in &old_range {
        match op {
            Op::Get => assert_eq!(tree.get(&mut a, key), model.get(&key).copied(), "{what}"),
            Op::Put => put(&tree, &mut a, &mut model, key, key + 7),
            Op::Delete => delete(&tree, &mut a, &mut model, key),
            Op::Scan => {
                let mut got = Vec::new();
                tree.scan(&mut a, key, 24, &mut got);
                let want: Vec<_> = model.range(key..).take(24).map(|(&k, &v)| (k, v)).collect();
                assert_eq!(got, want, "{what}: scan from {key}");
            }
        }
    }
    assert!(stale(&a) > turned_away, "{what}: no hint was turned away");
    assert_eq!(
        tree.collect_all_plain(),
        model.into_iter().collect::<Vec<_>>(),
        "{what}"
    );
    assert_eq!(tree.audit_quiescent(), Vec::<String>::new(), "{what}");
}

#[test]
fn a_hint_whose_leaf_split_reorganized_or_merged_is_turned_away() {
    for cause in [
        Cause::Split,
        Cause::Reorg,
        Cause::MergeSurvivor,
        Cause::MergeRetired,
    ] {
        for op in [Op::Get, Op::Put, Op::Delete, Op::Scan] {
            stale_hint_is_turned_away(cause, op);
        }
    }
}

/// (b) The ABA the retirement generation exists for. A hints every leaf of
/// a tree; most of them are merged away and freed, and splits elsewhere in
/// the keyspace are handed their addresses — for leaves that cover *other*
/// keys and, having split once like the dead ones had, read the same
/// `seqno`. Returns, for every key A holds such a hint for, what A's get
/// answers and what it should (empty if the allocator re-issued nothing:
/// it owes us no address, and then there is nothing to test).
fn gets_after_address_reuse() -> Vec<(Option<u64>, Option<u64>)> {
    const KEYS: u64 = 1_600;
    let rt = Runtime::new_virtual();
    let tree = EunoBTreeDefault::with_config(
        Arc::clone(&rt),
        EunoConfig {
            rebalance_delete_threshold: 0,
            ..EunoConfig::default()
        },
    );
    let (mut a, mut b) = (rt.thread(1), rt.thread(2));
    let mut model = Model::new();
    for key in 0..KEYS {
        put(&tree, &mut b, &mut model, key, key + 1);
    }
    // A learns every leaf: one survivor key each, and where it lived.
    let survivors: Vec<u64> = (0..KEYS).filter(|k| k % 8 == 3).collect();
    let was: Vec<_> = survivors
        .iter()
        .map(|&key| located(&tree, &mut a, key))
        .collect();
    let before = hits(&a);
    for &key in &survivors {
        assert_eq!(tree.get(&mut a, key), Some(key + 1));
    }
    assert_eq!(
        hits(&a) - before,
        survivors.len() as u64,
        "A holds the hints"
    );

    // The leaves go: thinned to one record, merged a dozen at a time,
    // retired, and — two collections with nobody pinned — freed.
    for key in (0..KEYS).filter(|k| k % 8 != 3) {
        delete(&tree, &mut b, &mut model, key);
    }
    let leaves = tree.leaf_count_plain();
    assert!(tree.maintain(&mut b) > leaves / 2);
    rt.epoch().collect();
    rt.epoch().collect();
    assert_eq!(tree.memory().retired_pending_bytes, 0, "all freed");

    // Splits at the far end of the keyspace take addresses off the free
    // list. A split-born leaf starts at seqno 0 and its own first split
    // takes it to 1 — where every preloaded leaf stood.
    a.clock += 1 << 32;
    for key in 1_000_000..1_000_000 + 4 * KEYS {
        put(&tree, &mut b, &mut model, key, key + 1);
    }
    let chain: BTreeMap<usize, u64> = tree.leaf_seqnos_plain().into_iter().collect();
    // A thread without a hint to its name, to ask where keys live now.
    let mut fresh = rt.thread(3);
    let mut out = Vec::new();
    for (&key, &(x, s, ..)) in survivors.iter().zip(&was) {
        if chain.get(&x) != Some(&s) || located(&tree, &mut fresh, key).0 == x {
            continue;
        }
        // X's address, X's seqno — and a leaf that never held the key.
        out.push((tree.get(&mut a, key), model.get(&key).copied()));
    }
    if out.is_empty() {
        eprintln!("leaf_hints: the allocator re-issued no address; nothing tested");
    }
    out
}

#[test]
fn a_reissued_address_at_the_same_seqno_does_not_revive_a_hint() {
    for (got, want) in gets_after_address_reuse() {
        assert!(want.is_some());
        assert_eq!(got, want, "the key still lives — in a merge survivor");
    }
}

/// The same scenario with the generation comparison switched off must go
/// wrong, or the test above proves nothing: address and `seqno` match, so
/// the dead hint is followed into a leaf that never held the key.
#[test]
#[cfg_attr(not(debug_assertions), ignore = "probes are debug-only")]
fn without_the_generation_the_reissued_address_is_believed() {
    probe::mutate(Some("hint:any-generation"));
    let out = gets_after_address_reuse();
    probe::mutate(None);
    for (got, want) in out {
        assert!(want.is_some());
        assert_eq!(got, None, "the stale hint was followed to the wrong leaf");
    }
}

/// (c) A hint serves exactly `[low, high)`: a key block that straddles a
/// split point is never answered across it, the top of the keyspace is
/// never answered at all, and a root that is a leaf covers everything.
#[test]
fn a_hint_serves_its_range_and_nothing_else() {
    let rt = Runtime::new_virtual();
    let tree = EunoBTreeDefault::new(Arc::clone(&rt));
    let mut ctx = rt.thread(1);
    let mut model = Model::new();

    // A root that is a leaf: one range, the whole keyspace.
    for key in 4..22u64 {
        put(&tree, &mut ctx, &mut model, key, key + 1);
    }
    let (root, _, low, high) = located(&tree, &mut ctx, 9);
    assert_eq!((low, high), (0, u64::MAX));
    let before = hits(&ctx);
    assert_eq!(
        located(&tree, &mut ctx, 12).0,
        root,
        "same block, same leaf"
    );
    assert_eq!(hits(&ctx) - before, 1);

    // The nineteenth key splits it at 13: block 8..16 straddles the cut.
    put(&tree, &mut ctx, &mut model, 22, 23);
    let (left, _, low, cut) = located(&tree, &mut ctx, 9);
    assert_eq!((low, cut), (0, 13));
    let before = hits(&ctx);
    assert_eq!(located(&tree, &mut ctx, 11), located(&tree, &mut ctx, 9));
    assert_eq!(hits(&ctx) - before, 2, "inside the range: served");
    // The left half's hint must not serve `key ≥ high`…
    let (right, _, low, high) = located(&tree, &mut ctx, 14);
    assert_ne!(right, left);
    assert_eq!((low, high), (13, u64::MAX));
    // …nor the right half's `key < low`.
    assert_eq!(located(&tree, &mut ctx, 11).0, left);
    assert_eq!(located(&tree, &mut ctx, 13).0, right, "the cut itself");
    assert_eq!(hits(&ctx) - before, 2, "across the cut: walked, every time");
    for key in 0..24u64 {
        assert_eq!(
            tree.get(&mut ctx, key),
            model.get(&key).copied(),
            "get {key}"
        );
    }

    // `high` is exclusive and tops out at `u64::MAX`: that one key (never
    // stored — it is the sentinel) is located by a walk every time.
    let before = hits(&ctx);
    for _ in 0..3 {
        assert_eq!(located(&tree, &mut ctx, u64::MAX).0, right);
        assert_eq!(tree.get(&mut ctx, u64::MAX), None);
    }
    assert_eq!(hits(&ctx) - before, 0);
    // What those walks recorded serves the rest of the block.
    assert_eq!(located(&tree, &mut ctx, u64::MAX - 1).0, right);
    assert_eq!(hits(&ctx) - before, 1);
}

/// (d) Two trees, one thread, the same keys: the table is shared, the
/// entries are not — also not with a tree that has been dropped and whose
/// addresses a new one may have been given.
#[test]
fn no_tree_is_served_another_trees_hint() {
    const KEYS: u64 = 75;
    // One key a hint block (`key >> 3`) — a leaf holds nine keys, so
    // adjacent ones would put some blocks astride two leaves — and as
    // many blocks as 600 adjacent keys fill.
    let keys = || (0..KEYS).map(|k| k << 3);
    let rt = Runtime::new_virtual();
    let mut ctx = rt.thread(1);
    let build = |ctx: &mut ThreadCtx, tag: u64| {
        let tree = EunoBTreeDefault::new(Arc::clone(&rt));
        for key in keys() {
            tree.put(ctx, key, key << 8 | tag);
        }
        tree
    };
    let owns = |tree: &EunoBTreeDefault, ctx: &mut ThreadCtx, key: u64| {
        chained_seqno(tree, located(tree, ctx, key).0).is_some()
    };
    let (one, two) = (build(&mut ctx, 1), build(&mut ctx, 2));
    for round in 0..3 {
        let before = hits(&ctx);
        for key in keys() {
            assert_eq!(one.get(&mut ctx, key), Some(key << 8 | 1));
            assert_eq!(two.get(&mut ctx, key), Some(key << 8 | 2));
            assert!(owns(&one, &mut ctx, key) && owns(&two, &mut ctx, key));
        }
        // Both trees' hints live side by side (the same block of two
        // owners never shares a slot): by the second round, all hits.
        if round > 0 {
            assert_eq!(hits(&ctx) - before, 4 * KEYS, "round {round}");
        }
    }

    drop(one);
    let three = build(&mut ctx, 3);
    for key in keys() {
        assert_eq!(three.get(&mut ctx, key), Some(key << 8 | 3));
        assert_eq!(two.get(&mut ctx, key), Some(key << 8 | 2));
        assert!(owns(&three, &mut ctx, key) && owns(&two, &mut ctx, key));
    }
}

const HOT_THREADS: u64 = 15;
const OPS_PER_THREAD: u64 = 3_000;
/// What the hot threads fight over: one preloaded leaf's keys and the gaps
/// between them, which their inserts fill and their deletes empty again —
/// reorganizing the leaf, which holds every key of its range.
const HOT: std::ops::Range<u64> = 1_000..1_032;
/// `upper_walk.rs`'s bound on a get from a write-hot leaf; here it holds
/// every kind of point operation (a scan's is `scan_ladder.rs`'s).
const MAX_OP_CYCLES: u64 = 20_000;

/// (e) Sixteen logical threads on the virtual clock — fifteen on one
/// leaf's keys, reorganizing it under each other's hints, one uniform,
/// whose inserts split the chain's last leaf. The scheduler runs one op at
/// a time, so a `BTreeMap` is an exact model of every reply.
#[test]
fn hot_leaf_under_the_scheduler_is_exact_bounded_and_mostly_hits() {
    let rt = Runtime::new_virtual();
    let tree = EunoBTreeDefault::new(Arc::clone(&rt));
    let model = RefCell::new(Model::new());
    {
        let mut ctx = rt.thread(0x10ad);
        // 999 keys: the chain's last leaf is full, so the uniform thread's
        // inserts above it split it (a leaf of nine even keys holds every
        // key of its range, and only reorganizes).
        for key in (0..1_998u64).step_by(2) {
            tree.put(&mut ctx, key, key);
            model.borrow_mut().insert(key, key);
        }
        rt.virt_prune(ctx.clock);
        rt.reset_dynamics();
    }
    let leaves = tree.leaf_count_plain();
    let (hot_hits, hot_ops, longest) = (Cell::new(0u64), Cell::new(0u64), Cell::new(0u64));

    let mut sched = VirtualScheduler::new(Arc::clone(&rt));
    for t in 0..=HOT_THREADS {
        let (tree, model) = (&tree, &model);
        let (hot_hits, hot_ops, longest) = (&hot_hits, &hot_ops, &longest);
        let hot = t < HOT_THREADS;
        let mut rng = SmallRng::seed_from_u64(0x41_17 ^ t);
        let mut done = 0u64;
        sched.add_thread(
            t,
            Box::new(move |ctx| {
                let key = if hot {
                    rng.gen_range(HOT)
                } else {
                    rng.gen_range(0..2_000u64)
                };
                let (start, hits_before) = (ctx.clock, hits(ctx));
                let model = &mut *model.borrow_mut();
                match rng.gen_range(0..10u32) {
                    0..=3 => assert_eq!(tree.get(ctx, key), model.get(&key).copied(), "get {key}"),
                    4..=7 => {
                        let value = t << 32 | done;
                        assert_eq!(tree.put(ctx, key, value), model.insert(key, value));
                    }
                    // The preloaded keys (multiples of four) stay.
                    _ => assert_eq!(tree.delete(ctx, key | 1), model.remove(&(key | 1))),
                }
                ctx.stats.ops += 1;
                longest.set(longest.get().max(ctx.clock - start));
                if hot {
                    hot_hits.set(hot_hits.get() + hits(ctx) - hits_before);
                    hot_ops.set(hot_ops.get() + 1);
                }
                done += 1;
                done < OPS_PER_THREAD
            }),
        );
    }
    sched.run();

    assert!(tree.leaf_count_plain() > leaves, "no leaf split");
    let rate = hot_hits.get() as f64 / hot_ops.get() as f64;
    assert!(
        rate >= 0.5,
        "hot threads: {rate:.3} hint hits per operation"
    );
    assert!(
        longest.get() <= MAX_OP_CYCLES,
        "longest op took {} cycles (bound {MAX_OP_CYCLES})",
        longest.get()
    );
    assert_eq!(
        tree.collect_all_plain(),
        model.into_inner().into_iter().collect::<Vec<_>>()
    );
    assert_eq!(tree.audit_quiescent(), Vec::<String>::new());
}
