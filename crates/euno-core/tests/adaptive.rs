//! Guideline 4 end to end (DESIGN.md §4.8): a calm leaf runs no conflict
//! control, a contended one earns it at once and keeps it for a whole
//! window, a split hands the verdict on, and none of it can cost a get a
//! live key.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

use euno_core::{Ccm, DefaultGuard, DefaultLeaf, EunoBTreeDefault, EunoConfig};
use euno_htm::euno_metrics::Counter;
use euno_htm::{ConcurrentMap, Runtime, ThreadCtx};
use euno_rng::SmallRng;
use euno_sim::VirtualScheduler;

const BOTH: [fn() -> EunoConfig; 2] = [EunoConfig::paper, EunoConfig::default];

/// The leaf `locate` hands over for `key`, held for as long as `g`.
fn leaf_of<'g>(
    tree: &EunoBTreeDefault,
    ctx: &mut ThreadCtx,
    g: DefaultGuard<'g>,
    key: u64,
) -> &'g DefaultLeaf {
    ctx.pinned(|ctx, _: DefaultGuard| tree.locate(ctx, g, key).leaf)
}

/// The leaf runs no conflict control: it has no CCM block, or its block
/// says bypass.
fn bypassed(leaf: &DefaultLeaf, g: DefaultGuard<'_>) -> bool {
    leaf.ccm(g).is_none_or(|c| c.bypass_plain())
}

/// Read-modify-writes one operation issued outside its HTM regions.
fn rmws(ctx: &mut ThreadCtx, op: impl FnOnce(&mut ThreadCtx)) -> u64 {
    let before = ctx.stats.cas_ops;
    op(ctx);
    ctx.stats.cas_ops - before
}

/// The benchmark's own preload: nothing conflicts, so nothing may end up
/// paying for conflict control (every split-born leaf used to start
/// protected and needed 32 operations *on that leaf* to get out).
#[test]
fn a_sequentially_preloaded_tree_is_bypassed() {
    for cfg in BOTH {
        let rt = Runtime::new_virtual();
        let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), cfg());
        let mut ctx = rt.thread(0x10ad);
        for key in (0..40_000u64).step_by(2) {
            tree.put(&mut ctx, key, key);
        }
        let stats = tree.stats();
        assert!(stats.leaves > 1_000);
        assert!(
            stats.bypassed_fraction >= 0.99,
            "{:.4} of {} leaves bypassed",
            stats.bypassed_fraction,
            stats.leaves
        );
    }
}

#[test]
fn a_split_hands_its_verdict_to_both_halves() {
    for cfg in BOTH {
        for protected in [true, false] {
            let rt = Runtime::new_virtual();
            let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), cfg());
            let mut ctx = rt.thread(1);
            if protected {
                tree.pinned(|g| tree.protect_plain(leaf_of(&tree, &mut ctx, g, 0)));
            }
            // 19 inserts split the 18-slot root leaf — fewer operations
            // than one detector window, so no verdict is re-decided.
            for key in 0..19u64 {
                tree.put(&mut ctx, key, key);
            }
            tree.pinned(|g| {
                let left = leaf_of(&tree, &mut ctx, g, 0);
                let right = leaf_of(&tree, &mut ctx, g, 18);
                assert!(!std::ptr::eq(left, right), "the leaf split");
                assert_eq!(bypassed(left, g), !protected);
                assert_eq!(bypassed(right, g), !protected);
                // A calm leaf hands on no block; a protected one, its own.
                assert_eq!(left.ccm(g).is_some(), protected);
                assert_eq!(right.ccm(g).is_some(), protected);
            });
        }
    }
}

/// The saving as a count: what a put or a two-step get on a depth-2 tree
/// writes outside its regions. The parent paid 2 on a bypassed leaf
/// (`set_mark`, `record_outcome`) and 4 on a protected one; a leaf without
/// a CCM block keeps no marks, so even a key new to it costs nothing.
#[test]
fn a_calm_leaf_costs_no_read_modify_write() {
    let rt = Runtime::new_virtual();
    let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), EunoConfig::paper());
    let mut ctx = rt.thread(1);
    for key in (0..400u64).step_by(2) {
        tree.put(&mut ctx, key, key);
    }
    // An absent key next to a present one, on one leaf.
    tree.pinned(|g| {
        let fresh = (1..400u64)
            .step_by(2)
            .find(|&k| {
                std::ptr::eq(
                    leaf_of(&tree, &mut ctx, g, k),
                    leaf_of(&tree, &mut ctx, g, k - 1),
                )
            })
            .expect("an odd key beside an even one");
        let (leaf, present) = (leaf_of(&tree, &mut ctx, g, fresh), fresh - 1);
        assert!(leaf.ccm(g).is_none(), "a calm leaf has no CCM block");
        assert_eq!(rmws(&mut ctx, |ctx| _ = tree.put(ctx, present, 1)), 0);
        assert_eq!(rmws(&mut ctx, |ctx| _ = tree.get(ctx, present)), 0);
        assert_eq!(rmws(&mut ctx, |ctx| _ = tree.delete(ctx, fresh)), 0);
        // A key new to the leaf claims no mark: there is none to claim.
        assert_eq!(rmws(&mut ctx, |ctx| _ = tree.put(ctx, fresh, 1)), 0);
        assert_eq!(rmws(&mut ctx, |ctx| _ = tree.put(ctx, fresh, 2)), 0);
        // Protected: lock bit, unlock, window count; the mark is a load.
        tree.protect_plain(leaf);
        assert_eq!(rmws(&mut ctx, |ctx| _ = tree.put(ctx, present, 3)), 3);
        assert_eq!(rmws(&mut ctx, |ctx| _ = tree.get(ctx, present)), 3);
        assert_eq!(tree.get(&mut ctx, present), Some(3));
        assert_eq!(tree.get(&mut ctx, fresh), Some(2));
    });
}

const HOT_THREADS: u64 = 16;
const FAR_THREADS: u64 = 4;
const HOT_OPS_EACH: u64 = 600;
const PRELOADED: u64 = 16_000;

/// Sixteen logical threads fight over one leaf's keys while four more
/// spread over the rest of the tree. The scheduler runs one operation at
/// a time, so a `BTreeMap` is an exact model of every get; the detector
/// lives on the virtual clock, where the hot threads' regions overlap.
#[test]
fn a_hot_leaf_is_protected_and_the_rest_of_the_tree_is_not() {
    for cfg in BOTH {
        let cfg = cfg();
        let window = euno_core::ccm::ADAPTIVE_WINDOW;
        let rt = Runtime::new_virtual();
        let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), cfg);
        let model = RefCell::new(BTreeMap::new());
        let mut ctx = rt.thread(0x10ad);
        for key in (0..PRELOADED).step_by(2) {
            tree.put(&mut ctx, key, key);
            model.borrow_mut().insert(key, key);
        }
        rt.virt_prune(ctx.clock);
        rt.reset_dynamics();
        tree.pinned(|g| {
            let hot_leaf = leaf_of(&tree, &mut ctx, g, PRELOADED / 2);
            let hot_keys: Vec<u64> = (PRELOADED / 2 - 64..PRELOADED / 2 + 64)
                .step_by(2)
                .filter(|&k| std::ptr::eq(leaf_of(&tree, &mut ctx, g, k), hot_leaf))
                .collect();
            assert!(hot_keys.len() >= 4, "{hot_keys:?}");
            assert!(hot_leaf.ccm(g).is_none(), "calm after the preload");

            let hot_done = Cell::new(0u64);
            let protected_ops = Cell::new(0u64);
            let mut sched = VirtualScheduler::new(Arc::clone(&rt));
            for t in 0..HOT_THREADS + FAR_THREADS {
                let (tree, model, hot_keys) = (&tree, &model, &hot_keys);
                let (hot_done, protected_ops) = (&hot_done, &protected_ops);
                let mut rng = SmallRng::seed_from_u64(0xADA9 ^ t);
                let mut seq = 0u64;
                sched.add_thread(
                    t,
                    Box::new(move |ctx| {
                        let hot = t < HOT_THREADS;
                        // Updates and gets of preloaded keys only: no split
                        // moves a hot key off the leaf being watched.
                        let key = if hot {
                            hot_keys[rng.gen_range(0..hot_keys.len() as u64) as usize]
                        } else {
                            2 * rng.gen_range(0..PRELOADED / 2)
                        };
                        if hot {
                            protected_ops
                                .set(protected_ops.get() + u64::from(!bypassed(hot_leaf, g)));
                        }
                        if rng.gen_range(0..2u32) == 0 {
                            seq += 1;
                            let value = t << 32 | seq;
                            let old = model.borrow_mut().insert(key, value);
                            assert_eq!(tree.put(ctx, key, value), old, "put {key}");
                        } else {
                            assert_eq!(
                                tree.get(ctx, key),
                                model.borrow().get(&key).copied(),
                                "get {key}"
                            );
                        }
                        ctx.metric_add(Counter::Ops, 1);
                        if hot {
                            hot_done.set(hot_done.get() + 1);
                        }
                        hot_done.get() < HOT_THREADS * HOT_OPS_EACH
                    }),
                );
            }
            sched.run();

            let hot_ops = hot_done.get();
            assert!(!bypassed(hot_leaf, g), "the hot leaf ends protected");
            assert!(
                protected_ops.get() * 10 >= hot_ops * 9,
                "{} of {hot_ops} hot operations found the leaf protected",
                protected_ops.get()
            );
            // A flip to bypass takes a closed window, and a window takes
            // `window` operations that ran protected or met a conflict; a flip
            // to protect takes a flip to bypass before it.
            let at = hot_leaf.ccm(g).unwrap() as *const Ccm as u64;
            let flips = rt.metrics().flips().events();
            let hot_flips = flips.iter().filter(|f| f.addr == at).count() as u64;
            assert!(hot_flips >= 1, "the first conflict protects");
            assert!(
                hot_flips <= 2 * (hot_ops / window) + 1,
                "{hot_flips} flips in {hot_ops} operations"
            );
            let stats = tree.stats();
            assert!(
                stats.bypassed_fraction >= 0.95,
                "{:.4} of {} leaves bypassed under uniform background traffic",
                stats.bypassed_fraction,
                stats.leaves
            );
            assert_eq!(
                tree.collect_all_plain(),
                model.take().into_iter().collect::<Vec<_>>()
            );
            assert_eq!(tree.audit_quiescent(), Vec::<String>::new());
        });
    }
}

/// Keys of one mark slot, few enough to share the root leaf, that
/// `THREADS` threads put concurrently.
const THREADS: u64 = 4;
const KEYS_EACH: u64 = 3;

/// Race the keys of one mark slot into an empty tree's root leaf — after
/// `prepare` has had its say on that leaf — then hand the tree to `check`.
fn race_one_slot(
    prepare: impl Fn(&EunoBTreeDefault, &mut ThreadCtx),
    check: impl Fn(&EunoBTreeDefault, &mut ThreadCtx, u32, u64),
) {
    let slot = Ccm::slot(0, DefaultLeaf::ccm_bits());
    let keys: Vec<u64> = (0..u64::MAX)
        .filter(|&k| Ccm::slot(k, DefaultLeaf::ccm_bits()) == slot)
        .take((THREADS * KEYS_EACH) as usize)
        .collect();
    for cfg in BOTH {
        for round in 0..100 {
            let rt = Runtime::new_concurrent();
            let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), cfg());
            let mut ctx = rt.thread(99);
            prepare(&tree, &mut ctx);
            let start = Barrier::new(THREADS as usize);
            std::thread::scope(|s| {
                for t in 0..THREADS {
                    let (tree, keys, start) = (&tree, &keys, &start);
                    let mut ctx = rt.thread(t);
                    s.spawn(move || {
                        start.wait();
                        for &key in keys.iter().skip(t as usize).step_by(THREADS as usize) {
                            assert_eq!(tree.put(&mut ctx, key, key + 1), None);
                        }
                    });
                }
            });
            check(&tree, &mut ctx, slot, round);
            tree.pinned(|g| tree.protect_plain(leaf_of(&tree, &mut ctx, g, keys[0])));
            assert_eq!(
                tree.audit_quiescent(),
                Vec::<String>::new(),
                "round {round}"
            );
            for &key in &keys {
                assert_eq!(tree.get(&mut ctx, key), Some(key + 1), "round {round}");
            }
            // Deletes consult the filter in both configurations.
            for &key in &keys {
                assert_eq!(tree.delete(&mut ctx, key), Some(key + 1), "round {round}");
            }
        }
    }
}

/// Test-before-set on real threads (STM backend): puts on a bypassed leaf
/// that has a CCM block hold no lock bit, so several race one mark bit —
/// some set it, some find it set and write nothing. Whatever the
/// interleaving, the bit ends set, and the filter covers every key that
/// landed once the leaf is protected again.
#[test]
fn racing_unlocked_claims_lose_no_key() {
    race_one_slot(
        |tree, ctx| tree.pinned(|g| tree.calm_block_plain(leaf_of(tree, ctx, g, 0))),
        |tree, ctx, slot, round| {
            tree.pinned(|g| {
                let block = leaf_of(tree, ctx, g, 0).ccm(g).expect("the block stays");
                assert_eq!(block.marks_plain(), 1 << slot, "round {round}");
            })
        },
    );
}

/// The same race on a leaf without a CCM block: its puts claim no mark at
/// all, so the filter must cover every key that landed once a conflict —
/// in the race or after it — gives the leaf a block.
#[test]
fn racing_blockless_puts_lose_no_key() {
    race_one_slot(|_, _| {}, |_, _, _, _| {});
}
