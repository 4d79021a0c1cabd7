//! Guideline 4 end to end (DESIGN.md §4.8): a calm leaf runs no conflict
//! control, a contended one earns it at once and keeps it for a whole
//! window, a split hands the verdict on, and none of it can cost a get a
//! live key.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{Arc, Barrier};

use euno_core::{Ccm, EunoBTreeDefault, EunoConfig, EunoLeaf, Guard};
use euno_htm::{ConcurrentMap, Runtime, ThreadCtx};
use euno_rng::{Rng, SmallRng};
use euno_sim::VirtualScheduler;

const BOTH: [fn() -> EunoConfig; 2] = [EunoConfig::paper, EunoConfig::default];

/// The leaf `locate` hands over for `key`, held for as long as `g`.
fn leaf_of<'g>(
    tree: &EunoBTreeDefault,
    ctx: &mut ThreadCtx,
    g: Guard<'g, 4, 4>,
    key: u64,
) -> &'g EunoLeaf<4, 4> {
    ctx.pinned(|ctx, _: Guard<4, 4>| tree.locate(ctx, g, key).leaf)
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
                tree.pinned(|g| leaf_of(&tree, &mut ctx, g, 0).ccm.protect_prepublication());
            }
            // 17 inserts split the 16-slot root leaf — fewer operations
            // than one detector window, so no verdict is re-decided.
            for key in 0..17u64 {
                tree.put(&mut ctx, key, key);
            }
            tree.pinned(|g| {
                let left = leaf_of(&tree, &mut ctx, g, 0);
                let right = leaf_of(&tree, &mut ctx, g, 16);
                assert!(!std::ptr::eq(left, right), "the leaf split");
                assert_eq!(left.ccm.bypass_plain(), !protected);
                assert_eq!(right.ccm.bypass_plain(), !protected);
            });
        }
    }
}

/// The saving as a count: what a put or a two-step get on a depth-2 tree
/// writes outside its regions. The parent paid 2 on a bypassed leaf
/// (`set_mark`, `record_outcome`) and 4 on a protected one.
#[test]
fn a_calm_leaf_costs_no_read_modify_write() {
    let rt = Runtime::new_virtual();
    let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), EunoConfig::paper());
    let mut ctx = rt.thread(1);
    for key in (0..400u64).step_by(2) {
        tree.put(&mut ctx, key, key);
    }
    // An absent key whose slot its leaf's filter has not seen yet (most
    // odd keys share a slot with an even neighbour), next to a present one.
    let marks =
        |ctx: &mut ThreadCtx, k| tree.pinned(|g| leaf_of(&tree, ctx, g, k).ccm.marks_plain());
    let fresh = (1..400u64)
        .step_by(2)
        .find(|&k| marks(&mut ctx, k) & (1 << Ccm::slot(k, 32)) == 0)
        .expect("an unmarked slot somewhere in the tree");
    tree.pinned(|g| {
        let (leaf, present) = (leaf_of(&tree, &mut ctx, g, fresh), fresh - 1);
        assert!(std::ptr::eq(leaf_of(&tree, &mut ctx, g, present), leaf));
        assert!(leaf.ccm.bypass_plain());
        assert_eq!(rmws(&mut ctx, |ctx| _ = tree.put(ctx, present, 1)), 0);
        assert_eq!(rmws(&mut ctx, |ctx| _ = tree.get(ctx, present)), 0);
        assert_eq!(rmws(&mut ctx, |ctx| _ = tree.delete(ctx, fresh)), 0);
        // A key new to the leaf's filter claims its mark: once.
        assert_eq!(rmws(&mut ctx, |ctx| _ = tree.put(ctx, fresh, 1)), 1);
        assert_eq!(rmws(&mut ctx, |ctx| _ = tree.put(ctx, fresh, 2)), 0);
        // Protected: lock bit, unlock, window count; the mark is a load.
        leaf.ccm.protect_prepublication();
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
            assert!(hot_leaf.ccm.bypass_plain(), "calm after the preload");

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
                                .set(protected_ops.get() + u64::from(!hot_leaf.ccm.bypass_plain()));
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
                        ctx.stats.ops += 1;
                        if hot {
                            hot_done.set(hot_done.get() + 1);
                        }
                        hot_done.get() < HOT_THREADS * HOT_OPS_EACH
                    }),
                );
            }
            sched.run();

            let hot_ops = hot_done.get();
            assert!(!hot_leaf.ccm.bypass_plain(), "the hot leaf ends protected");
            assert!(
                protected_ops.get() * 10 >= hot_ops * 9,
                "{} of {hot_ops} hot operations found the leaf protected",
                protected_ops.get()
            );
            // A flip to bypass takes a closed window, and a window takes
            // `window` operations that ran protected or met a conflict; a flip
            // to protect takes a flip to bypass before it.
            let at = &hot_leaf.ccm as *const Ccm as u64;
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

/// Test-before-set on real threads (STM backend): puts on a bypassed leaf
/// hold no lock bit, so several race one mark bit — some set it, some
/// find it set and write nothing. Whatever the interleaving, the filter
/// must cover every key that landed once the leaf is protected again.
#[test]
fn racing_unlocked_claims_lose_no_key() {
    const THREADS: u64 = 4;
    const KEYS_EACH: u64 = 3;
    // Keys of one mark slot, few enough to share the root leaf.
    let slot = Ccm::slot(0, 32);
    let keys: Vec<u64> = (0..u64::MAX)
        .filter(|&k| Ccm::slot(k, 32) == slot)
        .take((THREADS * KEYS_EACH) as usize)
        .collect();
    for cfg in BOTH {
        for round in 0..100 {
            let rt = Runtime::new_concurrent();
            let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), cfg());
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
            let mut ctx = rt.thread(99);
            tree.pinned(|g| {
                let leaf = leaf_of(&tree, &mut ctx, g, keys[0]);
                assert_eq!(leaf.ccm.marks_plain(), 1 << slot, "round {round}");
                leaf.ccm.protect_prepublication();
            });
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
