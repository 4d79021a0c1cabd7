//! Randomized property tests: the Euno-B+Tree is an ordered map —
//! equivalent to `BTreeMap` under arbitrary operation sequences, across
//! its configuration variants and leaf geometries. Operation sequences
//! are drawn from seeded `euno-rng` streams, so every run replays the
//! same deterministic sample.

use euno_core::{KeyPad, Keys};
use std::collections::BTreeMap;
use std::sync::Arc;

use euno_core::segment::home_segment;
use euno_core::{EunoBTree, EunoBTreeDefault, EunoConfig, DEFAULT_K, DEFAULT_SEGS};
use euno_htm::{ConcurrentMap, Runtime};
use euno_rng::SmallRng;

#[derive(Clone, Debug)]
enum Op {
    Put(u64, u64),
    Get(u64),
    Del(u64),
    Scan(u64, usize),
}

fn random_op(rng: &mut SmallRng, key_space: u64) -> Op {
    // Weights match the old proptest strategy: 4 put / 2 get / 2 del / 1 scan.
    match rng.gen_range(0u32..9) {
        0..=3 => Op::Put(rng.gen_range(0..key_space), rng.gen_range(0u64..1_000_000)),
        4..=5 => Op::Get(rng.gen_range(0..key_space)),
        6..=7 => Op::Del(rng.gen_range(0..key_space)),
        _ => Op::Scan(rng.gen_range(0..key_space), rng.gen_range(1usize..20)),
    }
}

fn random_ops(rng: &mut SmallRng, key_space: u64, max_len: usize) -> Vec<Op> {
    let n = rng.gen_range(1usize..max_len);
    (0..n).map(|_| random_op(rng, key_space)).collect()
}

fn check_against_model<const S: usize, const K: usize>(cfg: EunoConfig, ops: &[Op])
where
    Keys<K>: KeyPad,
{
    let rt = Runtime::new_virtual();
    let tree: EunoBTree<S, K> = EunoBTree::with_config(Arc::clone(&rt), cfg);
    let mut ctx = rt.thread(1);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for op in ops {
        match *op {
            Op::Put(k, v) => {
                assert_eq!(tree.put(&mut ctx, k, v), model.insert(k, v), "put {k}")
            }
            Op::Get(k) => {
                assert_eq!(tree.get(&mut ctx, k), model.get(&k).copied(), "get {k}")
            }
            Op::Del(k) => {
                assert_eq!(tree.delete(&mut ctx, k), model.remove(&k), "del {k}")
            }
            Op::Scan(k, n) => {
                let mut got = Vec::new();
                tree.scan(&mut ctx, k, n, &mut got);
                let expect: Vec<(u64, u64)> =
                    model.range(k..).take(n).map(|(&k, &v)| (k, v)).collect();
                assert_eq!(got, expect, "scan {k}");
            }
        }
    }
    // Terminal audit: the contents, and the structure — placement of every
    // record included.
    let audit = tree.collect_all_plain();
    let expect: Vec<(u64, u64)> = model.into_iter().collect();
    assert_eq!(audit, expect);
    assert_eq!(tree.audit_quiescent(), Vec::<String>::new());
}

const CASES: usize = 48;

/// The paper's full system and the library default (the same, with the
/// validated walk as upper stage and episode-free gets).
fn both() -> [EunoConfig; 2] {
    [EunoConfig::full(), EunoConfig::default()]
}

/// Default geometry, full config — paper's and the library default.
#[test]
fn full_config_matches_model() {
    let mut rng = SmallRng::seed_from_u64(0xf411);
    for _ in 0..CASES {
        let ops = random_ops(&mut rng, 128, 400);
        for cfg in both() {
            check_against_model::<DEFAULT_SEGS, DEFAULT_K>(cfg, &ops);
        }
    }
}

/// Unpartitioned +SplitHTM variant.
#[test]
fn split_only_matches_model() {
    let mut rng = SmallRng::seed_from_u64(0x5911);
    for _ in 0..CASES {
        let ops = random_ops(&mut rng, 128, 400);
        check_against_model::<1, 18>(EunoConfig::split_htm_only(), &ops);
    }
}

/// CCM without adaptive.
#[test]
fn ccm_markbits_matches_model() {
    let mut rng = SmallRng::seed_from_u64(0xcc3b);
    for _ in 0..CASES {
        let ops = random_ops(&mut rng, 128, 400);
        check_against_model::<DEFAULT_SEGS, DEFAULT_K>(EunoConfig::ccm_markbits(), &ops);
    }
}

/// An unusual leaf geometry (3 segments × 6 slots, two lines each: the
/// block word on segment 0's spare words).
#[test]
fn alternate_geometry_matches_model() {
    let mut rng = SmallRng::seed_from_u64(0xa17);
    for _ in 0..CASES {
        let ops = random_ops(&mut rng, 96, 300);
        for cfg in both() {
            check_against_model::<3, 6>(cfg, &ops);
        }
    }
}

/// Dense keyspaces force constant splitting and reorganization.
#[test]
fn dense_keyspace_splits_are_sound() {
    let mut rng = SmallRng::seed_from_u64(0xde45e);
    for _ in 0..CASES {
        let ops = random_ops(&mut rng, 24, 500);
        for cfg in both() {
            check_against_model::<DEFAULT_SEGS, DEFAULT_K>(cfg, &ops);
        }
    }
}

/// Interleaving maintenance sweeps with random operations never changes
/// the map's contents.
#[test]
fn maintenance_preserves_the_model() {
    let mut rng = SmallRng::seed_from_u64(0x3a14);
    for _ in 0..CASES {
        let ops = random_ops(&mut rng, 160, 400);
        let sweep_every = rng.gen_range(10usize..60);
        for cfg in both() {
            let rt = Runtime::new_virtual();
            let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), cfg);
            let mut ctx = rt.thread(1);
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for (i, op) in ops.iter().enumerate() {
                match *op {
                    Op::Put(k, v) => assert_eq!(tree.put(&mut ctx, k, v), model.insert(k, v)),
                    Op::Get(k) => assert_eq!(tree.get(&mut ctx, k), model.get(&k).copied()),
                    Op::Del(k) => assert_eq!(tree.delete(&mut ctx, k), model.remove(&k)),
                    Op::Scan(k, n) => {
                        let mut got = Vec::new();
                        tree.scan(&mut ctx, k, n, &mut got);
                        let expect: Vec<(u64, u64)> =
                            model.range(k..).take(n).map(|(&k, &v)| (k, v)).collect();
                        assert_eq!(got, expect);
                    }
                }
                if i % sweep_every == sweep_every - 1 {
                    tree.maintain(&mut ctx);
                    assert_eq!(tree.audit_quiescent(), Vec::<String>::new());
                }
            }
            tree.maintain(&mut ctx);
            let audit = tree.collect_all_plain();
            assert_eq!(audit, model.into_iter().collect::<Vec<_>>());
            assert_eq!(tree.audit_quiescent(), Vec::<String>::new());
        }
    }
}

/// Key sets chosen against the placement rule — every key of one home,
/// power-of-two strides, random — in ascending and in shuffled order: a
/// leaf takes `capacity` records before anything is moved (the first
/// overflow is a split of a full leaf), and with no tombstones to drop
/// nothing ever reorganizes — every time a leaf's records are gathered
/// (`reserved_cumulative_bytes`, one buffer of `capacity` records a time)
/// a leaf is born.
fn fills_before_it_splits<const S: usize, const K: usize>(cfg: EunoConfig, keys: &[u64])
where
    Keys<K>: KeyPad,
{
    let capacity = S * K;
    let rt = Runtime::new_virtual();
    let tree: EunoBTree<S, K> = EunoBTree::with_config(Arc::clone(&rt), cfg);
    let mut ctx = rt.thread(1);
    for (i, &key) in keys.iter().enumerate() {
        assert_eq!(tree.put(&mut ctx, key, key ^ 1), None, "put {key}");
        let stats = tree.stats();
        let gathered = tree.memory().reserved_cumulative_bytes;
        assert_eq!(gathered, (stats.leaves - 1) * capacity * 16, "key {i}");
        if i < capacity {
            assert_eq!(
                (stats.leaves, gathered),
                (1, 0),
                "key {i} of the first leaf"
            );
        }
        if i + 1 == capacity {
            assert_eq!(stats.leaf_fill, 1.0, "{capacity} of {capacity}");
        }
    }
    let mut sorted: Vec<(u64, u64)> = keys.iter().map(|&k| (k, k ^ 1)).collect();
    sorted.sort_unstable();
    assert_eq!(tree.collect_all_plain(), sorted);
    assert_eq!(tree.audit_quiescent(), Vec::<String>::new());
}

#[test]
fn adversarial_key_sets_fill_a_leaf_before_it_splits() {
    let mut rng = SmallRng::seed_from_u64(0x401e);
    let mut sets: Vec<Vec<u64>> = Vec::new();
    for home in 0..DEFAULT_SEGS {
        let base = rng.gen_range(0..1u64 << 40);
        let one_home = (base..).filter(|&k| home_segment(k, DEFAULT_SEGS) == home);
        sets.push(one_home.take(80).collect());
    }
    for stride in [2u64, 4, 8, 64] {
        let base = rng.gen_range(0..1u64 << 40);
        sets.push((0..80).map(|i| base + i * stride).collect());
    }
    let mut random: Vec<u64> = (0..80).map(|_| rng.gen_range(0..u64::MAX / 2)).collect();
    random.sort_unstable();
    random.dedup();
    sets.push(random);
    for ascending in sets {
        let mut shuffled = ascending.clone();
        for i in (1..shuffled.len()).rev() {
            shuffled.swap(i, rng.gen_range(0..i + 1));
        }
        for keys in [&ascending, &shuffled] {
            for cfg in both() {
                fills_before_it_splits::<DEFAULT_SEGS, DEFAULT_K>(cfg.clone(), keys);
                fills_before_it_splits::<3, 6>(cfg, keys);
            }
        }
    }
}
