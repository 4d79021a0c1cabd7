//! Randomized model equivalence for the three comparator trees, driven
//! by seeded `euno-rng` operation streams.

use std::collections::BTreeMap;
use std::sync::Arc;

use euno_baselines::{HtmBTree, HtmMasstree, Masstree};
use euno_htm::{ConcurrentMap, Runtime};
use euno_rng::SmallRng;

#[derive(Clone, Debug)]
enum Op {
    Put(u64, u64),
    Get(u64),
    Del(u64),
    Scan(u64, usize),
}

fn random_ops(rng: &mut SmallRng, key_space: u64, max_len: usize) -> Vec<Op> {
    let n = rng.gen_range(1usize..max_len);
    (0..n)
        .map(|_| match rng.gen_range(0u32..9) {
            0..=3 => Op::Put(rng.gen_range(0..key_space), rng.gen_range(0u64..1_000_000)),
            4..=5 => Op::Get(rng.gen_range(0..key_space)),
            6..=7 => Op::Del(rng.gen_range(0..key_space)),
            _ => Op::Scan(rng.gen_range(0..key_space), rng.gen_range(0usize..12)),
        })
        .collect()
}

fn check(map: &dyn ConcurrentMap, rt: &Arc<Runtime>, ops: &[Op]) {
    let mut ctx = rt.thread(1);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for op in ops {
        match *op {
            Op::Put(k, v) => {
                assert_eq!(map.put(&mut ctx, k, v), model.insert(k, v), "put {k}")
            }
            Op::Get(k) => {
                assert_eq!(map.get(&mut ctx, k), model.get(&k).copied(), "get {k}")
            }
            Op::Del(k) => {
                assert_eq!(map.delete(&mut ctx, k), model.remove(&k), "del {k}")
            }
            Op::Scan(k, n) => {
                let mut got = Vec::new();
                map.scan(&mut ctx, k, n, &mut got);
                let expect: Vec<(u64, u64)> =
                    model.range(k..).take(n).map(|(&k, &v)| (k, v)).collect();
                assert_eq!(got, expect, "scan {k}");
            }
        }
    }
}

const CASES: usize = 40;

#[test]
fn htm_btree_matches_model() {
    let mut rng = SmallRng::seed_from_u64(0xb7ee);
    for _ in 0..CASES {
        let ops = random_ops(&mut rng, 96, 350);
        let rt = Runtime::new_virtual();
        let t = HtmBTree::<16>::new(Arc::clone(&rt));
        check(&t, &rt, &ops);
    }
}

#[test]
fn masstree_matches_model() {
    let mut rng = SmallRng::seed_from_u64(0x3a55);
    for _ in 0..CASES {
        let ops = random_ops(&mut rng, 96, 350);
        let rt = Runtime::new_virtual();
        let t = Masstree::new(Arc::clone(&rt));
        check(&t, &rt, &ops);
    }
}

#[test]
fn htm_masstree_matches_model() {
    let mut rng = SmallRng::seed_from_u64(0x47a5);
    for _ in 0..CASES {
        let ops = random_ops(&mut rng, 96, 350);
        let rt = Runtime::new_virtual();
        let t = HtmMasstree::new(Arc::clone(&rt));
        check(&t, &rt, &ops);
    }
}

/// Small fanout alternative for the generic HtmBTree: splits every few
/// inserts, stressing the propagation paths.
#[test]
fn htm_btree_small_fanout_matches_model() {
    let mut rng = SmallRng::seed_from_u64(0x5f44);
    for _ in 0..CASES {
        let ops = random_ops(&mut rng, 64, 300);
        let rt = Runtime::new_virtual();
        let t = HtmBTree::<4>::new(Arc::clone(&rt));
        check(&t, &rt, &ops);
    }
}
