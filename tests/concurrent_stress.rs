//! Real-thread stress tests: genuine parallel interleavings over every
//! tree, checking linearizability witnesses that survive concurrency —
//! disjoint-key inserts never get lost, hot-key updates converge to some
//! written value, scans stay sorted and duplicate-free, and the
//! per-structure audit matches the union of surviving operations.

use std::sync::Arc;

use eunomia::prelude::*;

fn all_trees(rt: &Arc<Runtime>) -> Vec<Box<dyn ConcurrentMap>> {
    vec![
        Box::new(EunoBTreeDefault::new(Arc::clone(rt))),
        Box::new(EunoBTreeDefault::with_config(
            Arc::clone(rt),
            EunoConfig::paper(),
        )),
        Box::new(HtmBTree::<16>::new(Arc::clone(rt))),
        Box::new(Masstree::new(Arc::clone(rt))),
        Box::new(HtmMasstree::new(Arc::clone(rt))),
    ]
}

#[test]
fn disjoint_inserts_survive_on_every_tree() {
    let rt = Runtime::new_concurrent();
    for tree in all_trees(&rt) {
        let per = 400u64;
        let threads = 4u64;
        std::thread::scope(|s| {
            for tid in 0..threads {
                let tree = tree.as_ref();
                let mut ctx = rt.thread(1000 + tid);
                s.spawn(move || {
                    // Interleaved key ranges to force shared leaves.
                    for i in 0..per {
                        let key = i * threads + tid;
                        assert_eq!(tree.put(&mut ctx, key, key + 7), None);
                    }
                });
            }
        });
        let mut ctx = rt.thread(1);
        for key in 0..threads * per {
            assert_eq!(
                tree.get(&mut ctx, key),
                Some(key + 7),
                "{} lost key {key}",
                tree.name()
            );
        }
    }
}

#[test]
fn hot_key_updates_converge_to_a_written_value() {
    let rt = Runtime::new_concurrent();
    for tree in all_trees(&rt) {
        let threads = 4u64;
        let iters = 300u64;
        std::thread::scope(|s| {
            for tid in 0..threads {
                let tree = tree.as_ref();
                let mut ctx = rt.thread(2000 + tid);
                s.spawn(move || {
                    for i in 0..iters {
                        let key = i % 4; // four scorching keys
                        let val = (tid << 32) | i;
                        tree.put(&mut ctx, key, val);
                        tree.get(&mut ctx, key);
                    }
                });
            }
        });
        let mut ctx = rt.thread(2);
        for key in 0..4u64 {
            let v = tree
                .get(&mut ctx, key)
                .unwrap_or_else(|| panic!("{} missing hot key {key}", tree.name()));
            let (tid, i) = (v >> 32, v & 0xffff_ffff);
            assert!(
                tid < threads && i < iters,
                "{} bogus value {v:#x}",
                tree.name()
            );
            assert_eq!(i % 4, key, "{} value written for wrong key", tree.name());
        }
    }
}

#[test]
fn mixed_workload_with_deletes_keeps_scan_invariants() {
    let rt = Runtime::new_concurrent();
    for tree in all_trees(&rt) {
        std::thread::scope(|s| {
            for tid in 0..4u64 {
                let tree = tree.as_ref();
                let mut ctx = rt.thread(3000 + tid);
                s.spawn(move || {
                    let mut state = 0x1234_5678_9abc_def0 ^ tid;
                    for _ in 0..500 {
                        state ^= state << 13;
                        state ^= state >> 7;
                        state ^= state << 17;
                        let key = state % 256;
                        match state % 5 {
                            0 | 1 => {
                                tree.put(&mut ctx, key, state >> 8);
                            }
                            2 => {
                                tree.delete(&mut ctx, key);
                            }
                            3 => {
                                tree.get(&mut ctx, key);
                            }
                            _ => {
                                let mut out = Vec::new();
                                tree.scan(&mut ctx, key, 8, &mut out);
                                assert!(
                                    out.windows(2).all(|w| w[0].0 < w[1].0),
                                    "{} unsorted concurrent scan",
                                    tree.name()
                                );
                                assert!(out.iter().all(|(k, _)| *k >= key));
                            }
                        }
                    }
                });
            }
        });
        // Quiesced final audit: full scan sorted and duplicate-free.
        let mut ctx = rt.thread(3);
        let mut out = Vec::new();
        tree.scan(&mut ctx, 0, usize::MAX, &mut out);
        assert!(
            out.windows(2).all(|w| w[0].0 < w[1].0),
            "{} final scan has duplicates or disorder",
            tree.name()
        );
        for (k, _) in &out {
            assert!(*k < 256);
        }
    }
}
