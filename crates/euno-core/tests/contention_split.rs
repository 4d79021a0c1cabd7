//! Leaf size follows contention (DESIGN.md §4.8, "Contention splits"):
//! under `default()`, a protected leaf whose operations keep conflicting
//! is split until it holds no more records than segments — one record a
//! line — unless the thread that met the conflict scanned lately, and
//! never under `paper()`.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use euno_core::{DefaultLeaf, EunoBTreeDefault, EunoConfig, DEFAULT_SEGS};
use euno_htm::euno_metrics::Counter;
use euno_htm::{ConcurrentMap, Runtime};
use euno_rng::SmallRng;
use euno_sim::VirtualScheduler;

const THREADS: u64 = 16;
const OPS_EACH: u64 = 2_000;
/// The hot range: keys `0..HOT_KEYS`, all preloaded, none ever deleted.
const HOT_KEYS: u64 = 64;

/// What one run left behind.
struct Run {
    splits: u64,
    /// Records of each leaf that covers a key of the hot range.
    leaf_records: Vec<usize>,
}

/// Sixteen logical threads on the hot range: puts and gets of its keys
/// (and, with `scan_every`, a short scan as every that-many-th operation
/// of each thread), checked op by op against a `BTreeMap` — the scheduler
/// runs one operation at a time, so the model is exact.
fn run(cfg: EunoConfig, scan_every: Option<u64>) -> Run {
    let rt = Runtime::new_virtual();
    let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), cfg);
    let model = RefCell::new(BTreeMap::new());
    let mut ctx = rt.thread(0x10ad);
    for key in 0..HOT_KEYS {
        tree.put(&mut ctx, key, key);
        model.borrow_mut().insert(key, key);
    }
    rt.virt_prune(ctx.clock);
    rt.reset_dynamics();

    let mut sched = VirtualScheduler::new(Arc::clone(&rt));
    for t in 0..THREADS {
        let (tree, model) = (&tree, &model);
        let mut rng = SmallRng::seed_from_u64(0x5B11 ^ t);
        let (mut seq, mut done) = (0u64, 0u64);
        let mut out = Vec::new();
        sched.add_thread(
            t,
            Box::new(move |ctx| {
                done += 1;
                let key = rng.gen_range(0..HOT_KEYS);
                if scan_every.is_some_and(|n| done.is_multiple_of(n)) {
                    out.clear();
                    tree.scan(ctx, key, 4, &mut out);
                    let want: Vec<(u64, u64)> = model
                        .borrow()
                        .range(key..)
                        .take(4)
                        .map(|(&k, &v)| (k, v))
                        .collect();
                    assert_eq!(out, want, "scan from {key}");
                } else if rng.gen_range(0..2u32) == 0 {
                    seq += 1;
                    let value = t << 32 | seq;
                    let old = model.borrow_mut().insert(key, value);
                    assert_eq!(tree.put(ctx, key, value), old, "put {key}");
                } else {
                    let want = model.borrow().get(&key).copied();
                    assert_eq!(tree.get(ctx, key), want, "get {key}");
                }
                ctx.metric_add(Counter::Ops, 1);
                done < OPS_EACH
            }),
        );
    }
    sched.run();

    assert_eq!(
        tree.collect_all_plain(),
        model.take().into_iter().collect::<Vec<_>>()
    );
    assert_eq!(tree.audit_quiescent(), Vec::<String>::new());
    let mut leaves: HashMap<*const DefaultLeaf, usize> = HashMap::new();
    tree.pinned(|g| {
        ctx.pinned(|ctx, _: euno_core::DefaultGuard| {
            for key in 0..HOT_KEYS {
                let leaf = tree.locate(ctx, g, key).leaf;
                let records = leaf.segs.iter().map(|seg| seg.count_plain()).sum();
                leaves.insert(leaf, records);
            }
        })
    });
    Run {
        splits: rt.metrics().total(Counter::ContentionSplits),
        leaf_records: leaves.into_values().collect(),
    }
}

#[test]
fn a_contended_range_splits_down_to_a_record_a_line() {
    let Run {
        splits,
        leaf_records,
    } = run(EunoConfig::default(), None);
    assert!(splits > 0, "no contention split");
    assert!(
        leaf_records.iter().all(|&n| n <= DEFAULT_SEGS),
        "{splits} splits left leaves of {leaf_records:?} records"
    );
    let hot: usize = leaf_records.iter().sum();
    assert_eq!(hot, HOT_KEYS as usize);
}

/// A thread that scans splits nothing (each extra leaf is lines every
/// later scan reads), and the paper's configuration never does.
#[test]
fn scanning_threads_and_the_paper_config_split_nothing() {
    for (what, cfg, scan_every) in [
        ("a scan every fifth op", EunoConfig::default(), Some(5)),
        ("paper()", EunoConfig::paper(), None),
    ] {
        let Run {
            splits,
            leaf_records,
        } = run(cfg, scan_every);
        assert_eq!(splits, 0, "{what}: leaves of {leaf_records:?} records");
        assert!(
            leaf_records.iter().any(|&n| n > DEFAULT_SEGS),
            "{what}: the preload's leaves stay as they were: {leaf_records:?}"
        );
    }
}
