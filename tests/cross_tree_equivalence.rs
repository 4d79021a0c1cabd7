//! Cross-system semantic equivalence: the four trees are interchangeable
//! ordered maps. Every system executes the same randomized operation
//! sequence and must agree with a `BTreeMap` model (and therefore with
//! each other) on every reply — on every engine backend: the virtual
//! clock, the TL2 software transactions, and real RTM (which, on a host
//! whose CPU has no TSX, resolves to TL2 — the same assertions then run
//! through the degrade, and the printed counters say so).

use std::collections::BTreeMap;
use std::sync::Arc;

use eunomia::check::run_all_on;
use eunomia::htm::euno_metrics::{Counter, ABORTS_HTM};
use eunomia::prelude::*;

/// One runtime per engine backend.
fn backends() -> [Arc<Runtime>; 3] {
    [
        Runtime::new_virtual(),
        Runtime::new_concurrent(),
        Runtime::new_concurrent_rtm(),
    ]
}

/// What the silicon (or its stand-in) did for one tree: commits by
/// backend, aborts by cause, fallback executions.
fn print_counters(what: &str, rt: &Runtime) {
    let m = rt.metrics();
    let aborts: Vec<String> = ABORTS_HTM
        .iter()
        .filter(|&&c| m.total(c) > 0)
        .map(|&c| format!("{}={}", c.name(), m.total(c)))
        .collect();
    println!(
        "{what}: rtm_active={} commits_rtm={} commits_stm={} fallbacks={} aborts[{}]",
        rt.rtm_active(),
        m.total(Counter::CommitsRtm),
        m.total(Counter::CommitsStm),
        m.total(Counter::Fallbacks),
        aborts.join(" ")
    );
}

type Build = fn(Arc<Runtime>) -> Box<dyn ConcurrentMap>;

const SYSTEMS: [Build; 6] = [
    |rt| Box::new(EunoBTreeDefault::new(rt)),
    |rt| Box::new(EunoBTreeDefault::with_config(rt, EunoConfig::paper())),
    |rt| {
        Box::new(EunoBTreeUnpartitioned::with_config(
            rt,
            EunoConfig::split_htm_only(),
        ))
    },
    |rt| Box::new(HtmBTree::<16>::new(rt)),
    |rt| Box::new(Masstree::new(rt)),
    |rt| Box::new(HtmMasstree::new(rt)),
];

fn systems(rt: &Arc<Runtime>) -> Vec<Box<dyn ConcurrentMap>> {
    SYSTEMS.iter().map(|build| build(Arc::clone(rt))).collect()
}

struct Xorshift(u64);
impl Xorshift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }
}

#[test]
fn all_systems_match_the_model() {
    for rt in backends() {
        all_systems_match_the_model_on(&rt);
        print_counters("model, one thread", &rt);
    }
}

fn all_systems_match_the_model_on(rt: &Arc<Runtime>) {
    for map in systems(rt) {
        let mut ctx = rt.thread(1);
        let mut model: BTreeMap<u64, u64> = BTreeMap::new();
        let mut rng = Xorshift(0xC0FFEE ^ map.name().len() as u64);
        for step in 0..8_000 {
            let key = rng.next() % 400;
            match rng.next() % 12 {
                0..=5 => {
                    let v = rng.next() % 1_000_000;
                    assert_eq!(
                        map.put(&mut ctx, key, v),
                        model.insert(key, v),
                        "{} put {key} at step {step}",
                        map.name()
                    );
                }
                6..=7 => {
                    assert_eq!(
                        map.delete(&mut ctx, key),
                        model.remove(&key),
                        "{} delete {key} at step {step}",
                        map.name()
                    );
                }
                8..=10 => {
                    assert_eq!(
                        map.get(&mut ctx, key),
                        model.get(&key).copied(),
                        "{} get {key} at step {step}",
                        map.name()
                    );
                }
                _ => {
                    let mut got = Vec::new();
                    map.scan(&mut ctx, key, 7, &mut got);
                    let expect: Vec<(u64, u64)> =
                        model.range(key..).take(7).map(|(&k, &v)| (k, v)).collect();
                    assert_eq!(got, expect, "{} scan {key} at step {step}", map.name());
                }
            }
        }
    }
}

#[test]
fn scans_agree_across_systems_after_identical_load() {
    let rt = Runtime::new_virtual();
    let maps = systems(&rt);
    let mut ctx = rt.thread(2);
    let keys: Vec<u64> = (0..2_000u64)
        .map(|i| (i * 2_654_435_761) % 100_000)
        .collect();
    for map in &maps {
        for &k in &keys {
            map.put(&mut ctx, k, k + 1);
        }
    }
    let mut reference: Option<Vec<(u64, u64)>> = None;
    for map in &maps {
        let mut out = Vec::new();
        map.scan(&mut ctx, 0, usize::MAX, &mut out);
        assert!(
            out.windows(2).all(|w| w[0].0 < w[1].0),
            "{} scan must be strictly sorted",
            map.name()
        );
        match &reference {
            None => reference = Some(out),
            Some(r) => assert_eq!(&out, r, "{} disagrees with reference", map.name()),
        }
    }
}

#[test]
fn deletes_are_equivalent_to_absence_everywhere() {
    let rt = Runtime::new_virtual();
    for map in systems(&rt) {
        let mut ctx = rt.thread(3);
        for k in 0..500u64 {
            map.put(&mut ctx, k, k);
        }
        for k in (0..500u64).step_by(2) {
            assert_eq!(map.delete(&mut ctx, k), Some(k), "{}", map.name());
        }
        for k in 0..500u64 {
            let expect = (k % 2 == 1).then_some(k);
            assert_eq!(map.get(&mut ctx, k), expect, "{} key {k}", map.name());
        }
        let mut out = Vec::new();
        let n = map.scan(&mut ctx, 0, usize::MAX, &mut out);
        assert_eq!(n, 250, "{}", map.name());
        assert!(out.iter().all(|(k, _)| k % 2 == 1));
    }
}

/// Every tree on both real-thread backends — TL2, then the hardware one —
/// under two threads: keys are
/// interleaved (thread `t` owns the keys ≡ `t` mod 2, so neighbours in
/// one leaf belong to different threads and every leaf is shared), each
/// thread checks every reply against its own model, and the quiescent
/// tree must equal the union of the models.
#[test]
fn all_systems_match_per_thread_models_on_stm_and_rtm() {
    for new_rt in [Runtime::new_concurrent, Runtime::new_concurrent_rtm] {
        all_systems_match_per_thread_models_on(new_rt);
    }
}

fn all_systems_match_per_thread_models_on(new_rt: fn() -> Arc<Runtime>) {
    const THREADS: u64 = 2;
    const OPS: u64 = 40_000;
    const SLOTS: u64 = 3_000;
    // A fresh runtime per tree, so the printed counters are that tree's.
    for build in SYSTEMS {
        let rt = new_rt();
        let map = build(Arc::clone(&rt));
        let t0 = std::time::Instant::now();
        let models: Vec<BTreeMap<u64, u64>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (rt, map) = (&rt, &map);
                    s.spawn(move || {
                        let mut ctx = rt.thread(t);
                        let mut model = BTreeMap::new();
                        let mut rng = Xorshift(0xC0FFEE ^ (t + 1) << 32);
                        let mut got = Vec::new();
                        for step in 0..OPS {
                            let key = (rng.next() % SLOTS) * THREADS + t;
                            let at = || format!("{} thread {t} key {key} step {step}", map.name());
                            match rng.next() % 12 {
                                0..=5 => {
                                    let v = rng.next() % 1_000_000;
                                    assert_eq!(
                                        map.put(&mut ctx, key, v),
                                        model.insert(key, v),
                                        "put {}",
                                        at()
                                    );
                                }
                                6..=7 => {
                                    assert_eq!(
                                        map.delete(&mut ctx, key),
                                        model.remove(&key),
                                        "delete {}",
                                        at()
                                    );
                                }
                                8..=10 => {
                                    assert_eq!(
                                        map.get(&mut ctx, key),
                                        model.get(&key).copied(),
                                        "get {}",
                                        at()
                                    );
                                }
                                _ => {
                                    // The other thread's keys come and go
                                    // under the scan; this thread's own
                                    // are still, and a scan shows them in
                                    // order with none skipped.
                                    got.clear();
                                    map.scan(&mut ctx, key, 7, &mut got);
                                    assert!(
                                        got.windows(2).all(|w| w[0].0 < w[1].0),
                                        "scan order {}",
                                        at()
                                    );
                                    let ended = got.len() < 7;
                                    got.retain(|(k, _)| k % THREADS == t);
                                    let mine = model.range(key..).map(|(&k, &v)| (k, v));
                                    let expect: Vec<_> = if ended {
                                        mine.collect()
                                    } else {
                                        mine.take(got.len()).collect()
                                    };
                                    assert_eq!(got, expect, "scan {}", at());
                                }
                            }
                        }
                        model
                    })
                })
                .collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let secs = t0.elapsed().as_secs_f64();
        let mut ctx = rt.thread(9);
        let mut all = Vec::new();
        map.scan(&mut ctx, 0, usize::MAX, &mut all);
        let union: BTreeMap<u64, u64> = models.into_iter().flatten().collect();
        assert_eq!(all, union.into_iter().collect::<Vec<_>>(), "{}", map.name());
        print_counters(map.name(), &rt);
        println!(
            "  {:.2} Mops/s wall (printed, not claimed)",
            (THREADS * OPS) as f64 / secs / 1e6
        );
    }
}

/// The linearizability oracle — and, for both Euno configurations, the
/// structural audits — over every tree on the hardware backend.
#[test]
fn stress_oracle_passes_every_tree_on_rtm() {
    let cfg = StressConfig {
        threads: 2,
        ops_per_thread: 3_000,
        seed: 20_170_204,
        ..StressConfig::default()
    };
    let reports = run_all_on(&cfg, None, || {
        let rt = Runtime::new_concurrent_rtm();
        println!("rtm_active={}", rt.rtm_active());
        rt
    });
    assert_eq!(reports.len(), 5);
    for r in &reports {
        println!(
            "{}: {:?}, paths h/f {:?}, aborts {:?}",
            r.tree,
            r.verdict,
            r.path_split(),
            r.stats.aborts
        );
        assert!(matches!(r.verdict, Verdict::Linearizable { .. }), "{r:?}");
        assert!(
            r.invariant_violations.is_empty(),
            "{}: {:?}",
            r.tree,
            r.invariant_violations
        );
    }
}
