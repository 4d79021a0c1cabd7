//! Cross-system semantic equivalence: the four trees are interchangeable
//! ordered maps. Every system executes the same randomized operation
//! sequence and must agree with a `BTreeMap` model (and therefore with
//! each other) on every reply.

use std::collections::BTreeMap;
use std::sync::Arc;

use eunomia::prelude::*;

fn systems(rt: &Arc<Runtime>) -> Vec<Box<dyn ConcurrentMap>> {
    vec![
        Box::new(EunoBTreeDefault::new(Arc::clone(rt))),
        Box::new(EunoBTreeDefault::with_config(
            Arc::clone(rt),
            EunoConfig::paper(),
        )),
        Box::new(EunoBTreeUnpartitioned::with_config(
            Arc::clone(rt),
            EunoConfig::split_htm_only(),
        )),
        Box::new(HtmBTree::<16>::new(Arc::clone(rt))),
        Box::new(Masstree::new(Arc::clone(rt))),
        Box::new(HtmMasstree::new(Arc::clone(rt))),
    ]
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
    let rt = Runtime::new_virtual();
    for map in systems(&rt) {
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
