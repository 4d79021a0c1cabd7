//! Microbenches: single-operation latency of each tree under a
//! single-threaded virtual context. These measure the *implementation*
//! cost of this reproduction (wall time per op on the host), complementing
//! the virtual-time figures, which measure the *modelled* machine.
//!
//! Plain self-timed harness (`harness = false`): run with
//! `cargo bench -p euno-bench`. Each benchmark reports mean ns/op over a
//! fixed iteration budget after a warmup pass.

use std::sync::Arc;
use std::time::Instant;

use euno_baselines::{HtmBTree, HtmMasstree, Masstree};
use euno_core::EunoBTreeDefault;
use euno_htm::{ConcurrentMap, Runtime};
use euno_workloads::{KeyDistribution, KeySampler};

const WARMUP_ITERS: u64 = 20_000;
const MEASURE_ITERS: u64 = 200_000;

fn build_all(rt: &Arc<Runtime>) -> Vec<Box<dyn ConcurrentMap>> {
    vec![
        Box::new(EunoBTreeDefault::new(Arc::clone(rt))),
        Box::new(HtmBTree::<16>::new(Arc::clone(rt))),
        Box::new(Masstree::new(Arc::clone(rt))),
        Box::new(HtmMasstree::new(Arc::clone(rt))),
    ]
}

fn preload_all(rt: &Arc<Runtime>, maps: &[Box<dyn ConcurrentMap>]) {
    let mut ctx = rt.thread(1);
    for m in maps {
        for k in 0..10_000u64 {
            m.put(&mut ctx, k * 2, k);
        }
    }
    rt.reset_dynamics();
}

fn zipf_sampler() -> KeySampler {
    KeySampler::new(
        &KeyDistribution::Zipfian {
            theta: 0.9,
            scramble: false,
        },
        20_000,
    )
}

/// Time `body` for `iters` iterations and return mean ns/op.
fn time_ns(iters: u64, mut body: impl FnMut()) -> f64 {
    let start = Instant::now();
    for _ in 0..iters {
        body();
    }
    start.elapsed().as_nanos() as f64 / iters as f64
}

fn bench_group(name: &str, mut run: impl FnMut(&dyn ConcurrentMap, &Arc<Runtime>) -> f64) {
    println!("{name}");
    let rt = Runtime::new_virtual();
    let maps = build_all(&rt);
    preload_all(&rt, &maps);
    for m in &maps {
        let ns = run(m.as_ref(), &rt);
        println!("  {:<24} {:>10.1} ns/op", m.name(), ns);
    }
}

fn main() {
    bench_group("get_zipf09", |m, rt| {
        let sampler = zipf_sampler();
        let mut ctx = rt.thread(2);
        let mut go = |iters| {
            time_ns(iters, || {
                let k = sampler.sample(ctx.rng());
                std::hint::black_box(m.get(&mut ctx, k));
            })
        };
        go(WARMUP_ITERS);
        go(MEASURE_ITERS)
    });

    bench_group("put_zipf09", |m, rt| {
        let sampler = zipf_sampler();
        let mut ctx = rt.thread(3);
        let mut v = 0u64;
        let mut go = |iters| {
            time_ns(iters, || {
                let k = sampler.sample(ctx.rng());
                v += 1;
                std::hint::black_box(m.put(&mut ctx, k, v));
            })
        };
        go(WARMUP_ITERS);
        go(MEASURE_ITERS)
    });

    bench_group("scan16", |m, rt| {
        let mut ctx = rt.thread(4);
        let mut out = Vec::with_capacity(16);
        let mut from = 0u64;
        let mut go = |iters| {
            time_ns(iters, || {
                out.clear();
                from = (from + 97) % 9_000;
                std::hint::black_box(m.scan(&mut ctx, from, 16, &mut out));
            })
        };
        go(WARMUP_ITERS / 4);
        go(MEASURE_ITERS / 4)
    });
}
