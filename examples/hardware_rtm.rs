//! Real Intel TSX/RTM demo: the engine's one executor on the hardware
//! backend. No build option — the RTM code compiles wherever the target
//! is x86-64, and `Runtime::new_concurrent_rtm()` enters it where CPUID
//! reports TSX (elsewhere the same program runs on the TL2 software
//! transactions, and says so).
//!
//! Two threads first move units between eight cells through
//! `htm_execute` — multi-word atomicity straight from the hardware. Then
//! three trees run on **disjoint** 100 000-key ranges, one range a thread,
//! at three put shares, on this backend and on TL2: what the silicon
//! counts as a conflict when no two operations share a key, a leaf or an
//! index node (EXPERIMENTS.md, "Five trees on silicon"). Commits by
//! backend, aborts by hardware cause and fallback executions are read from
//! the metrics registry, the same counters every report is built from.
//!
//! ```sh
//! cargo run --release --example hardware_rtm
//! ```

use std::sync::Arc;

use eunomia::htm::euno_metrics::{AbortClass, Counter, ABORTS_HTM};
use eunomia::htm::{RetryPolicy, TxCell};
use eunomia::prelude::*;

const THREADS: u64 = 2;

fn report(what: &str, rt: &Runtime) {
    let m = rt.metrics();
    println!("{what}");
    println!(
        "  commits             {} (rtm {}, stm {})",
        m.total(Counter::Commits),
        m.total(Counter::CommitsRtm),
        m.total(Counter::CommitsStm)
    );
    println!("  fallback executions {}", m.total(Counter::Fallbacks));
    let causes: Vec<String> = ABORTS_HTM
        .iter()
        .map(|&c| (c, m.total(c)))
        .filter(|&(_, n)| n > 0)
        .map(|(c, n)| format!("{} {n}", c.name()))
        .collect();
    println!(
        "  aborts by cause     {}",
        if causes.is_empty() {
            "none".into()
        } else {
            causes.join(", ")
        }
    );
}

fn main() {
    let rt = Runtime::new_concurrent_rtm();
    println!(
        "backend: {:?} (CPU reports RTM: {})\n",
        rt.backend(),
        eunomia::htm::hw_rtm_available()
    );

    // ---- raw regions: atomic transfers between cells -------------------
    let fallback = TxCell::new(0u64);
    // Start away from zero so the transfer arithmetic never saturates.
    let base = 1_000_000u64;
    let cells: Vec<TxCell<u64>> = (0..8).map(|_| TxCell::new(base)).collect();
    let iterations = 100_000u64;
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (rt, fallback, cells) = (&rt, &fallback, &cells);
            s.spawn(move || {
                let mut ctx = rt.thread(t);
                for i in 0..iterations {
                    let (a, b) = (&cells[(i % 8) as usize], &cells[((i + 1) % 8) as usize]);
                    ctx.htm_execute(fallback, &RetryPolicy::default(), |tx| {
                        // Atomically move a unit between two cells and
                        // mint one more.
                        let (va, vb) = (tx.read(a)?, tx.read(b)?);
                        tx.write(a, va + 2)?;
                        tx.write(b, vb - 1)
                    });
                }
            });
        }
    });
    let total: u64 = cells.iter().map(|c| c.load_plain()).sum();
    let expected = 8 * base + THREADS * iterations;
    report("cell transfers", &rt);
    println!("  net cell sum        {total} (expected {expected})\n");
    assert_eq!(total, expected, "transactions must not lose updates");

    // ---- real trees, disjoint key ranges ---------------------------------
    type Build = fn(&Arc<Runtime>) -> Box<dyn ConcurrentMap>;
    let trees: [(&str, Build); 3] = [
        ("HTM-B+Tree", |rt| {
            Box::new(HtmBTree::<16>::new(Arc::clone(rt)))
        }),
        ("Euno paper()", |rt| {
            Box::new(EunoBTreeDefault::with_config(
                Arc::clone(rt),
                EunoConfig::paper(),
            ))
        }),
        ("Euno default()", |rt| {
            Box::new(EunoBTreeDefault::new(Arc::clone(rt)))
        }),
    ];
    println!("two threads, disjoint 100 000-key ranges: conflict aborts per op (Mops/s wall)");
    println!("{:<16}{:>5}  {:>22}  {:>22}", "tree", "puts", "Rtm", "Stm");
    for (name, build) in trees {
        for put_pct in [100, 50, 0] {
            let cell = |rt: Arc<Runtime>| {
                let (conflicts, mops) = disjoint_ranges(&rt, &*build(&rt), put_pct);
                format!("{conflicts:>12.5} ({mops:>5.2})")
            };
            let (rtm, stm) = (
                cell(Runtime::new_concurrent_rtm()),
                cell(Runtime::new_concurrent()),
            );
            println!("{name:<16}{put_pct:>4}%  {rtm:>22}  {stm:>22}");
        }
    }
}

/// Preload both ranges, then run `OPS` operations a thread on its own
/// range; returns (conflict aborts per op, wall Mops/s) of the measured
/// part.
fn disjoint_ranges(rt: &Arc<Runtime>, tree: &dyn ConcurrentMap, put_pct: u64) -> (f64, f64) {
    const RANGE: u64 = 100_000;
    const OPS: u64 = 200_000;
    let mut ctx = rt.thread(7);
    for k in 0..THREADS * RANGE {
        tree.put(&mut ctx, k, k);
    }
    rt.reset_dynamics();
    let t0 = std::time::Instant::now();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                let mut ctx = rt.thread(100 + t);
                let mut x = 0x9E37_79B9_7F4A_7C15u64 ^ t;
                for i in 0..OPS {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let key = t * RANGE + x % RANGE;
                    if (x >> 32) % 100 < put_pct {
                        tree.put(&mut ctx, key, i);
                    } else {
                        tree.get(&mut ctx, key);
                    }
                }
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();
    let m = rt.metrics();
    let conflicts: u64 = AbortClass::ALL
        .iter()
        .filter(|c| c.is_conflict())
        .map(|c| m.total(ABORTS_HTM[c.index()]))
        .sum();
    let ops = (THREADS * OPS) as f64;
    (conflicts as f64 / ops, ops / secs / 1e6)
}
