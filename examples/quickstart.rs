//! Quickstart: build an Euno-B+Tree, use it as an ordered key-value map,
//! and peek at the HTM statistics the engine collects.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use std::sync::Arc;

use eunomia::htm::euno_metrics::Counter;
use eunomia::prelude::*;

fn main() {
    // A virtual-time runtime: deterministic, cycle-accounted execution
    // (use `Runtime::new_concurrent()` for real OS threads instead).
    let rt = Runtime::new_virtual();
    let tree = EunoBTreeDefault::new(Arc::clone(&rt));
    let mut ctx = rt.thread(42);

    // Point operations.
    assert_eq!(tree.put(&mut ctx, 7, 700), None);
    assert_eq!(tree.put(&mut ctx, 3, 300), None);
    assert_eq!(tree.put(&mut ctx, 7, 701), Some(700), "update returns old");
    assert_eq!(tree.get(&mut ctx, 3), Some(300));
    assert_eq!(tree.get(&mut ctx, 99), None);
    assert_eq!(tree.delete(&mut ctx, 3), Some(300));
    assert_eq!(tree.get(&mut ctx, 3), None);

    // Bulk load and an ordered range scan.
    for k in 0..10_000u64 {
        tree.put(&mut ctx, k, k * k);
    }
    let mut out = Vec::new();
    tree.scan(&mut ctx, 5_000, 5, &mut out);
    println!("scan from 5000: {out:?}");
    assert_eq!(out[0], (5_000, 5_000 * 5_000));

    // The engine accounts everything the paper measures: every count
    // (commits, aborts by class, fallbacks, …) on the thread's shard of
    // the always-on metrics registry, the cycle books in `ctx.stats`.
    let commits = ctx.metric(Counter::Commits);
    println!(
        "htm-commits={} aborts={} fallbacks={} mem-accesses/commit={:.1} virtual-cycles={}",
        commits,
        ctx.counts().aborts(),
        ctx.metric(Counter::Fallbacks),
        ctx.stats.mem_accesses as f64 / commits.max(1) as f64,
        ctx.clock,
    );
    let mem = tree.memory();
    println!(
        "memory: structural={}B ccm={}B reserved-peak={}B (aux overhead {:.2}%)",
        mem.structural_bytes,
        mem.ccm_bytes,
        mem.reserved_peak_bytes,
        100.0 * mem.overhead_fraction()
    );
}
