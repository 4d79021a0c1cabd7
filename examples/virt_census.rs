//! The census of a `virt-*` benchmark run: the run's gated end-to-end
//! cells, every counter the tree's runtime kept, per operation — the
//! leaf-hint probes split into hits, stale entries and misses among them —
//! and each operation kind's mean and latency tail, over the very schedule
//! that `benchmark/run.sh --workload <w> --seed <s> --seconds <n>`
//! measures. The benchmark's generator and virtual pass are compiled in
//! from `benchmark/src`, not copied, so the throughput, latencies and
//! bytes per key printed first are the benchmark's `throughput_ops_s`,
//! `lat_p50_ns`, `lat_p99_ns`, `lat_p999_ns` and `mem_bytes_per_key` bit
//! for bit (its `setup_s` is wall time, and not here); if they differ,
//! this file has drifted from the benchmark.
//!
//! ```sh
//! cargo run --release --example virt_census -- virt-hot 1      # --seconds 10
//! cargo run --release --example virt_census -- virt-flat 3 2
//! ```
//!
//! Counts run from the end of the preload (where the benchmark resets the
//! runtime's totals) to the last operation, warm-up included: 16 threads ×
//! 5 500 operations a second of `--seconds`.

use std::sync::Arc;

use euno_core::{EunoBTreeDefault, EunoConfig};
use euno_htm::euno_metrics::Counter;
use euno_htm::{ConcurrentMap, Runtime};

// The benchmark's virtual pass and what it needs, as the benchmark builds
// them (it is a package of its own, outside the workspace).
#[allow(dead_code, unused_imports, clippy::all)]
#[path = "../benchmark/src/check.rs"]
mod check;
#[allow(dead_code, unused_imports, clippy::all)]
#[path = "../benchmark/src/counters.rs"]
mod counters;
#[allow(dead_code, unused_imports, clippy::all)]
#[path = "../benchmark/src/gen.rs"]
mod gen;
#[allow(dead_code, unused_imports, clippy::all)]
#[path = "../benchmark/src/hist.rs"]
mod hist;
#[allow(dead_code, unused_imports, clippy::all)]
#[path = "../benchmark/src/probe.rs"]
mod probe;
#[allow(dead_code, unused_imports, clippy::all)]
#[path = "../benchmark/src/span.rs"]
mod span;
#[allow(dead_code, unused_imports, clippy::all)]
#[path = "../benchmark/src/virt.rs"]
mod virt;

use gen::Traffic;

/// Ops a logical thread's stream holds; a longer run wraps around it.
const STREAM_LEN: usize = 1 << 16;

const USAGE: &str = "usage: virt_census <virt-hot|virt-flat|virt-scan-churn> <seed> [seconds]";

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let traffic = match args.first().map(String::as_str) {
        Some("virt-hot") => Traffic::Hot,
        Some("virt-flat") => Traffic::Flat,
        Some("virt-scan-churn") => Traffic::ScanChurn,
        _ => exit_usage(),
    };
    let number = |i: usize, default: Option<u64>| match args.get(i) {
        Some(arg) => arg.parse().unwrap_or_else(|_| exit_usage()),
        None => default.unwrap_or_else(|| exit_usage()),
    };
    let (seed, seconds) = (number(1, None), number(2, Some(10)));
    if args.len() > 3 || seconds == 0 {
        exit_usage();
    }

    let streams = traffic.streams(seed, virt::THREADS, STREAM_LEN);
    let rt = Runtime::new_virtual();
    let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), EunoConfig::default());
    virt::preload_even(&tree, &rt, None);
    let (warm, measured) = (
        virt::WARMUP_PER_SECOND * seconds,
        virt::MEASURED_PER_SECOND * seconds,
    );
    // Traced: a span per measured op gives each kind's exact mean. Spans
    // read the clock and charge nothing, so the schedule is the untraced
    // one the benchmark gates.
    let pass = virt::run_pass(&tree, &rt, &streams, seed, warm, measured, true);

    let ops = (warm + measured) * virt::THREADS as u64;
    let ns_per_cycle = 1e9 / rt.cost.freq_hz;
    let mem_bytes_per_key =
        tree.memory().total_live() as f64 / tree.stats().live_records.max(1) as f64;
    println!(
        "{} seed {seed} --seconds {seconds}: failed {}",
        args[0], pass.failed
    );
    println!("  throughput_ops_s {}", pass.throughput);
    for (name, q) in [("p50", 0.5), ("p99", 0.99), ("p999", 0.999)] {
        println!("  lat_{name}_ns {}", pass.lat.quantile(q) * ns_per_cycle);
    }
    println!("  mem_bytes_per_key {mem_bytes_per_key}");
    let total = |c: Counter| rt.metrics().total(c);
    println!("  contention_splits {}", total(Counter::ContentionSplits));
    println!("measured latency by kind, cycles (op overhead included):");
    for ((name, span), lat) in ["get", "put", "delete", "scan"]
        .iter()
        .zip(virt::OP_SPAN_NAMES)
        .zip(&pass.lat_kind)
    {
        if lat.count() > 0 {
            let cycles: u64 = pass
                .spans
                .iter()
                .filter(|s| s.name == span)
                .map(|s| s.end - s.start)
                .sum();
            println!(
                "  {name:<7} {:>7} ops  mean {:>7.1}  p50 {:>6.0}  p99 {:>6.0}  p999 {:>6.0}  max {:>7}",
                lat.count(),
                cycles as f64 / lat.count() as f64,
                lat.quantile(0.5),
                lat.quantile(0.99),
                lat.quantile(0.999),
                lat.max()
            );
        }
    }
    let probes: u64 = [
        Counter::LeafHintHits,
        Counter::LeafHintStale,
        Counter::LeafHintMiss,
    ]
    .map(total)
    .iter()
    .sum();
    println!("counters over {ops} ops, warm-up included: total, per op");
    println!(
        "  {:<34} {probes:>9}  {:.4}",
        "leaf_hint_probes",
        probes as f64 / ops as f64
    );
    for c in Counter::ALL.into_iter().filter(|&c| total(c) > 0) {
        let n = total(c);
        println!("  {:<34} {n:>9}  {:.4}", c.name(), n as f64 / ops as f64);
    }
}

fn exit_usage() -> ! {
    eprintln!("{USAGE}");
    std::process::exit(2)
}
