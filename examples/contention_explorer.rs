//! Contention explorer: run any of the four systems under a configurable
//! YCSB-style workload on the virtual-time scheduler and print the full
//! metric set — an interactive version of the paper's Figure 8/10 cells.
//!
//! ```sh
//! cargo run --release --example contention_explorer -- \
//!     --system euno --theta 0.9 --threads 16 --ops 20000 --get 0.5
//! ```

use std::sync::Arc;

use eunomia::htm::AbortClass;
use eunomia::prelude::*;

struct Args {
    system: String,
    theta: f64,
    threads: usize,
    ops: u64,
    get: f64,
    keys: u64,
}

fn parse_args() -> Args {
    let mut a = Args {
        system: "euno".into(),
        theta: 0.9,
        threads: 16,
        ops: 20_000,
        get: 0.5,
        keys: 1_000_000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || it.next().expect("flag needs a value");
        match flag.as_str() {
            "--system" => a.system = val(),
            "--theta" => a.theta = val().parse().unwrap(),
            "--threads" => a.threads = val().parse().unwrap(),
            "--ops" => a.ops = val().parse().unwrap(),
            "--get" => a.get = val().parse().unwrap(),
            "--keys" => a.keys = val().parse().unwrap(),
            other => {
                eprintln!("unknown flag {other}; flags: --system euno|htm|masstree|htm-masstree --theta F --threads N --ops N --get F --keys N");
                std::process::exit(2);
            }
        }
    }
    a
}

fn main() {
    let a = parse_args();
    let rt = Runtime::new_virtual();
    let map: Box<dyn ConcurrentMap> = match a.system.as_str() {
        "euno" => Box::new(EunoBTreeDefault::new(Arc::clone(&rt))),
        "htm" => Box::new(HtmBTree::<16>::new(Arc::clone(&rt))),
        "masstree" => Box::new(Masstree::new(Arc::clone(&rt))),
        "htm-masstree" => Box::new(HtmMasstree::new(Arc::clone(&rt))),
        other => {
            eprintln!("unknown system {other}");
            std::process::exit(2);
        }
    };

    let spec = WorkloadSpec {
        key_range: a.keys,
        mix: OpMix::get_put(a.get),
        ..WorkloadSpec::paper_default(a.theta)
    };
    eprintln!(
        "preloading {} keys into {} …",
        spec.preload_keys().count(),
        map.name()
    );
    preload(map.as_ref(), &rt, &spec);
    rt.reset_dynamics();

    let cfg = RunConfig {
        threads: a.threads,
        ops_per_thread: a.ops,
        seed: 7,
        warmup_ops: (a.ops / 5).max(4_000),
        ..RunConfig::default()
    };
    let m = run_virtual(map.as_ref(), &rt, &spec, &cfg);

    println!("\nsystem          {}", map.name());
    println!(
        "workload        zipfian θ={} | {:.0}% get | {} threads | {} ops/thread",
        a.theta,
        a.get * 100.0,
        a.threads,
        a.ops
    );
    println!(
        "throughput      {:.2} Mops/s (virtual 2.3 GHz × {} cores)",
        m.mops(),
        a.threads
    );
    println!("aborts/op       {:.4}", m.aborts_per_op);
    println!(
        "  true same-record    {:>10}",
        m.stats.aborts[AbortClass::TrueSameRecord]
    );
    println!(
        "  false diff-record   {:>10}",
        m.stats.aborts[AbortClass::FalseDifferentRecord]
    );
    println!(
        "  false metadata      {:>10}",
        m.stats.aborts[AbortClass::FalseMetadata]
    );
    println!(
        "  false structure     {:>10}",
        m.stats.aborts[AbortClass::FalseStructure]
    );
    println!(
        "  capacity/spurious   {:>10}",
        m.stats.aborts[AbortClass::Capacity] + m.stats.aborts[AbortClass::Spurious]
    );
    println!(
        "  fallback-locked     {:>10}",
        m.stats.aborts[AbortClass::FallbackLocked]
    );
    println!("wasted cycles   {:.1}%", 100.0 * m.wasted_cycle_fraction);
    println!("accesses/op     {:.1}", m.accesses_per_op);
    println!("fallbacks/op    {:.5}", m.fallbacks_per_op);
    println!("lock-wait       {} cycles total", m.stats.cycles_lock_wait);
    println!(
        "optimistic-retries/op {:.4}",
        m.stats.optimistic_retries as f64 / m.total_ops.max(1) as f64
    );
}
