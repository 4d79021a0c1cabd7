//! The full YCSB core suite (workloads A–F) over the four §5.1 trees
//! plus the read-optimized Euno variant — the library-level benchmark a
//! downstream key-value-store user would run, extending the paper's
//! 50/50 sweep to the standard mixes, with latency quantiles from the
//! virtual-time histogram. The read-mostly rows (B: 95 % reads, C: 100 %
//! reads) are where Euno-ReadOpt's episode-free gets pay off.
//!
//! ```sh
//! cargo run --release -p euno-bench --bin ycsb_suite [-- --theta 0.9]
//! ```

use std::sync::Arc;

use euno_bench::common::{emit, fig_config, Cli, Point, System};
use euno_htm::{ConcurrentMap, Runtime, ThreadCtx};
use euno_sim::{preload, RunConfig, VirtualScheduler};
use euno_workloads::{Op, WorkloadSpec, YcsbOp, YcsbStream, YcsbWorkload};

fn run_ycsb(
    system: System,
    workload: YcsbWorkload,
    theta: f64,
    cli: &Cli,
    cfg: &RunConfig,
) -> (euno_sim::RunMetrics, WorkloadSpec) {
    let rt = Runtime::new_virtual();
    let map = system.build(&rt);
    let mut spec = workload.spec(200_000, theta);
    cli.shrink(&mut spec.base);
    preload(map.as_ref(), &rt, &spec.base);
    rt.reset_dynamics();

    let mut sched = VirtualScheduler::new(Arc::clone(&rt));
    if let Some(cap) = cfg.effective_trace_capacity() {
        sched.set_trace_capacity(cap);
    }
    for t in 0..cfg.threads {
        let mut stream = YcsbStream::new(&spec, t as u64, cfg.threads as u64, cfg.seed);
        let mut warmup = cfg.warmup_ops;
        let mut left = cfg.ops_per_thread;
        let map_ref: &dyn ConcurrentMap = map.as_ref();
        let mut scan_buf: Vec<(u64, u64)> = Vec::new();
        sched.add_thread(
            cfg.seed + t as u64,
            Box::new(move |ctx: &mut ThreadCtx| {
                let measuring = warmup == 0;
                if warmup > 0 {
                    warmup -= 1;
                    if warmup == 0 {
                        ctx.stats.measure_start_cycles = Some(ctx.clock);
                    }
                } else if left == 0 {
                    return false;
                } else {
                    left -= 1;
                }
                let saved = (!measuring).then(|| ctx.stats.clone());
                ctx.charge(ctx.runtime().cost.op_overhead);
                match stream.next_op() {
                    YcsbOp::Simple(Op::Get { key }) => {
                        map_ref.get(ctx, key);
                    }
                    YcsbOp::Simple(Op::Put { key, value }) => {
                        map_ref.put(ctx, key, value);
                    }
                    YcsbOp::Simple(Op::Delete { key }) => {
                        map_ref.delete(ctx, key);
                    }
                    YcsbOp::Simple(Op::Scan { from, len }) => {
                        scan_buf.clear();
                        map_ref.scan(ctx, from, len, &mut scan_buf);
                    }
                    YcsbOp::ReadModifyWrite { key, delta } => {
                        // Composite: read the value, derive, write back.
                        let v = map_ref.get(ctx, key).unwrap_or(0);
                        map_ref.put(ctx, key, (v + delta) & 0x7fff_ffff_ffff_ffff);
                    }
                }
                if let Some(saved) = saved {
                    ctx.stats = saved;
                } else {
                    ctx.stats.ops += 1;
                }
                true
            }),
        );
    }
    let mut m = sched.run();
    euno_sim::attach_profile(&mut m, &rt, cfg);
    cli.post_cell(&mut m);
    (m, spec.base)
}

fn main() {
    let cli = Cli::parse();
    let theta = cli.theta(0.9);
    let mut cfg = fig_config(0x4C5B, 10_000);
    cli.apply(&mut cfg);

    println!(
        "== YCSB core suite, θ={theta}, {} virtual threads ==\n",
        cfg.threads
    );
    let mut points = Vec::new();
    for workload in YcsbWorkload::ALL {
        println!("{}", workload.label());
        println!(
            "  {:<14} {:>9} {:>11} {:>9} {:>9} {:>10}",
            "system", "Mops/s", "aborts/op", "p50", "p99", "p99.9"
        );
        for system in System::MAIN_FIVE {
            let (m, base) = run_ycsb(system, workload, theta, &cli, &cfg);
            println!(
                "  {:<14} {:>9.2} {:>11.4} {:>9} {:>9} {:>10}",
                system.label(),
                m.mops(),
                m.aborts_per_op,
                m.latency.quantile(0.50),
                m.latency.quantile(0.99),
                m.latency.quantile(0.999),
            );
            points.push(Point::new(system, workload.label(), &base, &cfg, m));
        }
        println!();
    }
    if let Some(csv) = &cli.csv {
        emit("ycsb", "YCSB core suite A-F, all systems", csv, &points).unwrap();
    }
}
