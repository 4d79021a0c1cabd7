//! Figure 14 — adaptation timeline under a rotating Zipf hotspot
//! (ROADMAP item 4; DESIGN.md §14).
//!
//! Scenario: the measured run is split into `ROTATIONS` equal spans of
//! virtual time. Within each span every sampled key is shifted by a fixed
//! stride, so the Zipfian head — the hot leaves — jumps to a fresh region
//! of the key space at each boundary ("flash crowd"). The boundaries are
//! *programmed*: the first thread to cross one stamps a shift mark into
//! the metrics flip log at the exact boundary tick, and the CCM's
//! re-protect flips that follow give the run's **adaptation lag** — how
//! long the newly hot leaves stay on the bypass fast path (aborting) before
//! the per-leaf conflict window flips them back to protected mode.
//!
//! Because rotation is a pure function of the virtual clock, the schedule
//! stays deterministic: same seed, same timeline, same lags. The rotation
//! period is calibrated from an unrotated run of the same workload so the
//! shifts land inside the measured phase regardless of `EUNO_BENCH_SCALE`.
//!
//! Output: per-window throughput / abort-rate / fallback-rate / flip
//! curves on stdout, the adaptation-lag table per shift, and with `--csv`
//! the standard CSV + `BENCH_fig14.json` run report (whose `timeseries`
//! sections carry the full curves) plus a `<csv-stem>.jsonl` metrics
//! JSON-lines export of the Euno timeline.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use euno_bench::common::{emit, fig_config, Cli, Point, System};
use euno_htm::{CostModel, Runtime};
use euno_metrics::{adaptation_lags, Counter, TimeSeries};
use euno_sim::{
    apply_op, apply_warmup_op, metrics_jsonl, preload, RunConfig, RunMetrics, VirtualScheduler,
};
use euno_workloads::OpStream;
use euno_workloads::{Op, WorkloadSpec};

/// Spans of the timeline; `ROTATIONS - 1` programmed hotspot shifts.
const ROTATIONS: u64 = 4;

/// Shift every key by `offset` (mod the key range): the Zipfian head moves
/// to a fresh leaf region while the marginal key distribution — and thus
/// the tree shape the preload built — is unchanged.
fn rotate_op(op: Op, offset: u64, n: u64) -> Op {
    let rot = |k: u64| (k + offset) % n;
    match op {
        Op::Get { key } => Op::Get { key: rot(key) },
        Op::Put { key, value } => Op::Put {
            key: rot(key),
            value,
        },
        Op::Delete { key } => Op::Delete { key: rot(key) },
        Op::Scan { from, len } => Op::Scan {
            from: rot(from),
            len,
        },
    }
}

/// One virtual-mode run with the hotspot rotating every `period` cycles.
/// `period = u64::MAX` disables rotation (the calibration run).
fn run_rotating(system: System, spec: &WorkloadSpec, cfg: &RunConfig, period: u64) -> RunMetrics {
    let rt = Runtime::new_virtual();
    let map = system.build(&rt);
    preload(map.as_ref(), &rt, spec);
    rt.reset_dynamics();

    let mut sched = VirtualScheduler::new(Arc::clone(&rt));
    if cfg.sample_every > 0 {
        let cap = match cfg.sample_capacity {
            0 => TimeSeries::DEFAULT_CAPACITY,
            c => c,
        };
        sched.set_sampling(cfg.sample_every, cap);
    }
    let stride = spec.key_range / ROTATIONS;
    // Boundary crossings already stamped into the flip log. Shared so each
    // programmed shift is marked exactly once, at its exact boundary tick,
    // by whichever thread crosses it first (deterministic under the
    // lowest-clock-first scheduler).
    let marked = Arc::new(AtomicU64::new(0));
    for t in 0..cfg.threads {
        let mut stream = OpStream::new(spec, t as u64, cfg.seed);
        let mut scan_buf: Vec<(u64, u64)> = Vec::new();
        let mut warmup_left = cfg.warmup_ops;
        let mut left = cfg.ops_per_thread;
        let map_ref = map.as_ref();
        let rt = Arc::clone(&rt);
        let marked = Arc::clone(&marked);
        sched.add_thread(
            cfg.seed.wrapping_add(t as u64),
            Box::new(move |ctx| {
                let r = if period == u64::MAX {
                    0
                } else {
                    (ctx.clock / period).min(ROTATIONS - 1)
                };
                let mut seen = marked.load(Ordering::Relaxed);
                while seen < r {
                    match marked.compare_exchange(
                        seen,
                        seen + 1,
                        Ordering::Relaxed,
                        Ordering::Relaxed,
                    ) {
                        Ok(_) => {
                            rt.metrics().mark_shift((seen + 1) * period);
                            seen += 1;
                        }
                        Err(cur) => seen = cur,
                    }
                }
                if warmup_left > 0 {
                    warmup_left -= 1;
                    let op = rotate_op(stream.next_op(), r * stride, spec.key_range);
                    apply_warmup_op(map_ref, ctx, op, &mut scan_buf);
                    if warmup_left == 0 {
                        ctx.stats.measure_start_cycles = Some(ctx.clock);
                    }
                    return true;
                }
                if left == 0 {
                    return false;
                }
                left -= 1;
                let op = rotate_op(stream.next_op(), r * stride, spec.key_range);
                apply_op(map_ref, ctx, op, &mut scan_buf);
                true
            }),
        );
    }
    let m = sched.run();
    rt.epoch().collect();
    rt.epoch().collect();
    m
}

/// Whole-run makespan in cycles (warmup included), reconstructed from the
/// measured span and the earliest warmup-exit mark.
fn makespan_cycles(m: &RunMetrics, cost: &CostModel) -> u64 {
    let span = (m.elapsed_secs / cost.cycles_to_secs(1)).round() as u64;
    m.stats.measure_start_cycles.unwrap_or(0) + span
}

fn main() {
    let cli = Cli::parse();
    let mut spec = cli.spec(cli.theta(0.95));
    // Small enough that the Zipfian head concentrates on a handful of
    // leaves (so rotation visibly moves the contention), large enough that
    // the four rotated regions do not overlap leaves.
    spec.key_range = 32_768;
    cli.shrink(&mut spec);

    let mut cfg = fig_config(0x00F1_6144, 12_000);
    cli.apply(&mut cfg);
    // A figure about transient response wants the transients: keep warmup
    // just long enough to shape the hot leaves, so the rotation spans are
    // dominated by measured windows instead of warmup dead time.
    cfg.warmup_ops = (cfg.ops_per_thread / 8).max(200);

    // Calibrate: an unrotated run of the same workload fixes the virtual
    // makespan, so the rotation period adapts to `EUNO_BENCH_SCALE` and
    // flag overrides while the measured run stays fully deterministic.
    let cost = CostModel::default();
    let calib = run_rotating(System::EunoBTree, &spec, &cfg, u64::MAX);
    let period = (makespan_cycles(&calib, &cost) / ROTATIONS).max(1);
    // ~8 samples per rotation span: enough resolution to see the abort
    // spike and the flip answer it, few enough to eyeball on stdout.
    cfg.sample_every = (period / 8).max(1);
    // Default ring capacity (256): the baseline tree is several times
    // slower than the calibrating Euno run, so its timeline has several
    // times the windows; the ring must hold them all.
    cfg.sample_capacity = 0;

    println!(
        "== Figure 14: rotating-hotspot timeline, {} threads, {} keys, \
         period {} cycles, {} shifts ==",
        cfg.threads,
        spec.key_range,
        period,
        ROTATIONS - 1
    );

    let mut all = Vec::new();
    let mut euno_jsonl: Option<String> = None;
    for system in [System::EunoBTree, System::HtmBTree] {
        let mut m = run_rotating(system, &spec, &cfg, period);
        cli.post_cell(&mut m);

        println!("\n-- {} --", system.label());
        println!(
            "{:>12} {:>9} {:>10} {:>10} {:>7}",
            "tick", "Mops/s", "aborts/op", "fb/op", "flips"
        );
        if let Some(ts) = &m.timeseries {
            for w in ts.windows() {
                let ops = w.counter(Counter::Ops).max(1) as f64;
                let secs = cost.cycles_to_secs(w.span());
                let aborts: u64 = euno_metrics::ABORTS_HTM.iter().map(|c| w.counter(*c)).sum();
                println!(
                    "{:>12} {:>9.2} {:>10.3} {:>10.4} {:>7}",
                    w.t1,
                    w.counter(Counter::Ops) as f64 / secs / 1e6,
                    aborts as f64 / ops,
                    w.counter(Counter::Fallbacks) as f64 / ops,
                    w.flip_events,
                );
            }
        }
        let lags = adaptation_lags(&m.flips);
        let mut point = Point::new(system, "timeline", &spec, &cfg, m.clone());
        if !lags.is_empty() {
            println!("   adaptation lag per programmed shift:");
            for l in &lags {
                match l.lag {
                    Some(lag) => println!(
                        "     shift @{:>12} -> re-protect @{:>12}  lag {:>9} cycles",
                        l.shift_tick,
                        l.flip_tick.unwrap(),
                        lag
                    ),
                    None => println!(
                        "     shift @{:>12} -> no re-protect flip before next shift",
                        l.shift_tick
                    ),
                }
            }
            let answered: Vec<u64> = lags.iter().filter_map(|l| l.lag).collect();
            if !answered.is_empty() {
                let mean = answered.iter().sum::<u64>() as f64 / answered.len() as f64;
                let max = *answered.iter().max().unwrap();
                println!(
                    "     answered {}/{} shifts, mean lag {:.0} cycles, max {}",
                    answered.len(),
                    lags.len(),
                    mean,
                    max
                );
                point = point
                    .with_extra("adaptation_shifts", lags.len() as f64)
                    .with_extra("adaptation_answered", answered.len() as f64)
                    .with_extra("adaptation_mean_lag_cycles", mean)
                    .with_extra("adaptation_max_lag_cycles", max as f64);
            }
        }
        if system == System::EunoBTree {
            if let Some(ts) = &point.metrics.timeseries {
                euno_jsonl = Some(metrics_jsonl(
                    ts,
                    &point.metrics.flips,
                    point.metrics.tick_unit,
                ));
            }
        }
        all.push(point);
    }

    if let Some(csv) = &cli.csv {
        emit(
            "fig14",
            "Figure 14: adaptation timeline under a rotating Zipf hotspot",
            csv,
            &all,
        )
        .unwrap();
        if let Some(jsonl) = euno_jsonl {
            let path = format!("{}.jsonl", csv.trim_end_matches(".csv"));
            euno_trace_write(&path, &jsonl);
        }
    }
}

fn euno_trace_write(path: &str, text: &str) {
    if let Err(e) = std::fs::write(path, text) {
        eprintln!("FAIL writing {path}: {e}");
        std::process::exit(1);
    }
    eprintln!("wrote {path}");
}
