//! engine_bench — wall-clock throughput of the episode machinery itself.
//!
//! Every figure measures *virtual* time, which is deterministic by
//! construction and therefore blind to the real cost of running the
//! engine: allocation per attempt, registry locking per access, window
//! scans per commit. This binary times the engine with a wall clock so
//! hot-path work is measurable and regressions are arguable with numbers.
//!
//! Scenarios (rows), each at 1 and 4 threads (suffix):
//!
//! * `private`  — every thread read-modify-writes its own padded cell:
//!   the always-commit hit path (begin/access/commit, no conflicts).
//! * `shared-read` — read-only transactions over a shared block of lines:
//!   read-set growth plus commit-time window checks, still no aborts.
//! * `hot`      — all threads RMW one cell: the contended path (aborts,
//!   backoff, fallback serialization, storm extrapolation).
//! * `tree`     — Euno-B+Tree under the paper's Zipfian θ=0.9 workload:
//!   the full engine driven by a real tree (virtual mode only).
//!
//! The backend axis: `engine-virtual` rows drive logical threads through
//! the deterministic scheduler and time the simulation's wall clock;
//! `engine-stm` rows use real OS threads through the TL2-style software
//! transactions; `engine-rtm` rows (shown only when the CPU exposes Intel
//! RTM) elide on genuine hardware transactions. Throughput in the emitted report is episodes (or tree
//! ops) per *wall* second.
//!
//! Usage: `engine_bench [--csv results/engine.csv] [--ops <per-thread>]
//! [--only <substr>]` — `--only` restricts to rows whose label contains
//! the substring, e.g. `--only tree/t1` for a profiling run.
//! (`EUNO_BENCH_SCALE` scales default budgets as everywhere else).

use std::sync::Arc;
use std::time::Instant;

use euno_bench::common::{emit, print_table, scaled, Cli, Point, System};
use euno_htm::{Backend, RetryPolicy, Runtime, ThreadCtx, TxCell};
use euno_metrics::LogHistogram;
use euno_sim::{preload, run_virtual, RunConfig, RunMetrics, VirtualScheduler};
use euno_workloads::{Preload, WorkloadSpec};

/// One counter per cache line so the `private` scenario is conflict-free.
#[repr(align(64))]
struct PaddedCell(TxCell<u64>);

struct Arena {
    fb: TxCell<u64>,
    cells: Vec<PaddedCell>,
}

const SHARED_READ_LINES: usize = 4;

impl Arena {
    fn new(n: usize) -> Self {
        Arena {
            fb: TxCell::new(0),
            cells: (0..n).map(|_| PaddedCell(TxCell::new(0))).collect(),
        }
    }

    /// One episode: transactional RMW of cell `i`.
    fn bump(&self, ctx: &mut ThreadCtx, i: usize) {
        ctx.htm_execute(&self.fb, &RetryPolicy::default(), |tx| {
            let v = tx.read(&self.cells[i].0)?;
            tx.write(&self.cells[i].0, v + 1)
        });
        ctx.stats.ops += 1;
    }

    /// One episode: read-only transaction over the first few cells.
    fn scan_shared(&self, ctx: &mut ThreadCtx) {
        ctx.htm_execute(&self.fb, &RetryPolicy::default(), |tx| {
            let mut acc = 0u64;
            for c in &self.cells[..SHARED_READ_LINES] {
                acc = acc.wrapping_add(tx.read(&c.0)?);
            }
            Ok(acc)
        });
        ctx.stats.ops += 1;
    }
}

#[derive(Clone, Copy, PartialEq)]
enum Scenario {
    Private,
    SharedRead,
    Hot,
}

impl Scenario {
    fn label(self) -> &'static str {
        match self {
            Scenario::Private => "private",
            Scenario::SharedRead => "shared-read",
            Scenario::Hot => "hot",
        }
    }

    fn run_episode(self, arena: &Arena, ctx: &mut ThreadCtx, thread: usize) {
        match self {
            Scenario::Private => arena.bump(ctx, SHARED_READ_LINES + thread),
            Scenario::SharedRead => arena.scan_shared(ctx),
            Scenario::Hot => arena.bump(ctx, SHARED_READ_LINES),
        }
    }
}

/// Provenance stub for the raw-episode scenarios: there is no YCSB
/// workload behind them, but the report schema wants a spec, so describe
/// the arena honestly (uniform over `cells` keys, nothing preloaded).
fn raw_spec(cells: usize) -> WorkloadSpec {
    let mut spec = WorkloadSpec::paper_default(0.0);
    spec.key_range = cells as u64;
    spec.preload = Preload::None;
    spec
}

fn raw_config(threads: usize, ops: u64, seed: u64) -> RunConfig {
    RunConfig {
        threads,
        ops_per_thread: ops,
        seed,
        warmup_ops: 0,
        ..RunConfig::default()
    }
}

/// Drive `threads` logical threads of `ops` episodes each through the
/// deterministic scheduler; wall-clock the whole simulation.
fn run_raw_virtual(scenario: Scenario, threads: usize, ops: u64, seed: u64) -> RunMetrics {
    let rt = Runtime::new_virtual();
    let arena = Arc::new(Arena::new(SHARED_READ_LINES + threads));
    let mut sched = VirtualScheduler::new(Arc::clone(&rt));
    for t in 0..threads {
        let a = Arc::clone(&arena);
        let mut left = ops;
        sched.add_thread(
            seed.wrapping_add(t as u64),
            Box::new(move |ctx| {
                if left == 0 {
                    return false;
                }
                left -= 1;
                scenario.run_episode(&a, ctx, t);
                true
            }),
        );
    }
    let t0 = Instant::now();
    let m = sched.run();
    let wall = t0.elapsed().as_secs_f64();
    RunMetrics::from_wall(m.stats, m.threads, m.stages, wall, m.latency)
}

/// Same scenarios on real OS threads: TL2-style software transactions
/// ([`Backend::Stm`]) or hardware lock elision ([`Backend::Rtm`],
/// meaningful only when `euno_htm::hw_rtm_available()`).
fn run_raw_concurrent(
    scenario: Scenario,
    threads: usize,
    ops: u64,
    seed: u64,
    backend: Backend,
) -> RunMetrics {
    let rt = Runtime::new(backend, euno_htm::CostModel::default());
    let arena = Arc::new(Arena::new(SHARED_READ_LINES + threads));
    let barrier = std::sync::Barrier::new(threads);
    // Each worker stamps its own start/end around the measured loop; the
    // run's wall time is max(end) - min(start).  Stamping from the main
    // thread after its own barrier.wait() is racy: the scheduler may run
    // every worker to completion first (observed on single-CPU hosts at
    // smoke sizes), inflating throughput by orders of magnitude.
    type WorkerOut = (
        euno_htm::ThreadStats,
        euno_metrics::ExecStages,
        LogHistogram,
        Instant,
        Instant,
    );
    let results: Vec<WorkerOut> = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for t in 0..threads {
            let rt = Arc::clone(&rt);
            let arena = Arc::clone(&arena);
            let barrier = &barrier;
            handles.push(s.spawn(move || {
                let mut ctx = rt.thread(seed.wrapping_add(t as u64));
                let mut latency = LogHistogram::new();
                barrier.wait();
                let start = Instant::now();
                for _ in 0..ops {
                    let before = ctx.clock;
                    scenario.run_episode(&arena, &mut ctx, t);
                    latency.record(ctx.clock - before);
                }
                let end = Instant::now();
                ctx.finish();
                let stages = ctx.exec_stages();
                (ctx.stats, stages, latency, start, end)
            }));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let start = results.iter().map(|r| r.3).min().expect("threads >= 1");
    let end = results.iter().map(|r| r.4).max().expect("threads >= 1");
    let wall = (end - start).as_secs_f64();
    let mut latency = LogHistogram::new();
    let mut stats = euno_htm::ThreadStats::default();
    let mut stages = euno_metrics::ExecStages::default();
    for (s, st, hist, _, _) in results {
        latency.merge(&hist);
        stats.merge(&s);
        stages.merge(&st);
    }
    RunMetrics::from_wall(stats, threads, stages, wall, latency)
}

/// The full engine under a real tree and the paper's skewed workload,
/// wall-clocked over the measured phase only (build + preload excluded).
fn run_tree_virtual(threads: usize, ops: u64, seed: u64) -> (WorkloadSpec, RunConfig, RunMetrics) {
    let mut spec = WorkloadSpec::paper_default(0.9);
    spec.key_range = 50_000;
    let cfg = RunConfig {
        threads,
        ops_per_thread: ops,
        seed,
        warmup_ops: 500,
        ..RunConfig::default()
    };
    let rt = Runtime::new_virtual();
    let map = System::EunoBTree.build(&rt);
    preload(map.as_ref(), &rt, &spec);
    rt.reset_dynamics();
    let t0 = Instant::now();
    let m = run_virtual(map.as_ref(), &rt, &spec, &cfg);
    let wall = t0.elapsed().as_secs_f64();
    let metrics = RunMetrics::from_wall(m.stats, m.threads, m.stages, wall, m.latency);
    (spec, cfg, metrics)
}

fn main() {
    let cli = Cli::parse(&["--csv", "--only"], &[]);
    let seed = 0xe9_61_7e;
    let raw_ops = cli.ops_override.unwrap_or_else(|| scaled(200_000));
    let tree_ops = cli.ops_override.unwrap_or_else(|| scaled(20_000));
    let thread_counts = [1usize, 4];
    let want = |x: &str| cli.only.as_deref().is_none_or(|o| x.contains(o));

    let mut points: Vec<Point> = Vec::new();
    for &threads in &thread_counts {
        for scenario in [Scenario::Private, Scenario::SharedRead, Scenario::Hot] {
            let x = format!("{}/t{}", scenario.label(), threads);
            if !want(&x) {
                continue;
            }
            let m = run_raw_virtual(scenario, threads, raw_ops, seed);
            points.push(Point {
                system: "engine-virtual",
                x: x.clone(),
                spec: raw_spec(SHARED_READ_LINES + threads),
                cfg: raw_config(threads, raw_ops, seed),
                metrics: m,
                extra: Vec::new(),
            });
            // The contended concurrent scenario burns real spin time per
            // episode; a smaller budget keeps the default run snappy.
            let c_ops = if scenario == Scenario::Hot {
                raw_ops / 4
            } else {
                raw_ops
            }
            .max(1_000);
            let m = run_raw_concurrent(scenario, threads, c_ops, seed, Backend::Stm);
            points.push(Point {
                system: "engine-stm",
                x: x.clone(),
                spec: raw_spec(SHARED_READ_LINES + threads),
                cfg: raw_config(threads, c_ops, seed),
                metrics: m,
                extra: Vec::new(),
            });
            if euno_htm::hw_rtm_available() {
                let m = run_raw_concurrent(scenario, threads, c_ops, seed, Backend::Rtm);
                points.push(Point {
                    system: "engine-rtm",
                    x,
                    spec: raw_spec(SHARED_READ_LINES + threads),
                    cfg: raw_config(threads, c_ops, seed),
                    metrics: m,
                    extra: Vec::new(),
                });
            }
        }
        let x = format!("tree/t{threads}");
        if want(&x) {
            let (spec, cfg, m) = run_tree_virtual(threads, tree_ops, seed);
            points.push(Point {
                system: "engine-virtual",
                x,
                spec,
                cfg,
                metrics: m,
                extra: Vec::new(),
            });
        }
    }

    if !euno_htm::hw_rtm_available() {
        eprintln!("note: engine-rtm rows skipped (CPU lacks RTM)");
    }

    print_table(
        "Engine wall-clock throughput",
        &points,
        "episodes/sec (wall)",
        |m| m.throughput,
    );
    if let Some(csv) = &cli.csv {
        if let Err(e) = emit(
            "engine",
            "Engine wall-clock episode throughput (hit/read/conflict mixes + tree workload)",
            csv,
            &points,
        ) {
            eprintln!("FAIL emitting engine report: {e}");
            std::process::exit(1);
        }
    }
}
