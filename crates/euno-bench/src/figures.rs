//! The paper's evaluation (§5) as one table. Each [`Figure`] is one CSV
//! and one run report the `figures` binary regenerates: its stem, report
//! id, title, seed, op budget and shape. Eight are plain sweeps —
//! systems × an axis, run by one helper; four keep a body of their own:
//! Figure 14's calibrated rotation, §5.7's churn phases, the cost-model
//! sweeps and YCSB's composite operations. All of them drive their
//! logical threads through `euno_sim::run_ops`.

use std::cell::Cell;

use euno_htm::{Backend, CostModel, Runtime, ThreadCtx};
use euno_metrics::{adaptation_lags, AbortClass, Counter, ABORTS_HTM};
use euno_sim::{apply_op, preload, run_ops, run_virtual, RunConfig, RunMetrics};
use euno_workloads::{
    KeyDistribution, Op, OpMix, OpStream, WorkloadSpec, YcsbOp, YcsbStream, YcsbWorkload,
};

use crate::common::{fig_config, measure, measure_on, print_table, Cli, Point, System};

pub struct Figure {
    /// CSV stem (`<stem>.csv`), and the name `figures` takes.
    pub stem: &'static str,
    /// Report id (`BENCH_<id>.json`).
    pub id: &'static str,
    pub title: &'static str,
    seed: u64,
    /// Per-thread op budget at `EUNO_BENCH_SCALE=1`.
    ops: u64,
    shape: Shape,
}

enum Shape {
    Sweep(Sweep),
    /// A body of its own, and the rows it emits.
    Own(usize, fn(&Figure, &Cli) -> Vec<Point>),
}

/// Every system at every cell of the axis.
struct Sweep {
    /// Each system with the label its rows carry.
    systems: &'static [(System, &'static str)],
    axis: Axis,
    /// The console tables' value, and its name.
    value: (&'static str, fn(&RunMetrics) -> f64),
    /// Printed once the sweep is done.
    headline: Option<fn(&[Point])>,
}

enum Axis {
    /// Zipf θ at this many threads; x = θ.
    Theta(usize, &'static [f64]),
    /// [`THREADS`] under each `(name, workload, seed offset)`; x =
    /// `<name>/<threads>`. With `true` a cell's seed adds its thread count.
    Threads(&'static [(&'static str, Workload, u64)], bool),
}

/// The thread counts of Figures 10–12.
const THREADS: [usize; 7] = [1, 2, 4, 8, 12, 16, 20];

enum Workload {
    /// The paper's default workload at this skew.
    Theta(f64),
    /// This get share, the rest puts, at θ = 0.9 (or `--theta`).
    GetShare(f64),
    /// This key distribution under the default mix.
    Dist(fn() -> KeyDistribution),
}

impl Workload {
    fn spec(&self, cli: &Cli) -> WorkloadSpec {
        match *self {
            Workload::Theta(theta) => cli.spec(theta),
            Workload::GetShare(get) => WorkloadSpec {
                mix: OpMix::get_put(get),
                ..cli.spec(cli.theta(0.9))
            },
            Workload::Dist(dist) => WorkloadSpec {
                dist: dist(),
                ..cli.spec(0.9)
            },
        }
    }
}

const fn sweep(
    systems: &'static [(System, &'static str)],
    axis: Axis,
    value: (&'static str, fn(&RunMetrics) -> f64),
    headline: Option<fn(&[Point])>,
) -> Shape {
    Shape::Sweep(Sweep {
        systems,
        axis,
        value,
        headline,
    })
}

/// Systems under their own labels.
const fn own<const N: usize>(systems: [System; N]) -> [(System, &'static str); N] {
    let mut out = [(System::EunoBTree, ""); N];
    let mut i = 0;
    while i < N {
        out[i] = (systems[i], systems[i].label());
        i += 1;
    }
    out
}

const FIVE: [(System, &str); 5] = own(System::MAIN_FIVE);
const FOUR: [(System, &str); 4] = own(System::MAIN_FOUR);
const HTM: [(System, &str); 1] = own([System::HtmBTree]);
const HTM_EUNO: [(System, &str); 2] = own([System::HtmBTree, System::EunoBTree]);
const LADDER: [(System, &str); 7] = [
    (System::HtmBTree, "Baseline"),
    (System::AblationSplitHtm, "+Split HTM"),
    (System::AblationPartLeaf, "+Part Leaf"),
    (System::AblationCcmLockbits, "+CCM lockbits"),
    (System::AblationCcmMarkbits, "+CCM markbits"),
    (System::EunoBTree, "+Adaptive"),
    (System::EunoReadOpt, "+Walk"),
];
const MOPS: (&str, fn(&RunMetrics) -> f64) = ("Mops/s", RunMetrics::mops);
const ABORTS: (&str, fn(&RunMetrics) -> f64) = ("aborts/op", |m| m.aborts_per_op);
const SKEWS: [f64; 9] = [0.0, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.99];
const HIGH_SKEWS: [f64; 6] = [0.5, 0.6, 0.7, 0.8, 0.9, 0.99];
const CONTENTION: [(&str, Workload, u64); 4] = [
    ("0.2", Workload::Theta(0.2), 0),
    ("0.6", Workload::Theta(0.6), 0),
    ("0.9", Workload::Theta(0.9), 0),
    ("0.99", Workload::Theta(0.99), 0),
];
const MIXES: [(&str, Workload, u64); 4] = [
    ("0get", Workload::GetShare(0.0), 0),
    ("20get", Workload::GetShare(0.2), 20),
    ("50get", Workload::GetShare(0.5), 50),
    ("70get", Workload::GetShare(0.7), 70),
];
const DISTRIBUTIONS: [(&str, Workload, u64); 4] = [
    ("Poisson", Workload::Dist(KeyDistribution::poisson_paper), 0),
    ("Normal", Workload::Dist(KeyDistribution::normal_paper), 0),
    (
        "Self-Similar",
        Workload::Dist(KeyDistribution::self_similar_paper),
        0,
    ),
    ("Zipfian", Workload::Theta(0.9), 0),
];

/// The evaluation, in the order `figures` runs it. The comment above an
/// entry is the shape the paper reports.
pub static FIGURES: [Figure; 12] = [
    // Stable for θ < 0.6, a collapse past it, < 3 Mops/s at θ = 0.9 (§2.3).
    Figure {
        stem: "fig01_motivation",
        id: "fig01",
        title: "Figure 1: HTM-B+Tree throughput vs contention",
        seed: 0xF1601,
        ops: 20_000,
        shape: sweep(&HTM, Axis::Theta(16, &SKEWS), MOPS, None),
    },
    // Aborts grow ~47× from θ = 0.5 to 0.9; 87–90 % of conflicts are
    // between different keys, > 90 % at the leaf level (§2.3).
    Figure {
        stem: "fig02_abort_breakdown",
        id: "fig02",
        title: "Figure 2: HTM-B+Tree abort breakdown vs contention",
        seed: 0xF1602,
        ops: 20_000,
        shape: sweep(&HTM, Axis::Theta(16, &HIGH_SKEWS), ABORTS, Some(fig02)),
    },
    // Euno ≈ HTM-B+Tree below θ = 0.6; at 0.99 11× HTM-B+Tree and 1.65×
    // Masstree; HTM-Masstree trails everything (§5.2).
    Figure {
        stem: "fig08_throughput",
        id: "fig08",
        title: "Figure 8: throughput vs contention, 16 threads",
        seed: 0xF1608,
        ops: 20_000,
        shape: sweep(&FIVE, Axis::Theta(16, &SKEWS), MOPS, Some(fig08)),
    },
    // 60.3 vs 1.9 aborts/op at θ = 0.99 (§5.2).
    Figure {
        stem: "fig09_abort_comparison",
        id: "fig09",
        title: "Figure 9: aborts per operation, HTM-B+Tree vs Euno-B+Tree",
        seed: 0xF1609,
        ops: 20_000,
        shape: sweep(&HTM_EUNO, Axis::Theta(16, &HIGH_SKEWS), ABORTS, None),
    },
    // Everything scales at θ = 0.2; HTM-B+Tree collapses past ~4 threads at
    // 0.6; at θ ≥ 0.9 Euno keeps scaling past Masstree (§5.3).
    Figure {
        stem: "fig10_scalability",
        id: "fig10",
        title: "Figure 10: scalability across contention levels",
        seed: 0xF1610,
        ops: 15_000,
        shape: sweep(&FIVE, Axis::Threads(&CONTENTION, true), MOPS, None),
    },
    // Euno scales near-linearly at every mix, furthest ahead at 100 % puts;
    // Masstree ~25 % below; HTM-B+Tree stays collapsed (§5.4).
    Figure {
        stem: "fig11_getput_ratio",
        id: "fig11",
        title: "Figure 11: scalability across get/put ratios, θ=0.9",
        seed: 0xF1611,
        ops: 15_000,
        shape: sweep(&FOUR, Axis::Threads(&MIXES, false), MOPS, None),
    },
    // Euno scales under every distribution; HTM-B+Tree collapses past 2–4
    // threads; Masstree is stable but ≈ 40 % below Euno (§5.5).
    Figure {
        stem: "fig12_distributions",
        id: "fig12",
        title: "Figure 12: scalability across input distributions",
        seed: 0xF1612,
        ops: 15_000,
        shape: sweep(&FOUR, Axis::Threads(&DISTRIBUTIONS, false), MOPS, None),
    },
    // Relative to the baseline at θ = 0.9: +Split HTM 1.83×, +Part Leaf
    // 4.58×, +CCM lockbits 9.68×, +CCM markbits 11.10×; at θ = 0.2 −3…−8 %,
    // recovered to −2 % by +Adaptive (§5.6). `+Walk` is this repo's rung
    // past the ladder: the default tree, no HTM region above the leaf.
    Figure {
        stem: "fig13_ablation",
        id: "fig13",
        title: "Figure 13: design-choice ablation ladder, 20 threads",
        seed: 0xF1613,
        ops: 15_000,
        shape: sweep(&LADDER, Axis::Theta(20, &[0.9, 0.2]), MOPS, Some(fig13)),
    },
    Figure {
        stem: "fig14_timeline",
        id: "fig14",
        title: "Figure 14: adaptation timeline under a rotating Zipf hotspot",
        seed: 0x00F1_6144,
        ops: 12_000,
        shape: Shape::Own(2, fig14),
    },
    Figure {
        stem: "ycsb_suite",
        id: "ycsb",
        title: "YCSB core suite A-F, all systems",
        seed: 0x4C5B,
        ops: 10_000,
        shape: Shape::Own(YcsbWorkload::ALL.len() * FIVE.len(), ycsb),
    },
    Figure {
        stem: "mem_overhead",
        id: "mem",
        title: "§5.7: Euno-B+Tree memory overhead",
        seed: 0x5E07,
        ops: 20_000,
        shape: Shape::Own(16, mem),
    },
    Figure {
        stem: "sensitivity",
        id: "sensitivity",
        title: "Cost-model sensitivity sweeps",
        seed: 0x5E45,
        ops: 10_000,
        shape: Shape::Own(29, sensitivity),
    },
];

/// The table entry named `stem`.
pub fn find(stem: &str) -> Option<&'static Figure> {
    FIGURES.iter().find(|f| f.stem == stem)
}

impl Figure {
    /// The rows of this figure's CSV.
    pub fn rows(&self) -> usize {
        match &self.shape {
            Shape::Sweep(s) => match s.axis {
                Axis::Theta(_, thetas) => thetas.len() * s.systems.len(),
                Axis::Threads(variants, _) => variants.len() * THREADS.len() * s.systems.len(),
            },
            Shape::Own(rows, _) => *rows,
        }
    }

    pub fn run(&self, cli: &Cli) -> Vec<Point> {
        match &self.shape {
            Shape::Sweep(sweep) => sweep.run(self, cli),
            Shape::Own(_, run) => run(self, cli),
        }
    }

    /// This figure's run configuration under the command line's overrides.
    fn config(&self, cli: &Cli) -> RunConfig {
        let mut cfg = fig_config(self.seed, self.ops);
        cli.apply(&mut cfg);
        cfg
    }
}

impl Sweep {
    fn run(&self, fig: &Figure, cli: &Cli) -> Vec<Point> {
        let config = |seed: u64, threads: usize| {
            let mut cfg = fig_config(seed, fig.ops);
            cfg.threads = threads;
            cli.apply(&mut cfg);
            cfg
        };
        let cells: Vec<(String, WorkloadSpec, RunConfig)> = match self.axis {
            Axis::Theta(threads, thetas) => thetas
                .iter()
                .map(|&t| (t.to_string(), cli.spec(t), config(fig.seed, threads)))
                .collect(),
            Axis::Threads(variants, seed_adds_threads) => variants
                .iter()
                .flat_map(|v| THREADS.iter().map(move |&n| (v, n)))
                .map(|((name, workload, seed), n)| {
                    let seed = fig.seed + seed + n as u64 * u64::from(seed_adds_threads);
                    let mut cfg = config(seed, n);
                    cfg.threads = n; // the axis, whatever --threads says
                    (format!("{name}/{n}"), workload.spec(cli), cfg)
                })
                .collect(),
        };
        let mut points = Vec::new();
        for (x, spec, cfg) in cells {
            for &(system, label) in self.systems {
                let mut m = measure(system, &spec, &cfg);
                cli.post_cell(&mut m);
                let a = &m.counts;
                let pct = |n: u64| 100.0 * n as f64 / a.conflicts().max(1) as f64;
                eprintln!(
                    "{x:<16} {label:<14} {:>6.2} Mops/s {:>7.3} aborts/op (true {:.0}%, \
                     record {:.0}%, meta {:.0}%, struct {:.0}%; leaf {:.0}%) {:.1}% wasted",
                    m.mops(),
                    m.aborts_per_op,
                    pct(a[AbortClass::TrueSameRecord]),
                    pct(a[AbortClass::FalseDifferentRecord]),
                    pct(a[AbortClass::FalseMetadata]),
                    pct(a[AbortClass::FalseStructure]),
                    pct(a.leaf_level_conflicts()),
                    100.0 * m.wasted_cycle_fraction,
                );
                points.push(Point::new(label, &x, &spec, &cfg, m));
            }
        }
        print_table(fig.title, &points, self.value.0, self.value.1);
        if let Some(headline) = self.headline {
            println!();
            headline(&points);
        }
        points
    }
}

/// `of` at the cell (`x`, `system`); NaN if the sweep has none.
fn at(points: &[Point], x: &str, system: &str, of: fn(&RunMetrics) -> f64) -> f64 {
    points
        .iter()
        .find(|p| p.x == x && p.system == system)
        .map_or(f64::NAN, |p| of(&p.metrics))
}

fn fig02(points: &[Point]) {
    let rate = |x| at(points, x, "HTM-B+Tree", |m| m.aborts_per_op);
    let growth = rate("0.9") / rate("0.5");
    println!("abort-rate growth θ=0.9 vs θ=0.5: {growth:.1}× (paper: ~47×)");
}

fn fig08(points: &[Point]) {
    for (x, other, paper) in [
        ("0.99", "HTM-B+Tree", "~11×"),
        ("0.99", "Masstree", "~1.65×"),
        ("0.5", "Masstree", "~1.37×"),
    ] {
        let ratio =
            at(points, x, "Euno-B+Tree", RunMetrics::mops) / at(points, x, other, RunMetrics::mops);
        println!("Euno/{other} at θ={x}: {ratio:.2}× (paper: {paper})");
    }
}

/// Each rung relative to the baseline at its θ, as §5.6 reports it.
fn fig13(points: &[Point]) {
    for p in points {
        let relative = p.metrics.mops() / at(points, &p.x, "Baseline", RunMetrics::mops);
        println!("θ={:<4} {:<16} {relative:>6.2}x", p.x, p.system);
    }
}

/// Spans of Figure 14's timeline; `ROTATIONS - 1` programmed shifts.
const ROTATIONS: u64 = 4;

/// Figure 14 — adaptation timeline under a rotating Zipf hotspot
/// (DESIGN.md §14). The measured run is split into [`ROTATIONS`] equal
/// spans of virtual time; at each boundary the Zipfian head — the hot
/// leaves — jumps to a fresh region of the key space, and the first thread
/// past it stamps a shift mark into the flip log at the exact boundary
/// tick. The CCM's re-protect flips that follow give the **adaptation
/// lag**: how long the newly hot leaves stay on the bypass fast path. The
/// period is calibrated from an unrotated Euno run of the same workload,
/// so the shifts land inside the measured phase at any scale. Per-window
/// curves land in the report's `timeseries` sections, lags in `extra`.
fn fig14(fig: &Figure, cli: &Cli) -> Vec<Point> {
    let mut spec = cli.spec(cli.theta(0.95));
    // Small enough that the Zipfian head concentrates on a handful of
    // leaves (so rotation visibly moves the contention), large enough that
    // the four rotated regions do not overlap leaves.
    spec.key_range = 32_768;
    cli.shrink(&mut spec);
    let mut cfg = fig.config(cli);
    // A figure about transient response wants the transients: warm up just
    // long enough to shape the hot leaves.
    cfg.warmup_ops = (cfg.ops_per_thread / 8).max(200);
    let cost = CostModel::default();
    let calib = rotating(System::EunoBTree, &spec, &cfg, u64::MAX);
    // The calibration run's makespan in cycles, warm-up included.
    let makespan = (calib.elapsed_secs / cost.cycles_to_secs(1)).round() as u64
        + calib.stats.measure_start_cycles.unwrap_or(0);
    let period = (makespan / ROTATIONS).max(1);
    // ~8 samples per rotation span, in the default ring (256): the
    // baseline's timeline is several times longer, and must fit too.
    cfg.sample_every = (period / 8).max(1);
    println!(
        "== Figure 14: rotating-hotspot timeline, {} threads, {} keys, period {period} cycles ==",
        cfg.threads, spec.key_range
    );
    let mut points = Vec::new();
    for system in [System::EunoBTree, System::HtmBTree] {
        let mut m = rotating(system, &spec, &cfg, period);
        cli.post_cell(&mut m);
        println!("\n-- {} --", system.label());
        println!(
            "{:>12} {:>9} {:>10} {:>10} {:>7}",
            "tick", "Mops/s", "aborts/op", "fb/op", "flips"
        );
        for w in m.timeseries.iter().flat_map(|ts| ts.windows()) {
            let ops = w.counter(Counter::Ops).max(1) as f64;
            let aborts: u64 = ABORTS_HTM.iter().map(|&c| w.counter(c)).sum();
            println!(
                "{:>12} {:>9.2} {:>10.3} {:>10.4} {:>7}",
                w.t1,
                w.counter(Counter::Ops) as f64 / cost.cycles_to_secs(w.span()) / 1e6,
                aborts as f64 / ops,
                w.counter(Counter::Fallbacks) as f64 / ops,
                w.flip_events,
            );
        }
        let lags = adaptation_lags(&m.flips);
        for l in &lags {
            let lag = l
                .lag
                .map_or("none before the next".into(), |c| format!("{c} cycles"));
            println!("   shift @{:>12}: re-protect lag {lag}", l.shift_tick);
        }
        let mut point = Point::new(system.label(), "timeline", &spec, &cfg, m);
        let answered: Vec<u64> = lags.iter().filter_map(|l| l.lag).collect();
        if let Some(&max) = answered.iter().max() {
            let mean = answered.iter().sum::<u64>() as f64 / answered.len() as f64;
            println!(
                "   answered {}/{} shifts, mean lag {mean:.0} cycles, max {max}",
                answered.len(),
                lags.len()
            );
            point = point
                .with_extra("adaptation_shifts", lags.len() as f64)
                .with_extra("adaptation_answered", answered.len() as f64)
                .with_extra("adaptation_mean_lag_cycles", mean)
                .with_extra("adaptation_max_lag_cycles", max as f64);
        }
        points.push(point);
    }
    points
}

/// One Figure 14 run with the hotspot rotating every `period` cycles: in
/// span `r` every key is shifted by `r` strides (mod the key range), so the
/// Zipfian head moves while the marginal key distribution — and the tree
/// the preload built — is unchanged. `u64::MAX` never rotates.
fn rotating(system: System, spec: &WorkloadSpec, cfg: &RunConfig, period: u64) -> RunMetrics {
    let rt = Runtime::new_virtual();
    let map = system.build(&rt);
    preload(map.as_ref(), &rt, spec);
    rt.reset_dynamics();
    let (n, stride) = (spec.key_range, spec.key_range / ROTATIONS);
    // Shifts stamped so far, each by the first thread past its boundary
    // (deterministic under the lowest-clock-first scheduler).
    let marked = Cell::new(0);
    run_ops(&rt, cfg, |t| {
        let mut stream = OpStream::new(spec, t as u64, cfg.seed);
        let mut scan_buf = Vec::new();
        let (rt, map, marked) = (&rt, map.as_ref(), &marked);
        move |ctx: &mut ThreadCtx| {
            let r = match period {
                u64::MAX => 0,
                _ => (ctx.clock / period).min(ROTATIONS - 1),
            };
            while marked.get() < r {
                marked.set(marked.get() + 1);
                rt.metrics().mark_shift(marked.get() * period);
            }
            let mut op = stream.next_op();
            let (Op::Get { key }
            | Op::Put { key, .. }
            | Op::Delete { key }
            | Op::Scan { from: key, .. }) = &mut op;
            *key = (*key + r * stride) % n;
            apply_op(map, ctx, op, &mut scan_buf);
        }
    })
}

/// The YCSB core suite (A–F) over the five trees — what a downstream
/// key-value-store user would run, with latency quantiles from the
/// virtual-time histogram. The read-mostly rows (B, C) are where
/// Euno-ReadOpt's episode-free gets pay off. Workload F's
/// read-modify-write is one operation: a get, then a put of the same key.
fn ycsb(fig: &Figure, cli: &Cli) -> Vec<Point> {
    let theta = cli.theta(0.9);
    let cfg = fig.config(cli);
    println!(
        "== YCSB core suite, θ={theta}, {} virtual threads ==",
        cfg.threads
    );
    let mut points = Vec::new();
    for workload in YcsbWorkload::ALL {
        println!("\n{}", workload.label());
        println!("  system            Mops/s   aborts/op       p50       p99      p99.9");
        let mut spec = workload.spec(200_000, theta);
        cli.shrink(&mut spec.base);
        for system in System::MAIN_FIVE {
            let rt = Runtime::new_virtual();
            let map = system.build(&rt);
            preload(map.as_ref(), &rt, &spec.base);
            rt.reset_dynamics();
            let mut m = run_ops(&rt, &cfg, |t| {
                let mut stream = YcsbStream::new(&spec, t as u64, cfg.threads as u64, cfg.seed);
                let mut scan_buf = Vec::new();
                let map = map.as_ref();
                move |ctx: &mut ThreadCtx| match stream.next_op() {
                    YcsbOp::Simple(op) => apply_op(map, ctx, op, &mut scan_buf),
                    YcsbOp::ReadModifyWrite { key, delta } => {
                        ctx.charge(ctx.runtime().cost.op_overhead);
                        let v = map.get(ctx, key).unwrap_or(0);
                        map.put(ctx, key, (v + delta) & 0x7fff_ffff_ffff_ffff);
                        ctx.metric_add(Counter::Ops, 1);
                    }
                }
            });
            cli.post_cell(&mut m);
            let q = |p| m.latency.quantile(p);
            println!(
                "  {:<14} {:>9.2} {:>11.4} {:>9} {:>9} {:>10}",
                system.label(),
                m.mops(),
                m.aborts_per_op,
                q(0.50),
                q(0.99),
                q(0.999),
            );
            let label = workload.label();
            points.push(Point::new(system.label(), label, &spec.base, &cfg, m));
        }
    }
    points
}

/// §5.7 — "Memory Consumption Analysis": the extra memory the Eunomia
/// additions (conflict-control modules + reserved-key buffers) cost on top
/// of the bare tree, across contention rates, get/put ratios and input
/// distributions (paper: ~5.6 %, ~4.2 %, 2.2–6.9 % — the reserved buffers
/// are transient and the CCM is two words per leaf); then reclamation
/// under churn.
fn mem(fig: &Figure, cli: &Cli) -> Vec<Point> {
    let mut cfg = fig.config(cli);
    cfg.warmup_ops = 0; // the audit wants the whole run's allocations
    let mut points = Vec::new();
    let mut overhead = |label: String, spec: WorkloadSpec| {
        let (mut metrics, map) =
            measure_on(&Runtime::new_virtual(), System::EunoBTree, &spec, &cfg);
        cli.post_cell(&mut metrics);
        let m = map.memory();
        println!(
            "{label:<28} structural {:>9} B  ccm {:>8} B  reserved live/peak {:>8}/{:>8} B  \
             overhead {:>5.2}%",
            m.structural_bytes,
            m.ccm_bytes,
            m.reserved_live_bytes,
            m.reserved_peak_bytes,
            100.0 * m.overhead_fraction()
        );
        points.push(
            Point::new(System::EunoBTree.label(), label, &spec, &cfg, metrics)
                .with_extra("structural_bytes", m.structural_bytes as f64)
                .with_extra("ccm_bytes", m.ccm_bytes as f64)
                .with_extra("reserved_live_bytes", m.reserved_live_bytes as f64)
                .with_extra("reserved_peak_bytes", m.reserved_peak_bytes as f64)
                .with_extra("retired_pending_bytes", m.retired_pending_bytes as f64)
                .with_extra("reclaimed_bytes", m.reclaimed_bytes as f64)
                .with_extra("overhead_fraction", m.overhead_fraction()),
        );
    };
    println!("== §5.7a: memory overhead vs contention rate ==");
    for theta in [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.99] {
        overhead(format!("zipfian θ={theta}"), cli.spec(theta));
    }
    println!("\n== §5.7b: memory overhead vs get/put ratio (θ=0.9) ==");
    for (g, p) in [(0.2, 0.8), (0.5, 0.5), (0.8, 0.2)] {
        let mut spec = cli.spec(0.9);
        spec.mix = OpMix::get_put(g);
        overhead(format!("get/put {g}/{p}"), spec);
    }
    println!("\n== §5.7c: memory overhead vs input distribution ==");
    for (name, dist) in [
        ("self-similar", KeyDistribution::self_similar_paper()),
        ("poisson", KeyDistribution::poisson_paper()),
        ("uniform", KeyDistribution::Uniform),
    ] {
        let mut spec = cli.spec(0.0);
        spec.dist = dist;
        overhead(name.to_string(), spec);
    }
    println!("\n== §5.7d: reclamation under churn (fill → delete-heavy → drain) ==");
    churn_phases(cli, &cfg, &mut points);
    points
}

/// §5.7d — reclamation under churn: one tree lives through a fill phase,
/// a delete-heavy phase with explicit maintenance (merges retire leaves
/// to the epoch collector), and a final drain. The three snapshots must
/// show `retired_pending_bytes` rise and then fall back to zero while
/// `reclaimed_bytes` only grows — retired memory is genuinely returned,
/// not accumulated.
fn churn_phases(cli: &Cli, cfg: &RunConfig, points: &mut Vec<Point>) {
    let rt = Runtime::new_virtual();
    let map = System::EunoBTree.build(&rt);
    let mut phase = |label: &'static str, spec: &WorkloadSpec, after: &dyn Fn(&mut ThreadCtx)| {
        let mut metrics = run_virtual(map.as_ref(), &rt, spec, cfg);
        cli.post_cell(&mut metrics);
        let mut ctx = rt.thread(0);
        after(&mut ctx);
        let m = map.memory();
        println!(
            "{label:<28} structural {:>9} B  retired-pending {:>8} B  reclaimed {:>8} B",
            m.structural_bytes, m.retired_pending_bytes, m.reclaimed_bytes
        );
        points.push(
            Point::new(System::EunoBTree.label(), label, spec, cfg, metrics)
                .with_extra("structural_bytes", m.structural_bytes as f64)
                .with_extra("retired_pending_bytes", m.retired_pending_bytes as f64)
                .with_extra("reclaimed_bytes", m.reclaimed_bytes as f64),
        );
    };
    let mut fill = cli.spec(0.0);
    fill.mix = OpMix::get_put(0.0);
    fill.dist = KeyDistribution::Uniform;
    // Dense enough that the delete phase hits real records: uniform
    // deletes over a sparse range would mostly miss, and absent-key
    // deletes retire nothing.
    fill.key_range = fill
        .key_range
        .min(cfg.threads as u64 * cfg.ops_per_thread / 4);
    phase("churn: fill", &fill, &|_| {});
    // Delete-heavy traffic leaves the leaf chain sparse; the maintenance
    // sweep afterwards merges and hands the emptied leaves to the
    // collector. run_virtual drains at quiescence, so everything still
    // pending here was retired by this maintain call — the "rise".
    let mut churn = fill.clone();
    churn.mix = OpMix {
        get: 0.1,
        put: 0.1,
        delete: 0.8,
        scan: 0.0,
    };
    phase("churn: delete+maintain", &churn, &|ctx| {
        map.maintain(ctx);
    });
    // Quiescent drain: two collects (advance + mature) free the lot.
    fill.mix = OpMix::get_put(1.0);
    phase("churn: drain", &fill, &|_| {
        rt.epoch().collect();
        rt.epoch().collect();
    });
}

/// Cost-model sensitivity: is the paper's qualitative result an artifact
/// of our calibration constants? Sweeps the two most load-bearing knobs of
/// the virtual-time model — the hot-line transfer charge (`line_transfer`,
/// NUMA/coherence cost) and the retry backoff cap (`backoff_cap`). The
/// claim that must survive every cell: **Euno-B+Tree beats the monolithic
/// HTM-B+Tree at θ = 0.9**, with Euno close to it at θ = 0.2. The swept
/// knob rides along in each point's `extra`; the report's top-level cost
/// model stays the default.
fn sensitivity(fig: &Figure, cli: &Cli) -> Vec<Point> {
    use System::{EunoBTree, HtmBTree, Masstree};
    let cfg = fig.config(cli);
    let two: &[System] = &[EunoBTree, HtmBTree];
    let three: &[System] = &[EunoBTree, HtmBTree, Masstree];
    // (knob, x prefix, θ, systems, values); the θ = 0.2 sweep prices
    // Euno's overhead and claims no order.
    let sweeps = [
        (
            "line_transfer",
            "transfer",
            0.9,
            three,
            &[60, 120, 180, 300, 450][..],
        ),
        ("backoff_cap", "cap", 0.9, two, &[300, 1_200, 4_800, 12_000]),
        ("line_transfer", "low/transfer", 0.2, two, &[60, 180, 450]),
    ];
    let mut points = Vec::new();
    for (knob, name, theta, systems, values) in sweeps {
        println!("\n== Sensitivity: {knob}, θ={theta} ==");
        let spec = cli.spec(theta);
        for &value in values {
            let mut cost = CostModel::default();
            match knob {
                "backoff_cap" => cost.backoff_cap = value,
                _ => cost.line_transfer = value,
            }
            let x = format!("{name}={value}");
            let mut mops = Vec::new();
            for &system in systems {
                let rt = Runtime::new(Backend::Virtual, cost.clone());
                let (mut m, _) = measure_on(&rt, system, &spec, &cfg);
                cli.post_cell(&mut m);
                mops.push(m.mops());
                let p = Point::new(system.label(), &x, &spec, &cfg, m);
                points.push(p.with_extra(knob, value as f64));
            }
            println!(
                "{x:<18} Mops/s {mops:>7.2?}  Euno/HTM {:.2}x",
                mops[0] / mops[1]
            );
            assert!(theta < 0.9 || mops[0] > mops[1], "ordering broken at {x}");
        }
    }
    println!("\nordering robust across the sweep ✓");
    points
}
