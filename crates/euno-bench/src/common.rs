//! Shared plumbing for the figure-regeneration binaries: system registry,
//! run orchestration, table/CSV emission.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the
//! paper's evaluation (§5). They all follow the same recipe: build the
//! systems against a fresh virtual-time runtime, preload the YCSB keys,
//! run the configured workload per data point, and print the series the
//! paper plots — as an aligned table on stdout and as CSV when
//! `--csv <path>` is given.

use std::fmt::Write as _;
use std::sync::Arc;

use euno_baselines::{HtmBTree, HtmMasstree, Masstree};
use euno_core::{EunoBTree, EunoBTreeDefault, EunoBTreeUnpartitioned, EunoConfig};
use euno_htm::{ConcurrentMap, CostModel, Runtime};
use euno_sim::{
    chrome_trace, folded_rollup, preload, report_path_for, run_virtual, RunConfig, RunEntry,
    RunMetrics, RunReport, DEFAULT_TRACE_CAPACITY,
};
use euno_workloads::WorkloadSpec;

/// The four systems of §5.1, plus the ablation variants of Figure 13.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum System {
    /// The paper's system (`EunoConfig::paper`): HTM upper and lower region
    /// per point operation.
    EunoBTree,
    /// The library's default tree (`EunoConfig::default`): no episode
    /// above the leaf — every upper stage is a validated direct-load walk
    /// under an epoch pin, and gets read their leaf the same way.
    EunoReadOpt,
    HtmBTree,
    Masstree,
    HtmMasstree,
    /// Figure 13 variants.
    AblationSplitHtm,
    AblationPartLeaf,
    AblationCcmLockbits,
    AblationCcmMarkbits,
    AblationAdaptive,
    /// One rung past the paper's ladder: `+Adaptive` with the upper HTM
    /// region replaced by the validated walk (`EunoConfig::default`) — the
    /// row that prices the upper episode.
    AblationWalk,
}

impl System {
    pub const MAIN_FOUR: [System; 4] = [
        System::EunoBTree,
        System::HtmBTree,
        System::Masstree,
        System::HtmMasstree,
    ];

    /// The §5 comparison set plus the read-optimized Euno variant —
    /// the headline figures (8, 10) and the YCSB suite run all five.
    pub const MAIN_FIVE: [System; 5] = [
        System::EunoBTree,
        System::EunoReadOpt,
        System::HtmBTree,
        System::Masstree,
        System::HtmMasstree,
    ];

    pub fn label(self) -> &'static str {
        match self {
            System::EunoBTree => "Euno-B+Tree",
            System::EunoReadOpt => "Euno-ReadOpt",
            System::HtmBTree => "HTM-B+Tree",
            System::Masstree => "Masstree",
            System::HtmMasstree => "HTM-Masstree",
            System::AblationSplitHtm => "+Split HTM",
            System::AblationPartLeaf => "+Part Leaf",
            System::AblationCcmLockbits => "+CCM lockbits",
            System::AblationCcmMarkbits => "+CCM markbits",
            System::AblationAdaptive => "+Adaptive",
            System::AblationWalk => "+Walk",
        }
    }

    /// Instantiate the system against a runtime.
    pub fn build(self, rt: &Arc<Runtime>) -> Box<dyn ConcurrentMap> {
        let rt = Arc::clone(rt);
        match self {
            System::EunoBTree | System::AblationAdaptive => {
                Box::new(EunoBTreeDefault::with_config(rt, EunoConfig::paper()))
            }
            System::EunoReadOpt | System::AblationWalk => Box::new(EunoBTreeDefault::new(rt)),
            System::HtmBTree => Box::new(HtmBTree::<16>::new(rt)),
            System::Masstree => Box::new(Masstree::new(rt)),
            System::HtmMasstree => Box::new(HtmMasstree::new(rt)),
            System::AblationSplitHtm => Box::new(EunoBTreeUnpartitioned::with_config(
                rt,
                EunoConfig::split_htm_only(),
            )),
            System::AblationPartLeaf => {
                Box::new(EunoBTree::<4, 4>::with_config(rt, EunoConfig::part_leaf()))
            }
            System::AblationCcmLockbits => Box::new(EunoBTree::<4, 4>::with_config(
                rt,
                EunoConfig::ccm_lockbits(),
            )),
            System::AblationCcmMarkbits => Box::new(EunoBTree::<4, 4>::with_config(
                rt,
                EunoConfig::ccm_markbits(),
            )),
        }
    }
}

/// One measured data point, carrying the provenance (spec + config) the
/// run report serializes next to the metrics.
#[derive(Clone, Debug)]
pub struct Point {
    pub system: &'static str,
    /// The x-axis value (θ, thread count, …) as a printable string.
    pub x: String,
    pub spec: WorkloadSpec,
    pub cfg: RunConfig,
    pub metrics: RunMetrics,
    /// Figure-specific extras (memory accounting, swept cost constants…)
    /// that land in the report's `extra` object.
    pub extra: Vec<(String, f64)>,
}

impl Point {
    pub fn new(
        system: System,
        x: impl ToString,
        spec: &WorkloadSpec,
        cfg: &RunConfig,
        metrics: RunMetrics,
    ) -> Point {
        Point {
            system: system.label(),
            x: x.to_string(),
            spec: spec.clone(),
            cfg: cfg.clone(),
            metrics,
            extra: Vec::new(),
        }
    }

    pub fn with_extra(mut self, key: impl Into<String>, value: f64) -> Point {
        self.extra.push((key.into(), value));
        self
    }
}

/// Run one (system, workload, config) cell: fresh runtime, preload,
/// measure.
pub fn measure(system: System, spec: &WorkloadSpec, cfg: &RunConfig) -> RunMetrics {
    let rt = Runtime::new_virtual();
    let map = system.build(&rt);
    preload(map.as_ref(), &rt, spec);
    rt.reset_dynamics();
    run_virtual(map.as_ref(), &rt, spec, cfg)
}

/// Global scale factor for op budgets: `EUNO_BENCH_SCALE` (default 1.0;
/// the quick CI runs set 0.1).
pub fn scale() -> f64 {
    std::env::var("EUNO_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

pub fn scaled(ops: u64) -> u64 {
    ((ops as f64 * scale()) as u64).max(200)
}

/// The standard figure run configuration every binary starts from:
/// 16 virtual threads (§5.1), a scaled per-thread op budget, and the
/// shared warmup sizing. Sweeping binaries override `threads` per point.
pub fn fig_config(seed: u64, ops_per_thread: u64) -> RunConfig {
    RunConfig {
        threads: 16,
        ops_per_thread: scaled(ops_per_thread),
        seed,
        warmup_ops: scaled(1_000).max(4_000),
        ..RunConfig::default()
    }
}

/// Parse the flags shared by every figure binary:
/// `--csv <path>` / `--ops <n>` / `--threads <n>` / `--theta <f>` /
/// `--keys <n>` / `--trace <path>` / `--profile`.
pub struct Cli {
    pub csv: Option<String>,
    pub ops_override: Option<u64>,
    pub threads_override: Option<usize>,
    pub theta_override: Option<f64>,
    /// Key-range override: preload cost scales with the range, so smoke
    /// runs (scripts/check.sh) pass a small `--keys` to stay cheap.
    pub keys_override: Option<u64>,
    /// Row filter: only run measurement points whose x-label contains this
    /// substring (engine_bench honours it; handy for profiling one
    /// scenario without a rebuild).
    pub only: Option<String>,
    /// Export the first measured cell's event trace as Chrome trace-event
    /// JSON to this path (plus a `<path>.folded` flamegraph rollup).
    pub trace: Option<String>,
    /// Build hot-leaf contention profiles; they land in the run report's
    /// per-run `profile` sections.
    pub profile: bool,
    /// Per-thread ring capacity override for `--trace` runs (events).
    /// Smoke runs pass a small value to keep the export cheap.
    pub trace_capacity: Option<usize>,
    /// Whether the `--trace` file has been written (first traced cell).
    trace_exported: std::cell::Cell<bool>,
}

impl Cli {
    pub fn parse() -> Cli {
        let mut args = std::env::args().skip(1);
        let mut cli = Cli {
            csv: None,
            ops_override: None,
            threads_override: None,
            theta_override: None,
            keys_override: None,
            only: None,
            trace: None,
            profile: false,
            trace_capacity: None,
            trace_exported: std::cell::Cell::new(false),
        };
        fn numeric<T: std::str::FromStr>(flag: &str, v: Option<String>) -> T {
            match v.as_deref().map(str::parse) {
                Some(Ok(n)) => n,
                _ => {
                    eprintln!("{flag} needs a numeric value, got {v:?}");
                    std::process::exit(2);
                }
            }
        }
        while let Some(a) = args.next() {
            match a.as_str() {
                "--csv" => cli.csv = args.next(),
                "--ops" => cli.ops_override = Some(numeric("--ops", args.next())),
                "--threads" => cli.threads_override = Some(numeric("--threads", args.next())),
                "--theta" => cli.theta_override = Some(numeric("--theta", args.next())),
                "--keys" => cli.keys_override = Some(numeric("--keys", args.next())),
                "--only" => cli.only = args.next(),
                "--trace" => match args.next() {
                    Some(p) => cli.trace = Some(p),
                    None => {
                        eprintln!("--trace needs an output path");
                        std::process::exit(2);
                    }
                },
                "--profile" => cli.profile = true,
                "--trace-capacity" => {
                    cli.trace_capacity = Some(numeric("--trace-capacity", args.next()));
                }
                "--help" | "-h" => {
                    eprintln!(
                        "flags: --csv <path>  --ops <per-thread>  --threads <n>\n\
                         \x20      --theta <f64>  --keys <range>\n\
                         \x20      --only <substr> (run only rows whose label contains it)\n\
                         \x20      --trace <path> (Chrome trace JSON of the first cell, + <path>.folded)\n\
                         \x20      --trace-capacity <events> (per-thread ring size for --trace)\n\
                         \x20      --profile (hot-leaf contention table in the run report)\n\
                         env:   EUNO_BENCH_SCALE=<f64> scales default op budgets"
                    );
                    std::process::exit(0);
                }
                other => eprintln!("ignoring unknown flag {other}"),
            }
        }
        cli
    }

    pub fn apply(&self, cfg: &mut RunConfig) {
        if let Some(ops) = self.ops_override {
            cfg.ops_per_thread = ops;
        }
        if let Some(t) = self.threads_override {
            cfg.threads = t;
        }
        cfg.profile = self.profile;
        if self.trace.is_some() {
            cfg.trace_capacity = self.trace_capacity.unwrap_or(DEFAULT_TRACE_CAPACITY);
        } else if let Some(cap) = self.trace_capacity {
            cfg.trace_capacity = cap;
        }
    }

    /// Post-process one measured cell. The first traced cell is exported
    /// to the `--trace` path (Chrome trace-event JSON, Perfetto-loadable)
    /// with a `<path>.folded` flamegraph rollup next to it; then the raw
    /// trace is dropped from the metrics so a multi-cell sweep does not
    /// retain every cell's rings in memory. The (small) hot-leaf profile
    /// stays on the metrics for the run report.
    pub fn post_cell(&self, m: &mut RunMetrics) {
        let Some(traces) = m.trace.take() else {
            return;
        };
        if self.trace_exported.replace(true) {
            return;
        }
        if let Some(path) = &self.trace {
            if let Err(e) = std::fs::write(path, chrome_trace(&traces).to_pretty()) {
                eprintln!("FAIL writing {path}: {e}");
                std::process::exit(1);
            }
            let folded = format!("{path}.folded");
            if let Err(e) = std::fs::write(&folded, folded_rollup(&traces)) {
                eprintln!("FAIL writing {folded}: {e}");
                std::process::exit(1);
            }
            eprintln!("wrote {path} and {folded}");
        }
    }

    /// `--theta` if given, else the figure's default.
    pub fn theta(&self, default: f64) -> f64 {
        self.theta_override.unwrap_or(default)
    }

    /// The paper-default workload at `theta`, shrunk by `--keys` if given.
    pub fn spec(&self, theta: f64) -> WorkloadSpec {
        let mut spec = WorkloadSpec::paper_default(theta);
        self.shrink(&mut spec);
        spec
    }

    /// Apply the `--keys` range override to a spec built elsewhere.
    pub fn shrink(&self, spec: &mut WorkloadSpec) {
        if let Some(k) = self.keys_override {
            spec.key_range = k.max(16);
        }
    }
}

/// Emit an aligned table of `value_of` over (row = x, column = system).
pub fn print_table(
    title: &str,
    points: &[Point],
    value_name: &str,
    value_of: impl Fn(&RunMetrics) -> f64,
) {
    println!("\n== {title} ==  ({value_name})");
    let mut systems: Vec<&str> = Vec::new();
    let mut xs: Vec<&str> = Vec::new();
    for p in points {
        if !systems.contains(&p.system) {
            systems.push(p.system);
        }
        if !xs.iter().any(|x| *x == p.x) {
            xs.push(&p.x);
        }
    }
    let mut header = format!("{:>10}", "x");
    for s in &systems {
        let _ = write!(header, " {s:>14}");
    }
    println!("{header}");
    for x in &xs {
        let mut row = format!("{x:>10}");
        for s in &systems {
            let v = points
                .iter()
                .find(|p| &p.x == x && p.system == *s)
                .map(|p| value_of(&p.metrics));
            match v {
                Some(v) => {
                    let _ = write!(row, " {v:>14.3}");
                }
                None => {
                    let _ = write!(row, " {:>14}", "-");
                }
            }
        }
        println!("{row}");
    }
}

/// Write the full per-point metric set as CSV.
pub fn write_csv(path: &str, points: &[Point]) -> std::io::Result<()> {
    use std::io::Write;
    let mut f = std::fs::File::create(path)?;
    writeln!(
        f,
        "system,x,threads,total_ops,elapsed_secs,throughput_mops,aborts_per_op,\
         true_conflicts,false_record,false_metadata,false_structure,capacity,spurious,\
         fallback_locked,wasted_cycle_fraction,accesses_per_op,fallbacks_per_op,\
         optimistic_retries,lock_wait_cycles,lat_p50,lat_p99,lat_p999,lat_max,\
         backoff_cycles,fallback_wait_cycles,ccm_bypass_flips"
    )?;
    for p in points {
        let m = &p.metrics;
        let ops = m.total_ops.max(1) as f64;
        writeln!(
            f,
            "{},{},{},{},{:.6},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4},{:.2},{:.5},{:.4},{},{},{},{},{},{},{},{}",
            p.system,
            p.x,
            m.threads,
            m.total_ops,
            m.elapsed_secs,
            m.mops(),
            m.aborts_per_op,
            m.aborts.true_same_record as f64 / ops,
            m.aborts.false_different_record as f64 / ops,
            m.aborts.false_metadata as f64 / ops,
            m.aborts.false_structure as f64 / ops,
            m.aborts.capacity as f64 / ops,
            m.aborts.spurious as f64 / ops,
            m.aborts.fallback_locked as f64 / ops,
            m.wasted_cycle_fraction,
            m.accesses_per_op,
            m.fallbacks_per_op,
            m.stats.optimistic_retries as f64 / ops,
            m.stats.cycles_lock_wait,
            m.latency.quantile(0.50),
            m.latency.quantile(0.99),
            m.latency.quantile(0.999),
            m.latency.max(),
            m.stats.cycles_backoff,
            m.stats.cycles_fallback_wait,
            m.stages.ccm_bypass_flips,
        )?;
    }
    eprintln!("wrote {path}");
    Ok(())
}

/// Write the structured JSON run report (`BENCH_<figure>.json`, next to
/// the CSV): every point with its workload spec, run config, metrics and
/// latency quantiles, under the default cost model's constants. The
/// report self-validates against the DESIGN.md §11 schema before hitting
/// disk.
pub fn write_report(
    figure: &str,
    title: &str,
    csv_path: &str,
    points: &[Point],
) -> std::io::Result<()> {
    let mut report = RunReport::new(figure, title, CostModel::default());
    report.runs = points
        .iter()
        .map(|p| RunEntry {
            system: p.system.to_string(),
            x: p.x.clone(),
            spec: p.spec.clone(),
            cfg: p.cfg.clone(),
            metrics: p.metrics.clone(),
            extra: p.extra.clone(),
        })
        .collect();
    let path = report_path_for(csv_path, figure);
    report.write(&path)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// What every figure binary calls for `--csv <path>`: the CSV series plus
/// the structured report alongside it.
pub fn emit(figure: &str, title: &str, csv_path: &str, points: &[Point]) -> std::io::Result<()> {
    write_csv(csv_path, points)?;
    write_report(figure, title, csv_path, points)
}
