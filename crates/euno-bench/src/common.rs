//! Shared plumbing for the `figures` binary: system registry, run
//! orchestration, command line, table/CSV/report emission.
//!
//! Every virtual-clock figure follows the same recipe (the table in
//! [`crate::figures`]): build the systems against a fresh virtual-time
//! runtime, preload the YCSB keys, run the configured workload per data
//! point, and print the series the paper plots — as an aligned table on
//! stdout, and as CSV plus a run report when asked to write them.

use std::fmt::Write as _;
use std::sync::Arc;

use euno_baselines::{HtmBTree, HtmMasstree, Masstree};
use euno_core::{EunoBTreeDefault, EunoBTreeUnpartitioned, EunoConfig};
use euno_htm::{AbortClass, ConcurrentMap, CostModel, Runtime};
use euno_metrics::Counter;
use euno_sim::{
    preload, report_path_for, run_virtual, write_trace, RunConfig, RunEntry, RunMetrics, RunReport,
    DEFAULT_TRACE_CAPACITY,
};
use euno_workloads::WorkloadSpec;

/// The four systems of §5.1, the library's default tree, and the rungs of
/// Figure 13 that are not one of those.
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

    pub const fn label(self) -> &'static str {
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
        }
    }

    /// Instantiate the system against a runtime.
    pub fn build(self, rt: &Arc<Runtime>) -> Box<dyn ConcurrentMap> {
        let rt = Arc::clone(rt);
        match self {
            System::EunoBTree => Box::new(EunoBTreeDefault::with_config(rt, EunoConfig::paper())),
            System::EunoReadOpt => Box::new(EunoBTreeDefault::new(rt)),
            System::HtmBTree => Box::new(HtmBTree::<16>::new(rt)),
            System::Masstree => Box::new(Masstree::new(rt)),
            System::HtmMasstree => Box::new(HtmMasstree::new(rt)),
            System::AblationSplitHtm => Box::new(EunoBTreeUnpartitioned::with_config(
                rt,
                EunoConfig::split_htm_only(),
            )),
            System::AblationPartLeaf => {
                Box::new(EunoBTreeDefault::with_config(rt, EunoConfig::part_leaf()))
            }
            System::AblationCcmLockbits => Box::new(EunoBTreeDefault::with_config(
                rt,
                EunoConfig::ccm_lockbits(),
            )),
            System::AblationCcmMarkbits => Box::new(EunoBTreeDefault::with_config(
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
    /// The row label: a system's, or a Figure 13 rung's.
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
        system: &'static str,
        x: impl ToString,
        spec: &WorkloadSpec,
        cfg: &RunConfig,
        metrics: RunMetrics,
    ) -> Point {
        Point {
            system,
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
    measure_on(&Runtime::new_virtual(), system, spec, cfg).0
}

/// [`measure`] on a runtime of the caller's (a swept cost model), handing
/// back the tree for what the run left in it (its memory).
pub(crate) fn measure_on(
    rt: &Arc<Runtime>,
    system: System,
    spec: &WorkloadSpec,
    cfg: &RunConfig,
) -> (RunMetrics, Box<dyn ConcurrentMap>) {
    let map = system.build(rt);
    preload(map.as_ref(), rt, spec);
    rt.reset_dynamics();
    (run_virtual(map.as_ref(), rt, spec, cfg), map)
}

/// Global scale factor for op budgets: `EUNO_BENCH_SCALE` (default 1.0;
/// the quick CI runs set 0.1).
fn scale() -> f64 {
    std::env::var("EUNO_BENCH_SCALE")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1.0)
}

fn scaled(ops: u64) -> u64 {
    ((ops as f64 * scale()) as u64).max(200)
}

/// The standard figure run configuration every figure starts from:
/// 16 virtual threads (§5.1), a scaled per-thread op budget, and the
/// shared warmup sizing. Sweeps override `threads` per point.
pub fn fig_config(seed: u64, ops_per_thread: u64) -> RunConfig {
    RunConfig {
        threads: 16,
        ops_per_thread: scaled(ops_per_thread),
        seed,
        warmup_ops: scaled(1_000).max(4_000),
        ..RunConfig::default()
    }
}

/// The flags `figures` takes.
const FLAGS: &str = "\
flags: --ops <n>             measured ops per thread (caps the warm-up too)
       --threads <n>         threads (a thread sweep keeps its own)
       --theta <f64>         Zipf skew of a figure that holds it fixed
       --keys <n>            key range
       --trace <path>        Chrome trace JSON of the first cell, + <path>.folded
       --trace-capacity <n>  per-thread ring size for --trace
       --profile             hot-leaf contention table in the run report
       --out <dir>           write <dir>/<stem>.csv and BENCH_<id>.json
       --check               compare with --out's CSVs (default results/); exit 1 if one moved";

/// The command line of `figures`: `FLAGS` and the figures to run.
#[derive(Default)]
pub struct Cli {
    pub out: Option<String>,
    pub check: bool,
    /// Positional arguments: the figures to run.
    pub names: Vec<String>,
    /// Measured ops per thread; the warm-up never runs longer.
    pub ops_override: Option<u64>,
    pub threads_override: Option<usize>,
    pub theta_override: Option<f64>,
    /// Key-range override: preload cost scales with the range, so smoke
    /// runs (scripts/check.sh) pass a small `--keys` to stay cheap.
    pub keys_override: Option<u64>,
    /// Export the first measured cell's event trace as Chrome trace-event
    /// JSON to this path (plus a `<path>.folded` flamegraph rollup).
    pub trace: Option<String>,
    /// Build hot-leaf contention profiles; they land in the run report's
    /// per-run `profile` sections.
    pub profile: bool,
    /// Per-thread ring capacity override for `--trace` runs (events).
    pub trace_capacity: Option<usize>,
    /// Whether the `--trace` file has been written (first traced cell).
    trace_exported: std::cell::Cell<bool>,
}

impl Cli {
    /// Parse the process arguments: `FLAGS`, and positional arguments
    /// from `names`. Anything else exits 2 with the usage text; `--help`
    /// prints it and exits 0.
    pub fn parse(names: &[&str]) -> Cli {
        let why = match Cli::parse_args(std::env::args().skip(1), names) {
            Ok(cli) => return cli,
            Err(why) => why,
        };
        let mut usage = FLAGS.to_string();
        if !names.is_empty() {
            let _ = write!(usage, "\nnames: {} (default: all)", names.join(" "));
        }
        usage.push_str("\nenv:   EUNO_BENCH_SCALE=<f64> scales default op budgets");
        eprintln!(
            "{}{usage}",
            why.as_deref().map_or(String::new(), |w| format!("{w}\n"))
        );
        std::process::exit(if why.is_some() { 2 } else { 0 });
    }

    /// [`Cli::parse`] over `args`: `Err(None)` asks for the usage text
    /// (`--help`), `Err(Some(why))` is a bad command line.
    fn parse_args(
        mut args: impl Iterator<Item = String>,
        names: &[&str],
    ) -> Result<Cli, Option<String>> {
        fn value(flag: &str, v: Option<String>) -> Result<String, Option<String>> {
            v.ok_or_else(|| Some(format!("{flag} needs a value")))
        }
        fn number<T: std::str::FromStr>(
            flag: &str,
            v: Option<String>,
        ) -> Result<T, Option<String>> {
            let v = value(flag, v)?;
            v.parse()
                .map_err(|_| Some(format!("{flag} needs a number, got {v:?}")))
        }
        let mut cli = Cli::default();
        while let Some(a) = args.next() {
            match a.as_str() {
                "--ops" => cli.ops_override = Some(number(&a, args.next())?),
                "--threads" => cli.threads_override = Some(number(&a, args.next())?),
                "--theta" => cli.theta_override = Some(number(&a, args.next())?),
                "--keys" => cli.keys_override = Some(number(&a, args.next())?),
                "--trace-capacity" => cli.trace_capacity = Some(number(&a, args.next())?),
                "--trace" => cli.trace = Some(value(&a, args.next())?),
                "--profile" => cli.profile = true,
                "--out" => cli.out = Some(value(&a, args.next())?),
                "--check" => cli.check = true,
                "--help" | "-h" => return Err(None),
                name if names.contains(&name) => cli.names.push(a.clone()),
                other => return Err(Some(format!("unknown argument {other}"))),
            }
        }
        Ok(cli)
    }

    pub fn apply(&self, cfg: &mut RunConfig) {
        if let Some(ops) = self.ops_override {
            cfg.ops_per_thread = ops;
            cfg.warmup_ops = cfg.warmup_ops.min(ops);
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
    /// to the `--trace` path by [`write_trace`] (Chrome trace-event JSON,
    /// Perfetto-loadable, with a `<path>.folded` rollup); then the raw
    /// trace is dropped from the metrics so a multi-cell sweep does not
    /// retain every cell's rings in memory. The (small) hot-leaf profile
    /// stays on the metrics for the run report.
    pub fn post_cell(&self, m: &mut RunMetrics) {
        let Some(traces) = m.trace.take() else {
            return;
        };
        let Some(path) = self
            .trace
            .as_ref()
            .filter(|_| !self.trace_exported.replace(true))
        else {
            return;
        };
        if let Err(e) = write_trace(path, &traces) {
            eprintln!("FAIL writing {path}: {e}");
            std::process::exit(1);
        }
        eprintln!("wrote {path} and {path}.folded");
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
    let header: String = systems.iter().map(|s| format!(" {s:>14}")).collect();
    println!("{:>10}{header}", "x");
    for x in xs {
        let row: String = systems
            .iter()
            .map(
                |&s| match points.iter().find(|p| p.x == x && p.system == s) {
                    Some(p) => format!(" {:>14.3}", value_of(&p.metrics)),
                    None => format!(" {:>14}", "-"),
                },
            )
            .collect();
        println!("{x:>10}{row}");
    }
}

/// The full per-point metric set as CSV text.
pub fn csv_text(points: &[Point]) -> String {
    let mut out = String::from(
        "system,x,threads,total_ops,elapsed_secs,throughput_mops,aborts_per_op,\
         true_conflicts,false_record,false_metadata,false_structure,capacity,spurious,\
         fallback_locked,wasted_cycle_fraction,accesses_per_op,fallbacks_per_op,\
         optimistic_retries,lock_wait_cycles,lat_p50,lat_p99,lat_p999,lat_max,\
         backoff_cycles,fallback_wait_cycles,ccm_bypass_flips\n",
    );
    for p in points {
        let m = &p.metrics;
        let ops = m.total_ops.max(1) as f64;
        let _ = write!(
            out,
            "{},{},{},{},{:.6},{:.4},{:.4}",
            p.system,
            p.x,
            m.threads,
            m.total_ops,
            m.elapsed_secs,
            m.mops(),
            m.aborts_per_op,
        );
        // One column per class (`true_conflicts` … `fallback_locked`),
        // but none for unclassified conflicts or explicit aborts.
        for class in AbortClass::ALL {
            if !matches!(
                class,
                AbortClass::UnclassifiedConflict | AbortClass::Explicit
            ) {
                let _ = write!(out, ",{:.4}", m.counts[class] as f64 / ops);
            }
        }
        let _ = writeln!(
            out,
            ",{:.4},{:.2},{:.5},{:.4},{},{},{},{},{},{},{},{}",
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
            m.counts[Counter::CcmBypassFlips],
        );
    }
    out
}

/// Write [`csv_text`] to `path`.
pub fn write_csv(path: &str, points: &[Point]) -> std::io::Result<()> {
    std::fs::write(path, csv_text(points))?;
    eprintln!("wrote {path}");
    Ok(())
}

/// The structured JSON run report: every point with its workload spec,
/// run config, metrics and latency quantiles, under the default cost
/// model's constants (DESIGN.md §11).
pub fn report(figure: &str, title: &str, points: &[Point]) -> RunReport {
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
    report
}

/// Write the [`report`] as `BENCH_<figure>.json` next to the CSV; it
/// self-validates against the schema before hitting disk.
pub fn write_report(
    figure: &str,
    title: &str,
    csv_path: &str,
    points: &[Point],
) -> std::io::Result<()> {
    let path = report_path_for(csv_path, figure);
    report(figure, title, points).write(&path)?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// The CSV series plus the structured report alongside it.
pub fn emit(figure: &str, title: &str, csv_path: &str, points: &[Point]) -> std::io::Result<()> {
    write_csv(csv_path, points)?;
    write_report(figure, title, csv_path, points)
}
