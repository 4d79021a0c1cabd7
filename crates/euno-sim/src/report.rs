//! Structured run reports: one JSON document per figure regeneration.
//!
//! CSVs are fine for plotting one series, but they drop everything a
//! later perf PR needs to argue against: the abort breakdown, the latency
//! tail, the fallback/bypass behaviour Brown's HTM-template work shows
//! dominates HTM performance, and — crucially — the provenance (workload
//! spec, θ, seed, retry policy, cost-model constants, git revision) that
//! makes a number reproducible. Every `euno-bench` binary therefore
//! writes a `BENCH_<fig>.json` next to its CSV through this module.
//!
//! The JSON value type, writer and parser are in-tree: the container's
//! crate registry is unreachable (DESIGN.md §6), so no serde — the
//! implementation lives in `euno-trace` (shared with the Chrome trace
//! exporter) and is re-exported here as [`Json`]. The format is
//! documented in DESIGN.md §11 and checked by [`validate_report`], which
//! [`RunReport::write`] applies to every report before writing it.

use std::path::{Path, PathBuf};

use euno_htm::{AbortClass, CostModel};
use euno_metrics::{
    adaptation_lags, approx_quantile_from_buckets, Counter, Counts, Gauge, LogHistogram, TimeSeries,
};
use euno_trace::{LeafCounters, LeafProfile};
use euno_workloads::{KeyDistribution, WorkloadSpec};

use crate::harness::RunConfig;
use crate::metrics::RunMetrics;

pub use euno_trace::Json;

/// Bumped whenever a required key is added, removed or renamed.
/// v2: three-path executor — three `stages` keys and one rate for its
/// footprint-locked third path.
/// v3: `euno-metrics` — stage counts now come from the always-on metric
/// registry ([`RunMetrics::counts`]); metrics gained an optional
/// `timeseries` section (Δ-tick sampler windows, CCM flip events and
/// adaptation lags) validated when present.
/// v4: `euno-serve` — metrics gained an optional `serve` section
/// (router/queue/group-commit counters plus the drained-batch-size
/// histogram). The section was dropped later without a bump: it was
/// optional, and nothing writes it any more.
/// v5: two-path executor — v2's four keys are gone (named in DESIGN.md
/// §11).
pub const SCHEMA_VERSION: u64 = 5;

/// The `policy` provenance key of every run: all regions run under the one
/// [`RetryPolicy::DBX`](euno_htm::RetryPolicy::DBX) schedule. Kept in the
/// document so reports recorded while the policy was selectable stay
/// comparable under the same schema.
const POLICY_LABEL: &str = "dbx";

/// Hot-leaf rows kept in a report's `profile` section (the full table
/// stays available in-process via [`RunMetrics::profile`]).
pub const PROFILE_TOP_N: usize = 32;

// ============================ report model ============================

/// One measured run inside a report: the full provenance needed to
/// reproduce it plus the metrics it produced.
#[derive(Clone, Debug)]
pub struct RunEntry {
    /// System label ("Euno-B+Tree", "+Split HTM", …).
    pub system: String,
    /// The figure's x-axis value as a printable string (θ, threads, …).
    pub x: String,
    pub spec: WorkloadSpec,
    pub cfg: RunConfig,
    pub metrics: RunMetrics,
    /// Figure-specific extras (memory accounting, swept cost constants…).
    pub extra: Vec<(String, f64)>,
}

/// A full figure regeneration: provenance + every run.
#[derive(Clone, Debug)]
pub struct RunReport {
    /// Stable figure id ("fig01", "ycsb", …) — names the output file.
    pub figure: String,
    /// Human title ("Figure 1: HTM-B+Tree throughput vs contention").
    pub title: String,
    /// Cost-model constants the runs were charged under.
    pub cost: CostModel,
    pub runs: Vec<RunEntry>,
}

fn dist_json(dist: &KeyDistribution) -> Json {
    let (name, param): (&str, Json) = match dist {
        KeyDistribution::Uniform => ("uniform", Json::Null),
        KeyDistribution::Zipfian { theta, scramble } => (
            "zipfian",
            Json::Obj(vec![
                ("theta".into(), Json::Num(*theta)),
                ("scramble".into(), Json::Bool(*scramble)),
            ]),
        ),
        KeyDistribution::SelfSimilar { h } => ("self_similar", Json::Num(*h)),
        KeyDistribution::Normal { sd_fraction } => ("normal", Json::Num(*sd_fraction)),
        KeyDistribution::Poisson { lambda } => ("poisson", Json::Num(*lambda)),
    };
    Json::Obj(vec![
        ("name".into(), Json::str(name)),
        ("param".into(), param),
    ])
}

fn spec_json(spec: &WorkloadSpec) -> Json {
    Json::Obj(vec![
        ("key_range".into(), Json::u64(spec.key_range)),
        ("dist".into(), dist_json(&spec.dist)),
        (
            "mix".into(),
            Json::Obj(vec![
                ("get".into(), Json::Num(spec.mix.get)),
                ("put".into(), Json::Num(spec.mix.put)),
                ("delete".into(), Json::Num(spec.mix.delete)),
                ("scan".into(), Json::Num(spec.mix.scan)),
            ]),
        ),
        ("scan_len".into(), Json::u64(spec.scan_len as u64)),
        ("preload".into(), Json::str(format!("{:?}", spec.preload))),
        ("policy".into(), Json::str(POLICY_LABEL)),
    ])
}

fn cost_json(c: &CostModel) -> Json {
    Json::Obj(vec![
        ("freq_hz".into(), Json::Num(c.freq_hz)),
        ("access_hit".into(), Json::u64(c.access_hit)),
        ("line_first_touch".into(), Json::u64(c.line_first_touch)),
        ("line_transfer".into(), Json::u64(c.line_transfer)),
        ("cas".into(), Json::u64(c.cas)),
        ("xbegin".into(), Json::u64(c.xbegin)),
        ("xend".into(), Json::u64(c.xend)),
        ("abort_penalty".into(), Json::u64(c.abort_penalty)),
        ("backoff_base".into(), Json::u64(c.backoff_base)),
        ("backoff_cap".into(), Json::u64(c.backoff_cap)),
        ("op_overhead".into(), Json::u64(c.op_overhead)),
        ("alu".into(), Json::u64(c.alu)),
        ("lock_acquire".into(), Json::u64(c.lock_acquire)),
        ("lock_release".into(), Json::u64(c.lock_release)),
        ("spin_iter".into(), Json::u64(c.spin_iter)),
        (
            "write_capacity_lines".into(),
            Json::u64(c.write_capacity_lines as u64),
        ),
        (
            "read_capacity_lines".into(),
            Json::u64(c.read_capacity_lines as u64),
        ),
        (
            "spurious_abort_per_cycle".into(),
            Json::Num(c.spurious_abort_per_cycle),
        ),
    ])
}

fn aborts_json(a: &Counts, ops: u64) -> Json {
    let ops = ops.max(1) as f64;
    let by_class = AbortClass::ALL.map(|c| (c.name().into(), Json::u64(a[c])));
    let mut fields = Vec::from(by_class);
    fields.extend([
        ("total".into(), Json::u64(a.aborts())),
        ("per_op".into(), Json::Num(a.aborts() as f64 / ops)),
        (
            "leaf_level_conflicts".into(),
            Json::u64(a.leaf_level_conflicts()),
        ),
    ]);
    Json::Obj(fields)
}

/// A histogram's nonzero buckets as `[floor, count]` pairs.
fn buckets_json(h: &LogHistogram) -> Json {
    let pair = |(floor, count)| Json::Arr(vec![Json::u64(floor), Json::u64(count)]);
    Json::Arr(h.nonzero_buckets().into_iter().map(pair).collect())
}

/// The metrics block of one run entry. Public so bespoke binaries (e.g.
/// the memory audit) can embed metrics into their own documents.
pub fn metrics_json(m: &RunMetrics) -> Json {
    let s = &m.stats;
    let c = &m.counts;
    let lat = &m.latency;
    let attempts = c[Counter::Attempts].max(1) as f64;
    let count = |k: Counter| Json::u64(c[k]);
    let mut fields = vec![
        ("threads".into(), Json::u64(m.threads as u64)),
        ("total_ops".into(), Json::u64(m.total_ops)),
        ("elapsed_secs".into(), Json::Num(m.elapsed_secs)),
        ("throughput".into(), Json::Num(m.throughput)),
        ("throughput_mops".into(), Json::Num(m.mops())),
        ("aborts".into(), aborts_json(c, m.total_ops)),
        ("aborts_per_op".into(), Json::Num(m.aborts_per_op)),
        (
            "wasted_cycle_fraction".into(),
            Json::Num(m.wasted_cycle_fraction),
        ),
        ("accesses_per_op".into(), Json::Num(m.accesses_per_op)),
        ("fallbacks_per_op".into(), Json::Num(m.fallbacks_per_op)),
        (
            "fallback_rate".into(),
            Json::Num(c[Counter::Fallbacks] as f64 / attempts),
        ),
        (
            "stages".into(),
            Json::Obj(vec![
                ("attempts".into(), count(Counter::Attempts)),
                ("commits".into(), count(Counter::Commits)),
                ("fallbacks".into(), count(Counter::Fallbacks)),
                ("backoffs".into(), count(Counter::Backoffs)),
                ("cycles_backoff".into(), Json::u64(s.cycles_backoff)),
                ("cycles_lock_wait".into(), Json::u64(s.cycles_lock_wait)),
                (
                    "cycles_fallback_wait".into(),
                    Json::u64(s.cycles_fallback_wait),
                ),
                ("ccm_bypass_flips".into(), count(Counter::CcmBypassFlips)),
                ("optimistic_retries".into(), Json::u64(s.optimistic_retries)),
                ("cycles_total".into(), Json::u64(s.cycles_total)),
                ("cycles_wasted".into(), Json::u64(s.cycles_wasted)),
                (
                    "measure_start_cycles".into(),
                    match s.measure_start_cycles {
                        Some(v) => Json::u64(v),
                        None => Json::Null,
                    },
                ),
                ("mem_accesses".into(), Json::u64(s.mem_accesses)),
                ("cas_ops".into(), Json::u64(s.cas_ops)),
            ]),
        ),
        (
            "latency".into(),
            Json::Obj(vec![
                ("count".into(), Json::u64(lat.count())),
                ("mean".into(), Json::Num(lat.mean())),
                ("p50".into(), Json::u64(lat.quantile(0.50))),
                ("p90".into(), Json::u64(lat.quantile(0.90))),
                ("p99".into(), Json::u64(lat.quantile(0.99))),
                ("p999".into(), Json::u64(lat.quantile(0.999))),
                ("max".into(), Json::u64(lat.max())),
                ("buckets".into(), buckets_json(lat)),
            ]),
        ),
    ];
    if let Some(ts) = &m.timeseries {
        fields.push(("timeseries".into(), timeseries_json(m, ts)));
    }
    Json::Obj(fields)
}

/// The optional `timeseries` section: the Δ-tick sampler's windows (one
/// entry per consecutive-snapshot pair, nonzero counter deltas only, so
/// the document stays proportional to activity rather than to
/// `Counter::COUNT`), plus the CCM flip-event ledger and the adaptation
/// lags derived from it.
pub fn timeseries_json(m: &RunMetrics, ts: &TimeSeries) -> Json {
    let points: Vec<Json> = ts
        .windows()
        .map(|w| {
            let counters: Vec<(String, Json)> = Counter::ALL
                .iter()
                .filter(|c| w.counters[c.index()] > 0)
                .map(|c| (c.name().to_string(), Json::u64(w.counters[c.index()])))
                .collect();
            let gauges: Vec<(String, Json)> = Gauge::ALL
                .iter()
                .map(|g| (g.name().to_string(), Json::u64(w.gauges[g.index()])))
                .collect();
            let lat_count: u64 = w.hist.iter().sum();
            Json::Obj(vec![
                ("tick".into(), Json::u64(w.t1)),
                ("span".into(), Json::u64(w.span())),
                ("counters".into(), Json::Obj(counters)),
                ("gauges".into(), Json::Obj(gauges)),
                (
                    "latency".into(),
                    Json::Obj(vec![
                        ("count".into(), Json::u64(lat_count)),
                        (
                            "p50".into(),
                            Json::u64(approx_quantile_from_buckets(&w.hist, 0.50)),
                        ),
                        (
                            "p99".into(),
                            Json::u64(approx_quantile_from_buckets(&w.hist, 0.99)),
                        ),
                    ]),
                ),
                ("flip_events".into(), Json::u64(w.flip_events)),
            ])
        })
        .collect();
    let flips: Vec<Json> = m
        .flips
        .iter()
        .map(|e| {
            Json::Obj(vec![
                ("tick".into(), Json::u64(e.tick)),
                ("addr".into(), Json::str(format!("{:#x}", e.addr))),
                ("kind".into(), Json::str(e.kind.name())),
            ])
        })
        .collect();
    let lags = adaptation_lags(&m.flips);
    let answered: Vec<u64> = lags.iter().filter_map(|l| l.lag).collect();
    let adaptation = Json::Obj(vec![
        ("shifts".into(), Json::u64(lags.len() as u64)),
        ("answered".into(), Json::u64(answered.len() as u64)),
        (
            "lags".into(),
            Json::Arr(
                lags.iter()
                    .map(|l| {
                        Json::Obj(vec![
                            ("shift_tick".into(), Json::u64(l.shift_tick)),
                            (
                                "lag".into(),
                                match l.lag {
                                    Some(v) => Json::u64(v),
                                    None => Json::Null,
                                },
                            ),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "mean_lag".into(),
            if answered.is_empty() {
                Json::Null
            } else {
                Json::Num(answered.iter().sum::<u64>() as f64 / answered.len() as f64)
            },
        ),
        (
            "max_lag".into(),
            match answered.iter().max() {
                Some(&v) => Json::u64(v),
                None => Json::Null,
            },
        ),
    ]);
    Json::Obj(vec![
        ("tick_unit".into(), Json::str("cycles")),
        ("delta".into(), Json::u64(ts.delta())),
        ("samples".into(), Json::u64(ts.len() as u64)),
        ("dropped".into(), Json::u64(ts.dropped())),
        ("points".into(), Json::Arr(points)),
        ("flips".into(), Json::Arr(flips)),
        ("adaptation".into(), adaptation),
    ])
}

fn profile_counters_json(c: &LeafCounters) -> Vec<(String, Json)> {
    vec![
        ("aborts".into(), Json::u64(c.aborts)),
        ("lock_wait_cycles".into(), Json::u64(c.lock_wait_cycles)),
        ("lock_acquires".into(), Json::u64(c.lock_acquires)),
        ("ccm_flips".into(), Json::u64(c.ccm_flips)),
        ("splits".into(), Json::u64(c.splits)),
        ("merges".into(), Json::u64(c.merges)),
    ]
}

/// The `profile` section: the ranked hot-leaf table (top
/// [`PROFILE_TOP_N`] rows), the unattributed pool, and the event-stream
/// accounting. Leaf addresses are hex strings — raw pointers can exceed
/// the exact-f64 range that `Json::u64` guarantees.
pub fn profile_json(p: &LeafProfile) -> Json {
    let rows = p
        .top(PROFILE_TOP_N)
        .iter()
        .map(|(addr, c)| {
            let mut fields = vec![("addr".into(), Json::str(format!("{addr:#x}")))];
            fields.extend(profile_counters_json(c));
            Json::Obj(fields)
        })
        .collect();
    Json::Obj(vec![
        ("leaves".into(), Json::Arr(rows)),
        (
            "unattributed".into(),
            Json::Obj(profile_counters_json(&p.unattributed)),
        ),
        ("events_seen".into(), Json::u64(p.events_seen)),
        ("events_dropped".into(), Json::u64(p.events_dropped)),
    ])
}

fn entry_json(e: &RunEntry) -> Json {
    let mut fields = vec![
        ("system".into(), Json::str(&e.system)),
        ("x".into(), Json::str(&e.x)),
        (
            "config".into(),
            Json::Obj(vec![
                ("threads".into(), Json::u64(e.cfg.threads as u64)),
                ("ops_per_thread".into(), Json::u64(e.cfg.ops_per_thread)),
                ("warmup_ops".into(), Json::u64(e.cfg.warmup_ops)),
                ("seed".into(), Json::u64(e.cfg.seed)),
                ("policy".into(), Json::str(POLICY_LABEL)),
            ]),
        ),
        ("spec".into(), spec_json(&e.spec)),
        ("metrics".into(), metrics_json(&e.metrics)),
    ];
    if let Some(p) = &e.metrics.profile {
        fields.push(("profile".into(), profile_json(p)));
    }
    if !e.extra.is_empty() {
        fields.push((
            "extra".into(),
            Json::Obj(
                e.extra
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ));
    }
    Json::Obj(fields)
}

/// `git describe --always --dirty` of the working tree, or `"unknown"`
/// outside a git checkout.
pub fn git_describe() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty", "--tags"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

impl RunReport {
    pub fn new(figure: impl Into<String>, title: impl Into<String>, cost: CostModel) -> Self {
        RunReport {
            figure: figure.into(),
            title: title.into(),
            cost,
            runs: Vec::new(),
        }
    }

    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("schema_version".into(), Json::u64(SCHEMA_VERSION)),
            ("figure".into(), Json::str(&self.figure)),
            ("title".into(), Json::str(&self.title)),
            ("git".into(), Json::str(git_describe())),
            (
                "bench_scale".into(),
                Json::Num(
                    std::env::var("EUNO_BENCH_SCALE")
                        .ok()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or(1.0),
                ),
            ),
            ("cost_model".into(), cost_json(&self.cost)),
            (
                "runs".into(),
                Json::Arr(self.runs.iter().map(entry_json).collect()),
            ),
        ])
    }

    /// Serialize, self-validate, and write to `path`.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let text = self.to_json().to_pretty();
        validate_report(&text).map_err(std::io::Error::other)?;
        std::fs::write(path, text)
    }
}

/// The report file that belongs next to a figure's CSV:
/// `<csv dir>/BENCH_<figure>.json`.
pub fn report_path_for(csv_path: &str, figure: &str) -> PathBuf {
    let dir = Path::new(csv_path).parent().unwrap_or(Path::new("."));
    dir.join(format!("BENCH_{figure}.json"))
}

// ============================ schema check ============================

const RUN_METRIC_KEYS: &[&str] = &[
    "threads",
    "total_ops",
    "elapsed_secs",
    "throughput",
    "throughput_mops",
    "aborts",
    "aborts_per_op",
    "wasted_cycle_fraction",
    "fallbacks_per_op",
    "fallback_rate",
    "stages",
    "latency",
];

const ABORT_KEYS: &[&str] = &[
    "true_same_record",
    "false_different_record",
    "false_metadata",
    "false_structure",
    "capacity",
    "explicit",
    "spurious",
    "fallback_locked",
    "total",
    "per_op",
];

const STAGE_KEYS: &[&str] = &[
    "attempts",
    "commits",
    "fallbacks",
    "backoffs",
    "cycles_backoff",
    "cycles_lock_wait",
    "cycles_fallback_wait",
    "ccm_bypass_flips",
];

const LATENCY_KEYS: &[&str] = &["count", "mean", "p50", "p99", "p999", "max"];

const TIMESERIES_KEYS: &[&str] = &[
    "tick_unit",
    "delta",
    "samples",
    "dropped",
    "points",
    "flips",
    "adaptation",
];

const TIMESERIES_POINT_KEYS: &[&str] = &["tick", "span", "counters", "gauges", "latency"];

const ADAPTATION_KEYS: &[&str] = &["shifts", "answered", "lags", "mean_lag", "max_lag"];

const PROFILE_COUNTER_KEYS: &[&str] = &[
    "aborts",
    "lock_wait_cycles",
    "lock_acquires",
    "ccm_flips",
    "splits",
    "merges",
];

fn require<'j>(obj: &'j Json, key: &str, at: &str) -> Result<&'j Json, String> {
    obj.get(key)
        .ok_or_else(|| format!("{at}: missing key {key:?}"))
}

fn require_keys(obj: &Json, keys: &[&str], at: &str) -> Result<(), String> {
    for k in keys {
        require(obj, k, at)?;
    }
    Ok(())
}

/// Parse `text` as JSON and check it against the run-report schema
/// (DESIGN.md §11): provenance at the top, and per run a config, a spec,
/// per-cause aborts, stage counts and latency quantiles.
pub fn validate_report(text: &str) -> Result<(), String> {
    let doc = Json::parse(text)?;
    let at = "report";
    require(&doc, "schema_version", at)?
        .as_f64()
        .filter(|&v| v == SCHEMA_VERSION as f64)
        .ok_or(format!("report: schema_version must be {SCHEMA_VERSION}"))?;
    require(&doc, "figure", at)?
        .as_str()
        .ok_or("report: figure must be a string")?;
    require(&doc, "git", at)?
        .as_str()
        .ok_or("report: git must be a string")?;
    let cost = require(&doc, "cost_model", at)?;
    require_keys(
        cost,
        &["freq_hz", "line_transfer", "abort_penalty", "op_overhead"],
        "cost_model",
    )?;
    let runs = require(&doc, "runs", at)?
        .as_arr()
        .ok_or("report: runs must be an array")?;
    if runs.is_empty() {
        return Err("report: runs is empty".into());
    }
    for (i, run) in runs.iter().enumerate() {
        let at = format!("runs[{i}]");
        require(run, "system", &at)?
            .as_str()
            .ok_or(format!("{at}: system must be a string"))?;
        require(run, "x", &at)?;
        let config = require(run, "config", &at)?;
        require_keys(
            config,
            &["threads", "ops_per_thread", "warmup_ops", "seed", "policy"],
            &format!("{at}.config"),
        )?;
        let spec = require(run, "spec", &at)?;
        require_keys(
            spec,
            &["key_range", "dist", "mix", "policy"],
            &format!("{at}.spec"),
        )?;
        let metrics = require(run, "metrics", &at)?;
        require_keys(metrics, RUN_METRIC_KEYS, &format!("{at}.metrics"))?;
        require_keys(
            require(metrics, "aborts", &at)?,
            ABORT_KEYS,
            &format!("{at}.metrics.aborts"),
        )?;
        require_keys(
            require(metrics, "stages", &at)?,
            STAGE_KEYS,
            &format!("{at}.metrics.stages"),
        )?;
        require_keys(
            require(metrics, "latency", &at)?,
            LATENCY_KEYS,
            &format!("{at}.metrics.latency"),
        )?;
        if let Some(ts) = metrics.get("timeseries") {
            validate_timeseries(ts, &format!("{at}.metrics.timeseries"))?;
        }
        if let Some(profile) = run.get("profile") {
            validate_profile(profile, &format!("{at}.profile"))?;
        }
    }
    Ok(())
}

/// Check a run's optional `timeseries` section: sampler provenance, the
/// window points (ticks strictly increasing — cumulative snapshots never
/// regress), the flip ledger and the adaptation summary.
fn validate_timeseries(ts: &Json, at: &str) -> Result<(), String> {
    require_keys(ts, TIMESERIES_KEYS, at)?;
    require(ts, "tick_unit", at)?
        .as_str()
        .filter(|u| *u == "cycles")
        .ok_or(format!("{at}: tick_unit must be \"cycles\""))?;
    let points = require(ts, "points", at)?
        .as_arr()
        .ok_or(format!("{at}: points must be an array"))?;
    let mut prev_tick = -1.0f64;
    for (i, p) in points.iter().enumerate() {
        let at = format!("{at}.points[{i}]");
        require_keys(p, TIMESERIES_POINT_KEYS, &at)?;
        let tick = require(p, "tick", &at)?
            .as_f64()
            .ok_or(format!("{at}: tick must be a number"))?;
        if tick <= prev_tick {
            return Err(format!("{at}: ticks not strictly increasing"));
        }
        prev_tick = tick;
    }
    for (i, f) in require(ts, "flips", at)?
        .as_arr()
        .ok_or(format!("{at}: flips must be an array"))?
        .iter()
        .enumerate()
    {
        require_keys(f, &["tick", "addr", "kind"], &format!("{at}.flips[{i}]"))?;
    }
    require_keys(
        require(ts, "adaptation", at)?,
        ADAPTATION_KEYS,
        &format!("{at}.adaptation"),
    )?;
    Ok(())
}

/// Check a run's optional `profile` section: stream accounting, the
/// unattributed pool, and a leaves table whose rows carry every counter
/// and stay ranked hottest-first (non-increasing abort counts).
fn validate_profile(profile: &Json, at: &str) -> Result<(), String> {
    require_keys(profile, &["events_seen", "events_dropped"], at)?;
    require_keys(
        require(profile, "unattributed", at)?,
        PROFILE_COUNTER_KEYS,
        &format!("{at}.unattributed"),
    )?;
    let leaves = require(profile, "leaves", at)?
        .as_arr()
        .ok_or(format!("{at}: leaves must be an array"))?;
    let mut prev_aborts = f64::INFINITY;
    for (i, row) in leaves.iter().enumerate() {
        let at = format!("{at}.leaves[{i}]");
        require(row, "addr", &at)?
            .as_str()
            .filter(|s| s.starts_with("0x"))
            .ok_or(format!("{at}: addr must be a hex string"))?;
        require_keys(row, PROFILE_COUNTER_KEYS, &at)?;
        let aborts = require(row, "aborts", &at)?
            .as_f64()
            .ok_or(format!("{at}: aborts must be a number"))?;
        if aborts > prev_aborts {
            return Err(format!("{at}: table not ranked (aborts increase)"));
        }
        prev_aborts = aborts;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use euno_htm::ThreadStats;
    use euno_metrics::{FlipEvent, FlipKind, LogHistogram, Registry};

    fn sample_metrics() -> RunMetrics {
        let mut hist = LogHistogram::new();
        for v in [900u64, 1_200, 2_000, 40_000] {
            hist.record(v);
        }
        let t = ThreadStats {
            cycles_backoff: 80,
            cycles_total: 50_000,
            measure_start_cycles: Some(1_000),
            ..Default::default()
        };
        let mut counts = Counts::default();
        counts[Counter::Ops] = 4;
        counts[Counter::Attempts] = 6;
        counts[Counter::Commits] = 4;
        counts[Counter::Backoffs] = 2;
        // 1 ms of virtual time past the warm-up mark.
        RunMetrics::from_virtual(t, 1, counts, 2_301_000, &CostModel::default(), hist)
    }

    fn sample_report() -> RunReport {
        let mut r = RunReport::new("figtest", "test figure", CostModel::default());
        r.runs.push(RunEntry {
            system: "Euno-B+Tree".into(),
            x: "0.9".into(),
            spec: WorkloadSpec::paper_default(0.9),
            cfg: RunConfig::default(),
            metrics: sample_metrics(),
            extra: vec![("structural_bytes".into(), 4096.0)],
        });
        r
    }

    #[test]
    fn profile_section_serializes_and_validates() {
        let mut report = sample_report();
        let hot = LeafCounters {
            aborts: 10,
            lock_wait_cycles: 900,
            lock_acquires: 4,
            ccm_flips: 1,
            splits: 1,
            merges: 0,
        };
        let warm = LeafCounters {
            aborts: 3,
            ..Default::default()
        };
        report.runs[0].metrics.profile = Some(LeafProfile {
            leaves: vec![(0x7f00_0000_1000, hot), (0x7f00_0000_2000, warm)],
            unattributed: LeafCounters {
                aborts: 2,
                ..Default::default()
            },
            events_seen: 20,
            events_dropped: 1,
        });
        let text = report.to_json().to_pretty();
        validate_report(&text).unwrap();
        let doc = Json::parse(&text).unwrap();
        let profile = doc.get("runs").unwrap().as_arr().unwrap()[0]
            .get("profile")
            .unwrap();
        let rows = profile.get("leaves").unwrap().as_arr().unwrap();
        assert_eq!(
            rows[0].get("addr").unwrap().as_str(),
            Some("0x7f0000001000")
        );
        assert_eq!(rows[0].get("aborts").unwrap().as_f64(), Some(10.0));
        assert_eq!(profile.get("events_dropped").unwrap().as_f64(), Some(1.0));
    }

    #[test]
    fn unranked_profile_table_is_rejected() {
        let mut report = sample_report();
        let cold = LeafCounters {
            aborts: 1,
            ..Default::default()
        };
        let hot = LeafCounters {
            aborts: 5,
            ..Default::default()
        };
        // Deliberately out of order: validation must catch it.
        report.runs[0].metrics.profile = Some(LeafProfile {
            leaves: vec![(0x1000, cold), (0x2000, hot)],
            unattributed: LeafCounters::default(),
            events_seen: 6,
            events_dropped: 0,
        });
        let err = validate_report(&report.to_json().to_pretty()).unwrap_err();
        assert!(err.contains("not ranked"), "unexpected error: {err}");
    }

    #[test]
    fn report_serializes_and_validates() {
        let text = sample_report().to_json().to_pretty();
        validate_report(&text).unwrap();
        // And the document carries the headline telemetry.
        let doc = Json::parse(&text).unwrap();
        let run = &doc.get("runs").unwrap().as_arr().unwrap()[0];
        let lat = run.get("metrics").unwrap().get("latency").unwrap();
        assert_eq!(lat.get("max").unwrap().as_f64(), Some(40_000.0));
        assert_eq!(
            run.get("extra")
                .unwrap()
                .get("structural_bytes")
                .unwrap()
                .as_f64(),
            Some(4096.0)
        );
        assert_eq!(
            run.get("config").unwrap().get("policy").unwrap().as_str(),
            Some("dbx")
        );
    }

    #[test]
    fn validation_catches_missing_keys() {
        let mut doc = sample_report().to_json();
        // Drop a latency quantile from the only run.
        if let Json::Obj(fields) = &mut doc {
            let runs = fields.iter_mut().find(|(k, _)| k == "runs").unwrap();
            if let Json::Arr(runs) = &mut runs.1 {
                if let Json::Obj(run) = &mut runs[0] {
                    let m = run.iter_mut().find(|(k, _)| k == "metrics").unwrap();
                    if let Json::Obj(metrics) = &mut m.1 {
                        let l = metrics.iter_mut().find(|(k, _)| k == "latency").unwrap();
                        if let Json::Obj(lat) = &mut l.1 {
                            lat.retain(|(k, _)| k != "p999");
                        }
                    }
                }
            }
        }
        let err = validate_report(&doc.to_pretty()).unwrap_err();
        assert!(err.contains("p999"), "unexpected error: {err}");
        assert!(validate_report("{}").is_err());
        assert!(validate_report("not json").is_err());
    }

    #[test]
    fn timeseries_section_serializes_and_validates() {
        let mut report = sample_report();
        // Two sampled snapshots with activity in between → one window.
        let reg = Registry::new();
        let shard = reg.register_shard();
        let mut ts = TimeSeries::new(100, 8);
        shard.add(Counter::Ops, 3);
        shard.record_latency(500);
        ts.sample(100, &reg);
        shard.add(Counter::Ops, 5);
        shard.add(Counter::Commits, 4);
        ts.sample(200, &reg);
        report.runs[0].metrics.timeseries = Some(ts);
        report.runs[0].metrics.flips = vec![
            FlipEvent {
                tick: 120,
                addr: 0,
                kind: FlipKind::ShiftMark,
            },
            FlipEvent {
                tick: 150,
                addr: 0xbeef,
                kind: FlipKind::ToProtect,
            },
        ];
        let text = report.to_json().to_pretty();
        validate_report(&text).unwrap();
        let doc = Json::parse(&text).unwrap();
        let section = doc.get("runs").unwrap().as_arr().unwrap()[0]
            .get("metrics")
            .unwrap()
            .get("timeseries")
            .unwrap()
            .clone();
        assert_eq!(section.get("tick_unit").unwrap().as_str(), Some("cycles"));
        let points = section.get("points").unwrap().as_arr().unwrap();
        assert_eq!(points.len(), 1);
        let counters = points[0].get("counters").unwrap();
        assert_eq!(counters.get("ops").unwrap().as_f64(), Some(5.0));
        assert_eq!(counters.get("commits").unwrap().as_f64(), Some(4.0));
        // Zero-delta counters are elided from the window object.
        assert!(counters.get("fallbacks").is_none());
        let adaptation = section.get("adaptation").unwrap();
        assert_eq!(adaptation.get("shifts").unwrap().as_f64(), Some(1.0));
        assert_eq!(adaptation.get("mean_lag").unwrap().as_f64(), Some(30.0));
    }

    #[test]
    fn nonmonotone_timeseries_ticks_are_rejected() {
        let mut report = sample_report();
        let reg = Registry::new();
        let _shard = reg.register_shard();
        let mut ts = TimeSeries::new(10, 8);
        ts.sample(10, &reg);
        ts.sample(20, &reg);
        ts.sample(30, &reg);
        report.runs[0].metrics.timeseries = Some(ts);
        let mut doc = report.to_json();
        let text = doc.to_pretty();
        validate_report(&text).unwrap();
        // Corrupt the second point's tick below the first's.
        fn find<'j>(doc: &'j mut Json, key: &str) -> &'j mut Json {
            match doc {
                Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == key).unwrap().1,
                _ => panic!("not an object"),
            }
        }
        let runs = find(&mut doc, "runs");
        if let Json::Arr(runs) = runs {
            let points = find(find(find(&mut runs[0], "metrics"), "timeseries"), "points");
            if let Json::Arr(points) = points {
                *find(&mut points[1], "tick") = Json::u64(5);
            }
        }
        let err = validate_report(&doc.to_pretty()).unwrap_err();
        assert!(err.contains("strictly increasing"), "unexpected: {err}");
    }

    #[test]
    fn report_path_lands_next_to_csv() {
        assert_eq!(
            report_path_for("results/fig01.csv", "fig01"),
            PathBuf::from("results/BENCH_fig01.json")
        );
        assert_eq!(
            report_path_for("lone.csv", "x"),
            PathBuf::from("BENCH_x.json")
        );
    }

    #[test]
    fn write_creates_validated_file() {
        let dir = std::env::temp_dir().join("euno_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_figtest.json");
        sample_report().write(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        validate_report(&text).unwrap();
        std::fs::remove_file(&path).ok();
    }
}
