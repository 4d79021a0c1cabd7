//! The six workloads: what each sets up, runs and checks, and how a pass
//! becomes the metrics of `BENCHMARK.json`.
//!
//! An untraced run reports the end-to-end metrics. A traced run repeats
//! the workload at a quarter of its length twice — spans off, then on —
//! adds the layer ladder, and reports the per-layer metrics; the gap
//! between its two passes is the tracing overhead. Only the `virt-*`
//! workloads are gated (`BENCHMARK.json`); a traced `virt-*` run also
//! makes a short traced pass of one wall workload (`WALL_PARTNER`), whose
//! numbers travel as per-layer metrics.
//!
//! **One instance per process.** The program registers every tree node in
//! an address-sorted vector, so a node allocated below the heap's top (a
//! hole left by anything freed earlier) costs a memmove that a node at the
//! top does not: a second tree built in one process takes 1.7× as long as
//! the first, and 7× once the first was dropped. A user pays the fresh
//! cost, so everything timed here runs on the first instance its process
//! builds: repeated set-ups, the spans-off pass of a traced run and the
//! ladder each run in a child process of their own (`--phase`).

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use euno_baselines::HtmBTree;
use euno_core::{EunoBTreeDefault, EunoConfig};
use euno_htm::{ConcurrentMap, Runtime};

use crate::check::dump_failures;
use crate::gen::{checksum, poisson_arrivals, Kind, Op, Traffic};
use crate::hist::median;
use crate::json::Json;
use crate::ladder;
use crate::pin::Placement;
use crate::probe::HostProbe;
use crate::serve::{self, Load, PassSpec, ServePass};
use crate::span::{summarize, write_jsonl, Span};
use crate::virt::{self, VirtPass};
use crate::wall::{self, WallPass};

pub const NAMES: [&str; 6] = [
    "virt-hot",
    "virt-flat",
    "virt-scan-churn",
    "wall-point",
    "serve-sat",
    "serve-open",
];

/// Set-up is timed this many times per run, each in a fresh process (the
/// run's own included); `setup_s` is the median.
const SETUP_REPS: usize = 3;
const VIRT_STREAM_LEN: usize = 1 << 16;
const WALL_STREAM_LEN: usize = 1 << 21;
/// A traced pass runs this fraction of the untraced length.
const TRACE_FRACTION: u64 = 4;
/// Span sampling of the served workloads (a request has four spans; the
/// files stay in the tens of MB).
const SAT_TRACE_EVERY: u64 = 64;
const OPEN_TRACE_EVERY: u64 = 16;
/// `serve.slo_rate_ops_s`: the rates tried and the limits they must keep.
const SLO_RATES: [f64; 3] = [100_000.0, 200_000.0, 400_000.0];
const SLO_P99_NS: f64 = 2_000_000.0;
const SLO_FAILED_FRAC: f64 = 0.001;

/// FNV checksums of the generated ops for `--seed 1`, per workload.
const SEED1_CHECKSUMS: [(&str, u64); 6] = [
    ("virt-hot", 0xf2cb_881b_f361_2890),
    ("virt-flat", 0x92e2_84f8_784c_7bdc),
    ("virt-scan-churn", 0xaa45_f737_9f8c_fd62),
    ("wall-point", 0xa576_6c22_c8ec_ecee),
    ("serve-sat", 0xe2e0_003f_554e_bd5c),
    ("serve-open", 0xe2e0_003f_554e_bd5c),
];

#[derive(Clone, Copy, PartialEq)]
enum Family {
    Virt(Traffic),
    Wall,
    ServeSat,
    ServeOpen,
}

fn family_of(workload: &str) -> Result<Family, String> {
    Ok(match workload {
        "virt-hot" => Family::Virt(Traffic::Hot),
        "virt-flat" => Family::Virt(Traffic::Flat),
        "virt-scan-churn" => Family::Virt(Traffic::ScanChurn),
        "wall-point" => Family::Wall,
        "serve-sat" => Family::ServeSat,
        "serve-open" => Family::ServeOpen,
        other => return Err(format!("unknown workload `{other}` (one of {NAMES:?})")),
    })
}

pub struct Args {
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

impl Args {
    /// A traced run's passes are a quarter as long.
    fn divisor(&self) -> u64 {
        if self.trace {
            TRACE_FRACTION
        } else {
            1
        }
    }
}

pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<(&'static str, f64)>,
    /// Lines for the human reader (checksums, span tables).
    pub notes: Vec<String>,
}

impl Report {
    fn new() -> Self {
        Report {
            attempted: 0,
            failed: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
        }
    }

    fn set(&mut self, name: &'static str, value: f64) {
        match self.metrics.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 = value,
            None => self.metrics.push((name, value)),
        }
    }
}

struct Run<'a> {
    workload: &'a str,
    args: &'a Args,
    place: Placement,
}

impl Run<'_> {
    fn child(&self, phase: &str) -> Result<Json, String> {
        self.child_of(self.workload, phase)
    }

    /// One phase of `workload` with this run's arguments, in a process of
    /// its own.
    fn child_of(&self, workload: &str, phase: &str) -> Result<Json, String> {
        let a = self.args;
        let argv = [
            "--workload",
            workload,
            "--seed",
            &a.seed.to_string(),
            "--seconds",
            &a.seconds.to_string(),
            "--trace",
            if a.trace { "1" } else { "0" },
            "--phase",
            phase,
        ];
        crate::respawn(&argv.map(String::from))
    }

    /// `setup_s`: the median over `SETUP_REPS` fresh processes, the last
    /// being this one, whose instance the run then uses.
    fn set_up<T>(&self, build: impl FnOnce(&mut HostProbe) -> T) -> Result<(T, f64), String> {
        let mut times = Vec::new();
        for _ in 1..SETUP_REPS {
            let probe = self.child("setup")?;
            times.push(
                probe
                    .get("setup_s")
                    .and_then(Json::as_f64)
                    .ok_or("setup phase gave no time")?,
            );
        }
        let (built, setup_s) = timed_set_up(self.workload, build);
        times.push(setup_s);
        Ok((built, median(&times)))
    }
}

/// One set-up, timed: wall seconds in program calls. A build that runs the
/// host probe (the gated `virt-*` workloads do, between their preload's
/// puts) has the probe's time taken out and the rest scaled to the
/// reference host speed; one that does not reads raw seconds.
fn timed_set_up<T>(workload: &str, build: impl FnOnce(&mut HostProbe) -> T) -> (T, f64) {
    let mut probe = HostProbe::new();
    let t = Instant::now();
    let built = build(&mut probe);
    let raw_s = (t.elapsed() - probe.spent()).as_secs_f64();
    println!(
        "info {workload}: one set-up took {raw_s:.4} s on a host {:.3}x as slow as the reference",
        probe.slowdown()
    );
    (built, raw_s / probe.slowdown())
}

fn generate(
    workload: &str,
    traffic: Traffic,
    seed: u64,
    threads: usize,
    len: usize,
    report: &mut Report,
) -> Vec<Vec<Op>> {
    let t = Instant::now();
    let streams = traffic.streams(seed, threads, len);
    let gen_s = t.elapsed().as_secs_f64();
    let sum = checksum(&streams);
    report.notes.push(format!(
        "inputs {workload}: traffic={} seed={seed} threads={threads} ops/thread={len} fnv={sum:016x}",
        traffic.name()
    ));
    report
        .notes
        .push(format!("info {workload}: gen_s={gen_s:.3}"));
    report.set("gen_s", gen_s);
    if seed == 1 {
        let want = SEED1_CHECKSUMS
            .iter()
            .find(|(w, _)| *w == workload)
            .map(|c| c.1);
        if want != Some(sum) {
            report.failed += 1;
            report.notes.push(format!(
                "FAIL inputs for seed 1 changed: fnv {sum:016x}, recorded {:016x}",
                want.unwrap_or(0)
            ));
        }
    }
    streams
}

fn slice_median(values: impl Iterator<Item = f64>) -> f64 {
    median(&values.collect::<Vec<_>>())
}

/// An untraced run's result, in `BENCHMARK.json` order. A `virt-*` run
/// (`mem` given) reports every end-to-end metric; a wall workload reports
/// `WALL_END_TO_END` and its tails as a note.
fn end_to_end(
    report: &mut Report,
    workload: &str,
    throughput: f64,
    lat_ns: impl Fn(f64) -> f64,
    mem: Option<f64>,
    setup_s: f64,
) {
    report.metrics = vec![
        ("throughput_ops_s", throughput),
        ("lat_p50_ns", lat_ns(0.5)),
    ];
    match mem {
        Some(mem) => report.metrics.extend([
            ("lat_p99_ns", lat_ns(0.99)),
            ("lat_p999_ns", lat_ns(0.999)),
            ("mem_bytes_per_key", mem),
        ]),
        None => report.notes.push(format!(
            "info {workload}: lat_p99_ns={:.1} lat_p999_ns={:.1} (wall tails: reported, never gated)",
            lat_ns(0.99),
            lat_ns(0.999)
        )),
    }
    report.metrics.push(("setup_s", setup_s));
}

/// The names under which a wall workload's traced pass reports its own
/// end-to-end numbers (they are per-layer metrics in `BENCHMARK.json`).
struct WallNames {
    throughput: &'static str,
    p50: &'static str,
    p99: &'static str,
}

const POINT_NAMES: WallNames = WallNames {
    throughput: "wall.point.throughput_ops_s",
    p50: "wall.point.lat_p50_ns",
    p99: "wall.point.lat_p99_ns",
};
const SAT_NAMES: WallNames = WallNames {
    throughput: "serve.sat.throughput_ops_s",
    p50: "serve.sat.lat_p50_ns",
    p99: "serve.sat.lat_p99_ns",
};
const OPEN_NAMES: WallNames = WallNames {
    throughput: "serve.open.throughput_ops_s",
    p50: "serve.open.lat_p50_ns",
    p99: "serve.open.lat_p99_ns",
};

/// The wall workload a traced `virt-*` run measures beside its own pass:
/// the same traffic on real threads for `virt-hot`, the served workload
/// that bypasses batching for `virt-flat`, the one that lives on it for
/// `virt-scan-churn`. One each keeps a traced run short.
const WALL_PARTNER: [(&str, &str); 3] = [
    ("virt-hot", "wall-point"),
    ("virt-flat", "serve-open"),
    ("virt-scan-churn", "serve-sat"),
];
/// What a traced `virt-*` run takes from its partner's pass: the partner's
/// own numbers and the counters only real threads move.
const PARTNER_PREFIXES: [&str; 3] = ["wall.point.", "serve.", "htm.tl2_"];

/// A traced pass's throughput: the median over its spans-off slices.
fn plain_throughput(per_slice: impl Iterator<Item = f64>) -> f64 {
    slice_median(
        per_slice
            .enumerate()
            .filter(|&(slice, _)| !wall::traced_slice(slice))
            .map(|(_, v)| v),
    )
}

/// Run one workload: the whole of an untraced or a traced run.
pub fn run(workload: &str, args: &Args, out_dir: &Path) -> Result<Report, String> {
    let run = Run {
        workload,
        args,
        place: Placement::detect(),
    };
    let mut report = Report::new();
    let spans = match family_of(workload)? {
        Family::Virt(traffic) => virt_run(&run, traffic, &mut report)?,
        Family::Wall => wall_run(&run, &mut report)?,
        family => serve_run(&run, family == Family::ServeOpen, &mut report)?,
    };
    if args.trace {
        write_spans(&run, &spans, out_dir, &mut report)?;
        let mut total_spans = spans.len() as f64;
        if let Some(&(_, partner)) = WALL_PARTNER.iter().find(|(w, _)| *w == workload) {
            total_spans += partner_pass(&run, partner, &mut report)?;
        }
        finish_trace(&run, total_spans, out_dir, &mut report)?;
    }
    Ok(report)
}

/// One phase of a run, in a child process of its own; returns the object
/// the child prints as its last line.
pub fn phase(phase: &str, workload: &str, args: &Args, out_dir: &Path) -> Result<Json, String> {
    let place = Placement::detect();
    let family = family_of(workload)?;
    let mut scratch = Report::new();
    match phase {
        "setup" => {
            place.pin_client();
            let (built, setup_s) = timed_set_up(workload, |probe| -> Box<dyn std::any::Any> {
                match family {
                    Family::Virt(_) => Box::new(euno_virtual(Some(probe))),
                    Family::Wall => Box::new(euno_concurrent()),
                    Family::ServeSat | Family::ServeOpen => Box::new(serve::start(&place)),
                }
            });
            drop(built);
            Ok(Json::obj(vec![("setup_s", Json::Num(setup_s))]))
        }
        // The spans-off twin of a traced virtual pass: on the virtual clock
        // the two must be bit-equal. (The wall workloads compare traced and
        // spans-off slices inside one pass instead.)
        "plain" => {
            let Family::Virt(traffic) = family else {
                return Err(format!("{workload} has no spans-off phase"));
            };
            place.pin_client();
            let streams = generate(
                workload,
                traffic,
                args.seed,
                virt::THREADS,
                VIRT_STREAM_LEN,
                &mut scratch,
            );
            let (rt, tree) = euno_virtual(None);
            let pass = virt_pass(&tree, &rt, &streams, args, false);
            Ok(Json::obj(vec![
                ("throughput", Json::Num(pass.throughput)),
                ("sim_wall_ops_s", Json::Num(pass.sim_wall_ops_s)),
                ("failed", Json::Num((pass.failed + scratch.failed) as f64)),
            ]))
        }
        // A wall workload's traced pass without the ladder: what a traced
        // `virt-*` run measures beside its own.
        "pass" => {
            let run = Run {
                workload,
                args,
                place,
            };
            let mut report = Report::new();
            let spans = match family {
                Family::Virt(_) => return Err(format!("{workload} is no wall workload")),
                Family::Wall => wall_run(&run, &mut report)?,
                family => serve_run(&run, family == Family::ServeOpen, &mut report)?,
            };
            write_spans(&run, &spans, out_dir, &mut report)?;
            for note in &report.notes {
                println!("{note}");
            }
            let metrics = report
                .metrics
                .iter()
                .map(|&(n, v)| (n, Json::Num(v)))
                .collect();
            Ok(Json::obj(vec![
                ("metrics", Json::obj(metrics)),
                ("spans", Json::Num(spans.len() as f64)),
                ("attempted", Json::Num(report.attempted as f64)),
                ("failed", Json::Num(report.failed as f64)),
            ]))
        }
        part if ladder::PARTS.contains(&part) => {
            let calls = (ladder::CALLS_PER_SECOND * args.seconds / args.divisor()).max(4_096);
            let ladder = ladder::run(part, args.seed, calls, &place)?;
            for line in span_table(&ladder.spans, "ns") {
                println!("{line}");
            }
            let path = trace_path(out_dir, workload);
            write_jsonl(&path, &ladder.spans, "ns", true)
                .map_err(|e| format!("{}: {e}", path.display()))?;
            let metrics = ladder
                .metrics
                .iter()
                .map(|&(n, v)| (n, Json::Num(v)))
                .collect();
            Ok(Json::obj(vec![
                ("metrics", Json::obj(metrics)),
                ("spans", Json::Num(ladder.spans.len() as f64)),
                ("failed", Json::Num(ladder.failed as f64)),
            ]))
        }
        other => Err(format!("unknown phase `{other}`")),
    }
}

fn trace_path(out_dir: &Path, workload: &str) -> std::path::PathBuf {
    out_dir.join(format!("trace_{workload}.jsonl"))
}

// ---------------------------------------------------------------- virtual

fn build_virtual<M: ConcurrentMap>(
    new: impl Fn(Arc<Runtime>) -> M,
    probe: Option<&mut HostProbe>,
) -> (Arc<Runtime>, M) {
    let rt = Runtime::new_virtual();
    let map = new(Arc::clone(&rt));
    virt::preload_even(&map, &rt, probe);
    (rt, map)
}

/// The virtual workloads' instance; `probe` is given where the build is
/// timed as a set-up.
fn euno_virtual(probe: Option<&mut HostProbe>) -> (Arc<Runtime>, EunoBTreeDefault) {
    build_virtual(
        |rt| EunoBTreeDefault::with_config(rt, EunoConfig::default()),
        probe,
    )
}

fn virt_pass(
    map: &dyn ConcurrentMap,
    rt: &Arc<Runtime>,
    streams: &[Vec<Op>],
    args: &Args,
    trace: bool,
) -> VirtPass {
    virt::run_pass(
        map,
        rt,
        streams,
        args.seed,
        virt::WARMUP_PER_SECOND * args.seconds / args.divisor(),
        virt::MEASURED_PER_SECOND * args.seconds / args.divisor(),
        trace,
    )
}

/// The final check of a tree workload: a full dump must be sorted,
/// duplicate-free and hold only values that decode to their keys.
fn dump_check(tree: &EunoBTreeDefault, report: &mut Report) {
    let dump = tree.collect_all_plain();
    report.attempted += dump.len() as u64;
    report.failed += dump_failures(&dump);
}

fn mem_bytes_per_key(tree: &EunoBTreeDefault) -> f64 {
    tree.memory().total_live() as f64 / tree.stats().live_records.max(1) as f64
}

/// After-run structure metrics of an Euno tree, plus the final check.
fn tree_after_run(tree: &EunoBTreeDefault, rt: &Runtime, report: &mut Report) {
    dump_check(tree, report);
    let stats = tree.stats();
    for (name, value) in [
        ("core.bypassed_leaf_frac", stats.bypassed_fraction),
        ("core.depth", stats.depth as f64),
        ("core.leaves", stats.leaves as f64),
        ("core.leaf_fill", stats.leaf_fill),
        ("core.tombstones", stats.tombstones as f64),
        ("core.epoch_reclaimed", rt.epoch().reclaimed() as f64),
        ("core.epoch_retired_pending", rt.epoch().pending() as f64),
    ] {
        report.set(name, value);
    }
}

fn virt_run(run: &Run, traffic: Traffic, report: &mut Report) -> Result<Vec<Span>, String> {
    let (workload, args) = (run.workload, run.args);
    run.place.pin_client();
    let streams = generate(
        workload,
        traffic,
        args.seed,
        virt::THREADS,
        VIRT_STREAM_LEN,
        report,
    );

    if !args.trace {
        let ((rt, tree), setup_s) = run.set_up(|probe| euno_virtual(Some(probe)))?;
        let pass = virt_pass(&tree, &rt, &streams, args, false);
        report.attempted += pass.ops;
        report.failed += pass.failed;
        let ns_per_cycle = 1e9 / rt.cost.freq_hz;
        end_to_end(
            report,
            workload,
            pass.throughput,
            |q| pass.lat.quantile(q) * ns_per_cycle,
            Some(mem_bytes_per_key(&tree)),
            setup_s,
        );
        dump_check(&tree, report);
        report.notes.push(format!(
            "info {workload}: sim.wall_ops_s={:.0} lat_p999 has {} samples beyond it",
            pass.sim_wall_ops_s,
            pass.ops / 1000,
        ));
        return Ok(Vec::new());
    }

    let plain = run.child("plain")?;
    let plain_of = |key: &str| plain.get(key).and_then(Json::as_f64).unwrap_or(f64::NAN);
    let (rt, tree) = euno_virtual(None);
    let traced = virt_pass(&tree, &rt, &streams, args, true);
    // Spans read `ctx.clock` and charge nothing: on the virtual clock the
    // traced pass must be the same pass.
    if plain_of("throughput").to_bits() != traced.throughput.to_bits() {
        report.failed += 1;
        report.notes.push(format!(
            "FAIL tracing changed the virtual schedule: {} vs {} ops/s",
            plain_of("throughput"),
            traced.throughput
        ));
    }
    report.attempted += traced.ops;
    report.failed += traced.failed + plain_of("failed") as u64;
    traced.counts.metrics(traced.ops, &mut report.metrics);
    const P99_BY_KIND: [&str; 4] = [
        "core.lat_p99_cycles.get",
        "core.lat_p99_cycles.put",
        "core.lat_p99_cycles.delete",
        "core.lat_p99_cycles.scan",
    ];
    for kind in Kind::ALL {
        report.set(
            P99_BY_KIND[kind as usize],
            traced.lat_kind[kind as usize].quantile(0.99),
        );
    }
    tree_after_run(&tree, &rt, report);
    report.set("sim.wall_ops_s", traced.sim_wall_ops_s);
    report.set(
        "trace_overhead_frac",
        1.0 - traced.sim_wall_ops_s / plain_of("sim_wall_ops_s"),
    );
    report.set("trace.spans_dropped", traced.spans_dropped as f64);
    report.notes.push(format!(
        "info {workload} traced pass: throughput_ops_s={} lat_p99_cycles={} (bit-equal to the spans-off pass)",
        traced.throughput,
        traced.lat.quantile(0.99)
    ));

    // The comparator the paper's claim is a ratio against. Virtual results
    // do not depend on where the allocator puts nodes, so a second
    // instance in this process is harmless here.
    if traffic != Traffic::ScanChurn {
        let (brt, btree) = build_virtual(HtmBTree::<16>::new, None);
        let base = virt_pass(&btree, &brt, &streams, args, false);
        report.failed += base.failed;
        if traffic == Traffic::Hot {
            report.set(
                "baseline.htm_btree.virt_throughput_ops_s.hot",
                base.throughput,
            );
            report.set("baseline.euno_speedup", traced.throughput / base.throughput);
        } else {
            report.set(
                "baseline.htm_btree.virt_throughput_ops_s.flat",
                base.throughput,
            );
        }
    }
    Ok(traced.spans)
}

// ------------------------------------------------------------- wall-point

fn euno_concurrent() -> (Arc<Runtime>, EunoBTreeDefault) {
    let rt = Runtime::new_concurrent();
    let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), EunoConfig::default());
    virt::preload_even(&tree, &rt, None);
    (rt, tree)
}

fn wall_pass(
    tree: &EunoBTreeDefault,
    rt: &Arc<Runtime>,
    streams: &[Vec<Op>],
    args: &Args,
    place: &Placement,
    trace: bool,
) -> WallPass {
    wall::run_pass(
        tree,
        rt,
        streams,
        &wall::PassSpec {
            seed: args.seed,
            warm: wall::WARMUP_PER_SECOND * args.seconds / args.divisor(),
            window_s: args.seconds as f64 / args.divisor() as f64,
            trace,
        },
        place,
    )
}

fn wall_throughput(pass: &WallPass) -> f64 {
    slice_median(pass.slices.iter().map(|s| s.ops as f64 / pass.slice_s))
}

fn wall_run(run: &Run, report: &mut Report) -> Result<Vec<Span>, String> {
    let (workload, args, place) = (run.workload, run.args, &run.place);
    place.pin_client();
    let streams = generate(
        workload,
        Traffic::Hot,
        args.seed,
        wall::THREADS,
        WALL_STREAM_LEN,
        report,
    );

    if !args.trace {
        let ((rt, tree), setup_s) = run.set_up(|_| euno_concurrent())?;
        let pass = wall_pass(&tree, &rt, &streams, args, place, false);
        report.attempted += pass.ops();
        report.failed += pass.failed;
        let lat = |q| slice_median(pass.slices.iter().map(|s| s.lat.quantile(q)));
        end_to_end(report, workload, wall_throughput(&pass), lat, None, setup_s);
        dump_check(&tree, report);
        let per_slice = |value: &dyn Fn(&wall::Slice) -> f64| -> String {
            let values: Vec<String> = pass
                .slices
                .iter()
                .map(|s| format!("{:.0}", value(s)))
                .collect();
            values.join(" ")
        };
        report.notes.push(format!(
            "slices {workload} ops_s: {}",
            per_slice(&|s| s.ops as f64 / pass.slice_s)
        ));
        report.notes.push(format!(
            "slices {workload} p50_ns: {}",
            per_slice(&|s| s.lat.quantile(0.5))
        ));
        report.notes.push(format!(
            "info {workload}: pinned={} timed 1 op in {} ({} samples per slice)",
            place.pinned(),
            wall::TIMED_EVERY,
            pass.slices[0].lat.count(),
        ));
        return Ok(Vec::new());
    }

    let (rt, tree) = euno_concurrent();
    let traced = wall_pass(&tree, &rt, &streams, args, place, true);
    report.attempted += traced.ops();
    report.failed += traced.failed;
    traced.counts.metrics(traced.ops(), &mut report.metrics);
    let lat = |q| slice_median(traced.slices.iter().map(|s| s.lat.quantile(q)));
    let per_slice = || traced.slices.iter().map(|s| s.ops as f64 / traced.slice_s);
    report.set(POINT_NAMES.throughput, plain_throughput(per_slice()));
    report.set(POINT_NAMES.p50, lat(0.5));
    report.set(POINT_NAMES.p99, lat(0.99));
    tree_after_run(&tree, &rt, report);
    report.set("trace_overhead_frac", wall::trace_overhead(per_slice()));
    report.set("trace.spans_dropped", traced.spans_dropped as f64);
    Ok(traced.spans)
}

// ------------------------------------------------------------------ serve

struct ServePlan {
    load: Load,
    trace_every: u64,
    arrivals: Vec<u64>,
    warm_s: f64,
    window_s: f64,
}

/// Poisson due times for a run of `window_s` after a tenth as much
/// warm-up, with 5 % to spare so the last one falls past the end.
fn arrivals_for(seed: u64, rate: f64, window_s: f64) -> Vec<u64> {
    poisson_arrivals(seed, rate, (rate * window_s * 1.1 * 1.05) as usize + 64)
}

impl ServePlan {
    fn new(open: bool, args: &Args) -> Self {
        let window_s = args.seconds as f64 / args.divisor() as f64;
        let (load, trace_every, arrivals) = if open {
            let rate = serve::OPEN_RATE;
            (
                Load::Open { rate },
                OPEN_TRACE_EVERY,
                arrivals_for(args.seed, rate, window_s),
            )
        } else {
            let outstanding = serve::CLOSED_OUTSTANDING;
            (Load::Closed { outstanding }, SAT_TRACE_EVERY, Vec::new())
        };
        ServePlan {
            load,
            trace_every,
            arrivals,
            warm_s: window_s / 10.0,
            window_s,
        }
    }

    fn spec<'a>(&'a self, ops: &'a [Op], place: &Placement, trace: bool) -> PassSpec<'a> {
        PassSpec {
            ops,
            load: self.load,
            arrivals: &self.arrivals,
            warm_s: self.warm_s,
            window_s: self.window_s,
            pinned: place.pinned(),
            trace_every: trace.then_some(self.trace_every),
        }
    }
}

fn serve_throughput(pass: &ServePass) -> f64 {
    slice_median(
        pass.slices
            .iter()
            .map(|s| s.completed as f64 / pass.slice_s),
    )
}

/// Mean width of the drains that went through `apply_batch`.
fn mean_batch(pass: &ServePass) -> f64 {
    let d = &pass.serve;
    (d.batched_ops + d.batch_bails) as f64 / d.batches.max(1) as f64
}

fn serve_run(run: &Run, open: bool, report: &mut Report) -> Result<Vec<Span>, String> {
    let (workload, args, place) = (run.workload, run.args, &run.place);
    place.pin_client();
    let streams = generate(
        workload,
        Traffic::Serve,
        args.seed,
        1,
        WALL_STREAM_LEN,
        report,
    );
    let plan = ServePlan::new(open, args);
    let mut shadow = serve::fresh_shadow();

    if !args.trace {
        let (srv, setup_s) = run.set_up(|_| serve::start(place))?;
        let pass = serve::run_pass(&srv, &mut shadow, &plan.spec(&streams[0], place, false));
        report.attempted += pass.attempted;
        report.failed += pass.failed;
        let lat = |q| slice_median(pass.slices.iter().map(|s| s.lat.quantile(q)));
        end_to_end(
            report,
            workload,
            serve_throughput(&pass),
            lat,
            None,
            setup_s,
        );
        let (records, failures) = serve::final_check(&srv, &shadow);
        report.attempted += records;
        report.failed += failures;
        srv.shutdown();
        let all = pass.lat_all();
        // Slice by slice, so a host stall or a slow phase shows as such.
        let per_slice = |value: &dyn Fn(&serve::Slice) -> f64| -> String {
            pass.slices
                .iter()
                .map(|s| format!("{:.0}", value(s)))
                .collect::<Vec<_>>()
                .join(" ")
        };
        report.notes.push(format!(
            "slices {workload} ops_s: {}",
            per_slice(&|s| s.completed as f64 / pass.slice_s)
        ));
        report.notes.push(format!(
            "slices {workload} p50_ns: {}",
            per_slice(&|s| s.lat.quantile(0.5))
        ));
        report.notes.push(format!(
            "info {workload}: pinned={} mean_batch={:.1} refused_submits={} whole-window p99={:.0}ns max={}ns gen_lag_p99={:.0}ns",
            place.pinned(),
            mean_batch(&pass),
            pass.refused,
            all.quantile(0.99),
            all.max(),
            pass.gen_lag.quantile(0.99),
        ));
        return Ok(Vec::new());
    }

    let srv = serve::start(place);
    let traced = serve::run_pass(&srv, &mut shadow, &plan.spec(&streams[0], place, true));
    report.attempted += traced.attempted;
    report.failed += traced.failed;
    traced
        .counts
        .metrics(traced.completed(), &mut report.metrics);
    let names = if open { OPEN_NAMES } else { SAT_NAMES };
    let per_slice = || {
        traced
            .slices
            .iter()
            .map(|s| s.completed as f64 / traced.slice_s)
    };
    // On the open loop the achieved rate is the offered rate either way.
    report.set(names.throughput, plain_throughput(per_slice()));
    report.set(
        names.p50,
        slice_median(traced.slices.iter().map(|s| s.lat.quantile(0.5))),
    );
    // Whole traced window, so that a stall shows.
    let lat = traced.lat_all();
    report.set(names.p99, lat.quantile(0.99));
    let d = &traced.serve;
    report.set("serve.mean_batch", mean_batch(&traced));
    report.set(
        "serve.batch_bail_frac",
        d.batch_bails as f64 / (d.batched_ops + d.batch_bails).max(1) as f64,
    );
    report.set("serve.batch_shrinks", d.batch_shrinks as f64);
    report.set(
        "serve.shed_frac",
        d.shed as f64 / (d.enqueued + d.shed).max(1) as f64,
    );
    if open {
        report.set("serve.open.lat_p999_ns", lat.quantile(0.999));
        report.set("serve.open.gen_lag_p99_ns", traced.gen_lag.quantile(0.99));
        let slo = slo_rate(&srv, &mut shadow, &streams[0], run, report);
        report.set("serve.slo_rate_ops_s", slo);
    }
    let (records, failures) = serve::final_check(&srv, &shadow);
    report.attempted += records;
    report.failed += failures;
    srv.shutdown();
    report.set("trace_overhead_frac", wall::trace_overhead(per_slice()));
    report.set("trace.spans_dropped", traced.spans_dropped as f64);
    Ok(traced.spans)
}

/// The highest of a few fixed rates, tried upwards until one fails, whose
/// run keeps p99 within the limit, is refused almost nothing and ends
/// without a growing backlog — on the same server as the traced pass (the
/// model carries its state along).
fn slo_rate(
    srv: &euno_serve::EunoServer,
    shadow: &mut crate::check::Shadow,
    ops: &[Op],
    run: &Run,
    report: &mut Report,
) -> f64 {
    let window_s = run.args.seconds as f64 / TRACE_FRACTION as f64;
    let mut best = 0.0;
    for rate in SLO_RATES {
        let arrivals = arrivals_for(run.args.seed, rate, window_s);
        let spec = PassSpec {
            ops,
            load: Load::Open { rate },
            arrivals: &arrivals,
            warm_s: window_s / 10.0,
            window_s,
            pinned: run.place.pinned(),
            trace_every: None,
        };
        let pass = serve::run_pass(srv, shadow, &spec);
        let p99 = pass.lat_all().quantile(0.99);
        // A refused request misses any latency limit, like a wrong reply.
        let failed_frac = (pass.failed + pass.refused) as f64 / pass.attempted.max(1) as f64;
        let growing = pass.backlog_last > 2.0 * pass.backlog_first + 64.0;
        let kept = p99 <= SLO_P99_NS && failed_frac <= SLO_FAILED_FRAC && !growing;
        report.notes.push(format!(
            "slo rate={rate:.0}/s p99={p99:.0}ns failed_frac={failed_frac:.5} backlog {:.1}->{:.1} kept={kept}",
            pass.backlog_first, pass.backlog_last
        ));
        // A rate the server cannot keep settles the higher ones too, and an
        // overloaded run is the slowest to drain.
        if !kept {
            break;
        }
        best = rate;
    }
    best
}

// ------------------------------------------------------------------ trace

fn span_table(spans: &[Span], unit: &str) -> Vec<String> {
    let mut lines = vec![format!(
        "{:<16} {:>9} {:>16} {:>16} {:>10} {:>10}   ({unit})",
        "span", "count", "total", "self", "p50", "p99"
    )];
    lines.extend(summarize(spans).iter().map(|s| {
        format!(
            "{:<16} {:>9} {:>16} {:>16} {:>10} {:>10}",
            s.name, s.count, s.total, s.self_time, s.p50, s.p99
        )
    }));
    lines
}

/// A traced pass's span file and table.
fn write_spans(
    run: &Run,
    spans: &[Span],
    out_dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let unit = if run.workload.starts_with("virt-") {
        "cycles"
    } else {
        "ns"
    };
    let path = trace_path(out_dir, run.workload);
    write_jsonl(&path, spans, unit, false).map_err(|e| format!("{}: {e}", path.display()))?;
    report.notes.extend(span_table(spans, unit));
    Ok(())
}

/// A traced `virt-*` run's look at the wall clock: the traced pass of its
/// partner workload, in a process of its own (span file of its own too).
/// Returns the spans it recorded.
fn partner_pass(run: &Run, partner: &str, report: &mut Report) -> Result<f64, String> {
    let pass = run.child_of(partner, "pass")?;
    let num = |key: &str| pass.get(key).and_then(Json::as_f64).unwrap_or(0.0);
    report.attempted += num("attempted") as u64;
    report.failed += num("failed") as u64;
    for &(name, _) in &crate::metrics::PER_LAYER {
        if !PARTNER_PREFIXES.iter().any(|p| name.starts_with(p)) {
            continue;
        }
        let value = pass.get("metrics").and_then(|m| m.get(name));
        if let Some(value) = value.and_then(Json::as_f64) {
            report.set(name, value);
        }
    }
    Ok(num("spans"))
}

/// The common tail of a traced run: the ladder (in processes of its own)
/// and a value for every per-layer metric.
fn finish_trace(
    run: &Run,
    mut total_spans: f64,
    out_dir: &Path,
    report: &mut Report,
) -> Result<(), String> {
    let path = trace_path(out_dir, run.workload);
    for part in ladder::PARTS {
        let ladder = run.child(part)?;
        let num = |key: &str| ladder.get(key).and_then(Json::as_f64).unwrap_or(0.0);
        report.failed += num("failed") as u64;
        total_spans += num("spans");
        for &(name, _) in &crate::metrics::PER_LAYER {
            if let Some(value) = ladder
                .get("metrics")
                .and_then(|m| m.get(name))
                .and_then(Json::as_f64)
            {
                report.set(name, value);
            }
        }
    }
    let of = |name: &str| {
        report
            .metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0.0, |m| m.1)
    };
    let overhead_ns = of("serve.rtt1_ns") - of("core.op_ns.serve");
    report.set("serve.overhead_ns", overhead_ns);
    report
        .notes
        .push(format!("trace: {total_spans} spans -> {}", path.display()));
    report.set("trace.spans", total_spans);
    report.set(
        "failed_frac",
        report.failed as f64 / report.attempted.max(1) as f64,
    );
    report.set("pinned", f64::from(u8::from(run.place.pinned())));
    // Every per-layer metric is present in every traced run; a layer this
    // workload did not exercise reads 0.
    let measured = std::mem::take(&mut report.metrics);
    report.metrics = crate::metrics::PER_LAYER
        .iter()
        .map(|&(name, _)| {
            (
                name,
                measured
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |m| m.1),
            )
        })
        .collect();
    Ok(())
}

/// Ratios the README's ladder table is built from, for the full run.
pub fn ladder_lines(get: impl Fn(&str) -> f64) -> Vec<String> {
    let row = |layer: &str, name: &str, base: &str| {
        let (v, b) = (get(name), get(base));
        format!(
            "  {layer:<28} {name:<18} {v:>10.1} ns   {:>6.2}x {base}",
            v / b
        )
    };
    vec![
        "layer ladder (1 pinned thread, STM backend; ratio = this rung ÷ its base):".to_string(),
        format!(
            "  {:<28} {:<18} {:>10.1} ns",
            "euno-htm raw episode",
            "htm.episode_ns",
            get("htm.episode_ns")
        ),
        row("euno-core get (hot)", "core.op_ns.get", "htm.episode_ns"),
        row("euno-core put (hot)", "core.op_ns.put", "htm.episode_ns"),
        row(
            "euno-core scan16 (churn)",
            "core.op_ns.scan",
            "htm.episode_ns",
        ),
        row(
            "euno-core op (serve mix)",
            "core.op_ns.serve",
            "htm.episode_ns",
        ),
        row("euno-core::batch op", "batch.op_ns", "core.op_ns.serve"),
        row(
            "euno-serve request (rtt1)",
            "serve.rtt1_ns",
            "core.op_ns.serve",
        ),
        format!(
            "  serve.rtt1_ns {:.1} = core.op_ns.serve {:.1} + serve.overhead_ns {:.1}",
            get("serve.rtt1_ns"),
            get("core.op_ns.serve"),
            get("serve.overhead_ns")
        ),
    ]
}
