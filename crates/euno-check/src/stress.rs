//! Multi-threaded stress runs with full history capture.
//!
//! The driver is trait-driven: anything implementing `ConcurrentMap`
//! (Euno-B+Tree and all three baselines) gets the same treatment —
//! preload, a mixed get/put/delete/scan workload from real threads with
//! every operation recorded, an optional concurrent maintenance thread,
//! post-quiescence verification reads, then the linearizability oracle
//! plus whatever structural audits the tree exposes via [`AuditHooks`].
//!
//! Every run is reproducible from `(threads, ops, seed)`: per-thread RNG
//! streams derive from the seed, and the report carries everything needed
//! to re-run a failure.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use euno_baselines::{HtmBTree, HtmMasstree, Masstree};
use euno_core::{EunoBTreeDefault, EunoConfig};
use euno_htm::{ConcurrentMap, Runtime};
use euno_metrics::{sample_due, Counter, Counts, Snapshot, TimeSeries};
use euno_rng::SmallRng;
use euno_trace::{build_profile, LeafProfile, ThreadTrace, TraceBuf};

use crate::audit::{IndexWatch, SeqnoWatch};
use crate::history::{new_sink, OpKind, OpOutput, Recorder};
use crate::lin::{check_history, Verdict, DEFAULT_BUDGET};

/// Knobs for one stress run (one tree).
#[derive(Clone, Debug)]
pub struct StressConfig {
    pub threads: u32,
    pub ops_per_thread: u64,
    pub seed: u64,
    /// Keys are drawn uniformly from `0..key_range`.
    pub key_range: u64,
    /// Max records per worker scan.
    pub scan_len: u64,
    /// Records inserted (keys `0..preload`) before the clock starts.
    pub preload: u64,
    /// Wall-clock cap in milliseconds; 0 = run all ops.
    pub duration_ms: u64,
    /// Run a concurrent maintenance thread alongside the workers.
    pub maintain_thread: bool,
    /// Step budget for the linearizability search.
    pub lin_budget: u64,
    /// Per-thread trace-ring capacity in events. Stress runs keep a small
    /// ring on by default so a linearizability failure can dump the last
    /// events each thread saw; 0 disables tracing entirely.
    pub trace_capacity: usize,
    /// Build a hot-leaf contention profile from the collected traces.
    pub profile: bool,
    /// Operation mix in percent; the remainder up to 100 is scans.
    pub get_pct: u32,
    pub put_pct: u32,
    pub delete_pct: u32,
    /// Phased mix overrides: `(get, put, delete)` percentages applied in
    /// equal spans over each worker's op stream (empty = the stationary
    /// mix above). Grow and shrink phases in turn make splits and merges
    /// happen *during* the measured traffic instead of settling into a
    /// steady state.
    pub phases: Vec<(u32, u32, u32)>,
    /// `EunoConfig::rebalance_delete_threshold` of the Euno trees under
    /// test (the baselines have no deferred sweep).
    pub rebalance_delete_threshold: u64,
    /// A named check of the Euno trees switched off on every worker thread
    /// (`euno_core::probe::mutate`): how a stress row convicts a mutation
    /// twin. Debug builds only — a release build compiles the checks in.
    pub mutation: Option<&'static str>,
}

impl Default for StressConfig {
    fn default() -> Self {
        StressConfig {
            threads: 4,
            ops_per_thread: 5_000,
            seed: 1,
            key_range: 512,
            scan_len: 16,
            preload: 256,
            duration_ms: 0,
            maintain_thread: true,
            lin_budget: DEFAULT_BUDGET,
            trace_capacity: 512,
            profile: false,
            get_pct: 40,
            put_pct: 30,
            delete_pct: 15,
            phases: Vec::new(),
            rebalance_delete_threshold: EunoConfig::default().rebalance_delete_threshold,
            mutation: None,
        }
    }
}

impl StressConfig {
    /// The abort-storm schedule: a handful of stubborn hot keys hammered
    /// by every worker, so HTM regions abort repeatedly and the executor
    /// escalates to the global fallback (§4.3). Used to check that
    /// operations run under the fallback lock are still linearizable
    /// against operations that committed speculatively.
    pub fn abort_storm() -> Self {
        StressConfig {
            threads: 8,
            ops_per_thread: 2_500,
            key_range: 8,
            preload: 8,
            scan_len: 4,
            ..StressConfig::default()
        }
    }

    /// The hot-range schedule: every worker on sixteen adjacent keys — one
    /// leaf's worth — put-heavy and with no scans, so that `default()`'s
    /// contention splits (which a scan vetoes for a few hundred operations
    /// of its thread) cut that leaf up under the oracle while the
    /// maintenance thread tries to merge it back. They need conflicts on a
    /// protected leaf, which real threads meet far more rarely than the
    /// virtual clock's: on a 2-vCPU host a run books about one split.
    pub fn hot() -> Self {
        StressConfig {
            threads: 8,
            ops_per_thread: 20_000,
            key_range: 16,
            preload: 16,
            get_pct: 20,
            put_pct: 70,
            delete_pct: 10,
            ..StressConfig::default()
        }
    }

    /// The churn schedule: delete-heavy traffic over a small key range
    /// with the maintenance thread on, so leaves empty out and merge
    /// continuously — every reader races real retirements and the epoch
    /// collector is exercised under load rather than at quiescence.
    pub fn churn() -> Self {
        StressConfig {
            threads: 6,
            ops_per_thread: 4_000,
            key_range: 256,
            preload: 256,
            maintain_thread: true,
            get_pct: 25,
            put_pct: 25,
            delete_pct: 40,
            ..StressConfig::default()
        }
    }

    /// The churn schedule with the rebalance threshold lowered until a
    /// sweep is armed most of the time, over a chain long enough that each
    /// takes dozens of slices: foreground deletes' slices race each other
    /// for the token, the maintenance thread's full passes, and every
    /// reader — the interleavings the bounded-slice sweep added.
    pub fn churn_sweeps() -> Self {
        StressConfig {
            key_range: 2_048,
            preload: 2_048,
            rebalance_delete_threshold: 128,
            ..StressConfig::churn()
        }
    }

    /// The phased churn schedule: two grow→shrink rounds (70 % put /
    /// 10 % delete, then 10 % put / 70 % delete, 20 % gets throughout),
    /// so the population swings and merge/split traffic arrives in
    /// bursts — the regime where a stale-phase reader would race the
    /// heaviest structural churn.
    pub fn churn_phased() -> Self {
        StressConfig {
            phases: vec![(20, 70, 10), (20, 10, 70), (20, 70, 10), (20, 10, 70)],
            ..StressConfig::churn()
        }
    }
}

/// A concurrently-sampleable leaf seqno snapshot source.
pub type SeqnoSnapshotFn<'a> = Box<dyn Fn() -> Vec<(usize, u64)> + Sync + 'a>;

/// An index-node `(address, lower bound)` snapshot source, for quiescent
/// points only.
pub type IndexSnapshotFn<'a> = Box<dyn Fn() -> Vec<(usize, u64)> + 'a>;

/// Structure-specific audits a tree can contribute to the run.
#[derive(Default)]
pub struct AuditHooks<'a> {
    /// Sampled concurrently by a watcher thread; fed to [`SeqnoWatch`].
    pub seqno_snapshot: Option<SeqnoSnapshotFn<'a>>,
    /// Sampled wherever the run is quiescent — after the preload, after
    /// the workers and the maintainer have joined, after the verification
    /// reads; fed to [`IndexWatch`].
    pub index_snapshot: Option<IndexSnapshotFn<'a>>,
    /// Run once at quiescence; returns invariant violations.
    pub quiescent: Option<Box<dyn Fn() -> Vec<String> + 'a>>,
}

/// Outcome of one tree's stress run.
#[derive(Debug)]
pub struct StressReport {
    pub tree: &'static str,
    pub threads: u32,
    pub seed: u64,
    /// Completed client operations in the history (including verification
    /// reads, excluding nothing).
    pub history_len: usize,
    pub verdict: Verdict,
    /// Structural audit findings (empty = clean).
    pub invariant_violations: Vec<String>,
    pub elapsed_ms: u64,
    /// Distinct leaves the seqno watcher observed across its snapshots.
    pub seqno_leaves_seen: usize,
    /// How many of `invariant_violations` came from the seqno watcher.
    pub seqno_violations: usize,
    /// Index nodes in the index watcher's last snapshot.
    pub index_nodes_seen: usize,
    /// How many of `invariant_violations` came from the index watcher.
    pub index_violations: usize,
    /// How many of `invariant_violations` came from the quiescent audit.
    pub quiescent_findings: usize,
    /// Per-thread event rings (workers, maintainer, verifier), collected
    /// when `trace_capacity > 0`. On a failure the binary dumps the tail
    /// of each ring next to the reproducing command line.
    pub traces: Vec<ThreadTrace>,
    /// Hot-leaf contention profile, when `StressConfig::profile` is set.
    pub profile: Option<LeafProfile>,
    /// Every count of the workers' metric shards, merged: ops, the stage
    /// counts — how the run's regions split across the HTM and fallback
    /// paths — and aborts by class.
    pub counts: Counts,
    /// Tail of the metrics sampler's snapshot ring (wall-µs ticks). On a
    /// linearizability failure the binary dumps these next to the trace
    /// tails: the counter deltas in the last few windows usually say
    /// which path the failing interleaving was on.
    pub snapshots: Vec<Snapshot>,
}

impl StressReport {
    /// A run passes unless the oracle proves a violation or an audit
    /// fails. `Inconclusive` passes (it is surfaced, not hidden).
    pub fn passed(&self) -> bool {
        !matches!(self.verdict, Verdict::Violation { .. }) && self.invariant_violations.is_empty()
    }

    /// Regions completed on the `(HTM, fallback)` path. Disjoint counts: a
    /// fallback execution is not a commit, so neither is derived from the
    /// other.
    pub fn path_split(&self) -> (u64, u64) {
        (
            self.counts[Counter::Commits],
            self.counts[Counter::Fallbacks],
        )
    }
}

fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    x = (x ^ (x >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    x ^ (x >> 33)
}

/// Stress one tree and check everything. `atomic_scans` declares whether
/// the tree's scan has a single linearization point (see `lin`).
pub fn run_stress(
    tree: &dyn ConcurrentMap,
    rt: &Arc<Runtime>,
    cfg: &StressConfig,
    atomic_scans: bool,
    hooks: AuditHooks<'_>,
) -> StressReport {
    // ---- Preload (before the history clock starts). ---------------
    let mut preload_model = BTreeMap::new();
    {
        let mut ctx = rt.thread(cfg.seed);
        for key in 0..cfg.preload.min(cfg.key_range) {
            let value = key.wrapping_mul(31) + 7;
            tree.put(&mut ctx, key, value);
            preload_model.insert(key, value);
        }
    }

    let (sink, clock) = new_sink();
    let mut seq_watch = SeqnoWatch::new();
    if let Some(f) = &hooks.seqno_snapshot {
        seq_watch.observe(&f());
    }
    let mut index_watch = IndexWatch::new();
    let mut observe_index = || {
        if let Some(f) = &hooks.index_snapshot {
            index_watch.observe(&f());
        }
    };
    observe_index();

    let start = Instant::now();
    let deadline = (cfg.duration_ms > 0).then(|| start + Duration::from_millis(cfg.duration_ms));
    let stop = AtomicBool::new(false);
    let mut traces: Vec<ThreadTrace> = Vec::new();
    let mut counts = Counts::default();
    let mut snapshots: Vec<Snapshot> = Vec::new();

    std::thread::scope(|s| {
        let mut workers = Vec::new();
        for w in 0..cfg.threads {
            let (clock, sink) = (Arc::clone(&clock), Arc::clone(&sink));
            let rt = Arc::clone(rt);
            let cfg = cfg.clone();
            workers.push(s.spawn(move || {
                let mut ctx = rt.thread(cfg.seed ^ u64::from(w));
                euno_core::probe::mutate(cfg.mutation);
                let mut rec = Recorder::new(ctx.id, clock, sink);
                if cfg.trace_capacity > 0 {
                    ctx.set_tracer(Box::new(TraceBuf::new(ctx.id, cfg.trace_capacity)));
                }
                let mut rng = SmallRng::seed_from_u64(mix64(cfg.seed) ^ mix64(u64::from(w) + 1));
                let mut out = Vec::new();
                for i in 0..cfg.ops_per_thread {
                    if i % 64 == 0 {
                        if let Some(d) = deadline {
                            if Instant::now() >= d {
                                break;
                            }
                        }
                    }
                    let key = rng.gen_range(0..cfg.key_range);
                    let (get_pct, put_pct, delete_pct) = if cfg.phases.is_empty() {
                        (cfg.get_pct, cfg.put_pct, cfg.delete_pct)
                    } else {
                        // Equal spans over this worker's op stream; a
                        // duration-capped run just truncates the tail.
                        let span = (i * cfg.phases.len() as u64) / cfg.ops_per_thread.max(1);
                        cfg.phases[(span as usize).min(cfg.phases.len() - 1)]
                    };
                    let roll = rng.gen_range(0..100u32);
                    if roll < get_pct {
                        rec.invoke(OpKind::Get, key, 0);
                        let v = tree.get(&mut ctx, key);
                        rec.respond(OpOutput::Value(v));
                    } else if roll < get_pct + put_pct {
                        // Values are unique per (worker, op) and
                        // disjoint from preload values, so every
                        // observed record has one possible writer.
                        let value = (u64::from(w) + 1) << 40 | i;
                        rec.invoke(OpKind::Put, key, value);
                        let prev = tree.put(&mut ctx, key, value);
                        rec.respond(OpOutput::Value(prev));
                    } else if roll < get_pct + put_pct + delete_pct {
                        rec.invoke(OpKind::Delete, key, 0);
                        let prev = tree.delete(&mut ctx, key);
                        rec.respond(OpOutput::Value(prev));
                    } else {
                        out.clear();
                        rec.invoke(OpKind::Scan, key, cfg.scan_len);
                        tree.scan(&mut ctx, key, cfg.scan_len as usize, &mut out);
                        rec.respond(OpOutput::Scan(out.clone()));
                    }
                    ctx.metric_add(Counter::Ops, 1);
                }
                drop(rec); // flush this thread's ops
                (
                    ctx.take_tracer().map(|b| b.into_thread_trace()),
                    ctx.counts(),
                )
            }));
        }

        let maintainer = cfg.maintain_thread.then(|| {
            let (clock, sink) = (Arc::clone(&clock), Arc::clone(&sink));
            let rt = Arc::clone(rt);
            let stop = &stop;
            s.spawn(move || {
                let mut ctx = rt.thread(cfg.seed ^ 0xAAAA);
                let mut rec = Recorder::new(ctx.id, clock, sink);
                if cfg.trace_capacity > 0 {
                    ctx.set_tracer(Box::new(TraceBuf::new(ctx.id, cfg.trace_capacity)));
                }
                while !stop.load(Ordering::Relaxed) {
                    rec.invoke(OpKind::Maintain, 0, 0);
                    let n = tree.maintain(&mut ctx);
                    rec.respond(OpOutput::Count(n));
                    std::thread::sleep(Duration::from_micros(500));
                }
                drop(rec);
                ctx.take_tracer().map(|b| b.into_thread_trace())
            })
        });

        let watcher = hooks.seqno_snapshot.as_ref().map(|f| {
            let stop = &stop;
            s.spawn(move || {
                let mut snaps = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    snaps.push(f());
                    std::thread::sleep(Duration::from_millis(1));
                }
                snaps
            })
        });

        // Metrics sampler: snapshot the runtime's registry every
        // millisecond into a small ring. The retained tail goes into the
        // report for the binary's failure dump.
        let sampler = {
            let rt = Arc::clone(rt);
            let stop = &stop;
            s.spawn(move || {
                let mut ts = TimeSeries::new(1_000, 64);
                let t0 = Instant::now();
                while !stop.load(Ordering::Relaxed) {
                    let now = t0.elapsed().as_micros() as u64;
                    if sample_due(&mut ts, now) {
                        rt.publish_epoch_gauges();
                        ts.sample(now, rt.metrics());
                    }
                    std::thread::sleep(Duration::from_micros(500));
                }
                rt.publish_epoch_gauges();
                ts.sample(t0.elapsed().as_micros() as u64, rt.metrics());
                ts
            })
        };

        for h in workers {
            let (trace, worker_counts) = h.join().expect("stress worker panicked");
            traces.extend(trace);
            counts.merge(&worker_counts);
        }
        stop.store(true, Ordering::Relaxed);
        if let Some(h) = maintainer {
            traces.extend(h.join().expect("maintenance thread panicked"));
        }
        if let Some(h) = watcher {
            for snap in h.join().expect("seqno watcher panicked") {
                seq_watch.observe(&snap);
            }
        }
        let ts = sampler.join().expect("metrics sampler panicked");
        snapshots = ts.iter().cloned().collect();
    });
    if let Some(f) = &hooks.seqno_snapshot {
        seq_watch.observe(&f());
    }
    observe_index();

    // ---- Post-quiescence verification reads, recorded too. --------
    // These are strictly after every worker op, so the oracle is forced
    // to linearize them last: the final tree state is checked against
    // the model for free, and the full scan runs with no concurrency —
    // exact checking even on trees with non-atomic scans.
    {
        let mut ctx = rt.thread(cfg.seed ^ 0xBBBB);
        let mut rec = Recorder::new(ctx.id, Arc::clone(&clock), Arc::clone(&sink));
        if cfg.trace_capacity > 0 {
            ctx.set_tracer(Box::new(TraceBuf::new(ctx.id, cfg.trace_capacity)));
        }
        let mut out = Vec::new();
        rec.invoke(OpKind::Scan, 0, u64::MAX);
        tree.scan(&mut ctx, 0, usize::MAX, &mut out);
        rec.respond(OpOutput::Scan(out));
        let step = (cfg.key_range / 256).max(1);
        let mut key = 0;
        while key < cfg.key_range {
            rec.invoke(OpKind::Get, key, 0);
            let v = tree.get(&mut ctx, key);
            rec.respond(OpOutput::Value(v));
            key += step;
        }
        drop(rec);
        traces.extend(ctx.take_tracer().map(|b| b.into_thread_trace()));
    }

    observe_index();

    let history = std::mem::take(&mut *sink.lock().unwrap());
    let verdict = check_history(&history, &preload_model, atomic_scans, cfg.lin_budget);

    let mut invariant_violations: Vec<String> = seq_watch.violations().to_vec();
    let seqno_violations = invariant_violations.len();
    invariant_violations.extend_from_slice(index_watch.violations());
    let index_violations = index_watch.violations().len();
    if let Some(f) = &hooks.quiescent {
        invariant_violations.extend(f());
    }
    let quiescent_findings = invariant_violations.len() - seqno_violations - index_violations;

    let profile = cfg
        .profile
        .then(|| build_profile(&traces, |addr| rt.object_base_of(addr)));

    StressReport {
        tree: tree.name(),
        threads: cfg.threads,
        seed: cfg.seed,
        history_len: history.len(),
        verdict,
        invariant_violations,
        elapsed_ms: start.elapsed().as_millis() as u64,
        seqno_leaves_seen: seq_watch.leaves_seen(),
        seqno_violations,
        index_nodes_seen: index_watch.nodes_seen(),
        index_violations,
        quiescent_findings,
        traces,
        profile,
        counts,
        snapshots,
    }
}

/// Stress every tree in the workspace (optionally filtered by a
/// case-insensitive substring of the tree name). Euno-B+Tree additionally
/// gets the structural audits; scan atomicity is declared per tree.
pub fn run_all(cfg: &StressConfig, filter: Option<&str>) -> Vec<StressReport> {
    run_all_on(cfg, filter, Runtime::new_concurrent)
}

/// [`run_all`] with each tree built on a runtime of the caller's making
/// (a fresh one per tree) — how the same oracle and audits run on the
/// hardware backend.
pub fn run_all_on(
    cfg: &StressConfig,
    filter: Option<&str>,
    new_rt: impl Fn() -> Arc<Runtime>,
) -> Vec<StressReport> {
    let wants = |name: &str| {
        filter.is_none_or(|f| name.to_ascii_lowercase().contains(&f.to_ascii_lowercase()))
    };
    let mut reports = Vec::new();

    let euno_cfg = |base: EunoConfig| EunoConfig {
        rebalance_delete_threshold: cfg.rebalance_delete_threshold,
        ..base
    };
    // Both Euno configurations: `paper()` (HTM upper region) and
    // `default()` (leaf hint, subtree hint, then the validated walk).
    for (name, base) in [
        ("Euno-B+Tree", EunoConfig::paper()),
        ("Euno-ReadOpt", EunoConfig::default()),
    ] {
        if !wants(name) {
            continue;
        }
        let rt = new_rt();
        let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), euno_cfg(base));
        let hooks = AuditHooks {
            seqno_snapshot: Some(Box::new(|| tree.leaf_seqnos_plain())),
            index_snapshot: Some(Box::new(|| tree.index_lows_plain())),
            quiescent: Some(Box::new(|| {
                let mut findings = tree.audit_quiescent();
                // The hint rungs must be what this run exercised — or, on
                // the paper's tree, must not exist. (A subtree hint needs a
                // subtree: an index node below the root.)
                for (rung, counter, possible) in [
                    ("leaf", Counter::LeafHintHits, true),
                    ("subtree", Counter::SubtreeHintHits, tree.stats().depth >= 2),
                ] {
                    let hits = rt.metrics().total(counter);
                    match (tree.config().read_opt, hits) {
                        (true, 0) if possible => {
                            findings.push(format!("no {rung}-hint hit in the whole run"))
                        }
                        (false, 1..) => {
                            findings.push(format!("{hits} {rung}-hint hits on paper()"))
                        }
                        _ => {}
                    }
                }
                findings
            })),
        };
        reports.push(run_stress(&tree, &rt, cfg, false, hooks));
    }
    if wants("HTM-B+Tree") {
        let rt = new_rt();
        let tree = HtmBTree::<16>::new(Arc::clone(&rt));
        reports.push(run_stress(&tree, &rt, cfg, true, AuditHooks::default()));
    }
    if wants("Masstree") {
        let rt = new_rt();
        let tree = Masstree::new(Arc::clone(&rt));
        reports.push(run_stress(&tree, &rt, cfg, false, AuditHooks::default()));
    }
    if wants("HTM-Masstree") {
        let rt = new_rt();
        let tree = HtmMasstree::new(Arc::clone(&rt));
        reports.push(run_stress(&tree, &rt, cfg, true, AuditHooks::default()));
    }
    reports
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn path_split_survives_more_fallbacks_than_commits() {
        // A storm can put more regions on the fallback than commit
        // speculatively; deriving the HTM share as `commits − fallbacks`
        // (fallback executions were never counted as commits) wraps here.
        let mut counts = Counts::default();
        counts[Counter::Commits] = 3;
        counts[Counter::Fallbacks] = 5;
        let r = StressReport {
            tree: "storm",
            threads: 8,
            seed: 0,
            history_len: 8,
            verdict: Verdict::Linearizable { states_explored: 0 },
            invariant_violations: Vec::new(),
            elapsed_ms: 0,
            seqno_leaves_seen: 0,
            seqno_violations: 0,
            index_nodes_seen: 0,
            index_violations: 0,
            quiescent_findings: 0,
            traces: Vec::new(),
            profile: None,
            counts,
            snapshots: Vec::new(),
        };
        assert_eq!(r.path_split(), (3, 5));
    }

    #[test]
    fn every_worker_op_is_counted_in_stats_and_metrics() {
        let cfg = StressConfig {
            threads: 3,
            ops_per_thread: 200,
            key_range: 64,
            preload: 32,
            ..StressConfig::default()
        };
        assert_eq!(cfg.duration_ms, 0, "no duration cap: every op runs");
        let report = &run_all(&cfg, Some("HTM-B+Tree"))[0];
        let ops = u64::from(cfg.threads) * cfg.ops_per_thread;
        assert_eq!(report.counts[Counter::Ops], ops);
        let last = report.snapshots.last().expect("a final snapshot");
        assert_eq!(last.counters[Counter::Ops.index()], ops);
    }

    #[test]
    fn small_stress_run_is_clean_on_every_tree() {
        let cfg = StressConfig {
            threads: 3,
            ops_per_thread: 400,
            seed: 42,
            key_range: 128,
            preload: 64,
            ..StressConfig::default()
        };
        let reports = run_all(&cfg, None);
        assert_eq!(reports.len(), 5);
        for r in &reports {
            assert!(
                r.passed(),
                "{}: verdict {:?}, invariants {:?}",
                r.tree,
                r.verdict,
                r.invariant_violations
            );
            assert!(matches!(r.verdict, Verdict::Linearizable { .. }), "{r:?}");
            assert!(r.history_len > 0);
        }
    }

    #[test]
    fn abort_storm_is_linearizable_under_real_threads() {
        // The storm preset (shrunk for test time): every worker hammers
        // eight keys from real threads. Whatever mix of HTM commits and
        // fallback executions the timing produces, the recorded history
        // must stay linearizable and the structural audits clean.
        let cfg = StressConfig {
            threads: 4,
            ops_per_thread: 800,
            ..StressConfig::abort_storm()
        };
        let reports = run_all(&cfg, Some("b+tree"));
        assert_eq!(reports.len(), 2, "Euno + HTM B+Trees expected");
        for r in &reports {
            assert!(
                r.passed(),
                "{} under abort storm: verdict {:?}, invariants {:?}",
                r.tree,
                r.verdict,
                r.invariant_violations
            );
        }
    }

    /// The regularity rule convicts a scan step that drops a segment
    /// (`scan:skip-segment`) in a plain stress row — the churn preset with
    /// long scans, a fixed seed, no script — on both Euno variants, and
    /// passes the same row without the mutation.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "mutations are debug-only")]
    fn a_scan_step_that_drops_a_segment_is_convicted_by_a_stress_row() {
        for mutation in [None, Some("scan:skip-segment")] {
            let cfg = StressConfig {
                threads: 4,
                ops_per_thread: 600,
                scan_len: 48,
                seed: 3,
                mutation,
                ..StressConfig::churn()
            };
            for r in run_all(&cfg, Some("euno")) {
                match mutation {
                    None => assert!(r.passed(), "{}: {:?}", r.tree, r.verdict),
                    Some(_) => assert!(
                        matches!(&r.verdict, Verdict::Violation { detail } if detail.contains("missed")),
                        "{}: {:?}",
                        r.tree,
                        r.verdict
                    ),
                }
            }
        }
    }

    #[test]
    fn churn_is_linearizable_on_both_euno_variants() {
        // The churn preset (shrunk for test time): delete-heavy traffic
        // with the maintenance thread merging continuously, so episode
        // readers (Euno-B+Tree) and episode-free readers (Euno-ReadOpt)
        // both race real leaf retirements. Histories must stay
        // linearizable, the seqno watch clean across address reuse, and
        // the quiescent audit clean after reclamation.
        let cfg = StressConfig {
            threads: 4,
            ops_per_thread: 1_200,
            ..StressConfig::churn()
        };
        let reports = run_all(&cfg, Some("euno"));
        assert_eq!(reports.len(), 2, "both Euno variants expected");
        assert!(reports.iter().any(|r| r.tree == "Euno-ReadOpt"));
        for r in &reports {
            assert!(
                r.passed(),
                "{} under churn: verdict {:?}, invariants {:?}",
                r.tree,
                r.verdict,
                r.invariant_violations
            );
            assert!(matches!(r.verdict, Verdict::Linearizable { .. }), "{r:?}");
        }
    }

    #[test]
    fn churn_with_foreground_sweeps_is_linearizable_on_both_euno_variants() {
        // The lowered-threshold preset (shrunk for test time), once with
        // the maintenance thread racing the foreground slices and once
        // with deletes alone carrying every sweep.
        for maintain_thread in [true, false] {
            let cfg = StressConfig {
                threads: 4,
                ops_per_thread: 1_200,
                maintain_thread,
                ..StressConfig::churn_sweeps()
            };
            let reports = run_all(&cfg, Some("euno"));
            assert_eq!(reports.len(), 2, "both Euno variants expected");
            for r in &reports {
                assert!(
                    r.passed(),
                    "{} under sweeping churn: verdict {:?}, invariants {:?}",
                    r.tree,
                    r.verdict,
                    r.invariant_violations
                );
                assert!(matches!(r.verdict, Verdict::Linearizable { .. }), "{r:?}");
                let last = r.snapshots.last().expect("the sampler settles once");
                let slices = last.counters[euno_metrics::Counter::SweepSlices.index()];
                assert!(slices > 0, "{}: no sweep slice ever ran", r.tree);
            }
        }
    }

    #[test]
    fn phased_churn_is_linearizable_on_both_euno_variants() {
        // The phased grow/shrink schedule (shrunk for test time): the
        // population swings put-heavy → delete-heavy twice, so split
        // bursts and merge bursts each land while the other variant's
        // readers are mid-flight — unlike the stationary churn preset,
        // where the population settles and structural traffic tapers.
        let cfg = StressConfig {
            threads: 4,
            ops_per_thread: 1_200,
            ..StressConfig::churn_phased()
        };
        assert_eq!(cfg.phases.len(), 4);
        let reports = run_all(&cfg, Some("euno"));
        assert_eq!(reports.len(), 2, "both Euno variants expected");
        for r in &reports {
            assert!(
                r.passed(),
                "{} under phased churn: verdict {:?}, invariants {:?}",
                r.tree,
                r.verdict,
                r.invariant_violations
            );
            assert!(matches!(r.verdict, Verdict::Linearizable { .. }), "{r:?}");
        }
    }

    #[test]
    fn virtual_abort_storm_fallback_history_is_consistent() {
        // Real threads rarely overlap enough in a short test to drive the
        // executor past its retry budget, so the escalation is exercised
        // deterministically in virtual time: eight virtual threads
        // round-robin over eight keys, where overlapping cycle intervals
        // with colliding footprints abort exactly as the simulator's
        // figures do. The recorded history must check out against the
        // oracle, and the merged stats must prove fallback executions
        // actually interleaved with speculative commits — on an
        // HTM-B+Tree, which has no CCM serializing hot keys before the
        // executor sees them.
        use euno_htm::ThreadCtx;

        let rt = Runtime::new_virtual();
        let tree = HtmBTree::<16>::new(Arc::clone(&rt));
        let mut model = BTreeMap::new();
        {
            let mut ctx = rt.thread(0xCAFE);
            for key in 0..8u64 {
                let value = key.wrapping_mul(31) + 7;
                tree.put(&mut ctx, key, value);
                model.insert(key, value);
            }
        }

        let (sink, clock) = new_sink();
        let mut ctxs: Vec<ThreadCtx> = (0..8u64).map(|w| rt.thread(w)).collect();
        let mut recs: Vec<Recorder> = ctxs
            .iter()
            .map(|ctx| Recorder::new(ctx.id, Arc::clone(&clock), Arc::clone(&sink)))
            .collect();
        let mut rngs: Vec<SmallRng> = (0..8u64)
            .map(|w| SmallRng::seed_from_u64(mix64(0x5708) ^ mix64(w + 1)))
            .collect();

        for round in 0..250u64 {
            for (w, (ctx, rec)) in ctxs.iter_mut().zip(&mut recs).enumerate() {
                let key = rngs[w].gen_range(0..8u64);
                match rngs[w].gen_range(0..100u32) {
                    0..=39 => {
                        rec.invoke(OpKind::Get, key, 0);
                        let v = tree.get(ctx, key);
                        rec.respond(OpOutput::Value(v));
                    }
                    40..=79 => {
                        let value = (w as u64 + 1) << 40 | round;
                        rec.invoke(OpKind::Put, key, value);
                        let prev = tree.put(ctx, key, value);
                        rec.respond(OpOutput::Value(prev));
                    }
                    _ => {
                        rec.invoke(OpKind::Delete, key, 0);
                        let prev = tree.delete(ctx, key);
                        rec.respond(OpOutput::Value(prev));
                    }
                }
            }
        }

        let mut counts = Counts::default();
        drop(recs);
        for ctx in ctxs {
            counts.merge(&ctx.counts());
        }
        let (commits, fallbacks) = (counts[Counter::Commits], counts[Counter::Fallbacks]);
        assert!(
            fallbacks > 0 && commits > 0,
            "virtual abort storm never mixed the two paths \
             (commits {commits}, aborts {}, fallbacks {fallbacks})",
            counts.aborts(),
        );

        let history = std::mem::take(&mut *sink.lock().unwrap());
        let verdict = check_history(&history, &model, true, DEFAULT_BUDGET);
        assert!(
            matches!(verdict, Verdict::Linearizable { .. }),
            "abort-storm history not linearizable: {verdict:?}"
        );
    }

    #[test]
    fn oracle_catches_a_buggy_map_end_to_end() {
        // A map that drops every fourth put must be caught by the oracle
        // via the recorded history — this is the pre-fix failure shape
        // (lost updates) the subsystem exists to flush out.
        struct Lossy {
            inner: EunoBTreeDefault,
            calls: std::sync::atomic::AtomicU64,
        }
        impl ConcurrentMap for Lossy {
            fn get(&self, ctx: &mut euno_htm::ThreadCtx, key: u64) -> Option<u64> {
                self.inner.get(ctx, key)
            }
            fn put(&self, ctx: &mut euno_htm::ThreadCtx, key: u64, value: u64) -> Option<u64> {
                let n = self.calls.fetch_add(1, Ordering::Relaxed);
                if n % 4 == 3 {
                    // Swallow the write but report a plausible answer.
                    self.inner.get(ctx, key)
                } else {
                    self.inner.put(ctx, key, value)
                }
            }
            fn delete(&self, ctx: &mut euno_htm::ThreadCtx, key: u64) -> Option<u64> {
                self.inner.delete(ctx, key)
            }
            fn scan(
                &self,
                ctx: &mut euno_htm::ThreadCtx,
                from: u64,
                count: usize,
                out: &mut Vec<(u64, u64)>,
            ) -> usize {
                self.inner.scan(ctx, from, count, out)
            }
            fn name(&self) -> &'static str {
                "Lossy"
            }
        }
        let rt = Runtime::new_concurrent();
        let tree = Lossy {
            inner: EunoBTreeDefault::new(Arc::clone(&rt)),
            calls: std::sync::atomic::AtomicU64::new(0),
        };
        let cfg = StressConfig {
            threads: 2,
            ops_per_thread: 300,
            seed: 7,
            key_range: 32,
            preload: 16,
            maintain_thread: false,
            profile: true,
            ..StressConfig::default()
        };
        let r = run_stress(&tree, &rt, &cfg, false, AuditHooks::default());
        assert!(
            matches!(r.verdict, Verdict::Violation { .. }),
            "lost updates must be detected: {:?}",
            r.verdict
        );
        // The failure dump has material to work with: every thread kept
        // its event ring, and the profile resolved engine addresses to
        // registered leaves.
        assert!(r.traces.len() >= 3, "workers + verifier rings expected");
        for t in &r.traces {
            assert!(t.total > 0, "thread {} traced nothing", t.thread);
            assert!(t.events.len() <= cfg.trace_capacity, "ring over capacity");
            assert!(
                t.events.windows(2).all(|w| w[0].ts <= w[1].ts),
                "thread {} ring out of timestamp order",
                t.thread
            );
        }
        let p = r.profile.expect("profile requested");
        assert!(p.events_seen > 0);
    }
}
