//! Experiment harness: preload a tree, run a YCSB-style workload against
//! any [`ConcurrentMap`] under either execution mode, return the metrics a
//! paper figure plots.

use std::sync::Arc;
use std::time::Instant;

use euno_htm::{ConcurrentMap, Mode, Runtime, ThreadCtx, ThreadStats};
use euno_metrics::{sample_due, Counter, ExecStages, LogHistogram, TimeSeries};
use euno_trace::{build_profile, codes, EventKind, ThreadTrace, TraceBuf};
use euno_workloads::{Op, OpStream, WorkloadSpec};

use crate::metrics::RunMetrics;
use crate::sched::VirtualScheduler;

/// Configuration of one run (one data point of one figure).
#[derive(Clone, Debug)]
pub struct RunConfig {
    pub threads: usize,
    pub ops_per_thread: u64,
    pub seed: u64,
    /// Unmeasured operations each thread executes first to reach steady
    /// state (populating caches, splitting hot leaves).
    pub warmup_ops: u64,
    /// Per-thread trace-ring capacity in events; 0 = tracing off (the
    /// engine's emission points stay one never-taken branch each).
    pub trace_capacity: usize,
    /// Build the hot-leaf contention profile ([`RunMetrics::profile`])
    /// from the collected trace. Implies tracing at the default ring
    /// capacity when `trace_capacity` is 0.
    pub profile: bool,
    /// Metrics-sampler period: snapshot the registry every this many
    /// virtual cycles (virtual mode) or wall microseconds (concurrent
    /// mode) into [`RunMetrics::timeseries`]. 0 = sampling off.
    pub sample_every: u64,
    /// Snapshot-ring capacity; 0 = [`TimeSeries::DEFAULT_CAPACITY`].
    /// When the run outlives the ring the oldest snapshots are dropped
    /// (counted in the series), keeping memory bounded.
    pub sample_capacity: usize,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: 16, // §2.3 / §5.2 measure at 16 threads
            ops_per_thread: 20_000,
            seed: 0x00eu64 ^ 0x5eed,
            warmup_ops: 4_000,
            trace_capacity: 0,
            profile: false,
            sample_every: 0,
            sample_capacity: 0,
        }
    }
}

impl RunConfig {
    /// The ring capacity to install, or `None` when the run traces
    /// nothing at all.
    pub fn effective_trace_capacity(&self) -> Option<usize> {
        match (self.trace_capacity, self.profile) {
            (0, false) => None,
            (0, true) => Some(euno_trace::DEFAULT_CAPACITY),
            (cap, _) => Some(cap),
        }
    }
}

/// Populate the tree with the workload's preload keys, single-threaded and
/// unmeasured. Returns the number of records inserted.
pub fn preload(map: &dyn ConcurrentMap, rt: &Arc<Runtime>, spec: &WorkloadSpec) -> u64 {
    let mut ctx = rt.thread(0x10ad_5eed);
    let mut n = 0;
    for key in spec.preload_keys() {
        map.put(&mut ctx, key, key ^ 0xabcd);
        n += 1;
    }
    n
}

/// Execute one operation against the map, charging the fixed per-op
/// overhead and counting it.
#[inline]
pub fn apply_op(
    map: &dyn ConcurrentMap,
    ctx: &mut ThreadCtx,
    op: Op,
    scan_buf: &mut Vec<(u64, u64)>,
) {
    let overhead = ctx.runtime().cost.op_overhead;
    ctx.charge(overhead);
    if ctx.tracing() {
        let (kind, key) = match op {
            Op::Get { key } => (codes::OP_GET, key),
            Op::Put { key, .. } => (codes::OP_PUT, key),
            Op::Delete { key } => (codes::OP_DELETE, key),
            Op::Scan { from, .. } => (codes::OP_SCAN, from),
        };
        ctx.trace(EventKind::OpBegin { kind, key });
    }
    match op {
        Op::Get { key } => {
            map.get(ctx, key);
        }
        Op::Put { key, value } => {
            map.put(ctx, key, value);
        }
        Op::Delete { key } => {
            map.delete(ctx, key);
        }
        Op::Scan { from, len } => {
            scan_buf.clear();
            map.scan(ctx, from, len, scan_buf);
        }
    }
    ctx.trace(EventKind::OpEnd);
    ctx.stats.ops += 1;
}

/// Run one unmeasured warmup operation: the clock contribution is kept
/// (it shapes the schedule) while ops/abort statistics — and the thread's
/// metric-shard counters — are rolled back so the measured metrics only
/// cover steady state.
#[inline]
pub fn apply_warmup_op(
    map: &dyn ConcurrentMap,
    ctx: &mut ThreadCtx,
    op: Op,
    scan_buf: &mut Vec<(u64, u64)>,
) {
    let saved = ctx.stats.clone();
    let mark = ctx.metrics_mark();
    apply_op(map, ctx, op, scan_buf);
    ctx.stats = saved;
    ctx.metrics_restore(&mark);
}

/// Run a workload in **virtual-time** mode and return the figure metrics.
///
/// The tree must have been built against the same `rt`. Preloading happens
/// here (single-threaded, unmeasured) unless `preloaded` is set.
pub fn run_virtual(
    map: &dyn ConcurrentMap,
    rt: &Arc<Runtime>,
    spec: &WorkloadSpec,
    cfg: &RunConfig,
) -> RunMetrics {
    assert_eq!(rt.mode(), Mode::Virtual);
    let mut sched = VirtualScheduler::new(Arc::clone(rt));
    if let Some(cap) = cfg.effective_trace_capacity() {
        sched.set_trace_capacity(cap);
    }
    if cfg.sample_every > 0 {
        let cap = match cfg.sample_capacity {
            0 => TimeSeries::DEFAULT_CAPACITY,
            c => c,
        };
        sched.set_sampling(cfg.sample_every, cap);
    }
    for t in 0..cfg.threads {
        let mut stream = OpStream::new(spec, t as u64, cfg.seed);
        let mut scan_buf: Vec<(u64, u64)> = Vec::new();
        let mut warmup_left = cfg.warmup_ops;
        let mut left = cfg.ops_per_thread;
        let map_ref: &dyn ConcurrentMap = map;
        sched.add_thread(
            cfg.seed.wrapping_add(t as u64),
            Box::new(move |ctx| {
                if warmup_left > 0 {
                    warmup_left -= 1;
                    let op = stream.next_op();
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
                let op = stream.next_op();
                apply_op(map_ref, ctx, op, &mut scan_buf);
                true
            }),
        );
    }
    let mut m = sched.run();
    attach_profile(&mut m, rt, cfg);
    // The run is quiescent: no participant is pinned, so two collects
    // (advance + mature) drain every node the workload retired. Without
    // this, memory snapshots taken after a run would report pending
    // garbage that is purely an artifact of where the opportunistic
    // collection cadence stopped.
    rt.epoch().collect();
    rt.epoch().collect();
    m
}

/// Build the hot-leaf profile from a run's collected traces, resolving
/// event addresses through the runtime's node table (leaves attributed by
/// `EunoLeaf::register`). Public for harnesses that drive a
/// [`VirtualScheduler`] directly instead of going through [`run_virtual`].
pub fn attach_profile(m: &mut RunMetrics, rt: &Arc<Runtime>, cfg: &RunConfig) {
    if !cfg.profile {
        return;
    }
    if let Some(traces) = &m.trace {
        m.profile = Some(build_profile(traces, |addr| rt.object_base_of(addr)));
    }
}

/// Run a workload with **real OS threads** (concurrent mode) and wall-clock
/// timing. Used by stress tests; on a many-core host this also gives
/// native throughput numbers.
///
/// Each thread records a per-operation latency histogram over its
/// cycle-charged clock (spins, retries and fallback serialization all
/// charge cycles in concurrent mode too); the merged histogram lands in
/// [`RunMetrics::latency`] exactly as in virtual mode.
pub fn run_concurrent(
    map: &dyn ConcurrentMap,
    rt: &Arc<Runtime>,
    spec: &WorkloadSpec,
    cfg: &RunConfig,
) -> RunMetrics {
    assert_eq!(rt.mode(), Mode::Concurrent);
    // All threads warm up, meet at a barrier, then the measured phase is
    // timed on its own. The metrics sampler (when on) joins the same
    // rendezvous so its tick 0 is the measured-phase start.
    let sampling = cfg.sample_every > 0;
    let barrier = std::sync::Barrier::new(cfg.threads + 1 + sampling as usize);
    let start_cell = std::sync::Mutex::new(Instant::now());
    let trace_cap = cfg.effective_trace_capacity();
    let done = std::sync::atomic::AtomicBool::new(false);
    let mut series: Option<TimeSeries> = None;
    let results: Vec<(ThreadStats, ExecStages, LogHistogram, Option<ThreadTrace>)> =
        std::thread::scope(|s| {
            let mut handles = Vec::new();
            for t in 0..cfg.threads {
                let rt = Arc::clone(rt);
                let spec = spec.clone();
                let cfg = cfg.clone();
                let map_ref: &dyn ConcurrentMap = map;
                let barrier = &barrier;
                handles.push(s.spawn(move || {
                    let mut ctx = rt.thread(cfg.seed.wrapping_add(t as u64));
                    if let Some(cap) = trace_cap {
                        ctx.set_tracer(Box::new(TraceBuf::new(ctx.id, cap)));
                    }
                    let mut stream = OpStream::new(&spec, t as u64, cfg.seed);
                    let mut scan_buf = Vec::new();
                    let mut latency = LogHistogram::new();
                    for _ in 0..cfg.warmup_ops {
                        let op = stream.next_op();
                        apply_warmup_op(map_ref, &mut ctx, op, &mut scan_buf);
                    }
                    barrier.wait();
                    ctx.stats.measure_start_cycles = Some(ctx.clock);
                    for _ in 0..cfg.ops_per_thread {
                        let op = stream.next_op();
                        let before = ctx.clock;
                        apply_op(map_ref, &mut ctx, op, &mut scan_buf);
                        latency.record(ctx.clock - before);
                        ctx.metric_add(Counter::Ops, 1);
                        ctx.metric_record_latency(ctx.clock - before);
                    }
                    ctx.finish();
                    let trace = ctx.take_tracer().map(|b| b.into_thread_trace());
                    let stages = ctx.exec_stages();
                    (ctx.stats, stages, latency, trace)
                }));
            }
            // Wall-clock sampler: one extra thread ticking every Δ µs from
            // the measured-phase start. It never touches the barrier (the
            // workers' rendezvous stays threads+1); it just snapshots the
            // shared registry until the workers finish.
            let sampler = sampling.then(|| {
                let rt = Arc::clone(rt);
                let delta = cfg.sample_every;
                let cap = match cfg.sample_capacity {
                    0 => TimeSeries::DEFAULT_CAPACITY,
                    c => c,
                };
                let done = &done;
                let barrier = &barrier;
                s.spawn(move || {
                    let mut ts = TimeSeries::new(delta, cap);
                    barrier.wait();
                    let t0 = Instant::now();
                    while !done.load(std::sync::atomic::Ordering::Acquire) {
                        let now = t0.elapsed().as_micros() as u64;
                        if sample_due(&mut ts, now) {
                            rt.publish_epoch_gauges();
                            ts.sample(now, rt.metrics());
                        }
                        std::thread::sleep(std::time::Duration::from_micros(delta.clamp(50, 1000)));
                    }
                    // Settle snapshot: close the series on the final totals.
                    rt.publish_epoch_gauges();
                    ts.sample(t0.elapsed().as_micros() as u64, rt.metrics());
                    ts
                })
            });
            barrier.wait();
            *start_cell.lock().unwrap() = Instant::now();
            let results = handles.into_iter().map(|h| h.join().unwrap()).collect();
            done.store(true, std::sync::atomic::Ordering::Release);
            series = sampler.map(|h| h.join().unwrap());
            results
        });
    let elapsed = start_cell.lock().unwrap().elapsed().as_secs_f64();
    let mut latency = LogHistogram::new();
    let mut per_thread = Vec::with_capacity(results.len());
    let mut stages = ExecStages::default();
    let mut traces = Vec::new();
    for (stats, st, hist, trace) in results {
        latency.merge(&hist);
        per_thread.push(stats);
        stages.merge(&st);
        traces.extend(trace);
    }
    let mut m = RunMetrics::from_wall(per_thread, stages, elapsed, latency);
    m.timeseries = series;
    m.flips = rt.metrics().flips().events();
    if trace_cap.is_some() {
        m.trace = Some(traces);
    }
    attach_profile(&mut m, rt, cfg);
    m
}
