//! Experiment harness: preload a tree, run a YCSB-style workload against
//! any [`ConcurrentMap`] on the virtual clock, return the metrics a paper
//! figure plots. Every count a run reports lives on its threads' metric
//! shards: the driver that runs an op ([`apply_op`], a figure's composite
//! op) counts it there once, with `Counter::Ops`.

use std::sync::Arc;

use euno_htm::euno_metrics::Counter;
use euno_htm::{ConcurrentMap, Mode, Runtime, ThreadCtx};
use euno_trace::{build_profile, EventKind, OpKind};
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
    /// virtual cycles into [`RunMetrics::timeseries`]. 0 = sampling off.
    /// The ring holds [`euno_metrics::TimeSeries::DEFAULT_CAPACITY`]
    /// snapshots; when the run outlives it the oldest are dropped
    /// (counted in the series), keeping memory bounded.
    pub sample_every: u64,
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
            Op::Get { key } => (OpKind::Get, key),
            Op::Put { key, .. } => (OpKind::Put, key),
            Op::Delete { key } => (OpKind::Delete, key),
            Op::Scan { from, .. } => (OpKind::Scan, from),
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
    ctx.metric_add(Counter::Ops, 1);
}

/// Drive `cfg.threads` logical threads on `rt`'s virtual clock, each
/// running `cfg.warmup_ops` unmeasured, then `cfg.ops_per_thread` measured
/// calls of the op closure `thread_ops(t)` builds for it (the closure
/// counts each op in `Counter::Ops`), with the trace rings, sampler and
/// hot-leaf profile `cfg` asks for. The driver loop under [`run_virtual`]
/// and under every figure that composes its own operations.
pub fn run_ops<'a, F: FnMut(&mut ThreadCtx) + 'a>(
    rt: &Arc<Runtime>,
    cfg: &RunConfig,
    mut thread_ops: impl FnMut(usize) -> F,
) -> RunMetrics {
    assert_eq!(rt.mode(), Mode::Virtual);
    let mut sched = VirtualScheduler::new(Arc::clone(rt));
    if let Some(cap) = cfg.effective_trace_capacity() {
        sched.set_trace_capacity(cap);
    }
    if cfg.sample_every > 0 {
        sched.set_sampling(cfg.sample_every);
    }
    for t in 0..cfg.threads {
        let mut op = thread_ops(t);
        let (mut warmup_left, mut left) = (cfg.warmup_ops, cfg.ops_per_thread);
        let step = move |ctx: &mut ThreadCtx| {
            if warmup_left > 0 {
                // A warm-up op keeps its clock contribution (it shapes the
                // schedule) while the thread's metric shard and `ctx.stats`
                // are rolled back, so the measured metrics only cover
                // steady state; the last one opens the measured span.
                warmup_left -= 1;
                let mark = ctx.metrics_mark();
                op(ctx);
                ctx.metrics_restore(mark);
                if warmup_left == 0 {
                    ctx.stats.measure_start_cycles = Some(ctx.clock);
                }
                return true;
            }
            if left == 0 {
                return false;
            }
            left -= 1;
            op(ctx);
            true
        };
        sched.add_thread(cfg.seed.wrapping_add(t as u64), Box::new(step));
    }
    let mut m = sched.run();
    if let Some(traces) = m.trace.as_ref().filter(|_| cfg.profile) {
        // Event addresses resolve through the runtime's node table (leaves
        // attributed by `EunoLeaf::register`).
        m.profile = Some(build_profile(traces, |addr| rt.object_base_of(addr)));
    }
    // The run is quiescent: no participant is pinned, so two collects
    // (advance + mature) drain every node the workload retired. Without
    // this, memory snapshots taken after a run would report pending
    // garbage that is purely an artifact of where the opportunistic
    // collection cadence stopped.
    rt.epoch().collect();
    rt.epoch().collect();
    m
}

/// Run a workload in **virtual-time** mode and return the figure metrics.
/// The tree must have been built against the same `rt`, and preloaded.
pub fn run_virtual(
    map: &dyn ConcurrentMap,
    rt: &Arc<Runtime>,
    spec: &WorkloadSpec,
    cfg: &RunConfig,
) -> RunMetrics {
    run_ops(rt, cfg, |t| {
        let mut stream = OpStream::new(spec, t as u64, cfg.seed);
        let mut scan_buf = Vec::new();
        move |ctx: &mut ThreadCtx| apply_op(map, ctx, stream.next_op(), &mut scan_buf)
    })
}
