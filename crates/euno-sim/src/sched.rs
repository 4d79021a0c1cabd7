//! The deterministic virtual-time scheduler.
//!
//! The host has one CPU core; the paper's machine has twenty. To measure
//! scalability and contention anyway, N *logical* threads advance on a
//! virtual cycle clock: the scheduler always resumes the thread with the
//! smallest clock, that thread executes its next operation to completion
//! (charging cycles for every instrumented access through its
//! [`ThreadCtx`]), and the engine decides transactional conflicts from the
//! *virtual interval overlap* of episodes (see `euno-htm`'s runtime).
//!
//! Running in start-time order makes the simulation deterministic for a
//! given seed — a property the test suite checks — while preserving the
//! statistics that drive every figure: operations of different logical
//! threads overlap in virtual time exactly as they would in wall time, and
//! overlap is what creates aborts, lock waits and coherence charges.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

use euno_htm::{Mode, Runtime, ThreadCtx, ThreadStats};
use euno_metrics::{sample_due, Counter, Counts, LogHistogram, TimeSeries};
use euno_trace::{EventKind, ThreadTrace, TraceBuf};

use crate::metrics::RunMetrics;

/// A per-thread operation driver: run ONE operation, counting it with
/// `ctx.metric_add(Counter::Ops, 1)` (a measured op's latency is recorded
/// only then); return `false` when the thread has no more work.
pub type Driver<'a> = Box<dyn FnMut(&mut ThreadCtx) -> bool + 'a>;

/// Builder/executor for one virtual-time run.
pub struct VirtualScheduler<'a> {
    rt: Arc<Runtime>,
    threads: Vec<(ThreadCtx, Driver<'a>)>,
    /// Prune the engine's conflict window every this many events.
    prune_every: u64,
    /// When set, every thread gets a trace ring of this capacity and the
    /// scheduler emits a [`EventKind::SchedStep`] per dispatch; collected
    /// traces land in [`RunMetrics::trace`].
    trace_capacity: Option<usize>,
    /// When set, the scheduler snapshots the runtime's metric registry
    /// every this many virtual cycles into a ring of
    /// [`TimeSeries::DEFAULT_CAPACITY`] snapshots; the series lands in
    /// [`RunMetrics::timeseries`]. Sampling charges no cycles and draws no
    /// randomness — the schedule is bit-identical with it on or off.
    sampling: Option<u64>,
    /// Each thread's first this many driver calls are its warm-up.
    warmup: u64,
}

impl<'a> VirtualScheduler<'a> {
    pub fn new(rt: Arc<Runtime>) -> Self {
        assert_eq!(
            rt.mode(),
            Mode::Virtual,
            "VirtualScheduler requires a virtual-mode runtime"
        );
        VirtualScheduler {
            rt,
            threads: Vec::new(),
            prune_every: 64,
            trace_capacity: None,
            sampling: None,
            warmup: 0,
        }
    }

    /// Give every thread a trace ring of `capacity` events (installed at
    /// the start of [`VirtualScheduler::run`], so it covers threads added
    /// before or after this call).
    pub fn set_trace_capacity(&mut self, capacity: usize) {
        self.trace_capacity = Some(capacity);
    }

    /// Snapshot the metric registry every `delta` virtual cycles (see
    /// [`RunMetrics::timeseries`]).
    pub fn set_sampling(&mut self, delta: u64) {
        self.sampling = Some(delta);
    }

    /// Make each thread's first `ops` driver calls its warm-up: they run
    /// on the clock and shape the schedule, and the thread's mark, taken
    /// when they end, opens its measured span (see [`RunMetrics`]).
    pub fn set_warmup(&mut self, ops: u64) {
        self.warmup = ops;
    }

    /// Register a logical thread with its own deterministic seed.
    pub fn add_thread(&mut self, seed: u64, driver: Driver<'a>) {
        let ctx = self.rt.thread(seed);
        self.threads.push((ctx, driver));
    }

    /// Run every thread to completion; returns aggregated metrics.
    pub fn run(mut self) -> RunMetrics {
        if let Some(cap) = self.trace_capacity {
            for (ctx, _) in self.threads.iter_mut() {
                ctx.set_tracer(Box::new(TraceBuf::new(ctx.id, cap)));
            }
        }
        // Min-heap on (clock, index): equal clocks resolve by thread index,
        // keeping the schedule total-ordered and deterministic.
        let mut heap: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
        for (i, (ctx, _)) in self.threads.iter().enumerate() {
            heap.push(Reverse((ctx.clock, i)));
        }

        let mut warm_left = vec![self.warmup; self.threads.len()];
        // A thread's mark: its counts and cycle books when its warm-up
        // ends. The run reports each thread's books at its end minus its
        // mark, so a warm-up op keeps everything it did — clock, counts,
        // cycle books — and none of it is measured.
        let mut marks: Vec<Option<(Counts, ThreadStats)>> = vec![None; self.threads.len()];
        let mut events: u64 = 0;
        let mut makespan: u64 = 0;
        let mut series = self
            .sampling
            .map(|delta| TimeSeries::new(delta, TimeSeries::DEFAULT_CAPACITY));
        while let Some(Reverse((start, i))) = heap.pop() {
            events += 1;
            if events.is_multiple_of(self.prune_every) {
                // Nothing can start before `start` anymore: safe horizon.
                self.rt.virt_prune(start);
            }
            if let Some(ts) = series.as_mut() {
                // The popped start tick is the run's monotone virtual "now"
                // (threads resume in clock order), so it drives the Δ-tick
                // sampling cadence.
                if sample_due(ts, start) {
                    self.rt.publish_epoch_gauges();
                    ts.sample(start, self.rt.metrics());
                }
            }
            let (ctx, driver) = &mut self.threads[i];
            debug_assert_eq!(ctx.clock, start);
            if warm_left[i] == 0 && marks[i].is_none() {
                ctx.finish(); // stamps the clock into the books
                marks[i] = Some((ctx.counts(), ctx.stats.clone()));
            }
            ctx.trace(EventKind::SchedStep { clock: start });
            let ops_before = ctx.metric(Counter::Ops);
            let more = driver(ctx);
            if warm_left[i] > 0 {
                warm_left[i] -= 1;
            } else if ctx.metric(Counter::Ops) > ops_before {
                // The driver counted a measured op: its latency is the
                // event's clock span (includes retries, lock waits,
                // fallback serialization). A histogram's max cannot be
                // subtracted at a mark, so a warm-up op records none.
                ctx.metric_record_latency(ctx.clock - start);
            }
            makespan = makespan.max(ctx.clock);
            if more {
                heap.push(Reverse((ctx.clock, i)));
            } else {
                ctx.finish();
            }
        }

        let mut traces: Vec<ThreadTrace> = Vec::new();
        // Counts and latencies come from the scheduler's own thread shards
        // (never registry totals, which could include contexts other
        // callers registered on the same runtime).
        let mut counts = Counts::default();
        let mut latency = LogHistogram::new();
        let mut stats = ThreadStats::default();
        // The measured span opens at the earliest mark; a thread that
        // stopped before its mark measured nothing.
        let mut measure_start = makespan;
        for ((ctx, _), mark) in self.threads.iter_mut().zip(&marks) {
            ctx.finish();
            if let Some(buf) = ctx.take_tracer() {
                traces.push(buf.into_thread_trace());
            }
            latency.merge(&ctx.latency());
            if let Some((marked_counts, marked_stats)) = mark {
                measure_start = measure_start.min(marked_stats.cycles_total);
                counts.merge(&ctx.counts().since(marked_counts));
                stats.merge(&ctx.stats.since(marked_stats));
            }
        }
        if let Some(ts) = series.as_mut() {
            // Settle snapshot at the makespan so the series always closes
            // with the final totals.
            self.rt.publish_epoch_gauges();
            ts.sample(makespan, self.rt.metrics());
        }
        let mut m = RunMetrics::from_virtual(
            stats,
            self.threads.len(),
            counts,
            measure_start..makespan,
            &self.rt.cost,
            latency,
        );
        m.timeseries = series;
        m.flips = self.rt.metrics().flips().events();
        if self.trace_capacity.is_some() {
            m.trace = Some(traces);
        }
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use euno_htm::{RetryPolicy, TxCell};

    /// One counter per cache line, so "cold" access patterns really are
    /// conflict-free.
    #[repr(align(64))]
    struct PaddedCell(TxCell);

    /// Toy shared structure: an HTM-protected counter array.
    struct Counters {
        fb: TxCell,
        cells: Vec<PaddedCell>,
    }

    impl Counters {
        fn new(n: usize) -> Self {
            Counters {
                fb: TxCell::new(0),
                cells: (0..n).map(|_| PaddedCell(TxCell::new(0))).collect(),
            }
        }

        fn bump(&self, ctx: &mut ThreadCtx, i: usize) {
            ctx.htm_execute(&self.fb, &RetryPolicy::default(), |tx| {
                let v = tx.read(&self.cells[i].0)?;
                tx.write(&self.cells[i].0, v + 1)
            });
            ctx.metric_add(Counter::Ops, 1);
        }
    }

    fn run_once(threads: usize, ops: usize, hot: bool, seed: u64) -> (RunMetrics, Vec<u64>) {
        let rt = Runtime::new_virtual();
        let counters = Arc::new(Counters::new(64));
        let mut sched = VirtualScheduler::new(Arc::clone(&rt));
        for t in 0..threads {
            let c = Arc::clone(&counters);
            let mut left = ops;
            let mut k = t;
            sched.add_thread(
                seed + t as u64,
                Box::new(move |ctx| {
                    if left == 0 {
                        return false;
                    }
                    left -= 1;
                    // hot: everyone hammers cell 0; cold: per-thread private cell
                    let i = if hot { 0 } else { t };
                    let _ = k;
                    k += 1;
                    c.bump(ctx, i);
                    true
                }),
            );
        }
        let m = sched.run();
        let values = counters.cells.iter().map(|c| c.0.load_plain()).collect();
        (m, values)
    }

    #[test]
    fn all_ops_complete_and_counts_add_up() {
        let (m, values) = run_once(4, 100, true, 1);
        assert_eq!(m.total_ops, 400);
        assert_eq!(values[0], 400, "no lost updates despite aborts");
        assert!(m.throughput > 0.0);
    }

    #[test]
    fn an_op_counted_on_the_shard_alone_is_measured() {
        // The scheduler sees an op end through `Counter::Ops` and nothing
        // else: a driver that only charges cycles and bumps that counter
        // gets every op counted, in the report and the registry, with one
        // latency each.
        let rt = Runtime::new_virtual();
        let mut sched = VirtualScheduler::new(Arc::clone(&rt));
        for t in 0..3u64 {
            let mut left = 40 + t;
            sched.add_thread(
                t,
                Box::new(move |ctx| {
                    ctx.charge(100 + t);
                    ctx.metric_add(Counter::Ops, 1);
                    left -= 1;
                    left > 0
                }),
            );
        }
        let m = sched.run();
        let ops = 40 + 41 + 42;
        assert_eq!(m.total_ops, ops);
        assert_eq!(m.counts[Counter::Ops], ops);
        assert_eq!(rt.metrics().total(Counter::Ops), ops);
        assert_eq!(m.latency.count(), ops);
        assert_eq!(m.latency.max(), 102);
    }

    #[test]
    fn the_measured_span_opens_at_the_earliest_mark() {
        // Two threads of two warm-up ops and three measured ones, at 100
        // and 300 cycles an op: marks at cycles 200 and 600. Each thread
        // keeps its warm-up on its shard; the run reports what followed
        // its own mark, and its span opens at the earlier one.
        let rt = Runtime::new_virtual();
        let mut sched = VirtualScheduler::new(Arc::clone(&rt));
        sched.set_warmup(2);
        for cost in [100, 300] {
            let mut left = 5;
            sched.add_thread(
                cost,
                Box::new(move |ctx| {
                    ctx.charge(cost);
                    ctx.metric_add(Counter::Ops, 1);
                    left -= 1;
                    left > 0
                }),
            );
        }
        let m = sched.run();
        assert_eq!(m.window, 200..1_500);
        assert_eq!(m.total_ops, 6);
        assert_eq!(rt.metrics().total(Counter::Ops), 10);
        assert_eq!(m.stats.cycles_total, 300 + 900);
        assert_eq!((m.latency.count(), m.latency.max()), (6, 300));
    }

    #[test]
    fn hot_cell_causes_aborts_cold_cells_do_not() {
        let (hot, _) = run_once(8, 200, true, 2);
        let (cold, _) = run_once(8, 200, false, 2);
        assert!(
            hot.aborts_per_op > cold.aborts_per_op * 3.0,
            "hot {} vs cold {}",
            hot.aborts_per_op,
            cold.aborts_per_op
        );
        assert!(hot.throughput < cold.throughput);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let (a, va) = run_once(6, 150, true, 7);
        let (b, vb) = run_once(6, 150, true, 7);
        assert_eq!(va, vb);
        assert_eq!(a.total_ops, b.total_ops);
        assert_eq!(a.stats.cycles_total, b.stats.cycles_total);
        assert_eq!(a.counts, b.counts);
        assert_eq!(a.elapsed_secs, b.elapsed_secs);
    }

    #[test]
    fn different_seed_different_schedule() {
        // A driver that picks its target cell from the thread RNG: seeds
        // must change the schedule and therefore the conflict pattern.
        fn run_rng(seed: u64) -> u64 {
            let rt = Runtime::new_virtual();
            let counters = Arc::new(Counters::new(8));
            let mut sched = VirtualScheduler::new(Arc::clone(&rt));
            for t in 0..6 {
                let c = Arc::clone(&counters);
                let mut left = 200;
                sched.add_thread(
                    seed + t,
                    Box::new(move |ctx| {
                        if left == 0 {
                            return false;
                        }
                        left -= 1;
                        let i = (ctx.rng().gen_range(0..8usize)) % 8;
                        c.bump(ctx, i);
                        true
                    }),
                );
            }
            let m = sched.run();
            m.stats.cycles_total ^ m.counts.aborts()
        }
        assert_ne!(run_rng(7), run_rng(8));
    }

    #[test]
    fn contended_throughput_does_not_scale_linearly() {
        let (one, _) = run_once(1, 400, true, 3);
        let (sixteen, _) = run_once(16, 400, true, 3);
        // 16 threads on one hot cell must deliver far less than 16×.
        assert!(
            sixteen.throughput < one.throughput * 8.0,
            "1thr {} vs 16thr {}",
            one.throughput,
            sixteen.throughput
        );
    }

    #[test]
    fn uncontended_throughput_scales() {
        let (one, _) = run_once(1, 400, false, 4);
        let (eight, _) = run_once(8, 400, false, 4);
        assert!(
            eight.throughput > one.throughput * 4.0,
            "1thr {} vs 8thr {}",
            one.throughput,
            eight.throughput
        );
    }

    #[test]
    #[should_panic(expected = "virtual-mode runtime")]
    fn rejects_concurrent_runtime() {
        let rt = Runtime::new_concurrent();
        let _ = VirtualScheduler::new(rt);
    }
}
