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
use euno_metrics::{sample_due, Counter, ExecStages, LogHistogram, TimeSeries};
use euno_trace::{EventKind, ThreadTrace, TraceBuf};

use crate::metrics::RunMetrics;

/// A per-thread operation driver: run ONE operation; return `false` when
/// the thread has no more work.
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

        let mut events: u64 = 0;
        let mut makespan: u64 = 0;
        let mut latency = LogHistogram::new();
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
            ctx.trace(EventKind::SchedStep { clock: start });
            let ops_before = ctx.stats.ops;
            let more = driver(ctx);
            if ctx.stats.ops > ops_before {
                // One event = one operation: its latency is the clock span
                // (includes retries, lock waits, fallback serialization).
                latency.record(ctx.clock - start);
                ctx.metric_add(Counter::Ops, ctx.stats.ops - ops_before);
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
        // Stage counts come from the scheduler's own thread shards (never
        // registry totals, which could include contexts other callers
        // registered on the same runtime).
        let mut stages = ExecStages::default();
        let mut stats = ThreadStats::default();
        for (ctx, _) in &mut self.threads {
            ctx.finish();
            if let Some(buf) = ctx.take_tracer() {
                traces.push(buf.into_thread_trace());
            }
            stages.merge(&ctx.exec_stages());
            stats.merge(&ctx.stats);
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
            stages,
            makespan,
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
    struct PaddedCell(TxCell<u64>);

    /// Toy shared structure: an HTM-protected counter array.
    struct Counters {
        fb: TxCell<u64>,
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
            ctx.stats.ops += 1;
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
        assert_eq!(a.stats.aborts.total(), b.stats.aborts.total());
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
                        let i = (euno_rng::Rng::gen_range(ctx.rng(), 0..8usize)) % 8;
                        c.bump(ctx, i);
                        true
                    }),
                );
            }
            let m = sched.run();
            m.stats.cycles_total ^ m.stats.aborts.total()
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
