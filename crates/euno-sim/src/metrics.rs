//! Run-level metrics: what each paper figure plots.

use euno_htm::{AbortCounts, CostModel, ThreadStats};
use euno_metrics::{ExecStages, FlipEvent, TimeSeries};
use euno_trace::{LeafProfile, ThreadTrace};

use crate::hist::LatencyHistogram;

/// Service-layer telemetry for runs driven through `euno-serve` (the
/// `serve_bench` harness): router/queue/batching counters that have no
/// analogue in the direct-call harnesses. Plain data — `euno-sim` does
/// not depend on `euno-serve`; the bench binary copies its
/// `ServeSnapshot` into this struct.
#[derive(Clone, Debug, Default)]
pub struct ServeInfo {
    /// Hash-partitioned shard count.
    pub shards: usize,
    /// Whether group-commit batching was enabled.
    pub batching: bool,
    /// Configured per-drain batch ceiling.
    pub batch_max: usize,
    /// Intended open-loop arrival rate (requests/sec); 0 for closed-loop.
    pub offered_rate: f64,
    pub enqueued: u64,
    pub completed: u64,
    /// Requests rejected at admission (queue or slot pool full).
    pub shed: u64,
    /// Multi-request drains executed through `apply_batch`.
    pub batches: u64,
    /// Requests executed inside those batches.
    pub batched_ops: u64,
    /// Requests executed as per-request episodes.
    pub single_ops: u64,
    /// Batch members that bailed to the serial singles path.
    pub batch_bails: u64,
    /// Adaptive-width halvings after conflict-heavy batches.
    pub batch_shrinks: u64,
    /// Distribution of drained batch sizes (log-bucketed).
    pub batch_hist: LatencyHistogram,
}

/// Aggregated result of one experiment run (one point of one figure).
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// Number of worker threads (virtual or OS).
    pub threads: usize,
    /// Completed operations across all threads.
    pub total_ops: u64,
    /// Makespan: virtual seconds (virtual mode) or wall seconds
    /// (concurrent mode) from first op to last.
    pub elapsed_secs: f64,
    /// `total_ops / elapsed_secs` — the y-axis of Figures 1, 8, 10-12.
    pub throughput: f64,
    /// Aborts per operation by cause — Figures 2 and 9.
    pub aborts: AbortCounts,
    pub aborts_per_op: f64,
    /// Fraction of cycles burnt in aborted attempts (§2.3).
    pub wasted_cycle_fraction: f64,
    /// Mean instrumented memory accesses per op (instruction proxy, §5.2).
    pub accesses_per_op: f64,
    /// Fallback-path executions per op.
    pub fallbacks_per_op: f64,
    /// Merged raw counters.
    pub stats: ThreadStats,
    /// Executor stage counts (attempts/commits/fallbacks/...),
    /// aggregated from the run's `euno-metrics` thread shards.
    pub stages: ExecStages,
    /// Registry snapshots sampled every Δ ticks, when the run asked for
    /// them ([`crate::harness::RunConfig::sample_every`]).
    pub timeseries: Option<TimeSeries>,
    /// Unit of [`Snapshot::tick`](euno_metrics::Snapshot) values in
    /// `timeseries` and `flips`: `"cycles"` (virtual) or `"us"` (wall).
    pub tick_unit: &'static str,
    /// CCM bypass flips and programmed shift marks recorded during the
    /// run, decoded from the registry's flip log.
    pub flips: Vec<FlipEvent>,
    /// Per-thread raw counters (scalability diagnostics).
    pub per_thread: Vec<ThreadStats>,
    /// Per-operation virtual-cycle latency distribution (merged).
    pub latency: LatencyHistogram,
    /// Collected per-thread event traces, when the run had tracing on
    /// ([`crate::harness::RunConfig::trace_capacity`]).
    pub trace: Option<Vec<ThreadTrace>>,
    /// The hot-leaf contention profile, when the run asked for one
    /// ([`crate::harness::RunConfig::profile`]).
    pub profile: Option<LeafProfile>,
    /// Service-layer counters, when the run went through `euno-serve`.
    pub serve: Option<ServeInfo>,
}

impl RunMetrics {
    /// Build from per-thread stats plus the makespan in cycles
    /// (virtual mode).
    pub fn from_virtual(
        per_thread: Vec<ThreadStats>,
        stages: ExecStages,
        makespan_cycles: u64,
        cost: &CostModel,
    ) -> Self {
        Self::from_virtual_with_latency(
            per_thread,
            stages,
            makespan_cycles,
            cost,
            LatencyHistogram::new(),
        )
    }

    /// As [`RunMetrics::from_virtual`], with a latency histogram. The
    /// measured span is the makespan minus the earliest post-warmup clock,
    /// so warmup cycles never dilute throughput.
    pub fn from_virtual_with_latency(
        per_thread: Vec<ThreadStats>,
        stages: ExecStages,
        makespan_cycles: u64,
        cost: &CostModel,
        latency: LatencyHistogram,
    ) -> Self {
        // Threads that never finished warmup (None) measured from cycle 0.
        let measure_start = per_thread
            .iter()
            .map(|s| s.measure_start_cycles.unwrap_or(0))
            .min()
            .unwrap_or(0);
        let span = makespan_cycles.saturating_sub(measure_start).max(1);
        let elapsed = cost.cycles_to_secs(span);
        Self::build(per_thread, stages, elapsed, latency)
    }

    /// Build from per-thread stats plus measured wall time and the merged
    /// per-operation latency histogram (concurrent mode). Pass
    /// `LatencyHistogram::new()` only when the harness genuinely recorded
    /// no latencies — reports distinguish "no samples" from "not wired".
    pub fn from_wall(
        per_thread: Vec<ThreadStats>,
        stages: ExecStages,
        elapsed_secs: f64,
        latency: LatencyHistogram,
    ) -> Self {
        let mut m = Self::build(per_thread, stages, elapsed_secs.max(1e-9), latency);
        m.tick_unit = "us";
        m
    }

    fn build(
        per_thread: Vec<ThreadStats>,
        stages: ExecStages,
        elapsed_secs: f64,
        latency: LatencyHistogram,
    ) -> Self {
        let mut merged = ThreadStats::default();
        for s in &per_thread {
            merged.merge(s);
        }
        let ops = merged.ops.max(1);
        RunMetrics {
            threads: per_thread.len(),
            total_ops: merged.ops,
            elapsed_secs,
            throughput: merged.ops as f64 / elapsed_secs,
            aborts: merged.aborts.clone(),
            aborts_per_op: merged.aborts.total() as f64 / ops as f64,
            wasted_cycle_fraction: merged.wasted_cycle_fraction(),
            accesses_per_op: merged.mem_accesses as f64 / ops as f64,
            fallbacks_per_op: stages.fallbacks as f64 / ops as f64,
            stats: merged,
            stages,
            per_thread,
            latency,
            timeseries: None,
            tick_unit: "cycles",
            flips: Vec::new(),
            trace: None,
            profile: None,
            serve: None,
        }
    }

    /// Throughput in millions of operations per second (the paper's unit).
    pub fn mops(&self) -> f64 {
        self.throughput / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_aggregate_two_threads() {
        let a = ThreadStats {
            ops: 100,
            cycles_total: 1000,
            cycles_wasted: 100,
            mem_accesses: 400,
            ..Default::default()
        };
        let mut b = ThreadStats {
            ops: 100,
            cycles_total: 1000,
            ..Default::default()
        };
        b.aborts.capacity = 10;
        let cost = CostModel::default();
        let m = RunMetrics::from_virtual(vec![a, b], ExecStages::default(), 2_300_000, &cost);
        assert_eq!(m.threads, 2);
        assert_eq!(m.total_ops, 200);
        // 2.3e6 cycles at 2.3 GHz = 1 ms → 200 ops / 1 ms = 200 kops/s.
        assert!((m.throughput - 200_000.0).abs() < 1.0);
        assert!((m.aborts_per_op - 0.05).abs() < 1e-12);
        assert!((m.wasted_cycle_fraction - 0.05).abs() < 1e-12);
        assert!((m.accesses_per_op - 2.0).abs() < 1e-12);
    }

    #[test]
    fn zero_ops_does_not_divide_by_zero() {
        let m = RunMetrics::from_wall(
            vec![ThreadStats::default()],
            ExecStages::default(),
            0.0,
            LatencyHistogram::new(),
        );
        assert_eq!(m.total_ops, 0);
        assert!(m.throughput.is_finite());
        assert_eq!(m.aborts_per_op, 0.0);
    }

    #[test]
    fn mops_unit() {
        let a = ThreadStats {
            ops: 5_000_000,
            ..Default::default()
        };
        let m = RunMetrics::from_wall(vec![a], ExecStages::default(), 1.0, LatencyHistogram::new());
        assert!((m.mops() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn from_wall_carries_latency_histogram() {
        let mut h = LatencyHistogram::new();
        for v in [100u64, 200, 400, 100_000] {
            h.record(v);
        }
        let a = ThreadStats {
            ops: 4,
            ..Default::default()
        };
        let m = RunMetrics::from_wall(vec![a], ExecStages::default(), 0.5, h);
        assert_eq!(m.latency.count(), 4);
        let (p50, p99, p999) = (
            m.latency.quantile(0.5),
            m.latency.quantile(0.99),
            m.latency.quantile(0.999),
        );
        assert!(p50 <= p99 && p99 <= p999);
        assert_eq!(m.latency.max(), 100_000);
    }

    #[test]
    fn warmup_subtraction_uses_earliest_real_mark() {
        // Two warmed threads plus the makespan: the measured span is
        // makespan − min(measure_start), so throughput must be strictly
        // higher than the naive makespan-only number.
        let cost = CostModel::default();
        let mk = |start: u64| ThreadStats {
            ops: 1_000,
            measure_start_cycles: Some(start),
            ..Default::default()
        };
        let warmed = RunMetrics::from_virtual(
            vec![mk(400_000), mk(500_000)],
            ExecStages::default(),
            2_300_000,
            &cost,
        );
        let naive = RunMetrics::from_virtual(
            vec![
                ThreadStats {
                    ops: 1_000,
                    ..Default::default()
                };
                2
            ],
            ExecStages::default(),
            2_300_000,
            &cost,
        );
        assert_eq!(
            warmed.stats.measure_start_cycles,
            Some(400_000),
            "merged stats must keep the warmup mark (regression: min-with-0 pinned it to 0)"
        );
        assert!(
            warmed.throughput > naive.throughput * 1.15,
            "warmup subtraction must change the throughput: {} vs {}",
            warmed.throughput,
            naive.throughput
        );
    }
}
