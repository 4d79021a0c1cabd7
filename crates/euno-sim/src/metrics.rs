//! Run-level metrics: what each paper figure plots.

use euno_htm::{CostModel, ThreadStats};
use euno_metrics::{ExecStages, FlipEvent, LogHistogram, TimeSeries};
use euno_trace::{LeafProfile, ThreadTrace};

/// Aggregated result of one experiment run (one point of one figure).
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// Number of logical threads.
    pub threads: usize,
    /// Completed operations across all threads.
    pub total_ops: u64,
    /// Makespan: virtual seconds from the first measured op to the last.
    pub elapsed_secs: f64,
    /// `total_ops / elapsed_secs` — the y-axis of Figures 1, 8, 10-12.
    pub throughput: f64,
    /// `stats.aborts.total() / total_ops`; `stats.aborts` breaks it down
    /// by cause — Figures 2 and 9.
    pub aborts_per_op: f64,
    /// Fraction of cycles burnt in aborted attempts (§2.3).
    pub wasted_cycle_fraction: f64,
    /// Mean instrumented memory accesses per op (instruction proxy, §5.2).
    pub accesses_per_op: f64,
    /// Fallback-path executions per op.
    pub fallbacks_per_op: f64,
    /// The run's threads' raw counters, merged.
    pub stats: ThreadStats,
    /// Executor stage counts (attempts/commits/fallbacks/...),
    /// aggregated from the run's `euno-metrics` thread shards.
    pub stages: ExecStages,
    /// Registry snapshots sampled every Δ virtual cycles, when the run
    /// asked for them ([`crate::harness::RunConfig::sample_every`]).
    pub timeseries: Option<TimeSeries>,
    /// CCM bypass flips and programmed shift marks recorded during the
    /// run, decoded from the registry's flip log.
    pub flips: Vec<FlipEvent>,
    /// Per-operation virtual-cycle latency distribution (merged).
    pub latency: LogHistogram,
    /// Collected per-thread event traces, when the run had tracing on
    /// ([`crate::harness::RunConfig::trace_capacity`]).
    pub trace: Option<Vec<ThreadTrace>>,
    /// The hot-leaf contention profile, when the run asked for one
    /// ([`crate::harness::RunConfig::profile`]).
    pub profile: Option<LeafProfile>,
}

impl RunMetrics {
    /// Build from a run's merged stats, its thread count and its makespan
    /// in cycles (virtual mode). The measured span is the makespan minus
    /// the earliest warm-up mark (cycle 0 when no thread warmed up), so
    /// warm-up cycles never dilute throughput.
    pub fn from_virtual(
        stats: ThreadStats,
        threads: usize,
        stages: ExecStages,
        makespan_cycles: u64,
        cost: &CostModel,
        latency: LogHistogram,
    ) -> Self {
        let measure_start = stats.measure_start_cycles.unwrap_or(0);
        let span = makespan_cycles.saturating_sub(measure_start).max(1);
        let elapsed_secs = cost.cycles_to_secs(span);
        let ops = stats.ops.max(1);
        RunMetrics {
            threads,
            total_ops: stats.ops,
            elapsed_secs,
            throughput: stats.ops as f64 / elapsed_secs,
            aborts_per_op: stats.aborts_per_op(),
            wasted_cycle_fraction: stats.wasted_cycle_fraction(),
            accesses_per_op: stats.mem_accesses as f64 / ops as f64,
            fallbacks_per_op: stages.fallbacks as f64 / ops as f64,
            stats,
            stages,
            latency,
            timeseries: None,
            flips: Vec::new(),
            trace: None,
            profile: None,
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
    use euno_htm::AbortClass;

    fn merged(threads: &[ThreadStats]) -> ThreadStats {
        let mut stats = ThreadStats::default();
        for s in threads {
            stats.merge(s);
        }
        stats
    }

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
        b.aborts[AbortClass::Capacity] = 10;
        let cost = CostModel::default();
        let m = RunMetrics::from_virtual(
            merged(&[a, b]),
            2,
            ExecStages::default(),
            2_300_000,
            &cost,
            LogHistogram::new(),
        );
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
        let m = RunMetrics::from_virtual(
            ThreadStats::default(),
            1,
            ExecStages::default(),
            0,
            &CostModel::default(),
            LogHistogram::new(),
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
        // One virtual second: as many cycles as the clock ticks in one.
        let cost = CostModel::default();
        let second = cost.freq_hz as u64;
        let m = RunMetrics::from_virtual(
            a,
            1,
            ExecStages::default(),
            second,
            &cost,
            LogHistogram::new(),
        );
        assert!((m.mops() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn from_virtual_carries_latency_histogram() {
        let mut h = LogHistogram::new();
        for v in [100u64, 200, 400, 100_000] {
            h.record(v);
        }
        let a = ThreadStats {
            ops: 4,
            ..Default::default()
        };
        let cost = CostModel::default();
        let m = RunMetrics::from_virtual(a, 1, ExecStages::default(), 1_150_000_000, &cost, h);
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
        let run = |threads: &[ThreadStats]| {
            RunMetrics::from_virtual(
                merged(threads),
                threads.len(),
                ExecStages::default(),
                2_300_000,
                &cost,
                LogHistogram::new(),
            )
        };
        let warmed = run(&[mk(400_000), mk(500_000)]);
        let unwarmed = ThreadStats {
            ops: 1_000,
            ..Default::default()
        };
        let naive = run(&[unwarmed.clone(), unwarmed]);
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
