//! Run-level metrics: what each paper figure plots.

use std::ops::Range;

use euno_htm::{CostModel, ThreadStats};
use euno_metrics::{Counter, Counts, FlipEvent, LogHistogram, TimeSeries};
use euno_trace::{LeafProfile, ThreadTrace};

/// Aggregated result of one experiment run (one point of one figure).
#[derive(Clone, Debug)]
pub struct RunMetrics {
    /// Number of logical threads.
    pub threads: usize,
    /// Completed operations across all threads.
    pub total_ops: u64,
    /// The measured span in virtual cycles: from the earliest thread's
    /// warm-up mark (0 when no thread warms up) to the makespan, when the
    /// last op ends.
    pub window: Range<u64>,
    /// `window`'s length in virtual seconds.
    pub elapsed_secs: f64,
    /// `total_ops / elapsed_secs` — the y-axis of Figures 1, 8, 10-12.
    pub throughput: f64,
    /// `counts.aborts() / total_ops`; `counts[AbortClass]` breaks it down
    /// by cause — Figures 2 and 9.
    pub aborts_per_op: f64,
    /// Fraction of the measured cycles burnt in aborted attempts (§2.3):
    /// `stats.cycles_wasted / stats.cycles_total`.
    pub wasted_cycle_fraction: f64,
    /// Mean instrumented memory accesses per op (instruction proxy, §5.2).
    pub accesses_per_op: f64,
    /// Fallback-path executions per op.
    pub fallbacks_per_op: f64,
    /// The run's threads' cycle books and access proxies since their
    /// warm-up marks, merged: `cycles_total` is the measured clock, summed
    /// over the threads.
    pub stats: ThreadStats,
    /// Every count of the run — ops, stage counts, aborts by class —
    /// merged from the run's own `euno-metrics` thread shards.
    pub counts: Counts,
    /// Registry snapshots sampled every Δ virtual cycles, when the run
    /// asked for them ([`crate::harness::RunConfig::sample_every`]).
    pub timeseries: Option<TimeSeries>,
    /// CCM bypass flips and programmed shift marks recorded during the
    /// run, decoded from the registry's flip log.
    pub flips: Vec<FlipEvent>,
    /// Per-operation virtual-cycle latency distribution: the run's shard
    /// histograms, merged.
    pub latency: LogHistogram,
    /// Collected per-thread event traces, when the run had tracing on
    /// ([`crate::harness::RunConfig::trace_capacity`]).
    pub trace: Option<Vec<ThreadTrace>>,
    /// The hot-leaf contention profile, when the run asked for one
    /// ([`crate::harness::RunConfig::profile`]).
    pub profile: Option<LeafProfile>,
}

impl RunMetrics {
    /// Build from a run's measured stats and counts, its thread count and
    /// its measured span in cycles (virtual mode), so warm-up cycles
    /// never dilute throughput.
    pub fn from_virtual(
        stats: ThreadStats,
        threads: usize,
        counts: Counts,
        window: Range<u64>,
        cost: &CostModel,
        latency: LogHistogram,
    ) -> Self {
        let elapsed_secs = cost.cycles_to_secs((window.end - window.start).max(1));
        let total_ops = counts[Counter::Ops];
        let ops = total_ops.max(1) as f64;
        RunMetrics {
            threads,
            total_ops,
            window,
            elapsed_secs,
            throughput: total_ops as f64 / elapsed_secs,
            aborts_per_op: counts.aborts() as f64 / ops,
            wasted_cycle_fraction: stats.wasted_cycle_fraction(),
            accesses_per_op: stats.mem_accesses as f64 / ops,
            fallbacks_per_op: counts[Counter::Fallbacks] as f64 / ops,
            stats,
            counts,
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

    fn merged(threads: &[ThreadStats]) -> ThreadStats {
        let mut stats = ThreadStats::default();
        for s in threads {
            stats.merge(s);
        }
        stats
    }

    fn ops(n: u64) -> Counts {
        let mut c = Counts::default();
        c[Counter::Ops] = n;
        c
    }

    #[test]
    fn metrics_aggregate_two_threads() {
        let a = ThreadStats {
            cycles_total: 1000,
            cycles_wasted: 100,
            mem_accesses: 400,
            ..Default::default()
        };
        let b = ThreadStats {
            cycles_total: 1000,
            ..Default::default()
        };
        let mut counts = ops(200);
        counts[Counter::AbortsHtmCapacity] = 10;
        let cost = CostModel::default();
        let m = RunMetrics::from_virtual(
            merged(&[a, b]),
            2,
            counts,
            0..2_300_000,
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
            Counts::default(),
            0..0,
            &CostModel::default(),
            LogHistogram::new(),
        );
        assert_eq!(m.total_ops, 0);
        assert!(m.throughput.is_finite());
        assert_eq!(m.aborts_per_op, 0.0);
    }

    #[test]
    fn mops_unit() {
        // One virtual second: as many cycles as the clock ticks in one.
        let cost = CostModel::default();
        let second = cost.freq_hz as u64;
        let m = RunMetrics::from_virtual(
            ThreadStats::default(),
            1,
            ops(5_000_000),
            0..second,
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
        let cost = CostModel::default();
        let m = RunMetrics::from_virtual(
            ThreadStats::default(),
            1,
            ops(4),
            0..1_150_000_000,
            &cost,
            h,
        );
        assert_eq!(m.latency.count(), 4);
        let (p50, p99, p999) = (
            m.latency.quantile(0.5),
            m.latency.quantile(0.99),
            m.latency.quantile(0.999),
        );
        assert!(p50 <= p99 && p99 <= p999);
        assert_eq!(m.latency.max(), 100_000);
    }
}
