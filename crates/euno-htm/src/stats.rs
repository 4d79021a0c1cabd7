//! Per-thread and aggregated execution statistics.
//!
//! The paper's analysis figures (2 and 9) plot *aborts per operation broken
//! down by cause*, and §2.3 quotes the fraction of CPU cycles wasted in
//! aborted attempts (">94 % of total CPU cycles when θ = 0.9"). Each
//! [`ThreadStats`](ThreadStats) tracks exactly those quantities; the
//! simulator merges them into one per run.

use std::ops::{Index, IndexMut};

use euno_metrics::AbortClass;

use crate::abort::AbortCause;

/// Counters kept by one (virtual or OS) thread. Plain integers — each
/// thread owns its counters; aggregation happens after the run.
///
/// Stage **counts** (attempts, commits, fallbacks, backoffs, CCM
/// flips) live in the thread's `euno-metrics` shard, not here — read them
/// via [`ThreadCtx::exec_stages`](crate::ThreadCtx::exec_stages). This
/// struct keeps what the shard does not: cycle accounting, the abort-cause
/// taxonomy, and memory/CAS instruction proxies.
#[derive(Clone, Debug, Default)]
pub struct ThreadStats {
    /// Completed top-level operations (get/put/delete/scan).
    pub ops: u64,
    /// Aborts by cause.
    pub aborts: AbortCounts,
    /// Optimistic-episode retries (Masstree-style version-validation
    /// failures; not HTM aborts).
    pub optimistic_retries: u64,
    /// Total virtual cycles consumed by this thread.
    pub cycles_total: u64,
    /// Thread clock at the moment measurement began (after warmup); the
    /// harness subtracts it from the makespan so warmup cycles don't
    /// dilute throughput. `None` until the thread finishes warmup — the
    /// merge below must not treat "never warmed up" as "warmed up at
    /// cycle 0", or merging into a default accumulator silently disables
    /// the warmup subtraction.
    pub measure_start_cycles: Option<u64>,
    /// Virtual cycles consumed inside attempts that later aborted, plus
    /// rollback penalties and backoff — the "wasted work" of §2.3.
    pub cycles_wasted: u64,
    /// Virtual cycles spent waiting for advisory locks and the fallback lock.
    pub cycles_lock_wait: u64,
    /// Virtual cycles spent in retry backoff (also counted in
    /// `cycles_wasted`).
    pub cycles_backoff: u64,
    /// Virtual cycles spent waiting to acquire (or waiting out) the
    /// fallback lock specifically (also counted in `cycles_lock_wait`).
    pub cycles_fallback_wait: u64,
    /// Instrumented memory accesses (instruction-count proxy; used for the
    /// "Masstree executes ~2.1× the instructions" comparison in §5.2).
    pub mem_accesses: u64,
    /// Atomic CAS operations issued.
    pub cas_ops: u64,
    /// Fresh `EpisodeState` heap allocations (scratch-pool misses). The
    /// pool recycles one episode box per thread, so in steady state this
    /// stays at 1 — the zero-alloc test asserts exactly that.
    pub episode_pool_allocs: u64,
}

/// Abort tallies following the paper's taxonomy, one per [`AbortClass`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AbortCounts([u64; AbortClass::COUNT]);

impl AbortCounts {
    pub fn record(&mut self, cause: AbortCause) {
        self[cause.class()] += 1;
    }

    /// All conflict-caused aborts (the taxonomy of Figure 2).
    pub fn conflicts(&self) -> u64 {
        AbortClass::ALL
            .iter()
            .filter(|c| c.is_conflict())
            .map(|&c| self[c])
            .sum()
    }

    /// Conflicts attributable to the leaf level (record + metadata), as in
    /// the ">90 % of conflicts occur in the leaf level" measurement.
    pub fn leaf_level_conflicts(&self) -> u64 {
        self.conflicts() - self[AbortClass::FalseStructure]
    }

    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    pub fn merge(&mut self, other: &AbortCounts) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
}

impl Index<AbortClass> for AbortCounts {
    type Output = u64;
    fn index(&self, class: AbortClass) -> &u64 {
        &self.0[class.index()]
    }
}

impl IndexMut<AbortClass> for AbortCounts {
    fn index_mut(&mut self, class: AbortClass) -> &mut u64 {
        &mut self.0[class.index()]
    }
}

impl ThreadStats {
    pub fn merge(&mut self, other: &ThreadStats) {
        self.ops += other.ops;
        self.aborts.merge(&other.aborts);
        self.optimistic_retries += other.optimistic_retries;
        self.cycles_total += other.cycles_total;
        // Earliest measurement start among threads that *have* one. A bare
        // `min` over plain u64s would let a `Default` accumulator (0) win
        // and erase every real warmup mark.
        self.measure_start_cycles = match (self.measure_start_cycles, other.measure_start_cycles) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        self.cycles_wasted += other.cycles_wasted;
        self.cycles_lock_wait += other.cycles_lock_wait;
        self.cycles_backoff += other.cycles_backoff;
        self.cycles_fallback_wait += other.cycles_fallback_wait;
        self.mem_accesses += other.mem_accesses;
        self.cas_ops += other.cas_ops;
        self.episode_pool_allocs += other.episode_pool_allocs;
    }

    /// HTM aborts per completed operation (Figures 2 and 9 y-axis).
    pub fn aborts_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.aborts.total() as f64 / self.ops as f64
        }
    }

    /// Fraction of cycles burnt in aborted attempts (§2.3: >94 % at θ=0.9).
    pub fn wasted_cycle_fraction(&self) -> f64 {
        if self.cycles_total == 0 {
            0.0
        } else {
            self.cycles_wasted as f64 / self.cycles_total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abort::ConflictInfo;
    use crate::line::LineId;

    fn conflict(kind: AbortClass) -> AbortCause {
        AbortCause::Conflict(ConflictInfo {
            line: LineId(1),
            kind,
            other_thread: None,
        })
    }

    #[test]
    fn record_routes_to_buckets() {
        let mut a = AbortCounts::default();
        a.record(conflict(AbortClass::TrueSameRecord));
        a.record(conflict(AbortClass::FalseDifferentRecord));
        a.record(conflict(AbortClass::FalseDifferentRecord));
        a.record(conflict(AbortClass::FalseMetadata));
        a.record(conflict(AbortClass::FalseStructure));
        a.record(AbortCause::Capacity);
        a.record(AbortCause::Explicit(3));
        a.record(AbortCause::Spurious);
        a.record(AbortCause::FallbackLocked);
        assert_eq!(a[AbortClass::TrueSameRecord], 1);
        assert_eq!(a[AbortClass::FalseDifferentRecord], 2);
        assert_eq!(a.conflicts(), 5);
        assert_eq!(a.leaf_level_conflicts(), 4);
        assert_eq!(a.total(), 9);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = ThreadStats {
            ops: 10,
            cycles_total: 1000,
            cycles_wasted: 400,
            ..Default::default()
        };
        let mut b = ThreadStats {
            ops: 5,
            cycles_total: 500,
            ..Default::default()
        };
        b.aborts.record(AbortCause::Capacity);
        a.merge(&b);
        assert_eq!(a.ops, 15);
        assert_eq!(a.cycles_total, 1500);
        assert_eq!(a.aborts[AbortClass::Capacity], 1);
    }

    #[test]
    fn merge_into_default_keeps_measure_start() {
        // Regression: `min(0, t)` used to pin the merged measure start to
        // the Default accumulator's 0, disabling warmup subtraction.
        let warmed = ThreadStats {
            measure_start_cycles: Some(12_345),
            ..Default::default()
        };
        let mut acc = ThreadStats::default();
        acc.merge(&warmed);
        assert_eq!(acc.measure_start_cycles, Some(12_345));

        // Two warmed threads: earliest start wins.
        let earlier = ThreadStats {
            measure_start_cycles: Some(7_000),
            ..Default::default()
        };
        acc.merge(&earlier);
        assert_eq!(acc.measure_start_cycles, Some(7_000));

        // Merging an un-warmed thread must not erase the mark.
        acc.merge(&ThreadStats::default());
        assert_eq!(acc.measure_start_cycles, Some(7_000));
    }

    #[test]
    fn merge_adds_stage_cycle_counters() {
        let mut a = ThreadStats::default();
        let b = ThreadStats {
            cycles_backoff: 120,
            cycles_fallback_wait: 55,
            ..Default::default()
        };
        a.merge(&b);
        a.merge(&b);
        assert_eq!(a.cycles_backoff, 240);
        assert_eq!(a.cycles_fallback_wait, 110);
    }

    #[test]
    fn derived_ratios() {
        let mut s = ThreadStats::default();
        assert_eq!(s.aborts_per_op(), 0.0);
        assert_eq!(s.wasted_cycle_fraction(), 0.0);
        s.ops = 4;
        s.aborts.record(AbortCause::Spurious);
        s.aborts.record(AbortCause::Spurious);
        s.cycles_total = 100;
        s.cycles_wasted = 94;
        assert!((s.aborts_per_op() - 0.5).abs() < 1e-12);
        assert!((s.wasted_cycle_fraction() - 0.94).abs() < 1e-12);
    }
}
