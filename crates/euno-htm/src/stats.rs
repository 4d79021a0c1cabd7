//! A thread's cycle books and access proxies.
//!
//! §2.3 quotes the fraction of CPU cycles wasted in aborted attempts
//! (">94 % of total CPU cycles when θ = 0.9"); §5.2 compares instruction
//! counts. [`ThreadStats`] keeps the cycles and accesses behind those
//! numbers. Every *count* a run reports — operations, attempts, commits,
//! fallbacks, backoffs, aborts by cause (Figures 2 and 9) — lives in the
//! thread's `euno-metrics` shard instead: read one with
//! [`ThreadCtx::metric`](crate::ThreadCtx::metric), all of them with
//! [`ThreadCtx::counts`](crate::ThreadCtx::counts).

use euno_metrics::AbortClass;

use crate::abort::AbortCause;

/// Cycle accounting and instruction proxies kept by one (virtual or OS)
/// thread. Plain integers — each thread owns its books; aggregation happens
/// after the run.
#[derive(Clone, Debug, Default)]
pub struct ThreadStats {
    /// Held for the frozen benchmark, which bumps it per op: nothing in
    /// the workspace reads it. Operations count in `Counter::Ops`.
    pub ops: u64,
    /// Held for the frozen benchmark, which reads its total: aborts count
    /// by class on the shard (`ABORTS_HTM`), which is what every report
    /// reads.
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

/// Abort tallies by [`AbortClass`], held beside the shard's for the
/// frozen benchmark (see [`ThreadStats::aborts`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AbortCounts([u64; AbortClass::COUNT]);

impl AbortCounts {
    pub fn record(&mut self, cause: AbortCause) {
        self.0[cause.class().index()] += 1;
    }

    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

impl ThreadStats {
    /// Add `other`'s books to these (the two held counts are not merged).
    pub fn merge(&mut self, other: &ThreadStats) {
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
        a.record(AbortCause::Capacity);
        a.record(AbortCause::Explicit(3));
        a.record(AbortCause::FallbackLocked);
        let bucket = |c: AbortClass| a.0[c.index()];
        assert_eq!(bucket(AbortClass::FalseDifferentRecord), 2);
        assert_eq!(bucket(AbortClass::Explicit), 1);
        assert_eq!(a.total(), 6);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = ThreadStats {
            cycles_total: 1000,
            cycles_wasted: 400,
            ..Default::default()
        };
        let b = ThreadStats {
            cycles_total: 500,
            mem_accesses: 7,
            ..Default::default()
        };
        a.merge(&b);
        assert_eq!(a.cycles_total, 1500);
        assert_eq!(a.cycles_wasted, 400);
        assert_eq!(a.mem_accesses, 7);
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
        assert_eq!(s.wasted_cycle_fraction(), 0.0);
        s.cycles_total = 100;
        s.cycles_wasted = 94;
        assert!((s.wasted_cycle_fraction() - 0.94).abs() < 1e-12);
    }
}
