//! The metric registry: per-thread counter shards, global gauges and the
//! flip log, owned one-per-`Runtime`.
//!
//! **Sharding & the single-writer discipline.** Each thread gets its own
//! cache-line-aligned [`ThreadShard`] at registration. Only the owning
//! thread writes its shard, so increments are a relaxed load + store (no
//! `lock`-prefixed RMW on the hot path); the sampler and end-of-run
//! aggregation read the same atomics concurrently and — because every
//! slot is written by exactly one thread and only ever grows — observe a
//! monotone, never-torn value per counter. Cross-counter consistency is
//! *not* promised within a snapshot (a sampler may see a commit before
//! its attempt); windows are therefore reported per-counter.
//!
//! **Rollback.** The warmup harness discards warmup operations by marking
//! the thread's counters before each op and restoring them after it:
//! [`ThreadShard::mark`] / [`ThreadShard::restore`] — a fixed-size copy,
//! no allocation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::counters::{Counter, Counts, Gauge};
use crate::flip::{FlipKind, FlipLog};
use crate::hist::LogHistogram;

/// One thread's private slice of the registry. All slots are atomics so
/// the sampler can read live, but the owner updates them single-writer
/// (relaxed load+store) — see the module docs.
#[repr(align(128))]
pub struct ThreadShard {
    counters: [AtomicU64; Counter::COUNT],
    hist_buckets: [AtomicU64; LogHistogram::BUCKETS],
    hist_count: AtomicU64,
    hist_sum: AtomicU64,
    hist_max: AtomicU64,
}

/// Saved shard state for warmup rollback (counters only: the harness
/// never records latency for warmup operations, so the histogram needs no
/// mark).
#[derive(Clone)]
pub struct ShardMark {
    counters: [u64; Counter::COUNT],
}

impl ThreadShard {
    fn new() -> Self {
        ThreadShard {
            counters: std::array::from_fn(|_| AtomicU64::new(0)),
            hist_buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            hist_count: AtomicU64::new(0),
            hist_sum: AtomicU64::new(0),
            hist_max: AtomicU64::new(0),
        }
    }

    /// Owner-thread increment: relaxed load + store, no RMW.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        let cell = &self.counters[c.index()];
        cell.store(
            cell.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }

    /// Increment for counters bumped by threads that do not own the
    /// shard (several writers may race, e.g. the clients of one serve
    /// shard): one atomic RMW, so no update is lost. A counter must be
    /// written through one of `add` / `add_shared` only, never both.
    #[inline]
    pub fn add_shared(&self, c: Counter, n: u64) {
        self.counters[c.index()].fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self, c: Counter) -> u64 {
        self.counters[c.index()].load(Ordering::Relaxed)
    }

    /// Owner-thread latency record into the shard histogram.
    #[inline]
    pub fn record_latency(&self, value: u64) {
        let b = &self.hist_buckets[LogHistogram::index(value)];
        b.store(b.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
        self.hist_count.store(
            self.hist_count.load(Ordering::Relaxed) + 1,
            Ordering::Relaxed,
        );
        self.hist_sum.store(
            self.hist_sum.load(Ordering::Relaxed).saturating_add(value),
            Ordering::Relaxed,
        );
        if value > self.hist_max.load(Ordering::Relaxed) {
            self.hist_max.store(value, Ordering::Relaxed);
        }
    }

    /// Dense copy of all counters (sampler / aggregation read path).
    fn counter_values(&self) -> [u64; Counter::COUNT] {
        std::array::from_fn(|i| self.counters[i].load(Ordering::Relaxed))
    }

    /// Every counter of this shard.
    pub fn counts(&self) -> Counts {
        Counts(self.counter_values())
    }

    /// This shard's latency histogram, with its exactly tracked sum and
    /// max (bucket counts alone only approximate them).
    pub fn histogram(&self) -> LogHistogram {
        let buckets = std::array::from_fn(|i| self.hist_buckets[i].load(Ordering::Relaxed));
        let mut h = LogHistogram::from_bucket_counts(&buckets);
        h.set_exact(
            self.hist_sum.load(Ordering::Relaxed),
            self.hist_max.load(Ordering::Relaxed),
        );
        h
    }

    /// Save counter state before a warmup op (fixed-size copy, no alloc).
    pub fn mark(&self) -> ShardMark {
        ShardMark {
            counters: self.counter_values(),
        }
    }

    /// Roll counters back to a [`mark`](ThreadShard::mark).
    pub fn restore(&self, mark: &ShardMark) {
        for (cell, &v) in self.counters.iter().zip(mark.counters.iter()) {
            cell.store(v, Ordering::Relaxed);
        }
    }

    fn reset(&self) {
        for c in &self.counters {
            c.store(0, Ordering::Relaxed);
        }
        for b in &self.hist_buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.hist_count.store(0, Ordering::Relaxed);
        self.hist_sum.store(0, Ordering::Relaxed);
        self.hist_max.store(0, Ordering::Relaxed);
    }
}

/// The per-runtime metric registry.
pub struct Registry {
    shards: Mutex<Vec<Arc<ThreadShard>>>,
    gauges: [AtomicU64; Gauge::COUNT],
    flips: FlipLog,
}

impl Registry {
    pub fn new() -> Self {
        Registry {
            shards: Mutex::new(Vec::new()),
            gauges: std::array::from_fn(|_| AtomicU64::new(0)),
            flips: FlipLog::default(),
        }
    }

    /// Register a new thread. Allocates (thread creation time — never on
    /// the op hot path).
    pub fn register_shard(&self) -> Arc<ThreadShard> {
        let shard = Arc::new(ThreadShard::new());
        self.shards.lock().unwrap().push(shard.clone());
        shard
    }

    /// Zero every shard, gauge and the flip log. Called by
    /// `reset_dynamics` so preload traffic never leaks into measured
    /// totals; registered threads keep their shard handles.
    pub fn reset(&self) {
        for s in self.shards.lock().unwrap().iter() {
            s.reset();
        }
        for g in &self.gauges {
            g.store(0, Ordering::Relaxed);
        }
        self.flips.reset();
    }

    /// Sum one counter over all shards.
    pub fn total(&self, c: Counter) -> u64 {
        self.shards.lock().unwrap().iter().map(|s| s.get(c)).sum()
    }

    /// Dense totals over all shards.
    pub fn totals(&self) -> [u64; Counter::COUNT] {
        let mut out = Counts::default();
        for s in self.shards.lock().unwrap().iter() {
            out.merge(&s.counts());
        }
        out.0
    }

    pub fn set_gauge(&self, g: Gauge, v: u64) {
        self.gauges[g.index()].store(v, Ordering::Relaxed);
    }

    pub fn gauge(&self, g: Gauge) -> u64 {
        self.gauges[g.index()].load(Ordering::Relaxed)
    }

    /// Record a CCM flip (called from the CCM with the flipping thread's
    /// clock). Also bumps nothing — counters are the caller's job.
    pub fn record_flip(&self, tick: u64, addr: u64, to_bypass: bool) {
        self.flips.record(
            tick,
            addr,
            if to_bypass {
                FlipKind::ToBypass
            } else {
                FlipKind::ToProtect
            },
        );
    }

    /// Record a programmed hotspot-shift boundary (workload drivers).
    pub fn mark_shift(&self, tick: u64) {
        self.flips.record(tick, 0, FlipKind::ShiftMark);
    }

    pub fn flips(&self) -> &FlipLog {
        &self.flips
    }

    /// Merge all shard histograms into one (end-of-run read).
    pub fn merged_histogram(&self) -> LogHistogram {
        let mut out = LogHistogram::new();
        for s in self.shards.lock().unwrap().iter() {
            out.merge(&s.histogram());
        }
        out
    }

    /// Zero-allocation accumulation used by the sampler: sums counters and
    /// histogram buckets over all shards into caller-provided arrays,
    /// copies gauges, and returns the number of published flip events.
    pub fn accumulate_into(
        &self,
        counters: &mut [u64; Counter::COUNT],
        gauges: &mut [u64; Gauge::COUNT],
        hist: &mut [u64; LogHistogram::BUCKETS],
    ) -> u64 {
        counters.fill(0);
        hist.fill(0);
        for s in self.shards.lock().unwrap().iter() {
            for (acc, cell) in counters.iter_mut().zip(s.counters.iter()) {
                *acc += cell.load(Ordering::Relaxed);
            }
            for (acc, cell) in hist.iter_mut().zip(s.hist_buckets.iter()) {
                *acc += cell.load(Ordering::Relaxed);
            }
        }
        for (out, cell) in gauges.iter_mut().zip(self.gauges.iter()) {
            *out = cell.load(Ordering::Relaxed);
        }
        self.flips.len() as u64
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::new()
    }
}

impl std::fmt::Debug for Registry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let shards = self.shards.lock().unwrap().len();
        write!(f, "Registry(shards={}, flips={})", shards, self.flips.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_add_and_stage_view() {
        let reg = Registry::new();
        let s = reg.register_shard();
        s.add(Counter::Attempts, 3);
        s.add(Counter::Commits, 2);
        s.add(Counter::Fallbacks, 1);
        assert_eq!(s.get(Counter::Attempts), 3);
        let counts = s.counts();
        assert_eq!(counts[Counter::Attempts], 3);
        assert_eq!(counts[Counter::Commits], 2);
        assert_eq!(counts[Counter::Fallbacks], 1);
        assert_eq!(reg.total(Counter::Commits), 2);
    }

    #[test]
    fn shared_adds_from_racing_writers_are_not_lost() {
        let reg = Registry::new();
        let shard = reg.register_shard();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..50_000 {
                        shard.add_shared(Counter::ServeEnqueued, 1);
                    }
                });
            }
        });
        assert_eq!(reg.total(Counter::ServeEnqueued), 200_000);
    }

    #[test]
    fn totals_sum_across_shards() {
        let reg = Registry::new();
        let a = reg.register_shard();
        let b = reg.register_shard();
        a.add(Counter::Ops, 10);
        b.add(Counter::Ops, 5);
        assert_eq!(reg.total(Counter::Ops), 15);
        assert_eq!(reg.total(Counter::Attempts), 0);
        reg.reset();
        assert_eq!(reg.total(Counter::Ops), 0);
        // Handles stay live after reset.
        a.add(Counter::Ops, 1);
        assert_eq!(reg.total(Counter::Ops), 1);
    }

    #[test]
    fn mark_restore_rolls_back_counters() {
        let reg = Registry::new();
        let s = reg.register_shard();
        s.add(Counter::Commits, 5);
        let mark = s.mark();
        s.add(Counter::Commits, 7);
        s.add(Counter::Fallbacks, 1);
        s.restore(&mark);
        assert_eq!(s.get(Counter::Commits), 5);
        assert_eq!(s.get(Counter::Fallbacks), 0);
    }

    #[test]
    fn gauges_are_last_write_wins() {
        let reg = Registry::new();
        reg.set_gauge(Gauge::EpochRetiredPending, 42);
        reg.set_gauge(Gauge::EpochRetiredPending, 17);
        assert_eq!(reg.gauge(Gauge::EpochRetiredPending), 17);
    }

    #[test]
    fn merged_histogram_keeps_exact_max() {
        let reg = Registry::new();
        let a = reg.register_shard();
        let b = reg.register_shard();
        a.record_latency(100);
        a.record_latency(1000);
        b.record_latency(999_937);
        let h = reg.merged_histogram();
        assert_eq!(h.count(), 3);
        assert_eq!(h.max(), 999_937);
        assert_eq!(h.quantile(1.0), 999_937);
    }

    #[test]
    fn flip_roundtrip_through_registry() {
        let reg = Registry::new();
        reg.mark_shift(50);
        reg.record_flip(80, 0xbeef, false);
        let lags = crate::adaptation_lags(&reg.flips().events());
        assert_eq!(lags.len(), 1);
        assert_eq!(lags[0].lag, Some(30));
    }
}
