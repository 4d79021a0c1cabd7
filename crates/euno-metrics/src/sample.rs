//! The Δ-tick sampler: cumulative registry snapshots in a preallocated
//! ring, and the window arithmetic that turns them into curves.
//!
//! **Window semantics.** Every snapshot stores *cumulative* counter
//! totals (plus absolute gauge levels and cumulative histogram buckets).
//! A window between consecutive snapshots is the element-wise difference
//! — because each per-thread slot is single-writer monotone, snapshot
//! values never regress and the sum of all window deltas equals
//! `last − first`: no event is ever double-counted or lost between
//! retained snapshots. Gauges are levels, not counts, so windows report
//! the closing level.
//!
//! **Ring.** The snapshot buffer is preallocated at construction; when
//! full, the oldest snapshot is overwritten (`dropped` counts how many).
//! `sample()` therefore allocates nothing — a counting-allocator test
//! pins this.
//!
//! **Tick units.** The virtual scheduler samples on its virtual clock
//! (Δ in cycles), the only sampler there is. The unit travels with the
//! serialized timeseries (`tick_unit`) so consumers never guess.

use crate::counters::{Counter, Gauge};
use crate::hist::LogHistogram;
use crate::registry::Registry;

/// One cumulative snapshot of the registry.
#[derive(Clone, Debug)]
pub struct Snapshot {
    /// The sampler's clock: virtual cycles.
    pub tick: u64,
    /// Cumulative counter totals (summed over shards), dense by
    /// [`Counter::index`].
    pub counters: [u64; Counter::COUNT],
    /// Absolute gauge levels at sample time.
    pub gauges: [u64; Gauge::COUNT],
    /// Cumulative latency-histogram buckets (summed over shards).
    pub hist: [u64; LogHistogram::BUCKETS],
    /// Published flip-log length at sample time.
    pub flip_events: u64,
}

impl Default for Snapshot {
    fn default() -> Self {
        Snapshot {
            tick: 0,
            counters: [0; Counter::COUNT],
            gauges: [0; Gauge::COUNT],
            hist: [0; LogHistogram::BUCKETS],
            flip_events: 0,
        }
    }
}

/// The difference between two consecutive snapshots.
#[derive(Clone, Debug)]
pub struct Window {
    /// Opening / closing ticks.
    pub t0: u64,
    pub t1: u64,
    /// Per-counter event deltas within the window.
    pub counters: [u64; Counter::COUNT],
    /// Gauge levels at the close of the window.
    pub gauges: [u64; Gauge::COUNT],
    /// Histogram bucket deltas within the window.
    pub hist: [u64; LogHistogram::BUCKETS],
    /// Flip events recorded within the window.
    pub flip_events: u64,
}

impl Window {
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c.index()]
    }

    /// Window duration in ticks (≥1 to keep rates finite).
    pub fn span(&self) -> u64 {
        (self.t1 - self.t0).max(1)
    }

    fn between(a: &Snapshot, b: &Snapshot) -> Window {
        Window {
            t0: a.tick,
            t1: b.tick,
            counters: std::array::from_fn(|i| b.counters[i].saturating_sub(a.counters[i])),
            gauges: b.gauges,
            hist: std::array::from_fn(|i| b.hist[i].saturating_sub(a.hist[i])),
            flip_events: b.flip_events.saturating_sub(a.flip_events),
        }
    }
}

/// A fixed-capacity ring of registry snapshots sampled every Δ ticks.
#[derive(Clone, Debug)]
pub struct TimeSeries {
    delta: u64,
    snaps: Vec<Snapshot>,
    /// Index of the oldest retained snapshot.
    head: usize,
    /// Number of retained snapshots (≤ capacity).
    len: usize,
    /// Snapshots overwritten after the ring filled.
    dropped: u64,
    /// Next tick at which a sample is due (see [`sample_due`]).
    next_due: u64,
}

impl TimeSeries {
    pub const DEFAULT_CAPACITY: usize = 256;

    /// `delta` is the sampling period in ticks; `capacity` bounds the ring
    /// (all slots preallocated here, never on the sample path).
    pub fn new(delta: u64, capacity: usize) -> Self {
        let cap = capacity.max(2);
        TimeSeries {
            delta: delta.max(1),
            snaps: vec![Snapshot::default(); cap],
            head: 0,
            len: 0,
            dropped: 0,
            next_due: 0,
        }
    }

    pub fn delta(&self) -> u64 {
        self.delta
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn capacity(&self) -> usize {
        self.snaps.len()
    }

    /// Oldest snapshots overwritten by ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Take one snapshot now. Zero allocation: writes into a preallocated
    /// ring slot.
    pub fn sample(&mut self, tick: u64, reg: &Registry) {
        let cap = self.snaps.len();
        let slot = if self.len < cap {
            let i = (self.head + self.len) % cap;
            self.len += 1;
            i
        } else {
            let i = self.head;
            self.head = (self.head + 1) % cap;
            self.dropped += 1;
            i
        };
        let snap = &mut self.snaps[slot];
        snap.tick = tick;
        snap.flip_events =
            reg.accumulate_into(&mut snap.counters, &mut snap.gauges, &mut snap.hist);
    }

    /// Retained snapshots, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &Snapshot> + '_ {
        let cap = self.snaps.len();
        (0..self.len).map(move |i| &self.snaps[(self.head + i) % cap])
    }

    /// Consecutive-snapshot windows, oldest first (`len - 1` of them).
    pub fn windows(&self) -> impl Iterator<Item = Window> + '_ {
        let cap = self.snaps.len();
        (0..self.len.saturating_sub(1)).map(move |i| {
            let a = &self.snaps[(self.head + i) % cap];
            let b = &self.snaps[(self.head + i + 1) % cap];
            Window::between(a, b)
        })
    }
}

/// Sampling cadence helper: returns `true` (and advances the due tick)
/// when `tick` has reached the next sampling boundary. Call sites keep
/// this O(1) even after long idle gaps.
pub fn sample_due(ts: &mut TimeSeries, tick: u64) -> bool {
    if tick < ts.next_due {
        return false;
    }
    let delta = ts.delta;
    // Jump past any boundaries the caller skipped (idle gap) so a burst
    // of catch-up samples never lands on the same tick.
    let periods = (tick - ts.next_due) / delta + 1;
    ts.next_due += periods * delta;
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_accumulate_and_window() {
        let reg = Registry::new();
        let shard = reg.register_shard();
        let mut ts = TimeSeries::new(100, 8);

        shard.add(Counter::Ops, 5);
        ts.sample(100, &reg);
        shard.add(Counter::Ops, 7);
        shard.add(Counter::Commits, 3);
        ts.sample(200, &reg);

        assert_eq!(ts.len(), 2);
        let w: Vec<Window> = ts.windows().collect();
        assert_eq!(w.len(), 1);
        assert_eq!(w[0].t0, 100);
        assert_eq!(w[0].t1, 200);
        assert_eq!(w[0].counter(Counter::Ops), 7);
        assert_eq!(w[0].counter(Counter::Commits), 3);
        assert_eq!(w[0].span(), 100);
    }

    #[test]
    fn ring_overwrites_oldest() {
        let reg = Registry::new();
        let shard = reg.register_shard();
        let mut ts = TimeSeries::new(1, 4);
        for t in 0..10u64 {
            shard.add(Counter::Ops, 1);
            ts.sample(t, &reg);
        }
        assert_eq!(ts.len(), 4);
        assert_eq!(ts.dropped(), 6);
        let ticks: Vec<u64> = ts.iter().map(|s| s.tick).collect();
        assert_eq!(ticks, vec![6, 7, 8, 9]);
        // Windows still sum to last - first over the retained range.
        let total: u64 = ts.windows().map(|w| w.counter(Counter::Ops)).sum();
        let first = ts.iter().next().unwrap().counters[Counter::Ops.index()];
        let last = ts.iter().last().unwrap().counters[Counter::Ops.index()];
        assert_eq!(total, last - first);
    }

    #[test]
    fn due_ticks_advance_past_gaps() {
        let mut ts = TimeSeries::new(100, 4);
        assert!(sample_due(&mut ts, 0));
        assert!(!sample_due(&mut ts, 50));
        assert!(sample_due(&mut ts, 100));
        // Long idle gap: one catch-up sample, then the next boundary is in
        // the future.
        assert!(sample_due(&mut ts, 1000));
        assert!(!sample_due(&mut ts, 1050));
        assert!(sample_due(&mut ts, 1100));
    }

    #[test]
    fn gauges_report_levels_not_deltas() {
        let reg = Registry::new();
        let _shard = reg.register_shard();
        let mut ts = TimeSeries::new(10, 4);
        reg.set_gauge(Gauge::EpochRetiredPending, 40);
        ts.sample(10, &reg);
        reg.set_gauge(Gauge::EpochRetiredPending, 25);
        ts.sample(20, &reg);
        let w: Vec<Window> = ts.windows().collect();
        assert_eq!(w[0].gauges[Gauge::EpochRetiredPending.index()], 25);
    }

    #[test]
    fn histogram_windows_carry_bucket_deltas() {
        let reg = Registry::new();
        let shard = reg.register_shard();
        let mut ts = TimeSeries::new(10, 4);
        shard.record_latency(100);
        ts.sample(10, &reg);
        shard.record_latency(100);
        shard.record_latency(100_000);
        ts.sample(20, &reg);
        let w: Vec<Window> = ts.windows().collect();
        let in_window: u64 = w[0].hist.iter().sum();
        assert_eq!(in_window, 2);
        assert!(crate::approx_quantile_from_buckets(&w[0].hist, 1.0) >= 65_536);
    }
}
