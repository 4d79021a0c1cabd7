//! Sampler correctness under concurrent writers: snapshots never regress
//! (per-counter monotonicity) and windows never double-count (the window
//! deltas telescope exactly to `last − first`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use euno_metrics::{Counter, Gauge, Registry, TimeSeries};

#[test]
fn snapshots_are_monotone_under_concurrent_writers() {
    let reg = Arc::new(Registry::new());
    let stop = Arc::new(AtomicBool::new(false));
    let writers = 4;

    let expected: u64 = std::thread::scope(|s| {
        let mut handles = Vec::new();
        for w in 0..writers {
            let reg = reg.clone();
            let stop = stop.clone();
            handles.push(s.spawn(move || {
                let shard = reg.register_shard();
                let mut done = 0u64;
                // Hammer a mix of counters and the histogram until told to
                // stop, then a fixed tail so totals are nonzero even if
                // sampling finished first.
                for i in 0..200_000u64 {
                    shard.add(Counter::Ops, 1);
                    shard.add(Counter::Attempts, 2);
                    if i % 3 == 0 {
                        shard.add(Counter::Commits, 1);
                    }
                    shard.record_latency((w as u64 + 1) * 100 + i % 50);
                    done += 1;
                    if stop.load(Ordering::Relaxed) && i >= 1000 {
                        break;
                    }
                }
                done
            }));
        }

        // Sample concurrently with the writers.
        let mut ts = TimeSeries::new(1, 512);
        for tick in 0..400u64 {
            ts.sample(tick, &reg);
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        let total_ops: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();

        // Final settle sample after all writers joined.
        ts.sample(400, &reg);

        // 1. Monotone: every counter and every histogram bucket is
        //    non-decreasing across snapshots.
        let snaps: Vec<_> = ts.iter().cloned().collect();
        for pair in snaps.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            assert!(b.tick > a.tick);
            for c in Counter::ALL {
                assert!(
                    b.counters[c.index()] >= a.counters[c.index()],
                    "counter {} regressed: {} -> {}",
                    c.name(),
                    a.counters[c.index()],
                    b.counters[c.index()]
                );
            }
            for i in 0..a.hist.len() {
                assert!(b.hist[i] >= a.hist[i], "hist bucket {i} regressed");
            }
            assert!(b.flip_events >= a.flip_events);
        }

        // 2. No double counting: window deltas telescope to last − first.
        for c in [Counter::Ops, Counter::Attempts, Counter::Commits] {
            let sum: u64 = ts.windows().map(|w| w.counter(c)).sum();
            let first = snaps.first().unwrap().counters[c.index()];
            let last = snaps.last().unwrap().counters[c.index()];
            assert_eq!(sum, last - first, "windows double-count {}", c.name());
        }
        let hist_sum: u64 = ts.windows().map(|w| w.hist.iter().sum::<u64>()).sum();
        let hist_first: u64 = snaps.first().unwrap().hist.iter().sum();
        let hist_last: u64 = snaps.last().unwrap().hist.iter().sum();
        assert_eq!(hist_sum, hist_last - hist_first);

        total_ops
    });

    // 3. The settle snapshot agrees exactly with what the writers did.
    assert_eq!(reg.total(Counter::Ops), expected);
    assert_eq!(reg.total(Counter::Attempts), expected * 2);
    assert_eq!(reg.merged_histogram().count(), expected);
}

#[test]
fn sampling_while_registering_threads_is_safe() {
    // Shards appear mid-run (threads register as they start); the sampler
    // must pick them up without missing earlier shards' counts.
    let reg = Arc::new(Registry::new());
    let mut ts = TimeSeries::new(1, 64);

    let a = reg.register_shard();
    a.add(Counter::Ops, 10);
    ts.sample(0, &reg);

    let b = reg.register_shard();
    b.add(Counter::Ops, 5);
    reg.set_gauge(Gauge::EpochRetiredPending, 3);
    ts.sample(1, &reg);

    let snaps: Vec<_> = ts.iter().collect();
    assert_eq!(snaps[0].counters[Counter::Ops.index()], 10);
    assert_eq!(snaps[1].counters[Counter::Ops.index()], 15);
    assert_eq!(snaps[1].gauges[Gauge::EpochRetiredPending.index()], 3);
}
