//! Scatter-gather scans while every shard's slot pool runs dry: three
//! shards of two slots each, then of three, four scanners holding a
//! fragment's slot on one shard while they wait for one on the next, and
//! two point writers competing for the same slots. Every scan must
//! complete, within a bounded wait, with the merged `len` smallest
//! records at or above its start. A shard's queue holds exactly one
//! entry per slot (three is not rounded up), so no submit may find it
//! full: every client thread must finish without a panic.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use euno_rng::SmallRng;
use euno_serve::{EunoServer, ServeConfig};

const SCANNERS: u64 = 4;
const SCANS_EACH: u64 = 150;
/// Scans stay below this; the writers stay above it.
const PRELOADED: u64 = 2_000;
const TIMEOUT: Duration = Duration::from_secs(20);

#[test]
fn scans_complete_while_the_slot_pools_run_dry() {
    for queue_capacity in [2, 3] {
        run(queue_capacity);
    }
}

fn run(queue_capacity: usize) {
    let srv = Arc::new(EunoServer::start(ServeConfig {
        shards: 3,
        queue_capacity,
        batch_max: 2,
        ..ServeConfig::default()
    }));
    srv.preload_dense(PRELOADED, |k| k * 3);
    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = (0..2u64)
        .map(|w| {
            let (srv, stop) = (Arc::clone(&srv), Arc::clone(&stop));
            std::thread::spawn(move || {
                let mut key = PRELOADED + w;
                while !stop.load(Ordering::Relaxed) {
                    srv.put(key, key);
                    key += 2;
                }
            })
        })
        .collect();
    let (tx, rx) = mpsc::channel();
    let mut scanners = Vec::new();
    for s in 0..SCANNERS {
        let (srv, tx) = (Arc::clone(&srv), tx.clone());
        scanners.push(std::thread::spawn(move || {
            let mut rng = SmallRng::seed_from_u64(0x5CA9 + s);
            let mut out = Vec::new();
            for _ in 0..SCANS_EACH {
                let len = rng.gen_range(1..65u64);
                let from = rng.gen_range(0..PRELOADED - len + 1);
                out.clear();
                let n = srv.scan(from, len as usize, &mut out);
                tx.send((from, len, n, out.clone())).unwrap();
            }
        }));
    }
    drop(tx);
    for _ in 0..SCANNERS * SCANS_EACH {
        let (from, len, n, out) = rx
            .recv_timeout(TIMEOUT)
            .unwrap_or_else(|e| panic!("capacity {queue_capacity}: a scan hung or panicked ({e})"));
        let want: Vec<(u64, u64)> = (from..from + len).map(|k| (k, k * 3)).collect();
        assert_eq!(
            (n, out),
            (len as usize, want),
            "capacity {queue_capacity}: scan from {from}, {len} records"
        );
    }
    stop.store(true, Ordering::Relaxed);
    for t in writers.into_iter().chain(scanners) {
        t.join().expect("a client thread panicked");
    }
    let snap = srv.snapshot();
    assert!(
        snap.shed > 0,
        "capacity {queue_capacity}: the pools never ran dry"
    );
    assert_eq!(snap.failed, 0);
}
