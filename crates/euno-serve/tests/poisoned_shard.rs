//! A panicking shard worker ends in an error, not a hang: its shard is
//! poisoned, and every request queued there, in flight or submitted later
//! resolves to `Reply::Failed` naming the shard, while the other shard
//! serves on. Every wait is bounded, so a regression fails the test
//! instead of hanging the suite. The panic is injected through the
//! debug-only `fault` hook.

use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use euno_serve::{fault, shard_of, EunoServer, Reply, Request, ServeConfig};

/// Armed nowhere else.
const FAULT_KEY: u64 = 0x5EED_FA17_0001;
const SHARDS: usize = 2;
const TIMEOUT: Duration = Duration::from_secs(20);

fn on_shard(shard: usize) -> impl Iterator<Item = u64> {
    (1..).filter(move |&k| shard_of(k, SHARDS) == shard)
}

#[test]
#[cfg_attr(not(debug_assertions), ignore = "the fault hook is debug-only")]
fn a_panicking_worker_fails_its_requests_and_hangs_none() {
    let srv = Arc::new(EunoServer::start(ServeConfig {
        shards: SHARDS,
        queue_capacity: 64,
        batch_max: 8,
        ..ServeConfig::default()
    }));
    let bad = shard_of(FAULT_KEY, SHARDS);
    let good = 1 - bad;
    let bad_keys: Vec<u64> = on_shard(bad).take(24).collect();
    let good_keys: Vec<u64> = on_shard(good).take(8).collect();
    // Queued behind the fault in one go: some are taken in its drain,
    // the rest wait in the queue.
    let mut reqs: Vec<Request> = bad_keys[..8]
        .iter()
        .map(|&key| Request::Put { key, value: 1 })
        .collect();
    reqs.push(Request::Put {
        key: FAULT_KEY,
        value: 1,
    });
    reqs.extend(bad_keys[8..].iter().map(|&key| Request::Get { key }));
    reqs.extend(good_keys.iter().map(|&key| Request::Put { key, value: 2 }));
    fault::panic_on_key(FAULT_KEY);

    // The tickets are waited on by a thread of their own, one reply at a
    // time, so each wait can be given up on.
    let (tx, rx) = mpsc::channel();
    std::thread::spawn({
        let (srv, reqs) = (Arc::clone(&srv), reqs.clone());
        move || {
            let tickets: Vec<_> = reqs.iter().map(|&r| srv.submit(r).unwrap()).collect();
            for ticket in tickets {
                tx.send(ticket.wait()).unwrap();
            }
        }
    });
    let replies: Vec<Reply> = reqs
        .iter()
        .map(|r| {
            rx.recv_timeout(TIMEOUT)
                .unwrap_or_else(|_| panic!("the wait for {r:?} hung"))
        })
        .collect();
    let failed = Reply::Failed { shard: bad };
    let at = bad_keys[..8].len();
    assert_eq!(replies[at], failed, "the request that panicked");
    for (r, reply) in reqs.iter().zip(&replies).skip(at + 1) {
        match r {
            Request::Put { value: 2, .. } => assert_eq!(*reply, Reply::Value(None), "{r:?}"),
            _ => assert_eq!(*reply, failed, "{r:?}, queued behind the fault"),
        }
    }
    for reply in &replies[..at] {
        assert!(matches!(reply, Reply::Value(None)) || *reply == failed);
    }

    // Later requests: a ticket fails, a dropped ticket's request is
    // counted, a blocking call panics naming the shard, and the other
    // shard serves.
    let later = srv.submit(Request::Get { key: bad_keys[0] }).unwrap();
    assert_eq!(later.wait(), failed);
    let before = srv.snapshot().failed;
    drop(srv.submit(Request::Delete { key: bad_keys[1] }).unwrap());
    let start = Instant::now();
    while srv.snapshot().failed == before {
        assert!(
            start.elapsed() < TIMEOUT,
            "the dropped ticket's request never failed"
        );
        std::thread::yield_now();
    }
    let get = std::panic::AssertUnwindSafe(|| srv.get(bad_keys[2]));
    let panicked = std::panic::catch_unwind(get).unwrap_err();
    let message = panicked.downcast_ref::<String>().unwrap();
    assert!(
        message.contains(&format!("shard {bad} is poisoned")),
        "{message}"
    );
    assert_eq!(srv.get(good_keys[0]), Some(2));
    let snap = srv.snapshot();
    assert_eq!(snap.poisoned, 1);
    assert!(snap.failed >= 18, "{} failed", snap.failed);
}
