//! The premise of the fixed drain width: a shard's tree is run by its one
//! worker thread, so the episodes of a batch have no concurrent writer to
//! conflict with, however hot the keys.
//!
//! Several client threads hammer a handful of adjacent hot keys (one
//! leaf) through a single shard, each keeping a window of tickets in
//! flight so drains batch. Each client owns its own keys, and one shard
//! keeps per-key submission order, so every reply must equal what a
//! serial `BTreeMap` model gives for that client's requests in submission
//! order. The shard runtime's conflict-class abort counters must then
//! read 0.

use std::collections::{BTreeMap, VecDeque};

use euno_metrics::{AbortClass, Counter, ABORTS_HTM};
use euno_rng::SmallRng;
use euno_serve::{EunoServer, Reply, Request, ServeConfig, Ticket};

const CLIENTS: u64 = 4;
const KEYS_PER_CLIENT: u64 = 2;
const OPS: u64 = 4_000;
const WINDOW: usize = 16;

fn submit(srv: &EunoServer, req: Request) -> Ticket<'_> {
    loop {
        match srv.submit(req) {
            Ok(t) => break t,
            Err(_) => std::thread::yield_now(),
        }
    }
}

/// Client `c`'s traffic on its keys `c, c + CLIENTS, …`, checked reply by
/// reply against the model. Returns the number of mismatches.
fn client(srv: &EunoServer, c: u64) -> u64 {
    let mut rng = SmallRng::seed_from_u64(0x0E_0E + c);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    let mut inflight: VecDeque<(Ticket<'_>, Option<u64>)> = VecDeque::new();
    let mut wrong = 0;
    for i in 0..OPS {
        let key = c + CLIENTS * rng.gen_range(0..KEYS_PER_CLIENT);
        let (req, expect) = match rng.gen_range(0..3u32) {
            0 => (Request::Get { key }, model.get(&key).copied()),
            1 => {
                let value = (c + 1) << 32 | i;
                (Request::Put { key, value }, model.insert(key, value))
            }
            _ => (Request::Delete { key }, model.remove(&key)),
        };
        inflight.push_back((submit(srv, req), expect));
        if inflight.len() == WINDOW {
            let (t, expect) = inflight.pop_front().unwrap();
            wrong += u64::from(t.wait() != Reply::Value(expect));
        }
    }
    for (t, expect) in inflight {
        wrong += u64::from(t.wait() != Reply::Value(expect));
    }
    wrong
}

#[test]
fn hot_keys_through_one_shard_never_conflict() {
    let srv = EunoServer::start(ServeConfig {
        shards: 1,
        ..ServeConfig::default()
    });
    let wrong: u64 = std::thread::scope(|s| {
        let srv = &srv;
        let clients: Vec<_> = (0..CLIENTS)
            .map(|c| s.spawn(move || client(srv, c)))
            .collect();
        clients.into_iter().map(|h| h.join().unwrap()).sum()
    });
    assert_eq!(wrong, 0, "replies that differ from the serial model");

    let snap = srv.snapshot();
    assert_eq!(snap.completed, CLIENTS * OPS);
    assert!(
        snap.batches > 0,
        "pipelined clients must have formed a batch"
    );
    let rt = srv.shard_runtimes().next().expect("one shard");
    let totals = rt.metrics().totals();
    assert!(totals[Counter::Attempts.index()] > 0);
    for class in AbortClass::ALL.into_iter().filter(|c| c.is_conflict()) {
        assert_eq!(
            totals[ABORTS_HTM[class.index()].index()],
            0,
            "{} aborts on a shard with one worker",
            class.name()
        );
    }
    srv.shutdown();
}
