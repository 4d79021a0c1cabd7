//! The serve front-end against the euno-check linearizability oracle.
//!
//! The stress harness checks the trees through direct calls; these tests
//! check the full service path — router, queue, slot pool, worker drain,
//! group-commit batching, bail-to-singles — by recording client-side
//! histories (invocation ticket drawn before `submit`, response ticket
//! after `Ticket::wait`) and handing them to the same oracle. A batch
//! reorders requests by key internally, so this is the test that would
//! catch a reordering that violates a real-time or per-key obligation.
//!
//! Alongside it, a seeded determinism check: windows of distinct-key
//! requests submitted concurrently must leave exactly the state a serial
//! replay of the same seed leaves.

use std::collections::BTreeMap;
use std::sync::atomic::Ordering;

use euno_check::history::{OpKind, OpOutput};
use euno_check::{check_history, new_sink, CompletedOp, Verdict, DEFAULT_BUDGET};
use euno_rng::{Rng, SmallRng};
use euno_serve::{EunoServer, Reply, Request, ServeConfig};

fn mix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Drive `threads` client threads of seeded point traffic through the
/// server, recording every op, and return the merged history.
fn record_history(srv: &EunoServer, threads: u32, ops: u64, seed: u64) -> Vec<CompletedOp> {
    let (sink, clock) = new_sink();
    // Small key range so same-key requests collide inside one drain and
    // the key-sorted batch actually exercises duplicate-key ordering.
    let key_range = 48u64;
    std::thread::scope(|s| {
        for w in 0..threads {
            let (sink, clock) = (sink.clone(), clock.clone());
            s.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(mix64(seed) ^ mix64(u64::from(w) + 1));
                let mut done: Vec<CompletedOp> = Vec::with_capacity(ops as usize);
                for i in 0..ops {
                    let key = rng.gen_range(0..key_range);
                    let roll = rng.gen_range(0..100u32);
                    let (kind, req, arg) = if roll < 40 {
                        (OpKind::Get, Request::Get { key }, 0)
                    } else if roll < 75 {
                        // Unique per (thread, op) and nonzero, so every
                        // observed value has exactly one possible writer.
                        let value = (u64::from(w) + 1) << 40 | i;
                        (OpKind::Put, Request::Put { key, value }, value)
                    } else {
                        (OpKind::Delete, Request::Delete { key }, 0)
                    };
                    let inv = clock.fetch_add(1, Ordering::AcqRel);
                    let reply = loop {
                        match srv.submit(req) {
                            Ok(t) => break t.wait(),
                            Err(_) => std::thread::yield_now(),
                        }
                    };
                    let ret = clock.fetch_add(1, Ordering::AcqRel);
                    let Reply::Value(v) = reply else {
                        unreachable!("point request");
                    };
                    done.push(CompletedOp {
                        thread: w,
                        kind,
                        key,
                        arg,
                        inv,
                        ret,
                        output: OpOutput::Value(v),
                    });
                }
                sink.lock().unwrap().extend(done);
            });
        }
    });
    let h = sink.lock().unwrap().clone();
    h
}

#[test]
fn batched_serve_history_is_linearizable() {
    let seed = 0x5EED_0001;
    let srv = EunoServer::start(ServeConfig {
        shards: 2,
        queue_capacity: 256,
        batch_max: 16,
        ..ServeConfig::default()
    });
    let history = record_history(&srv, 4, 400, seed);
    srv.shutdown();
    assert_eq!(history.len(), 4 * 400);
    let verdict = check_history(&history, &BTreeMap::new(), true, DEFAULT_BUDGET);
    assert!(
        matches!(verdict, Verdict::Linearizable { .. }),
        "serve front-end (seed {seed:#x}): {verdict:?}"
    );
}

/// Concurrent windows against a serial model: identical final
/// state. Each window holds distinct keys, so the requests commute and
/// the outcome is deterministic even though a batched drain executes
/// them key-sorted rather than in submission order.
#[test]
fn batched_equals_serial_replay() {
    let seed = 0xD00D_F00D_u64;
    let keys = 512u64;
    let windows = 200usize;
    let per_window = 24usize;

    let srv = EunoServer::start(ServeConfig {
        shards: 4,
        queue_capacity: 64,
        batch_max: 16,
        ..ServeConfig::default()
    });
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut model: BTreeMap<u64, u64> = BTreeMap::new();
    for w in 0..windows {
        // Distinct keys within the window (stride sampling).
        let base = rng.gen_range(0..keys);
        let stride = 2 * rng.gen_range(0..keys / 4) + 1; // odd → full cycle
        let mut tickets = Vec::with_capacity(per_window);
        for j in 0..per_window {
            let key = (base + stride * j as u64) % keys;
            let roll = rng.gen_range(0..3u64);
            let req = match roll {
                0 => Request::Get { key },
                1 => Request::Put {
                    key,
                    value: (w as u64) << 16 | j as u64,
                },
                _ => Request::Delete { key },
            };
            match roll {
                1 => {
                    model.insert(key, (w as u64) << 16 | j as u64);
                }
                2 => {
                    model.remove(&key);
                }
                _ => {}
            }
            let t = loop {
                match srv.submit(req) {
                    Ok(t) => break t,
                    Err(_) => std::thread::yield_now(),
                }
            };
            tickets.push(t);
        }
        for t in tickets {
            t.wait();
        }
    }
    let mut out = Vec::new();
    srv.scan(0, keys as usize, &mut out);
    srv.shutdown();
    assert_eq!(
        out,
        model.into_iter().collect::<Vec<_>>(),
        "final state diverged from the serial model"
    );
}

/// The ticket clock must be monotonic across threads (sanity for the
/// recording scheme itself, not the server).
#[test]
fn history_tickets_are_unique() {
    let srv = EunoServer::start(ServeConfig {
        shards: 2,
        queue_capacity: 64,
        batch_max: 8,
        ..ServeConfig::default()
    });
    let h = record_history(&srv, 2, 50, 0x7E57);
    srv.shutdown();
    let mut tickets: Vec<u64> = h.iter().flat_map(|op| [op.inv, op.ret]).collect();
    tickets.sort_unstable();
    let n = tickets.len();
    tickets.dedup();
    assert_eq!(n, tickets.len(), "duplicate history tickets");
}
