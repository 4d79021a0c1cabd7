//! The layer ladder: the cost of one call into each layer, bottom up, on
//! one pinned thread over the STM backend — raw episode → tree op →
//! batched op → served request — so each layer's overhead can be stated
//! as a ratio with its base.
//!
//! Each rung is timed in bulk (total ÷ calls); one call in 64 is also
//! recorded as a span (`htm.episode`, `core.op`, `batch.apply`,
//! `serve.rtt1`) so the trace shows the rung's distribution. Ladder spans
//! carry no count deltas. The ladder has three parts, each building one
//! tree or server and each run in a process of its own (see "one instance
//! per process" in `workloads.rs`).

use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

use euno_core::{BatchOp, BatchScratch, BatchStats, EunoBTreeDefault, EunoConfig};
use euno_htm::{ConcurrentMap, RetryPolicy, Runtime, TxCell};
use euno_serve::{shard_of, Reply, Request};

use crate::check::{encode, point_reply_ok, scan_ok};
use crate::gen::{Kind, Op, Traffic, SCAN_LEN};
use crate::pin::Placement;
use crate::serve;
use crate::span::{Span, SpanBuf};
use crate::virt::preload_even;

/// Calls per rung and per `--seconds`, after a tenth as many warm-up calls
/// (2 M + 200 k at the contract's 10 s; a traced pass runs a quarter).
pub const CALLS_PER_SECOND: u64 = 200_000;
pub const PARTS: [&str; 3] = ["ladder-core", "ladder-batch", "ladder-serve"];
const SPAN_EVERY: u64 = 64;
/// Ten times what the served rung takes in a quiet traced run.
const RTT1_BUDGET_S: f64 = 10.0;
const BATCH: usize = 32;
const STREAM_LEN: usize = 1 << 20;

pub struct Ladder {
    pub metrics: Vec<(&'static str, f64)>,
    pub failed: u64,
    pub spans: Vec<Span>,
}

struct Timer {
    origin: Instant,
    spans: SpanBuf,
    /// Calls of a full rung; warm-up is a tenth of a rung's calls.
    calls: u64,
}

impl Timer {
    /// ns per call of `call(i)` over `calls` calls after a tenth as many
    /// warm-up calls; `i` counts on from the warm-up.
    fn rung(&mut self, name: &'static str, calls: u64, call: impl FnMut(u64)) -> f64 {
        self.rung_within(name, calls, f64::INFINITY, call)
    }

    /// As `rung`, but the measured calls stop early once they have taken
    /// `budget_s` seconds (checked at every span sample), the warm-up
    /// after a tenth of that.
    fn rung_within(
        &mut self,
        name: &'static str,
        calls: u64,
        budget_s: f64,
        mut call: impl FnMut(u64),
    ) -> f64 {
        let warm = calls / 10;
        let now = |o: &Instant| o.elapsed().as_nanos() as u64;
        let warm_from = now(&self.origin);
        for i in 0..warm {
            call(i);
            // The warm-up has a tenth of the budget, as of the calls.
            if i % SPAN_EVERY == 0 && (now(&self.origin) - warm_from) as f64 > budget_s * 1e8 {
                break;
            }
        }
        let t0 = now(&self.origin);
        let mut done = 0;
        for i in warm..warm + calls {
            if i % SPAN_EVERY == 0 {
                let a = now(&self.origin);
                call(i);
                let b = now(&self.origin);
                let id = self.spans.next_id();
                self.spans.push(0, id, name, a, b, [0; 4]);
                done += 1;
                if (b - t0) as f64 > budget_s * 1e9 {
                    break;
                }
            } else {
                call(i);
                done += 1;
            }
        }
        (now(&self.origin) - t0) as f64 / done as f64
    }
}

fn key_at(ops: &[Op], i: u64) -> u64 {
    ops[i as usize % ops.len()].key()
}

/// One part of the ladder (`PARTS`), `calls` calls per full rung.
pub fn run(part: &str, seed: u64, calls: u64, place: &Placement) -> Result<Ladder, String> {
    place.pin_client();
    let mut timer = Timer {
        origin: Instant::now(),
        spans: SpanBuf::new(62, (4 * calls / SPAN_EVERY) as usize + 64),
        calls,
    };
    let mut failed = 0u64;
    let metrics = match part {
        "ladder-core" => core_rungs(seed, &mut timer, &mut failed),
        "ladder-batch" => batch_rungs(seed, &mut timer, &mut failed),
        "ladder-serve" => serve_rungs(seed, &mut timer, &mut failed, place),
        other => return Err(format!("unknown ladder part `{other}`")),
    };
    Ok(Ladder {
        metrics,
        failed,
        spans: timer.spans.into_spans(),
    })
}

/// euno-htm: a private-cell read-modify-write episode. euno-core: direct
/// point ops and scans on the default tree with the *hot* / *scan-churn*
/// keys.
fn core_rungs(seed: u64, timer: &mut Timer, failed: &mut u64) -> Vec<(&'static str, f64)> {
    let calls = timer.calls;
    let rt = Runtime::new_concurrent();
    let mut ctx = rt.thread(seed);
    let (fallback, cell) = (TxCell::new(0u64), TxCell::new(0u64));
    let policy = RetryPolicy::default();
    let episode_ns = timer.rung("htm.episode", calls, |_| {
        let out = ctx.htm_execute(&fallback, &policy, |tx| {
            let v = tx.read(&cell)?;
            tx.write(&cell, v + 1)?;
            Ok(v)
        });
        black_box(out.value);
    });
    *failed += u64::from(cell.load_plain() != calls + calls / 10);

    let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), EunoConfig::default());
    preload_even(&tree, &rt, None);
    let hot = &Traffic::Hot.streams(seed, 1, STREAM_LEN)[0];
    let churn = &Traffic::ScanChurn.streams(seed, 1, STREAM_LEN)[0];
    let get_ns = timer.rung("core.op", calls, |i| {
        let key = key_at(hot, i);
        *failed += u64::from(!point_reply_ok(key, tree.get(&mut ctx, key)));
    });
    let put_ns = timer.rung("core.op", calls, |i| {
        let key = key_at(hot, i);
        *failed += u64::from(!point_reply_ok(
            key,
            tree.put(&mut ctx, key, encode(key, 0, i)),
        ));
    });
    let mut buf = Vec::with_capacity(SCAN_LEN);
    let scan_ns = timer.rung("core.op", calls / 4, |i| {
        let from = key_at(churn, i);
        buf.clear();
        tree.scan(&mut ctx, from, SCAN_LEN, &mut buf);
        *failed += u64::from(!scan_ok(from, SCAN_LEN, &buf));
    });
    vec![
        ("htm.episode_ns", episode_ns),
        ("core.op_ns.get", get_ns),
        ("core.op_ns.put", put_ns),
        ("core.op_ns.scan", scan_ns),
    ]
}

fn batch_op(op: Op, seq: u64) -> BatchOp {
    let key = op.key();
    match op.kind() {
        Kind::Get => BatchOp::Get { key },
        _ => BatchOp::Put {
            key,
            value: encode(key, 0, seq),
        },
    }
}

/// euno-core::batch against its base: the *serve* stream on the server's
/// tree shape (read-optimized config, dense preload), first as direct
/// single calls, then as key-sorted 32-op chunks through `apply_batch`.
fn batch_rungs(seed: u64, timer: &mut Timer, failed: &mut u64) -> Vec<(&'static str, f64)> {
    let calls = timer.calls;
    let stream = &Traffic::Serve.streams(seed, 1, STREAM_LEN)[0];
    let rt = Runtime::new_concurrent();
    let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), serve::config().tree_config);
    let mut ctx = rt.thread(seed);
    for key in 0..serve::PRELOAD_DENSE {
        tree.put(&mut ctx, key, encode(key, 0, 0));
    }
    let single_ns = timer.rung("core.op", calls, |i| {
        let op = stream[i as usize % stream.len()];
        let key = op.key();
        let reply = match op.kind() {
            Kind::Get => tree.get(&mut ctx, key),
            _ => tree.put(&mut ctx, key, encode(key, 0, i)),
        };
        *failed += u64::from(!point_reply_ok(key, reply));
    });

    let mut chunk: Vec<BatchOp> = Vec::with_capacity(BATCH);
    let mut out = Vec::with_capacity(BATCH);
    let mut scratch = BatchScratch::default();
    let mut total = BatchStats::default();
    let batches = calls / BATCH as u64;
    let per_batch_ns = timer.rung("batch.apply", batches, |b| {
        chunk.clear();
        let base = b as usize * BATCH;
        chunk.extend((base..base + BATCH).map(|i| batch_op(stream[i % stream.len()], i as u64)));
        chunk.sort_by_key(BatchOp::key);
        let stats = tree.apply_batch(&mut ctx, &chunk, &mut out, &mut scratch);
        let wrong = chunk
            .iter()
            .zip(&out)
            .filter(|(op, &reply)| !point_reply_ok(op.key(), reply));
        *failed += wrong.count() as u64;
        total.lower_episodes += stats.lower_episodes;
        total.opt_gets += stats.opt_gets;
        total.singles += stats.singles;
        total.conflict_aborts += stats.conflict_aborts;
    });
    let batch_ns = per_batch_ns / BATCH as f64;
    // The counts cover the warm-up batches too.
    let ops = ((batches + batches / 10) * BATCH as u64) as f64;
    vec![
        ("core.op_ns.serve", single_ns),
        ("batch.op_ns", batch_ns),
        ("batch.speedup_vs_single", single_ns / batch_ns),
        (
            "batch.lower_episodes_per_op",
            total.lower_episodes as f64 / ops,
        ),
        ("batch.opt_gets_frac", total.opt_gets as f64 / ops),
        ("batch.singles_frac", total.singles as f64 / ops),
        (
            "batch.conflict_aborts_per_op",
            total.conflict_aborts as f64 / ops,
        ),
    ]
}

/// euno-serve: one outstanding request, submit → reaped; the time inside
/// `submit`; the router's hash.
fn serve_rungs(
    seed: u64,
    timer: &mut Timer,
    failed: &mut u64,
    place: &Placement,
) -> Vec<(&'static str, f64)> {
    let calls = timer.calls;
    let stream = &Traffic::Serve.streams(seed, 1, STREAM_LEN)[0];
    let srv = serve::start(place);
    let mut shadow = serve::fresh_shadow();
    let request_of = |i: u64| {
        let op = stream[i as usize % stream.len()];
        let key = op.key();
        let value = encode(key, 1, i);
        let req = match op.kind() {
            Kind::Get => Request::Get { key },
            _ => Request::Put { key, value },
        };
        (op, req, value)
    };
    // A hand-off between two threads per call: when the host lets only one
    // of them run at a time a call takes a scheduler slice, and the rung
    // must not take the run past its time limit.
    let rtt1_ns = timer.rung_within("serve.rtt1", calls / 2, RTT1_BUDGET_S, |i| {
        let (op, req, value) = request_of(i);
        let ticket = srv.submit(req).expect("an idle server sheds nothing");
        let want = shadow.apply(op, value);
        *failed += u64::from(ticket.wait() != Reply::Value(want));
    });
    // Time inside `submit`: blocks of submits timed as a whole, reaped
    // outside the timed part.
    const BLOCK: u64 = 1024;
    let mut tickets = Vec::with_capacity(BLOCK as usize);
    let (mut inside, mut submitted) = (0u64, 0u64);
    for block in 0..(calls / 4 / BLOCK).max(1) {
        let t0 = Instant::now();
        for i in block * BLOCK..(block + 1) * BLOCK {
            let (op, req, value) = request_of(calls + i);
            tickets.push((srv.submit(req).expect("a block fits the queue"), op, value));
        }
        inside += t0.elapsed().as_nanos() as u64;
        submitted += BLOCK;
        for (ticket, op, value) in tickets.drain(..) {
            let want = shadow.apply(op, value);
            *failed += u64::from(ticket.wait() != Reply::Value(want));
        }
    }
    *failed += serve::final_check(&srv, &shadow).1;
    srv.shutdown();
    // A few ns per call: timed without span samples, whose two clock reads
    // would cost more than the 64 calls between them.
    let t0 = Instant::now();
    for op in stream.iter().cycle().take(calls as usize) {
        black_box(shard_of(black_box(op.key()), 4));
    }
    let shard_of_ns = t0.elapsed().as_nanos() as f64 / calls as f64;
    vec![
        ("serve.rtt1_ns", rtt1_ns),
        ("serve.submit_ns", inside as f64 / submitted as f64),
        ("router.shard_of_ns", shard_of_ns),
    ]
}
