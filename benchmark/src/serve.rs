//! The served workloads: one shard worker and one client, each on its own
//! CPU, driven through `EunoServer::submit` and `Ticket::{poll, wait}`.
//!
//! * closed loop (`serve-sat`): one pipelined client keeps 64 tickets
//!   outstanding — callers that wait for replies; saturates the worker.
//! * open loop (`serve-open`): Poisson arrivals at a fixed rate, each
//!   request offered at its due time and timed from that *intended*
//!   arrival to the reaping of its ticket — independent users. How late
//!   the generator ran is reported beside the latency.
//!
//! A request the server refuses (queue or slot pool full) is offered again
//! until it is taken, still timed from its intended arrival: refusals are
//! counted (`ServePass::refused`) but are not failed operations. Whether
//! the queue fills is decided by how long the host keeps the worker off its
//! CPU, and a run must not fail for that; an overloaded server shows as a
//! lower achieved rate and a latency that includes the wait.
//!
//! Every reply is compared with a sequential model applied in submission
//! order (one client submits; the server keeps per-key order). From
//! outside, a request has three separable phases — inside `submit`, in
//! flight (queue wait + batch execution + completion visibility, which
//! cannot be told apart without spans inside the server) and reaping.

use std::collections::VecDeque;
use std::time::Instant;

use euno_serve::{EunoServer, Reply, Request, ServeConfig, ServeSnapshot, Ticket};

use crate::check::{encode, Shadow};
use crate::counters::LayerCounts;
use crate::gen::{Kind, Op};
use crate::hist::Hist;
use crate::pin::Placement;
use crate::span::{Counts, Span, SpanBuf};
use crate::virt::counts_between;
use crate::wall::traced_slice;

pub const SLICES: usize = 20;
pub const PRELOAD_DENSE: u64 = 500_000;
pub const CLOSED_OUTSTANDING: usize = 64;
pub const OPEN_RATE: f64 = 200_000.0;
/// Deep enough to ride out a 300 ms stall of the worker's CPU at the open
/// loop's rate without refusing a request. With 4096 slots a 20 ms host
/// stall — seen in about one run in ten on this guest — did.
const QUEUE_CAPACITY: usize = 1 << 16;

pub fn config() -> ServeConfig {
    ServeConfig {
        shards: 1,
        queue_capacity: QUEUE_CAPACITY,
        ..ServeConfig::default()
    }
}

fn preload_value(key: u64) -> u64 {
    encode(key, 0, 0)
}

/// Start a server whose worker (and preload thread) inherit the server
/// CPU, preload it, and leave the calling thread on the client CPU.
pub fn start(place: &Placement) -> EunoServer {
    place.pin_server();
    let srv = EunoServer::start(config());
    srv.preload_dense(PRELOAD_DENSE, preload_value);
    place.pin_client();
    srv
}

pub fn fresh_shadow() -> Shadow {
    Shadow::preloaded(PRELOAD_DENSE, preload_value)
}

#[derive(Clone, Copy)]
pub enum Load {
    Closed { outstanding: usize },
    Open { rate: f64 },
}

pub struct Slice {
    /// Requests reaped in this slice.
    pub completed: u64,
    /// Latencies of the requests submitted (closed) or due (open) in it.
    pub lat: Hist,
}

/// Serve counters over the window, from `ServeSnapshot` deltas.
#[derive(Default, Clone, Copy)]
pub struct ServeDelta {
    pub enqueued: u64,
    pub shed: u64,
    pub batches: u64,
    pub batched_ops: u64,
    pub batch_bails: u64,
    pub batch_shrinks: u64,
}

fn snapshot_delta(a: &ServeSnapshot, b: &ServeSnapshot) -> ServeDelta {
    ServeDelta {
        enqueued: b.enqueued - a.enqueued,
        shed: b.shed - a.shed,
        batches: b.batches - a.batches,
        batched_ops: b.batched_ops - a.batched_ops,
        batch_bails: b.batch_bails - a.batch_bails,
        batch_shrinks: b.batch_shrinks - a.batch_shrinks,
    }
}

pub struct ServePass {
    pub slices: Vec<Slice>,
    pub slice_s: f64,
    /// Requests submitted in the window.
    pub attempted: u64,
    /// Replies that differ from the model.
    pub failed: u64,
    /// `submit` calls the server refused in the window; each was repeated.
    pub refused: u64,
    /// Submission lateness (actual − due), open loop only.
    pub gen_lag: Hist,
    pub counts: LayerCounts,
    pub serve: ServeDelta,
    /// Mean outstanding requests seen at submission, first and last slice.
    pub backlog_first: f64,
    pub backlog_last: f64,
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
}

impl ServePass {
    pub fn completed(&self) -> u64 {
        self.slices.iter().map(|s| s.completed).sum()
    }

    pub fn lat_all(&self) -> Hist {
        let mut all = Hist::new();
        for s in &self.slices {
            all.merge(&s.lat);
        }
        all
    }
}

struct Pending<'s> {
    ticket: Ticket<'s>,
    /// Latency origin: due time (open) or start of the submit call (closed).
    origin: u64,
    expect: Option<u64>,
    /// `(submit start, submit end, server counts then)` when traced.
    traced: Option<(u64, u64, Counts)>,
}

fn server_counts(srv: &EunoServer) -> LayerCounts {
    let mut sum = LayerCounts::default();
    for rt in srv.shard_runtimes() {
        sum.add(&LayerCounts::of_registry(rt.metrics()));
    }
    sum
}

/// Server-wide span counts. The worker's `ThreadStats` are not reachable
/// from outside, so `accesses` stays 0, and a delta of these covers
/// everything the worker did meanwhile, not one request's share.
fn server_span_counts(srv: &EunoServer) -> Counts {
    let c = server_counts(srv);
    [c.attempts, c.aborts_total(), 0, c.fallbacks]
}

/// One run's parameters. `arrivals` holds the open loop's due times in ns
/// from the start of warm-up and must reach past the end of the window.
/// With `trace_every = Some(n)`, one request in `n` records its spans.
pub struct PassSpec<'a> {
    pub ops: &'a [Op],
    pub load: Load,
    pub arrivals: &'a [u64],
    pub warm_s: f64,
    pub window_s: f64,
    pub pinned: bool,
    pub trace_every: Option<u64>,
}

/// Drive `spec.ops` (cycled) through `srv` for `warm_s` unmeasured then
/// `window_s` measured seconds.
pub fn run_pass(srv: &EunoServer, shadow: &mut Shadow, spec: &PassSpec) -> ServePass {
    let &PassSpec {
        ops,
        load,
        arrivals,
        warm_s,
        window_s,
        pinned,
        trace_every,
    } = spec;
    let open = matches!(load, Load::Open { .. });
    let warm_ns = (warm_s * 1e9) as u64;
    let slice_ns = (window_s * 1e9) as u64 / SLICES as u64;
    let end_ns = warm_ns + slice_ns * SLICES as u64;
    assert!(
        !open || arrivals.last().is_some_and(|&last| last >= end_ns),
        "open-loop arrivals must cover the window"
    );
    let origin = Instant::now();
    let now = || origin.elapsed().as_nanos() as u64;

    let mut pass = ServePass {
        slices: (0..SLICES)
            .map(|_| Slice {
                completed: 0,
                lat: Hist::new(),
            })
            .collect(),
        slice_s: slice_ns as f64 / 1e9,
        attempted: 0,
        failed: 0,
        refused: 0,
        gen_lag: Hist::new(),
        counts: LayerCounts::default(),
        serve: ServeDelta::default(),
        backlog_first: 0.0,
        backlog_last: 0.0,
        spans: Vec::new(),
        spans_dropped: 0,
    };
    let mut spans = trace_every.map(|every| {
        let per_s = match load {
            Load::Closed { .. } => 2e6,
            Load::Open { rate } => rate,
        };
        SpanBuf::new(0, 4 * (window_s * per_s / every as f64) as usize + 64)
    });
    let mut ring: VecDeque<Pending> = VecDeque::with_capacity(QUEUE_CAPACITY + 1);
    let (mut next, mut seq) = (0usize, 0u64);
    // Outstanding requests seen at submission: [first slice, last slice].
    let (mut backlog_sum, mut backlog_n) = ([0u64; 2], [0u64; 2]);

    // Offer the next op, timed from `due` (open) or from the call itself
    // (closed), with `queued` requests outstanding at about time `about`.
    // Returns the time the call started and the request to wait for, or
    // `None` when the server refused it: the op is then not consumed and
    // the next call offers it again. Spans are recorded in the odd slices
    // only; the even slices of the same pass give the spans-off throughput.
    let mut submit =
        |queued: usize, about: u64, pass: &mut ServePass, shadow: &mut Shadow, due: Option<u64>| {
            let op = ops[next % ops.len()];
            let traced = trace_every.is_some_and(|every| {
                (next as u64).is_multiple_of(every)
                    && (warm_ns..end_ns).contains(&about)
                    && traced_slice(((about - warm_ns) / slice_ns) as usize)
            });
            let key = op.key();
            let (req, value) = match op.kind() {
                Kind::Get => (Request::Get { key }, 0),
                Kind::Put => {
                    let value = encode(key, 1, seq + 1);
                    (Request::Put { key, value }, value)
                }
                Kind::Delete => (Request::Delete { key }, 0),
                Kind::Scan => unreachable!("serve traffic has no scans"),
            };
            let counts = traced.then(|| server_span_counts(srv));
            let t0 = now();
            let result = srv.submit(req);
            let traced = counts.map(|c| (t0, now(), c));
            let origin_ns = due.unwrap_or(t0);
            let in_window = (warm_ns..end_ns).contains(&origin_ns);
            let Ok(ticket) = result else {
                pass.refused += u64::from(in_window);
                return (t0, None);
            };
            next += 1;
            seq += u64::from(op.kind() == Kind::Put);
            if in_window {
                pass.attempted += 1;
                if let Some(due) = due {
                    pass.gen_lag.record(t0.saturating_sub(due));
                }
                // First and last tenth of the window.
                let tenth = (origin_ns - warm_ns) * 10 / (end_ns - warm_ns);
                if tenth == 0 || tenth == 9 {
                    let which = usize::from(tenth != 0);
                    backlog_sum[which] += queued as u64;
                    backlog_n[which] += 1;
                }
            }
            let pending = Pending {
                ticket,
                origin: origin_ns,
                expect: shadow.apply(op, value),
                traced,
            };
            (t0, Some(pending))
        };

    let mut window_start: Option<(LayerCounts, ServeSnapshot)> = None;
    let mut window_end: Option<(LayerCounts, ServeSnapshot)> = None;
    let mut submitting = true;
    let mut due_idx = 0usize;
    let mut clock = 0u64;
    loop {
        match load {
            Load::Closed { outstanding } => {
                while submitting && ring.len() < outstanding {
                    let (t0, pending) = submit(ring.len(), clock, &mut pass, shadow, None);
                    clock = t0;
                    // Refused: reap first, then offer it again.
                    let Some(pending) = pending else { break };
                    ring.push_back(pending);
                }
            }
            Load::Open { .. } => {
                clock = now();
                while arrivals[due_idx] <= clock && arrivals[due_idx] < end_ns {
                    let due = arrivals[due_idx];
                    let (_, pending) = submit(ring.len(), due, &mut pass, shadow, Some(due));
                    // Refused: reap first, then offer it again.
                    let Some(pending) = pending else { break };
                    ring.push_back(pending);
                    due_idx += 1;
                }
                submitting = arrivals[due_idx] < end_ns;
            }
        }
        if clock >= warm_ns && window_start.is_none() {
            window_start = Some((server_counts(srv), srv.snapshot()));
        }
        // Reap, oldest first: one shard completes in submission order up
        // to the reordering inside a batch, which completes as a whole.
        let mut reaped = false;
        while ring.front().is_some_and(|p| p.ticket.poll()) {
            let polled = now();
            let p = ring.pop_front().expect("front was polled");
            let ok = p.ticket.wait() == Reply::Value(p.expect);
            reaped = true;
            // A completion counts where it happened, so an overloaded open
            // loop reads a lower achieved rate; a latency counts where the
            // request was due.
            if open && (warm_ns..end_ns).contains(&polled) {
                pass.slices[((polled - warm_ns) / slice_ns) as usize].completed += 1;
            }
            let stamp = if open { p.origin } else { polled };
            if stamp >= end_ns {
                submitting = false;
                continue;
            }
            if stamp < warm_ns {
                continue;
            }
            pass.failed += u64::from(!ok);
            let slice = &mut pass.slices[((stamp - warm_ns) / slice_ns) as usize];
            slice.completed += u64::from(!open);
            slice.lat.record(polled - p.origin);
            if let (Some(buf), Some((s0, s1, c0))) = (spans.as_mut(), p.traced) {
                let counts = counts_between(c0, server_span_counts(srv));
                let done = now();
                let root = buf.next_id();
                buf.push(0, root, "request", p.origin, done, counts);
                buf.push(root, root, "submit", s0, s1, [0; 4]);
                buf.push(root, root, "inflight", s1, polled, [0; 4]);
                buf.push(root, root, "reap", polled, done, [0; 4]);
            }
        }
        if !submitting && window_end.is_none() {
            window_end = Some((server_counts(srv), srv.snapshot()));
        }
        if !submitting && ring.is_empty() {
            break;
        }
        if !reaped {
            if pinned {
                std::hint::spin_loop();
            } else {
                // Sharing a CPU with the worker: let it run.
                std::thread::yield_now();
            }
        }
    }

    let (c0, s0) = window_start.expect("the run outlived its warm-up");
    let (c1, s1) = window_end.expect("the window closed");
    pass.counts = c1.since(&c0);
    pass.serve = snapshot_delta(&s0, &s1);
    let mean = |i: usize| backlog_sum[i] as f64 / backlog_n[i].max(1) as f64;
    (pass.backlog_first, pass.backlog_last) = (mean(0), mean(1));
    if let Some(buf) = spans {
        pass.spans_dropped = buf.dropped;
        pass.spans = buf.into_spans();
    }
    pass
}

/// After a run: the whole map through the front door, in chunks, against
/// the model. Returns `(records, failures)`.
pub fn final_check(srv: &EunoServer, shadow: &Shadow) -> (u64, u64) {
    const CHUNK: usize = 8192;
    let mut got: Vec<(u64, u64)> = Vec::new();
    let mut chunk = Vec::new();
    let mut from = 0u64;
    loop {
        let n = srv.scan(from, CHUNK, &mut chunk);
        got.extend_from_slice(&chunk);
        match chunk.last() {
            Some(&(k, _)) if n == CHUNK => from = k + 1,
            _ => break,
        }
    }
    let mut failures = crate::check::dump_failures(&got);
    let mut want = shadow.records();
    let mut have = got.iter().copied();
    loop {
        match (want.next(), have.next()) {
            (None, None) => break,
            (w, h) => failures += u64::from(w != h),
        }
    }
    (got.len() as u64, failures)
}
