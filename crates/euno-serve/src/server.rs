//! The sharded server: N independent trees, each with its own runtime,
//! request queue, slot pool and worker thread.
//!
//! Request lifecycle:
//!
//! 1. a client routes its key through [`shard_of`], acquires a slot from
//!    that shard's pool (pool exhausted / queue full ⇒ *shed*, the
//!    overload signal), stages the payload and enqueues the slot index;
//! 2. the shard worker drains up to `batch_max` requests per cycle.
//!    A drain wider than one key-sorts its point ops (stably) and runs
//!    them through [`EunoBTree::apply_batch`]'s shared group-commit
//!    episodes; scans and whatever the batch bails on run per-request.
//!    A batch that keeps conflict-aborting halves the worker's drain
//!    width down to per-request episodes, recovering one step per clean
//!    batch;
//! 3. completion: the worker stamps the latency — measured from the
//!    request's **intended issue time**, so a backed-up queue counts
//!    against the tail instead of being coordinated-omitted away — into
//!    the server's metric registry, then flips the slot to DONE for its
//!    [`Ticket`] holder, or recycles it when nobody will read it (a
//!    ticket dropped unwaited).
//!
//! A worker that panics poisons its shard: the request it was running,
//! the rest of its drain, and everything queued there then or later
//! resolve to [`Reply::Failed`] (counted in [`ServeSnapshot::failed`],
//! whether or not a ticket still waits), and the other shards serve on.

use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use euno_core::{BatchOp, BatchScratch, EunoBTreeDefault, EunoConfig};
use euno_htm::{ConcurrentMap, Runtime, KEY_SENTINEL, TOMBSTONE};
use euno_metrics::{Counter, LogHistogram, Registry, ThreadShard};

use crate::fault;
use crate::queue::Queue;
use crate::router::{merge_scans, shard_of};
use crate::slot::{
    RawReq, SlotPool, ABANDONED, DONE, FAILED, K_DELETE, K_GET, K_PUT, K_SCAN, RUNNING,
};

/// Server shape. `Default` is the smallest production-flavoured setup:
/// 4 shards, 1024-deep queues, batches of up to 32.
#[derive(Clone)]
pub struct ServeConfig {
    /// Independent trees behind the router.
    pub shards: usize,
    /// Per-shard request queue capacity (rounded up to a power of two).
    /// The slot pool has the same size: queue full and pool empty are
    /// both surfaced as shedding.
    pub queue_capacity: usize,
    /// Max requests one worker drain may execute as a group-commit batch.
    pub batch_max: usize,
    /// Tree configuration for every shard. The default is the tree's own:
    /// no episode above the leaf, gets episode-free, in single-request
    /// drains and in batches alike.
    pub tree_config: EunoConfig,
    /// Seed for the shard worker thread contexts.
    pub seed: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            queue_capacity: 1024,
            batch_max: 32,
            tree_config: EunoConfig::default(),
            seed: 0xE05E,
        }
    }
}

/// One client request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Request {
    Get {
        key: u64,
    },
    Put {
        key: u64,
        value: u64,
    },
    Delete {
        key: u64,
    },
    /// Per-shard scan fragment; cross-shard scans go through
    /// [`EunoServer::scan`].
    Scan {
        from: u64,
        len: u32,
    },
}

/// A completed request's result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Reply {
    /// Previous value (put/delete) or current value (get).
    Value(Option<u64>),
    Scan(Vec<(u64, u64)>),
    /// The worker of shard `shard` panicked: the shard is poisoned and
    /// runs nothing more. A request it had started may have been applied.
    Failed {
        shard: usize,
    },
}

/// The server refused the request: its shard's queue or slot pool is
/// full. Back off and retry — this is the overload signal the open-loop
/// harness counts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Shed;

pub(crate) struct Shard {
    pub id: usize,
    pub rt: Arc<Runtime>,
    pub tree: EunoBTreeDefault,
    pub queue: Queue,
    pub pool: SlotPool,
    pub depth: AtomicUsize,
    pub stop: AtomicBool,
    pub batch_max: usize,
    pub batch_hist: Mutex<LogHistogram>,
    pub worker: Mutex<Option<std::thread::Thread>>,
    /// The worker panicked; it now fails every request it pops.
    pub poisoned: AtomicBool,
    /// Requests resolved to [`Reply::Failed`].
    pub failed: AtomicU64,
    /// This shard's slice of the *server* registry, shared by the worker
    /// (completions, latency, batch counters: single-writer `add`) and
    /// the submitters (enqueue/shed counters: racing writers, so
    /// `add_shared`).
    pub stats: Arc<ThreadShard>,
    pub seed: u64,
}

/// Handle to one in-flight request. Dropping it unwaited gives the reply
/// up: the request still runs, and its slot is recycled when it
/// finishes. Using a ticket borrows its server, so the server cannot shut
/// down under a waiter:
///
/// ```compile_fail,E0505
/// use euno_serve::{EunoServer, Request, ServeConfig};
/// let srv = EunoServer::start(ServeConfig::default());
/// let ticket = srv.submit(Request::Get { key: 1 }).unwrap();
/// srv.shutdown();
/// ticket.wait();
/// ```
#[must_use]
pub struct Ticket<'s> {
    slot: Leased,
    server: PhantomData<&'s EunoServer>,
}

/// A client's lease on a slot, given back when dropped. It holds its
/// shard by `Arc`, not by the ticket's borrow, so a ticket left alive past
/// `shutdown` (unused, as a drained `Vec` of them is) can still be
/// dropped.
struct Leased {
    shard: Arc<Shard>,
    idx: u32,
}

impl Drop for Leased {
    fn drop(&mut self) {
        self.shard.pool.abandon(self.idx);
    }
}

impl Ticket<'_> {
    /// True once the result is ready.
    pub fn poll(&self) -> bool {
        matches!(self.slot.shard.pool.state(self.slot.idx), DONE | FAILED)
    }

    /// Spin-then-yield until completion. On a loaded box the worker needs
    /// the CPU more than the waiter does, so yield early and often.
    pub fn wait(self) -> Reply {
        let mut spins = 0u32;
        while !self.poll() {
            spins += 1;
            if spins < 64 {
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
        let Leased { shard, idx } = &self.slot;
        if shard.pool.state(*idx) == FAILED {
            return Reply::Failed { shard: shard.id };
        }
        let (value, scan) = shard.pool.take_result(*idx);
        if shard.pool.read_req(*idx).kind == K_SCAN {
            Reply::Scan(scan)
        } else {
            Reply::Value(value)
        }
    }
}

/// The sharded, batching front-end over [`EunoBTreeDefault`] trees.
pub struct EunoServer {
    shards: Vec<Arc<Shard>>,
    workers: Vec<JoinHandle<()>>,
    registry: Arc<Registry>,
    epoch: Instant,
}

impl EunoServer {
    /// Build the shards and start one worker thread per shard.
    pub fn start(cfg: ServeConfig) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        let registry = Arc::new(Registry::new());
        let epoch = Instant::now();
        let mut shards = Vec::with_capacity(cfg.shards);
        for i in 0..cfg.shards {
            let rt = Runtime::new_concurrent();
            let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), cfg.tree_config.clone());
            let queue = Queue::new(cfg.queue_capacity);
            let pool = SlotPool::new(cfg.queue_capacity);
            // Admission invariant: a free slot may not find a full queue —
            // the queue (rounded up to a power of two) must hold at least
            // one entry per pool slot.
            assert!(queue.capacity() >= pool.capacity());
            shards.push(Arc::new(Shard {
                id: i,
                rt,
                tree,
                queue,
                pool,
                depth: AtomicUsize::new(0),
                stop: AtomicBool::new(false),
                batch_max: cfg.batch_max.max(1),
                batch_hist: Mutex::new(LogHistogram::new()),
                worker: Mutex::new(None),
                poisoned: AtomicBool::new(false),
                failed: AtomicU64::new(0),
                stats: registry.register_shard(),
                seed: cfg.seed ^ (i as u64).wrapping_mul(0x9e37_79b9),
            }));
        }
        let workers = shards
            .iter()
            .enumerate()
            .map(|(i, sh)| {
                let sh = Arc::clone(sh);
                let handle = std::thread::Builder::new()
                    .name(format!("euno-serve-{i}"))
                    .spawn(move || worker_loop(&sh, epoch))
                    .expect("spawn shard worker");
                *shards[i].worker.lock().unwrap() = Some(handle.thread().clone());
                handle
            })
            .collect();
        EunoServer {
            shards,
            workers,
            registry,
            epoch,
        }
    }

    /// Nanoseconds since the server's epoch — the time base of the
    /// requests' issue stamps.
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Per-shard tree runtimes, for harvesting engine-level stats.
    pub fn shard_runtimes(&self) -> impl Iterator<Item = &Arc<Runtime>> {
        self.shards.iter().map(|s| &s.rt)
    }

    /// Requests currently sitting in shard queues.
    pub fn queue_depth(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.depth.load(Ordering::Relaxed))
            .sum()
    }

    fn raw_of(req: Request, issued_ns: u64) -> RawReq {
        let (kind, key, arg) = match req {
            Request::Get { key } => (K_GET, key, 0),
            Request::Put { key, value } => {
                assert!(
                    key < KEY_SENTINEL && value != TOMBSTONE,
                    "reserved key/value"
                );
                (K_PUT, key, value)
            }
            Request::Delete { key } => (K_DELETE, key, 0),
            Request::Scan { .. } => {
                panic!("cross-shard scans go through EunoServer::scan")
            }
        };
        RawReq {
            kind,
            key,
            arg,
            issued_ns,
        }
    }

    fn enqueue(&self, shard: usize, raw: RawReq) -> Result<u32, Shed> {
        let sh = &self.shards[shard];
        let Some(idx) = sh.pool.acquire() else {
            sh.stats.add_shared(Counter::ServeShed, 1);
            return Err(Shed);
        };
        sh.pool.stage(idx, raw);
        if !sh.queue.push(idx) {
            sh.pool.release(idx);
            sh.stats.add_shared(Counter::ServeShed, 1);
            return Err(Shed);
        }
        sh.stats.add_shared(Counter::ServeEnqueued, 1);
        if sh.depth.fetch_add(1, Ordering::Relaxed) == 0 {
            if let Some(t) = sh.worker.lock().unwrap().as_ref() {
                t.unpark();
            }
        }
        Ok(idx)
    }

    /// Submit a point request; the [`Ticket`] resolves to its [`Reply`].
    pub fn submit(&self, req: Request) -> Result<Ticket<'_>, Shed> {
        if let Request::Scan { from, len } = req {
            // A single-shard scan fragment is still expressible.
            return self.submit_scan_fragment(shard_of(from, self.shards.len()), from, len);
        }
        let raw = Self::raw_of(req, self.now_ns());
        let shard = shard_of(raw.key, self.shards.len());
        self.ticket(shard, raw)
    }

    fn submit_scan_fragment(&self, shard: usize, from: u64, len: u32) -> Result<Ticket<'_>, Shed> {
        let raw = RawReq {
            kind: K_SCAN,
            key: from,
            arg: u64::from(len),
            issued_ns: self.now_ns(),
        };
        self.ticket(shard, raw)
    }

    fn ticket(&self, shard: usize, raw: RawReq) -> Result<Ticket<'_>, Shed> {
        let idx = self.enqueue(shard, raw)?;
        Ok(Ticket {
            slot: Leased {
                shard: Arc::clone(&self.shards[shard]),
                idx,
            },
            server: PhantomData,
        })
    }

    /// Blocking get (retries on shed; panics, naming the shard, if that
    /// shard is poisoned — as do `put`, `delete` and `scan`).
    pub fn get(&self, key: u64) -> Option<u64> {
        self.point(Request::Get { key })
    }

    /// Blocking put; returns the previous value.
    pub fn put(&self, key: u64, value: u64) -> Option<u64> {
        self.point(Request::Put { key, value })
    }

    /// Blocking delete; returns the previous value.
    pub fn delete(&self, key: u64) -> Option<u64> {
        self.point(Request::Delete { key })
    }

    fn point(&self, req: Request) -> Option<u64> {
        loop {
            match self.submit(req) {
                Ok(t) => match t.wait() {
                    Reply::Value(v) => return v,
                    Reply::Scan(_) => unreachable!("point request"),
                    Reply::Failed { shard } => poisoned(shard),
                },
                Err(Shed) => std::thread::yield_now(),
            }
        }
    }

    /// Scatter-gather cross-shard scan: every shard contributes its `len`
    /// smallest records with key `>= from`; the fragments merge into the
    /// `len` globally smallest. Returns the record count written to `out`.
    pub fn scan(&self, from: u64, len: usize, out: &mut Vec<(u64, u64)>) -> usize {
        let mut tickets: Vec<Ticket<'_>> = Vec::with_capacity(self.shards.len());
        for shard in 0..self.shards.len() {
            loop {
                match self.submit_scan_fragment(shard, from, len as u32) {
                    Ok(t) => {
                        tickets.push(t);
                        break;
                    }
                    Err(Shed) => std::thread::yield_now(),
                }
            }
        }
        let mut frags: Vec<Vec<(u64, u64)>> = tickets
            .into_iter()
            .map(|t| match t.wait() {
                Reply::Scan(v) => v,
                Reply::Value(_) => unreachable!("scan request"),
                Reply::Failed { shard } => poisoned(shard),
            })
            .collect();
        merge_scans(&mut frags, len, out);
        out.len()
    }

    /// Startup bulk load, bypassing the queues: one thread per shard
    /// inserts the keys of `0..count` that route to it.
    pub fn preload_dense(&self, count: u64, value_of: impl Fn(u64) -> u64 + Sync) {
        let shards = self.shards.len();
        std::thread::scope(|s| {
            for (i, sh) in self.shards.iter().enumerate() {
                let value_of = &value_of;
                s.spawn(move || {
                    let mut ctx = sh.rt.thread(0x10AD ^ i as u64);
                    for key in 0..count {
                        if shard_of(key, shards) == i {
                            sh.tree.put(&mut ctx, key, value_of(key));
                        }
                    }
                });
            }
        });
    }

    /// Aggregate serve-level statistics since start.
    pub fn snapshot(&self) -> ServeSnapshot {
        let mut batch_hist = LogHistogram::new();
        for sh in &self.shards {
            batch_hist.merge(&sh.batch_hist.lock().unwrap());
        }
        ServeSnapshot {
            shards: self.shards.len(),
            enqueued: self.registry.total(Counter::ServeEnqueued),
            completed: self.registry.total(Counter::ServeCompleted),
            shed: self.registry.total(Counter::ServeShed),
            batches: self.registry.total(Counter::ServeBatches),
            batched_ops: self.registry.total(Counter::ServeBatchedOps),
            single_ops: self.registry.total(Counter::ServeSingleOps),
            batch_bails: self.registry.total(Counter::ServeBatchBails),
            batch_shrinks: self.registry.total(Counter::ServeBatchShrinks),
            batch_hist,
            latency_ns: self.registry.merged_histogram(),
            failed: self
                .shards
                .iter()
                .map(|s| s.failed.load(Ordering::Relaxed))
                .sum(),
            poisoned: self
                .shards
                .iter()
                .filter(|s| s.poisoned.load(Ordering::Acquire))
                .count(),
        }
    }

    /// Stop the workers and drain the queues. Call only after every
    /// producer has quiesced (their pushes happen-before this via the
    /// caller's joins).
    pub fn shutdown(self) {
        drop(self);
    }
}

impl Drop for EunoServer {
    fn drop(&mut self) {
        for sh in &self.shards {
            sh.stop.store(true, Ordering::Release);
            if let Some(t) = sh.worker.lock().unwrap().as_ref() {
                t.unpark();
            }
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// Aggregate serve-level statistics, harvested by the bench harness.
#[derive(Clone, Debug)]
pub struct ServeSnapshot {
    pub shards: usize,
    pub enqueued: u64,
    pub completed: u64,
    pub shed: u64,
    pub batches: u64,
    pub batched_ops: u64,
    pub single_ops: u64,
    pub batch_bails: u64,
    pub batch_shrinks: u64,
    /// Distribution of executed batch sizes (drain widths that went
    /// through `apply_batch`).
    pub batch_hist: LogHistogram,
    /// Request latency in nanoseconds, from intended issue to completion.
    pub latency_ns: LogHistogram,
    /// Requests resolved to [`Reply::Failed`], dropped tickets included.
    pub failed: u64,
    /// Shards whose worker panicked.
    pub poisoned: usize,
}

fn poisoned(shard: usize) -> ! {
    panic!("euno-serve shard {shard} is poisoned: its worker panicked")
}

fn to_batch_op(r: &RawReq) -> BatchOp {
    match r.kind {
        K_GET => BatchOp::Get { key: r.key },
        K_PUT => BatchOp::Put {
            key: r.key,
            value: r.arg,
        },
        K_DELETE => BatchOp::Delete { key: r.key },
        _ => unreachable!("scans never batch"),
    }
}

fn finish_point(sh: &Shard, idx: u32, value: Option<u64>, now_ns: u64) {
    let req = sh.pool.read_req(idx);
    sh.stats
        .record_latency(now_ns.saturating_sub(req.issued_ns));
    sh.stats.add(Counter::ServeCompleted, 1);
    sh.pool.complete(idx, value);
}

/// A shard's worker: serve until shutdown. A panic poisons the shard: the
/// requests the drain had started and not finished fail, and so does
/// every request queued then or later, until shutdown.
fn worker_loop(sh: &Shard, epoch: Instant) {
    let mut idxs: Vec<u32> = Vec::with_capacity(sh.batch_max);
    if catch_unwind(AssertUnwindSafe(|| serve(sh, epoch, &mut idxs))).is_ok() {
        return;
    }
    sh.poisoned.store(true, Ordering::Release);
    idxs.retain(|&idx| sh.pool.state(idx) & !ABANDONED == RUNNING);
    let mut idle = 0;
    loop {
        for &idx in &idxs {
            fail(sh, idx);
        }
        while !pop(sh, usize::MAX, &mut idxs) {
            if !pause(sh, &mut idle) {
                return;
            }
        }
    }
}

/// A poisoned shard's answer to a request it will not run.
fn fail(sh: &Shard, idx: u32) {
    sh.failed.fetch_add(1, Ordering::Relaxed);
    sh.pool.fail(idx);
}

/// Pop up to `cap` queued requests into `idxs`, marking each running.
/// Whether there was any.
fn pop(sh: &Shard, cap: usize, idxs: &mut Vec<u32>) -> bool {
    idxs.clear();
    while idxs.len() < cap {
        let Some(idx) = sh.queue.pop() else { break };
        sh.pool.start(idx);
        idxs.push(idx);
    }
    if idxs.is_empty() {
        return false;
    }
    sh.depth.fetch_sub(idxs.len(), Ordering::Relaxed);
    true
}

/// An idle worker's wait for work: `false` once the server is stopping.
fn pause(sh: &Shard, idle: &mut u32) -> bool {
    if sh.stop.load(Ordering::Acquire) {
        return false;
    }
    *idle += 1;
    if *idle < 64 {
        std::thread::yield_now();
    } else {
        std::thread::park_timeout(Duration::from_micros(200));
    }
    true
}

/// The request in slot `idx`, as the worker takes it.
fn take(sh: &Shard, idx: u32) -> RawReq {
    let r = sh.pool.read_req(idx);
    fault::take(r.key);
    r
}

fn serve(sh: &Shard, epoch: Instant, idxs: &mut Vec<u32>) {
    let mut ctx = sh.rt.thread(sh.seed);
    // (op, slot index, arrival position) — the position makes the
    // unstable sort stable, which keeps same-key requests in submission
    // order without the allocating stable sort.
    let mut sorted: Vec<(BatchOp, u32, u32)> = Vec::new();
    let mut ops: Vec<BatchOp> = Vec::new();
    let mut results: Vec<Option<u64>> = Vec::new();
    let mut scratch = BatchScratch::default();
    let max = sh.batch_max;
    let mut eff = max;
    let mut idle = 0u32;
    loop {
        if !pop(sh, eff, idxs) {
            if !pause(sh, &mut idle) {
                break;
            }
            continue;
        }
        idle = 0;

        if idxs.len() > 1 {
            sorted.clear();
            ops.clear();
            let mut scan_singles = 0u64;
            for &idx in idxs.iter() {
                let r = take(sh, idx);
                if r.kind == K_SCAN {
                    exec_scan(sh, &mut ctx, idx, &r, epoch);
                    scan_singles += 1;
                } else {
                    sorted.push((to_batch_op(&r), idx, sorted.len() as u32));
                }
            }
            if !sorted.is_empty() {
                sorted.sort_unstable_by_key(|&(op, _, pos)| (op.key(), pos));
                ops.extend(sorted.iter().map(|&(op, _, _)| op));
                let bstats = sh
                    .tree
                    .apply_batch(&mut ctx, &ops, &mut results, &mut scratch);
                let now = epoch.elapsed().as_nanos() as u64;
                for (&(_, idx, _), &value) in sorted.iter().zip(results.iter()) {
                    finish_point(sh, idx, value, now);
                }
                sh.stats.add(Counter::ServeBatches, 1);
                sh.stats
                    .add(Counter::ServeBatchedOps, ops.len() as u64 - bstats.singles);
                sh.stats
                    .add(Counter::ServeSingleOps, bstats.singles + scan_singles);
                if bstats.singles > 0 {
                    sh.stats.add(Counter::ServeBatchBails, bstats.singles);
                }
                sh.batch_hist.lock().unwrap().record(ops.len() as u64);
                // Adaptive width: a batch that conflict-aborts more than
                // twice per op, or whose members mostly bail back to the
                // serial singles path, collapses toward per-request
                // episodes; clean batches recover one step at a time.
                let thrashed = bstats.conflict_aborts >= 2 * ops.len() as u64
                    || 2 * bstats.singles >= ops.len() as u64;
                if thrashed {
                    if eff > 1 {
                        eff = (eff / 2).max(1);
                        sh.stats.add(Counter::ServeBatchShrinks, 1);
                    }
                } else if bstats.conflict_aborts == 0 && eff < max {
                    eff += 1;
                }
            } else if scan_singles > 0 {
                sh.stats.add(Counter::ServeSingleOps, scan_singles);
            }
        } else {
            let conflicts_before = ctx.stats.aborts.conflicts();
            for &idx in idxs.iter() {
                let r = take(sh, idx);
                match r.kind {
                    K_SCAN => exec_scan(sh, &mut ctx, idx, &r, epoch),
                    _ => {
                        let value = match r.kind {
                            K_GET => sh.tree.get(&mut ctx, r.key),
                            K_PUT => sh.tree.put(&mut ctx, r.key, r.arg),
                            _ => sh.tree.delete(&mut ctx, r.key),
                        };
                        finish_point(sh, idx, value, epoch.elapsed().as_nanos() as u64);
                    }
                }
            }
            sh.stats.add(Counter::ServeSingleOps, idxs.len() as u64);
            // A conflict-free width-1 drain is a clean batch: without this
            // a shard whose width collapsed to 1 could never widen again
            // (the batch branch above needs two requests in one drain).
            if eff < max && ctx.stats.aborts.conflicts() == conflicts_before {
                eff += 1;
            }
        }
    }
}

fn exec_scan(sh: &Shard, ctx: &mut euno_htm::ThreadCtx, idx: u32, r: &RawReq, epoch: Instant) {
    let buf = sh.pool.scan_buf(idx);
    buf.clear();
    sh.tree.scan(ctx, r.key, r.arg as usize, buf);
    finish_point(sh, idx, None, epoch.elapsed().as_nanos() as u64);
}
