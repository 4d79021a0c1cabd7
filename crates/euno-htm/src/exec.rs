//! The layered transaction executor: retry *policy* split from episode
//! *mechanism*.
//!
//! [`ctx`](crate::ctx) owns the mechanism — episodes, footprints, commit
//! and the fallback lock. This module owns everything above it, decomposed
//! into the five stages every HTM region goes through:
//!
//! 1. **attempt** — open an episode, subscribe to the fallback lock, run
//!    the body, try to commit;
//! 2. **classify** — on abort: account the wasted cycles (with the eager
//!    conflict-detection refund), charge the abort penalty, bump the
//!    per-cause tallies;
//! 3. **decide** — ask the [`RetryPolicy`] whether to retry, retry with
//!    backoff, or give up ([`RetryPolicy::decide`]);
//! 4. **backoff** — charge the exponential backoff between retries;
//! 5. **fallback** — serialize on the lock and run the body directly.
//!
//! A region runs on one of two paths (§4.2.1): plain speculation
//! ([`Path::Htm`]) while no per-cause retry budget is exhausted, then the
//! global serialized fallback ([`Path::Fallback`]). Contenders for one key
//! are serialized *before* a region starts — by the CCM's lock bits in the
//! Euno-B+Tree — not by the executor.
//!
//! The executor maintains two kinds of accounting itself: the *cycle and
//! abort-cause* fields of [`ThreadStats`](crate::stats::ThreadStats)
//! (figures 2 and 9 are derived from them) and the stage **counts**
//! (attempts, commits, fallbacks, backoffs) on the thread's `euno-metrics`
//! shard.

use euno_metrics::AbortClass;
use euno_trace::{EpisodeKind, EventKind};

use crate::abort::{AbortCause, ConflictInfo, TxResult};
use crate::ctx::{ThreadCtx, Tx};
use crate::policy::{Decision, RetryCounts, RetryPolicy};
use crate::runtime::Backend;
use crate::word::TxCell;

/// Which of the two execution paths completed a region.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// Plain speculation: an HTM episode with no locks held.
    Htm,
    /// The global serialized fallback (lock held, direct writes).
    Fallback,
}

/// Result of executing one HTM region to completion.
#[derive(Debug)]
pub struct ExecOutcome<R> {
    pub value: R,
    /// Transaction attempts made (≥1).
    pub attempts: u32,
    /// Attempts that aborted due to a footprint conflict.
    pub conflict_aborts: u32,
    /// The path the region ultimately completed on.
    pub path: Path,
}

impl<R> ExecOutcome<R> {
    /// Whether the region ultimately ran on the serialized fallback path.
    pub fn used_fallback(&self) -> bool {
        self.path == Path::Fallback
    }
}

/// One region execution in flight: the stage composition over a fallback
/// cell and a retry policy.
struct Executor<'e> {
    fb: &'e TxCell<u64>,
    policy: &'e RetryPolicy,
    attempt_start: u64,
}

impl Executor<'_> {
    /// Drive `body` through the stage pipeline to completion.
    fn run<R>(
        &mut self,
        ctx: &mut ThreadCtx,
        mut body: impl FnMut(&mut Tx<'_>) -> TxResult<R>,
    ) -> ExecOutcome<R> {
        let mut counts = RetryCounts::default();
        let mut attempts = 0u32;
        let mut conflict_aborts = 0u32;
        // Metric accumulators: plain locals, flushed to the thread's shard
        // in one pass at episode completion (ThreadCtx::metric_episode) so
        // the retry loop itself never touches the shard atomics.
        let mut backoffs = 0u32;
        let mut aborts = [0u32; AbortClass::COUNT];

        loop {
            attempts += 1;
            self.await_fallback(ctx, ThreadCtx::fb_wait_free);
            self.attempt_start = ctx.clock;
            // Stage 1 dispatch: a genuine hardware transaction where the
            // runtime resolved to the RTM backend, the software episode
            // engine otherwise.
            let tried = match ctx.runtime().backend() {
                Backend::Rtm => crate::rtm::attempt(ctx, self.fb, &mut body),
                Backend::Virtual | Backend::Stm => self.attempt(ctx, &mut body),
            };
            match tried {
                Ok(v) => {
                    ctx.metric_commit_episode(attempts, backoffs, &aborts);
                    return ExecOutcome {
                        value: v,
                        attempts,
                        conflict_aborts,
                        path: Path::Htm,
                    };
                }
                Err(cause) => {
                    let wasted = self.classify(ctx, cause, &mut counts, &mut conflict_aborts);
                    ctx.stats.cycles_wasted += wasted;
                    ctx.stats.aborts.record(cause);
                    aborts[cause.class().index()] += 1;
                    match self.policy.decide(&counts) {
                        Decision::Retry { backoff: true } => {
                            backoffs += 1;
                            self.backoff(ctx, &counts)
                        }
                        Decision::Retry { backoff: false } => {}
                        Decision::Fallback => break,
                    }
                }
            }
        }

        ctx.metric_episode(attempts, backoffs, &aborts);
        let value = self.fallback(ctx, &mut body);
        ctx.metric_add(euno_metrics::Counter::Fallbacks, 1);
        ExecOutcome {
            value,
            attempts,
            conflict_aborts,
            path: Path::Fallback,
        }
    }

    /// Run `lock_step` — wait out the fallback lock, or take it — and
    /// attribute what it waited to the fallback-wait stage.
    fn await_fallback(&self, ctx: &mut ThreadCtx, lock_step: fn(&mut ThreadCtx, &TxCell<u64>)) {
        let wait_before = ctx.stats.cycles_lock_wait;
        lock_step(ctx, self.fb);
        let waited = ctx.stats.cycles_lock_wait - wait_before;
        if waited > 0 {
            ctx.stats.cycles_fallback_wait += waited;
            ctx.trace(EventKind::FallbackWait { cycles: waited });
        }
    }

    /// Stage 1: one speculative try — open an HtmTx episode subscribed to
    /// the lock word, run the body, commit.
    fn attempt<R>(
        &mut self,
        ctx: &mut ThreadCtx,
        body: &mut impl FnMut(&mut Tx<'_>) -> TxResult<R>,
    ) -> Result<R, AbortCause> {
        let xbegin = ctx.runtime().cost.xbegin;
        ctx.charge(xbegin);
        ctx.tx_begin(self.fb)?;
        let v = body(&mut Tx { ctx })?;
        let xend = ctx.runtime().cost.xend;
        ctx.charge(xend);
        ctx.htm_commit()?;
        Ok(v)
    }

    /// Stage 2: abort bookkeeping — keep the attempt's speculative writes
    /// hot, close the episode, account wasted cycles (TSX detects
    /// conflicts eagerly: refund half the attempt so retry density matches
    /// mid-flight death), charge the abort penalty, tally the cause.
    /// Returns the wasted cycles (abort penalty included, refund netted).
    fn classify(
        &mut self,
        ctx: &mut ThreadCtx,
        cause: AbortCause,
        counts: &mut RetryCounts,
        conflict_aborts: &mut u32,
    ) -> u64 {
        let line_addr = match cause {
            AbortCause::Conflict(ci) => ci.line.base_addr(),
            _ => 0,
        };
        ctx.trace(EventKind::EpisodeAbort {
            kind: EpisodeKind::HtmTx,
            cause: cause.class(),
            line_addr,
        });
        let wasted_attempt = ctx.attempt_aborted(&cause, self.attempt_start);
        let penalty = ctx.runtime().cost.abort_penalty;
        ctx.charge(penalty);
        if matches!(cause, AbortCause::Conflict(_)) {
            *conflict_aborts += 1;
        }
        counts.bump(cause);
        wasted_attempt + penalty
    }

    /// Stage 4: exponential backoff between retries.
    fn backoff(&mut self, ctx: &mut ThreadCtx, counts: &RetryCounts) {
        let b = ctx.runtime().cost.backoff(counts.total_attempted());
        ctx.charge(b);
        ctx.stats.cycles_wasted += b;
        ctx.stats.cycles_backoff += b;
        ctx.trace(EventKind::Backoff { cycles: b });
    }

    /// Stage 5: serialize on the fallback lock and run the body directly.
    fn fallback<R>(
        &mut self,
        ctx: &mut ThreadCtx,
        body: &mut impl FnMut(&mut Tx<'_>) -> TxResult<R>,
    ) -> R {
        self.await_fallback(ctx, ThreadCtx::fb_acquire);
        ctx.episode_begin(EpisodeKind::Fallback);
        ctx.fallback_mark(self.fb);
        let mut tries = 0;
        let value = loop {
            match body(&mut Tx { ctx }) {
                Ok(v) => break v,
                Err(e) => {
                    tries += 1;
                    assert!(
                        tries < 16,
                        "region body keeps failing on the serialized fallback path: {e:?}"
                    );
                }
            }
        };
        ctx.fallback_publish();
        ctx.fb_release(self.fb);
        value
    }
}

impl ThreadCtx {
    /// Execute `body` as an HTM region under `policy` with a global-lock
    /// fallback (§2.1, §4.2.1).
    ///
    /// `body` may run many times: transactionally (reads validated, writes
    /// buffered) and, after retry exhaustion, once more on the serialized
    /// fallback path where reads/writes are direct. Bodies therefore must
    /// be idempotent up to their tx reads/writes and must not return
    /// `Err` on the fallback path.
    pub fn htm_execute<R>(
        &mut self,
        fb: &TxCell<u64>,
        policy: &RetryPolicy,
        body: impl FnMut(&mut Tx<'_>) -> TxResult<R>,
    ) -> ExecOutcome<R> {
        Executor {
            fb,
            policy,
            attempt_start: 0,
        }
        .run(self, body)
    }

    /// Run one optimistic-read section (Masstree-style before/after
    /// validation) to completion: open an `OptimisticRead` episode, run
    /// `body`, close the episode, and retry — counting
    /// `optimistic_retries` and charging one backoff quantum — until
    /// `body` succeeds and `invalidated` clears the episode's overlap.
    ///
    /// `body` returns `None` when its own validation (version words,
    /// B-link fences) failed; `invalidated` judges the engine-level
    /// overlap that virtual mode reports on episode end.
    pub fn optimistic_execute<R>(
        &mut self,
        op_key: Option<u64>,
        mut invalidated: impl FnMut(Option<ConflictInfo>) -> bool,
        mut body: impl FnMut(&mut ThreadCtx) -> Option<R>,
    ) -> R {
        loop {
            self.episode_begin(EpisodeKind::OptimisticRead);
            if let Some(key) = op_key {
                self.set_op_key(key);
            }
            let attempt = body(self);
            let overlap = self.episode_end_optimistic();
            match attempt {
                Some(v) if !invalidated(overlap) => return v,
                _ => {
                    self.stats.optimistic_retries += 1;
                    self.trace(EventKind::ReadRetry {
                        key: op_key.unwrap_or(0),
                    });
                    let b = self.runtime().cost.backoff_base;
                    self.charge(b);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::Runtime;
    use std::sync::Arc;

    /// No budget for any cause: the first abort escalates.
    const NO_RETRIES: RetryPolicy = RetryPolicy {
        conflict_retries: 0,
        capacity_retries: 0,
        explicit_retries: 0,
        spurious_retries: 0,
        fallback_lock_retries: 0,
        backoff: false,
    };

    fn vctx() -> (Arc<Runtime>, ThreadCtx) {
        let rt = Runtime::new_virtual();
        let ctx = rt.thread(1);
        (rt, ctx)
    }

    #[test]
    fn tx_read_write_commit_applies_buffer() {
        let (_rt, mut ctx) = vctx();
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(5u64);
        let out = ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
            let v = tx.read(&cell)?;
            tx.write(&cell, v + 1)?;
            // Not yet visible outside the buffer...
            Ok(v)
        });
        assert_eq!(out.value, 5);
        assert_eq!(out.path, Path::Htm);
        assert_eq!(out.attempts, 1);
        assert_eq!(cell.load_plain(), 6);
        assert_eq!(ctx.exec_stages().commits, 1);
    }

    #[test]
    fn read_your_own_writes() {
        let (_rt, mut ctx) = vctx();
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(1u64);
        ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
            tx.write(&cell, 10)?;
            assert_eq!(tx.read(&cell)?, 10);
            tx.write(&cell, 20)?;
            assert_eq!(tx.read(&cell)?, 20);
            Ok(())
        });
        assert_eq!(cell.load_plain(), 20);
    }

    #[test]
    fn overlapping_footprints_conflict_in_virtual_time() {
        let rt = Runtime::new_virtual();
        let mut a = rt.thread(1);
        let mut b = rt.thread(2);
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(0u64);
        let policy = RetryPolicy::default();

        // Thread A commits a write covering virtual interval [0, ~small).
        a.htm_execute(&fb, &policy, |tx| tx.write(&cell, 1));
        // Thread B starts at virtual time 0 too (fresh clock) and touches
        // the same line → must suffer at least one conflict abort.
        let out = b.htm_execute(&fb, &policy, |tx| {
            let v = tx.read(&cell)?;
            tx.write(&cell, v + 1)
        });
        assert!(
            out.attempts > 1 || out.path != Path::Htm,
            "expected a conflict abort, got {out:?}"
        );
        assert!(b.stats.aborts.total() >= 1);
        assert_eq!(cell.load_plain(), 2);
    }

    #[test]
    fn disjoint_lines_do_not_conflict() {
        let rt = Runtime::new_virtual();
        let mut a = rt.thread(1);
        let mut b = rt.thread(2);
        let fb = TxCell::new(0u64);
        // Line-aligned allocations: two distinct 64-byte-aligned boxes can
        // never share a cache line (unaligned small boxes can, depending on
        // allocator state).
        #[repr(align(64))]
        struct Padded(TxCell<u64>);
        let x = Box::new(Padded(TxCell::new(0u64)));
        let y = Box::new(Padded(TxCell::new(0u64)));
        assert_ne!(x.0.line(), y.0.line());
        let policy = RetryPolicy::default();
        a.htm_execute(&fb, &policy, |tx| tx.write(&x.0, 1));
        let out = b.htm_execute(&fb, &policy, |tx| tx.write(&y.0, 1));
        assert_eq!(out.attempts, 1);
        assert_eq!(b.stats.aborts.total(), 0);
    }

    #[test]
    fn capacity_abort_falls_back() {
        let rt = Runtime::new(
            Backend::Virtual,
            crate::cost::CostModel {
                write_capacity_lines: 2,
                ..Default::default()
            },
        );
        let mut ctx = rt.thread(1);
        let fb = TxCell::new(0u64);
        let cells: Vec<Box<TxCell<u64>>> = (0..64).map(|_| Box::new(TxCell::new(0u64))).collect();
        let distinct: std::collections::HashSet<_> = cells.iter().map(|c| c.line()).collect();
        assert!(distinct.len() > 2);
        let out = ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
            for c in &cells {
                tx.write(c, 7)?;
            }
            Ok(())
        });
        assert!(out.used_fallback(), "capacity overflow must reach fallback");
        assert!(ctx.stats.aborts[AbortClass::Capacity] >= 1);
        // Fallback applied the writes directly.
        assert!(cells.iter().all(|c| c.load_plain() == 7));
    }

    #[test]
    fn explicit_abort_reaches_fallback() {
        let (_rt, mut ctx) = vctx();
        let fb = TxCell::new(0u64);
        let mut first = true;
        let out = ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
            if !tx.is_fallback() && first {
                first = false;
                return tx.explicit_abort(9);
            }
            Ok(42)
        });
        assert_eq!(out.value, 42);
        assert_eq!(ctx.stats.aborts[AbortClass::Explicit], 1);
    }

    #[test]
    fn clock_advances_with_charges() {
        let (_rt, mut ctx) = vctx();
        let before = ctx.clock;
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(0u64);
        ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| tx.write(&cell, 1));
        assert!(ctx.clock > before);
        assert!(ctx.stats.mem_accesses > 0);
    }

    #[test]
    fn concurrent_mode_commits_and_validates() {
        let rt = Runtime::new_concurrent();
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(0u64);
        let n = 4u64;
        let iters = 200u64;
        std::thread::scope(|s| {
            for t in 0..n {
                let mut ctx = rt.thread(t);
                let (fb, cell) = (&fb, &cell);
                s.spawn(move || {
                    for _ in 0..iters {
                        ctx.htm_execute(fb, &RetryPolicy::default(), |tx| {
                            let v = tx.read(cell)?;
                            tx.write(cell, v + 1)
                        });
                    }
                });
            }
        });
        assert_eq!(
            cell.load_plain(),
            n * iters,
            "increments must not be lost under real concurrency"
        );
    }

    #[test]
    fn fallback_serializes_and_still_updates() {
        // Force every transaction to abort via a zero-retry policy and an
        // always-explicit body on the HTM path.
        let (_rt, mut ctx) = vctx();
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(0u64);
        let out = ctx.htm_execute(&fb, &NO_RETRIES, |tx| {
            if tx.is_fallback() {
                let v = tx.read(&cell)?;
                tx.write(&cell, v + 1)?;
                Ok(())
            } else {
                tx.explicit_abort(1)
            }
        });
        assert!(out.used_fallback());
        assert_eq!(cell.load_plain(), 1);
        assert_eq!(ctx.exec_stages().fallbacks, 1);
        assert_eq!(fb.load_plain(), 0, "fallback lock must be released");
    }

    #[test]
    fn stage_counters_track_backoff_and_fallback_wait() {
        // Conflicting threads: the loser retries with exponential backoff,
        // and the backoff stage counters must record it.
        let rt = Runtime::new_virtual();
        let mut a = rt.thread(1);
        let mut b = rt.thread(2);
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(0u64);
        let policy = RetryPolicy::default();
        a.htm_execute(&fb, &policy, |tx| tx.write(&cell, 1));
        b.htm_execute(&fb, &policy, |tx| {
            let v = tx.read(&cell)?;
            tx.write(&cell, v + 1)
        });
        assert!(
            b.exec_stages().backoffs >= 1,
            "conflict retries must back off"
        );
        assert!(b.stats.cycles_backoff > 0);
        assert!(b.stats.cycles_backoff <= b.stats.cycles_wasted);

        // A fallback run holds the lock in virtual time; the next region
        // on the same lock waits it out, and that wait is attributed to
        // the fallback-wait stage.
        let rt = Runtime::new_virtual();
        let mut holder = rt.thread(3);
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(0u64);
        holder.htm_execute(&fb, &NO_RETRIES, |tx| {
            if tx.is_fallback() {
                let v = tx.read(&cell)?;
                tx.write(&cell, v + 1)
            } else {
                tx.explicit_abort(1)
            }
        });
        let mut waiter = rt.thread(4);
        waiter.htm_execute(&fb, &RetryPolicy::default(), |tx| tx.read(&cell));
        assert!(
            waiter.stats.cycles_fallback_wait > 0,
            "waiting out the fallback lock must be attributed to the stage"
        );
        assert_eq!(
            waiter.stats.cycles_fallback_wait, waiter.stats.cycles_lock_wait,
            "the only lock waited on is the fallback lock: counted exactly once"
        );
    }

    /// The executor's cycle accounting charges each abort and each backoff
    /// to [`ThreadStats`](crate::stats::ThreadStats) exactly once:
    /// everything between two attempt starts is waste, so the clock
    /// distance between the body's first and second entry is precisely
    /// `cycles_wasted` (abort waste + penalty + backoff), of which
    /// `cycles_backoff` is the one backoff quantum.
    #[test]
    fn executor_accounts_abort_and_backoff_cycles_exactly_once() {
        let (rt, mut ctx) = vctx();
        let fb = TxCell::new(0u64);
        let policy = RetryPolicy {
            explicit_retries: 1,
            ..RetryPolicy::DBX
        };
        let mut entries = Vec::new();
        let out = ctx.htm_execute(&fb, &policy, |tx| {
            entries.push(tx.ctx.clock);
            if entries.len() == 1 {
                return tx.explicit_abort(1);
            }
            Ok(())
        });
        assert_eq!(out.path, Path::Htm);
        assert_eq!(out.attempts, 2);
        assert_eq!(ctx.stats.aborts.total(), 1);
        assert_eq!(ctx.stats.aborts[AbortClass::Explicit], 1);
        assert_eq!(ctx.stats.cycles_backoff, rt.cost.backoff(1));
        assert_eq!(ctx.stats.cycles_wasted, entries[1] - entries[0]);
        assert!(
            ctx.stats.cycles_wasted >= ctx.stats.cycles_backoff + rt.cost.abort_penalty,
            "waste covers the backoff and the abort penalty"
        );
        assert_eq!(ctx.stats.cycles_fallback_wait, 0);
    }

    /// The stage counts the report is built from are maintained by the
    /// executor on the thread's metrics shard — exactly once per stage
    /// transition, including the per-backend commit and per-cause abort
    /// breakdowns.
    #[test]
    fn executor_maintains_shard_stage_counters_exactly_once() {
        use euno_metrics::Counter as C;
        let (_rt, mut ctx) = vctx();
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(0u64);
        let mut first = true;
        let out = ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
            if !tx.is_fallback() && first {
                first = false;
                return tx.explicit_abort(1);
            }
            let v = tx.read(&cell)?;
            tx.write(&cell, v + 1)
        });
        // Explicit aborts have no default budget: one attempt, one
        // explicit abort, then the fallback completes the region.
        assert!(out.used_fallback());
        assert_eq!(ctx.metric(C::Attempts), 1);
        assert_eq!(ctx.metric(C::AbortsHtmExplicit), 1);
        assert_eq!(ctx.metric(C::Fallbacks), 1);
        assert_eq!(ctx.metric(C::Commits), 0);

        // A clean commit lands in the total and the per-backend counter
        // exactly once.
        let out = ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
            let v = tx.read(&cell)?;
            tx.write(&cell, v + 1)
        });
        assert_eq!(out.path, Path::Htm);
        assert_eq!(ctx.metric(C::Commits), 1);
        assert_eq!(ctx.metric(C::CommitsVirtual), 1);
        assert_eq!(ctx.metric(C::CommitsStm), 0);
        assert_eq!(ctx.metric(C::Attempts), 2);
    }

    /// The executor's trace stream must pair every `EpisodeBegin` with a
    /// commit or an abort, and record the abort's cause taxonomy.
    #[test]
    fn executor_emits_paired_episode_events() {
        let (_rt, mut ctx) = vctx();
        ctx.set_tracer(Box::new(euno_trace::TraceBuf::with_default_capacity(
            ctx.id,
        )));
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(0u64);
        let mut first = true;
        let out = ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
            if !tx.is_fallback() && first {
                first = false;
                return tx.explicit_abort(3);
            }
            let v = tx.read(&cell)?;
            tx.write(&cell, v + 1)
        });
        assert!(out.used_fallback());

        let trace = ctx.take_tracer().unwrap().into_thread_trace();
        let mut begins = 0u32;
        let mut ends = 0u32;
        let mut explicit_aborts = 0u32;
        let mut fallback_commits = 0u32;
        for ev in &trace.events {
            match ev.kind {
                EventKind::EpisodeBegin { .. } => begins += 1,
                EventKind::EpisodeCommit { kind } => {
                    ends += 1;
                    if kind == EpisodeKind::Fallback {
                        fallback_commits += 1;
                    }
                }
                EventKind::EpisodeAbort { cause, .. } => {
                    ends += 1;
                    if cause == AbortClass::Explicit {
                        explicit_aborts += 1;
                    }
                }
                _ => {}
            }
        }
        assert_eq!(begins, 2, "one HTM attempt + one fallback episode");
        assert_eq!(begins, ends, "every begin pairs with a commit or abort");
        assert_eq!(explicit_aborts, 1);
        assert_eq!(fallback_commits, 1);
        // The fallback path also records its lock acquire/release.
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::LockAcquire { .. })));
        assert!(trace
            .events
            .iter()
            .any(|e| matches!(e.kind, EventKind::LockRelease { .. })));
    }

    #[test]
    fn exhausted_budget_escalates_to_fallback() {
        // One abort past a zero budget: the next decision is the global
        // fallback, after exactly one speculative attempt.
        let (_rt, mut ctx) = vctx();
        let fb = TxCell::new(0u64);
        let cell = TxCell::new(0u64);
        let mut first = true;
        let out = ctx.htm_execute(&fb, &NO_RETRIES, |tx| {
            if !tx.is_fallback() && first {
                first = false;
                return tx.explicit_abort(1);
            }
            let v = tx.read(&cell)?;
            tx.write(&cell, v + 1)
        });
        assert_eq!(out.path, Path::Fallback);
        assert_eq!(out.attempts, 1);
        assert_eq!(ctx.metric(euno_metrics::Counter::Fallbacks), 1);
        assert_eq!(ctx.exec_stages().commits, 0);
        assert_eq!(cell.load_plain(), 1);
    }

    #[test]
    fn optimistic_execute_counts_retries() {
        let (_rt, mut ctx) = vctx();
        let mut tries = 0;
        let v = ctx.optimistic_execute(
            Some(7),
            |_| false,
            |_ctx| {
                tries += 1;
                if tries < 3 {
                    None
                } else {
                    Some(99u64)
                }
            },
        );
        assert_eq!(v, 99);
        assert_eq!(ctx.stats.optimistic_retries, 2);
    }
}
