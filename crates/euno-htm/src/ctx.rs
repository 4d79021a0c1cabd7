//! Per-thread execution contexts, episodes and the HTM region executor.
//!
//! A [`ThreadCtx`] is the handle through which one (virtual or OS) thread
//! touches shared state. All instrumented accesses flow through it so the
//! engine can
//!
//! * maintain the current *episode*'s cache-line footprint,
//! * charge virtual cycles from the [`CostModel`](crate::cost::CostModel),
//! * validate / conflict-check / commit HTM transactions, and
//! * keep the per-thread statistics the paper's figures are built from.
//!
//! An **episode** is any instrumented span: an HTM transaction attempt, a
//! fallback critical section, a Masstree-style optimistic read, or a locked
//! write section. HTM transactions add write-buffering and abort semantics
//! on top of the shared footprint machinery.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use euno_rng::{Rng, SmallRng};
use euno_trace::{codes, EventKind, TraceBuf};

use crate::abort::{AbortCause, ConflictInfo, ConflictKind, TxResult};
use crate::hint::{Anchor, Hint, HintTable, ANCHOR_WORDS, HINT_WORDS};
use crate::line::{LineId, LineSet};
use crate::obs::{OpKind, OpObserver, OpOutput};
use crate::runtime::{EpisodeRecord, Mode, Runtime};
use crate::stats::ThreadStats;
use crate::word::{TxCell, TxWord};

/// Raw cell pointer usable across the engine's internal logs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct CellPtr(pub *const AtomicU64);
// Safety: logs never outlive the operation; cells outlive operations
// (trees pin an epoch around every operation, and retired nodes are freed
// only after a grace period covering any operation that could have logged
// their cells — see `crate::epoch`).
unsafe impl Send for CellPtr {}

/// What kind of instrumented span is running.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpisodeKind {
    /// A hardware-transaction attempt: write-buffered, abortable.
    HtmTx,
    /// The serialized fallback path of an HTM region (lock held).
    Fallback,
    /// A version-validated optimistic read section (Masstree §4.6).
    OptimisticRead,
    /// An in-place write section under a per-node lock.
    LockedWrite,
}

pub(crate) struct EpisodeState {
    kind: EpisodeKind,
    start: u64,
    /// TL2 read version (concurrent mode): every read observed so far is
    /// consistent as of this point of the global clock. Extended forward
    /// (with revalidation) when a read finds a newer line version.
    rv: u64,
    op_key: Option<u64>,
    reads: LineSet,
    writes: LineSet,
    /// TL2 read log: each read line with the version-lock word's version
    /// at first read. Validation compares versions — never cell values —
    /// so reuse of retired memory with equal bytes cannot validate.
    ver_log: Vec<(LineId, u64)>,
    write_buf: Vec<(CellPtr, u64)>,
    /// Commit scratch: sorted, deduplicated version-table slot indices of
    /// the write footprint (kept per-episode so steady-state commits
    /// allocate nothing).
    wslots: Vec<u32>,
    /// Subscribed fallback lock (for abort-cause attribution).
    fb_line: Option<LineId>,
    fb_ptr: Option<CellPtr>,
    /// The episode runs under an advisory lock that serializes its
    /// contenders: storm extrapolation is skipped (the writers feeding the
    /// line heat are queued behind the lock, not concurrent).
    serialized: bool,
}

impl EpisodeState {
    fn new(kind: EpisodeKind, start: u64, rv: u64) -> Box<Self> {
        Box::new(EpisodeState {
            kind,
            start,
            rv,
            op_key: None,
            reads: LineSet::with_capacity(16),
            writes: LineSet::with_capacity(8),
            ver_log: Vec::with_capacity(32),
            write_buf: Vec::with_capacity(8),
            wslots: Vec::with_capacity(8),
            fb_line: None,
            fb_ptr: None,
            serialized: false,
        })
    }

    /// Re-arm a recycled episode. The footprints and logs were cleared by
    /// [`ThreadCtx::recycle`]; only the header fields need stamping.
    fn reset(&mut self, kind: EpisodeKind, start: u64, rv: u64) {
        self.kind = kind;
        self.start = start;
        self.rv = rv;
        self.op_key = None;
        self.fb_line = None;
        self.fb_ptr = None;
        self.serialized = false;
    }
}

/// Per-thread execution handle. Create via [`Runtime::thread`].
pub struct ThreadCtx {
    pub(crate) rt: Arc<Runtime>,
    /// Stable thread id (also used for conflict attribution).
    pub id: u32,
    /// Virtual cycle clock. In concurrent mode it still accumulates and
    /// serves as a work-cycle counter.
    pub clock: u64,
    pub stats: ThreadStats,
    pub(crate) rng: SmallRng,
    /// A real hardware (RTM) transaction is executing on this thread: all
    /// `Tx` accesses degrade to plain atomic loads/stores — the silicon
    /// does conflict detection, buffering and rollback. Set and cleared
    /// only by the executor's hardware attempt (`hw-rtm` feature); always
    /// `false` otherwise. The flag itself is speculative state: set
    /// inside the transaction, a hardware abort rolls it back.
    pub(crate) hw_txn: bool,
    /// The running hardware transaction issued at least one `Tx::write`.
    /// The executor bumps `Runtime::seq` inside the transaction for
    /// writing bodies (so episode-free optimistic readers see the
    /// commit); speculative like `hw_txn` — rolled back on abort.
    pub(crate) hw_wrote: bool,
    ep: Option<Box<EpisodeState>>,
    /// Scratch pool: the one recycled episode box. Episodes are strictly
    /// non-nested, so a single slot makes every steady-state
    /// `episode_begin` allocation-free (the box, its footprint sets and
    /// its logs are all reused with their capacities intact).
    spare: Option<Box<EpisodeState>>,
    /// Optional operation-history observer (see [`crate::obs`]).
    obs: Option<Box<dyn OpObserver>>,
    /// Optional trace ring buffer (see `euno-trace`). Like `obs`, the
    /// hot-path cost with no buffer installed is one branch.
    tracer: Option<Box<TraceBuf>>,
    /// This thread's epoch-reclamation participant (see [`crate::epoch`]):
    /// trees pin it around every operation via
    /// [`ThreadCtx::epoch_enter`]/[`ThreadCtx::epoch_exit`].
    reclaim: crate::epoch::Participant,
    /// Unpin counter driving the opportunistic collection cadence.
    reclaim_ticks: u64,
    /// This thread's hint caches (see [`crate::hint`]): scratch like
    /// `spare`, both allocated by the first record into either.
    hints: HintTable<HINT_WORDS>,
    anchors: HintTable<ANCHOR_WORDS>,
    /// This thread's metrics shard (see `euno-metrics`): single-writer
    /// atomic counters the sampler reads concurrently. `None` when the
    /// runtime's registry is disabled — every hook is then one branch.
    shard: Option<Arc<euno_metrics::ThreadShard>>,
    /// Per-backend commit counter, resolved once at registration: the
    /// runtime's mode and RTM availability are fixed at construction, so
    /// the commit hot path skips the match.
    backend_commit: euno_metrics::Counter,
}

/// Run a reclamation pass every this many operation unpins per thread:
/// frequent enough that garbage drains within a few hundred operations,
/// rare enough that the (mutex-protected) slot scan stays off the hot path.
const EPOCH_COLLECT_EVERY: u64 = 64;

/// Map an [`EpisodeKind`] to its `euno-trace` code point.
#[inline]
pub(crate) fn trace_episode_code(kind: EpisodeKind) -> u8 {
    match kind {
        EpisodeKind::HtmTx => codes::EP_HTM_TX,
        EpisodeKind::Fallback => codes::EP_FALLBACK,
        EpisodeKind::OptimisticRead => codes::EP_OPTIMISTIC_READ,
        EpisodeKind::LockedWrite => codes::EP_LOCKED_WRITE,
    }
}

/// Map a [`ConflictKind`] to its `euno-trace` abort-cause code point.
#[inline]
pub(crate) fn trace_conflict_code(kind: ConflictKind) -> u8 {
    match kind {
        ConflictKind::TrueSameRecord => codes::AB_CONFLICT_TRUE,
        ConflictKind::FalseDifferentRecord => codes::AB_CONFLICT_FALSE_RECORD,
        ConflictKind::FalseMetadata => codes::AB_CONFLICT_FALSE_METADATA,
        ConflictKind::FalseStructure => codes::AB_CONFLICT_FALSE_STRUCTURE,
        ConflictKind::Unclassified => codes::AB_CONFLICT_UNCLASSIFIED,
    }
}

/// Map an [`AbortCause`] to its abort-bucket index — the same order as
/// [`AbortCounts`](crate::stats::AbortCounts)'s fields and the
/// `euno_metrics::ABORTS_HTM` counter array.
pub(crate) fn abort_bucket(cause: &AbortCause) -> usize {
    match cause {
        AbortCause::Conflict(ci) => match ci.kind {
            ConflictKind::TrueSameRecord => 0,
            ConflictKind::FalseDifferentRecord => 1,
            ConflictKind::FalseMetadata => 2,
            ConflictKind::FalseStructure => 3,
            ConflictKind::Unclassified => 4,
        },
        AbortCause::Capacity => 5,
        AbortCause::Explicit(_) => 6,
        AbortCause::Spurious => 7,
        AbortCause::FallbackLocked => 8,
    }
}

/// Map an [`AbortCause`] to its `euno-trace` code point plus the
/// conflicting line's base address (0 when the cause carries none).
pub(crate) fn trace_abort_code(cause: &AbortCause) -> (u8, u64) {
    match cause {
        AbortCause::Conflict(ci) => (trace_conflict_code(ci.kind), ci.line.base_addr()),
        AbortCause::Capacity => (codes::AB_CAPACITY, 0),
        AbortCause::Explicit(_) => (codes::AB_EXPLICIT, 0),
        AbortCause::Spurious => (codes::AB_SPURIOUS, 0),
        AbortCause::FallbackLocked => (codes::AB_FALLBACK_LOCKED, 0),
    }
}

impl ThreadCtx {
    pub(crate) fn new(rt: Arc<Runtime>, id: u32, seed: u64) -> Self {
        let reclaim = rt.epoch().register();
        let shard = rt.metrics().register_shard();
        let backend_commit = match rt.mode() {
            Mode::Virtual => euno_metrics::Counter::CommitsVirtual,
            Mode::Concurrent => {
                if rt.rtm_active() {
                    euno_metrics::Counter::CommitsRtm
                } else {
                    euno_metrics::Counter::CommitsStm
                }
            }
        };
        ThreadCtx {
            rt,
            id,
            clock: 0,
            stats: ThreadStats::default(),
            rng: SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            hw_txn: false,
            hw_wrote: false,
            ep: None,
            spare: None,
            obs: None,
            tracer: None,
            reclaim,
            reclaim_ticks: 0,
            hints: HintTable::default(),
            anchors: HintTable::default(),
            shard,
            backend_commit,
        }
    }

    /// Install an operation-history observer (replacing any previous one).
    pub fn set_op_observer(&mut self, obs: Box<dyn OpObserver>) {
        self.obs = Some(obs);
    }

    /// Remove and return the installed observer, if any. Dropping the
    /// context also drops (and thereby flushes) the observer.
    pub fn take_op_observer(&mut self) -> Option<Box<dyn OpObserver>> {
        self.obs.take()
    }

    /// Install a trace ring buffer (replacing any previous one). Events
    /// are recorded with this thread's clock as the timestamp; emission
    /// never charges cycles or touches the RNG, so installing a tracer
    /// does not perturb the deterministic virtual-time schedule.
    pub fn set_tracer(&mut self, buf: Box<TraceBuf>) {
        self.tracer = Some(buf);
    }

    /// Remove and return the trace buffer for collection, if any.
    pub fn take_tracer(&mut self) -> Option<Box<TraceBuf>> {
        self.tracer.take()
    }

    /// Whether a trace buffer is installed.
    #[inline]
    pub fn tracing(&self) -> bool {
        self.tracer.is_some()
    }

    /// Record one trace event. With no buffer installed this is a single
    /// branch — the instrumentation points stay in the hot paths
    /// permanently, matching the `OpObserver` contract.
    #[inline]
    pub fn trace(&mut self, kind: EventKind) {
        if let Some(t) = self.tracer.as_mut() {
            t.push(self.clock, self.id, kind);
        }
    }

    // ================= always-on metrics (euno-metrics) =================

    /// Bump one metrics counter on this thread's shard. With the registry
    /// disabled this is a single branch — the instrumentation points stay
    /// in the hot paths permanently, like `trace`. Metrics never charge
    /// cycles and never touch the RNG, so they are schedule-neutral.
    #[inline]
    pub fn metric_add(&self, c: euno_metrics::Counter, n: u64) {
        if let Some(s) = self.shard.as_ref() {
            s.add(c, n);
        }
    }

    /// Read one counter back from this thread's shard (tests, drivers).
    #[inline]
    pub fn metric(&self, c: euno_metrics::Counter) -> u64 {
        self.shard.as_ref().map_or(0, |s| s.get(c))
    }

    /// This thread's executor-stage counters (attempts/commits/fallbacks/…)
    /// as one struct, read from the metrics shard.
    pub fn exec_stages(&self) -> euno_metrics::ExecStages {
        self.shard
            .as_ref()
            .map(|s| s.exec_stages())
            .unwrap_or_default()
    }

    /// Record one operation latency (virtual cycles or wall µs) into this
    /// thread's shard histogram.
    #[inline]
    pub fn metric_record_latency(&self, v: u64) {
        if let Some(s) = self.shard.as_ref() {
            s.record_latency(v);
        }
    }

    /// Snapshot this shard's counters so a warmup span can be rolled back
    /// (paired with [`ThreadCtx::metrics_restore`]); symmetric with the
    /// `ThreadStats` clone/restore the harness already does.
    pub fn metrics_mark(&self) -> Option<euno_metrics::ShardMark> {
        self.shard.as_ref().map(|s| s.mark())
    }

    /// Roll the shard's counters back to a [`ThreadCtx::metrics_mark`].
    pub fn metrics_restore(&self, mark: &Option<euno_metrics::ShardMark>) {
        if let (Some(s), Some(m)) = (self.shard.as_ref(), mark.as_ref()) {
            s.restore(m);
        }
    }

    /// Record one CCM bypass-state flip: directional counters on the shard
    /// plus a timestamped event in the registry's flip log (from which the
    /// sampler derives the adaptation-lag metric).
    pub fn metric_flip(&self, addr: u64, bypass: bool) {
        if let Some(s) = self.shard.as_ref() {
            s.add(euno_metrics::Counter::CcmBypassFlips, 1);
            s.add(
                if bypass {
                    euno_metrics::Counter::CcmFlipsToBypass
                } else {
                    euno_metrics::Counter::CcmFlipsToProtect
                },
                1,
            );
            self.rt.metrics().record_flip(self.clock, addr, bypass);
        }
    }

    /// Flush a committed episode's batched executor counters to the shard
    /// in a single pass: commit counters (total, per-backend) plus the
    /// retry-loop accumulators. The retry loop counts attempts / backoffs
    /// / per-cause aborts in plain executor locals, so the per-iteration
    /// hot path costs no shard traffic at all; only episode completion
    /// touches the atomics, and a first-try commit — the common case — is
    /// three counter bumps behind one branch.
    #[inline]
    pub(crate) fn metric_commit_episode(
        &self,
        attempts: u32,
        backoffs: u32,
        aborts: &[u32; euno_metrics::ABORT_BUCKETS],
    ) {
        use euno_metrics::Counter as C;
        if let Some(s) = self.shard.as_ref() {
            s.add(C::Commits, 1);
            s.add(self.backend_commit, 1);
            s.add(C::Attempts, u64::from(attempts));
            if attempts == 1 {
                // First-try commit: no aborts, no backoffs (each implies
                // a second attempt) — skip the bucket scan.
                return;
            }
            Self::episode_tail(s, backoffs, aborts);
        }
    }

    /// Flush an episode that escalated to the fallback path (no commit
    /// counters — the serial section is counted separately as a Fallback).
    #[inline]
    pub(crate) fn metric_episode(
        &self,
        attempts: u32,
        backoffs: u32,
        aborts: &[u32; euno_metrics::ABORT_BUCKETS],
    ) {
        if let Some(s) = self.shard.as_ref() {
            s.add(euno_metrics::Counter::Attempts, u64::from(attempts));
            Self::episode_tail(s, backoffs, aborts);
        }
    }

    /// Shared slow tail of the episode flush: the conditional counters an
    /// aborted-at-least-once episode may have accumulated.
    fn episode_tail(
        s: &euno_metrics::ThreadShard,
        backoffs: u32,
        aborts: &[u32; euno_metrics::ABORT_BUCKETS],
    ) {
        if backoffs > 0 {
            s.add(euno_metrics::Counter::Backoffs, u64::from(backoffs));
        }
        for (i, &n) in aborts.iter().enumerate() {
            if n > 0 {
                s.add(euno_metrics::ABORTS_HTM[i], u64::from(n));
            }
        }
    }

    /// Announce an operation invocation to the observer, if installed.
    #[inline]
    pub fn observe_invoke(&mut self, kind: OpKind, key: u64, arg: u64) {
        if let Some(obs) = self.obs.as_mut() {
            obs.on_invoke(self.id, kind, key, arg);
        }
    }

    /// Announce the last invoked operation's response to the observer.
    #[inline]
    pub fn observe_response(&mut self, output: OpOutput) {
        if let Some(obs) = self.obs.as_mut() {
            obs.on_response(self.id, output);
        }
    }

    #[inline]
    pub fn runtime(&self) -> &Arc<Runtime> {
        &self.rt
    }

    #[inline]
    pub fn mode(&self) -> Mode {
        self.rt.mode()
    }

    /// Charge `cycles` of plain work to this thread's virtual clock.
    #[inline]
    pub fn charge(&mut self, cycles: u64) {
        self.clock += cycles;
    }

    /// Account one *failed* CAS attempt without touching memory: the
    /// virtual-time lock paths never execute the losing CASes a concurrent
    /// spinner issues (the hold-time model skips straight to the release
    /// point), so they charge the attempt explicitly to keep `cas_ops` and
    /// cycle accounting symmetric across modes.
    #[inline]
    pub fn charge_cas_miss(&mut self) {
        self.stats.cas_ops += 1;
        self.clock += self.rt.cost.cas;
    }

    /// Deterministic per-thread random source (the engine's abort-model
    /// draws, the tree's sampled two-step get, workload drivers).
    #[inline]
    pub fn rng(&mut self) -> &mut SmallRng {
        &mut self.rng
    }

    /// Snapshot the clock into the stats (drivers call this at run end).
    pub fn finish(&mut self) {
        self.stats.cycles_total = self.clock;
    }

    // ================= epoch reclamation =================

    /// Pin this thread to the current epoch. Trees call this at the top of
    /// every `ConcurrentMap` operation so any node reachable during the
    /// operation survives until the matching [`ThreadCtx::epoch_exit`].
    /// Re-entrant (an operation that triggers maintenance pins again);
    /// charges no cycles and draws no randomness, so the virtual-time
    /// schedule is unaffected.
    #[inline]
    pub fn epoch_enter(&mut self) {
        self.reclaim.enter(self.rt.epoch());
    }

    /// Undo one [`ThreadCtx::epoch_enter`]. The outermost exit unpins and,
    /// on a fixed cadence, runs a collection pass — advancing the global
    /// epoch and freeing matured garbage — so reclamation needs no
    /// background thread.
    pub fn epoch_exit(&mut self) {
        self.reclaim.exit();
        if !self.reclaim.pinned() {
            self.reclaim_ticks += 1;
            if self.reclaim_ticks.is_multiple_of(EPOCH_COLLECT_EVERY) {
                let out = self.rt.epoch().collect();
                if let Some(epoch) = out.advanced_to {
                    self.trace(EventKind::EpochAdvance { epoch });
                }
                if out.freed > 0 {
                    self.trace(EventKind::EpochReclaim {
                        nodes: out.freed as u64,
                        bytes: out.freed_bytes as u64,
                    });
                }
            }
        }
    }

    /// Whether this thread currently holds an epoch pin.
    #[inline]
    pub fn epoch_pinned(&self) -> bool {
        self.reclaim.pinned()
    }

    // ================= hint caches =================

    /// Look `(owner, block)` up in this thread's table of [`Hint`]s. The
    /// memory is thread-private and uninstrumented, so the probe is charged
    /// by hand: one cache hit, plus the hash and the tag compare.
    #[inline]
    pub fn hint_probe(&mut self, owner: u64, block: u64) -> Option<Hint> {
        self.clock += self.rt.cost.access_hit + 2 * self.rt.cost.alu;
        self.hints.probe(owner, block)
    }

    /// Record `words` for `(owner, block)`, replacing the slot's entry.
    /// Charged one cache hit: the slot index was paid for by the probe
    /// that missed. The first record of a thread — of either kind —
    /// allocates both tables.
    #[inline]
    pub fn hint_record(&mut self, owner: u64, block: u64, words: Hint) {
        self.clock += self.rt.cost.access_hit;
        self.anchors.reserve();
        self.hints.record(owner, block, words);
    }

    /// [`ThreadCtx::hint_probe`] on this thread's table of [`Anchor`]s.
    /// The two tables share nothing but their shape: an owner files under
    /// block sizes of its own choosing in each.
    #[inline]
    pub fn anchor_probe(&mut self, owner: u64, block: u64) -> Option<Anchor> {
        self.clock += self.rt.cost.access_hit + 2 * self.rt.cost.alu;
        self.anchors.probe(owner, block)
    }

    /// [`ThreadCtx::hint_record`] on this thread's table of [`Anchor`]s.
    #[inline]
    pub fn anchor_record(&mut self, owner: u64, block: u64, words: Anchor) {
        self.clock += self.rt.cost.access_hit;
        self.hints.reserve();
        self.anchors.record(owner, block, words);
    }

    // ================= footprint & charging =================

    /// Record one instrumented access; charges cycles; enforces HTM
    /// capacity limits.
    #[inline]
    fn note_access(&mut self, line: LineId, is_write: bool) -> Result<(), AbortCause> {
        self.stats.mem_accesses += 1;
        let cost = &self.rt.cost;
        if let Some(ep) = self.ep.as_mut() {
            // Concurrent mode never consults an optimistic section's
            // footprint — `episode_end_optimistic` recycles it unread;
            // staleness is the caller's version protocol. Skip the
            // read-set insert: big optimistic episodes (batched chunk
            // descents) would otherwise spill the inline `LineSet` and
            // pay a sorted-insert memmove per access. Every access is
            // charged as a first touch — optimistic descents touch
            // mostly fresh lines, and concurrent-mode cycle counts are
            // diagnostic, not the simulation clock.
            if ep.kind == EpisodeKind::OptimisticRead && self.rt.mode() != Mode::Virtual {
                self.clock += cost.plain_first_touch;
                return Ok(());
            }
            let newly = if is_write {
                ep.writes.insert(line)
            } else {
                ep.reads.insert(line)
            };
            // An optimistic read section executes plain loads — no
            // transactional read-set insertion on a fresh line — so it
            // pays the cheaper plain first touch. The footprint is still
            // recorded: virtual-mode conflict-window detection needs it.
            let first_touch = if ep.kind == EpisodeKind::OptimisticRead {
                cost.plain_first_touch
            } else {
                cost.line_first_touch
            };
            self.clock += if newly { first_touch } else { cost.access_hit };
            if ep.kind == EpisodeKind::HtmTx
                && (ep.writes.len() > cost.write_capacity_lines
                    || ep.reads.len() > cost.read_capacity_lines)
            {
                return Err(AbortCause::Capacity);
            }
        } else {
            self.clock += cost.access_hit;
        }
        Ok(())
    }

    // ================= direct (non-transactional) accesses =================

    #[inline]
    pub(crate) fn direct_load(&mut self, ptr: *const AtomicU64) -> u64 {
        debug_assert!(
            self.ep
                .as_ref()
                .is_none_or(|e| e.kind != EpisodeKind::HtmTx),
            "direct access inside an HTM transaction: use Tx::read/write"
        );
        let _ = self.note_access(LineId::of_ptr(ptr), false);
        unsafe { (*ptr).load(Ordering::Acquire) }
    }

    /// Concurrent-mode counterpart of [`ThreadCtx::publish_point_write`]:
    /// make a direct (unbuffered) write visible to TL2 validation by
    /// advancing the global clock and raising the line's version slot to
    /// the new clock value. Applies to *every* non-quiet direct write —
    /// in-place writes under node locks and fallback-section stores
    /// bypass the commit protocol. Anchoring the bump to `rt.seq`
    /// (rather than a local `+1`) is load-bearing twice over:
    ///
    /// * slot versions can never exceed the clock, so a committer whose
    ///   `wv` is below a bump-inflated slot version is releasing after a
    ///   strictly *later* clock tick than anything a pre-commit reader
    ///   logged — the commit cannot become version-invisible
    ///   ([`crate::lock::VersionTable::unlock_commit`]);
    /// * any post-snapshot direct write yields `ver > rv` at the next
    ///   `tl2_read`, forcing the extension revalidation — so even a
    ///   read-only transaction (which has no commit-time validation)
    ///   aborts rather than spanning a multi-line direct update.
    #[inline]
    fn bump_line_version(&self, line: LineId) {
        if self.rt.mode() == Mode::Concurrent {
            let ver = self.rt.seq.fetch_add(1, Ordering::SeqCst) + 1;
            self.rt.vlocks.bump_line_to(line, ver);
        }
    }

    #[inline]
    pub(crate) fn direct_store(&mut self, ptr: *const AtomicU64, v: u64) {
        debug_assert!(
            self.ep
                .as_ref()
                .is_none_or(|e| e.kind != EpisodeKind::HtmTx),
            "direct access inside an HTM transaction: use Tx::read/write"
        );
        let _ = self.note_access(LineId::of_ptr(ptr), true);
        let in_episode = self.ep.is_some();
        unsafe { (*ptr).store(v, Ordering::Release) };
        self.bump_line_version(LineId::of_ptr(ptr));
        if !in_episode {
            self.publish_point_write(LineId::of_ptr(ptr));
        }
    }

    #[inline]
    pub(crate) fn direct_cas(&mut self, ptr: *const AtomicU64, old: u64, new: u64) -> bool {
        self.stats.cas_ops += 1;
        self.charge(self.rt.cost.cas);
        let _ = self.note_access(LineId::of_ptr(ptr), true);
        let ok = unsafe {
            (*ptr)
                .compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        };
        if ok {
            self.bump_line_version(LineId::of_ptr(ptr));
            if self.ep.is_none() {
                self.publish_point_write(LineId::of_ptr(ptr));
            }
        }
        ok
    }

    #[inline]
    pub(crate) fn direct_store_quiet(&mut self, ptr: *const AtomicU64, v: u64) {
        let _ = self.note_access(LineId::of_ptr(ptr), true);
        unsafe { (*ptr).store(v, Ordering::Release) };
    }

    #[inline]
    pub(crate) fn direct_cas_quiet(&mut self, ptr: *const AtomicU64, old: u64, new: u64) -> bool {
        self.stats.cas_ops += 1;
        self.charge(self.rt.cost.cas);
        let _ = self.note_access(LineId::of_ptr(ptr), true);
        unsafe {
            (*ptr)
                .compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
        }
    }

    pub(crate) fn direct_fetch_or(&mut self, ptr: *const AtomicU64, bits: u64) -> u64 {
        self.stats.cas_ops += 1;
        self.charge(self.rt.cost.cas);
        let _ = self.note_access(LineId::of_ptr(ptr), true);
        let prev = unsafe { (*ptr).fetch_or(bits, Ordering::AcqRel) };
        self.bump_line_version(LineId::of_ptr(ptr));
        if self.ep.is_none() {
            self.publish_point_write(LineId::of_ptr(ptr));
        }
        prev
    }

    pub(crate) fn direct_fetch_and(&mut self, ptr: *const AtomicU64, bits: u64) -> u64 {
        self.stats.cas_ops += 1;
        self.charge(self.rt.cost.cas);
        let _ = self.note_access(LineId::of_ptr(ptr), true);
        let prev = unsafe { (*ptr).fetch_and(bits, Ordering::AcqRel) };
        self.bump_line_version(LineId::of_ptr(ptr));
        if self.ep.is_none() {
            self.publish_point_write(LineId::of_ptr(ptr));
        }
        prev
    }

    pub(crate) fn direct_fetch_add(&mut self, ptr: *const AtomicU64, n: u64) -> u64 {
        self.stats.cas_ops += 1;
        self.charge(self.rt.cost.cas);
        let _ = self.note_access(LineId::of_ptr(ptr), true);
        let prev = unsafe { (*ptr).fetch_add(n, Ordering::AcqRel) };
        self.bump_line_version(LineId::of_ptr(ptr));
        if self.ep.is_none() {
            self.publish_point_write(LineId::of_ptr(ptr));
        }
        prev
    }

    /// Strong atomicity in virtual mode: a bare (outside any episode)
    /// direct write is published as a zero-width committed episode so it
    /// aborts overlapping transactions whose footprint contains the line —
    /// exactly what a coherence invalidation does to a TSX transaction.
    fn publish_point_write(&mut self, line: LineId) {
        if self.rt.mode() != Mode::Virtual {
            return;
        }
        let mut writes = LineSet::with_capacity(1);
        writes.insert(line);
        self.rt.virt_commit(EpisodeRecord {
            start: self.clock.saturating_sub(self.rt.cost.cas),
            end: self.clock,
            thread: self.id,
            op_key: None,
            reads: LineSet::new(),
            writes,
        });
    }

    // ================= episodes =================

    /// Open an instrumented span. Panics if one is already open (RTM
    /// flattens nested transactions; the engine forbids nesting outright).
    pub fn episode_begin(&mut self, kind: EpisodeKind) {
        assert!(self.ep.is_none(), "episode nesting is not supported");
        let rv = if self.rt.mode() == Mode::Concurrent && kind == EpisodeKind::HtmTx {
            // TL2: sample the global version clock. No waiting — in-flight
            // commits are detected per line via the version-lock table.
            self.rt.seq.load(Ordering::SeqCst)
        } else {
            0
        };
        self.ep = Some(match self.spare.take() {
            Some(mut ep) => {
                ep.reset(kind, self.clock, rv);
                ep
            }
            None => {
                self.stats.episode_pool_allocs += 1;
                EpisodeState::new(kind, self.clock, rv)
            }
        });
        self.trace(EventKind::EpisodeBegin {
            kind: trace_episode_code(kind),
        });
    }

    /// Return a closed episode's scratch buffers to the per-thread pool so
    /// the next [`ThreadCtx::episode_begin`] is allocation-free.
    fn recycle(&mut self, mut ep: Box<EpisodeState>) {
        ep.reads.clear();
        ep.writes.clear();
        ep.ver_log.clear();
        ep.write_buf.clear();
        ep.wslots.clear();
        self.spare = Some(ep);
    }

    /// Tag the current episode with the operation's target key (true- vs
    /// false-conflict classification).
    pub fn set_op_key(&mut self, key: u64) {
        if let Some(ep) = self.ep.as_mut() {
            ep.op_key = Some(key);
        }
    }

    /// Declare that the current episode's contenders are serialized by an
    /// advisory lock held by this thread (see `EpisodeState::serialized`).
    pub fn set_serialized(&mut self) {
        if let Some(ep) = self.ep.as_mut() {
            ep.serialized = true;
        }
    }

    pub fn episode_kind(&self) -> Option<EpisodeKind> {
        self.ep.as_ref().map(|e| e.kind)
    }

    /// Discard the current episode (abort / retry path).
    pub fn episode_abort(&mut self) {
        if let Some(ep) = self.ep.take() {
            self.recycle(ep);
        }
    }

    /// Close an [`EpisodeKind::OptimisticRead`]: in virtual mode, report a
    /// collision with any overlapping committed writer (the version change
    /// a Masstree reader would observe); in concurrent mode the caller's
    /// own version protocol detects staleness and this returns `None`.
    pub fn episode_end_optimistic(&mut self) -> Option<ConflictInfo> {
        let out = self.episode_end_optimistic_inner();
        match &out {
            None => self.trace(EventKind::EpisodeCommit {
                kind: codes::EP_OPTIMISTIC_READ,
            }),
            Some(ci) => self.trace(EventKind::EpisodeAbort {
                kind: codes::EP_OPTIMISTIC_READ,
                cause: trace_conflict_code(ci.kind),
                line_addr: ci.line.base_addr(),
            }),
        }
        out
    }

    fn episode_end_optimistic_inner(&mut self) -> Option<ConflictInfo> {
        let rt = Arc::clone(&self.rt);
        let ep = self.ep.take().expect("no open episode");
        debug_assert_eq!(ep.kind, EpisodeKind::OptimisticRead);
        if rt.mode() != Mode::Virtual {
            self.recycle(ep);
            return None;
        }
        // One `virt` acquisition covers the transfer charge, the window
        // check and the storm draw (the episode-closing hot path used to
        // take the mutex once per step).
        let virt = rt.virt.lock().unwrap();
        let transfer =
            virt.transfer_charge(ep.reads.iter(), ep.start, self.id, rt.cost.line_transfer);
        self.clock += transfer;
        let out = if let Some((line, class, other_key, other_thread)) =
            virt.check(ep.start, &ep.reads, None, &rt.nodes)
        {
            drop(virt);
            let kind = ConflictKind::classify(class, ep.op_key, other_key);
            Some(ConflictInfo {
                line,
                kind,
                other_thread: Some(other_thread),
            })
        } else {
            let u: f64 = self.rng.gen();
            let storm = virt.storm_check(
                &ep.reads,
                None,
                ep.start,
                self.clock.saturating_sub(ep.start),
                self.id,
                u,
                &rt.nodes,
            );
            drop(virt);
            storm.map(|(line, class)| {
                let kind = ConflictKind::classify(class, ep.op_key, None);
                ConflictInfo {
                    line,
                    kind,
                    other_thread: None,
                }
            })
        };
        self.recycle(ep);
        out
    }

    /// Close an [`EpisodeKind::LockedWrite`]: publish the writes so
    /// overlapping optimistic readers (and transactions — strong atomicity)
    /// observe them.
    pub fn episode_end_locked_write(&mut self) {
        let rt = Arc::clone(&self.rt);
        let mut ep = self.ep.take().expect("no open episode");
        debug_assert_eq!(ep.kind, EpisodeKind::LockedWrite);
        self.trace(EventKind::EpisodeCommit {
            kind: codes::EP_LOCKED_WRITE,
        });
        if rt.mode() != Mode::Virtual {
            self.recycle(ep);
            return;
        }
        let mut virt = rt.virt.lock().unwrap();
        let transfer = virt.transfer_charge(
            ep.reads.iter().chain(ep.writes.iter()),
            ep.start,
            self.id,
            rt.cost.line_transfer,
        );
        self.clock += transfer;
        virt.commit(EpisodeRecord {
            start: ep.start,
            end: self.clock,
            thread: self.id,
            op_key: ep.op_key,
            reads: std::mem::take(&mut ep.reads),
            writes: std::mem::take(&mut ep.writes),
        });
        drop(virt);
        self.recycle(ep);
    }

    // ================= transactional accesses =================

    pub(crate) fn tx_read(&mut self, ptr: *const AtomicU64) -> Result<u64, AbortCause> {
        // Inside a real RTM transaction the silicon buffers, detects and
        // rolls back; instrumentation would only bloat the hardware
        // read set (there is no open episode on this path).
        if self.hw_txn {
            return Ok(unsafe { (*ptr).load(Ordering::Relaxed) });
        }
        let kind = self.ep.as_ref().expect("Tx::read outside a region").kind;
        match kind {
            EpisodeKind::Fallback | EpisodeKind::LockedWrite | EpisodeKind::OptimisticRead => {
                // Serialized / in-place paths read directly (still
                // footprint-recorded and charged).
                let _ = self.note_access(LineId::of_ptr(ptr), false);
                Ok(unsafe { (*ptr).load(Ordering::Acquire) })
            }
            EpisodeKind::HtmTx => {
                // Read-your-writes from the buffer.
                if let Some(&(_, v)) = self
                    .ep
                    .as_ref()
                    .unwrap()
                    .write_buf
                    .iter()
                    .rev()
                    .find(|(p, _)| p.0 == ptr)
                {
                    self.clock += self.rt.cost.access_hit;
                    self.stats.mem_accesses += 1;
                    return Ok(v);
                }
                self.note_access(LineId::of_ptr(ptr), false)?;
                match self.rt.mode() {
                    Mode::Virtual => Ok(unsafe { (*ptr).load(Ordering::Relaxed) }),
                    Mode::Concurrent => self.tl2_read(ptr),
                }
            }
        }
    }

    pub(crate) fn tx_write(&mut self, ptr: *const AtomicU64, v: u64) -> Result<(), AbortCause> {
        if self.hw_txn {
            self.hw_wrote = true;
            unsafe { (*ptr).store(v, Ordering::Relaxed) };
            return Ok(());
        }
        let kind = self.ep.as_ref().expect("Tx::write outside a region").kind;
        match kind {
            EpisodeKind::Fallback | EpisodeKind::LockedWrite => {
                let _ = self.note_access(LineId::of_ptr(ptr), true);
                unsafe { (*ptr).store(v, Ordering::Release) };
                // Direct (unbuffered) write: invalidate TL2 readers that
                // logged this line's version before it.
                self.bump_line_version(LineId::of_ptr(ptr));
                Ok(())
            }
            EpisodeKind::OptimisticRead => {
                panic!("write inside an optimistic read section")
            }
            EpisodeKind::HtmTx => {
                self.note_access(LineId::of_ptr(ptr), true)?;
                self.ep.as_mut().unwrap().write_buf.push((CellPtr(ptr), v));
                Ok(())
            }
        }
    }

    /// Pauses a TL2 read tolerates before declaring the locked slot a
    /// conflict. [`crate::lock::SpinBackoff`] doubles each pause, so the
    /// total tolerated wait is thousands of spin quanta — enough to ride
    /// out any writeback, bounded so a preempted committer cannot hang
    /// readers (they abort, back off per policy, and retry).
    const TL2_READ_MAX_PAUSES: u32 = 12;

    /// TL2-style versioned read (concurrent mode only): sandwich the cell
    /// load between two reads of the line's version-lock word; retry while
    /// a committer holds the slot; extend the episode's read version when
    /// the line is newer than `rv` (revalidating the whole read log);
    /// record `(line, version)` for commit-time validation.
    fn tl2_read(&mut self, ptr: *const AtomicU64) -> Result<u64, AbortCause> {
        // Eager fallback-lock check — the software edition of hardware
        // lock subscription. Fallback sections write directly, so even a
        // read-only transaction must abort as soon as the subscribed lock
        // is taken, not just at its next clock extension.
        if let Some(fb) = self.ep.as_ref().unwrap().fb_ptr {
            if unsafe { (*fb.0).load(Ordering::Acquire) } != 0 {
                return Err(AbortCause::FallbackLocked);
            }
        }
        let line = LineId::of_ptr(ptr);
        let slot = self.rt.vlocks.slot_of(line);
        let mut backoff = crate::lock::SpinBackoff::new();
        let mut pauses = 0u32;
        let (w1, v) = loop {
            let w1 = self.rt.vlocks.load(slot);
            if !crate::lock::VersionTable::is_locked(w1) {
                let v = unsafe { (*ptr).load(Ordering::Acquire) };
                if self.rt.vlocks.load(slot) == w1 {
                    break (w1, v);
                }
            }
            // Locked (a committer is writing this slot's lines back) or
            // the word moved under the load: bounded backoff — waited
            // cycles are charged to the clock and `cycles_lock_wait`,
            // and a capped wait aborts as a conflict instead of spinning
            // forever behind a preempted committer.
            pauses += 1;
            self.metric_add(euno_metrics::Counter::Tl2ReadWaits, 1);
            if pauses > Self::TL2_READ_MAX_PAUSES {
                return Err(self.line_conflict_cause(line));
            }
            backoff.pause(self);
        };
        let ver = crate::lock::VersionTable::version_of(w1);
        if ver > self.ep.as_ref().unwrap().rv {
            // The line committed after our snapshot point: extend the
            // read version to now, which is sound iff everything read so
            // far is still at its logged version.
            self.metric_add(euno_metrics::Counter::Tl2Extensions, 1);
            let new_rv = self.rt.seq.load(Ordering::SeqCst);
            let bad = {
                let ep = self.ep.as_ref().unwrap();
                ep.ver_log
                    .iter()
                    .find(|&&(l, lv)| {
                        let w = self.rt.vlocks.load(self.rt.vlocks.slot_of(l));
                        crate::lock::VersionTable::is_locked(w)
                            || crate::lock::VersionTable::version_of(w) != lv
                    })
                    .map(|&(l, _)| l)
            };
            if let Some(l) = bad {
                self.metric_add(euno_metrics::Counter::Tl2ValidationFails, 1);
                return Err(self.line_conflict_cause(l));
            }
            self.ep.as_mut().unwrap().rv = new_rv;
        }
        let consistent = {
            let ep = self.ep.as_mut().unwrap();
            match ep.ver_log.iter().find(|&&(l, _)| l == line) {
                // Re-reading a logged line must see the logged version,
                // or the two reads straddle a commit.
                Some(&(_, lv)) => lv == ver,
                None => {
                    ep.ver_log.push((line, ver));
                    true
                }
            }
        };
        if !consistent {
            self.metric_add(euno_metrics::Counter::Tl2ValidationFails, 1);
            return Err(self.line_conflict_cause(line));
        }
        Ok(v)
    }

    /// Abort cause for a TL2 validation / lock-wait failure on `line`.
    fn line_conflict_cause(&self, line: LineId) -> AbortCause {
        let ep = self.ep.as_ref().unwrap();
        if ep.fb_line == Some(line) {
            return AbortCause::FallbackLocked;
        }
        let kind = ConflictKind::classify(self.rt.class_of(line), ep.op_key, None);
        AbortCause::Conflict(ConflictInfo {
            line,
            kind,
            other_thread: None,
        })
    }

    // ================= HTM commit =================

    pub(crate) fn htm_commit(&mut self) -> Result<(), AbortCause> {
        match self.rt.mode() {
            Mode::Concurrent => self.commit_concurrent(),
            Mode::Virtual => self.commit_virtual(),
        }
    }

    /// Lock attempts per write slot at commit before giving up. Commit
    /// locks are held only across validation + writeback (no body work),
    /// so a handful of doubling pauses rides out any live committer;
    /// capped acquisition keeps the protocol deadlock-free even without
    /// the sorted order (which exists to make collisions rare, not to
    /// carry correctness).
    const TL2_COMMIT_MAX_TRIES: u32 = 10;

    /// TL2 commit (concurrent mode): lock the write footprint's version
    /// slots in sorted order, validate the read log's line versions, bump
    /// the global clock, write back, release at the new write version. No
    /// global lock anywhere — disjoint commits proceed fully in parallel.
    fn commit_concurrent(&mut self) -> Result<(), AbortCause> {
        if self.ep.as_ref().unwrap().write_buf.is_empty() {
            // Read-only: every read was version-validated (with rv
            // extension) at read time, so the snapshot is consistent as
            // of `rv`; nothing to publish, nothing to lock.
            self.finish_episode_concurrent();
            self.trace(EventKind::EpisodeCommit {
                kind: codes::EP_HTM_TX,
            });
            return Ok(());
        }
        let mut ep = self.ep.take().unwrap();

        // 1. Write footprint → sorted, deduplicated slot indices. Sorting
        // by *slot* (not LineId) is what makes acquisition order globally
        // consistent: striping does not preserve line order.
        ep.wslots.clear();
        for line in ep.writes.iter() {
            ep.wslots.push(self.rt.vlocks.slot_of(line));
        }
        ep.wslots.sort_unstable();
        ep.wslots.dedup();

        // 2. Acquire each slot with a bounded try-lock.
        for i in 0..ep.wslots.len() {
            let slot = ep.wslots[i];
            let mut backoff = crate::lock::SpinBackoff::new();
            let mut tries = 0u32;
            loop {
                if self.rt.vlocks.try_lock(slot) {
                    self.metric_add(euno_metrics::Counter::Tl2LockAcquires, 1);
                    break;
                }
                tries += 1;
                if tries > Self::TL2_COMMIT_MAX_TRIES {
                    self.metric_add(euno_metrics::Counter::Tl2LockFails, 1);
                    for &held in &ep.wslots[..i] {
                        self.rt.vlocks.unlock_abort(held);
                    }
                    let cause = Self::slot_conflict_cause(&self.rt, &ep, slot);
                    self.ep = Some(ep);
                    return Err(cause);
                }
                backoff.pause(self);
            }
        }

        // 3. Announce the writeback *before* validating: a fallback
        // acquirer that wins the lock cell after our check in step 4
        // spins on `wb_active` until our store in step 7 lands, so its
        // direct accesses never interleave a half-applied buffer. The
        // same counter gates episode-free optimistic snapshots.
        self.rt.wb_active.fetch_add(1, Ordering::SeqCst);

        // 4. The subscribed fallback lock must still be free.
        if let Some(fb) = ep.fb_ptr {
            if unsafe { (*fb.0).load(Ordering::SeqCst) } != 0 {
                Self::abort_writeback(&self.rt, &ep);
                self.ep = Some(ep);
                return Err(AbortCause::FallbackLocked);
            }
        }

        // 5. Validate the read log: every line still at its logged
        // version, and locked only if we hold the lock (write-after-read
        // of our own footprint).
        for i in 0..ep.ver_log.len() {
            let (l, lv) = ep.ver_log[i];
            let slot = self.rt.vlocks.slot_of(l);
            let w = self.rt.vlocks.load(slot);
            let locked_by_other =
                crate::lock::VersionTable::is_locked(w) && ep.wslots.binary_search(&slot).is_err();
            if locked_by_other || crate::lock::VersionTable::version_of(w) != lv {
                self.metric_add(euno_metrics::Counter::Tl2ValidationFails, 1);
                Self::abort_writeback(&self.rt, &ep);
                let cause = {
                    self.ep = Some(ep);
                    self.line_conflict_cause(l)
                };
                return Err(cause);
            }
        }

        // 6. Serialization point: one clock tick for this commit.
        let wv = self.rt.seq.fetch_add(1, Ordering::SeqCst) + 1;

        // 7. Write back and release each slot at the new version.
        for (p, v) in &ep.write_buf {
            unsafe { (*p.0).store(*v, Ordering::Release) };
        }
        for &slot in ep.wslots.iter() {
            self.rt.vlocks.unlock_commit(slot, wv);
        }
        self.rt.wb_active.fetch_sub(1, Ordering::SeqCst);

        self.recycle(ep);
        self.trace(EventKind::EpisodeCommit {
            kind: codes::EP_HTM_TX,
        });
        Ok(())
    }

    /// Abort-path unwind for a commit that already announced its
    /// writeback: release every held slot (preserving version bumps) and
    /// retract the announcement.
    fn abort_writeback(rt: &Runtime, ep: &EpisodeState) {
        for &slot in ep.wslots.iter() {
            rt.vlocks.unlock_abort(slot);
        }
        rt.wb_active.fetch_sub(1, Ordering::SeqCst);
    }

    /// Abort cause for a commit-time lock-acquisition failure on `slot`:
    /// attribute it to the first write line mapping there.
    fn slot_conflict_cause(rt: &Runtime, ep: &EpisodeState, slot: u32) -> AbortCause {
        let line = ep
            .writes
            .iter()
            .find(|&l| rt.vlocks.slot_of(l) == slot)
            .unwrap_or(LineId(0));
        if ep.fb_line == Some(line) {
            return AbortCause::FallbackLocked;
        }
        let kind = ConflictKind::classify(rt.class_of(line), ep.op_key, None);
        AbortCause::Conflict(ConflictInfo {
            line,
            kind,
            other_thread: None,
        })
    }

    fn finish_episode_concurrent(&mut self) {
        if let Some(ep) = self.ep.take() {
            self.recycle(ep);
        }
    }

    fn commit_virtual(&mut self) -> Result<(), AbortCause> {
        let rt = Arc::clone(&self.rt);
        let mut ep = self.ep.take().unwrap();
        // One `virt` acquisition covers the transfer charge, the window
        // check, the storm draw and the commit publish — the commit hot
        // path used to take the mutex once per step. On every abort path
        // the episode goes back into `self.ep`: the executor's classify
        // stage still needs its footprint (note_attempt_writes) before
        // discarding it.
        let mut virt = rt.virt.lock().unwrap();

        // Cache-coherence charges for hot lines extend the interval first.
        let transfer = virt.transfer_charge(
            ep.reads.iter().chain(ep.writes.iter()),
            ep.start,
            self.id,
            rt.cost.line_transfer,
        );
        self.clock += transfer;
        let start = ep.start;
        let end = self.clock;

        if let Some((line, class, other_key, other_thread)) =
            virt.check(start, &ep.reads, Some(&ep.writes), &rt.nodes)
        {
            drop(virt);
            let cause = if Some(line) == ep.fb_line {
                AbortCause::FallbackLocked
            } else {
                let kind = ConflictKind::classify(class, ep.op_key, other_key);
                AbortCause::Conflict(ConflictInfo {
                    line,
                    kind,
                    other_thread: Some(other_thread),
                })
            };
            self.ep = Some(ep);
            return Err(cause);
        }

        // Statistical collision with wall-clock-concurrent writers the
        // serial order hides (see VirtState::storm_check). Episodes
        // running under a contender-serializing advisory lock are exempt:
        // the threads that generated the line heat are waiting behind the
        // lock, so the Poisson-arrival assumption does not apply (the
        // deterministic interval-overlap check above still catches every
        // genuinely concurrent writer).
        if !ep.serialized {
            let u: f64 = self.rng.gen();
            if let Some((line, class)) = virt.storm_check(
                &ep.reads,
                Some(&ep.writes),
                start,
                end.saturating_sub(start),
                self.id,
                u,
                &rt.nodes,
            ) {
                drop(virt);
                let kind = ConflictKind::classify(class, ep.op_key, None);
                self.ep = Some(ep);
                return Err(AbortCause::Conflict(ConflictInfo {
                    line,
                    kind,
                    other_thread: None,
                }));
            }
        }

        let p = rt.cost.spurious_probability(end.saturating_sub(start));
        if p > 0.0 && self.rng.gen_bool(p.min(1.0)) {
            drop(virt);
            self.ep = Some(ep);
            return Err(AbortCause::Spurious);
        }

        // Commit: apply the buffer, publish the footprint. `mem::take` of
        // an inline LineSet is a memcpy — the committed record borrows no
        // heap unless the footprint spilled past the inline capacity.
        for (p, v) in &ep.write_buf {
            unsafe { (*p.0).store(*v, Ordering::Relaxed) };
        }
        virt.commit(EpisodeRecord {
            start,
            end,
            thread: self.id,
            op_key: ep.op_key,
            reads: std::mem::take(&mut ep.reads),
            writes: std::mem::take(&mut ep.writes),
        });
        drop(virt);
        self.recycle(ep);
        self.trace(EventKind::EpisodeCommit {
            kind: codes::EP_HTM_TX,
        });
        Ok(())
    }

    // ================= fallback lock plumbing =================

    pub(crate) fn fb_wait_free(&mut self, fb: &TxCell<u64>) {
        match self.rt.mode() {
            Mode::Concurrent => {
                let mut backoff = crate::lock::SpinBackoff::new();
                while fb.raw().load(Ordering::Acquire) != 0 {
                    backoff.pause(self);
                }
            }
            Mode::Virtual => {
                let key = fb.raw_ptr() as u64;
                let free_at = self.rt.vlock_free_at(key, self.clock);
                if free_at > self.clock {
                    self.stats.cycles_lock_wait += free_at - self.clock;
                    self.clock = free_at;
                }
            }
        }
    }

    /// Subscribe the open transaction to the fallback lock: its word joins
    /// the read set, so a fallback acquisition aborts us.
    pub(crate) fn fb_subscribe(&mut self, fb: &TxCell<u64>) -> Result<(), AbortCause> {
        let ptr = fb.raw_ptr();
        let line = LineId::of_ptr(ptr);
        {
            let ep = self.ep.as_mut().unwrap();
            ep.fb_line = Some(line);
            ep.fb_ptr = Some(CellPtr(ptr));
            ep.reads.insert(line);
        }
        match self.rt.mode() {
            Mode::Concurrent => {
                // The lock cell is value-checked — not version-logged —
                // at every subsequent TL2 read (`tl2_read`) and at commit
                // (`commit_concurrent` step 4); here we only reject an
                // attempt that starts while the fallback path is active.
                let v = unsafe { (*ptr).load(Ordering::Acquire) };
                if v != 0 {
                    return Err(AbortCause::FallbackLocked);
                }
                Ok(())
            }
            Mode::Virtual => Ok(()),
        }
    }

    pub(crate) fn fb_acquire(&mut self, fb: &TxCell<u64>) {
        let addr = fb.raw_ptr() as u64;
        match self.rt.mode() {
            Mode::Concurrent => {
                let mut backoff = crate::lock::SpinBackoff::new();
                loop {
                    // SeqCst CAS: the quiesce below is a total-order
                    // argument against the committer's SeqCst fallback
                    // check (commit step 4) and `wb_active` announcement.
                    if fb.raw().load(Ordering::Acquire) == 0
                        && fb
                            .raw()
                            .compare_exchange(0, 1, Ordering::SeqCst, Ordering::Acquire)
                            .is_ok()
                    {
                        break;
                    }
                    backoff.pause(self);
                }
                // Quiesce in-flight writebacks: any committer that passed
                // its fallback check before our CAS announced itself on
                // `wb_active` *before* that check, so spinning the counter
                // to zero guarantees its buffer is fully applied; every
                // later committer fails the check and unwinds. Direct
                // reads and writes on the fallback path are then safe.
                let mut backoff = crate::lock::SpinBackoff::new();
                while self.rt.wb_active.load(Ordering::SeqCst) != 0 {
                    backoff.pause(self);
                }
                self.stats.cas_ops += 1;
                self.charge(self.rt.cost.lock_acquire);
                self.trace(EventKind::LockAcquire {
                    addr,
                    wait_cycles: 0,
                });
            }
            Mode::Virtual => {
                let free_at = self.rt.vlock_free_at(addr, self.clock);
                let waited = free_at.saturating_sub(self.clock);
                if free_at > self.clock {
                    self.stats.cycles_lock_wait += free_at - self.clock;
                    self.clock = free_at;
                }
                // The winning CAS a concurrent acquirer would issue.
                self.stats.cas_ops += 1;
                self.charge(self.rt.cost.lock_acquire);
                fb.raw().store(1, Ordering::Release);
                self.trace(EventKind::LockAcquire {
                    addr,
                    wait_cycles: waited,
                });
            }
        }
    }

    pub(crate) fn fb_release(&mut self, fb: &TxCell<u64>) {
        self.charge(self.rt.cost.lock_release);
        match self.rt.mode() {
            Mode::Concurrent => {
                // Fallback sections write *directly* (no TL2 buffer), so
                // an episode-free optimistic reader validating against
                // `rt.seq` cannot see them through the sequence alone. Bump
                // the sequence while the fallback cell is still held: a
                // reader that snapshotted before this release observes
                // either the held cell or the moved sequence — never a
                // torn fallback section. (Clearing the cell first would
                // open a window where both of the reader's checks pass.)
                // Transactions need no extra signal: every direct write in
                // the section already bumped its line's version.
                self.rt.seq.fetch_add(1, Ordering::SeqCst);
                fb.raw().store(0, Ordering::Release);
            }
            Mode::Virtual => {
                self.rt.vlock_hold(fb.raw_ptr() as u64, self.clock);
                fb.raw().store(0, Ordering::Release);
            }
        }
        self.trace(EventKind::LockRelease {
            addr: fb.raw_ptr() as u64,
        });
    }

    // ============ episode-free optimistic-read validation ============

    /// Snapshot for an episode-free optimistic read: in concurrent mode,
    /// the TL2 clock at a writeback-quiescent point (`wb_active == 0`).
    /// The quiescence wait is bounded-backoff, not a tight spin: writers
    /// hold `wb_active` only across validation + writeback. Virtual mode
    /// needs no snapshot — episodes are physically serialized, and the
    /// read set is checked against the committed window by
    /// [`ThreadCtx::episode_end_optimistic`].
    pub fn optimistic_snapshot(&mut self) -> u64 {
        match self.rt.mode() {
            Mode::Virtual => 0,
            Mode::Concurrent => {
                let mut backoff = crate::lock::SpinBackoff::new();
                loop {
                    let s = self.rt.seq.load(Ordering::SeqCst);
                    if self.rt.wb_active.load(Ordering::SeqCst) == 0 {
                        break s;
                    }
                    backoff.pause(self);
                }
            }
        }
    }

    /// Validate an episode-free optimistic read section against `snap`:
    /// no writing commit has landed (`rt.seq` unchanged) and no
    /// direct-writing fallback section is active on `fb`. This is sound
    /// because every committer orders `wb_active += 1` → clock bump →
    /// writeback → `wb_active -= 1`: a reader whose snapshot saw
    /// `wb_active == 0` *after* loading `seq == snap` can only observe
    /// writeback stores from commits that bumped the clock first — and
    /// any such bump makes this check fail. A fallback section that
    /// *completed* since the snapshot is caught the same way
    /// ([`ThreadCtx::fb_release`] bumps `rt.seq` before clearing the
    /// cell); an *active* one by the cell check. Virtual mode always
    /// validates here — its collision detection runs at episode close.
    pub fn optimistic_validate(&mut self, fb: &TxCell<u64>, snap: u64) -> bool {
        match self.rt.mode() {
            Mode::Virtual => true,
            Mode::Concurrent => {
                fb.raw().load(Ordering::Acquire) == 0 && self.rt.seq.load(Ordering::SeqCst) == snap
            }
        }
    }

    // ============ mechanism hooks for the layered executor ============
    //
    // The retry/fallback *policy* lives in [`crate::exec`]; these helpers
    // expose the episode-state manipulations its stages need without
    // leaking `EpisodeState` itself.

    /// The attempt's speculative writes were coherence traffic even though
    /// they never commit: keep their lines hot so concurrent and
    /// subsequent attempts see the storm (virtual mode only).
    pub(crate) fn note_attempt_writes(&mut self) {
        if self.rt.mode() != Mode::Virtual {
            return;
        }
        if let Some(ep) = self.ep.as_ref() {
            self.rt
                .virt_note_attempt_writes(&ep.writes, self.clock, self.id);
        }
    }

    /// Put the fallback lock's line into the open fallback episode's write
    /// footprint so overlapping transactions observe the serialization.
    pub(crate) fn fallback_mark(&mut self, fb: &TxCell<u64>) {
        let ep = self.ep.as_mut().unwrap();
        let line = LineId::of_ptr(fb.raw_ptr());
        ep.writes.insert(line);
        ep.fb_line = Some(line);
    }

    /// Close the fallback episode: publish its section (virtual mode) so
    /// overlapping transactions abort on the subscribed lock line.
    pub(crate) fn fallback_publish(&mut self) {
        let mut ep = self.ep.take().unwrap();
        if self.rt.mode() == Mode::Virtual {
            self.rt.virt_commit(EpisodeRecord {
                start: ep.start,
                end: self.clock,
                thread: self.id,
                op_key: ep.op_key,
                reads: std::mem::take(&mut ep.reads),
                writes: std::mem::take(&mut ep.writes),
            });
        }
        self.recycle(ep);
        self.trace(EventKind::EpisodeCommit {
            kind: codes::EP_FALLBACK,
        });
    }
}

/// Handle for transactional reads/writes inside [`ThreadCtx::htm_execute`].
pub struct Tx<'a> {
    pub(crate) ctx: &'a mut ThreadCtx,
}

impl<'a> Tx<'a> {
    /// Transactionally read a cell.
    #[inline]
    pub fn read<T: TxWord>(&mut self, cell: &TxCell<T>) -> TxResult<T> {
        self.ctx.tx_read(cell.raw_ptr()).map(T::from_word)
    }

    /// Transactionally write a cell (buffered until commit).
    #[inline]
    pub fn write<T: TxWord>(&mut self, cell: &TxCell<T>, v: T) -> TxResult<()> {
        self.ctx.tx_write(cell.raw_ptr(), v.to_word())
    }

    /// `XABORT imm8`: explicitly abort this attempt.
    #[inline]
    pub fn explicit_abort<R>(&mut self, code: u8) -> TxResult<R> {
        Err(AbortCause::Explicit(code))
    }

    /// Tag the enclosing episode with the operation's target key.
    #[inline]
    pub fn set_op_key(&mut self, key: u64) {
        self.ctx.set_op_key(key);
    }

    /// Declare the region lock-serialized with its contenders — disables
    /// the storm extrapolation for this attempt (the deterministic
    /// conflict checks still apply).
    #[inline]
    pub fn mark_serialized(&mut self) {
        self.ctx.set_serialized();
    }

    /// Whether this body invocation runs on the serialized fallback path.
    #[inline]
    pub fn is_fallback(&self) -> bool {
        self.ctx.episode_kind() == Some(EpisodeKind::Fallback)
    }

    /// Charge explicit ALU work (hashing, merges) to the thread clock.
    #[inline]
    pub fn charge(&mut self, cycles: u64) {
        self.ctx.charge(cycles);
    }

    /// Escape hatch to the thread context (RNG, stats).
    #[inline]
    pub fn ctx(&mut self) -> &mut ThreadCtx {
        self.ctx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[repr(align(64))]
    struct Aligned(TxCell<u64>);

    /// Regression: a read-only transaction has no commit-time validation,
    /// so its snapshot consistency rests entirely on the read path's
    /// rv-extension. The old `+1` line bump could leave a direct write's
    /// slot version at or below the reader's `rv`, so the extension never
    /// fired and a read-only transaction could span a multi-line
    /// LockedWrite/fallback update. Clock-anchored bumps make any
    /// post-snapshot direct write read as `ver > rv`, forcing
    /// revalidation of the whole read log.
    #[test]
    fn read_only_tx_cannot_span_a_multi_line_direct_update() {
        let rt = Runtime::new_concurrent();
        // Age the clock well past the slots' initial versions, so a
        // local "+1" bump could never exceed `rv` on its own — exactly
        // the old bug's window.
        rt.seq.fetch_add(100, Ordering::SeqCst);
        let mut reader = rt.thread(0);
        let mut writer = rt.thread(1);
        let a = Aligned(TxCell::new(1u64));
        let b = Aligned(TxCell::new(1u64));

        reader.episode_begin(EpisodeKind::HtmTx);
        assert_eq!(reader.tx_read(a.0.raw_ptr()).unwrap(), 1);
        // A two-line direct update (the shape of an in-place locked
        // write or a fallback section) lands between the reader's reads.
        a.0.store_direct(&mut writer, 2);
        b.0.store_direct(&mut writer, 2);
        // The second read must abort: b's version is a fresh clock draw
        // above `rv`, and the forced revalidation finds `a` changed.
        assert!(
            reader.tx_read(b.0.raw_ptr()).is_err(),
            "read-only tx observed old `a` next to new `b` — torn snapshot"
        );
        reader.episode_abort();
    }
}
