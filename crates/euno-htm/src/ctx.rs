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

use euno_metrics::AbortClass;
use euno_rng::SmallRng;
use euno_trace::{EpisodeKind, EventKind, TraceBuf};

use crate::abort::{AbortCause, ConflictInfo, TxResult};
use crate::bptree::Guard;
use crate::hash::KeyFilter;
use crate::hint::{
    Anchor, Hint, HintTable, HintWay, Lru, SecondChance, ANCHOR_WAYS, ANCHOR_WORDS, HINT_WAYS,
    HINT_WORDS,
};
use crate::line::{LineId, LineSet};
use crate::runtime::{Backend, Mode, Runtime};
use crate::stats::ThreadStats;
use crate::word::TxCell;

/// Raw cell pointer usable across the engine's internal logs.
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) struct CellPtr(pub *const AtomicU64);
// Safety: logs never outlive the operation; cells outlive operations
// (trees pin an epoch around every operation, and retired nodes are freed
// only after a grace period covering any operation that could have logged
// their cells — see `crate::epoch`).
unsafe impl Send for CellPtr {}

pub(crate) struct EpisodeState {
    pub(crate) kind: EpisodeKind,
    pub(crate) start: u64,
    /// TL2 read version: every read observed so far is consistent as of
    /// this point of the global clock. Sampled by `tl2_begin`, extended
    /// forward (with revalidation) when a read finds a newer line version.
    pub(crate) rv: u64,
    pub(crate) op_key: Option<u64>,
    pub(crate) reads: LineSet,
    pub(crate) writes: LineSet,
    /// TL2 read log: each read line with the version-lock word's version
    /// at first read. Validation compares versions — never cell values —
    /// so reuse of retired memory with equal bytes cannot validate.
    pub(crate) ver_log: Vec<(LineId, u64)>,
    pub(crate) write_buf: Vec<(CellPtr, u64)>,
    /// The addresses of the cells in `write_buf`, as a filter: a cell it
    /// does not hold is not buffered, so a read of it needs no
    /// read-your-writes scan.
    pub(crate) buffered: KeyFilter,
    /// A transaction on the virtual backend (set by `tx_begin`): its
    /// reads and writes of a footprint set's memo line take the repeat-line
    /// path of [`ThreadCtx::tx_read`] / [`ThreadCtx::tx_write`].
    pub(crate) virt_tx: bool,
    /// Commit scratch: sorted, deduplicated version-table slot indices of
    /// the write footprint (kept per-episode so steady-state commits
    /// allocate nothing).
    pub(crate) wslots: Vec<u32>,
    /// Subscribed fallback lock (for abort-cause attribution).
    pub(crate) fb_line: Option<LineId>,
    pub(crate) fb_ptr: Option<CellPtr>,
    /// The episode runs under an advisory lock that serializes its
    /// contenders: storm extrapolation is skipped (the writers feeding the
    /// line heat are queued behind the lock, not concurrent).
    pub(crate) serialized: bool,
}

impl EpisodeState {
    pub(crate) fn new(kind: EpisodeKind, start: u64) -> Box<Self> {
        Box::new(EpisodeState {
            kind,
            start,
            rv: 0,
            op_key: None,
            reads: LineSet::with_capacity(16),
            writes: LineSet::with_capacity(8),
            ver_log: Vec::with_capacity(32),
            write_buf: Vec::with_capacity(8),
            buffered: KeyFilter::default(),
            virt_tx: false,
            wslots: Vec::with_capacity(8),
            fb_line: None,
            fb_ptr: None,
            serialized: false,
        })
    }

    /// Buffer a transactional write of `v` to the cell at `ptr`.
    #[inline]
    fn buffer(&mut self, ptr: *const AtomicU64, v: u64) {
        self.write_buf.push((CellPtr(ptr), v));
        self.buffered.insert(ptr as u64);
    }

    /// Re-arm a recycled episode. The footprints and logs were cleared by
    /// [`ThreadCtx::recycle`]; only the header fields need stamping.
    fn reset(&mut self, kind: EpisodeKind, start: u64) {
        self.kind = kind;
        self.start = start;
        self.rv = 0;
        self.op_key = None;
        self.fb_line = None;
        self.fb_ptr = None;
        self.serialized = false;
        self.virt_tx = false;
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
    /// The running hardware transaction issued at least one `Tx::write`
    /// ([`crate::rtm`]): its commit bumps `Runtime::seq` inside the
    /// transaction, so episode-free optimistic readers see it. Speculative
    /// state — set inside the transaction, a hardware abort rolls it back.
    pub(crate) hw_wrote: bool,
    pub(crate) ep: Option<Box<EpisodeState>>,
    /// Scratch pool: the one recycled episode box. Episodes are strictly
    /// non-nested, so a single slot makes every steady-state
    /// `episode_begin` allocation-free (the box, its footprint sets and
    /// its logs are all reused with their capacities intact).
    spare: Option<Box<EpisodeState>>,
    /// Optional trace ring buffer (see `euno-trace`): with no buffer
    /// installed the hot-path cost is one branch.
    tracer: Option<Box<TraceBuf>>,
    /// This thread's epoch-reclamation participant (see [`crate::epoch`]):
    /// trees pin it around every operation via [`ThreadCtx::pinned`].
    reclaim: crate::epoch::Participant,
    /// Unpin counter driving the opportunistic collection cadence — one
    /// tick per operation, so also the thread's operation clock.
    reclaim_ticks: u64,
    /// `reclaim_ticks` when this thread last ran a range scan
    /// ([`ThreadCtx::note_scan`]); 0 at birth, as if it had just scanned.
    scan_tick: u64,
    /// This thread's hint caches (see [`crate::hint`]): scratch like
    /// `spare`, both allocated by the first record into either.
    hints: HintTable<HINT_WORDS, HINT_WAYS, SecondChance>,
    anchors: HintTable<ANCHOR_WORDS, ANCHOR_WAYS, Lru>,
    /// This thread's metrics shard (see `euno-metrics`): single-writer
    /// atomic counters the sampler reads concurrently.
    shard: Arc<euno_metrics::ThreadShard>,
    /// The thread's last read of the virtual lock table: (generation,
    /// key, entry) — see [`ThreadCtx::vlock_free_at`].
    pub(crate) vlock_memo: (u64, u64, u64),
}

/// Run a reclamation pass every this many operation unpins per thread:
/// frequent enough that garbage drains within a few hundred operations,
/// rare enough that the (mutex-protected) slot scan stays off the hot path.
const EPOCH_COLLECT_EVERY: u64 = 64;

impl ThreadCtx {
    pub(crate) fn new(rt: Arc<Runtime>, id: u32, seed: u64) -> Self {
        let reclaim = rt.epoch().register();
        let shard = rt.metrics().register_shard();
        ThreadCtx {
            rt,
            id,
            clock: 0,
            stats: ThreadStats::default(),
            rng: SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15),
            hw_wrote: false,
            ep: None,
            spare: None,
            tracer: None,
            reclaim,
            reclaim_ticks: 0,
            scan_tick: 0,
            hints: HintTable::default(),
            anchors: HintTable::default(),
            shard,
            vlock_memo: (u64::MAX, 0, 0),
        }
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
    /// permanently.
    #[inline]
    pub fn trace(&mut self, kind: EventKind) {
        if let Some(t) = self.tracer.as_mut() {
            t.push(self.clock, self.id, kind);
        }
    }

    // ================= always-on metrics (euno-metrics) =================

    /// Bump one metrics counter on this thread's shard. Metrics never
    /// charge cycles and never touch the RNG, so they are schedule-neutral.
    #[inline]
    pub fn metric_add(&self, c: euno_metrics::Counter, n: u64) {
        self.shard.add(c, n);
    }

    /// Read one counter back from this thread's shard (tests, drivers).
    #[inline]
    pub fn metric(&self, c: euno_metrics::Counter) -> u64 {
        self.shard.get(c)
    }

    /// Every counter of this thread's shard: the counts a run merges into
    /// its report (ops, stage counts, aborts by class, …).
    pub fn counts(&self) -> euno_metrics::Counts {
        self.shard.counts()
    }

    /// Record one operation latency (virtual cycles or wall µs) into this
    /// thread's shard histogram.
    #[inline]
    pub fn metric_record_latency(&self, v: u64) {
        self.shard.record_latency(v);
    }

    /// This thread's shard histogram (see [`ThreadCtx::metric_record_latency`]).
    pub fn latency(&self) -> euno_metrics::LogHistogram {
        self.shard.histogram()
    }

    /// Record one CCM bypass-state flip: directional counters on the shard
    /// plus a timestamped event in the registry's flip log (from which the
    /// sampler derives the adaptation-lag metric).
    pub fn metric_flip(&self, addr: u64, bypass: bool) {
        self.shard.add(euno_metrics::Counter::CcmBypassFlips, 1);
        self.shard.add(
            if bypass {
                euno_metrics::Counter::CcmFlipsToBypass
            } else {
                euno_metrics::Counter::CcmFlipsToProtect
            },
            1,
        );
        self.rt.metrics().record_flip(self.clock, addr, bypass);
    }

    /// Flush a committed episode's batched executor counters to the shard
    /// in a single pass: the commit counter plus the retry-loop
    /// accumulators. The retry loop counts attempts / backoffs
    /// / per-cause aborts in plain executor locals, so the per-iteration
    /// hot path costs no shard traffic at all; only episode completion
    /// touches the atomics, and a first-try commit — the common case — is
    /// two counter bumps.
    #[inline]
    pub(crate) fn metric_commit_episode(
        &self,
        attempts: u32,
        backoffs: u32,
        aborts: &[u32; AbortClass::COUNT],
    ) {
        use euno_metrics::Counter as C;
        let s = &self.shard;
        s.add(C::Commits, 1);
        s.add(C::Attempts, u64::from(attempts));
        if attempts == 1 {
            // First-try commit: no aborts, no backoffs (each implies a
            // second attempt) — skip the bucket scan.
            return;
        }
        Self::episode_tail(s, backoffs, aborts);
    }

    /// Flush an episode that escalated to the fallback path (no commit
    /// counters — the serial section is counted separately as a Fallback).
    #[inline]
    pub(crate) fn metric_episode(
        &self,
        attempts: u32,
        backoffs: u32,
        aborts: &[u32; AbortClass::COUNT],
    ) {
        self.shard
            .add(euno_metrics::Counter::Attempts, u64::from(attempts));
        Self::episode_tail(&self.shard, backoffs, aborts);
    }

    /// Shared slow tail of the episode flush: the conditional counters an
    /// aborted-at-least-once episode may have accumulated.
    fn episode_tail(
        s: &euno_metrics::ThreadShard,
        backoffs: u32,
        aborts: &[u32; AbortClass::COUNT],
    ) {
        if backoffs > 0 {
            s.add(euno_metrics::Counter::Backoffs, u64::from(backoffs));
        }
        for (&counter, &n) in euno_metrics::ABORTS_HTM.iter().zip(aborts) {
            if n > 0 {
                s.add(counter, u64::from(n));
            }
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

    /// Wait — on the clock — until `t`: if it is still ahead, advance to
    /// it and account the gap as lock wait. Returns the cycles waited.
    #[inline]
    pub fn wait_until(&mut self, t: u64) -> u64 {
        let waited = t.saturating_sub(self.clock);
        self.stats.cycles_lock_wait += waited;
        self.clock += waited;
        waited
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

    /// Run `f` pinned to the current epoch, with the [`Guard`] a tree that
    /// retires nodes to this runtime's collector reads them through: every
    /// node reachable during `f` survives it, and nothing the guard
    /// resolves can leave it. Re-entrant; charges no cycles and draws no
    /// randomness. The outermost unpin, on a fixed cadence, runs a
    /// collection pass, so reclamation needs no background thread.
    pub fn pinned<L, const F: usize, R>(
        &mut self,
        f: impl for<'g> FnOnce(&mut ThreadCtx, Guard<'g, L, F>) -> R,
    ) -> R {
        self.reclaim.enter(self.rt.epoch());
        let out = f(self, Guard::new());
        self.reclaim.exit();
        if !self.reclaim.pinned() {
            self.reclaim_ticks += 1;
            if self.reclaim_ticks.is_multiple_of(EPOCH_COLLECT_EVERY) {
                let done = self.rt.epoch().collect();
                if let Some(epoch) = done.advanced_to {
                    self.trace(EventKind::EpochAdvance { epoch });
                }
                if done.freed > 0 {
                    self.trace(EventKind::EpochReclaim {
                        nodes: done.freed as u64,
                        bytes: done.freed_bytes as u64,
                    });
                }
            }
        }
        out
    }

    /// A tree is running a range scan on this thread: what
    /// [`ThreadCtx::ops_since_scan`] counts from. Thread-private and
    /// uncharged.
    #[inline]
    pub fn note_scan(&mut self) {
        self.scan_tick = self.reclaim_ticks;
    }

    /// Operations (outermost unpins) this thread has finished since it last
    /// noted a scan — or since it was created, which counts as one.
    #[inline]
    pub fn ops_since_scan(&self) -> u64 {
        self.reclaim_ticks - self.scan_tick
    }

    /// Whether this thread currently holds an epoch pin.
    #[inline]
    pub fn epoch_pinned(&self) -> bool {
        self.reclaim.pinned()
    }

    // ================= hint caches =================

    /// Look `key` up among `(owner, block)`'s entries in this thread's
    /// table of [`Hint`]s: the one with the greatest lower bound at or
    /// below `key`, if any. The memory is thread-private and
    /// uninstrumented, so the probe is charged by hand: one cache hit — a
    /// set is 80 B, packed, and charged as one line like the anchor
    /// table's — plus the hash and a tag compare for each of the two ways.
    #[inline]
    pub fn hint_probe(&mut self, owner: u64, block: u64, key: u64) -> Option<(HintWay, Hint)> {
        let (found, compared) = self.hints.probe(owner, block, key);
        self.charge_probe(compared);
        found
    }

    /// Mark the hint [`ThreadCtx::hint_probe`] answered with as used, once
    /// its owner has trusted it: the next record into its set passes it
    /// over. Charged one cache hit if that stored a bit.
    #[inline]
    pub fn hint_keep(&mut self, at: HintWay) {
        if self.hints.keep(at) {
            self.clock += self.rt.cost.access_hit;
        }
    }

    /// Record `words` for `(owner, block)` — over its entry with the same
    /// lower bound, else by second chance ([`HintTable::record`]), which
    /// may drop it. Charged one cache hit: the set index was paid for by
    /// the probe that missed. The first record of a thread — of either
    /// kind — allocates both tables.
    #[inline]
    pub fn hint_record(&mut self, owner: u64, block: u64, words: Hint) {
        self.clock += self.rt.cost.access_hit;
        self.anchors.reserve();
        self.hints.record(owner, block, words);
    }

    /// The words last recorded for `(owner, block)` in this thread's table
    /// of [`Anchor`]s, if they are still in its set. Charged like
    /// [`ThreadCtx::hint_probe`], with a tag compare for each way up to the
    /// one that hit (both on a miss). The two tables share nothing but
    /// their implementation: an owner files under block sizes of its own
    /// choosing in each.
    #[inline]
    pub fn anchor_probe(&mut self, owner: u64, block: u64) -> Option<Anchor> {
        let (words, compared) = self.anchors.probe(owner, block);
        self.charge_probe(compared);
        words
    }

    /// Record `words` for `(owner, block)` in this thread's table of
    /// [`Anchor`]s, replacing the set's entry for it or its least recently
    /// recorded one. Charged like [`ThreadCtx::hint_record`].
    #[inline]
    pub fn anchor_record(&mut self, owner: u64, block: u64, words: Anchor) {
        self.clock += self.rt.cost.access_hit;
        self.hints.reserve();
        self.anchors.record(owner, block, words);
    }

    #[inline]
    fn charge_probe(&mut self, compared: usize) {
        let cost = &self.rt.cost;
        self.clock += cost.access_hit + (1 + compared as u64) * cost.alu;
    }

    // ================= footprint & charging =================

    /// Record one instrumented access in the open episode's footprint,
    /// and account it.
    #[inline]
    fn note_access(&mut self, line: LineId, is_write: bool) -> Result<(), AbortCause> {
        let virt = self.rt.backend() == Backend::Virtual;
        let newly = match self.ep.as_mut() {
            None => false,
            // Only the virtual backend consults an optimistic section's
            // footprint — on real threads `episode_end_optimistic`
            // recycles it unread; staleness is the caller's version
            // protocol. Skip the read-set insert: big optimistic episodes
            // (batched chunk descents) would otherwise spill the inline
            // `LineSet` and pay a sorted-insert memmove per access. Every
            // access is charged as a first touch — optimistic descents
            // touch mostly fresh lines, and real-thread cycle counts are
            // diagnostic, not the simulation clock.
            Some(ep) if ep.kind == EpisodeKind::OptimisticRead && !virt => true,
            Some(ep) if is_write => ep.writes.insert(line),
            Some(ep) => ep.reads.insert(line),
        };
        self.account(newly)
    }

    /// Account one instrumented access — a first touch if it added its
    /// line to the open episode's footprint (`newly`) — as
    /// [`CostModel::access`] charges it. Every path an access takes ends
    /// here, a repeat of the open episode's memo line included.
    ///
    /// [`CostModel::access`]: crate::cost::CostModel::access
    #[inline]
    fn account(&mut self, newly: bool) -> Result<(), AbortCause> {
        self.stats.mem_accesses += 1;
        let ep = self.ep.as_ref();
        let sets = ep.map_or((0, 0), |ep| (ep.reads.len(), ep.writes.len()));
        let (cycles, verdict) = self.rt.cost.access(ep.map(|ep| ep.kind), newly, sets);
        self.clock += cycles;
        verdict
    }

    // ================= direct (non-transactional) accesses =================

    #[inline]
    fn debug_assert_not_transactional(&self) {
        debug_assert!(
            self.ep
                .as_ref()
                .is_none_or(|e| e.kind != EpisodeKind::HtmTx),
            "direct access inside an HTM transaction: use Tx::read/write"
        );
    }

    /// A load outside any transaction. A load of the open episode's read
    /// memo line is what [`ThreadCtx::note_access`] would charge as a
    /// repeat — one hit, no insert, no capacity verdict (this is no
    /// transaction) — so it is charged here without the walk. An
    /// optimistic section off the virtual backend records no read, so its
    /// memo never names a line and it is charged there as a first touch.
    #[inline]
    pub(crate) fn direct_load(&mut self, ptr: *const AtomicU64) -> u64 {
        self.debug_assert_not_transactional();
        let line = LineId::of_ptr(ptr);
        let _ = if self.ep.as_ref().is_some_and(|ep| ep.reads.is_last(line)) {
            self.account(false)
        } else {
            self.note_access(line, false)
        };
        // Safety: every caller passes `TxCell::raw_ptr` of a cell it
        // borrows for the call (word.rs, `Tx`), so `ptr` is a live,
        // aligned `AtomicU64`.
        unsafe { (*ptr).load(Ordering::Acquire) }
    }

    /// Every direct write is this routine: account the access (and, for a
    /// read-modify-write, the CAS), run `op` on the word, and — when `op`
    /// says a protocol-visible value landed — publish it. `op` answers
    /// `false` for a CAS that lost and for the *quiet* stores whose
    /// observable value is unchanged for validating readers.
    #[inline]
    pub(crate) fn direct_write<R>(
        &mut self,
        ptr: *const AtomicU64,
        rmw: bool,
        op: impl FnOnce(&AtomicU64) -> (R, bool),
    ) -> R {
        self.debug_assert_not_transactional();
        if rmw {
            self.stats.cas_ops += 1;
            self.charge(self.rt.cost.cas);
        }
        let line = LineId::of_ptr(ptr);
        let _ = self.note_access(line, true);
        // Safety: every caller passes `TxCell::raw_ptr` of a cell it
        // borrows for the call (word.rs, `Tx`), so `ptr` is a live,
        // aligned `AtomicU64`.
        let (out, publish) = op(unsafe { &*ptr });
        if publish {
            self.publish_direct_write(line);
        }
        out
    }

    /// Make a direct (unbuffered) write visible to whoever may be
    /// speculating on its line. On the virtual backend a write inside an
    /// episode is published with the episode's footprint when it closes.
    #[inline]
    fn publish_direct_write(&mut self, line: LineId) {
        match self.rt.backend() {
            Backend::Virtual => {
                if self.ep.is_none() {
                    self.virt_publish_point_write(line);
                }
            }
            Backend::Stm | Backend::Rtm => self.bump_line_version(line),
        }
    }

    // ================= episodes =================

    /// Open an instrumented span. Panics if one is already open (RTM
    /// flattens nested transactions; the engine forbids nesting outright).
    pub fn episode_begin(&mut self, kind: EpisodeKind) {
        assert!(self.ep.is_none(), "episode nesting is not supported");
        self.ep = Some(match self.spare.take() {
            Some(mut ep) => {
                ep.reset(kind, self.clock);
                ep
            }
            None => {
                self.stats.episode_pool_allocs += 1;
                EpisodeState::new(kind, self.clock)
            }
        });
        self.trace(EventKind::EpisodeBegin { kind });
    }

    /// Return a closed episode's scratch buffers to the per-thread pool so
    /// the next [`ThreadCtx::episode_begin`] is allocation-free.
    pub(crate) fn recycle(&mut self, mut ep: Box<EpisodeState>) {
        ep.reads.clear();
        ep.writes.clear();
        ep.ver_log.clear();
        ep.write_buf.clear();
        ep.buffered.clear();
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
        let out = match self.end_episode(None) {
            Err(AbortCause::Conflict(ci)) => Some(ci),
            _ => None,
        };
        match &out {
            None => self.trace(EventKind::EpisodeCommit {
                kind: EpisodeKind::OptimisticRead,
            }),
            Some(ci) => self.trace(EventKind::EpisodeAbort {
                kind: EpisodeKind::OptimisticRead,
                cause: AbortCause::Conflict(*ci).class(),
                line_addr: ci.line.base_addr(),
            }),
        }
        out
    }

    /// Close an [`EpisodeKind::LockedWrite`]: publish the writes so
    /// overlapping optimistic readers (and transactions — strong atomicity)
    /// observe them.
    pub fn episode_end_locked_write(&mut self) {
        self.trace(EventKind::EpisodeCommit {
            kind: EpisodeKind::LockedWrite,
        });
        let _ = self.end_episode(None);
    }

    /// The one way an episode ends, and its one dispatch on the backend.
    /// With `aborted` — an HTM attempt's abort cause and wasted cycles —
    /// the episode is discarded and the answer is the refund. Without, it
    /// closes: a transaction commits or answers its abort (keeping its
    /// episode for the `aborted` end that follows), an optimistic section
    /// answers a conflict, a locked write or fallback section publishes.
    /// On real threads only a commit is left to do: every direct write was
    /// published as it landed ([`ThreadCtx::direct_write`]), an optimistic
    /// reader validates by its own protocol, and a hardware attempt opens
    /// no software episode.
    pub(crate) fn end_episode(
        &mut self,
        aborted: Option<(&AbortCause, u64)>,
    ) -> Result<u64, AbortCause> {
        let Some(ep) = self.ep.take() else {
            assert!(aborted.is_some(), "no open episode");
            return Ok(0);
        };
        match self.rt.backend() {
            Backend::Virtual => self.virt_end(ep, aborted),
            Backend::Stm | Backend::Rtm => {
                if aborted.is_none() && ep.kind == EpisodeKind::HtmTx {
                    self.ep = Some(ep);
                    return self.tl2_commit().map(|()| 0);
                }
                self.recycle(ep);
                Ok(0)
            }
        }
    }

    // ================= transactional accesses =================

    /// A transactional read. The repeat-line path first: a virtual
    /// transaction reading a cell it has not buffered on its read set's
    /// memo line is what the full path charges as a repeat — no
    /// read-your-writes hit, an insert that finds the line, one hit, and
    /// a capacity verdict that cannot change, as the sets do not grow (an
    /// access that overflowed one ended the attempt: bodies pass its
    /// error on).
    #[inline]
    pub(crate) fn tx_read(&mut self, ptr: *const AtomicU64) -> Result<u64, AbortCause> {
        // No software episode inside a region: the body is running in a
        // hardware transaction — the silicon buffers, detects and rolls
        // back.
        let Some(ep) = self.ep.as_ref() else {
            return Ok(self.rtm_read(ptr));
        };
        let line = LineId::of_ptr(ptr);
        if ep.virt_tx && ep.reads.is_last(line) && !ep.buffered.may_contain(ptr as u64) {
            self.account(false)?;
        } else {
            match ep.kind {
                EpisodeKind::Fallback | EpisodeKind::LockedWrite | EpisodeKind::OptimisticRead => {
                    // Serialized / in-place paths read directly (still
                    // footprint-recorded and charged).
                    let _ = self.note_access(line, false);
                    // Safety: `Tx::read` passes `TxCell::raw_ptr` of a
                    // cell the body borrows: a live, aligned `AtomicU64`.
                    return Ok(unsafe { (*ptr).load(Ordering::Acquire) });
                }
                EpisodeKind::HtmTx => {
                    // Read-your-writes from the buffer — which holds a
                    // cell only if the filter of buffered cells does and
                    // its line is in the write set — newest write first.
                    if ep.buffered.may_contain(ptr as u64) && ep.writes.contains(line) {
                        if let Some(&(_, v)) = ep.write_buf.iter().rev().find(|(p, _)| p.0 == ptr) {
                            self.account(false)?;
                            return Ok(v);
                        }
                    }
                    self.note_access(line, false)?;
                    match self.rt.backend() {
                        Backend::Virtual => {}
                        Backend::Stm | Backend::Rtm => return self.tl2_read(ptr),
                    }
                }
            }
        }
        // Safety: `Tx::read` passes `TxCell::raw_ptr` of a cell the body
        // borrows: a live, aligned `AtomicU64`.
        Ok(unsafe { (*ptr).load(Ordering::Relaxed) })
    }

    /// A transactional write, with the repeat-line path of
    /// [`ThreadCtx::tx_read`]: a virtual transaction writing its write
    /// set's memo line is charged one hit and buffered.
    #[inline]
    pub(crate) fn tx_write(&mut self, ptr: *const AtomicU64, v: u64) -> Result<(), AbortCause> {
        let Some(ep) = self.ep.as_mut() else {
            self.rtm_write(ptr, v);
            return Ok(());
        };
        if ep.virt_tx && ep.writes.is_last(LineId::of_ptr(ptr)) {
            ep.buffer(ptr, v);
            return self.account(false);
        }
        match ep.kind {
            EpisodeKind::Fallback | EpisodeKind::LockedWrite => {
                // Direct (unbuffered) write: invalidates TL2 readers that
                // logged this line's version before it.
                self.direct_write(ptr, false, |w| (w.store(v, Ordering::Release), true));
                Ok(())
            }
            EpisodeKind::OptimisticRead => {
                panic!("write inside an optimistic read section")
            }
            EpisodeKind::HtmTx => {
                self.note_access(LineId::of_ptr(ptr), true)?;
                self.ep.as_mut().unwrap().buffer(ptr, v);
                Ok(())
            }
        }
    }

    // ================= fallback lock plumbing =================

    /// Wait until the fallback lock is free: out its virtual hold, then —
    /// on real threads — out the cell itself.
    pub(crate) fn fb_wait_free(&mut self, fb: &TxCell) {
        self.vlock_wait(fb.raw_ptr() as u64);
        let mut backoff = crate::lock::SpinBackoff::new();
        while fb.raw().load(Ordering::Acquire) != 0 {
            backoff.pause(self);
        }
    }

    /// Open a software transaction attempt subscribed to the fallback
    /// lock: its word joins the read set, so a fallback acquisition aborts
    /// us.
    pub(crate) fn tx_begin(&mut self, fb: &TxCell) -> Result<(), AbortCause> {
        self.episode_begin(EpisodeKind::HtmTx);
        let ptr = fb.raw_ptr();
        let line = LineId::of_ptr(ptr);
        let ep = self.ep.as_mut().unwrap();
        ep.fb_line = Some(line);
        ep.fb_ptr = Some(CellPtr(ptr));
        ep.reads.insert(line);
        match self.rt.backend() {
            Backend::Virtual => {
                ep.virt_tx = true;
                Ok(())
            }
            Backend::Stm | Backend::Rtm => self.tl2_begin(ptr),
        }
    }

    pub(crate) fn fb_acquire(&mut self, fb: &TxCell) {
        let addr = fb.raw_ptr() as u64;
        let waited = self.vlock_wait(addr);
        match self.rt.backend() {
            Backend::Virtual => fb.raw().store(1, Ordering::Release),
            Backend::Stm | Backend::Rtm => self.tl2_fb_lock(fb),
        }
        // The winning CAS.
        self.stats.cas_ops += 1;
        self.charge(self.rt.cost.lock_acquire);
        self.trace(EventKind::LockAcquire {
            addr,
            wait_cycles: waited,
        });
    }

    pub(crate) fn fb_release(&mut self, fb: &TxCell) {
        self.charge(self.rt.cost.lock_release);
        let addr = fb.raw_ptr() as u64;
        match self.rt.backend() {
            Backend::Virtual => self.rt.virt.lock_hold(addr, self.clock),
            Backend::Stm | Backend::Rtm => self.tl2_fb_unlock(),
        }
        fb.raw().store(0, Ordering::Release);
        self.trace(EventKind::LockRelease { addr });
    }

    // ============ episode-free optimistic-read validation ============

    /// Snapshot for an episode-free optimistic read
    /// (`ThreadCtx::tl2_snapshot`). Virtual mode needs no snapshot —
    /// episodes are physically serialized, and the read set is checked
    /// against the committed window by
    /// [`ThreadCtx::episode_end_optimistic`].
    pub fn optimistic_snapshot(&mut self) -> u64 {
        match self.rt.backend() {
            Backend::Virtual => 0,
            Backend::Stm | Backend::Rtm => self.tl2_snapshot(),
        }
    }

    /// Validate an episode-free optimistic read section against `snap`
    /// (`ThreadCtx::tl2_validate`). Virtual mode always validates here —
    /// its collision detection runs at episode close.
    pub fn optimistic_validate(&mut self, fb: &TxCell, snap: u64) -> bool {
        match self.rt.backend() {
            Backend::Virtual => true,
            Backend::Stm | Backend::Rtm => self.tl2_validate(fb, snap),
        }
    }

    // ============ mechanism hooks for the layered executor ============
    //
    // The retry/fallback *policy* lives in [`crate::exec`]; these helpers
    // expose the episode-state manipulations its stages need without
    // leaking `EpisodeState` itself.

    /// Put the fallback lock's line into the open fallback episode's write
    /// footprint so overlapping transactions observe the serialization.
    pub(crate) fn fallback_mark(&mut self, fb: &TxCell) {
        let ep = self.ep.as_mut().unwrap();
        let line = LineId::of_ptr(fb.raw_ptr());
        ep.writes.insert(line);
        ep.fb_line = Some(line);
    }

    /// Close the fallback episode: publish its section (virtual mode) so
    /// overlapping transactions abort on the subscribed lock line.
    pub(crate) fn fallback_publish(&mut self) {
        let _ = self.end_episode(None);
        self.trace(EventKind::EpisodeCommit {
            kind: EpisodeKind::Fallback,
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
    pub fn read(&mut self, cell: &TxCell) -> TxResult<u64> {
        self.ctx.tx_read(cell.raw_ptr())
    }

    /// Transactionally write a cell (buffered until commit).
    #[inline]
    pub fn write(&mut self, cell: &TxCell, v: u64) -> TxResult<()> {
        self.ctx.tx_write(cell.raw_ptr(), v)
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
    use crate::cost::CostModel;

    #[repr(align(64))]
    struct Aligned(TxCell);

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

        reader.tx_begin(&TxCell::new(0u64)).unwrap();
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

    /// Every access charged by the rules, whichever path takes it: a
    /// transactional read of a buffered cell is one hit and returns the
    /// newest buffered value; any other access is a first touch (a plain
    /// one in an optimistic section) if it adds its line to the episode's
    /// set, else one hit; a transactional access that overflows a set
    /// aborts with `Capacity`; a load outside any episode is one hit.
    /// Random transactions, optimistic sections and bare loads over six
    /// lines, half of the accesses on the last line touched, so the
    /// repeat-line paths and the filter of buffered cells carry most of
    /// them. Off the virtual backend an optimistic section records no
    /// line, so every load in it is a plain first touch.
    #[test]
    fn accesses_charge_as_the_rules_do_on_every_path() {
        use std::collections::{BTreeMap, BTreeSet};
        #[repr(align(64))]
        struct Line([TxCell; 8]);
        for backend in [Backend::Virtual, Backend::Stm] {
            let cost = CostModel {
                write_capacity_lines: 3,
                read_capacity_lines: 5,
                spurious_abort_per_cycle: 0.0,
                ..CostModel::default()
            };
            let rt = Runtime::new(backend, cost.clone());
            let mut ctx = rt.thread(7);
            let lines: Vec<Line> = (0..6u64)
                .map(|l| Line(std::array::from_fn(|i| TxCell::new(l * 8 + i as u64))))
                .collect();
            let cell = |c: usize| lines[c / 8].0[c % 8].raw_ptr();
            let mut mem: Vec<u64> = (0..48).collect();
            let fb = Aligned(TxCell::new(0));
            let mut rng = SmallRng::seed_from_u64(0xfa57);
            let mut last = 0usize;
            let mut pick = |rng: &mut SmallRng| {
                last = if rng.gen_bool(0.5) {
                    last / 8 * 8 + rng.gen_range(0usize..8)
                } else {
                    rng.gen_range(0usize..48)
                };
                last
            };
            let virt = backend == Backend::Virtual;
            let (mut commits, mut capacity, mut buffered_reads) = (0, 0, 0);
            for round in 0..4_000 {
                let kind = rng.gen_range(0u32..3);
                let mut reads = BTreeSet::new();
                let mut writes = BTreeSet::new();
                let mut buf: BTreeMap<usize, u64> = BTreeMap::new();
                match kind {
                    0 => {
                        ctx.tx_begin(&fb.0).unwrap();
                        reads.insert(LineId::of_ptr(fb.0.raw_ptr()));
                    }
                    1 => ctx.episode_begin(EpisodeKind::OptimisticRead),
                    _ => {}
                }
                let mut aborted = false;
                for _ in 0..rng.gen_range(1u32..24) {
                    let c = pick(&mut rng);
                    let line = LineId::of_ptr(cell(c));
                    let (clock, accesses) = (ctx.clock, ctx.stats.mem_accesses);
                    let first = if kind == 1 {
                        cost.plain_first_touch
                    } else {
                        cost.line_first_touch
                    };
                    let charge = |newly: bool| if newly { first } else { cost.access_hit };
                    let over = |r: &BTreeSet<_>, w: &BTreeSet<_>| {
                        w.len() > cost.write_capacity_lines || r.len() > cost.read_capacity_lines
                    };
                    let (got, want, cycles) = match kind {
                        0 if rng.gen_bool(0.5) => {
                            let got = ctx.tx_read(cell(c));
                            if let Some(&v) = buf.get(&c) {
                                buffered_reads += 1;
                                (got, Ok(v), cost.access_hit)
                            } else {
                                let newly = reads.insert(line);
                                let want = match over(&reads, &writes) {
                                    true => Err(AbortCause::Capacity),
                                    false => Ok(mem[c]),
                                };
                                (got, want, charge(newly))
                            }
                        }
                        0 => {
                            let v = rng.next_u64();
                            let got = ctx.tx_write(cell(c), v).map(|()| v);
                            let newly = writes.insert(line);
                            let want = match over(&reads, &writes) {
                                true => Err(AbortCause::Capacity),
                                false => Ok(v),
                            };
                            buf.insert(c, v);
                            (got, want, charge(newly))
                        }
                        1 => {
                            let newly = !virt || reads.insert(line);
                            (Ok(ctx.direct_load(cell(c))), Ok(mem[c]), charge(newly))
                        }
                        _ => (Ok(ctx.direct_load(cell(c))), Ok(mem[c]), cost.access_hit),
                    };
                    assert_eq!(got, want, "{backend:?} round {round}");
                    assert_eq!(ctx.clock - clock, cycles, "{backend:?} round {round}");
                    assert_eq!(ctx.stats.mem_accesses - accesses, 1);
                    if got.is_err() {
                        capacity += 1;
                        aborted = true;
                        break;
                    }
                }
                match kind {
                    0 if aborted || rng.gen_bool(0.25) => ctx.episode_abort(),
                    0 => {
                        ctx.end_episode(None).unwrap();
                        commits += 1;
                        for (&c, &v) in &buf {
                            mem[c] = v;
                        }
                    }
                    1 => assert_eq!(ctx.episode_end_optimistic(), None),
                    _ => {}
                }
                for (c, &v) in mem.iter().enumerate() {
                    assert_eq!(lines[c / 8].0[c % 8].load_plain(), v);
                }
            }
            assert!(commits > 300 && capacity > 100 && buffered_reads > 300);
        }
    }
}
