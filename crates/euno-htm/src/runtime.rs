//! Engine-wide shared state: execution mode, the TL2 global version clock
//! and per-line version-lock table for real-thread commits, and the
//! virtual-time conflict bookkeeping
//! (committed-episode window, virtual lock table, hot-line map, node table).

use std::collections::VecDeque;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use std::sync::Mutex;

/// Multiply-based hasher for the engine's `u64`-keyed maps (line ids,
/// lock keys). The default SipHash costs more than the lookups it guards
/// on the episode hot path — several line-keyed probes per commit — and
/// HashDoS resistance buys nothing against keys derived from our own
/// allocations. One odd-constant multiply (Fibonacci hashing) spreads
/// sequential line ids across the high bits hashbrown uses for its
/// control tags. Deterministic, so map *behaviour* is reproducible — and
/// nothing schedule-visible iterates these maps, so bucket order never
/// reaches the run report either way.
#[derive(Default)]
struct FibHasher(u64);

impl Hasher for FibHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        // 2^64 / phi, forced odd — the classic Fibonacci multiplier.
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Not reached by u64 keys; fold bytes so any other key type still
        // hashes sanely.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

type HashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FibHasher>>;

#[cfg(test)]
use crate::abort::{ConflictInfo, ConflictKind};
use crate::cost::CostModel;
use crate::line::{LineClass, LineId, LineSet, CACHE_LINE_BYTES};
use crate::registry::NodeTable;

/// How transactions execute.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Real OS threads; TL2-style software transactions (per-line version
    /// locks, read-version validation — see DESIGN.md §4.5) or, with the
    /// `hw-rtm` feature on a TSX CPU, real hardware transactions. Used by
    /// stress tests — genuinely concurrent and linearizable, but abort
    /// statistics reflect the STM/RTM, not the modeled TSX.
    Concurrent,
    /// Deterministic single-threaded virtual-time execution; conflicts
    /// derived from interval overlap × cache-line footprint intersection,
    /// faithfully mimicking TSX's line-granularity detection. Used by all
    /// paper-figure experiments.
    Virtual,
}

/// Which engine executes concurrent-mode transactions. The third axis of
/// the engine (virtual / software TL2 / hardware RTM): all three run the
/// same bodies behind the same staged executor ([`crate::exec`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ConcurrentBackend {
    /// TL2-style software transactions: per-line version locks, buffered
    /// writes, read-version validation.
    #[default]
    Stm,
    /// Real Intel RTM lock-elision (`hw-rtm` feature, x86-64 with TSX).
    /// Degrades to [`ConcurrentBackend::Stm`] when unavailable — check
    /// [`Runtime::rtm_active`] for what actually runs.
    HwRtm,
}

/// Does this build *and* CPU support hardware RTM? `false` whenever the
/// `hw-rtm` feature is off, the target is not x86-64, or CPUID lacks TSX.
pub fn hw_rtm_available() -> bool {
    #[cfg(all(feature = "hw-rtm", target_arch = "x86_64"))]
    {
        crate::hw::rtm_supported()
    }
    #[cfg(not(all(feature = "hw-rtm", target_arch = "x86_64")))]
    {
        false
    }
}

/// One committed episode visible to later overlapping episodes.
#[derive(Clone, Debug)]
pub struct EpisodeRecord {
    pub start: u64,
    pub end: u64,
    pub thread: u32,
    pub op_key: Option<u64>,
    pub reads: LineSet,
    pub writes: LineSet,
}

/// Write-recency record for one cache line.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LineHeat {
    pub end: u64,
    pub thread: u32,
    /// EWMA of the gap between consecutive writes (cycles); `u64::MAX`
    /// until a second write establishes a rate.
    pub gap_ewma: u64,
}

/// A committed episode in the window, stamped with its commit sequence
/// number (the key the line index refers to).
struct WindowRec {
    seq: u64,
    rec: EpisodeRecord,
}

/// One committed access to a line: the episode's commit sequence number,
/// its end time, and the running maximum end over this entry and every
/// older one in the same list. Commit order is *not* end order (a
/// later-committing episode can end earlier), so a backward walk cannot
/// stop at the first `end <= start` — but it *can* stop once the prefix
/// maximum is `<= start`, because then no older access can overlap
/// either. That early exit is what keeps the no-conflict case O(1) even
/// while stale entries (records already pruned from the window) await the
/// amortized sweep.
#[derive(Clone, Copy)]
struct LineAccess {
    seq: u64,
    end: u64,
    max_end: u64,
}

/// Accesses kept inline before an [`AccessList`] spills to the heap. A
/// skewed workload touches a long tail of lines once or twice per window;
/// two inline slots mean those lines never allocate, while the few hot
/// lines (root, fallback word) spill once and then reuse the buffer.
const INLINE_ACCESSES: usize = 2;

/// Access history of one line, in ascending-seq order (commit order), so
/// a backward walk visits newest-first. Same inline/spill design as
/// [`LineSet`]: elements live in `spill` iff it is non-empty.
struct AccessList {
    inline_len: u8,
    inline: [LineAccess; INLINE_ACCESSES],
    spill: Vec<LineAccess>,
}

impl Default for AccessList {
    fn default() -> Self {
        AccessList {
            inline_len: 0,
            inline: [LineAccess {
                seq: 0,
                end: 0,
                max_end: 0,
            }; INLINE_ACCESSES],
            spill: Vec::new(),
        }
    }
}

impl AccessList {
    #[inline]
    fn as_slice(&self) -> &[LineAccess] {
        if self.spill.is_empty() {
            &self.inline[..self.inline_len as usize]
        } else {
            &self.spill
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.inline_len == 0 && self.spill.is_empty()
    }

    /// Append one access, maintaining the prefix-maximum end.
    fn push(&mut self, seq: u64, end: u64) {
        let max_end = self.as_slice().last().map_or(end, |a| a.max_end.max(end));
        let a = LineAccess { seq, end, max_end };
        if self.spill.is_empty() {
            let n = self.inline_len as usize;
            if n < INLINE_ACCESSES {
                self.inline[n] = a;
                self.inline_len += 1;
                return;
            }
            self.spill.reserve(INLINE_ACCESSES + 1);
            self.spill.extend_from_slice(&self.inline);
            self.inline_len = 0;
        }
        self.spill.push(a);
    }

    /// Drop accesses older than `min_seq`, rebuilding the prefix maxima
    /// (the retained suffix's stored maxima still cover removed entries —
    /// correct but loose, and tight maxima are what make the early exit
    /// bite). Keeps the spill buffer's capacity for reuse.
    fn sweep(&mut self, min_seq: u64) {
        if self.spill.is_empty() {
            let mut k = 0usize;
            for i in 0..self.inline_len as usize {
                if self.inline[i].seq >= min_seq {
                    self.inline[k] = self.inline[i];
                    k += 1;
                }
            }
            self.inline_len = k as u8;
            let mut running = 0u64;
            for a in &mut self.inline[..k] {
                running = running.max(a.end);
                a.max_end = running;
            }
        } else {
            self.spill.retain(|a| a.seq >= min_seq);
            let mut running = 0u64;
            for a in self.spill.iter_mut() {
                running = running.max(a.end);
                a.max_end = running;
            }
        }
    }
}

/// Inverted-index entry for one cache line: which committed episodes
/// wrote / read it.
#[derive(Default)]
struct LineIndexEntry {
    writers: AccessList,
    readers: AccessList,
}

/// Sweep the line index once this many entries refer to records already
/// removed from the window. Amortizes the O(index) sweep across at least
/// as many removals.
const INDEX_SWEEP_STALE: usize = 4096;

/// Virtual-mode shared state. Guarded by a mutex for `Send`/`Sync`, but in
/// virtual mode all access is from the single scheduler thread, so the lock
/// is never contended.
///
/// The conflict/storm/transfer logic lives in methods on this struct (not
/// on [`Runtime`]) so the episode-closing paths in `ctx.rs` can take the
/// mutex **once** per episode and run every check under the same guard —
/// the per-episode lock traffic used to be 3-4 acquisitions. The
/// `Runtime::virt_*` wrappers below keep the one-call-one-lock API for
/// tests and single-shot callers.
#[derive(Default)]
pub(crate) struct VirtState {
    /// Recently committed episodes, ordered by commit sequence number
    /// (which is also start-time order under min-clock scheduling).
    window: VecDeque<WindowRec>,
    /// Next commit sequence number.
    next_seq: u64,
    /// line → committed episodes touching it. Commit-time conflict
    /// detection probes only the episode's own footprint lines here —
    /// O(footprint × per-line history) instead of O(window) per check.
    line_index: HashMap<u64, LineIndexEntry>,
    /// Upper bound on index entries referring to removed records; a sweep
    /// runs once it passes [`INDEX_SWEEP_STALE`].
    index_stale: usize,
    /// Advisory-lock table: lock key → virtual time it is held until.
    locks: HashMap<u64, u64>,
    /// Per-line write heat: last writer end/thread plus an EWMA of the
    /// write interarrival gap. Drives both the cross-core line-transfer
    /// charge and the storm (write-rate) extrapolation.
    recent_writes: HashMap<u64, LineHeat>,
    /// Cycles of history to keep in `recent_writes` for hot-line charging.
    transfer_horizon: u64,
}

impl LineHeat {
    /// Fold one write at `end` by `thread` into the line's heat record.
    #[inline]
    fn update(prev: Option<LineHeat>, end: u64, thread: u32) -> LineHeat {
        match prev {
            Some(prev) => {
                let gap = end.saturating_sub(prev.end).max(1);
                let ewma = if prev.gap_ewma == u64::MAX {
                    gap
                } else {
                    (3 * prev.gap_ewma + gap) / 4
                };
                LineHeat {
                    end,
                    thread,
                    gap_ewma: ewma,
                }
            }
            None => LineHeat {
                end,
                thread,
                gap_ewma: u64::MAX,
            },
        }
    }
}

impl VirtState {
    /// Check an episode's footprint against committed overlapping
    /// episodes — `reads` against their writes only (optimistic reads)
    /// when `writes` is `None`, the full TSX rules otherwise. Returns the
    /// colliding line and its class plus the other side's op key and
    /// thread. The node table is read only once a collision is found, so
    /// the line and its class come from one view of it and a clean episode
    /// never touches its lock.
    ///
    /// The conflicting record is the *newest* (largest-seq) overlapping
    /// record whose footprint intersects — exactly what the old
    /// newest-first window scan returned — found here by probing the line
    /// index with only the episode's own lines. The reported line within
    /// that record follows the priority order my W ∩ their W, then
    /// my W ∩ their R, then my R ∩ their W; within one priority level the
    /// lowest-[`LineRank`](crate::registry::LineRank) common line wins, so
    /// the report does not depend on heap addresses (see
    /// [`NodeTableRead::best_common_line`](crate::registry::NodeTableRead::best_common_line)).
    pub(crate) fn check(
        &self,
        start: u64,
        reads: &LineSet,
        writes: Option<&LineSet>,
        nodes: &NodeTable,
    ) -> Option<(LineId, LineClass, Option<u64>, u32)> {
        // `below` excludes candidates already found to be stale (their
        // record was pruned while its index entries survive) — a case the
        // scheduler's prune invariant (`start` never precedes the cutoff)
        // makes unreachable, but ad-hoc drivers can construct.
        let mut below = u64::MAX;
        loop {
            let mut best: Option<u64> = None;
            {
                // Newest overlapping entry in one per-line history list.
                let mut consider = |list: &[LineAccess]| {
                    for a in list.iter().rev() {
                        if a.max_end <= start {
                            break; // nothing here or older can overlap
                        }
                        if a.seq >= below {
                            continue;
                        }
                        if best.is_some_and(|b| a.seq <= b) {
                            break; // walking descending seq: no improvement left
                        }
                        if a.end > start {
                            best = Some(a.seq);
                            break;
                        }
                    }
                };
                // Collision rules (TSX): my W ∩ their (R ∪ W), my R ∩ their W.
                if let Some(w) = writes {
                    for l in w.iter() {
                        if let Some(e) = self.line_index.get(&l.0) {
                            consider(e.writers.as_slice());
                            consider(e.readers.as_slice());
                        }
                    }
                }
                for l in reads.iter() {
                    if let Some(e) = self.line_index.get(&l.0) {
                        consider(e.writers.as_slice());
                    }
                }
            }
            let cand = best?;
            match self.window.binary_search_by_key(&cand, |wr| wr.seq) {
                Ok(i) => {
                    let rec = &self.window[i].rec;
                    let reg = nodes.read();
                    let line = if let Some(w) = writes {
                        reg.best_common_line(w, &rec.writes)
                            .or_else(|| reg.best_common_line(w, &rec.reads))
                            .or_else(|| reg.best_common_line(reads, &rec.writes))
                    } else {
                        reg.best_common_line(reads, &rec.writes)
                    };
                    let line = line.expect("indexed record must intersect the footprint");
                    return Some((line, reg.class_of(line), rec.op_key, rec.thread));
                }
                // Stale index entry: the record was pruned. Skip it and
                // look for the next-newest candidate.
                Err(_) => below = cand,
            }
        }
    }

    /// Publish a committed episode and refresh the hot-line map; see
    /// [`Runtime::virt_commit`].
    pub(crate) fn commit(&mut self, rec: EpisodeRecord) {
        for l in rec.writes.iter() {
            let heat = LineHeat::update(self.recent_writes.get(&l.0).copied(), rec.end, rec.thread);
            self.recent_writes.insert(l.0, heat);
        }
        // Opportunistic backstop pruning for drivers that never call
        // [`Runtime::virt_prune`] (ad-hoc tests, hand-rolled loops): any
        // future episode in a min-clock-ordered schedule starts no earlier
        // than this commit's start, so records ending a full safety margin
        // before it can never collide again. The scheduler still performs
        // exact pruning.
        if self.window.len() >= 256 {
            let cutoff = rec.start.saturating_sub(200_000);
            self.drop_window_prefix(cutoff);
            if self.window.len() >= 4096 {
                self.drop_window_all(cutoff);
            }
            self.maybe_sweep_index();
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        for l in rec.writes.iter() {
            self.line_index
                .entry(l.0)
                .or_default()
                .writers
                .push(seq, rec.end);
        }
        for l in rec.reads.iter() {
            self.line_index
                .entry(l.0)
                .or_default()
                .readers
                .push(seq, rec.end);
        }
        self.window.push_back(WindowRec { seq, rec });
    }

    /// Pop window records (oldest-first) whose end is at or before
    /// `cutoff`, stopping at the first survivor.
    fn drop_window_prefix(&mut self, cutoff: u64) {
        while let Some(front) = self.window.front() {
            if front.rec.end <= cutoff {
                let wr = self.window.pop_front().unwrap();
                self.index_stale += wr.rec.writes.len() + wr.rec.reads.len();
            } else {
                break;
            }
        }
    }

    /// Drop *every* window record ending at or before `cutoff` (the rare
    /// linear pass — pop_front alone can strand long-lived records behind
    /// a long-running front entry).
    fn drop_window_all(&mut self, cutoff: u64) {
        let stale = &mut self.index_stale;
        self.window.retain(|wr| {
            if wr.rec.end > cutoff {
                true
            } else {
                *stale += wr.rec.writes.len() + wr.rec.reads.len();
                false
            }
        });
    }

    /// Drop index entries whose records left the window, once enough have
    /// accumulated. Entries are in ascending-seq order, so everything
    /// before the oldest live seq is a removable prefix; entries for
    /// records removed out of the middle (by [`VirtState::drop_window_all`])
    /// linger until the live horizon passes them, which is harmless — the
    /// checker skips candidates it cannot resolve.
    fn maybe_sweep_index(&mut self) {
        if self.index_stale < INDEX_SWEEP_STALE {
            return;
        }
        let min_seq = self.window.front().map_or(self.next_seq, |wr| wr.seq);
        self.line_index.retain(|_, e| {
            e.writers.sweep(min_seq);
            e.readers.sweep(min_seq);
            !e.writers.is_empty() || !e.readers.is_empty()
        });
        self.index_stale = 0;
    }

    /// Exact pruning driven by the scheduler: drop everything that cannot
    /// affect any episode starting at or after `before`.
    pub(crate) fn prune(&mut self, before: u64) {
        self.drop_window_prefix(before);
        if self.window.len() > 4096 {
            self.drop_window_all(before);
        }
        self.maybe_sweep_index();
        if self.recent_writes.len() > 1 << 16 {
            self.recent_writes
                .retain(|_, heat| heat.end + 1_000_000 > before);
        }
        if self.locks.len() > 1 << 14 {
            self.locks.retain(|_, &mut until| until > before);
        }
    }

    /// Forget what the simulation remembers about `lines`: a node was just
    /// allocated there. Heat and commit history are keyed by address, and
    /// a freed node's address comes back whenever the allocator pleases —
    /// were the newcomer to inherit them, whether a fresh leaf starts hot
    /// would depend on heap layout, and a run would no longer repeat under
    /// ASLR (`virt-scan-churn` once its sweeps free leaves: ±0.1 %).
    pub(crate) fn forget_lines(&mut self, lines: std::ops::Range<u64>) {
        for line in lines {
            self.recent_writes.remove(&line);
            self.line_index.remove(&line);
        }
    }

    /// Storm extrapolation: serial virtual execution can only see
    /// conflicts with *already committed* episodes, but on real hardware a
    /// transaction also races writers that are wall-clock concurrent yet
    /// execute later in the serial order. Model them statistically: if a
    /// line in the footprint was last written by another thread Δ cycles
    /// before this episode started, treat writes to it as a Poisson stream
    /// of rate 1/Δ, so an episode of duration L collides with probability
    /// `1 − exp(−L/Δ)`. Under a genuine storm Δ collapses and retries keep
    /// failing — reproducing TSX's retry livelock and the fallback convoy
    /// that drives the paper's throughput collapse; under low contention Δ
    /// is huge and the correction vanishes.
    #[allow(clippy::too_many_arguments)] // episode scalars, not a config bag
    pub(crate) fn storm_check(
        &self,
        reads: &LineSet,
        writes: Option<&LineSet>,
        start: u64,
        duration: u64,
        me: u32,
        u: f64,
        nodes: &NodeTable,
    ) -> Option<(LineId, LineClass)> {
        let l = duration.max(1) as f64;
        // Survival probability across all hot lines in the footprint: the
        // line's write process is modelled as Poisson with rate
        // 1/EWMA-gap, damped exponentially with the time since the last
        // write so a storm that has genuinely ended stops biting. A line
        // with no rate estimate yet falls back to the single-observation
        // estimate (gap ≈ time since that write).
        let mut log_survive = 0.0f64;
        let mut latest_write: Option<u64> = None;
        let lines = || {
            reads
                .iter()
                .chain(writes.into_iter().flat_map(LineSet::iter))
        };
        // A line counts if another thread last wrote it before `start`.
        let heat_of = |line: LineId| {
            let heat = self.recent_writes.get(&line.0)?;
            (heat.thread != me && heat.end <= start).then_some(heat)
        };
        for heat in lines().filter_map(heat_of) {
            let since = (start - heat.end).max(1) as f64;
            let lambda = if heat.gap_ewma == u64::MAX {
                l / since
            } else {
                let gap = heat.gap_ewma.max(1) as f64;
                (l / gap) * (-since / (20.0 * gap)).exp()
            };
            log_survive -= lambda;
            latest_write = latest_write.max(Some(heat.end));
        }
        let p_abort = 1.0 - log_survive.exp();
        if !(p_abort > 0.0 && u < p_abort) {
            return None;
        }
        // Report the most-recently-written line; `heat.end` ties (lines
        // written by the same committed episode) break on [`LineRank`],
        // not address order, so the reported line is layout-independent.
        // The node table is read only here, once the storm has fired.
        let reg = nodes.read();
        let line = lines()
            .filter(|&line| heat_of(line).map(|h| h.end) == latest_write)
            .min_by_key(|&line| reg.rank_of(line))?;
        Some((line, reg.class_of(line)))
    }

    /// Heat contribution of an aborted attempt's speculative writes; see
    /// [`Runtime::virt_note_attempt_writes`].
    pub(crate) fn note_attempt_writes(&mut self, writes: &LineSet, end: u64, thread: u32) {
        for l in writes.iter() {
            let heat = LineHeat::update(self.recent_writes.get(&l.0).copied(), end, thread);
            self.recent_writes.insert(l.0, heat);
        }
    }

    /// Cycles charged for cache-coherence transfers of recently-written
    /// hot lines (touched by another thread within the transfer horizon).
    pub(crate) fn transfer_charge(
        &self,
        footprint: impl Iterator<Item = LineId>,
        now: u64,
        me: u32,
        line_transfer_cost: u64,
    ) -> u64 {
        let mut hot = 0u64;
        for l in footprint {
            if let Some(heat) = self.recent_writes.get(&l.0) {
                if heat.thread != me && heat.end + self.transfer_horizon > now {
                    hot += 1;
                }
            }
        }
        hot * line_transfer_cost
    }
}

/// A word on a cache line of its own. Every writing commit on every
/// thread bumps `Runtime::seq` and `Runtime::wb_active`, while every
/// access reads `mode` and `cost`: wherever field reordering happens to
/// put them, the write-hot words must not share a line with the
/// read-only ones (`wall-point`, 2 threads: 1.11 M ops/s sharing a line
/// with `mode`, 1.34 M apart).
#[repr(align(64))]
pub(crate) struct OwnLine<T>(T);

impl<T> std::ops::Deref for OwnLine<T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.0
    }
}

/// The engine runtime shared by all threads of one experiment.
///
/// Trees hold an `Arc<Runtime>`; per-thread handles are
/// [`ThreadCtx`](crate::ctx::ThreadCtx)s created via [`Runtime::thread`].
pub struct Runtime {
    mode: Mode,
    pub cost: CostModel,
    /// TL2 global version clock (concurrent mode): monotone, bumped once
    /// per writing commit (software TL2 and hardware RTM alike), once per
    /// completed fallback section, and once per non-quiet direct write
    /// (whose line-version bump is anchored to the drawn value — see
    /// `ThreadCtx::bump_line_version`). Read versions
    /// (`EpisodeState::rv`) and optimistic-read snapshots are taken from
    /// it; commit write-versions are `fetch_add(1) + 1`. Invariant: no
    /// slot of `vlocks` ever carries a version above this clock.
    pub(crate) seq: OwnLine<AtomicU64>,
    /// TL2 per-line version-lock table (concurrent mode; see
    /// [`crate::lock::VersionTable`] and DESIGN.md §4.5).
    pub(crate) vlocks: crate::lock::VersionTable,
    /// Number of writing commits currently between their clock bump and
    /// the end of their writeback. Episode-free optimistic readers take
    /// snapshots only while this is zero, and a fallback acquirer spins it
    /// to zero before issuing direct writes — the two places that must not
    /// observe a half-applied write buffer.
    pub(crate) wb_active: OwnLine<AtomicU64>,
    /// Which engine executes concurrent-mode transactions (STM or real
    /// RTM); `Mode::Virtual` ignores it.
    backend: ConcurrentBackend,
    /// `backend == HwRtm` resolved against compile-time feature and
    /// runtime CPUID support, cached at construction.
    rtm_ok: bool,
    pub(crate) virt: Mutex<VirtState>,
    /// Line → registered node, populated by trees at node allocation:
    /// answers conflict classification, profiler attribution and the
    /// deterministic line ranks for conflict-line selection — which is why
    /// the episode-closing paths in `ctx.rs` pass it into
    /// [`VirtState::check`] / [`VirtState::storm_check`].
    pub(crate) nodes: NodeTable,
    /// Epoch collector for deferred node reclamation: trees pin around
    /// every operation ([`crate::ctx::ThreadCtx::epoch_enter`]) and hand
    /// unlinked nodes to their [`crate::arena::Arena`], which defers the
    /// free here. Charges no cycles and draws no engine randomness, so it
    /// is invisible to the virtual-time schedule.
    epoch: crate::epoch::Collector,
    /// Always-on metric registry (per-thread counter shards, gauges, CCM
    /// flip log). Like the epoch collector it charges no cycles and draws
    /// no engine randomness — invisible to the virtual-time schedule.
    metrics: euno_metrics::Registry,
    /// Monotonic source for thread ids handed out by [`Runtime::thread`].
    next_thread: AtomicU64,
}

impl Runtime {
    pub fn new(mode: Mode, cost: CostModel) -> Arc<Self> {
        Self::new_with_backend(mode, cost, ConcurrentBackend::Stm)
    }

    /// Construct a runtime with an explicit concurrent-mode backend.
    /// `HwRtm` requires the `hw-rtm` feature *and* CPU support; without
    /// either, the runtime silently degrades to the software TL2 path
    /// (the same way [`crate::hw::HwRegion`] falls back), so callers may
    /// request it unconditionally.
    pub fn new_with_backend(mode: Mode, cost: CostModel, backend: ConcurrentBackend) -> Arc<Self> {
        let rtm_ok =
            mode == Mode::Concurrent && backend == ConcurrentBackend::HwRtm && hw_rtm_available();
        Arc::new(Runtime {
            mode,
            cost,
            seq: OwnLine(AtomicU64::new(0)),
            vlocks: crate::lock::VersionTable::new(),
            wb_active: OwnLine(AtomicU64::new(0)),
            backend,
            rtm_ok,
            virt: Mutex::new(VirtState {
                transfer_horizon: 20_000,
                ..VirtState::default()
            }),
            nodes: NodeTable::default(),
            epoch: crate::epoch::Collector::new(),
            metrics: euno_metrics::Registry::new(),
            next_thread: AtomicU64::new(0),
        })
    }

    /// Convenience: virtual-time runtime with the default cost model.
    pub fn new_virtual() -> Arc<Self> {
        Self::new(Mode::Virtual, CostModel::default())
    }

    /// Convenience: real-thread runtime with the default cost model.
    pub fn new_concurrent() -> Arc<Self> {
        Self::new(Mode::Concurrent, CostModel::default())
    }

    /// Convenience: real-thread runtime on the hardware-RTM backend (TL2
    /// software path when the feature or the CPU is missing).
    pub fn new_concurrent_rtm() -> Arc<Self> {
        Self::new_with_backend(
            Mode::Concurrent,
            CostModel::default(),
            ConcurrentBackend::HwRtm,
        )
    }

    #[inline]
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// The configured concurrent-mode backend.
    #[inline]
    pub fn backend(&self) -> ConcurrentBackend {
        self.backend
    }

    /// Whether transactions on this runtime actually execute as hardware
    /// RTM transactions (feature compiled in, CPU supports it, and the
    /// backend requested it).
    #[inline]
    pub fn rtm_active(&self) -> bool {
        self.rtm_ok
    }

    /// Current version of the TL2 slot covering `addr`'s cache line
    /// (tests/diagnostics).
    pub fn line_version_of(&self, addr: usize) -> u64 {
        self.vlocks.line_version(LineId::of_addr(addr))
    }

    /// The epoch collector governing deferred node reclamation.
    #[inline]
    pub fn epoch(&self) -> &crate::epoch::Collector {
        &self.epoch
    }

    /// The metric registry: per-thread counter shards, epoch gauges and
    /// the CCM flip log. Disable *before* creating threads (e.g. for an
    /// overhead baseline) with `rt.metrics().set_enabled(false)` — threads
    /// registered while disabled carry no shard.
    #[inline]
    pub fn metrics(&self) -> &euno_metrics::Registry {
        &self.metrics
    }

    /// Refresh the epoch-reclamation gauges from the collector (samplers
    /// call this right before each snapshot).
    pub fn publish_epoch_gauges(&self) {
        self.metrics.set_gauge(
            euno_metrics::Gauge::EpochRetiredPending,
            self.epoch.pending() as u64,
        );
        self.metrics.set_gauge(
            euno_metrics::Gauge::EpochRetiredPendingBytes,
            self.epoch.pending_bytes() as u64,
        );
        self.metrics
            .set_gauge(euno_metrics::Gauge::EpochReclaimed, self.epoch.reclaimed());
    }

    /// Create a per-thread execution handle with a deterministic RNG seed.
    pub fn thread(self: &Arc<Self>, seed: u64) -> crate::ctx::ThreadCtx {
        let raw = self
            .next_thread
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        // Thread ids feed conflict attribution and trace records as u32;
        // a silent wrap would alias two threads' histories.
        let id = u32::try_from(raw)
            .expect("Runtime::thread: more than u32::MAX thread handles created on one runtime");
        crate::ctx::ThreadCtx::new(Arc::clone(self), id, seed)
    }

    // ----- node table -------------------------------------------------

    /// Describe one allocated node to the engine: it occupies
    /// `[base, base + bytes)`, and `parts` lists `(byte offset, class)`
    /// of up to three consecutive parts in address order, the first at
    /// offset 0. Trees call this once per node allocation so conflicts
    /// can be attributed to the paper's taxonomy buckets; with
    /// `attributed` the contention profiler also attributes
    /// address-carrying trace events (conflict lines, lock cells, CCM
    /// words) inside the node to `base`. Replaces whatever was registered
    /// on the same lines (a freed node whose memory was reused), and in
    /// virtual mode starts those lines cold (`VirtState::forget_lines`).
    pub fn register_node(
        &self,
        base: usize,
        bytes: usize,
        parts: &[(usize, LineClass)],
        attributed: bool,
    ) {
        self.nodes.register(base, bytes, parts, attributed);
        self.forget_node_heat(base, bytes);
    }

    /// The node at `base` has been unlinked and handed to the collector:
    /// drop what the simulation remembers about its lines *now*, at a
    /// point every run reaches alike, rather than whenever the allocator
    /// re-issues the address ([`Runtime::register_node`]) or never. Stale
    /// entries would otherwise count towards the heat map's eviction
    /// trigger for a layout-dependent while, and what that eviction drops
    /// decides how hot a line reads the next time it is written
    /// (`virt-scan-churn` under ASLR: one of two values, 0.1 % apart). The
    /// registration itself stays: pinned readers may still touch the node.
    pub fn forget_node_heat(&self, base: usize, bytes: usize) {
        if self.mode == Mode::Virtual {
            let line = CACHE_LINE_BYTES as u64;
            let (lo, hi) = (base as u64, (base + bytes) as u64);
            self.virt
                .lock()
                .unwrap()
                .forget_lines(lo / line..hi.div_ceil(line));
        }
    }

    /// Convenience: register a value as a one-part, unattributed node.
    pub fn register_value<T>(&self, v: &T, class: LineClass) {
        let base = v as *const T as usize;
        self.register_node(base, std::mem::size_of::<T>(), &[(0, class)], false);
    }

    #[inline]
    pub fn class_of(&self, line: LineId) -> LineClass {
        self.nodes.read().class_of(line)
    }

    /// Deterministic rank of a line: `(registration id of its node, line
    /// offset within the node)`, or `(u64::MAX, line id)` when
    /// unregistered. Conflict-line selection orders by it.
    pub fn rank_of(&self, line: LineId) -> (u64, u64) {
        self.nodes.read().rank_of(line)
    }

    /// Base address of the attributed node containing `addr`, if any.
    #[inline]
    pub fn object_base_of(&self, addr: u64) -> Option<u64> {
        self.nodes.read().object_base_of(addr)
    }

    // ----- virtual-mode conflict window --------------------------------

    /// Check an episode's footprint against committed overlapping episodes.
    /// `check_reads_against_writes` only (optimistic reads) when
    /// `writes` is `None`.
    ///
    /// Returns the first collision found, classified. The episode-closing
    /// hot paths in `ctx.rs` call [`VirtState::check`] directly under
    /// their single lock acquisition; this wrapper serves the unit tests.
    #[cfg(test)]
    pub(crate) fn virt_check(
        &self,
        start: u64,
        reads: &LineSet,
        writes: Option<&LineSet>,
        my_key: Option<u64>,
    ) -> Option<ConflictInfo> {
        let virt = self.virt.lock().unwrap();
        let (line, class, other_key, other_thread) =
            virt.check(start, reads, writes, &self.nodes)?;
        drop(virt);
        let kind = ConflictKind::classify(class, my_key, other_key);
        Some(ConflictInfo {
            line,
            kind,
            other_thread: Some(other_thread),
        })
    }

    /// Publish a committed episode and refresh the hot-line map.
    pub(crate) fn virt_commit(&self, rec: EpisodeRecord) {
        self.virt.lock().unwrap().commit(rec);
    }

    /// Record the write footprint of an *aborted* HTM attempt. Speculative
    /// stores issue request-for-ownership coherence traffic whether or not
    /// the transaction later commits, so aborted attempts keep contended
    /// lines hot — the positive feedback that turns contention into the
    /// retry storms the paper measures (60 aborts/op at θ = 0.99).
    pub(crate) fn virt_note_attempt_writes(&self, writes: &LineSet, end: u64, thread: u32) {
        if writes.is_empty() {
            return;
        }
        self.virt
            .lock()
            .unwrap()
            .note_attempt_writes(writes, end, thread);
    }

    /// Cycles charged for cache-coherence transfers of recently-written hot
    /// lines (touched by another thread within the transfer horizon).
    /// The episode-closing hot paths in `ctx.rs` call
    /// [`VirtState::transfer_charge`] directly under their single lock
    /// acquisition; this wrapper serves the unit tests.
    #[cfg(test)]
    pub(crate) fn virt_transfer_charge(
        &self,
        footprint: impl Iterator<Item = LineId>,
        now: u64,
        me: u32,
    ) -> u64 {
        self.virt
            .lock()
            .unwrap()
            .transfer_charge(footprint, now, me, self.cost.line_transfer)
    }

    /// Drop window entries and hot-line records that can no longer affect
    /// any episode starting at or after `before`. The scheduler calls this
    /// with the minimum pending start time.
    pub fn virt_prune(&self, before: u64) {
        self.virt.lock().unwrap().prune(before);
    }

    /// Current number of live window entries (observability/tests).
    pub fn virt_window_len(&self) -> usize {
        self.virt.lock().unwrap().window.len()
    }

    /// Lines the heat map currently holds — what its eviction triggers on
    /// (observability/tests).
    pub fn virt_heat_len(&self) -> usize {
        self.virt.lock().unwrap().recent_writes.len()
    }

    // ----- virtual-mode advisory locks ---------------------------------

    /// Virtual time at which the lock `key` becomes free (≥ `now`).
    /// Public so downstream crates can build custom lock primitives (e.g.
    /// the CCM's single-word bit locks) with virtual-wait semantics.
    pub fn vlock_free_at(&self, key: u64, now: u64) -> u64 {
        self.virt
            .lock()
            .unwrap()
            .locks
            .get(&key)
            .copied()
            .unwrap_or(0)
            .max(now)
    }

    /// Record that `key` is held until `until`.
    pub fn vlock_hold(&self, key: u64, until: u64) {
        let mut virt = self.virt.lock().unwrap();
        let slot = virt.locks.entry(key).or_insert(0);
        *slot = (*slot).max(until);
    }

    /// Reset all engine state between experiment phases (keeps the node
    /// table — the tree nodes are still alive).
    pub fn reset_dynamics(&self) {
        let mut virt = self.virt.lock().unwrap();
        virt.window.clear();
        virt.line_index.clear();
        virt.index_stale = 0;
        virt.locks.clear();
        virt.recent_writes.clear();
        drop(virt);
        // Preload / warmup traffic must not leak into measured metric
        // totals; registered threads keep their shard handles.
        self.metrics.reset();
    }
}

/// Derive a virtual-lock key from a cell address (one key per word).
#[inline]
pub fn lock_key_for_addr(addr: usize) -> u64 {
    addr as u64
}

/// Derive a virtual-lock key for a single bit of a bit-vector word, so the
/// CCM's per-slot lock bits are independent locks.
#[inline]
pub fn lock_key_for_bit(addr: usize, bit: u32) -> u64 {
    // Word addresses are 8-byte aligned, so the low 3 bits are free; bits
    // run 0..64, needing 6 bits. Shift the address up to make room.
    ((addr as u64) << 6) | (bit as u64 & 63)
}

/// Size sanity: a cache line holds 8 cells.
pub const CELLS_PER_LINE: usize = CACHE_LINE_BYTES / 8;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_classify() {
        let rt = Runtime::new_virtual();
        let buf = vec![0u8; 256];
        rt.register_node(buf.as_ptr() as usize, 256, &[(0, LineClass::Record)], false);
        let l = LineId::of_ptr(buf.as_ptr().wrapping_add(100));
        assert_eq!(rt.class_of(l), LineClass::Record);
        let unrelated = LineId(0xdead_beef);
        assert_eq!(rt.class_of(unrelated), LineClass::Unknown);
    }

    #[test]
    fn object_registry_resolves_containing_object() {
        let rt = Runtime::new_virtual();
        rt.register_node(0x1000, 256, &[(0, LineClass::Record)], true);
        rt.register_node(0x3000, 64, &[(0, LineClass::Record)], true);
        assert_eq!(rt.object_base_of(0x1000), Some(0x1000));
        assert_eq!(rt.object_base_of(0x10ff), Some(0x1000));
        assert_eq!(rt.object_base_of(0x1100), None);
        assert_eq!(rt.object_base_of(0x3020), Some(0x3000));
        assert_eq!(rt.object_base_of(0x0fff), None);
        // Values are classified but not attributed.
        let v = Box::new([0u64; 8]);
        rt.register_value(&*v, LineClass::Structure);
        assert_eq!(rt.class_of(LineId::of_ptr(&*v)), LineClass::Structure);
        assert_eq!(rt.object_base_of(&*v as *const _ as u64), None);
    }

    #[test]
    fn window_conflict_detection_basic() {
        let rt = Runtime::new_virtual();
        let reads: LineSet = [LineId(10)].into_iter().collect();
        let writes: LineSet = [LineId(20)].into_iter().collect();
        rt.virt_commit(EpisodeRecord {
            start: 0,
            end: 100,
            thread: 0,
            op_key: Some(7),
            reads,
            writes,
        });

        // Overlapping reader of line 20 collides with the committed write.
        let r: LineSet = [LineId(20)].into_iter().collect();
        let w = LineSet::new();
        let c = rt.virt_check(50, &r, Some(&w), Some(9));
        assert!(c.is_some());
        assert_eq!(c.unwrap().other_thread, Some(0));

        // Non-overlapping (starts after the episode ended): no conflict.
        assert!(rt.virt_check(100, &r, Some(&w), Some(9)).is_none());

        // Overlapping but disjoint lines: no conflict.
        let r2: LineSet = [LineId(99)].into_iter().collect();
        assert!(rt.virt_check(50, &r2, Some(&w), Some(9)).is_none());
    }

    #[test]
    fn writer_collides_with_committed_reader() {
        // TSX aborts a running reader when a writer intrudes; in the model
        // the later-executing writer takes the abort instead — same count.
        let rt = Runtime::new_virtual();
        rt.virt_commit(EpisodeRecord {
            start: 0,
            end: 100,
            thread: 1,
            op_key: None,
            reads: [LineId(5)].into_iter().collect(),
            writes: LineSet::new(),
        });
        let w: LineSet = [LineId(5)].into_iter().collect();
        let c = rt.virt_check(10, &LineSet::new(), Some(&w), None);
        assert!(c.is_some());
    }

    #[test]
    fn optimistic_read_only_checks_writes() {
        let rt = Runtime::new_virtual();
        rt.virt_commit(EpisodeRecord {
            start: 0,
            end: 100,
            thread: 1,
            op_key: None,
            reads: [LineId(5)].into_iter().collect(),
            writes: [LineId(6)].into_iter().collect(),
        });
        // Optimistic read of line 5 (their read): fine.
        let r: LineSet = [LineId(5)].into_iter().collect();
        assert!(rt.virt_check(10, &r, None, None).is_none());
        // Optimistic read of line 6 (their write): retry.
        let r: LineSet = [LineId(6)].into_iter().collect();
        assert!(rt.virt_check(10, &r, None, None).is_some());
    }

    #[test]
    fn prune_discards_expired_records() {
        let rt = Runtime::new_virtual();
        for i in 0..10 {
            rt.virt_commit(EpisodeRecord {
                start: i * 10,
                end: i * 10 + 10,
                thread: 0,
                op_key: None,
                reads: LineSet::new(),
                writes: [LineId(i)].into_iter().collect(),
            });
        }
        assert_eq!(rt.virt_window_len(), 10);
        rt.virt_prune(55);
        assert!(rt.virt_window_len() <= 5);
        // Remaining entries still catch conflicts.
        let w: LineSet = [LineId(9)].into_iter().collect();
        assert!(rt.virt_check(91, &LineSet::new(), Some(&w), None).is_some());
    }

    #[test]
    fn vlock_hold_and_query() {
        let rt = Runtime::new_virtual();
        assert_eq!(rt.vlock_free_at(42, 100), 100);
        rt.vlock_hold(42, 500);
        assert_eq!(rt.vlock_free_at(42, 100), 500);
        assert_eq!(rt.vlock_free_at(42, 900), 900);
        // Holds never shrink.
        rt.vlock_hold(42, 300);
        assert_eq!(rt.vlock_free_at(42, 100), 500);
    }

    #[test]
    fn transfer_charge_for_hot_lines() {
        let rt = Runtime::new_virtual();
        rt.virt_commit(EpisodeRecord {
            start: 0,
            end: 100,
            thread: 1,
            op_key: None,
            reads: LineSet::new(),
            writes: [LineId(3)].into_iter().collect(),
        });
        let cost = rt.cost.line_transfer;
        // Another thread touching the line soon after pays a transfer.
        let c = rt.virt_transfer_charge([LineId(3)].into_iter(), 150, 0);
        assert_eq!(c, cost);
        // The writer itself does not.
        let c = rt.virt_transfer_charge([LineId(3)].into_iter(), 150, 1);
        assert_eq!(c, 0);
        // Long after the horizon: cold again.
        let c = rt.virt_transfer_charge([LineId(3)].into_iter(), 10_000_000, 0);
        assert_eq!(c, 0);
    }

    #[test]
    fn storm_reports_latest_write_and_breaks_ties_on_rank() {
        let rt = Runtime::new_virtual();
        // The higher address registers first: rank order reverses
        // address order.
        rt.register_node(0x2000, 64, &[(0, LineClass::Record)], false);
        rt.register_node(0x1000, 64, &[(0, LineClass::Record)], false);
        let (lo, hi) = (LineId(0x1000 / 64), LineId(0x2000 / 64));
        let write = |start, end, lines: &[LineId]| {
            rt.virt_commit(EpisodeRecord {
                start,
                end,
                thread: 1,
                op_key: None,
                reads: LineSet::new(),
                writes: lines.iter().copied().collect(),
            });
        };
        write(0, 50, &[LineId(5)]);
        write(60, 100, &[lo, hi]);
        let reads: LineSet = [LineId(5), lo, hi].into_iter().collect();
        let virt = rt.virt.lock().unwrap();
        // `u = 0` fires whenever any footprint line is hot.
        let storm = |me| virt.storm_check(&reads, None, 100, 1_000, me, 0.0, &rt.nodes);
        let hit = Some((hi, LineClass::Record));
        assert_eq!(storm(0), hit, "latest write, first-registered node");
        assert_eq!(storm(1), None, "a thread's own writes are not a storm");
    }

    #[test]
    fn bit_lock_keys_are_distinct() {
        let addr = 0x1000usize;
        let mut keys = std::collections::HashSet::new();
        for b in 0..64 {
            keys.insert(lock_key_for_bit(addr, b));
        }
        assert_eq!(keys.len(), 64);
        assert!(!keys.contains(&lock_key_for_bit(0x1008, 0)));
    }
}
