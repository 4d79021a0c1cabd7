//! The virtual-time backend ([`Backend::Virtual`]): one scheduler thread,
//! a cycle-charged clock per logical thread, and conflicts derived from
//! interval overlap × cache-line footprint intersection. Everything that
//! model consists of is here — the committed-episode window with its line
//! index ([`VirtState`]), the storm extrapolation, the line-heat map
//! behind the transfer charge, the virtual lock clock
//! ([`ThreadCtx::vlock_free_at`] / [`ThreadCtx::vlock_hold`]) and the
//! `virt_*` halves of the entry points [`crate::ctx`] dispatches from.
//! The clock charges per instrumented access, so a change here moves
//! every figure; a change that means to move none is checkable as
//! equality (the golden digest, `results/`, the gated `virt-*` rows).
//!
//! [`Backend::Virtual`]: crate::runtime::Backend::Virtual

use std::collections::VecDeque;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::Ordering;
use std::sync::Arc;

use euno_rng::Rng;
use euno_trace::{EpisodeKind, EventKind};

use crate::abort::{classify_conflict, AbortCause, ConflictInfo};
use crate::ctx::{EpisodeState, ThreadCtx};
use crate::line::{LineClass, LineId, LineSet};
use crate::registry::NodeTable;
use crate::runtime::{Backend, Runtime};
use crate::word::TxCell;

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
/// on [`Runtime`]) so the episode-closing paths below can take the
/// mutex **once** per episode and run every check under the same guard —
/// the per-episode lock traffic used to be 3-4 acquisitions.
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
}

/// Cycles of history in `recent_writes` that count for hot-line charging.
const TRANSFER_HORIZON: u64 = 20_000;

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

    /// Publish a committed episode and refresh the hot-line map.
    pub(crate) fn commit(&mut self, rec: EpisodeRecord) {
        self.heat_writes(&rec.writes, rec.end, rec.thread);
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

    /// Drop all dynamics between experiment phases.
    pub(crate) fn clear(&mut self) {
        self.window.clear();
        self.line_index.clear();
        self.index_stale = 0;
        self.locks.clear();
        self.recent_writes.clear();
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

    /// Fold `thread`'s writes at `end` into the heat map — a commit's, or an
    /// aborted attempt's speculative ones
    /// ([`ThreadCtx::virt_attempt_aborted`]).
    pub(crate) fn heat_writes(&mut self, writes: &LineSet, end: u64, thread: u32) {
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
                if heat.thread != me && heat.end + TRANSFER_HORIZON > now {
                    hot += 1;
                }
            }
        }
        hot * line_transfer_cost
    }
}

impl Runtime {
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

    /// Virtual time at which the lock `key` becomes free (≥ `now`).
    pub(crate) fn vlock_free_at(&self, key: u64, now: u64) -> u64 {
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
    pub(crate) fn vlock_hold(&self, key: u64, until: u64) {
        let mut virt = self.virt.lock().unwrap();
        let slot = virt.locks.entry(key).or_insert(0);
        *slot = (*slot).max(until);
    }
}

impl ThreadCtx {
    // ----- the virtual lock clock ---------------------------------------
    //
    // A lock on the virtual backend is an interval: its holder records the
    // release time; a later arrival is charged the wait until then and
    // finds the word itself free. These primitives dispatch on the backend
    // themselves, so a lock written over them needs no mode test of its
    // own: off the virtual backend nothing is ever virtually held, and what
    // is left of the acquire is its [`crate::lock::SpinBackoff`] loop.

    /// Virtual time at which lock `key` is released: at most the thread's
    /// clock when it is free — which, off the virtual backend, it always
    /// is (real threads wait by spinning).
    pub fn vlock_free_at(&self, key: u64) -> u64 {
        match self.rt.backend() {
            Backend::Virtual => self.rt.vlock_free_at(key, self.clock),
            Backend::Stm | Backend::Rtm => 0,
        }
    }

    /// Advance the clock to lock `key`'s virtual release time and account
    /// the wait; returns the cycles waited.
    pub fn vlock_wait(&mut self, key: u64) -> u64 {
        let free_at = self.vlock_free_at(key);
        self.wait_until(free_at)
    }

    /// Record that this thread held lock `key` until now.
    pub fn vlock_hold(&self, key: u64) {
        match self.rt.backend() {
            Backend::Virtual => self.rt.vlock_hold(key, self.clock),
            Backend::Stm | Backend::Rtm => {}
        }
    }

    /// [`crate::lock::LockWord`]'s blocking acquire on the virtual backend: the
    /// wait until the holder's modeled release time plus one losing CAS
    /// observation, so a contended acquisition is accounted as on real
    /// threads — one losing + one winning CAS.
    pub(crate) fn virt_acquire_mask(&mut self, word: &TxCell<u64>, mask: u64, vkey: u64) {
        let free_at = self.rt.vlock_free_at(vkey, self.clock);
        if free_at > self.clock {
            // The losing CAS advances the clock too; only the residual
            // gap to the release time is spent waiting.
            self.charge_cas_miss();
            self.wait_until(free_at);
        }
        let prev = word.fetch_or_direct(self, mask);
        debug_assert_eq!(prev & mask, 0, "virtual lock bits must be free");
    }

    // ----- publication ---------------------------------------------------

    /// The one way anything enters the committed window: `[start, now]` on
    /// this thread, with this footprint — taken, not copied (`mem::take` of
    /// an inline LineSet is a memcpy; the record borrows no heap unless the
    /// footprint spilled past the inline capacity).
    fn virt_publish(
        &self,
        virt: &mut VirtState,
        start: u64,
        op_key: Option<u64>,
        reads: &mut LineSet,
        writes: &mut LineSet,
    ) {
        virt.commit(EpisodeRecord {
            start,
            end: self.clock,
            thread: self.id,
            op_key,
            reads: std::mem::take(reads),
            writes: std::mem::take(writes),
        });
    }

    /// Strong atomicity in virtual mode: a bare (outside any episode)
    /// direct write is published as a zero-width committed episode so it
    /// aborts overlapping transactions whose footprint contains the line —
    /// exactly what a coherence invalidation does to a TSX transaction.
    pub(crate) fn virt_publish_point_write(&mut self, line: LineId) {
        let mut writes = LineSet::with_capacity(1);
        writes.insert(line);
        let start = self.clock.saturating_sub(self.rt.cost.cas);
        let mut virt = self.rt.virt.lock().unwrap();
        self.virt_publish(&mut virt, start, None, &mut LineSet::new(), &mut writes);
    }

    // ----- episodes ------------------------------------------------------

    /// Charge the closing episode for cache-coherence transfers of the hot
    /// lines among `lines`; extends its interval.
    fn virt_charge_transfer(
        &mut self,
        virt: &VirtState,
        start: u64,
        lines: impl Iterator<Item = LineId>,
    ) {
        self.clock += virt.transfer_charge(lines, start, self.id, self.rt.cost.line_transfer);
    }

    /// The newest committed overlapping episode colliding with `ep`'s
    /// footprint (reads against writes only when `writes` is `None`).
    fn virt_window_hit(
        &self,
        virt: &VirtState,
        ep: &EpisodeState,
        writes: Option<&LineSet>,
    ) -> Option<ConflictInfo> {
        let (line, class, other_key, other_thread) =
            virt.check(ep.start, &ep.reads, writes, &self.rt.nodes)?;
        Some(ConflictInfo {
            line,
            kind: classify_conflict(class, ep.op_key, other_key),
            other_thread: Some(other_thread),
        })
    }

    /// Statistical collision with wall-clock-concurrent writers the
    /// serial order hides (see [`VirtState::storm_check`]); one draw from
    /// the thread's RNG.
    fn virt_storm_hit(
        &mut self,
        virt: &VirtState,
        ep: &EpisodeState,
        writes: Option<&LineSet>,
    ) -> Option<ConflictInfo> {
        let u: f64 = self.rng.gen();
        let duration = self.clock.saturating_sub(ep.start);
        let (line, class) = virt.storm_check(
            &ep.reads,
            writes,
            ep.start,
            duration,
            self.id,
            u,
            &self.rt.nodes,
        )?;
        Some(ConflictInfo {
            line,
            kind: classify_conflict(class, ep.op_key, None),
            other_thread: None,
        })
    }

    /// Close a non-transactional episode. An optimistic read is judged
    /// against the window — a collision with any overlapping committed
    /// writer is the version change a Masstree reader would observe; a
    /// locked write or a fallback section is published, so overlapping
    /// optimistic readers (and transactions — strong atomicity, the
    /// subscribed lock line) observe it.
    pub(crate) fn virt_close(&mut self, mut ep: Box<EpisodeState>) -> Option<ConflictInfo> {
        let rt = Arc::clone(&self.rt);
        // One `virt` acquisition covers the transfer charge, the window
        // check and the storm draw (the episode-closing hot path used to
        // take the mutex once per step).
        let mut virt = rt.virt.lock().unwrap();
        let out = match ep.kind {
            EpisodeKind::OptimisticRead => {
                self.virt_charge_transfer(&virt, ep.start, ep.reads.iter());
                self.virt_window_hit(&virt, &ep, None)
                    .or_else(|| self.virt_storm_hit(&virt, &ep, None))
            }
            EpisodeKind::LockedWrite | EpisodeKind::Fallback => {
                if ep.kind == EpisodeKind::LockedWrite {
                    let lines = ep.reads.iter().chain(ep.writes.iter());
                    self.virt_charge_transfer(&virt, ep.start, lines);
                }
                self.virt_publish(
                    &mut virt,
                    ep.start,
                    ep.op_key,
                    &mut ep.reads,
                    &mut ep.writes,
                );
                None
            }
            EpisodeKind::HtmTx => unreachable!("a transaction ends in htm_commit"),
        };
        drop(virt);
        self.recycle(ep);
        out
    }

    /// Commit the open transaction against the window.
    pub(crate) fn virt_commit(&mut self) -> Result<(), AbortCause> {
        let rt = Arc::clone(&self.rt);
        let mut ep = self.ep.take().unwrap();
        // One `virt` acquisition covers the transfer charge, the window
        // check, the storm draw and the commit publish — the commit hot
        // path used to take the mutex once per step. On every abort path
        // the episode goes back into `self.ep`: the executor's classify
        // stage still needs its footprint (`virt_attempt_aborted`) before
        // discarding it.
        let mut virt = rt.virt.lock().unwrap();

        // Cache-coherence charges for hot lines extend the interval first.
        let lines = ep.reads.iter().chain(ep.writes.iter());
        self.virt_charge_transfer(&virt, ep.start, lines);

        let cause = match self.virt_window_hit(&virt, &ep, Some(&ep.writes)) {
            Some(ci) if Some(ci.line) == ep.fb_line => Some(AbortCause::FallbackLocked),
            Some(ci) => Some(AbortCause::Conflict(ci)),
            // Episodes running under a contender-serializing advisory lock
            // are exempt from the storm: the threads that generated the
            // line heat are waiting behind the lock, so the
            // Poisson-arrival assumption does not apply (the deterministic
            // interval-overlap check above still catches every genuinely
            // concurrent writer).
            None if ep.serialized => None,
            None => self
                .virt_storm_hit(&virt, &ep, Some(&ep.writes))
                .map(AbortCause::Conflict),
        };
        let cause = cause.or_else(|| {
            let p = rt
                .cost
                .spurious_probability(self.clock.saturating_sub(ep.start));
            (p > 0.0 && self.rng.gen_bool(p.min(1.0))).then_some(AbortCause::Spurious)
        });
        if let Some(cause) = cause {
            drop(virt);
            self.ep = Some(ep);
            return Err(cause);
        }

        // Commit: apply the buffer, publish the footprint.
        for (p, v) in &ep.write_buf {
            unsafe { (*p.0).store(*v, Ordering::Relaxed) };
        }
        self.virt_publish(
            &mut virt,
            ep.start,
            ep.op_key,
            &mut ep.reads,
            &mut ep.writes,
        );
        drop(virt);
        self.recycle(ep);
        self.trace(EventKind::EpisodeCommit {
            kind: EpisodeKind::HtmTx,
        });
        Ok(())
    }

    /// An attempt that wasted `wasted` cycles aborted with `cause`. Its
    /// speculative stores issued request-for-ownership coherence traffic
    /// whether or not the transaction later commits, so aborted attempts
    /// keep contended lines hot — the positive feedback that turns
    /// contention into the retry storms the paper measures (60 aborts/op
    /// at θ = 0.99). TSX detects conflicts eagerly: a conflict abort is
    /// refunded half the attempt so retry density matches mid-flight
    /// death. Returns the refund.
    pub(crate) fn virt_attempt_aborted(&mut self, cause: &AbortCause, wasted: u64) -> u64 {
        if let Some(ep) = self.ep.as_ref().filter(|ep| !ep.writes.is_empty()) {
            let mut virt = self.rt.virt.lock().unwrap();
            virt.heat_writes(&ep.writes, self.clock, self.id);
        }
        let refund = match cause {
            AbortCause::Conflict(_) => wasted / 2,
            _ => 0,
        };
        self.clock -= refund;
        refund
    }
}
