//! The virtual-time backend ([`Backend::Virtual`]): one scheduler thread,
//! a cycle-charged clock per logical thread, and conflicts derived from
//! interval overlap × cache-line footprint intersection. Everything that
//! model consists of is here — the committed-episode window and its
//! newest-first conflict check (`VirtState`), the storm extrapolation,
//! the line-heat map behind the transfer charge, the virtual lock clock
//! ([`ThreadCtx::vlock_free_at`] / [`ThreadCtx::vlock_hold`]) and the
//! `virt_*` halves of the entry points [`crate::ctx`] dispatches from.
//! The clock charges per instrumented access, so a change here moves
//! every figure; a change that means to move none is checkable as
//! equality (the golden digest, `results/`, the gated `virt-*` rows).
//!
//! [`Backend::Virtual`]: crate::runtime::Backend::Virtual

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::Ordering;

use euno_rng::SmallRng;
use euno_trace::{EpisodeKind, EventKind};

use crate::abort::{classify_conflict, AbortCause, ConflictInfo};
use crate::ctx::{EpisodeState, ThreadCtx};
use crate::hash::{FibMap as HashMap, KeyFilter};
use crate::line::{common_lines, LineClass, LineId, LineSet};
use crate::registry::NodeTable;
use crate::runtime::{Backend, Runtime};
use crate::word::TxCell;

/// One committed episode as handed to `VirtState::commit`: its
/// interval, thread and op key, and its footprint as sorted, deduplicated
/// lines (a [`LineSet::as_slice`]). The window keeps a copy of the lines,
/// so the episode's own sets are cleared and reused, spill buffers and all.
#[derive(Clone, Copy, Debug)]
pub struct EpisodeRecord<'a> {
    pub start: u64,
    pub end: u64,
    pub thread: u32,
    pub op_key: Option<u64>,
    pub reads: &'a [LineId],
    pub writes: &'a [LineId],
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
/// number (what a forget is ordered against, see
/// [`VirtState::forgets`]). Its footprint is `reads + writes` lines of
/// [`VirtState::lines`] from position `at` (counted from the start of the
/// run, see [`VirtState::lines_base`]), reads first.
struct WindowRec {
    seq: u64,
    end: u64,
    op_key: Option<u64>,
    at: u64,
    thread: u32,
    reads: u32,
    writes: u32,
}

/// Which threads have written heat since the map was last cleared: the
/// map holds no entry by any other.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
enum HeatWriters {
    #[default]
    Nobody,
    One(u32),
    Many,
}

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
    /// The window records' footprints, oldest first, each record's reads
    /// then its writes: one buffer instead of two line sets a record, so
    /// a commit copies its lines and moves no set. Lines of records that
    /// left the window are dropped from the front once they are the
    /// larger part, and [`VirtState::drop_window_all`] packs the rest.
    lines: Vec<LineId>,
    /// Position (counted from the start of the run) of `lines[0]`.
    lines_base: u64,
    /// No window record ends after this: the largest end committed since
    /// the window was last empty (records that left since may have ended
    /// later than those still in it, so it is an upper bound).
    window_ends_by: u64,
    /// Next commit sequence number.
    next_seq: u64,
    /// The [`VirtState::forget_lines`] calls made while the window held
    /// records, oldest first: the [`VirtState::next_seq`] at the call and
    /// the lines forgotten. A window record's line is *live* unless a
    /// forget newer than the record covers it ([`VirtState::live`]); only
    /// live lines collide. A forget no newer than the oldest window
    /// record covers no record, so it leaves with the records
    /// ([`VirtState::retire_forgets`]).
    forgets: Vec<(u64, Range<u64>)>,
    /// Advisory-lock table: lock key → virtual time it is held until.
    locks: HashMap<u64, u64>,
    /// Per-line write heat: last writer end/thread plus an EWMA of the
    /// write interarrival gap. Drives both the cross-core line-transfer
    /// charge and the storm (write-rate) extrapolation.
    recent_writes: HashMap<u64, LineHeat>,
    /// Who wrote the entries of `recent_writes`: while that is only the
    /// closing thread, [`VirtState::gather_heat`] has nothing to gather.
    heat_writers: HeatWriters,
    /// The closing episode's footprint heat, gathered once
    /// ([`VirtState::gather_heat`]) for both the transfer charge and the
    /// storm: each footprint line another thread last wrote, with that
    /// heat, in footprint order — reads, then writes, so a line in both
    /// is here twice, as the per-line loops it replaces counted it.
    gathered: Vec<(LineId, LineHeat)>,
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

impl WindowRec {
    /// This record's footprint, its reads and its writes, in the window's
    /// line buffer `lines`, whose first line is at position `lines_base`.
    #[inline]
    fn footprint<'a>(&self, lines: &'a [LineId], lines_base: u64) -> (&'a [LineId], &'a [LineId]) {
        let at = (self.at - lines_base) as usize;
        lines[at..at + (self.reads + self.writes) as usize].split_at(self.reads as usize)
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
    /// The conflicting record is the *newest* (largest-seq) window record
    /// that ends after `start` and whose live footprint
    /// ([`VirtState::live`]) collides: my W ∩ their (R ∪ W), or
    /// my R ∩ their W. The reported line within that record comes from
    /// its committed footprint, in the priority order my W ∩ their W, then
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
        // A collision needs a window record that ends after `start`.
        if self.window_ends_by <= start {
            return None;
        }
        let mine_r = reads.as_slice();
        let mine_w = writes.map_or(&[][..], LineSet::as_slice);
        // The lines their writes may meet (all of mine), and those their
        // reads may (my writes): a record with no line in these filters
        // shares none under the rules, and needs no merge walk.
        let (mut mine, mut written) = (KeyFilter::default(), KeyFilter::default());
        mine_r.iter().for_each(|l| mine.insert(l.0));
        mine_w.iter().for_each(|l| {
            mine.insert(l.0);
            written.insert(l.0);
        });
        // Newest first: commit order is not end order (a later-committing
        // episode can end earlier), so every record is looked at.
        let wr = self.window.iter().rev().find(|wr| {
            if wr.end <= start {
                return false;
            }
            let (their_r, their_w) = wr.footprint(&self.lines, self.lines_base);
            if !their_w.iter().any(|l| mine.may_contain(l.0))
                && !their_r.iter().any(|l| written.may_contain(l.0))
            {
                return false;
            }
            let meets =
                |a: &[LineId], b: &[LineId]| common_lines(a, b).any(|l| self.live(wr.seq, l));
            meets(mine_w, their_w) || meets(mine_w, their_r) || meets(mine_r, their_w)
        })?;
        let (their_r, their_w) = wr.footprint(&self.lines, self.lines_base);
        let reg = nodes.read();
        let line = reg
            .best_common_line(mine_w, their_w)
            .or_else(|| reg.best_common_line(mine_w, their_r))
            .or_else(|| reg.best_common_line(mine_r, their_w))
            .expect("a colliding record shares a line with the footprint");
        Some((line, reg.class_of(line), wr.op_key, wr.thread))
    }

    /// Whether `line` of the window record `seq` is still live: no
    /// [`VirtState::forget_lines`] since the record's commit covered it.
    #[inline]
    fn live(&self, seq: u64, line: LineId) -> bool {
        !self
            .forgets
            .iter()
            .rev()
            .take_while(|(at, _)| *at > seq)
            .any(|(_, lines)| lines.contains(&line.0))
    }

    /// Publish a committed episode and refresh the hot-line map.
    pub(crate) fn commit(&mut self, rec: EpisodeRecord<'_>) {
        self.heat_writes(rec.writes, rec.end, rec.thread);
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
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.window_ends_by = self.window_ends_by.max(rec.end);
        let at = self.lines_base + self.lines.len() as u64;
        self.lines.extend_from_slice(rec.reads);
        self.lines.extend_from_slice(rec.writes);
        self.window.push_back(WindowRec {
            seq,
            end: rec.end,
            op_key: rec.op_key,
            at,
            thread: rec.thread,
            reads: rec.reads.len() as u32,
            writes: rec.writes.len() as u32,
        });
    }

    /// Pop window records (oldest-first) whose end is at or before
    /// `cutoff`, stopping at the first survivor; then drop the popped
    /// records' lines once they are the larger part of the buffer (so
    /// each line is moved at most once on its way out).
    fn drop_window_prefix(&mut self, cutoff: u64) {
        while self.window.front().is_some_and(|wr| wr.end <= cutoff) {
            self.window.pop_front();
        }
        if self.window.is_empty() {
            self.window_ends_by = 0;
        }
        self.retire_forgets();
        let live_at = self
            .window
            .front()
            .map_or(self.lines_base + self.lines.len() as u64, |wr| wr.at);
        let dead = (live_at - self.lines_base) as usize;
        if 2 * dead >= self.lines.len() {
            self.lines.drain(..dead);
            self.lines_base = live_at;
        }
    }

    /// Drop *every* window record ending at or before `cutoff` (the rare
    /// linear pass — pop_front alone can strand long-lived records behind
    /// a long-running front entry), and pack the survivors' lines.
    fn drop_window_all(&mut self, cutoff: u64) {
        self.window.retain(|wr| wr.end > cutoff);
        self.window_ends_by = self.window.iter().map(|wr| wr.end).max().unwrap_or(0);
        self.retire_forgets();
        let mut to = 0usize;
        for wr in self.window.iter_mut() {
            let from = (wr.at - self.lines_base) as usize;
            let n = (wr.reads + wr.writes) as usize;
            self.lines.copy_within(from..from + n, to);
            wr.at = self.lines_base + to as u64;
            to += n;
        }
        self.lines.truncate(to);
    }

    /// Drop the forgets that cover no window record: those no newer than
    /// the oldest one — all of them once the window is empty.
    fn retire_forgets(&mut self) {
        let oldest = self.window.front().map_or(u64::MAX, |wr| wr.seq);
        let old = self.forgets.partition_point(|&(at, _)| at <= oldest);
        self.forgets.drain(..old);
    }

    /// Exact pruning driven by the scheduler: drop everything that cannot
    /// affect any episode starting at or after `before`.
    /// Returns whether it dropped lock-table entries, which a remembered
    /// lock-clock read ([`ThreadCtx::vlock_free_at`]) must not outlive.
    pub(crate) fn prune(&mut self, before: u64) -> bool {
        self.drop_window_prefix(before);
        if self.window.len() > 4096 {
            self.drop_window_all(before);
        }
        if self.recent_writes.len() > 1 << 16 {
            self.recent_writes
                .retain(|_, heat| heat.end + 1_000_000 > before);
        }
        let retain_locks = self.locks.len() > 1 << 14;
        if retain_locks {
            self.locks.retain(|_, &mut until| until > before);
        }
        retain_locks
    }

    /// Drop all dynamics between experiment phases.
    pub(crate) fn clear(&mut self) {
        self.window.clear();
        self.window_ends_by = 0;
        self.lines_base += self.lines.len() as u64;
        self.lines.clear();
        self.forgets.clear();
        self.locks.clear();
        self.recent_writes.clear();
        self.heat_writers = HeatWriters::Nobody;
    }

    /// Forget what the simulation remembers about `lines`: a node was just
    /// allocated there, or retired ([`Runtime::forget_node_heat`]). Heat
    /// and commit history are keyed by address, and a freed node's address
    /// comes back whenever the allocator pleases — were the newcomer to
    /// inherit them, whether a fresh leaf starts hot would depend on heap
    /// layout, and a run would no longer repeat under ASLR
    /// (`virt-scan-churn` once its sweeps free leaves: ±0.1 %).
    ///
    /// The window's records keep their footprints: the forget is listed,
    /// and their forgotten lines collide no more ([`VirtState::live`]).
    /// Records committed after it collide on these lines as on any other.
    pub(crate) fn forget_lines(&mut self, lines: Range<u64>) {
        for line in lines.clone() {
            self.recent_writes.remove(&line);
        }
        if !self.window.is_empty() {
            self.forgets.push((self.next_seq, lines));
        }
    }

    /// The heat map's record for `line` (tests recompute the gathered
    /// charges from it line by line).
    #[cfg(test)]
    pub(crate) fn heat(&self, line: LineId) -> Option<LineHeat> {
        self.recent_writes.get(&line.0).copied()
    }

    /// Gather the heat of a closing episode's footprint (`reads`, then
    /// `writes`) for [`VirtState::transfer_charge`] and
    /// [`VirtState::storm_check`]: one heat-map probe a footprint line
    /// where each of them probed the map again. `me`'s own writes are
    /// left out — neither charges a thread for its own lines.
    ///
    /// While `me` is the only thread that has written heat since the last
    /// [`VirtState::clear`], every entry is its own — entries are only
    /// ever removed otherwise — so the gather is empty without a probe.
    pub(crate) fn gather_heat(&mut self, reads: &[LineId], writes: &[LineId], me: u32) {
        self.gathered.clear();
        if matches!(self.heat_writers, HeatWriters::Nobody)
            || self.heat_writers == HeatWriters::One(me)
        {
            return;
        }
        for &line in reads.iter().chain(writes) {
            if let Some(&heat) = self.recent_writes.get(&line.0) {
                if heat.thread != me {
                    self.gathered.push((line, heat));
                }
            }
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
    ///
    /// Returns the abort probability over the gathered footprint
    /// ([`VirtState::gather_heat`]) and the latest counted write.
    ///
    /// An empty gather returns `(0.0, None)` at once, which is what the
    /// loop below computes for it: `1 − e⁰` is exactly zero.
    pub(crate) fn storm_probability(&self, start: u64, duration: u64) -> (f64, Option<u64>) {
        if self.gathered.is_empty() {
            return (0.0, None);
        }
        let l = duration.max(1) as f64;
        // Survival probability across all hot lines in the footprint: the
        // line's write process is modelled as Poisson with rate
        // 1/EWMA-gap, damped exponentially with the time since the last
        // write so a storm that has genuinely ended stops biting. A line
        // with no rate estimate yet falls back to the single-observation
        // estimate (gap ≈ time since that write).
        let mut log_survive = 0.0f64;
        let mut latest_write: Option<u64> = None;
        // A line counts if another thread last wrote it before `start`.
        for (_, heat) in self.gathered.iter().filter(|(_, h)| h.end <= start) {
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
        (1.0 - log_survive.exp(), latest_write)
    }

    /// The storm's verdict for draw `u` (see
    /// [`VirtState::storm_probability`]): the line it reports, if it fires.
    pub(crate) fn storm_check(
        &self,
        start: u64,
        duration: u64,
        u: f64,
        nodes: &NodeTable,
    ) -> Option<(LineId, LineClass)> {
        let (p_abort, latest_write) = self.storm_probability(start, duration);
        if !(p_abort > 0.0 && u < p_abort) {
            return None;
        }
        // Report the most-recently-written line; `heat.end` ties (lines
        // written by the same committed episode) break on [`LineRank`],
        // not address order, so the reported line is layout-independent.
        // The node table is read only here, once the storm has fired.
        let reg = nodes.read();
        let line = self
            .gathered
            .iter()
            .filter(|(_, h)| h.end <= start && Some(h.end) == latest_write)
            .map(|&(line, _)| line)
            .min_by_key(|&line| reg.rank_of(line))?;
        Some((line, reg.class_of(line)))
    }

    /// Fold `thread`'s writes at `end` into the heat map — a commit's, or an
    /// aborted attempt's speculative ones
    /// ([`ThreadCtx::virt_attempt_aborted`]).
    pub(crate) fn heat_writes(&mut self, writes: &[LineId], end: u64, thread: u32) {
        use std::collections::hash_map::Entry;
        if writes.is_empty() {
            return;
        }
        self.heat_writers = match self.heat_writers {
            HeatWriters::Nobody => HeatWriters::One(thread),
            HeatWriters::One(t) if t == thread => HeatWriters::One(t),
            _ => HeatWriters::Many,
        };
        for l in writes {
            match self.recent_writes.entry(l.0) {
                Entry::Occupied(mut e) => {
                    let heat = LineHeat::update(Some(*e.get()), end, thread);
                    e.insert(heat);
                }
                Entry::Vacant(e) => {
                    e.insert(LineHeat::update(None, end, thread));
                }
            }
        }
    }

    /// Cycles charged for cache-coherence transfers of the gathered
    /// footprint's hot lines ([`VirtState::gather_heat`]): those another
    /// thread wrote within the transfer horizon before `now`.
    pub(crate) fn transfer_charge(&self, now: u64, line_transfer_cost: u64) -> u64 {
        let hot = self
            .gathered
            .iter()
            .filter(|(_, heat)| heat.end + TRANSFER_HORIZON > now)
            .count();
        hot as u64 * line_transfer_cost
    }
}

impl Runtime {
    /// Drop window entries and hot-line records that can no longer affect
    /// any episode starting at or after `before`. The scheduler calls this
    /// with the minimum pending start time.
    pub fn virt_prune(&self, before: u64) {
        let mut virt = self.virt.lock().unwrap();
        if virt.prune(before) {
            self.vlock_changed();
        }
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
    #[cfg(test)]
    pub(crate) fn vlock_free_at(&self, key: u64, now: u64) -> u64 {
        self.vlock_read(key).1.max(now)
    }

    /// The lock table's entry for `key` (0 when it has none), with the
    /// generation it was read at.
    fn vlock_read(&self, key: u64) -> (u64, u64) {
        let virt = self.virt.lock().unwrap();
        let gen = self.vlock_gen.load(Ordering::Acquire);
        (gen, virt.locks.get(&key).copied().unwrap_or(0))
    }

    /// Record that `key` is held until `until`.
    pub(crate) fn vlock_hold(&self, key: u64, until: u64) {
        let mut virt = self.virt.lock().unwrap();
        let slot = virt.locks.entry(key).or_insert(0);
        *slot = (*slot).max(until);
        self.vlock_changed();
    }

    /// The lock table may have changed: every remembered read of it
    /// ([`ThreadCtx::vlock_free_at`]) is void. Called with the `virt`
    /// mutex held, after the change, so a read taken under the mutex
    /// either sees the change or carries an older generation.
    pub(crate) fn vlock_changed(&self) {
        self.vlock_gen.fetch_add(1, Ordering::Release);
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
    pub fn vlock_free_at(&mut self, key: u64) -> u64 {
        match self.rt.backend() {
            Backend::Virtual => self.virt_lock_free_at(key),
            Backend::Stm | Backend::Rtm => 0,
        }
    }

    /// [`ThreadCtx::vlock_free_at`] on the virtual backend. The thread
    /// remembers its last lock-table read as (generation, key, entry):
    /// while no hold, prune or reset has moved the runtime's generation
    /// since, the table still holds that entry for that key, so a repeat
    /// of the read needs neither the mutex nor the probe.
    #[inline]
    fn virt_lock_free_at(&mut self, key: u64) -> u64 {
        let (gen, memo_key, until) = self.vlock_memo;
        let until = if memo_key == key && gen == self.rt.vlock_gen.load(Ordering::Acquire) {
            until
        } else {
            let (gen, until) = self.rt.vlock_read(key);
            self.vlock_memo = (gen, key, until);
            until
        };
        until.max(self.clock)
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
    pub(crate) fn virt_acquire_mask(&mut self, word: &TxCell, mask: u64, vkey: u64) {
        let free_at = self.virt_lock_free_at(vkey);
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

    /// Strong atomicity in virtual mode: a bare (outside any episode)
    /// direct write is published as a zero-width committed episode so it
    /// aborts overlapping transactions whose footprint contains the line —
    /// exactly what a coherence invalidation does to a TSX transaction.
    pub(crate) fn virt_publish_point_write(&mut self, line: LineId) {
        self.rt.virt.lock().unwrap().commit(EpisodeRecord {
            start: self.clock.saturating_sub(self.rt.cost.cas),
            end: self.clock,
            thread: self.id,
            op_key: None,
            reads: &[],
            writes: &[line],
        });
    }

    // ----- episodes ------------------------------------------------------

    /// Close a non-transactional episode. An optimistic read is judged
    /// against the window — a collision with any overlapping committed
    /// writer is the version change a Masstree reader would observe; a
    /// locked write or a fallback section is published, so overlapping
    /// optimistic readers (and transactions — strong atomicity, the
    /// subscribed lock line) observe it.
    pub(crate) fn virt_close(&mut self, ep: Box<EpisodeState>) -> Option<ConflictInfo> {
        let ThreadCtx {
            rt, clock, id, rng, ..
        } = &mut *self;
        // One `virt` acquisition covers the transfer charge, the window
        // check and the storm draw (the episode-closing hot path used to
        // take the mutex once per step).
        let mut virt = rt.virt.lock().unwrap();
        let out = match ep.kind {
            EpisodeKind::OptimisticRead => {
                virt.gather_heat(ep.reads.as_slice(), &[], *id);
                *clock += virt.transfer_charge(ep.start, rt.cost.line_transfer);
                virt.window_hit(&ep, None, &rt.nodes)
                    .or_else(|| virt.storm_hit(&ep, *clock, rng, &rt.nodes))
            }
            EpisodeKind::LockedWrite | EpisodeKind::Fallback => {
                if ep.kind == EpisodeKind::LockedWrite {
                    virt.gather_heat(ep.reads.as_slice(), ep.writes.as_slice(), *id);
                    *clock += virt.transfer_charge(ep.start, rt.cost.line_transfer);
                }
                virt.commit(ep.record(*clock, *id));
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
        let ep = self.ep.take().unwrap();
        let ThreadCtx {
            rt, clock, id, rng, ..
        } = &mut *self;
        // One `virt` acquisition covers the transfer charge, the window
        // check, the storm draw and the commit publish — the commit hot
        // path used to take the mutex once per step. On every abort path
        // the episode goes back into `self.ep`: the executor's classify
        // stage still needs its footprint (`virt_attempt_aborted`) before
        // discarding it.
        let mut virt = rt.virt.lock().unwrap();

        // Cache-coherence charges for hot lines extend the interval first.
        virt.gather_heat(ep.reads.as_slice(), ep.writes.as_slice(), *id);
        *clock += virt.transfer_charge(ep.start, rt.cost.line_transfer);

        let cause = match virt.window_hit(&ep, Some(&ep.writes), &rt.nodes) {
            Some(ci) if Some(ci.line) == ep.fb_line => Some(AbortCause::FallbackLocked),
            Some(ci) => Some(AbortCause::Conflict(ci)),
            // Episodes running under a contender-serializing advisory lock
            // are exempt from the storm: the threads that generated the
            // line heat are waiting behind the lock, so the
            // Poisson-arrival assumption does not apply (the deterministic
            // interval-overlap check above still catches every genuinely
            // concurrent writer).
            None if ep.serialized => None,
            None => virt
                .storm_hit(&ep, *clock, rng, &rt.nodes)
                .map(AbortCause::Conflict),
        };
        let cause = cause.or_else(|| {
            let p = rt.cost.spurious_probability(clock.saturating_sub(ep.start));
            (p > 0.0 && rng.gen_bool(p.min(1.0))).then_some(AbortCause::Spurious)
        });
        if let Some(cause) = cause {
            drop(virt);
            self.ep = Some(ep);
            return Err(cause);
        }

        // Commit: apply the buffer, publish the footprint.
        for (p, v) in &ep.write_buf {
            // Safety: each entry is a cell this attempt's body wrote through
            // `Tx::write`; the epoch pin around the operation keeps its node
            // from being freed (see `CellPtr`), and the attempt is still
            // inside that operation.
            unsafe { (*p.0).store(*v, Ordering::Relaxed) };
        }
        virt.commit(ep.record(*clock, *id));
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
            virt.heat_writes(ep.writes.as_slice(), self.clock, self.id);
        }
        let refund = match cause {
            AbortCause::Conflict(_) => wasted / 2,
            _ => 0,
        };
        self.clock -= refund;
        refund
    }
}

impl EpisodeState {
    /// This episode as a committed record: `[start, end]` on `thread`,
    /// with its footprint — which the window copies, so the sets are
    /// cleared and reused with their capacity.
    fn record(&self, end: u64, thread: u32) -> EpisodeRecord<'_> {
        EpisodeRecord {
            start: self.start,
            end,
            thread,
            op_key: self.op_key,
            reads: self.reads.as_slice(),
            writes: self.writes.as_slice(),
        }
    }
}

impl VirtState {
    /// The newest committed overlapping episode colliding with `ep`'s
    /// footprint (reads against writes only when `writes` is `None`).
    fn window_hit(
        &self,
        ep: &EpisodeState,
        writes: Option<&LineSet>,
        nodes: &NodeTable,
    ) -> Option<ConflictInfo> {
        let (line, class, other_key, other_thread) =
            self.check(ep.start, &ep.reads, writes, nodes)?;
        Some(ConflictInfo {
            line,
            kind: classify_conflict(class, ep.op_key, other_key),
            other_thread: Some(other_thread),
        })
    }

    /// Statistical collision with wall-clock-concurrent writers the
    /// serial order hides (see [`VirtState::storm_probability`]), over the
    /// footprint last gathered, for `ep` closing at `now`; one draw from
    /// the thread's RNG.
    fn storm_hit(
        &self,
        ep: &EpisodeState,
        now: u64,
        rng: &mut SmallRng,
        nodes: &NodeTable,
    ) -> Option<ConflictInfo> {
        let u = rng.gen_f64();
        let (line, class) = self.storm_check(ep.start, now.saturating_sub(ep.start), u, nodes)?;
        Some(ConflictInfo {
            line,
            kind: classify_conflict(class, ep.op_key, None),
            other_thread: None,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A committed record as the reference keeps it: the footprint it
    /// committed, and the part of it no `forget_lines` has erased since.
    struct Committed {
        end: u64,
        op_key: Option<u64>,
        thread: u32,
        reads: Vec<LineId>,
        writes: Vec<LineId>,
        live_reads: Vec<LineId>,
        live_writes: Vec<LineId>,
    }

    /// Whether a footprint (`r`, `w`) collides with another (`their_r`,
    /// `their_w`) under the TSX rules.
    fn collides(r: &[LineId], w: &[LineId], their_r: &[LineId], their_w: &[LineId]) -> bool {
        let meets = |a, b| common_lines(a, b).next().is_some();
        meets(w, their_w) || meets(w, their_r) || meets(r, their_w)
    }

    /// The newest window record that overlaps `start` and whose live
    /// footprint, erased at each forget, collides with the footprint; the
    /// line reported from its committed footprint.
    fn eager_scan(
        virt: &VirtState,
        committed: &BTreeMap<u64, Committed>,
        start: u64,
        reads: &LineSet,
        writes: Option<&LineSet>,
        nodes: &NodeTable,
    ) -> Option<(LineId, LineClass, Option<u64>, u32)> {
        let reg = nodes.read();
        let best = |a: &[LineId], b: &[LineId]| common_lines(a, b).min_by_key(|&l| reg.rank_of(l));
        let (r, w) = (reads.as_slice(), writes.map_or(&[][..], LineSet::as_slice));
        let c = virt
            .window
            .iter()
            .rev()
            .map(|wr| &committed[&wr.seq])
            .find(|c| c.end > start && collides(r, w, &c.live_reads, &c.live_writes))?;
        let line = match writes {
            Some(_) => best(w, &c.writes)
                .or_else(|| best(w, &c.reads))
                .or_else(|| best(r, &c.writes)),
            None => best(r, &c.writes),
        }
        .unwrap();
        Some((line, reg.class_of(line), c.op_key, c.thread))
    }

    /// A forget leaves the window's footprints as they were committed and
    /// is listed instead; the check must answer what erasing the forgotten
    /// lines from every record at once would: two to four threads
    /// committing overlapping intervals over 48 lines (40 of them in five
    /// registered nodes, ranked against address order), checks with and
    /// without writes, prunes at random horizons, forgets of line ranges
    /// (half of them at a line of the newest record), and clears.
    #[test]
    fn the_window_check_answers_as_eager_forgetting_does() {
        let nodes = NodeTable::default();
        for n in (0..5usize).rev() {
            let parts = [(0, LineClass::Record), (4 * 64, LineClass::Metadata)];
            nodes.register(n * 8 * 64, 8 * 64, &parts, None);
        }
        let mut rng = SmallRng::seed_from_u64(0x1de7);
        let random_set = |rng: &mut SmallRng, most: u64| -> LineSet {
            (0..rng.gen_range(0..most + 1))
                .map(|_| LineId(rng.gen_range(0u64..48)))
                .collect()
        };
        let mut virt = VirtState::default();
        let mut committed: BTreeMap<u64, Committed> = BTreeMap::new();
        let mut clocks = [0u64; 4];
        let (mut hits, mut misses, mut erasing_forgets, mut forgotten_only) = (0, 0, 0, 0);
        for step in 0..40_000u32 {
            let threads = [2, 3, 4][(step / 4_000 % 3) as usize];
            let t = rng.gen_range(0..threads);
            match rng.gen_range(0u32..100) {
                0..=44 => {
                    let (reads, writes) = (random_set(&mut rng, 6), random_set(&mut rng, 4));
                    let start = clocks[t];
                    let end = start + rng.gen_range(1u64..400);
                    clocks[t] = end + rng.gen_range(0u64..50);
                    let op_key = rng.gen_bool(0.5).then(|| rng.gen_range(0u64..8));
                    committed.insert(
                        virt.next_seq,
                        Committed {
                            end,
                            op_key,
                            thread: t as u32,
                            reads: reads.as_slice().to_vec(),
                            writes: writes.as_slice().to_vec(),
                            live_reads: reads.as_slice().to_vec(),
                            live_writes: writes.as_slice().to_vec(),
                        },
                    );
                    virt.commit(EpisodeRecord {
                        start,
                        end,
                        thread: t as u32,
                        op_key,
                        reads: reads.as_slice(),
                        writes: writes.as_slice(),
                    });
                }
                45..=84 => {
                    let start = clocks[t].saturating_sub(rng.gen_range(0u64..600));
                    let reads = random_set(&mut rng, 8);
                    let writes = rng.gen_bool(0.5).then(|| random_set(&mut rng, 4));
                    let want =
                        eager_scan(&virt, &committed, start, &reads, writes.as_ref(), &nodes);
                    let got = virt.check(start, &reads, writes.as_ref(), &nodes);
                    assert_eq!(got, want, "step {step}");
                    if got.is_some() {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                    // A record that overlaps and shares lines with the
                    // footprint, every one of them forgotten.
                    let (r, w) = (
                        reads.as_slice(),
                        writes.as_ref().map_or(&[][..], LineSet::as_slice),
                    );
                    forgotten_only += u32::from(virt.window.iter().any(|wr| {
                        let c = &committed[&wr.seq];
                        c.end > start
                            && collides(r, w, &c.reads, &c.writes)
                            && !collides(r, w, &c.live_reads, &c.live_writes)
                    }));
                }
                85..=92 => {
                    let before = clocks[..threads].iter().min().unwrap();
                    virt.prune(before.saturating_sub(rng.gen_range(0u64..800)));
                }
                93..=98 => {
                    // Half the ranges start at a line of the newest record.
                    let newest = committed.values().next_back();
                    let lo = match newest.and_then(|c| c.reads.first().or(c.writes.first())) {
                        Some(l) if rng.gen_bool(0.5) => l.0.saturating_sub(rng.gen_range(0u64..3)),
                        _ => rng.gen_range(0u64..48),
                    };
                    let lines = lo..lo + rng.gen_range(1u64..7);
                    let erases = committed
                        .values()
                        .flat_map(|c| c.live_reads.iter().chain(&c.live_writes))
                        .any(|l| lines.contains(&l.0));
                    erasing_forgets += u32::from(erases);
                    virt.forget_lines(lines.clone());
                    for c in committed.values_mut() {
                        c.live_reads.retain(|l| !lines.contains(&l.0));
                        c.live_writes.retain(|l| !lines.contains(&l.0));
                    }
                }
                _ => {
                    virt.clear();
                    committed.clear();
                }
            }
            committed.retain(|seq, _| virt.window.binary_search_by_key(seq, |wr| wr.seq).is_ok());
        }
        assert!(
            hits > 1_000 && misses > 1_000,
            "{hits} hits, {misses} misses"
        );
        assert!(
            erasing_forgets >= 100,
            "{erasing_forgets} forgets erased a line of a window record"
        );
        assert!(
            forgotten_only >= 100,
            "{forgotten_only} checks met a record on forgotten lines only"
        );
    }

    /// The forget list keeps only what covers a window record. Two threads
    /// commit with a forget every third commit, and prune behind the
    /// slower clock at a random lag, now and then at both clocks (which
    /// empties the window); a rare long record holds the window's front,
    /// so that it grows until prunes take the linear pass. After each
    /// prune, every forget kept is newer than the oldest window record,
    /// and an empty window keeps none.
    #[test]
    fn the_forget_list_retires_with_the_window() {
        let mut rng = SmallRng::seed_from_u64(0xf06e7);
        let mut virt = VirtState::default();
        let mut clocks = [0u64; 2];
        let (mut kept, mut emptied, mut linear) = (0u32, 0u32, 0u32);
        for step in 0..200_000u32 {
            let t = step as usize % 2;
            let start = clocks[t];
            let end = match rng.gen_range(0u32..20_000) {
                0 => start + 300_000,
                _ => start + rng.gen_range(1u64..400),
            };
            clocks[t] = start + rng.gen_range(1u64..100);
            let line = [LineId(rng.gen_range(0u64..64))];
            virt.commit(EpisodeRecord {
                start,
                end,
                thread: t as u32,
                op_key: None,
                reads: &[],
                writes: &line,
            });
            if step % 3 == 0 {
                let lo = rng.gen_range(0u64..64);
                virt.forget_lines(lo..lo + 2);
            }
            if step % 16 == 15 {
                let before = match step % 1024 {
                    1023 => clocks[0].max(clocks[1]) + 400,
                    _ => clocks[0]
                        .min(clocks[1])
                        .saturating_sub(rng.gen_range(0u64..100_000)),
                };
                linear += u32::from(virt.window.len() > 4096);
                virt.prune(before);
                match virt.window.front() {
                    Some(oldest) => {
                        let stale = virt.forgets.iter().find(|&&(at, _)| at <= oldest.seq);
                        assert!(stale.is_none(), "step {step}: {stale:?} kept");
                        kept += u32::from(!virt.forgets.is_empty());
                    }
                    None => {
                        assert!(
                            virt.forgets.is_empty(),
                            "step {step}: an empty window's forgets"
                        );
                        emptied += 1;
                    }
                }
            }
        }
        assert!(kept >= 1_000, "{kept} prunes kept forgets");
        assert!(emptied >= 50, "{emptied} prunes emptied the window");
        assert!(linear >= 10, "{linear} prunes took the linear pass");
    }

    /// A thread remembers its last lock-table read, and must see every
    /// change to the table since: another thread's hold, a reset, and a
    /// prune that trims the table (it does so past 16 384 entries).
    #[test]
    fn a_remembered_lock_clock_sees_holds_resets_and_trims() {
        let rt = Runtime::new_virtual();
        let (mut reader, mut holder) = (rt.thread(1), rt.thread(2));
        let key = 0x4000;
        assert_eq!(reader.vlock_free_at(key), 0);
        holder.clock = 500;
        holder.vlock_hold(key);
        assert_eq!(reader.vlock_free_at(key), 500, "another thread's hold");
        assert_eq!(reader.vlock_free_at(key), 500, "and again, remembered");
        rt.reset_dynamics();
        assert_eq!(reader.vlock_free_at(key), 0, "a reset");

        holder.clock = 100;
        holder.vlock_hold(key);
        holder.clock = 10_000;
        for k in 0..(1u64 << 14) {
            holder.vlock_hold(0x10_0000 + k);
        }
        assert_eq!(reader.vlock_free_at(key), 100);
        rt.virt_prune(200);
        assert_eq!(reader.vlock_free_at(key), 0, "a prune that trims the table");
        assert_eq!(reader.vlock_free_at(0x10_0000), 10_000, "what it kept");
    }
}
