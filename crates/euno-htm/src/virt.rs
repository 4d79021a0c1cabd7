//! The virtual-time backend ([`Backend::Virtual`]): one scheduler thread,
//! a cycle-charged clock per logical thread, and conflicts derived from
//! interval overlap × cache-line footprint intersection. Everything that
//! model consists of is here — the committed-episode window with its line
//! index (`VirtState`), the storm extrapolation, the line-heat map
//! behind the transfer charge, the virtual lock clock
//! ([`ThreadCtx::vlock_free_at`] / [`ThreadCtx::vlock_hold`]) and the
//! `virt_*` halves of the entry points [`crate::ctx`] dispatches from.
//! The clock charges per instrumented access, so a change here moves
//! every figure; a change that means to move none is checkable as
//! equality (the golden digest, `results/`, the gated `virt-*` rows).
//!
//! [`Backend::Virtual`]: crate::runtime::Backend::Virtual

use std::collections::VecDeque;
use std::sync::atomic::Ordering;

use euno_rng::SmallRng;
use euno_trace::{EpisodeKind, EventKind};

use crate::abort::{classify_conflict, AbortCause, ConflictInfo};
use crate::ctx::{EpisodeState, ThreadCtx};
use crate::hash::{FibMap as HashMap, KeyFilter};
use crate::line::{LineClass, LineId, LineSet};
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
/// number (the key the line index refers to). Its footprint is
/// `reads + writes` lines of [`VirtState::lines`] from position `at`
/// (counted from the start of the run, see [`VirtState::lines_base`]),
/// reads first.
struct WindowRec {
    seq: u64,
    end: u64,
    op_key: Option<u64>,
    at: u64,
    thread: u32,
    reads: u32,
    writes: u32,
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

/// Accesses kept inline before an [`AccessList`] spills. A skewed
/// workload touches a long tail of lines once or twice per window; two
/// inline slots mean those lines never spill, while the few hot lines
/// (root, fallback word, the leaf being filled) spill into a buffer of
/// the [`Spills`].
const INLINE_ACCESSES: usize = 2;

/// [`AccessList::spill`] of a list that has not spilled.
const NO_SPILL: u32 = u32::MAX;

/// Access history of one line, in ascending-seq order (commit order), so
/// a backward walk visits newest-first. Up to [`INLINE_ACCESSES`] inline;
/// beyond, all of them in the [`Spills`] buffer `spill` names. The list
/// holds no heap pointer, so an index entry is 112 B and a table of them
/// is cleared without visiting its entries.
#[derive(Clone, Copy)]
struct AccessList {
    /// Accesses held: inline while at most [`INLINE_ACCESSES`].
    len: u32,
    /// The [`Spills`] slot holding them once they are more, else
    /// [`NO_SPILL`]. A list keeps its slot until its entry leaves the
    /// index, though a sweep may shrink it back below the inline size.
    spill: u32,
    inline: [LineAccess; INLINE_ACCESSES],
}

impl Default for AccessList {
    fn default() -> Self {
        AccessList {
            len: 0,
            spill: NO_SPILL,
            inline: [LineAccess {
                seq: 0,
                end: 0,
                max_end: 0,
            }; INLINE_ACCESSES],
        }
    }
}

impl AccessList {
    #[inline]
    fn as_slice<'a>(&'a self, spills: &'a Spills) -> &'a [LineAccess] {
        if self.spill == NO_SPILL {
            &self.inline[..self.len as usize]
        } else {
            &spills.bufs[self.spill as usize]
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append one access, maintaining the prefix-maximum end. A list that
    /// outgrows its inline slots takes a buffer from `spills`.
    #[inline]
    fn push(&mut self, seq: u64, end: u64, spills: &mut Spills) {
        let n = self.len as usize;
        let max_end = match n {
            0 => end,
            _ => self.as_slice(spills)[n - 1].max_end.max(end),
        };
        let a = LineAccess { seq, end, max_end };
        self.len += 1;
        if self.spill == NO_SPILL {
            if n < INLINE_ACCESSES {
                self.inline[n] = a;
                return;
            }
            self.spill = spills.take();
            spills.bufs[self.spill as usize].extend_from_slice(&self.inline);
        }
        spills.bufs[self.spill as usize].push(a);
    }

    /// Drop accesses older than `min_seq`, rebuilding the prefix maxima
    /// (the retained suffix's stored maxima still cover removed entries —
    /// correct but loose, and tight maxima are what make the early exit
    /// bite).
    fn sweep(&mut self, min_seq: u64, spills: &mut Spills) {
        let list: &mut [LineAccess] = match self.spill {
            NO_SPILL => &mut self.inline[..self.len as usize],
            slot => &mut spills.bufs[slot as usize],
        };
        let mut k = 0usize;
        let mut running = 0u64;
        for i in 0..list.len() {
            if list[i].seq >= min_seq {
                running = running.max(list[i].end);
                list[k] = LineAccess {
                    max_end: running,
                    ..list[i]
                };
                k += 1;
            }
        }
        if self.spill != NO_SPILL {
            spills.bufs[self.spill as usize].truncate(k);
        }
        self.len = k as u32;
    }
}

/// The buffers spilled [`AccessList`]s keep their accesses in, named by
/// slot. A lone-thread driver prunes its whole window at its own clock,
/// so every index sweep empties the index and the next commits spill the
/// same hot lines again: a slot that is given back keeps its buffer for
/// the next list that spills — where each sweep used to free and re-grow
/// them, most of a preload's allocations. Bounded by count and by
/// capacity: at most [`SPILL_POOL_BUFFERS`] free slots keep a buffer, and
/// those buffers hold at most [`SPILL_POOL_ACCESSES`] accesses between
/// them (24 B each: 3 MiB); a buffer given back beyond either is freed.
/// Which buffer a line gets decides its capacity and nothing else.
#[derive(Default)]
struct Spills {
    bufs: Vec<Vec<LineAccess>>,
    /// Free slots that keep their buffer, last given back first.
    pooled: Vec<u32>,
    /// Capacity of those buffers, summed.
    pooled_accesses: usize,
    /// Free slots without one.
    bare: Vec<u32>,
}

const SPILL_POOL_BUFFERS: usize = 4096;
const SPILL_POOL_ACCESSES: usize = 1 << 17;

impl Spills {
    /// A free slot with an empty buffer.
    fn take(&mut self) -> u32 {
        if let Some(slot) = self.pooled.pop() {
            self.pooled_accesses -= self.bufs[slot as usize].capacity();
            return slot;
        }
        self.bare.pop().unwrap_or_else(|| {
            self.bufs.push(Vec::new());
            (self.bufs.len() - 1) as u32
        })
    }

    /// Give `slot` back: its buffer is emptied, and kept if the pool has
    /// room for it.
    fn give(&mut self, slot: u32) {
        let buf = &mut self.bufs[slot as usize];
        buf.clear();
        let cap = buf.capacity();
        if cap > 0
            && self.pooled.len() < SPILL_POOL_BUFFERS
            && self.pooled_accesses + cap <= SPILL_POOL_ACCESSES
        {
            self.pooled_accesses += cap;
            self.pooled.push(slot);
        } else {
            *buf = Vec::new();
            self.bare.push(slot);
        }
    }

    /// Give back the slots of an entry leaving the index.
    fn give_entry(&mut self, e: &LineIndexEntry) {
        for list in [&e.writers, &e.readers] {
            if list.spill != NO_SPILL {
                self.give(list.spill);
            }
        }
    }

    /// Every slot is free again: the index they belonged to was cleared.
    fn give_all(&mut self) {
        self.pooled.clear();
        self.pooled_accesses = 0;
        self.bare.clear();
        for slot in 0..self.bufs.len() as u32 {
            self.give(slot);
        }
    }
}

/// Inverted-index entry for one cache line: which committed episodes
/// wrote / read it.
#[derive(Clone, Copy, Default)]
struct LineIndexEntry {
    writers: AccessList,
    readers: AccessList,
}

/// Every line of a footprint once, in line order, with whether it was
/// read and whether written: a merge walk of the two sorted sets, so a
/// line in both costs one index probe.
fn each_line<'a>(
    reads: &'a [LineId],
    writes: &'a [LineId],
) -> impl Iterator<Item = (LineId, bool, bool)> + 'a {
    let (mut r, mut w) = (0, 0);
    std::iter::from_fn(move || {
        let (a, b) = (reads.get(r).copied(), writes.get(w).copied());
        let read = a.is_some() && (b.is_none() || a <= b);
        let written = b.is_some() && (a.is_none() || b <= a);
        r += usize::from(read);
        w += usize::from(written);
        Some((if read { a } else { b }?, read, written))
    })
}

/// Words of [`VirtState::pending_lines`]: 4 096 bits, which a lone
/// thread's pending records between two prunes fill to a few percent.
const PENDING_FILTER_WORDS: usize = 64;

/// Which threads have written heat since the map was last cleared: the
/// map holds no entry by any other.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
enum HeatWriters {
    #[default]
    Nobody,
    One(u32),
    Many,
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
    /// line → committed episodes touching it. Commit-time conflict
    /// detection probes only the episode's own footprint lines here —
    /// O(footprint × per-line history) instead of O(window) per check.
    /// Built on demand: a commit only appends its record to the window,
    /// and the records from [`VirtState::indexed_to`] on are indexed by
    /// the first check that needs the index ([`VirtState::index_pending`]),
    /// so a record pruned before any check reads it is never indexed.
    line_index: HashMap<u64, LineIndexEntry>,
    /// Every record with a smaller seq is indexed, or left the window
    /// before it was; the window's records from this seq on are pending.
    indexed_to: u64,
    /// The pending records' lines, as a filter: a forgotten line that it
    /// does not hold is in no pending record, so forgetting it needs no
    /// index build ([`VirtState::forget_lines`]).
    pending_lines: KeyFilter<PENDING_FILTER_WORDS>,
    /// The index's spilled access lists.
    spills: Spills,
    /// Upper bound on index entries referring to removed records (a
    /// record that leaves the window unindexed leaves none); a sweep runs
    /// once it passes [`INDEX_SWEEP_STALE`].
    index_stale: usize,
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
        &mut self,
        start: u64,
        reads: &LineSet,
        writes: Option<&LineSet>,
        nodes: &NodeTable,
    ) -> Option<(LineId, LineClass, Option<u64>, u32)> {
        // A collision needs a window record that ends after `start`: with
        // none, no line needs probing — the per-line prefix maxima below
        // make the same exit one line at a time.
        if self.window_ends_by <= start {
            return None;
        }
        self.index_pending();
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
                // Collision rules (TSX): my W ∩ their (R ∪ W), my R ∩ their W
                // — one probe a line, as `best` only grows.
                let writes = writes.map_or(&[][..], LineSet::as_slice);
                for (l, _, written) in each_line(reads.as_slice(), writes) {
                    if let Some(e) = self.line_index.get(&l.0) {
                        consider(e.writers.as_slice(&self.spills));
                        if written {
                            consider(e.readers.as_slice(&self.spills));
                        }
                    }
                }
            }
            let cand = best?;
            match self.window.binary_search_by_key(&cand, |wr| wr.seq) {
                Ok(i) => {
                    let wr = &self.window[i];
                    let (their_r, their_w) = wr.footprint(&self.lines, self.lines_base);
                    let reg = nodes.read();
                    let mine_r = reads.as_slice();
                    let line = if let Some(w) = writes.map(LineSet::as_slice) {
                        reg.best_common_line(w, their_w)
                            .or_else(|| reg.best_common_line(w, their_r))
                            .or_else(|| reg.best_common_line(mine_r, their_w))
                    } else {
                        reg.best_common_line(mine_r, their_w)
                    };
                    let line = line.expect("indexed record must intersect the footprint");
                    return Some((line, reg.class_of(line), wr.op_key, wr.thread));
                }
                // Stale index entry: the record was pruned. Skip it and
                // look for the next-newest candidate.
                Err(_) => below = cand,
            }
        }
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
            self.maybe_sweep_index();
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        for l in rec.reads.iter().chain(rec.writes) {
            self.pending_lines.insert(l.0);
        }
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

    /// Index the pending records (from [`VirtState::indexed_to`] on), in
    /// seq order, so every list stays in ascending-seq order: the index
    /// then holds what indexing each record at its commit would have,
    /// less the entries of records that left the window unread — which a
    /// check skips as stale anyway.
    fn index_pending(&mut self) {
        if self.indexed_to == self.next_seq {
            return;
        }
        let from = self.window.partition_point(|wr| wr.seq < self.indexed_to);
        let VirtState {
            window,
            lines,
            lines_base,
            line_index,
            spills,
            ..
        } = self;
        for wr in window.range(from..) {
            let (reads, writes) = wr.footprint(lines, *lines_base);
            for (l, read, written) in each_line(reads, writes) {
                let e = line_index.entry(l.0).or_default();
                if written {
                    e.writers.push(wr.seq, wr.end, spills);
                }
                if read {
                    e.readers.push(wr.seq, wr.end, spills);
                }
            }
        }
        self.nothing_pending();
    }

    /// No record is pending any more: every one was indexed, or left the
    /// window unindexed.
    fn nothing_pending(&mut self) {
        self.indexed_to = self.next_seq;
        self.pending_lines.clear();
    }

    /// Pop window records (oldest-first) whose end is at or before
    /// `cutoff`, stopping at the first survivor; then drop the popped
    /// records' lines once they are the larger part of the buffer (so
    /// each line is moved at most once on its way out).
    fn drop_window_prefix(&mut self, cutoff: u64) {
        while let Some(front) = self.window.front() {
            if front.end <= cutoff {
                if front.seq < self.indexed_to {
                    self.index_stale += (front.reads + front.writes) as usize;
                }
                self.window.pop_front();
            } else {
                break;
            }
        }
        if self.window.is_empty() {
            self.window_ends_by = 0;
            self.nothing_pending();
        }
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
        let (stale, indexed_to) = (&mut self.index_stale, self.indexed_to);
        self.window.retain(|wr| {
            if wr.end > cutoff {
                true
            } else {
                if wr.seq < indexed_to {
                    *stale += (wr.reads + wr.writes) as usize;
                }
                false
            }
        });
        self.window_ends_by = self.window.iter().map(|wr| wr.end).max().unwrap_or(0);
        if self.window.is_empty() {
            self.nothing_pending();
        }
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
        self.index_stale = 0;
        let Some(min_seq) = self.window.front().map(|wr| wr.seq) else {
            // No record is live, so no entry is: what the sweep below
            // would leave is an empty index.
            self.clear_index();
            return;
        };
        let spills = &mut self.spills;
        self.line_index.retain(|_, e| {
            e.writers.sweep(min_seq, spills);
            e.readers.sweep(min_seq, spills);
            if !e.writers.is_empty() || !e.readers.is_empty() {
                return true;
            }
            spills.give_entry(e);
            false
        });
    }

    /// Empty the line index: the table keeps its capacity, and as its
    /// entries own nothing, clearing it visits none of them.
    fn clear_index(&mut self) {
        self.line_index.clear();
        self.spills.give_all();
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
        self.maybe_sweep_index();
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
        self.clear_index();
        self.nothing_pending();
        self.index_stale = 0;
        self.locks.clear();
        self.recent_writes.clear();
        self.heat_writers = HeatWriters::Nobody;
    }

    /// Forget what the simulation remembers about `lines`: a node was just
    /// allocated there. Heat and commit history are keyed by address, and
    /// a freed node's address comes back whenever the allocator pleases —
    /// were the newcomer to inherit them, whether a fresh leaf starts hot
    /// would depend on heap layout, and a run would no longer repeat under
    /// ASLR (`virt-scan-churn` once its sweeps free leaves: ±0.1 %).
    ///
    /// A pending record's lines are forgotten with the rest: if the
    /// filter says one of `lines` may be among them, the pending records
    /// are indexed first, so the loop below removes their entries too.
    pub(crate) fn forget_lines(&mut self, lines: std::ops::Range<u64>) {
        if self.indexed_to < self.next_seq
            && lines.clone().any(|l| self.pending_lines.may_contain(l))
        {
            self.index_pending();
        }
        for line in lines {
            self.recent_writes.remove(&line);
            if let Some(e) = self.line_index.remove(&line) {
                self.spills.give_entry(&e);
            }
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
        &mut self,
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
    use crate::line::common_lines;
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

    /// The newest window record that overlaps `start` and collides with
    /// the footprint under the TSX rules, found by scanning the whole
    /// window; the line reported from its committed footprint, as the
    /// index's resolution does.
    fn window_scan(
        virt: &VirtState,
        committed: &BTreeMap<u64, Committed>,
        start: u64,
        reads: &LineSet,
        writes: Option<&LineSet>,
        nodes: &NodeTable,
    ) -> Option<(LineId, LineClass, Option<u64>, u32)> {
        let reg = nodes.read();
        let best = |a: &[LineId], b: &[LineId]| common_lines(a, b).min_by_key(|&l| reg.rank_of(l));
        let meets = |a: &[LineId], b: &[LineId]| common_lines(a, b).next().is_some();
        let (r, w) = (reads.as_slice(), writes.map_or(&[][..], LineSet::as_slice));
        for wr in virt.window.iter().rev() {
            let c = &committed[&wr.seq];
            if c.end <= start
                || !(meets(w, &c.live_writes)
                    || meets(w, &c.live_reads)
                    || meets(r, &c.live_writes))
            {
                continue;
            }
            let line = match writes {
                Some(_) => best(w, &c.writes)
                    .or_else(|| best(w, &c.reads))
                    .or_else(|| best(r, &c.writes)),
                None => best(r, &c.writes),
            }
            .unwrap();
            return Some((line, reg.class_of(line), c.op_key, c.thread));
        }
        None
    }

    /// The line index is built on demand — at a check that gets past its
    /// interval exit, or at a `forget_lines` whose lines the pending
    /// records may hold — and a record pruned before either is never
    /// indexed. Every check must still answer what a scan of the whole
    /// window answers: two to four threads committing overlapping
    /// intervals over 48 lines (40 of them in five registered nodes,
    /// ranked against address order), checks with and without writes,
    /// prunes at random horizons (in stretches where checks are rare, so
    /// that they drop records never indexed), forgets of line ranges that
    /// pending records hold, and clears.
    #[test]
    fn the_on_demand_index_answers_as_a_window_scan_does() {
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
        let (mut hits, mut misses, mut pending_forgets, mut unindexed_pruned) = (0, 0, 0, 0);
        for step in 0..40_000u32 {
            let threads = [2, 3, 4][(step / 4_000 % 3) as usize];
            let t = rng.gen_range(0..threads);
            let mut roll = rng.gen_range(0u32..100);
            // Every other stretch checks and forgets rarely, so prunes
            // drop records that nothing indexed.
            let quiet = step / 2_000 % 2 == 1;
            if quiet && !(85..93).contains(&roll) && roll < 99 && rng.gen_bool(0.95) {
                roll = 0;
            }
            match roll {
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
                        window_scan(&virt, &committed, start, &reads, writes.as_ref(), &nodes);
                    let got = virt.check(start, &reads, writes.as_ref(), &nodes);
                    assert_eq!(got, want, "step {step}");
                    if got.is_some() {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                }
                85..=92 => {
                    let before = clocks[..threads].iter().min().unwrap();
                    let pending = virt.next_seq - virt.indexed_to;
                    virt.prune(before.saturating_sub(rng.gen_range(0u64..800)));
                    let still = virt.window.iter().filter(|wr| wr.seq >= virt.indexed_to);
                    unindexed_pruned += pending - still.count() as u64;
                }
                93..=98 => {
                    // Half the ranges start at a line of the newest record.
                    let newest = committed.values().next_back();
                    let lo = match newest.and_then(|c| c.reads.first().or(c.writes.first())) {
                        Some(l) if rng.gen_bool(0.5) => l.0.saturating_sub(rng.gen_range(0u64..3)),
                        _ => rng.gen_range(0u64..48),
                    };
                    let lines = lo..lo + rng.gen_range(1u64..7);
                    let pending_holds = virt.window.iter().any(|wr| {
                        let c = &committed[&wr.seq];
                        wr.seq >= virt.indexed_to
                            && c.reads
                                .iter()
                                .chain(&c.writes)
                                .any(|l| lines.contains(&l.0))
                    });
                    pending_forgets += u32::from(pending_holds);
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
            pending_forgets > 100,
            "{pending_forgets} forgets of pending lines"
        );
        assert!(
            unindexed_pruned > 400,
            "{unindexed_pruned} records never indexed"
        );
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
