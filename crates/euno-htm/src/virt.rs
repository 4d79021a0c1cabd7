//! The virtual-time backend ([`Backend::Virtual`]): one scheduler thread,
//! a cycle-charged clock per logical thread, and the contention model of
//! DESIGN.md §9 behind one type, `VirtModel`: the committed window and
//! its conflict check, the storm, the line heat behind the transfer
//! charge, the spurious draw, the refund and the virtual lock clock. A
//! closing episode goes in, its charge and verdict come out; an aborted
//! attempt goes in, its refund comes out. The [`ThreadCtx`] halves below
//! are thin callers, one model call under one lock each; `tests::RULES`
//! pins each rule as a row of hand-computed charges and verdicts. A change
//! here moves every figure, and one that means to move none is checkable
//! as equality (the golden digests, `results/`, the gated `virt-*` rows).
//!
//! [`Backend::Virtual`]: crate::runtime::Backend::Virtual

use std::collections::VecDeque;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use euno_rng::SmallRng;
use euno_trace::{EpisodeKind, EventKind};

use crate::abort::{classify_conflict, AbortCause, ConflictInfo};
use crate::cost::CostModel;
use crate::ctx::{EpisodeState, ThreadCtx};
use crate::hash::{FibMap as HashMap, KeyFilter};
use crate::line::{common_lines, LineId};
use crate::registry::NodeTable;
use crate::runtime::{Backend, Runtime};
use crate::word::TxCell;

/// The contention model, whole (see the module docs). A [`Runtime`] holds
/// one; off the virtual backend it stays empty.
pub(crate) struct VirtModel {
    /// Guarded for `Send`/`Sync`; on the virtual backend every call comes
    /// from the one scheduler thread, so the lock is never contended.
    /// Each call takes it once.
    state: Mutex<VirtState>,
    /// Bumped, under the lock and after the change, whenever the lock
    /// table may have changed — a hold, a prune that trimmed it, a clear —
    /// so a remembered read of it ([`ThreadCtx::vlock_free_at`]) is void.
    lock_gen: AtomicU64,
    /// What the model charges by: `line_transfer`, a point write's width
    /// (`cas`) and the spurious-abort rate.
    cost: CostModel,
}

/// What [`VirtModel::close`] closes: an episode — its kind, start,
/// footprint, op key, `serialized` and fallback line — or a direct write
/// outside any episode, published as a one-line section `cas` wide (strong
/// atomicity: a coherence invalidation aborts a TSX transaction whose
/// footprint holds the line).
#[derive(Clone, Copy)]
pub(crate) enum Closing<'a> {
    Episode(&'a EpisodeState),
    Point(LineId),
}

impl VirtModel {
    pub(crate) fn new(cost: CostModel) -> Self {
        VirtModel {
            state: Mutex::default(),
            lock_gen: AtomicU64::new(0),
            cost,
        }
    }

    /// Close an episode, or publish a point write, at `now` on `thread`:
    /// the cycles it is charged, and its verdict — no abort, or a conflict
    /// with a window record (which names the record's thread), a storm's
    /// conflict (which names none), `FallbackLocked` or `Spurious`. By the
    /// rules of DESIGN.md §9, in this order:
    /// - a transaction and a locked write pay a transfer for each hot line
    ///   of their footprint, an optimistic section for each of its reads;
    ///   the charge extends the interval;
    /// - a transaction's footprint, or an optimistic section's reads
    ///   against writes only, is checked against the window, and a hit on
    ///   the subscribed fallback line is `FallbackLocked`;
    /// - with no hit, and unless the episode is `serialized`, the storm
    ///   draws;
    /// - a transaction still clean draws its spurious abort.
    ///
    /// A clean transaction, a locked write, a fallback section and a point
    /// write are in the window when this returns; an optimistic section
    /// never is.
    pub(crate) fn close(
        &self,
        closing: Closing<'_>,
        now: u64,
        thread: u32,
        rng: &mut SmallRng,
        nodes: &NodeTable,
    ) -> (u64, Option<AbortCause>) {
        let mut s = self.state.lock().unwrap();
        let ep = match closing {
            Closing::Episode(ep) => ep,
            Closing::Point(line) => {
                s.commit(
                    now.saturating_sub(self.cost.cas),
                    now,
                    thread,
                    None,
                    &[],
                    &[line],
                );
                return (0, None);
            }
        };
        let (start, kind, op_key) = (ep.start, ep.kind, ep.op_key);
        let (reads, writes) = (ep.reads.as_slice(), ep.writes.as_slice());
        let transfer = self.cost.line_transfer;
        let charged = match kind {
            EpisodeKind::OptimisticRead => s.transfer_charge(reads, &[], start, thread, transfer),
            EpisodeKind::HtmTx | EpisodeKind::LockedWrite => {
                s.transfer_charge(reads, writes, start, thread, transfer)
            }
            EpisodeKind::Fallback => 0,
        };
        let end = now + charged;
        let mut verdict = None;
        if let EpisodeKind::HtmTx | EpisodeKind::OptimisticRead = kind {
            let tx = kind == EpisodeKind::HtmTx;
            let mine_w = if tx { writes } else { &[] };
            verdict = match s.check(start, reads, mine_w, op_key, nodes) {
                Some(ci) if Some(ci.line) == ep.fb_line => Some(AbortCause::FallbackLocked),
                Some(ci) => Some(AbortCause::Conflict(ci)),
                None if ep.serialized => None,
                None => {
                    let u = rng.gen_f64();
                    let storm = s.storm(start, end.saturating_sub(start), u, op_key, nodes);
                    storm.map(AbortCause::Conflict)
                }
            };
            let p = self.cost.spurious_probability(end.saturating_sub(start));
            if tx && verdict.is_none() && p > 0.0 && rng.gen_bool(p.min(1.0)) {
                verdict = Some(AbortCause::Spurious);
            }
        }
        if verdict.is_none() && kind != EpisodeKind::OptimisticRead {
            s.commit(start, end, thread, op_key, reads, writes);
        }
        (charged, verdict)
    }

    /// An HTM attempt on `thread` aborted at `now` with `cause`, having
    /// wasted `wasted` cycles: the refund. Its speculative stores issued
    /// request-for-ownership traffic whether or not it would have
    /// committed, so its `writes` heat the map (rule 2's feedback, which
    /// turns contention into retry storms); a conflict is refunded half
    /// the attempt, as TSX kills a conflicting transaction mid-flight
    /// (rule 3). Takes the lock only to heat writes.
    pub(crate) fn aborted(
        &self,
        writes: &[LineId],
        now: u64,
        thread: u32,
        cause: &AbortCause,
        wasted: u64,
    ) -> u64 {
        if !writes.is_empty() {
            self.state.lock().unwrap().heat_writes(writes, now, thread);
        }
        match cause {
            AbortCause::Conflict(_) => wasted / 2,
            _ => 0,
        }
    }

    /// Drop everything that cannot affect an episode starting at or after
    /// `before`: window records, and — past their retention sizes — old
    /// line heat and expired lock holds.
    pub(crate) fn prune(&self, before: u64) {
        let mut s = self.state.lock().unwrap();
        if s.prune(before) {
            self.lock_gen.fetch_add(1, Ordering::Release);
        }
    }

    /// Drop all dynamics between experiment phases.
    pub(crate) fn clear(&self) {
        let mut s = self.state.lock().unwrap();
        s.clear();
        self.lock_gen.fetch_add(1, Ordering::Release);
    }

    /// Forget `lines`: a node was just allocated there, or retired
    /// ([`VirtState::forget_lines`]).
    pub(crate) fn forget(&self, lines: Range<u64>) {
        self.state.lock().unwrap().forget_lines(lines);
    }

    // ----- the virtual lock clock ---------------------------------------

    /// The time the lock table holds `key` until (0 when it has none),
    /// with the generation it was read at.
    pub(crate) fn lock_read(&self, key: u64) -> (u64, u64) {
        let s = self.state.lock().unwrap();
        let gen = self.lock_gen.load(Ordering::Acquire);
        (gen, s.locks.get(&key).copied().unwrap_or(0))
    }

    /// Record that `key` is held until `until`; a hold never shrinks.
    pub(crate) fn lock_hold(&self, key: u64, until: u64) {
        let mut s = self.state.lock().unwrap();
        let slot = s.locks.entry(key).or_insert(0);
        *slot = (*slot).max(until);
        self.lock_gen.fetch_add(1, Ordering::Release);
    }
}

/// Write-recency record for one cache line.
#[derive(Clone, Copy, Debug)]
struct LineHeat {
    end: u64,
    thread: u32,
    /// EWMA of the gap between consecutive writes (cycles); `u64::MAX`
    /// until a second write establishes a rate.
    gap_ewma: u64,
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

/// The model's state, behind [`VirtModel`]'s lock.
#[derive(Default)]
struct VirtState {
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
    /// closing thread, [`VirtState::transfer_charge`] has nothing to
    /// gather.
    heat_writers: HeatWriters,
    /// The closing episode's footprint heat, gathered once
    /// ([`VirtState::transfer_charge`]) for both the transfer charge and
    /// the storm: each footprint line another thread last wrote, with that
    /// heat, in footprint order — reads, then writes, so a line in both
    /// is here twice.
    gathered: Vec<(LineId, LineHeat)>,
}

/// Cycles of history in `recent_writes` that count for hot-line charging.
const TRANSFER_HORIZON: u64 = 20_000;

impl LineHeat {
    /// Fold one write at `end` by `thread` into the line's heat record.
    #[inline]
    fn update(&mut self, end: u64, thread: u32) {
        let gap = end.saturating_sub(self.end).max(1);
        self.gap_ewma = match self.gap_ewma {
            u64::MAX => gap,
            ewma => (3 * ewma + gap) / 4,
        };
        (self.end, self.thread) = (end, thread);
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
    /// Check the footprint of an episode for the op on `op_key`, started
    /// at `start`, against the window: my W ∩ their (R ∪ W), my R ∩ their
    /// W (an optimistic section passes no writes, so only its reads
    /// against their writes count). Returns the conflict, classified, with
    /// the other side's thread. The node table is read only once a
    /// collision is found, so the line and its class come from one view
    /// of it and a clean episode never touches its lock.
    ///
    /// The conflicting record is the *newest* (largest-seq) window record
    /// that ends after `start` and whose live footprint
    /// ([`VirtState::live`]) collides. The reported line within that
    /// record comes from its committed footprint, in the priority order my
    /// W ∩ their W, then my W ∩ their R, then my R ∩ their W; within one
    /// priority level the lowest-[`LineRank`](crate::registry::LineRank)
    /// common line wins, so the report does not depend on heap addresses
    /// (see [`NodeTableRead::best_common_line`](crate::registry::NodeTableRead::best_common_line)).
    fn check(
        &self,
        start: u64,
        mine_r: &[LineId],
        mine_w: &[LineId],
        op_key: Option<u64>,
        nodes: &NodeTable,
    ) -> Option<ConflictInfo> {
        // A collision needs a window record that ends after `start`.
        if self.window_ends_by <= start {
            return None;
        }
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
        Some(ConflictInfo {
            line,
            kind: classify_conflict(reg.class_of(line), op_key, wr.op_key),
            other_thread: Some(wr.thread),
        })
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

    /// Publish `thread`'s episode over `[start, end)` for the op on
    /// `op_key`, with its footprint as sorted, deduplicated lines (a
    /// [`LineSet::as_slice`](crate::line::LineSet::as_slice)), and heat its
    /// writes. The window keeps a copy of the lines, so the episode's own
    /// sets are cleared and reused, spill buffers and all.
    fn commit(
        &mut self,
        start: u64,
        end: u64,
        thread: u32,
        op_key: Option<u64>,
        reads: &[LineId],
        writes: &[LineId],
    ) {
        self.heat_writes(writes, end, thread);
        // Opportunistic backstop pruning for drivers that never call
        // [`Runtime::virt_prune`] (ad-hoc tests, hand-rolled loops): any
        // future episode in a min-clock-ordered schedule starts no earlier
        // than this commit's start, so records ending a full safety margin
        // before it can never collide again. The scheduler still performs
        // exact pruning.
        if self.window.len() >= 256 {
            let cutoff = start.saturating_sub(200_000);
            self.drop_window_prefix(cutoff);
            if self.window.len() >= 4096 {
                self.drop_window_all(cutoff);
            }
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.window_ends_by = self.window_ends_by.max(end);
        let at = self.lines_base + self.lines.len() as u64;
        self.lines.extend_from_slice(reads);
        self.lines.extend_from_slice(writes);
        self.window.push_back(WindowRec {
            seq,
            end,
            op_key,
            at,
            thread,
            reads: reads.len() as u32,
            writes: writes.len() as u32,
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

    /// Exact pruning driven by the scheduler: drop every window record
    /// ending at or before `before`; past 65 536 lines, the heat of lines
    /// last written a million cycles before it; past 16 384 entries, the
    /// lock holds that end by it. Returns whether it trimmed the lock
    /// table, which a remembered lock-clock read
    /// ([`ThreadCtx::vlock_free_at`]) must not outlive.
    fn prune(&mut self, before: u64) -> bool {
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
    fn clear(&mut self) {
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
    fn forget_lines(&mut self, lines: Range<u64>) {
        for line in lines.clone() {
            self.recent_writes.remove(&line);
        }
        if !self.window.is_empty() {
            self.forgets.push((self.next_seq, lines));
        }
    }

    /// The transfer charge: `line_transfer` cycles for each line of the
    /// footprint (`reads`, then `writes`) that another thread than `me`
    /// wrote within the transfer horizon before `start`. The footprint's
    /// heat is gathered once, here, for the storm too
    /// ([`VirtState::gathered`]).
    ///
    /// While `me` is the only thread that has written heat since the last
    /// [`VirtState::clear`], every entry is its own — entries are only
    /// ever removed otherwise — so the gather is empty without a probe.
    fn transfer_charge(
        &mut self,
        reads: &[LineId],
        writes: &[LineId],
        start: u64,
        me: u32,
        line_transfer: u64,
    ) -> u64 {
        self.gathered.clear();
        if matches!(self.heat_writers, HeatWriters::Nobody)
            || self.heat_writers == HeatWriters::One(me)
        {
            return 0;
        }
        for &line in reads.iter().chain(writes) {
            if let Some(&heat) = self.recent_writes.get(&line.0) {
                if heat.thread != me {
                    self.gathered.push((line, heat));
                }
            }
        }
        let hot = self
            .gathered
            .iter()
            .filter(|(_, heat)| heat.end + TRANSFER_HORIZON > start)
            .count();
        hot as u64 * line_transfer
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
    /// ([`VirtState::transfer_charge`]) and the latest counted write.
    ///
    /// An empty gather returns `(0.0, None)` at once, which is what the
    /// loop below computes for it: `1 − e⁰` is exactly zero.
    fn storm_probability(&self, start: u64, duration: u64) -> (f64, Option<u64>) {
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
    /// [`VirtState::storm_probability`]) on the op on `op_key`: the
    /// conflict it reports, if it fires.
    fn storm(
        &self,
        start: u64,
        duration: u64,
        u: f64,
        op_key: Option<u64>,
        nodes: &NodeTable,
    ) -> Option<ConflictInfo> {
        let (p_abort, latest_write) = self.storm_probability(start, duration);
        if !(p_abort > 0.0 && u < p_abort) {
            return None;
        }
        // Report the most-recently-written line; `heat.end` ties (lines
        // written by the same committed episode) break on [`LineRank`],
        // not address order, so the reported line is layout-independent.
        // The node table is read only here, once the storm has fired.
        //
        // [`LineRank`]: crate::registry::LineRank
        let reg = nodes.read();
        let line = self
            .gathered
            .iter()
            .filter(|(_, h)| h.end <= start && Some(h.end) == latest_write)
            .map(|&(line, _)| line)
            .min_by_key(|&line| reg.rank_of(line))?;
        Some(ConflictInfo {
            line,
            kind: classify_conflict(reg.class_of(line), op_key, None),
            other_thread: None,
        })
    }

    /// Fold `thread`'s writes at `end` into the heat map — a commit's, or an
    /// aborted attempt's speculative ones ([`VirtModel::aborted`]).
    fn heat_writes(&mut self, writes: &[LineId], end: u64, thread: u32) {
        if writes.is_empty() {
            return;
        }
        self.heat_writers = match self.heat_writers {
            HeatWriters::Nobody => HeatWriters::One(thread),
            HeatWriters::One(t) if t == thread => HeatWriters::One(t),
            _ => HeatWriters::Many,
        };
        let first = LineHeat {
            end,
            thread,
            gap_ewma: u64::MAX,
        };
        for l in writes {
            self.recent_writes
                .entry(l.0)
                .and_modify(|heat| heat.update(end, thread))
                .or_insert(first);
        }
    }
}

#[cfg(test)]
impl VirtModel {
    /// The storm's abort probability and latest counted write over the
    /// footprint last closed, for an episode of `duration` from `start`.
    pub(crate) fn storm_probability(&self, start: u64, duration: u64) -> (f64, Option<u64>) {
        let s = self.state.lock().unwrap();
        s.storm_probability(start, duration)
    }

    /// A line's heat: the end and thread of its last write, and the
    /// write-gap EWMA (`u64::MAX` before a second write).
    pub(crate) fn heat(&self, line: LineId) -> Option<(u64, u32, u64)> {
        let s = self.state.lock().unwrap();
        let h = s.recent_writes.get(&line.0)?;
        Some((h.end, h.thread, h.gap_ewma))
    }
}

impl Runtime {
    /// Drop window entries and hot-line records that can no longer affect
    /// any episode starting at or after `before`. The scheduler calls this
    /// with the minimum pending start time.
    pub fn virt_prune(&self, before: u64) {
        self.virt.prune(before);
    }

    /// Current number of live window entries (observability/tests).
    pub fn virt_window_len(&self) -> usize {
        self.virt.state.lock().unwrap().window.len()
    }

    /// Lines the heat map currently holds — what its eviction triggers on
    /// (observability/tests).
    pub fn virt_heat_len(&self) -> usize {
        self.virt.state.lock().unwrap().recent_writes.len()
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
    /// is (real threads wait by spinning). The thread remembers its last
    /// lock-table read as (generation, key, entry): while no hold, prune
    /// or reset has moved the model's generation since, the table still
    /// holds that entry for that key, so a repeat of the read needs
    /// neither the model's lock nor the probe.
    #[inline]
    pub fn vlock_free_at(&mut self, key: u64) -> u64 {
        if self.rt.backend() != Backend::Virtual {
            return 0;
        }
        let (gen, memo_key, until) = self.vlock_memo;
        let until = if memo_key == key && gen == self.rt.virt.lock_gen.load(Ordering::Acquire) {
            until
        } else {
            let (gen, until) = self.rt.virt.lock_read(key);
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
        if self.rt.backend() == Backend::Virtual {
            self.rt.virt.lock_hold(key, self.clock);
        }
    }

    /// [`crate::lock::LockWord`]'s blocking acquire on the virtual backend: the
    /// wait until the holder's modeled release time plus one losing CAS
    /// observation, so a contended acquisition is accounted as on real
    /// threads — one losing + one winning CAS.
    pub(crate) fn virt_acquire_mask(&mut self, word: &TxCell, mask: u64, vkey: u64) {
        let free_at = self.vlock_free_at(vkey);
        if free_at > self.clock {
            // The losing CAS advances the clock too; only the residual
            // gap to the release time is spent waiting.
            self.charge_cas_miss();
            self.wait_until(free_at);
        }
        let prev = word.fetch_or_direct(self, mask);
        debug_assert_eq!(prev & mask, 0, "virtual lock bits must be free");
    }

    // ----- the model's thin callers ---------------------------------------

    /// A bare (outside any episode) direct write, published: a point
    /// write's close ([`Closing::Point`]).
    pub(crate) fn virt_publish_point_write(&mut self, line: LineId) {
        let ThreadCtx {
            rt, clock, id, rng, ..
        } = self;
        rt.virt
            .close(Closing::Point(line), *clock, *id, rng, &rt.nodes);
    }

    /// [`ThreadCtx::end_episode`] on the virtual backend: one model call.
    /// An aborted attempt's episode goes to [`VirtModel::aborted`], and its
    /// refund comes off the clock. Any other episode goes to
    /// [`VirtModel::close`], and its charge goes on the clock; a clean
    /// transaction then applies its write buffer, while one the model
    /// aborted keeps its episode for the abort the executor reports next.
    pub(crate) fn virt_end(
        &mut self,
        ep: Box<EpisodeState>,
        aborted: Option<(&AbortCause, u64)>,
    ) -> Result<u64, AbortCause> {
        let ThreadCtx {
            rt, clock, id, rng, ..
        } = self;
        if let Some((cause, wasted)) = aborted {
            let refund = rt
                .virt
                .aborted(ep.writes.as_slice(), *clock, *id, cause, wasted);
            *clock -= refund;
            self.recycle(ep);
            return Ok(refund);
        }
        let closing = Closing::Episode(&ep);
        let (charged, verdict) = rt.virt.close(closing, *clock, *id, rng, &rt.nodes);
        *clock += charged;
        let kind = ep.kind;
        if let Some(cause) = verdict {
            match kind {
                EpisodeKind::HtmTx => self.ep = Some(ep),
                _ => self.recycle(ep),
            }
            return Err(cause);
        }
        for (p, v) in &ep.write_buf {
            // Safety: each entry is a cell this attempt's body wrote through
            // `Tx::write`; the epoch pin around the operation keeps its node
            // from being freed (see `CellPtr`), and the attempt is still
            // inside that operation.
            unsafe { (*p.0).store(*v, Ordering::Relaxed) };
        }
        self.recycle(ep);
        if kind == EpisodeKind::HtmTx {
            self.trace(EventKind::EpisodeCommit { kind });
        }
        Ok(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::{LineClass, LineSet};
    use euno_metrics::AbortClass;
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
        op_key: Option<u64>,
    ) -> Option<ConflictInfo> {
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
        Some(ConflictInfo {
            line,
            kind: classify_conflict(reg.class_of(line), op_key, c.op_key),
            other_thread: Some(c.thread),
        })
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
                    let (r, w) = (reads.as_slice(), writes.as_slice());
                    virt.commit(start, end, t as u32, op_key, r, w);
                }
                45..=84 => {
                    let start = clocks[t].saturating_sub(rng.gen_range(0u64..600));
                    let reads = random_set(&mut rng, 8);
                    let writes = rng.gen_bool(0.5).then(|| random_set(&mut rng, 4));
                    let key = (step % 3 > 0).then_some(u64::from(step % 8));
                    let writes = writes.as_ref();
                    let want = eager_scan(&virt, &committed, start, &reads, writes, &nodes, key);
                    let w = writes.map_or(&[][..], LineSet::as_slice);
                    let got = virt.check(start, reads.as_slice(), w, key, &nodes);
                    assert_eq!(got, want, "step {step}");
                    if got.is_some() {
                        hits += 1;
                    } else {
                        misses += 1;
                    }
                    // A record that overlaps and shares lines with the
                    // footprint, every one of them forgotten.
                    let r = reads.as_slice();
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
            virt.commit(start, end, t as u32, None, &[], &line);
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

    // ----- the rules, one row each ------------------------------------------

    /// One row per rule of DESIGN.md §9: the rule, and a check of the
    /// charges and verdicts worked out by hand for a footprint of a few
    /// lines. Lines are not registered, so a conflict is unclassified.
    const RULES: &[(&str, fn())] = &[
        (
            "W∩W, W∩R and R∩W collide; R∩R does not",
            footprints_collide_unless_both_read,
        ),
        (
            "a record ending by the start never collides",
            a_record_ended_by_the_start_never_collides,
        ),
        (
            "a record starting after the checker ends collides",
            a_later_record_still_collides,
        ),
        (
            "an optimistic close checks reads against writes only",
            optimistic_reads_meet_writes_only,
        ),
        (
            "a hit on the fallback line is FallbackLocked",
            a_fallback_line_hit_is_fallback_locked,
        ),
        (
            "forgotten lines spare older records only",
            forgotten_lines_spare_older_records,
        ),
        (
            "the storm follows the gap/EWMA formula",
            the_storm_follows_the_gap_formula,
        ),
        (
            "a serialized transaction draws no storm",
            a_serialized_transaction_draws_no_storm,
        ),
        (
            "a thread's own writes gather nothing",
            own_writes_gather_nothing,
        ),
        (
            "a read-and-written line counts twice",
            a_read_and_written_line_counts_twice,
        ),
        (
            "180 cycles a line written within 20 000",
            the_transfer_horizon,
        ),
        ("first touch 26 or 16, a hit 3", first_touch_and_hit),
        ("capacity: 512 write or 8 192 read lines", capacity),
        ("a conflict refunds wasted / 2, others 0", the_refund),
        (
            "spurious: 1 − e^(−1e-6·d), one draw a clean close",
            spurious_aborts,
        ),
        (
            "prune: 65 536 heat lines, 16 384 lock entries",
            prune_and_retention,
        ),
        (
            "a behind-clock thread books closed windows",
            a_behind_clock_thread_books_closed_windows,
        ),
    ];

    #[test]
    fn the_model_answers_each_rule_as_its_row() {
        let failed: Vec<&str> = RULES
            .iter()
            .filter(|&&(_, row)| std::panic::catch_unwind(row).is_err())
            .map(|&(rule, _)| rule)
            .collect();
        assert!(failed.is_empty(), "rows failed: {failed:#?}");
    }

    /// The model on the default costs, with no line registered and a
    /// seeded draw.
    struct Bench {
        model: VirtModel,
        nodes: NodeTable,
        rng: SmallRng,
    }

    /// An episode of `kind` begun at `start`, over `reads` and `writes`.
    fn episode(kind: EpisodeKind, start: u64, reads: &[u64], writes: &[u64]) -> Box<EpisodeState> {
        let mut ep = EpisodeState::new(kind, start);
        reads.iter().for_each(|&l| _ = ep.reads.insert(LineId(l)));
        writes.iter().for_each(|&l| _ = ep.writes.insert(LineId(l)));
        ep
    }

    /// A conflict on `line` with a window record of thread `other`, or —
    /// with `None` — a storm's.
    fn conflict(line: u64, other: Option<u32>) -> Option<AbortCause> {
        Some(AbortCause::Conflict(ConflictInfo {
            line: LineId(line),
            kind: AbortClass::UnclassifiedConflict,
            other_thread: other,
        }))
    }

    fn hit(line: u64, other: u32) -> Option<AbortCause> {
        conflict(line, Some(other))
    }

    fn storm(line: u64) -> Option<AbortCause> {
        conflict(line, None)
    }

    impl Bench {
        fn new() -> Self {
            Bench {
                model: VirtModel::new(CostModel::default()),
                nodes: NodeTable::default(),
                rng: SmallRng::seed_from_u64(0x5eed),
            }
        }

        fn close(&mut self, ep: &EpisodeState, thread: u32, now: u64) -> (u64, Option<AbortCause>) {
            let (rng, nodes) = (&mut self.rng, &self.nodes);
            self.model
                .close(Closing::Episode(ep), now, thread, rng, nodes)
        }

        /// Publish `thread`'s fallback section over `[start, end)`.
        fn publish(&mut self, thread: u32, start: u64, end: u64, reads: &[u64], writes: &[u64]) {
            let ep = episode(EpisodeKind::Fallback, start, reads, writes);
            assert_eq!(self.close(&ep, thread, end), (0, None));
        }

        /// Close `thread`'s transaction begun at `start`, at `now`.
        fn tx(
            &mut self,
            thread: u32,
            start: u64,
            now: u64,
            r: &[u64],
            w: &[u64],
            serialized: bool,
        ) -> (u64, Option<AbortCause>) {
            let mut ep = episode(EpisodeKind::HtmTx, start, r, w);
            ep.serialized = serialized;
            self.close(&ep, thread, now)
        }

        /// The storm's probability for the footprint last closed.
        fn p_storm(&self, start: u64, duration: u64) -> f64 {
            self.model.storm_probability(start, duration).0
        }
    }

    fn footprints_collide_unless_both_read() {
        let mut b = Bench::new();
        b.publish(1, 0, 100, &[10], &[20]);
        assert_eq!(b.tx(2, 50, 60, &[], &[20], true).1, hit(20, 1), "W∩W");
        assert_eq!(b.tx(2, 50, 60, &[], &[10], true).1, hit(10, 1), "W∩R");
        assert_eq!(b.tx(2, 50, 60, &[20], &[], true).1, hit(20, 1), "R∩W");
        assert_eq!(b.tx(2, 50, 60, &[10], &[], true).1, None, "R∩R");
    }

    /// Alone in the window, and beside a record on another line that ends
    /// later (so the check cannot return before it looks at the record).
    fn a_record_ended_by_the_start_never_collides() {
        let mut b = Bench::new();
        b.publish(1, 0, 100, &[], &[20]);
        assert_eq!(b.tx(2, 100, 200, &[20], &[], true).1, None);
        b.publish(3, 0, 500, &[], &[30]);
        assert_eq!(b.tx(2, 100, 200, &[20], &[], true).1, None);
        assert_eq!(b.tx(2, 99, 200, &[20], &[], true).1, hit(20, 1));
    }

    /// The check tests only that a record ends after the checker starts:
    /// one that ran first in the serial order aborts it whatever its start.
    fn a_later_record_still_collides() {
        let mut b = Bench::new();
        b.publish(2, 500, 600, &[], &[20]);
        assert_eq!(b.tx(1, 50, 100, &[20], &[], true).1, hit(20, 2));
    }

    fn optimistic_reads_meet_writes_only() {
        let mut b = Bench::new();
        b.publish(1, 0, 100, &[5], &[6]);
        let mut read =
            |r: &[u64], w: &[u64]| b.close(&episode(EpisodeKind::OptimisticRead, 10, r, w), 2, 20);
        assert_eq!(read(&[5], &[]), (0, None), "their read");
        assert_eq!(read(&[6], &[]), (180, hit(6, 1)), "their write");
        assert_eq!(read(&[], &[5]), (0, None), "its writes go unchecked");
        assert_eq!(
            b.model.state.lock().unwrap().window.len(),
            1,
            "and it publishes nothing"
        );
    }

    fn a_fallback_line_hit_is_fallback_locked() {
        let mut b = Bench::new();
        b.publish(1, 0, 100, &[], &[30, 31]);
        let mut ep = episode(EpisodeKind::HtmTx, 50, &[30], &[]);
        ep.serialized = true;
        ep.fb_line = Some(LineId(30));
        assert_eq!(b.close(&ep, 2, 60).1, Some(AbortCause::FallbackLocked));
        ep.fb_line = Some(LineId(31));
        assert_eq!(b.close(&ep, 2, 60).1, hit(30, 1), "a hit on another line");
    }

    fn forgotten_lines_spare_older_records() {
        let mut b = Bench::new();
        b.publish(1, 0, 100, &[], &[20, 21]);
        b.model.forget(20..21);
        let read = |b: &mut Bench, line| {
            let ep = episode(EpisodeKind::OptimisticRead, 50, &[line], &[]);
            b.close(&ep, 2, 60).1
        };
        assert_eq!(read(&mut b, 20), None, "forgotten");
        assert_eq!(read(&mut b, 21), hit(21, 1), "not forgotten");
        b.publish(1, 0, 100, &[], &[20]);
        assert_eq!(read(&mut b, 20), hit(20, 1), "committed after the forget");
    }

    /// Line 11 is written once, at 1 000: λ = L/Δ. Line 12 is written at
    /// 1 000, 5 000 and 6 000: its gap estimate is 4 000, then
    /// (3·4 000 + 1 000)/4 = 3 250, and λ = (L/g)·e^(−Δ/20g). Thread 0
    /// reads both over [20 000, 21 340), plus 360 cycles of transfers:
    /// L = 1 700, and p = 1 − e^(−Σλ) ≈ 0.4002. The verdict is one draw
    /// against it, reporting the latest write.
    fn the_storm_follows_the_gap_formula() {
        let mut b = Bench::new();
        b.publish(1, 0, 1_000, &[], &[11, 12]);
        b.publish(2, 1_000, 5_000, &[], &[12]);
        b.publish(1, 5_000, 6_000, &[], &[12]);
        let u = b.rng.clone().gen_f64();
        let ep = episode(EpisodeKind::OptimisticRead, 20_000, &[11, 12], &[]);
        let (charged, verdict) = b.close(&ep, 0, 21_340);
        assert_eq!(charged, 360);
        let lambda = 1_700.0 / 19_000.0 + 1_700.0 / 3_250.0 * (-14_000.0f64 / 65_000.0).exp();
        let p = 1.0 - (-lambda).exp();
        assert!((p - 0.4002).abs() < 1e-4, "{p}");
        assert!((b.p_storm(20_000, 1_700) - p).abs() < 1e-12);
        assert_eq!(verdict, if u < p { storm(12) } else { None }, "u = {u}");
    }

    /// Δ = 1 and L = 280: p = 1 − e^(−280), which is 1.
    fn a_serialized_transaction_draws_no_storm() {
        let mut b = Bench::new();
        b.publish(1, 0, 1_000, &[], &[11]);
        assert_eq!(b.tx(2, 1_000, 1_100, &[11], &[], false), (180, storm(11)));
        let mut spurious_only = b.rng.clone();
        spurious_only.gen_f64();
        assert_eq!(b.tx(2, 1_000, 1_100, &[11], &[], true), (180, None));
        assert_eq!(
            b.rng.next_u64(),
            spurious_only.next_u64(),
            "one draw, the spurious one"
        );
    }

    fn own_writes_gather_nothing() {
        let mut b = Bench::new();
        b.publish(1, 0, 1_000, &[], &[11]);
        assert_eq!(
            b.tx(1, 1_000, 1_100, &[11], &[], false),
            (0, None),
            "a lone writer"
        );
        b.publish(2, 1_000, 2_000, &[], &[12]);
        assert_eq!(
            b.tx(2, 2_000, 2_100, &[11, 12], &[], true).0,
            180,
            "the newer writer"
        );
        assert_eq!(
            b.tx(1, 2_000, 2_100, &[11, 12], &[], true).0,
            180,
            "the older one"
        );
    }

    /// ROADMAP item 19's double count, pinned as it is: the line pays two
    /// transfers, and with Δ = 10 000 and L = 1 000 enters the storm as
    /// λ = 0.1 twice.
    fn a_read_and_written_line_counts_twice() {
        let mut b = Bench::new();
        b.publish(1, 0, 1_000, &[], &[11]);
        assert_eq!(b.tx(2, 11_000, 11_640, &[11], &[11], true), (360, None));
        assert!((b.p_storm(11_000, 1_000) - (1.0 - (-0.2f64).exp())).abs() < 1e-15);
    }

    /// A locked write pays for its writes too; a fallback section and a
    /// point write pay nothing.
    fn the_transfer_horizon() {
        let mut b = Bench::new();
        b.publish(1, 0, 1_000, &[], &[11]);
        b.publish(1, 1_000, 5_000, &[], &[12]);
        let read = |b: &mut Bench, start| {
            let ep = episode(EpisodeKind::OptimisticRead, start, &[11, 12], &[]);
            b.close(&ep, 2, start + 10).0
        };
        assert_eq!(read(&mut b, 20_999), 360);
        assert_eq!(read(&mut b, 21_000), 180);
        assert_eq!(read(&mut b, 25_000), 0);
        let locked = episode(EpisodeKind::LockedWrite, 20_999, &[11], &[12]);
        assert_eq!(b.close(&locked, 2, 21_009), (360, None));
        let section = episode(EpisodeKind::Fallback, 21_000, &[11], &[12]);
        assert_eq!(b.close(&section, 3, 21_010), (0, None));
        let point = Closing::Point(LineId(11));
        assert_eq!(
            b.model.close(point, 21_020, 3, &mut b.rng, &b.nodes),
            (0, None)
        );
    }

    fn first_touch_and_hit() {
        use EpisodeKind::*;
        let c = CostModel::default();
        for kind in [HtmTx, LockedWrite, Fallback] {
            assert_eq!(c.access(Some(kind), true, (1, 1)), (26, Ok(())), "{kind:?}");
        }
        assert_eq!(c.access(Some(OptimisticRead), true, (1, 0)), (16, Ok(())));
        for kind in [
            Some(HtmTx),
            Some(LockedWrite),
            Some(Fallback),
            Some(OptimisticRead),
            None,
        ] {
            assert_eq!(c.access(kind, false, (1, 1)), (3, Ok(())), "{kind:?}");
        }
    }

    fn capacity() {
        use EpisodeKind::*;
        let c = CostModel::default();
        assert_eq!(c.access(Some(HtmTx), true, (8_192, 512)), (26, Ok(())));
        assert_eq!(
            c.access(Some(HtmTx), true, (8_193, 1)),
            (26, Err(AbortCause::Capacity))
        );
        assert_eq!(
            c.access(Some(HtmTx), false, (1, 513)),
            (3, Err(AbortCause::Capacity))
        );
        assert_eq!(
            c.access(Some(LockedWrite), true, (9_000, 600)),
            (26, Ok(())),
            "no transaction"
        );
    }

    fn the_refund() {
        let mut b = Bench::new();
        let ci = ConflictInfo {
            line: LineId(1),
            kind: AbortClass::FalseDifferentRecord,
            other_thread: None,
        };
        assert_eq!(
            b.model.aborted(&[], 0, 1, &AbortCause::Conflict(ci), 1_001),
            500
        );
        for cause in [
            AbortCause::Capacity,
            AbortCause::Explicit(3),
            AbortCause::Spurious,
            AbortCause::FallbackLocked,
        ] {
            assert_eq!(b.model.aborted(&[], 0, 1, &cause, 1_001), 0, "{cause:?}");
        }
        b.model
            .aborted(&[LineId(11)], 5_000, 1, &AbortCause::Capacity, 100);
        let ep = episode(EpisodeKind::OptimisticRead, 6_000, &[11], &[]);
        assert_eq!(
            b.close(&ep, 2, 6_010).0,
            180,
            "the aborted attempt's write is hot"
        );
    }

    /// d = 1 000 000: p = 1 − e^(−1). An optimistic section never draws.
    fn spurious_aborts() {
        let mut b = Bench::new();
        let p = 1.0 - (-(1e-6 * 1_000_000.0f64)).exp();
        let mut draws = b.rng.clone();
        let mut fired = 0;
        for i in 0..200 {
            let start = i * 2_000_000;
            let verdict = b.tx(1, start, start + 1_000_000, &[], &[], true).1;
            let want = if draws.gen_bool(p) {
                Some(AbortCause::Spurious)
            } else {
                None
            };
            assert_eq!(verdict, want, "close {i}");
            fired += u32::from(verdict == Some(AbortCause::Spurious));
        }
        assert!((100..160).contains(&fired), "{fired} of 200");
        let ep = episode(EpisodeKind::OptimisticRead, 0, &[], &[]);
        for _ in 0..20 {
            assert_eq!(b.close(&ep, 1, 1_000_000_000).1, None);
        }
    }

    fn prune_and_retention() {
        let mut b = Bench::new();
        for i in 0..10 {
            b.publish(0, i * 10, i * 10 + 10, &[], &[i]);
        }
        b.model.prune(50);
        assert_eq!(
            b.model.state.lock().unwrap().window.len(),
            5,
            "the records that end by 50 go"
        );
        let lines: Vec<LineId> = (10..65_536).map(LineId).collect();
        b.model.aborted(&lines, 10, 1, &AbortCause::Capacity, 0);
        b.model.prune(2_000_000);
        assert_eq!(
            b.model.state.lock().unwrap().recent_writes.len(),
            65_536,
            "65 536 lines are kept"
        );
        b.model
            .aborted(&[LineId(1 << 20)], 1_000_001, 1, &AbortCause::Capacity, 0);
        b.model.prune(2_000_000);
        assert_eq!(
            b.model.state.lock().unwrap().recent_writes.len(),
            1,
            "past them, heat a million cycles old goes"
        );
        for key in 0..1 << 14 {
            b.model.lock_hold(key, 100);
        }
        let gen = b.model.lock_gen.load(Ordering::Acquire);
        b.model.prune(200);
        assert_eq!(b.model.lock_read(0), (gen, 100), "16 384 holds are kept");
        b.model.lock_hold(1 << 20, 300);
        b.model.prune(200);
        assert_eq!(b.model.lock_read(0).1, 0, "past them, holds that ended go");
        assert_eq!(b.model.lock_read(1 << 20).1, 300);
    }

    /// PR 40 FOUND, pinned as it is: a thread driven without the scheduler,
    /// its clock behind another's, meets that thread's closed episodes.
    fn a_behind_clock_thread_books_closed_windows() {
        let rt = Runtime::new_virtual();
        let (mut ahead, mut behind) = (rt.thread(1), rt.thread(2));
        let cell = TxCell::new(0);
        ahead.clock = 10_000;
        cell.store_direct(&mut ahead, 1);
        behind.episode_begin(EpisodeKind::OptimisticRead);
        assert_eq!(cell.load_direct(&mut behind), 1);
        let ci = behind.episode_end_optimistic();
        assert_eq!(ci.map(|ci| ci.other_thread), Some(Some(ahead.id)));
    }
}
