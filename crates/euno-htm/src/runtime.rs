//! Engine-wide shared state and the one backend decision: *which engine
//! runs a transaction* is resolved once, in [`Runtime::new`], to a
//! [`Backend`]; how each engine validates, commits and waits lives in its
//! own module ([`crate::virt`], [`crate::tl2`], [`crate::rtm`]). What is
//! left here is what all three share: the cost model, the node table, the
//! epoch collector and the metric registry.

use std::sync::atomic::AtomicU64;
use std::sync::Arc;

use crate::cost::CostModel;
use crate::line::{LineClass, LineId, CACHE_LINE_BYTES};
use crate::registry::NodeTable;
use crate::virt::VirtModel;

/// Which clock a runtime's threads run on — a view derived from its
/// [`Backend`] ([`Backend::mode`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Mode {
    /// Real OS threads; TL2-style software transactions (per-line version
    /// locks, read-version validation — see DESIGN.md §4.5) or, on a TSX
    /// CPU, real hardware transactions. Used by stress tests — genuinely
    /// concurrent and linearizable, but abort statistics reflect the
    /// STM/RTM, not the modeled TSX.
    Concurrent,
    /// Deterministic single-threaded virtual-time execution; conflicts
    /// derived from interval overlap × cache-line footprint intersection,
    /// faithfully mimicking TSX's line-granularity detection. Used by all
    /// paper-figure experiments.
    Virtual,
}

/// The engine that executes a runtime's transactions. All three run the
/// same bodies behind the same staged executor ([`crate::exec`]); shared
/// code dispatches on this once per engine entry point.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// The deterministic virtual-time model ([`crate::virt`]).
    Virtual,
    /// TL2-style software transactions on real threads ([`crate::tl2`]).
    Stm,
    /// Real Intel RTM lock elision ([`crate::rtm`]) over the TL2
    /// protocol's clock, fallback cell and direct-write publication.
    /// Compiled on x86-64, entered on CPUID: requested of a host without
    /// TSX it resolves to [`Backend::Stm`] — [`Runtime::backend`] says
    /// what actually runs.
    Rtm,
}

impl Backend {
    #[inline]
    pub fn mode(self) -> Mode {
        match self {
            Backend::Virtual => Mode::Virtual,
            Backend::Stm | Backend::Rtm => Mode::Concurrent,
        }
    }
}

/// A word on a cache line of its own. Every writing commit on every
/// thread bumps `Runtime::seq` and `Runtime::wb_active`, while every
/// access reads `backend` and `cost`: wherever field reordering happens to
/// put them, the write-hot words must not share a line with the
/// read-only ones (`wall-point`, 2 threads: 1.11 M ops/s sharing a line
/// with `backend`, 1.34 M apart).
#[repr(align(64))]
pub struct OwnLine<T>(pub T);

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
    /// The engine every transaction on this runtime runs on, resolved
    /// against the host in [`Runtime::new`] and fixed from then on.
    backend: Backend,
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
    /// [`crate::tl2::VersionTable`] and DESIGN.md §4.5).
    pub(crate) vlocks: crate::tl2::VersionTable,
    /// Number of writing commits currently between their clock bump and
    /// the end of their writeback. Episode-free optimistic readers take
    /// snapshots only while this is zero, and a fallback acquirer spins it
    /// to zero before issuing direct writes — the two places that must not
    /// observe a half-applied write buffer.
    pub(crate) wb_active: OwnLine<AtomicU64>,
    /// The virtual backend's contention model: its committed window, line
    /// heat and lock clock (empty on the other two).
    pub(crate) virt: VirtModel,
    /// Line → registered node, populated by trees at node allocation:
    /// answers conflict classification, profiler attribution and the
    /// deterministic line ranks for conflict-line selection — which is why
    /// the virtual backend's episode close passes it into
    /// [`VirtModel::close`].
    pub(crate) nodes: NodeTable,
    /// Epoch collector for deferred node reclamation: trees pin around
    /// every operation ([`crate::ctx::ThreadCtx::pinned`]) and hand
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
    /// Construct a runtime on `backend`. This is the one place the engine
    /// is chosen: [`Backend::Rtm`] asked of a host whose CPUID lacks TSX
    /// is the software TL2 path, so callers may request it
    /// unconditionally.
    pub fn new(backend: Backend, cost: CostModel) -> Arc<Self> {
        let backend = match backend {
            Backend::Rtm if !crate::rtm::hw_rtm_available() => Backend::Stm,
            b => b,
        };
        Arc::new(Runtime {
            backend,
            virt: VirtModel::new(cost.clone()),
            cost,
            seq: OwnLine(AtomicU64::new(0)),
            vlocks: crate::tl2::VersionTable::new(),
            wb_active: OwnLine(AtomicU64::new(0)),
            nodes: NodeTable::default(),
            epoch: crate::epoch::Collector::new(),
            metrics: euno_metrics::Registry::new(),
            next_thread: AtomicU64::new(0),
        })
    }

    /// Convenience: virtual-time runtime with the default cost model.
    pub fn new_virtual() -> Arc<Self> {
        Self::new(Backend::Virtual, CostModel::default())
    }

    /// Convenience: real-thread runtime (TL2 software transactions) with
    /// the default cost model.
    pub fn new_concurrent() -> Arc<Self> {
        Self::new(Backend::Stm, CostModel::default())
    }

    /// Convenience: real-thread runtime on the hardware-RTM backend (TL2
    /// software path when the CPU has no TSX).
    pub fn new_concurrent_rtm() -> Arc<Self> {
        Self::new(Backend::Rtm, CostModel::default())
    }

    /// The backend that actually runs — never [`Backend::Rtm`] on a host
    /// without it.
    #[inline]
    pub fn backend(&self) -> Backend {
        self.backend
    }

    #[inline]
    pub fn mode(&self) -> Mode {
        self.backend.mode()
    }

    /// Whether transactions on this runtime execute as hardware RTM
    /// transactions.
    #[inline]
    pub fn rtm_active(&self) -> bool {
        self.backend == Backend::Rtm
    }

    /// The epoch collector governing deferred node reclamation.
    #[inline]
    pub fn epoch(&self) -> &crate::epoch::Collector {
        &self.epoch
    }

    /// The metric registry: per-thread counter shards, epoch gauges and
    /// the CCM flip log.
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
    /// virtual mode starts those lines cold (`VirtModel::forget`).
    pub fn register_node(
        &self,
        base: usize,
        bytes: usize,
        parts: &[(usize, LineClass)],
        attributed: bool,
    ) {
        self.nodes
            .register(base, bytes, parts, attributed.then_some(base));
        self.forget_node_heat(base, bytes);
    }

    /// [`Runtime::register_node`] for a one-part side block whose
    /// addresses the contention profiler attributes to the node at `owner`
    /// (a Euno leaf's conflict-control block, to its leaf).
    pub fn register_side_block(&self, base: usize, bytes: usize, class: LineClass, owner: usize) {
        self.nodes.register(base, bytes, &[(0, class)], Some(owner));
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
        if self.backend == Backend::Virtual {
            let line = CACHE_LINE_BYTES as u64;
            let (lo, hi) = (base as u64, (base + bytes) as u64);
            self.virt.forget(lo / line..hi.div_ceil(line));
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

    /// Reset all engine state between experiment phases (keeps the node
    /// table — the tree nodes are still alive).
    pub fn reset_dynamics(&self) {
        self.virt.clear();
        // Preload / warmup traffic must not leak into measured metric
        // totals; registered threads keep their shard handles.
        self.metrics.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abort::AbortCause;
    use crate::ctx::EpisodeState;
    use crate::virt::Closing;
    use euno_rng::SmallRng;
    use euno_trace::EpisodeKind;

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

    /// Close `ep` on the runtime's model at `now` for `thread`: the cycles
    /// charged and the verdict.
    fn close(rt: &Runtime, ep: &EpisodeState, thread: u32, now: u64) -> (u64, Option<AbortCause>) {
        let mut rng = SmallRng::seed_from_u64(7);
        rt.virt
            .close(Closing::Episode(ep), now, thread, &mut rng, &rt.nodes)
    }

    /// An episode of `kind` begun at `start`, over `reads` and `writes`.
    fn episode(
        kind: EpisodeKind,
        start: u64,
        reads: &[LineId],
        writes: &[LineId],
    ) -> Box<EpisodeState> {
        let mut ep = EpisodeState::new(kind, start);
        reads.iter().for_each(|&l| _ = ep.reads.insert(l));
        writes.iter().for_each(|&l| _ = ep.writes.insert(l));
        ep
    }

    /// Publish `thread`'s fallback section over `[start, end)`.
    fn publish(
        rt: &Runtime,
        thread: u32,
        start: u64,
        end: u64,
        reads: &[LineId],
        writes: &[LineId],
    ) {
        let ep = episode(EpisodeKind::Fallback, start, reads, writes);
        assert_eq!(close(rt, &ep, thread, end), (0, None));
    }

    /// The window check's verdict on `thread`'s serialized transaction (no
    /// storm draw) over `[start, now)`; clean, it is published.
    fn tx(
        rt: &Runtime,
        thread: u32,
        start: u64,
        now: u64,
        reads: &[LineId],
        writes: &[LineId],
    ) -> Option<AbortCause> {
        let mut ep = episode(EpisodeKind::HtmTx, start, reads, writes);
        ep.serialized = true;
        close(rt, &ep, thread, now).1
    }

    /// The thread of the window record `verdict` collided with.
    fn other(verdict: Option<AbortCause>) -> Option<u32> {
        match verdict {
            Some(AbortCause::Conflict(ci)) => ci.other_thread,
            v => panic!("not a window conflict: {v:?}"),
        }
    }

    #[test]
    fn window_conflict_detection_basic() {
        let rt = Runtime::new_virtual();
        publish(&rt, 0, 0, 100, &[LineId(10)], &[LineId(20)]);

        // Overlapping reader of line 20 collides with the committed write.
        let r = [LineId(20)];
        assert_eq!(other(tx(&rt, 1, 50, 60, &r, &[])), Some(0));

        // Non-overlapping (starts after the episode ended): no conflict.
        assert_eq!(tx(&rt, 1, 100, 110, &r, &[]), None);

        // Overlapping but disjoint lines: no conflict.
        assert_eq!(tx(&rt, 1, 50, 60, &[LineId(99)], &[]), None);
    }

    #[test]
    fn a_record_that_starts_after_the_checker_ends_still_collides() {
        // DESIGN.md §9, rule 1: the check tests only that a record ends
        // after the checking episode starts. Here the record runs at
        // [500, 600), wholly after a reader that runs at [50, 100), yet
        // it ran first in the serial order, and the window is the only
        // validation a virtual episode gets, so the reader aborts.
        let rt = Runtime::new_virtual();
        publish(&rt, 2, 500, 600, &[], &[LineId(20)]);
        assert_eq!(other(tx(&rt, 1, 50, 100, &[LineId(20)], &[])), Some(2));
    }

    #[test]
    fn writer_collides_with_committed_reader() {
        // TSX aborts a running reader when a writer intrudes; in the model
        // the later-executing writer takes the abort instead — same count.
        let rt = Runtime::new_virtual();
        publish(&rt, 1, 0, 100, &[LineId(5)], &[]);
        assert_eq!(other(tx(&rt, 2, 10, 20, &[], &[LineId(5)])), Some(1));
    }

    #[test]
    fn optimistic_read_only_checks_writes() {
        let rt = Runtime::new_virtual();
        publish(&rt, 1, 0, 100, &[LineId(5)], &[LineId(6)]);
        let read = |line| {
            let ep = episode(EpisodeKind::OptimisticRead, 10, &[line], &[]);
            close(&rt, &ep, 2, 20).1
        };
        // Optimistic read of line 5 (their read): fine.
        assert_eq!(read(LineId(5)), None);
        // Optimistic read of line 6 (their write): retry.
        assert_eq!(other(read(LineId(6))), Some(1));
    }

    #[test]
    fn prune_discards_expired_records() {
        let rt = Runtime::new_virtual();
        for i in 0..10 {
            publish(&rt, 0, i * 10, i * 10 + 10, &[], &[LineId(i)]);
        }
        assert_eq!(rt.virt_window_len(), 10);
        rt.virt_prune(55);
        assert!(rt.virt_window_len() <= 5);
        // Remaining entries still catch conflicts.
        assert_eq!(other(tx(&rt, 1, 91, 95, &[], &[LineId(9)])), Some(0));
    }

    #[test]
    fn vlock_hold_and_query() {
        let rt = Runtime::new_virtual();
        let free_at = |now: u64| rt.virt.lock_read(42).1.max(now);
        assert_eq!(free_at(100), 100);
        rt.virt.lock_hold(42, 500);
        assert_eq!(free_at(100), 500);
        assert_eq!(free_at(900), 900);
        // Holds never shrink.
        rt.virt.lock_hold(42, 300);
        assert_eq!(free_at(100), 500);
    }

    #[test]
    fn transfer_charge_for_hot_lines() {
        let rt = Runtime::new_virtual();
        publish(&rt, 1, 0, 100, &[], &[LineId(3)]);
        let cost = rt.cost.line_transfer;
        let charge = |now, me| {
            let ep = episode(EpisodeKind::OptimisticRead, now, &[LineId(3)], &[]);
            close(&rt, &ep, me, now + 10).0
        };
        // Another thread touching the line soon after pays a transfer.
        assert_eq!(charge(150, 0), cost);
        // The writer itself does not.
        assert_eq!(charge(150, 1), 0);
        // Long after the horizon: cold again.
        assert_eq!(charge(10_000_000, 0), 0);
    }

    /// The transfer charge and the storm probability read the footprint's
    /// heat from one gather; recomputed here line by line from the heat
    /// map, as the per-line loops the gather replaced did, they must agree
    /// bit for bit — including the double count of a line that is both
    /// read and written (ROADMAP item 19 changes that on purpose, and must
    /// move this test when it does).
    #[test]
    fn gathered_heat_charges_and_storms_as_the_per_line_rules_do() {
        let rt = Runtime::new_virtual();
        let [a, b, c, d, e] = [11, 12, 13, 14, 15].map(LineId);
        publish(&rt, 1, 0, 1_000, &[], &[a, b]);
        publish(&rt, 2, 1_000, 5_000, &[], &[b, c]); // b now has a write rate
        publish(&rt, 1, 5_000, 9_000, &[], &[b]);
        publish(&rt, 0, 9_000, 9_500, &[], &[d]); // the closing thread's own line
        publish(&rt, 3, 10_000, 60_000, &[], &[e]); // written after the episode starts
        let (reads, writes) = ([a, b, c, d, e], [b, e]);
        let (me, start, duration) = (0, 20_000, 1_700);

        let mut ep = episode(EpisodeKind::HtmTx, start, &reads, &writes);
        ep.serialized = true;
        let (charge, verdict) = close(&rt, &ep, me, start + 1_000);
        assert_eq!(other(verdict), Some(3), "e's record ends after the start");
        let (p_abort, latest) = rt.virt.storm_probability(start, duration);

        let (mut hot, mut log_survive, mut latest_ref) = (0u64, 0.0f64, None);
        let l = duration as f64;
        for &line in reads.iter().chain(writes.iter()) {
            let Some((end, _, gap_ewma)) = rt.virt.heat(line).filter(|h| h.1 != me) else {
                continue;
            };
            // `TRANSFER_HORIZON`.
            if end + 20_000 > start {
                hot += 1;
            }
            if end <= start {
                let since = (start - end).max(1) as f64;
                log_survive -= if gap_ewma == u64::MAX {
                    l / since
                } else {
                    let gap = gap_ewma.max(1) as f64;
                    (l / gap) * (-since / (20.0 * gap)).exp()
                };
                latest_ref = latest_ref.max(Some(end));
            }
        }
        assert_eq!(
            hot, 6,
            "a, c once; b and e, read and written, twice; d is mine"
        );
        assert_eq!(charge, hot * rt.cost.line_transfer);
        assert_eq!(p_abort.to_bits(), (1.0 - log_survive.exp()).to_bits());
        assert!(
            p_abort > 0.0 && p_abort < 1.0,
            "the storm has a real chance: {p_abort}"
        );
        assert_eq!((latest, latest_ref), (Some(9_000), Some(9_000)));
    }

    #[test]
    fn storm_reports_latest_write_and_breaks_ties_on_rank() {
        let rt = Runtime::new_virtual();
        // The higher address registers first: rank order reverses
        // address order.
        rt.register_node(0x2000, 64, &[(0, LineClass::Record)], false);
        rt.register_node(0x1000, 64, &[(0, LineClass::Record)], false);
        let (lo, hi) = (LineId(0x1000 / 64), LineId(0x2000 / 64));
        publish(&rt, 1, 0, 50, &[], &[LineId(5)]);
        publish(&rt, 1, 60, 100, &[], &[lo, hi]);
        // Written as the read starts, which runs 1 000 cycles: the
        // storm fires surely, on whichever thread did not write.
        let ep = episode(EpisodeKind::OptimisticRead, 100, &[LineId(5), lo, hi], &[]);
        let hit = close(&rt, &ep, 0, 1_100).1;
        let Some(AbortCause::Conflict(ci)) = hit else {
            panic!("{hit:?}")
        };
        assert_eq!(ci.other_thread, None, "a storm names no thread");
        assert_eq!(
            (ci.line, rt.class_of(ci.line)),
            (hi, LineClass::Record),
            "latest write, first-registered node"
        );
        assert_eq!(
            close(&rt, &ep, 1, 1_100).1,
            None,
            "a thread's own writes are not a storm"
        );
    }
}
