//! Engine-wide shared state and the one backend decision: *which engine
//! runs a transaction* is resolved once, in [`Runtime::new`], to a
//! [`Backend`]; how each engine validates, commits and waits lives in its
//! own module ([`crate::virt`], [`crate::tl2`], [`crate::rtm`]). What is
//! left here is what all three share: the cost model, the node table, the
//! epoch collector and the metric registry.

use std::sync::atomic::AtomicU64;
use std::sync::{Arc, Mutex};

use crate::cost::CostModel;
use crate::line::{LineClass, LineId, CACHE_LINE_BYTES};
use crate::registry::NodeTable;
use crate::virt::VirtState;

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
    /// The virtual backend's committed window, lock clock and line heat
    /// (empty on the other two).
    pub(crate) virt: Mutex<VirtState>,
    /// Bumped whenever the virtual lock table may have changed — a hold,
    /// a prune that trimmed it, a reset — so a thread's remembered read of
    /// it (`ThreadCtx::vlock_free_at`) knows when it is void.
    pub(crate) vlock_gen: AtomicU64,
    /// Line → registered node, populated by trees at node allocation:
    /// answers conflict classification, profiler attribution and the
    /// deterministic line ranks for conflict-line selection — which is why
    /// the episode-closing paths in `ctx.rs` pass it into
    /// [`VirtState::check`] / [`VirtState::storm_check`].
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
            cost,
            seq: OwnLine(AtomicU64::new(0)),
            vlocks: crate::tl2::VersionTable::new(),
            wb_active: OwnLine(AtomicU64::new(0)),
            virt: Mutex::default(),
            vlock_gen: AtomicU64::new(0),
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
    /// virtual mode starts those lines cold (`VirtState::forget_lines`).
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
        match self.backend {
            Backend::Virtual => {
                let line = CACHE_LINE_BYTES as u64;
                let (lo, hi) = (base as u64, (base + bytes) as u64);
                self.virt
                    .lock()
                    .unwrap()
                    .forget_lines(lo / line..hi.div_ceil(line));
            }
            Backend::Stm | Backend::Rtm => {}
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
        let mut virt = self.virt.lock().unwrap();
        virt.clear();
        self.vlock_changed();
        drop(virt);
        // Preload / warmup traffic must not leak into measured metric
        // totals; registered threads keep their shard handles.
        self.metrics.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abort::{classify_conflict, ConflictInfo};
    use crate::line::LineSet;
    use crate::virt::EpisodeRecord;

    // One-call-one-lock wrappers over [`VirtState`] for the tests below;
    // the episode-closing paths in `virt.rs` run every step under a single
    // acquisition of their own.
    impl Runtime {
        /// Check an episode's footprint against committed overlapping episodes.
        /// `check_reads_against_writes` only (optimistic reads) when
        /// `writes` is `None`. Returns the first collision found, classified.
        pub(crate) fn virt_check(
            &self,
            start: u64,
            reads: &LineSet,
            writes: Option<&LineSet>,
            my_key: Option<u64>,
        ) -> Option<ConflictInfo> {
            let (line, class, other_key, other_thread) =
                self.virt
                    .lock()
                    .unwrap()
                    .check(start, reads, writes, &self.nodes)?;
            let kind = classify_conflict(class, my_key, other_key);
            Some(ConflictInfo {
                line,
                kind,
                other_thread: Some(other_thread),
            })
        }

        /// Publish a committed episode and refresh the hot-line map.
        pub(crate) fn virt_commit(&self, rec: EpisodeRecord<'_>) {
            self.virt.lock().unwrap().commit(rec);
        }

        /// Cycles charged for cache-coherence transfers of recently-written hot
        /// lines (touched by another thread within the transfer horizon).
        pub(crate) fn virt_transfer_charge(&self, footprint: &[LineId], now: u64, me: u32) -> u64 {
            let mut virt = self.virt.lock().unwrap();
            virt.gather_heat(footprint, &[], me);
            virt.transfer_charge(now, self.cost.line_transfer)
        }
    }

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
        rt.virt_commit(EpisodeRecord {
            start: 0,
            end: 100,
            thread: 0,
            op_key: Some(7),
            reads: &[LineId(10)],
            writes: &[LineId(20)],
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
    fn a_record_that_starts_after_the_checker_ends_still_collides() {
        // DESIGN.md §9, rule 1: the check tests only that a record ends
        // after the checking episode starts. Here the record runs at
        // [500, 600), wholly after a reader that runs at [50, 100), yet
        // it ran first in the serial order, and the window is the only
        // validation a virtual episode gets, so the reader aborts.
        let rt = Runtime::new_virtual();
        rt.virt_commit(EpisodeRecord {
            start: 500,
            end: 600,
            thread: 2,
            op_key: None,
            reads: &[],
            writes: &[LineId(20)],
        });
        let r: LineSet = [LineId(20)].into_iter().collect();
        let c = rt.virt_check(50, &r, Some(&LineSet::new()), None);
        assert_eq!(c.map(|c| c.other_thread), Some(Some(2)));
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
            reads: &[LineId(5)],
            writes: &[],
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
            reads: &[LineId(5)],
            writes: &[LineId(6)],
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
                reads: &[],
                writes: &[LineId(i)],
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
            reads: &[],
            writes: &[LineId(3)],
        });
        let cost = rt.cost.line_transfer;
        // Another thread touching the line soon after pays a transfer.
        let c = rt.virt_transfer_charge(&[LineId(3)], 150, 0);
        assert_eq!(c, cost);
        // The writer itself does not.
        let c = rt.virt_transfer_charge(&[LineId(3)], 150, 1);
        assert_eq!(c, 0);
        // Long after the horizon: cold again.
        let c = rt.virt_transfer_charge(&[LineId(3)], 10_000_000, 0);
        assert_eq!(c, 0);
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
        let write = |start, end, thread, lines: &[LineId]| {
            rt.virt_commit(EpisodeRecord {
                start,
                end,
                thread,
                op_key: None,
                reads: &[],
                writes: lines,
            });
        };
        write(0, 1_000, 1, &[a, b]);
        write(1_000, 5_000, 2, &[b, c]); // b now has a write rate
        write(5_000, 9_000, 1, &[b]);
        write(9_000, 9_500, 0, &[d]); // the closing thread's own line
        write(10_000, 60_000, 3, &[e]); // written after the episode starts
        let reads: LineSet = [a, b, c, d, e].into_iter().collect();
        let writes: LineSet = [b, e].into_iter().collect();
        let (me, start, duration) = (0, 20_000, 1_700);

        let mut virt = rt.virt.lock().unwrap();
        virt.gather_heat(reads.as_slice(), writes.as_slice(), me);
        let charge = virt.transfer_charge(start, rt.cost.line_transfer);
        let (p_abort, latest) = virt.storm_probability(start, duration);

        let (mut hot, mut log_survive, mut latest_ref) = (0u64, 0.0f64, None);
        let l = duration as f64;
        for line in reads.iter().chain(writes.iter()) {
            let Some(heat) = virt.heat(line).filter(|h| h.thread != me) else {
                continue;
            };
            // `TRANSFER_HORIZON`.
            if heat.end + 20_000 > start {
                hot += 1;
            }
            if heat.end <= start {
                let since = (start - heat.end).max(1) as f64;
                log_survive -= if heat.gap_ewma == u64::MAX {
                    l / since
                } else {
                    let gap = heat.gap_ewma.max(1) as f64;
                    (l / gap) * (-since / (20.0 * gap)).exp()
                };
                latest_ref = latest_ref.max(Some(heat.end));
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
        let write = |start, end, lines: &[LineId]| {
            rt.virt_commit(EpisodeRecord {
                start,
                end,
                thread: 1,
                op_key: None,
                reads: &[],
                writes: lines,
            });
        };
        write(0, 50, &[LineId(5)]);
        write(60, 100, &[lo, hi]);
        let reads: LineSet = [LineId(5), lo, hi].into_iter().collect();
        let mut virt = rt.virt.lock().unwrap();
        // `u = 0` fires whenever any footprint line is hot.
        let mut storm = |me| {
            virt.gather_heat(reads.as_slice(), &[], me);
            virt.storm_check(100, 1_000, 0.0, &rt.nodes)
        };
        let hit = Some((hi, LineClass::Record));
        assert_eq!(storm(0), hit, "latest write, first-registered node");
        assert_eq!(storm(1), None, "a thread's own writes are not a storm");
    }
}
