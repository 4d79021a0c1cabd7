//! Cycle cost model for the virtual-time execution mode.
//!
//! The paper's testbed is a 2×10-core 2.30 GHz Haswell Xeon (§5.1). The
//! host running this reproduction has a single core, so throughput and
//! scalability are measured on a virtual clock: every instrumented memory
//! access, CAS, transaction boundary and abort charges cycles from this
//! model, and throughput is `committed ops ÷ virtual seconds`.
//!
//! Absolute constants are calibrated in `EXPERIMENTS.md` against the
//! paper's anchors (e.g. HTM-B+Tree ≈ 27 M ops/s at 16 threads under no
//! skew, ≈ 1.7 M ops/s at θ = 0.99; Euno-B+Tree ≈ 18.6 M ops/s at
//! θ = 0.99). The *relative* magnitudes follow published Haswell latencies:
//! an L1 hit is a few cycles, a cross-core/cross-socket line transfer tens
//! to hundreds, a transactional abort restores register state and refetches
//! code, and `XBEGIN`/`XEND` cost a few tens of cycles each.

use euno_trace::EpisodeKind;

use crate::abort::AbortCause;

/// Cycle charges for every instrumented event. All fields are public so
/// experiments can explore sensitivity (see the ablation benches).
#[derive(Clone, Debug)]
pub struct CostModel {
    /// Core frequency in Hz used to convert virtual cycles to seconds.
    pub freq_hz: f64,
    /// Plain access to a word already in the transaction/episode footprint.
    pub access_hit: u64,
    /// First access to a cache line within one transactional or locked
    /// episode: models the load-into-L1 plus read/write-set bookkeeping
    /// TSX performs (fallback and locked-write episodes pay it for the
    /// coherence upgrades their footprint causes).
    pub line_first_touch: u64,
    /// First access to a cache line within an *optimistic read* section.
    /// Those sections execute plain loads, so there is no transactional
    /// bookkeeping to pay — but the line still has to be fetched through
    /// the cache hierarchy, and the traversal instructions around the
    /// load (compares, branches, the dependent pointer chase) are real.
    /// Between [`CostModel::access_hit`] (a pure L1 hit — too cheap for a
    /// first touch over a multi-MiB tree) and
    /// [`CostModel::line_first_touch`] (which includes the TSX read-set
    /// insert that plain loads skip). The episode footprint is still
    /// recorded in full for virtual-mode conflict-window detection.
    pub plain_first_touch: u64,
    /// Additional charge when the line is *hot*, i.e. was written by another
    /// thread recently — models the cache-coherence transfer the paper's
    /// NUMA discussion highlights. Applied by the simulator, not the tree.
    pub line_transfer: u64,
    /// A successful or failed atomic compare-and-swap.
    pub cas: u64,
    /// Entering an RTM region (`XBEGIN` + checkpoint).
    pub xbegin: u64,
    /// Committing an RTM region (`XEND`).
    pub xend: u64,
    /// Fixed rollback penalty on abort (register restore, pipeline flush,
    /// abort-handler dispatch), charged on top of the wasted attempt.
    pub abort_penalty: u64,
    /// Base unit for exponential backoff between retries.
    pub backoff_base: u64,
    /// Cap for the exponential backoff.
    pub backoff_cap: u64,
    /// Fixed per-operation overhead outside the tree (benchmark loop, key
    /// generation, call frames).
    pub op_overhead: u64,
    /// Generic ALU work charged explicitly by data-structure code
    /// (hashing, comparisons not expressed as cell reads).
    pub alu: u64,
    /// Acquiring an uncontended advisory lock (CAS + fence).
    pub lock_acquire: u64,
    /// Releasing an advisory lock.
    pub lock_release: u64,
    /// One spin-loop iteration while waiting (PAUSE + reload).
    pub spin_iter: u64,
    /// Maximum number of distinct lines a transactional *write set* may hold
    /// before a capacity abort (TSX write set is bounded by L1D: 32 KiB /
    /// 64 B = 512 lines).
    pub write_capacity_lines: usize,
    /// Maximum number of distinct lines in the *read set* (tracked in L2/L3
    /// on Haswell; far larger than the write set).
    pub read_capacity_lines: usize,
    /// Rate of spurious aborts (interrupts, TLB shootdowns, …) per cycle of
    /// transaction duration. TSX transactions longer than a scheduling
    /// quantum essentially never commit; with the default rate a 1 k-cycle
    /// transaction aborts spuriously about 0.1 % of the time.
    pub spurious_abort_per_cycle: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            freq_hz: 2.3e9, // §5.1: 2.30 GHz Xeon E5-2650 v3
            access_hit: 3,
            line_first_touch: 26,
            plain_first_touch: 16,
            line_transfer: 180,
            cas: 26,
            xbegin: 54,
            xend: 16,
            abort_penalty: 200,
            backoff_base: 40,
            backoff_cap: 1_200,
            op_overhead: 700,
            alu: 1,
            lock_acquire: 26,
            lock_release: 8,
            spin_iter: 40,
            write_capacity_lines: 512,
            read_capacity_lines: 8192,
            spurious_abort_per_cycle: 1e-6,
        }
    }
}

impl CostModel {
    /// Exponential backoff with cap: `base * 2^attempt`, saturating.
    #[inline]
    pub fn backoff(&self, attempt: u32) -> u64 {
        self.backoff_base
            .saturating_mul(1u64 << attempt.min(16))
            .min(self.backoff_cap)
    }

    /// Convert a span of virtual cycles to seconds.
    #[inline]
    pub fn cycles_to_secs(&self, cycles: u64) -> f64 {
        cycles as f64 / self.freq_hz
    }

    /// One instrumented access: its cycles, and whether it ends the
    /// transaction. Adding its line to the open episode's footprint
    /// (`newly`) is a first touch, plain in an optimistic section; any
    /// other access is a hit. A transaction whose sets have come to
    /// `(reads, writes)` lines aborts once either passes its capacity.
    #[inline]
    pub(crate) fn access(
        &self,
        kind: Option<EpisodeKind>,
        newly: bool,
        (reads, writes): (usize, usize),
    ) -> (u64, Result<(), AbortCause>) {
        let cycles = match kind {
            Some(EpisodeKind::OptimisticRead) if newly => self.plain_first_touch,
            Some(_) if newly => self.line_first_touch,
            _ => self.access_hit,
        };
        let over = kind == Some(EpisodeKind::HtmTx)
            && (writes > self.write_capacity_lines || reads > self.read_capacity_lines);
        (cycles, (!over).then_some(()).ok_or(AbortCause::Capacity))
    }

    /// Probability that a transaction of `duration` cycles suffers a
    /// spurious (non-conflict, non-capacity) abort.
    #[inline]
    pub fn spurious_probability(&self, duration: u64) -> f64 {
        let lambda = self.spurious_abort_per_cycle * duration as f64;
        1.0 - (-lambda).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_then_caps() {
        let c = CostModel::default();
        assert_eq!(c.backoff(0), c.backoff_base);
        assert_eq!(c.backoff(1), c.backoff_base * 2);
        assert!(c.backoff(30) <= c.backoff_cap);
        assert_eq!(c.backoff(30), c.backoff_cap);
    }

    #[test]
    fn cycle_conversion_uses_frequency() {
        let c = CostModel::default();
        let secs = c.cycles_to_secs(2_300_000_000);
        assert!((secs - 1.0).abs() < 1e-9);
    }

    #[test]
    fn spurious_probability_monotone_in_duration() {
        let c = CostModel::default();
        let p1 = c.spurious_probability(100);
        let p2 = c.spurious_probability(10_000);
        let p3 = c.spurious_probability(10_000_000);
        assert!(p1 < p2 && p2 < p3);
        assert!(p1 >= 0.0 && p3 <= 1.0);
        // A transaction far longer than a scheduling quantum never commits.
        assert!(p3 > 0.99);
    }
}
