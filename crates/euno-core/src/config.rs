//! Euno-B+Tree configuration knobs.
//!
//! Each flag corresponds to one bar of the paper's design-choice ablation
//! (Figure 13): splitting the HTM region is inherent to this tree (the
//! `+Split HTM` variant is this tree with everything else off and a single
//! segment per leaf), and `ccm_lock_bits` / `ccm_mark_bits` / `adaptive`
//! toggle the remaining increments.

/// Runtime feature flags and thresholds for [`EunoBTree`](crate::EunoBTree).
#[derive(Clone, Debug)]
pub struct EunoConfig {
    /// Enable the CCM's per-slot advisory lock bits (serialize same-record
    /// requests before they enter the lower HTM region).
    pub ccm_lock_bits: bool,
    /// Enable the CCM's mark bits (Bloom-style existence filter that turns
    /// definite misses around before they touch the leaf).
    pub ccm_mark_bits: bool,
    /// Enable per-leaf adaptive contention control: bypass the CCM and the
    /// split-lock pre-acquisition while the observed conflict rate is low.
    pub adaptive: bool,
    /// A leaf counts as "near full" (Algorithm 2 line 39) when its live
    /// records ≥ capacity − `near_full_slack`.
    pub near_full_slack: usize,
    /// Write-scheduler retries before reorganizing (Algorithm 3 line 61).
    pub scheduler_retries: u32,
    /// Adaptive detector: operations per decision window.
    pub adaptive_window: u64,
    /// Adaptive detector: bypass while `conflicts / ops` in the last
    /// window stayed at or below this rate.
    pub adaptive_conflict_rate: f64,
    /// Every this many deletions starts a deferred re-balance sweep
    /// (§4.2.4): the crossing only arms it, and the deletes that follow
    /// each carry a bounded slice of it (see [`crate::rebalance`]). A
    /// crossing while a sweep is still pending is absorbed by that sweep.
    /// 0 disables the automatic trigger (call
    /// [`EunoBTree::maintain`](crate::EunoBTree::maintain) manually).
    pub rebalance_delete_threshold: u64,
    /// Enable the three-path executor's footprint-local middle path: a
    /// region that exhausts its speculative budget retries while holding
    /// the advisory slots for its key before escalating to the global
    /// fallback lock. Off reproduces the classic two-path executor.
    pub middle_path: bool,
    /// Serve gets on the episode-free optimistic read path: descend with
    /// direct loads under an epoch pin, validate via the per-leaf `seqno`
    /// (plus the TL2 version clock and the fallback cell in concurrent
    /// mode), retry from the root on any change. Writes keep the two-step
    /// transactional traversal, and scans take the one walk in
    /// [`crate::scan`] either way. Off (the default) reproduces the
    /// paper's all-episode point operations.
    pub read_opt: bool,
}

impl Default for EunoConfig {
    fn default() -> Self {
        EunoConfig {
            ccm_lock_bits: true,
            ccm_mark_bits: true,
            adaptive: true,
            near_full_slack: 4,
            scheduler_retries: 3,
            adaptive_window: 32,
            adaptive_conflict_rate: 0.05,
            rebalance_delete_threshold: 100_000,
            middle_path: true,
            read_opt: false,
        }
    }
}

impl EunoConfig {
    /// The classic two-path executor (HTM → global fallback), for the
    /// three-path ablation. All other features keep their defaults.
    pub fn two_path(mut self) -> Self {
        self.middle_path = false;
        self
    }

    /// The full system with the episode-free optimistic read path on
    /// (`Euno-ReadOpt` in the benchmark tables).
    pub fn read_optimized() -> Self {
        EunoConfig {
            read_opt: true,
            ..Default::default()
        }
    }
}

impl EunoConfig {
    /// Figure 13 `+Split HTM`: region splitting only (use with one segment
    /// per leaf, e.g. `EunoBTree::<1, 16>`).
    pub fn split_htm_only() -> Self {
        EunoConfig {
            ccm_lock_bits: false,
            ccm_mark_bits: false,
            adaptive: false,
            ..Default::default()
        }
    }

    /// Figure 13 `+Part Leaf`: region splitting + partitioned leaves
    /// (use with the default `EunoBTree::<4, 4>`).
    pub fn part_leaf() -> Self {
        Self::split_htm_only()
    }

    /// Figure 13 `+CCM lockbits`.
    pub fn ccm_lockbits() -> Self {
        EunoConfig {
            ccm_lock_bits: true,
            ccm_mark_bits: false,
            adaptive: false,
            ..Default::default()
        }
    }

    /// Figure 13 `+CCM markbits`.
    pub fn ccm_markbits() -> Self {
        EunoConfig {
            ccm_lock_bits: true,
            ccm_mark_bits: true,
            adaptive: false,
            ..Default::default()
        }
    }

    /// Figure 13 `+Adaptive` — the full system (also [`Default`]).
    pub fn full() -> Self {
        EunoConfig::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablation_ladder_is_monotone() {
        let steps = [
            EunoConfig::split_htm_only(),
            EunoConfig::ccm_lockbits(),
            EunoConfig::ccm_markbits(),
            EunoConfig::full(),
        ];
        let score =
            |c: &EunoConfig| c.ccm_lock_bits as u32 + c.ccm_mark_bits as u32 + c.adaptive as u32;
        for w in steps.windows(2) {
            assert!(score(&w[0]) < score(&w[1]));
        }
    }

    #[test]
    fn default_enables_everything() {
        let c = EunoConfig::default();
        assert!(c.ccm_lock_bits && c.ccm_mark_bits && c.adaptive);
        assert!(c.adaptive_window > 0);
        assert!(!c.read_opt, "the paper's system is all-episode by default");
    }

    #[test]
    fn read_optimized_keeps_the_full_write_path() {
        let c = EunoConfig::read_optimized();
        assert!(c.read_opt);
        assert!(
            c.ccm_lock_bits && c.ccm_mark_bits && c.adaptive && c.middle_path,
            "read_opt changes only the read path"
        );
    }
}
