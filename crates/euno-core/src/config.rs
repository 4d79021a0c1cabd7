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
    /// Enable per-leaf adaptive contention control (guideline 4): a leaf
    /// whose observed conflict rate is low is *bypassed* — no lock bits, no
    /// mark filter, no split-lock pre-acquisition, no detector update —
    /// until an operation on it meets a conflict. Split-born leaves start
    /// on the verdict of the leaf they were split from.
    /// The detector's window and rate are [`crate::ccm::ADAPTIVE_WINDOW`]
    /// and [`crate::ccm::ADAPTIVE_CONFLICT_RATE`].
    pub adaptive: bool,
    /// Every this many deletions starts a deferred re-balance sweep
    /// (§4.2.4): the crossing only arms it, and the deletes that follow
    /// each carry a bounded slice of it (see [`crate::rebalance`]). A
    /// crossing while a sweep is still pending is absorbed by that sweep.
    /// 0 disables the automatic trigger (call
    /// [`EunoBTree::maintain`](crate::EunoBTree::maintain) manually).
    pub rebalance_delete_threshold: u64,
    /// No episode above the leaf. Every operation's upper stage
    /// ([`EunoBTree::locate`](crate::EunoBTree::locate)) first asks the
    /// thread's own *leaf hint* — the `(leaf, low, retirement generation)`
    /// its last walk for a neighbouring key found, trusted while the
    /// tree's retirement generation stands still and the key is below the
    /// leaf's fence on its home segment — and otherwise takes an
    /// episode-free validated walk — direct loads under the epoch pin,
    /// checked against the TL2 version clock and the fallback cell in
    /// concurrent mode — whose result becomes the hint.
    /// The walk starts at the thread's *subtree hint* if it has one: the
    /// index node its last walk from the root found to hold the key's
    /// neighbourhood. A get also reads its leaf episode-free, checked
    /// against the leaf's fence on the key's home segment. Walk and leaf
    /// read are bounded: after a small private budget of tries the walk
    /// ends on the paper's HTM upper region and the get on an ordinary
    /// two-step get. The lower region, the CCM and
    /// the split lock are the same either way, and scans take the one walk
    /// in [`crate::scan`]. On by default; off is [`EunoConfig::paper`],
    /// which neither probes nor records a hint.
    ///
    /// The flag also carries the rule that leaf size follows contention: a
    /// point operation that ran protected and still met a conflict splits
    /// its leaf if the leaf holds more records than segments, unless its
    /// thread scanned in its last few hundred operations
    /// (`EunoBTree::split_if_contended`), and the re-balance sweep merges
    /// no pair in which either leaf is protected.
    pub read_opt: bool,
}

impl Default for EunoConfig {
    /// The library's tree: the paper's full system (every CCM bit and the
    /// adaptive detector) plus `read_opt` — no episode above the leaf, and
    /// leaves split while contended and merged only while calm.
    fn default() -> Self {
        EunoConfig {
            ccm_lock_bits: true,
            ccm_mark_bits: true,
            adaptive: true,
            rebalance_delete_threshold: 100_000,
            read_opt: true,
        }
    }
}

impl EunoConfig {
    /// Either CCM bit vector is on: a leaf runs a conflict-control stage,
    /// and may carry a CCM block ([`crate::ccm`]).
    pub fn conflict_control(&self) -> bool {
        self.ccm_lock_bits || self.ccm_mark_bits
    }

    /// The system as the paper has it: every point operation is an HTM
    /// upper region plus an HTM lower region (Algorithm 2). This is what
    /// every figure and the golden-digest test build, so recorded
    /// results do not move with [`Default`].
    pub fn paper() -> Self {
        EunoConfig {
            read_opt: false,
            ..Default::default()
        }
    }

    /// Figure 13 `+Split HTM`: region splitting only (use with one segment
    /// per leaf, e.g. `EunoBTreeUnpartitioned`).
    pub fn split_htm_only() -> Self {
        EunoConfig {
            ccm_lock_bits: false,
            ccm_mark_bits: false,
            adaptive: false,
            ..Self::paper()
        }
    }

    /// Figure 13 `+Part Leaf`: region splitting + partitioned leaves
    /// (use with `EunoBTreeDefault`).
    pub fn part_leaf() -> Self {
        Self::split_htm_only()
    }

    /// Figure 13 `+CCM lockbits`.
    pub fn ccm_lockbits() -> Self {
        EunoConfig {
            ccm_lock_bits: true,
            ccm_mark_bits: false,
            adaptive: false,
            ..Self::paper()
        }
    }

    /// Figure 13 `+CCM markbits`.
    pub fn ccm_markbits() -> Self {
        EunoConfig {
            ccm_lock_bits: true,
            ccm_mark_bits: true,
            adaptive: false,
            ..Self::paper()
        }
    }

    /// Figure 13 `+Adaptive` — the paper's full system.
    pub fn full() -> Self {
        Self::paper()
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
        assert!(
            c.read_opt,
            "the default tree opens no episode above the leaf"
        );
    }

    #[test]
    fn read_optimized_keeps_the_full_write_path() {
        // `default()` is `paper()` plus what `read_opt` carries — the walk,
        // the leaf hints, and leaves that split while contended and merge
        // only while calm — nothing else.
        let same = EunoConfig {
            read_opt: false,
            ..EunoConfig::default()
        };
        assert_eq!(format!("{same:?}"), format!("{:?}", EunoConfig::paper()));
        for step in [
            EunoConfig::split_htm_only(),
            EunoConfig::ccm_lockbits(),
            EunoConfig::ccm_markbits(),
            EunoConfig::full(),
        ] {
            assert!(!step.read_opt, "the Figure 13 ladder is the paper's");
        }
    }

    #[test]
    fn paper_is_the_config_the_figures_were_recorded_with() {
        // Field for field what `default()` was when `results/` and the
        // golden digest were recorded; exhaustive, so a new field must be
        // given its paper value here.
        let EunoConfig {
            ccm_lock_bits,
            ccm_mark_bits,
            adaptive,
            rebalance_delete_threshold,
            read_opt,
        } = EunoConfig::paper();
        assert!(ccm_lock_bits && ccm_mark_bits && adaptive);
        assert!(!read_opt);
        assert_eq!(crate::ccm::ADAPTIVE_WINDOW, 32);
        assert_eq!(crate::ccm::ADAPTIVE_CONFLICT_RATE, 0.05);
        assert_eq!(rebalance_delete_threshold, 100_000);
    }
}
