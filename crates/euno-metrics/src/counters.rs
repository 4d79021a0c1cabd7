//! The fixed metric vocabulary: counters, gauges, the abort taxonomy and
//! the [`Counts`] value every report reads its counts from.
//!
//! Names returned by [`Counter::name`] / [`Gauge::name`] /
//! [`AbortClass::name`] are *canonical*: the run-report sections, the
//! JSONL exporter, the trace exporters and the fig14 CSV all spell them
//! exactly this way, which is what kills the naming drift the old
//! hand-rolled observer counters had accumulated.

/// A closed vocabulary: a fieldless enum with a dense `index()`, its
/// variants in index order (`ALL`) and one canonical `name()` each.
/// `euno-trace` builds its episode and operation kinds with it too.
#[macro_export]
macro_rules! define_metric_enum {
    ($(#[$meta:meta])* $enum_name:ident {
        $( $(#[$vmeta:meta])* $variant:ident => $name:literal, )*
    }) => {
        $(#[$meta])*
        #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
        #[repr(u8)]
        pub enum $enum_name { $( $(#[$vmeta])* $variant, )* }

        impl $enum_name {
            /// Number of variants (array dimension for shards/snapshots).
            pub const COUNT: usize = [$( $enum_name::$variant, )*].len();
            /// Every variant, in index order.
            pub const ALL: [$enum_name; Self::COUNT] = [$( $enum_name::$variant, )*];

            /// Canonical metric name (the one spelling used everywhere).
            pub const fn name(self) -> &'static str {
                match self { $( $enum_name::$variant => $name, )* }
            }

            /// Dense index into shard / snapshot arrays.
            #[inline]
            pub const fn index(self) -> usize {
                self as usize
            }
        }
    };
}

define_metric_enum! {
    /// Monotone event counters, sharded per thread.
    ///
    /// The first block is what the run report's `total_ops` and `stages`
    /// section serialize (same names since schema v1; fallback executions
    /// are not commits). `Ops` counts completed top-level operations: the
    /// driver that runs one bumps it once, and the virtual scheduler sees
    /// an op end through it. The remaining blocks are finer-grained views
    /// that only surface in the time-series section and the fig14
    /// timeline.
    Counter {
        Ops => "ops",
        Attempts => "attempts",
        Commits => "commits",
        Fallbacks => "fallbacks",
        Backoffs => "backoffs",
        CcmBypassFlips => "ccm_bypass_flips",
        // Aborts by cause, in `AbortClass` order (see `ABORTS_HTM`).
        AbortsHtmTrueSameRecord => "aborts_htm_true_same_record",
        AbortsHtmFalseDifferentRecord => "aborts_htm_false_different_record",
        AbortsHtmFalseMetadata => "aborts_htm_false_metadata",
        AbortsHtmFalseStructure => "aborts_htm_false_structure",
        AbortsHtmUnclassified => "aborts_htm_unclassified",
        AbortsHtmCapacity => "aborts_htm_capacity",
        AbortsHtmExplicit => "aborts_htm_explicit",
        AbortsHtmSpurious => "aborts_htm_spurious",
        AbortsHtmFallbackLocked => "aborts_htm_fallback_locked",
        // Held names: the executor's middle path is gone and nothing
        // bumps these ten, but `benchmark/src/counters.rs` — frozen —
        // imports `Counter::Middles` and `ABORTS_MIDDLE`, so they stay
        // exported (and read 0) until a benchmark PR drops
        // `htm.middles_per_op`. `scripts/check.sh` (`held-names`) fails if
        // anything else under `crates/*/src` names them, or if they are
        // still here once the benchmark no longer does.
        Middles => "middles",
        AbortsMiddleTrueSameRecord => "aborts_middle_true_same_record",
        AbortsMiddleFalseDifferentRecord => "aborts_middle_false_different_record",
        AbortsMiddleFalseMetadata => "aborts_middle_false_metadata",
        AbortsMiddleFalseStructure => "aborts_middle_false_structure",
        AbortsMiddleUnclassified => "aborts_middle_unclassified",
        AbortsMiddleCapacity => "aborts_middle_capacity",
        AbortsMiddleExplicit => "aborts_middle_explicit",
        AbortsMiddleSpurious => "aborts_middle_spurious",
        AbortsMiddleFallbackLocked => "aborts_middle_fallback_locked",
        // TL2 version-lock table (concurrent-mode STM commit path).
        Tl2LockAcquires => "tl2_lock_acquires",
        Tl2LockFails => "tl2_lock_fails",
        Tl2ValidationFails => "tl2_validation_fails",
        Tl2Extensions => "tl2_extensions",
        Tl2ReadWaits => "tl2_read_waits",
        // Every blocking `LockWord` acquire (`try_acquire` is not one).
        AdvisoryAcquires => "advisory_lock_acquires",
        AdvisoryWaits => "advisory_lock_waits",
        // Directional CCM flips (the sum equals `ccm_bypass_flips`).
        CcmFlipsToProtect => "ccm_flips_to_protect",
        CcmFlipsToBypass => "ccm_flips_to_bypass",
        // Deferred re-balancing (§4.2.4): bounded slices of the armed leaf
        // sweep and the merges they performed. `sweep_merges` is what
        // feeds the epoch collector, so it explains `epoch_reclaimed`.
        SweepSlices => "sweep_slices",
        SweepMerges => "sweep_merges",
        // Range scans: leaf steps that spent their optimistic try budget
        // and read the leaf under its split lock in an HTM region. The
        // optimistic re-tries themselves count in `optimistic_retries`.
        ScanLockedSteps => "scan_locked_steps",
        // Leaves a point operation split because they kept conflicting
        // while protected and held more records than segments (the
        // `read_opt` contention split, `euno-core`'s `traverse`).
        ContentionSplits => "contention_splits",
        // Leaf hints (the first rung of the Euno-B+Tree's upper stage).
        // Every probe counts in exactly one of the three: answered from
        // the thread's own table; an entry of the key's block at or below
        // the key turned away because the tree's retirement generation or
        // the leaf's fence had moved; no such entry in the table.
        LeafHintHits => "leaf_hint_hits",
        LeafHintStale => "leaf_hint_stale",
        LeafHintMiss => "leaf_hint_miss",
        // Subtree hints (the second rung): leaf-hint misses whose walk
        // started at a remembered index node and ended in the key's leaf,
        // and such walks that came back without proof the key was still
        // the node's and were repeated from the root. Root walks are
        // locates − leaf hits − subtree hits.
        SubtreeHintHits => "subtree_hint_hits",
        SubtreeHintUnusable => "subtree_hint_unusable",
        // euno-serve front-end: request/batch lifecycle. These live in the
        // *server's* registry (one per `EunoServer`), not the per-shard
        // tree runtimes, so queue dynamics are visible in one time series
        // regardless of how many shards the keyspace is split across.
        ServeEnqueued => "serve_enqueued",
        ServeCompleted => "serve_completed",
        ServeShed => "serve_shed",
        ServeBatches => "serve_batches",
        ServeBatchedOps => "serve_batched_ops",
        ServeSingleOps => "serve_single_ops",
        ServeBatchBails => "serve_batch_bails",
    }
}

define_metric_enum! {
    /// Last-write-wins gauges (absolute levels, not event counts). Set by
    /// the harness right before each sample from the epoch collector.
    Gauge {
        EpochRetiredPending => "epoch_retired_pending",
        EpochRetiredPendingBytes => "epoch_retired_pending_bytes",
        EpochReclaimed => "epoch_reclaimed",
    }
}

define_metric_enum! {
    /// Why an HTM attempt aborted: the paper's taxonomy (§2.3, Figures 2
    /// and 9) — five conflict classes (`euno_htm::classify_conflict`),
    /// then the other causes. Each name is the class's key in the run
    /// report's `aborts` section and its `cause` in the trace exporters;
    /// [`ABORTS_HTM`] holds its shard counter at [`AbortClass::index`].
    AbortClass {
        TrueSameRecord => "true_same_record",
        FalseDifferentRecord => "false_different_record",
        FalseMetadata => "false_metadata",
        FalseStructure => "false_structure",
        UnclassifiedConflict => "unclassified_conflict",
        Capacity => "capacity",
        Explicit => "explicit",
        Spurious => "spurious",
        FallbackLocked => "fallback_locked",
    }
}

impl AbortClass {
    /// A data conflict: the abort then names the colliding line.
    pub const fn is_conflict(self) -> bool {
        self.index() <= AbortClass::UnclassifiedConflict.index()
    }
}

/// Number of abort classes (the paper's taxonomy, Figure 2).
pub const ABORT_BUCKETS: usize = AbortClass::COUNT;

/// The abort counters, indexed by [`AbortClass::index`].
pub const ABORTS_HTM: [Counter; ABORT_BUCKETS] = [
    Counter::AbortsHtmTrueSameRecord,
    Counter::AbortsHtmFalseDifferentRecord,
    Counter::AbortsHtmFalseMetadata,
    Counter::AbortsHtmFalseStructure,
    Counter::AbortsHtmUnclassified,
    Counter::AbortsHtmCapacity,
    Counter::AbortsHtmExplicit,
    Counter::AbortsHtmSpurious,
    Counter::AbortsHtmFallbackLocked,
];

/// Held for the frozen benchmark (see the held-names block in [`Counter`]).
pub const ABORTS_MIDDLE: [Counter; ABORT_BUCKETS] = [
    Counter::AbortsMiddleTrueSameRecord,
    Counter::AbortsMiddleFalseDifferentRecord,
    Counter::AbortsMiddleFalseMetadata,
    Counter::AbortsMiddleFalseStructure,
    Counter::AbortsMiddleUnclassified,
    Counter::AbortsMiddleCapacity,
    Counter::AbortsMiddleExplicit,
    Counter::AbortsMiddleSpurious,
    Counter::AbortsMiddleFallbackLocked,
];

/// Counter values summed over one or more shards — a thread's, a run's,
/// a registry's. Every count a run reports is read from one of these:
/// indexed by [`Counter`], and by [`AbortClass`] for that class's aborts
/// (its [`ABORTS_HTM`] counter).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Counts(pub(crate) [u64; Counter::COUNT]);

impl Default for Counts {
    fn default() -> Self {
        Counts([0; Counter::COUNT])
    }
}

impl Counts {
    pub fn merge(&mut self, other: &Counts) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }

    /// What was counted after `earlier`, a reading of the same shards
    /// (counters only grow).
    pub fn since(&self, earlier: &Counts) -> Counts {
        Counts(std::array::from_fn(|i| self.0[i] - earlier.0[i]))
    }

    /// Aborts of every class.
    pub fn aborts(&self) -> u64 {
        AbortClass::ALL.iter().map(|&c| self[c]).sum()
    }

    /// All conflict-caused aborts (the taxonomy of Figure 2).
    pub fn conflicts(&self) -> u64 {
        AbortClass::ALL
            .iter()
            .filter(|c| c.is_conflict())
            .map(|&c| self[c])
            .sum()
    }

    /// Conflicts attributable to the leaf level (record + metadata), as in
    /// the ">90 % of conflicts occur in the leaf level" measurement.
    pub fn leaf_level_conflicts(&self) -> u64 {
        self.conflicts() - self[AbortClass::FalseStructure]
    }
}

impl std::ops::Index<Counter> for Counts {
    type Output = u64;
    fn index(&self, c: Counter) -> &u64 {
        &self.0[c.index()]
    }
}

impl std::ops::IndexMut<Counter> for Counts {
    fn index_mut(&mut self, c: Counter) -> &mut u64 {
        &mut self.0[c.index()]
    }
}

impl std::ops::Index<AbortClass> for Counts {
    type Output = u64;
    fn index(&self, class: AbortClass) -> &u64 {
        &self[ABORTS_HTM[class.index()]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_names_are_unique_and_nonempty() {
        let mut seen = std::collections::HashSet::new();
        for c in Counter::ALL {
            assert!(!c.name().is_empty());
            assert!(seen.insert(c.name()), "duplicate counter name {}", c.name());
        }
        for g in Gauge::ALL {
            assert!(seen.insert(g.name()), "gauge name collides: {}", g.name());
        }
    }

    #[test]
    fn indices_are_dense() {
        for (i, c) in Counter::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        for (i, g) in Gauge::ALL.iter().enumerate() {
            assert_eq!(g.index(), i);
        }
    }

    #[test]
    fn counts_index_by_counter_and_abort_class() {
        let mut c = Counts::default();
        c[Counter::Commits] = 7;
        c[Counter::AbortsHtmTrueSameRecord] = 1;
        c[Counter::AbortsHtmFalseDifferentRecord] = 2;
        c[Counter::AbortsHtmFalseMetadata] = 1;
        c[Counter::AbortsHtmFalseStructure] = 1;
        c[Counter::AbortsHtmCapacity] = 4;
        assert_eq!(c[AbortClass::Capacity], 4);
        assert_eq!(c.conflicts(), 5);
        assert_eq!(c.leaf_level_conflicts(), 4);
        assert_eq!(c.aborts(), 9);
        let mut acc = Counts::default();
        acc.merge(&c);
        acc.merge(&c);
        assert_eq!((acc[Counter::Commits], acc.aborts()), (14, 18));
    }
}
