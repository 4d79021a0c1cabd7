//! TSX-like abort status codes and the paper's conflict taxonomy.
//!
//! Intel RTM reports the abort reason through `EAX` status bits
//! (conflict, capacity, explicit `XABORT`, retry-possible, debug, nested).
//! The engine mirrors that interface and — because, unlike hardware, it
//! knows both sides of every collision — additionally classifies each
//! conflict the way §2.3 of the paper does: *true* conflicts (two requests
//! to the same record), *false* conflicts from different records sharing a
//! cache line, and *false* conflicts on shared metadata.

use euno_metrics::AbortClass;

use crate::line::{LineClass, LineId};

/// Why a transaction attempt failed.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AbortCause {
    /// Another thread's footprint collided with ours (the dominant cause
    /// under contention). Carries the classification evidence.
    Conflict(ConflictInfo),
    /// Read or write set exceeded the hardware tracking capacity.
    Capacity,
    /// The program executed `XABORT imm8`.
    Explicit(u8),
    /// Interrupt / TLB shootdown / other environmental abort.
    Spurious,
    /// The subscribed fallback lock was held when the region started (or
    /// was acquired while it ran), which aborts all elided transactions.
    FallbackLocked,
}

impl AbortCause {
    /// Whether the TSX "retry" hint bit would be set: retrying may succeed.
    /// Capacity aborts of a deterministic overflow would fail again, and
    /// fallback-lock aborts should wait for the lock instead.
    pub fn may_retry(self) -> bool {
        matches!(
            self,
            AbortCause::Conflict(_) | AbortCause::Spurious | AbortCause::FallbackLocked
        )
    }

    /// The cause's bucket in the paper's taxonomy: the one mapping behind
    /// `AbortCounts`, the `ABORTS_HTM` counters, the run report's `aborts`
    /// keys and the trace's abort events.
    pub fn class(self) -> AbortClass {
        match self {
            AbortCause::Conflict(ci) => ci.kind,
            AbortCause::Capacity => AbortClass::Capacity,
            AbortCause::Explicit(_) => AbortClass::Explicit,
            AbortCause::Spurious => AbortClass::Spurious,
            AbortCause::FallbackLocked => AbortClass::FallbackLocked,
        }
    }
}

/// Derive a conflict's class — one of the five conflict classes of
/// [`AbortClass`] — from the colliding line's class and the two
/// operations' target keys (when both are known).
pub fn classify_conflict(
    line: LineClass,
    my_key: Option<u64>,
    other_key: Option<u64>,
) -> AbortClass {
    match line {
        LineClass::Record => match (my_key, other_key) {
            (Some(a), Some(b)) if a == b => AbortClass::TrueSameRecord,
            _ => AbortClass::FalseDifferentRecord,
        },
        LineClass::Metadata => AbortClass::FalseMetadata,
        LineClass::Structure => AbortClass::FalseStructure,
        LineClass::Unknown => AbortClass::UnclassifiedConflict,
    }
}

/// Evidence attached to a conflict abort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ConflictInfo {
    /// The first colliding cache line found.
    pub line: LineId,
    /// Taxonomy bucket: one of the conflict classes.
    pub kind: AbortClass,
    /// Virtual-thread id of the transaction we collided with, when known.
    pub other_thread: Option<u32>,
}

/// Outcome of running a region body: commit or abort with a cause.
pub type TxResult<R> = Result<R, AbortCause>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_same_record_is_true_conflict() {
        let k = classify_conflict(LineClass::Record, Some(42), Some(42));
        assert_eq!(k, AbortClass::TrueSameRecord);
    }

    #[test]
    fn classify_adjacent_records_is_false_conflict() {
        let k = classify_conflict(LineClass::Record, Some(42), Some(43));
        assert_eq!(k, AbortClass::FalseDifferentRecord);
        // Unknown counterpart key can't be proven equal → false conflict.
        let k = classify_conflict(LineClass::Record, Some(42), None);
        assert_eq!(k, AbortClass::FalseDifferentRecord);
    }

    #[test]
    fn classify_metadata_and_structure() {
        assert_eq!(
            classify_conflict(LineClass::Metadata, Some(1), Some(1)),
            AbortClass::FalseMetadata,
            "metadata collisions are false conflicts even on equal keys"
        );
        assert_eq!(
            classify_conflict(LineClass::Structure, None, None),
            AbortClass::FalseStructure
        );
        assert_eq!(
            classify_conflict(LineClass::Unknown, None, None),
            AbortClass::UnclassifiedConflict
        );
    }

    #[test]
    fn leaf_level_attribution() {
        // Every conflict but one on the interior index is at the leaf
        // level (the paper reports >90 % there, §2.3).
        let mut counts = crate::stats::AbortCounts::default();
        for kind in [
            AbortClass::TrueSameRecord,
            AbortClass::FalseDifferentRecord,
            AbortClass::FalseMetadata,
            AbortClass::FalseStructure,
            AbortClass::UnclassifiedConflict,
        ] {
            counts.record(AbortCause::Conflict(ConflictInfo {
                line: LineId(1),
                kind,
                other_thread: None,
            }));
        }
        assert_eq!((counts.conflicts(), counts.leaf_level_conflicts()), (5, 4));
    }

    #[test]
    fn retry_hint_bits() {
        assert!(AbortCause::Spurious.may_retry());
        assert!(!AbortCause::Capacity.may_retry());
        assert!(!AbortCause::Explicit(7).may_retry());
        let ci = ConflictInfo {
            line: LineId(1),
            kind: AbortClass::TrueSameRecord,
            other_thread: None,
        };
        assert!(AbortCause::Conflict(ci).may_retry());
    }
}
