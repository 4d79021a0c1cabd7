//! DBX-style retry policy for HTM regions.
//!
//! RTM gives no forward-progress guarantee, so every region needs a
//! lock-based fallback (§2.1). Following DBX and DrTM (cited in §4.2.1:
//! "We set different thresholds for different types of aborts"), the policy
//! keeps an independent budget per abort cause: conflicts are worth many
//! retries (the other transaction will finish), capacity aborts almost none
//! (the footprint won't shrink), explicit aborts none by default.

use euno_metrics::AbortClass;

use crate::abort::AbortCause;

/// Per-cause retry budgets. A region falls back to the serialized path as
/// soon as any cause exceeds its budget.
#[derive(Clone, Debug)]
pub struct RetryPolicy {
    /// Budget for footprint-conflict aborts.
    pub conflict_retries: u32,
    /// Budget for capacity aborts (deterministic overflow ⇒ keep tiny).
    pub capacity_retries: u32,
    /// Budget for explicit `XABORT`s.
    pub explicit_retries: u32,
    /// Budget for spurious/environmental aborts.
    pub spurious_retries: u32,
    /// Budget for aborts caused by the fallback lock being held.
    pub fallback_lock_retries: u32,
    /// Exponential backoff between retries.
    pub backoff: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::DBX
    }
}

/// Verdict of the decide stage after a classified abort.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Decision {
    /// Try the region again, optionally after exponential backoff.
    Retry { backoff: bool },
    /// Give up on speculation and take the serialized fallback path.
    Fallback,
}

impl RetryPolicy {
    /// The paper's configuration (§4.2.1): DBX per-cause budgets with
    /// exponential backoff. Every tree runs its regions under this value.
    pub const DBX: RetryPolicy = RetryPolicy {
        conflict_retries: 10,
        capacity_retries: 1,
        explicit_retries: 0,
        spurious_retries: 4,
        fallback_lock_retries: 2,
        backoff: true,
    };

    /// The decide stage, called after every abort once `counts` was
    /// bumped with its cause: speculate while no per-cause budget is
    /// exhausted, then serialize.
    pub fn decide(&self, counts: &RetryCounts) -> Decision {
        if self.exhausted(counts) {
            Decision::Fallback
        } else {
            Decision::Retry {
                backoff: self.backoff,
            }
        }
    }

    /// Whether the accumulated aborts exhaust any budget.
    pub fn exhausted(&self, counts: &RetryCounts) -> bool {
        counts.conflict > self.conflict_retries
            || counts.capacity > self.capacity_retries
            || counts.explicit > self.explicit_retries
            || counts.spurious > self.spurious_retries
            || counts.fallback_locked > self.fallback_lock_retries
    }
}

/// Abort tallies accumulated by one region execution.
#[derive(Clone, Copy, Debug, Default)]
pub struct RetryCounts {
    pub conflict: u32,
    pub capacity: u32,
    pub explicit: u32,
    pub spurious: u32,
    pub fallback_locked: u32,
}

impl RetryCounts {
    pub fn bump(&mut self, cause: AbortCause) {
        match cause.class() {
            AbortClass::Capacity => self.capacity += 1,
            AbortClass::Explicit => self.explicit += 1,
            AbortClass::Spurious => self.spurious += 1,
            AbortClass::FallbackLocked => self.fallback_locked += 1,
            class => {
                debug_assert!(class.is_conflict());
                self.conflict += 1;
            }
        }
    }

    /// Total failed attempts so far (backoff exponent).
    pub fn total_attempted(&self) -> u32 {
        self.conflict + self.capacity + self.explicit + self.spurious + self.fallback_locked
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::abort::ConflictInfo;
    use crate::line::LineId;

    fn conflict() -> AbortCause {
        AbortCause::Conflict(ConflictInfo {
            line: LineId(0),
            kind: AbortClass::UnclassifiedConflict,
            other_thread: None,
        })
    }

    #[test]
    fn budgets_are_per_cause() {
        let p = RetryPolicy::default();
        let mut c = RetryCounts::default();
        for _ in 0..p.conflict_retries {
            c.bump(conflict());
            assert!(!p.exhausted(&c), "within budget at {c:?}");
        }
        c.bump(conflict());
        assert!(p.exhausted(&c));
    }

    #[test]
    fn capacity_budget_is_small() {
        let p = RetryPolicy::default();
        let mut c = RetryCounts::default();
        c.bump(AbortCause::Capacity);
        assert!(!p.exhausted(&c));
        c.bump(AbortCause::Capacity);
        assert!(p.exhausted(&c));
    }

    #[test]
    fn explicit_aborts_never_retry_by_default() {
        let p = RetryPolicy::default();
        let mut c = RetryCounts::default();
        c.bump(AbortCause::Explicit(3));
        assert!(p.exhausted(&c));
    }

    #[test]
    fn total_counts_every_cause() {
        let mut c = RetryCounts::default();
        c.bump(conflict());
        c.bump(AbortCause::Spurious);
        c.bump(AbortCause::FallbackLocked);
        assert_eq!(c.total_attempted(), 3);
    }
}
