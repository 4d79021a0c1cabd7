//! Property tests for the decide stage: the per-cause retry budgets and
//! the escalation schedule [`RetryPolicy::decide`] builds on them.
//!
//! Offline environment — no proptest; each property is driven by a seeded
//! [`SmallRng`] sweep over randomized budgets and abort sequences, so
//! failures reproduce deterministically.

use euno_htm::{AbortCause, AbortClass, ConflictInfo, Decision, LineId, RetryCounts, RetryPolicy};
use euno_rng::SmallRng;

fn conflict() -> AbortCause {
    AbortCause::Conflict(ConflictInfo {
        line: LineId(0),
        kind: AbortClass::UnclassifiedConflict,
        other_thread: None,
    })
}

/// All five causes, for random sequencing.
fn cause(i: u64) -> AbortCause {
    match i % 5 {
        0 => conflict(),
        1 => AbortCause::Capacity,
        2 => AbortCause::Explicit(7),
        3 => AbortCause::Spurious,
        _ => AbortCause::FallbackLocked,
    }
}

fn random_policy(rng: &mut SmallRng) -> RetryPolicy {
    RetryPolicy {
        conflict_retries: rng.gen_range(0..20u32),
        capacity_retries: rng.gen_range(0..4u32),
        explicit_retries: rng.gen_range(0..3u32),
        spurious_retries: rng.gen_range(0..8u32),
        fallback_lock_retries: rng.gen_range(0..6u32),
        backoff: rng.gen_range(0..2u32) == 0,
    }
}

fn budget_for(p: &RetryPolicy, c: AbortCause) -> u32 {
    match c {
        AbortCause::Conflict(_) => p.conflict_retries,
        AbortCause::Capacity => p.capacity_retries,
        AbortCause::Explicit(_) => p.explicit_retries,
        AbortCause::Spurious => p.spurious_retries,
        AbortCause::FallbackLocked => p.fallback_lock_retries,
    }
}

/// A budget of N means exactly N retries: the policy is not exhausted at N
/// aborts of one cause and is exhausted at N + 1, for every cause, under
/// randomized budgets.
#[test]
fn budget_exactly_exhausted_at_boundary() {
    let mut rng = SmallRng::seed_from_u64(0xB0D1);
    for case in 0..200u64 {
        let p = random_policy(&mut rng);
        for ci in 0..5u64 {
            let c = cause(ci);
            let budget = budget_for(&p, c);
            let mut counts = RetryCounts::default();
            for _ in 0..budget {
                counts.bump(c);
            }
            assert!(
                !p.exhausted(&counts),
                "case {case}: within budget must not exhaust ({c:?}, {counts:?})"
            );
            assert_eq!(
                p.decide(&counts),
                Decision::Retry { backoff: p.backoff },
                "case {case}: decide must retry exactly at the budget"
            );
            counts.bump(c);
            assert!(
                p.exhausted(&counts),
                "case {case}: budget + 1 must exhaust ({c:?})"
            );
            assert_eq!(p.decide(&counts), Decision::Fallback);
        }
    }
}

/// The budgets are independent: spending the whole fallback-lock budget
/// never consumes conflict headroom, and vice versa — only the cause whose
/// own tally crosses its own budget flips the verdict.
#[test]
fn fallback_locked_and_conflict_budgets_are_independent() {
    let mut rng = SmallRng::seed_from_u64(0xFBC0);
    for _ in 0..200 {
        let p = random_policy(&mut rng);
        let mut counts = RetryCounts::default();
        for _ in 0..p.fallback_lock_retries {
            counts.bump(AbortCause::FallbackLocked);
        }
        for _ in 0..p.conflict_retries {
            counts.bump(conflict());
        }
        // Both tallies sit exactly at their budgets: still not exhausted,
        // even though the combined total may dwarf either budget alone.
        assert!(!p.exhausted(&counts), "at-budget on two causes: {counts:?}");
        let mut over_fb = counts;
        over_fb.bump(AbortCause::FallbackLocked);
        assert!(p.exhausted(&over_fb));
        let mut over_cf = counts;
        over_cf.bump(conflict());
        assert!(p.exhausted(&over_cf));
    }
}

/// Randomized abort sequences: `exhausted` is exactly the per-cause
/// comparison (no hidden coupling), and it is monotone — once exhausted,
/// further aborts never un-exhaust it.
#[test]
fn exhaustion_matches_model_and_is_monotone() {
    let mut rng = SmallRng::seed_from_u64(0x5E0);
    for _ in 0..300 {
        let p = random_policy(&mut rng);
        let mut counts = RetryCounts::default();
        let mut was_exhausted = false;
        for _ in 0..rng.gen_range(1..40u32) {
            counts.bump(cause(rng.gen_range(0..5u64)));
            let model = counts.conflict > p.conflict_retries
                || counts.capacity > p.capacity_retries
                || counts.explicit > p.explicit_retries
                || counts.spurious > p.spurious_retries
                || counts.fallback_locked > p.fallback_lock_retries;
            assert_eq!(p.exhausted(&counts), model);
            if was_exhausted {
                assert!(p.exhausted(&counts), "exhaustion must be monotone");
            }
            was_exhausted = p.exhausted(&counts);
        }
    }
}

/// The backoff exponent (`total_attempted`) grows by exactly one per abort
/// regardless of cause, so the executor's exponential backoff doubles per
/// failed attempt, never jumps.
#[test]
fn backoff_exponent_grows_one_per_abort() {
    let mut rng = SmallRng::seed_from_u64(0xBAC0FF);
    for _ in 0..200 {
        let mut counts = RetryCounts::default();
        let n = rng.gen_range(1..64u32);
        for i in 0..n {
            assert_eq!(counts.total_attempted(), i);
            counts.bump(cause(rng.gen_range(0..5u64)));
        }
        assert_eq!(counts.total_attempted(), n);
        assert_eq!(
            counts.total_attempted(),
            counts.conflict
                + counts.capacity
                + counts.explicit
                + counts.spurious
                + counts.fallback_locked
        );
    }
}

/// The escalation schedule, driven the way the executor drives it (bump
/// the cause, ask): over randomized budgets and abort sequences the
/// verdict is `Retry` strictly before the first exhausted budget and
/// `Fallback` at it and ever after, and the escalating abort is the one
/// after the last in-budget abort — the executor's `attempts` at
/// escalation is the spent budget plus one.
#[test]
fn escalation_schedule_is_retry_then_fallback_for_good() {
    let mut rng = SmallRng::seed_from_u64(0xE5CA);
    for case in 0..300u64 {
        let p = random_policy(&mut rng);
        let mut counts = RetryCounts::default();
        let mut spent = 0u32;
        loop {
            counts.bump(cause(rng.gen_range(0..5u64)));
            match p.decide(&counts) {
                Decision::Retry { backoff } => {
                    assert_eq!(backoff, p.backoff);
                    assert!(!p.exhausted(&counts));
                    spent += 1;
                }
                Decision::Fallback => break,
            }
        }
        assert_eq!(
            counts.total_attempted(),
            spent + 1,
            "case {case}: escalation must come one abort past the spent budget"
        );
        for _ in 0..8 {
            counts.bump(cause(rng.gen_range(0..5u64)));
            assert_eq!(
                p.decide(&counts),
                Decision::Fallback,
                "case {case}: verdict went back to speculation at {counts:?}"
            );
        }
    }
}
