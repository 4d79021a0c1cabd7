//! Debug-only ordering probes.
//!
//! The seqno-publication discipline (bump the version *before* any record
//! movement or unlink becomes reachable) is unobservable in a
//! single-threaded test: by the time the structural operation returns,
//! both orderings produce identical state. These probes make the write
//! order itself assertable — structural code drops named marks at the
//! bump and at the first record movement, and regression tests check the
//! sequence. A test can also *interpose*: [`once_at`] arms a one-shot
//! action that runs the next time this thread passes a named [`point`],
//! which is how `tests/upper_walk.rs` lands a split, a reorganization or
//! a merge between an operation's upper stage and its lower region.
//! And a test can *mutate*: [`mutate`] switches off one named check on this
//! thread ([`mutated`] is asked where the check sits), so the test that
//! exists for that check can show it fails without it.
//! Everything compiles away in release builds, so the probes cost nothing
//! on benchmark paths.

#[cfg(debug_assertions)]
mod imp {
    use std::cell::{Cell, RefCell};

    type Armed = Option<(&'static str, Box<dyn FnOnce()>)>;

    thread_local! {
        static MARKS: RefCell<Vec<&'static str>> = const { RefCell::new(Vec::new()) };
        static ARMED: RefCell<Armed> = const { RefCell::new(None) };
        static MUTATION: Cell<Option<&'static str>> = const { Cell::new(None) };
    }

    /// Switch the check named `tag` off on this thread (`None`: all on).
    pub fn mutate(tag: Option<&'static str>) {
        MUTATION.with(|m| m.set(tag));
    }

    /// Whether the check named `tag` is switched off on this thread.
    pub fn mutated(tag: &'static str) -> bool {
        MUTATION.with(|m| m.get() == Some(tag))
    }

    pub fn mark(tag: &'static str) {
        MARKS.with(|m| m.borrow_mut().push(tag));
    }

    /// A place a test may interpose at. Records nothing (points sit on
    /// per-operation paths); runs the action armed for `tag`, if any, with
    /// no probe state borrowed — the action is free to run tree operations.
    pub fn point(tag: &'static str) {
        let action = ARMED.with(|a| {
            let mut a = a.borrow_mut();
            a.take_if(|(t, _)| *t == tag)
        });
        if let Some((_, run)) = action {
            run();
        }
    }

    /// Arm `run` to execute once, the next time this thread passes
    /// [`point`]`(tag)`. Replaces any action armed before.
    pub fn once_at(tag: &'static str, run: impl FnOnce() + 'static) {
        ARMED.with(|a| *a.borrow_mut() = Some((tag, Box::new(run))));
    }

    pub fn take() -> Vec<&'static str> {
        MARKS.with(|m| std::mem::take(&mut *m.borrow_mut()))
    }
}

#[cfg(debug_assertions)]
pub use imp::{mark, mutate, mutated, once_at, point, take};

#[cfg(not(debug_assertions))]
pub fn mutate(_tag: Option<&'static str>) {}

#[cfg(not(debug_assertions))]
#[inline(always)]
pub fn mutated(_tag: &'static str) -> bool {
    false
}

#[cfg(not(debug_assertions))]
#[inline(always)]
pub fn mark(_tag: &'static str) {}

#[cfg(not(debug_assertions))]
#[inline(always)]
pub fn point(_tag: &'static str) {}

#[cfg(not(debug_assertions))]
pub fn once_at(_tag: &'static str, _run: impl FnOnce() + 'static) {}

#[cfg(not(debug_assertions))]
pub fn take() -> Vec<&'static str> {
    Vec::new()
}

/// Index of `tag`'s first occurrence in a probe trace, panicking with a
/// readable message when absent (test helper).
pub fn index_of(trace: &[&'static str], tag: &str) -> usize {
    trace
        .iter()
        .position(|&t| t == tag)
        .unwrap_or_else(|| panic!("probe mark {tag:?} missing from trace {trace:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "probes are debug-only")]
    fn marks_record_in_order_and_drain() {
        take(); // isolate from marks left by other code on this thread
        mark("a");
        mark("b");
        let t = take();
        assert_eq!(t, vec!["a", "b"]);
        assert_eq!(index_of(&t, "b"), 1);
        assert!(take().is_empty(), "take drains");
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "probes are debug-only")]
    fn armed_action_runs_once_at_its_point_only() {
        take();
        once_at("here", || mark("ran"));
        point("elsewhere");
        assert!(take().is_empty());
        point("here");
        point("here");
        assert_eq!(take(), vec!["ran"]);
    }
}
