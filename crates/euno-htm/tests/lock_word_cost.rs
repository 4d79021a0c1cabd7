//! What an advisory lock costs on the virtual clock, as exact equalities:
//! the clock, `stats.cas_ops`, `stats.cycles_lock_wait`, the
//! `AdvisoryAcquires` / `AdvisoryWaits` counters and the trace events of
//! each acquire, try and release. Every figure's lock convoys are built
//! from these charges, so a lock that takes one CAS more or waits one
//! cycle longer fails here before it moves a recorded row.
//!
//! Each case runs on a fresh virtual runtime, with every lock word on a
//! cache line of its own.

use euno_htm::euno_metrics::Counter;
use euno_htm::{EventKind, LockWord, Runtime, ThreadCtx, TraceBuf};

/// A lock word on a line of its own.
#[repr(align(64))]
struct Own<T>(T);

/// One step's deltas: clock, CAS count, waited cycles, then the two
/// advisory-lock counters.
type Cost = [u64; 5];

/// What the step traced: `(acquired, wait cycles)` per event, `false` for
/// a release. Every event names the lock word's address.
type Trace = Vec<(bool, u64)>;

/// Run one step on `ctx` and report what it cost and traced.
fn step(ctx: &mut ThreadCtx, word: u64, op: impl FnOnce(&mut ThreadCtx)) -> (Cost, Trace) {
    let counters = |ctx: &ThreadCtx| {
        [
            ctx.clock,
            ctx.stats.cas_ops,
            ctx.stats.cycles_lock_wait,
            ctx.metric(Counter::AdvisoryAcquires),
            ctx.metric(Counter::AdvisoryWaits),
        ]
    };
    let before = counters(ctx);
    ctx.set_tracer(Box::new(TraceBuf::new(0, 16)));
    op(ctx);
    let events = ctx.take_tracer().unwrap().drain_ordered();
    let after = counters(ctx);
    let trace = events
        .iter()
        .map(|e| match e.kind {
            EventKind::LockAcquire { addr, wait_cycles } => {
                assert_eq!(addr, word);
                (true, wait_cycles)
            }
            EventKind::LockRelease { addr } => {
                assert_eq!(addr, word);
                (false, 0)
            }
            other => panic!("unexpected event {other:?}"),
        })
        .collect();
    (std::array::from_fn(|i| after[i] - before[i]), trace)
}

fn addr<T>(word: &T) -> u64 {
    word as *const T as u64
}

#[test]
fn an_uncontended_split_lock_is_one_cas_and_a_store() {
    let rt = Runtime::new_virtual();
    let mut a = rt.thread(0);
    let lock = Box::new(Own(LockWord::default()));
    let at = addr(&lock.0);
    assert_eq!(
        step(&mut a, at, |c| lock.0.acquire(c)),
        ([29, 1, 0, 1, 0], vec![(true, 0)])
    );
    assert_eq!(
        step(&mut a, at, |c| lock.0.release(c)),
        ([3, 0, 0, 0, 0], vec![(false, 0)])
    );
    assert_eq!(lock.0.held_plain(), 0);
}

#[test]
fn a_contended_split_lock_waits_out_the_holder() {
    let rt = Runtime::new_virtual();
    let (mut a, mut b) = (rt.thread(0), rt.thread(1));
    let lock = Box::new(Own(LockWord::default()));
    let at = addr(&lock.0);
    lock.0.acquire(&mut a);
    a.charge(1_000);
    lock.0.release(&mut a);
    // b starts at clock 0, inside a's hold.
    assert_eq!(
        step(&mut b, at, |c| lock.0.acquire(c)),
        ([1058, 2, 1003, 1, 1], vec![(true, 1003)])
    );
    assert_eq!(
        step(&mut b, at, |c| lock.0.release(c)),
        ([3, 0, 0, 0, 0], vec![(false, 0)])
    );
}

#[test]
fn a_sweep_token_try_costs_one_cas_won_or_lost() {
    let rt = Runtime::new_virtual();
    let (mut a, mut b) = (rt.thread(0), rt.thread(1));
    let token = Box::new(Own(LockWord::default()));
    let at = addr(&token.0);
    let mut won = false;
    assert_eq!(
        step(&mut a, at, |c| won = token.0.try_acquire(c)),
        ([29, 1, 0, 0, 0], vec![(true, 0)])
    );
    assert!(won);
    a.charge(5_000);
    token.0.release(&mut a);
    assert_eq!(
        step(&mut b, at, |c| won = token.0.try_acquire(c)),
        ([26, 1, 0, 0, 0], vec![])
    );
    assert!(!won);
    assert_eq!(token.0.held_plain(), 0);
}

#[test]
fn two_bits_of_one_word_are_two_locks() {
    let rt = Runtime::new_virtual();
    let (mut a, mut b) = (rt.thread(0), rt.thread(1));
    let word = Box::new(Own(LockWord::default()));
    let at = addr(&word.0);
    assert_eq!(
        step(&mut a, at, |c| word.0.acquire_bit(c, 3)),
        ([29, 1, 0, 1, 0], vec![(true, 0)])
    );
    // b takes bit 5 while a still holds bit 3: neither waits.
    assert_eq!(
        step(&mut b, at, |c| word.0.acquire_bit(c, 5)),
        ([29, 1, 0, 1, 0], vec![(true, 0)])
    );
    assert_eq!(word.0.held_plain(), 1 << 3 | 1 << 5);
    assert_eq!(
        step(&mut b, at, |c| word.0.release_bit(c, 5)),
        ([29, 1, 0, 0, 0], vec![(false, 0)])
    );
    assert_eq!(
        step(&mut a, at, |c| word.0.release_bit(c, 3)),
        ([29, 1, 0, 0, 0], vec![(false, 0)])
    );
    assert_eq!(word.0.held_plain(), 0);
}

#[test]
fn a_contended_bit_waits_out_the_holder() {
    let rt = Runtime::new_virtual();
    let (mut a, mut b) = (rt.thread(0), rt.thread(1));
    let word = Box::new(Own(LockWord::default()));
    let at = addr(&word.0);
    word.0.acquire_bit(&mut a, 7);
    a.charge(5_000);
    word.0.release_bit(&mut a, 7);
    assert_eq!(
        step(&mut b, at, |c| word.0.acquire_bit(c, 7)),
        ([5058, 2, 5003, 1, 1], vec![(true, 5003)])
    );
    assert_eq!(
        step(&mut b, at, |c| word.0.release_bit(c, 7)),
        ([29, 1, 0, 0, 0], vec![(false, 0)])
    );
    assert_eq!(word.0.held_plain(), 0);
}
