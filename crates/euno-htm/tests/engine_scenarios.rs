//! Scenario tests for the HTM engine: TSX semantics the trees rely on.

use euno_htm::{
    AbortCause, AbortClass, Backend, CostModel, EpisodeKind, LockWord, RetryPolicy, Runtime,
    ThreadCtx, TxCell,
};

fn min_clock_step(ctxs: &mut [ThreadCtx], mut f: impl FnMut(usize, &mut ThreadCtx)) {
    let idx = (0..ctxs.len()).min_by_key(|&i| (ctxs[i].clock, i)).unwrap();
    let ctx = &mut ctxs[idx];
    f(idx, ctx);
}

/// Strong atomicity: a bare direct write (CCM-style CAS outside any
/// region) aborts an overlapping transaction that has the line in its
/// footprint.
#[test]
fn direct_writes_abort_overlapping_transactions() {
    let rt = Runtime::new_virtual();
    let mut a = rt.thread(1);
    let mut b = rt.thread(2);
    let fb = TxCell::new(0u64);
    let shared = TxCell::new(0u64);

    // Thread A's transaction reads `shared` over a long interval.
    // Thread B CASes it directly at an overlapping instant — B runs first
    // in virtual order (clock 0), so A's overlapping read must conflict.
    b.charge(50);
    assert!(shared.cas_direct(&mut b, 0, 7));

    let out = a.htm_execute(&fb, &RetryPolicy::default(), |tx| {
        tx.charge(500); // stretch the interval across B's write
        tx.read(&shared)
    });
    assert!(
        out.attempts > 1 || a.stats.aborts.total() > 0,
        "strong atomicity: the direct CAS must abort the reader"
    );
    assert_eq!(out.value, 7);
}

/// The fallback lock serializes: while one thread holds it, another
/// thread's transactions wait (virtual time) rather than run through it.
#[test]
fn fallback_lock_excludes_transactions() {
    let rt = Runtime::new_virtual();
    let mut holder = rt.thread(1);
    let mut other = rt.thread(2);
    let fb = TxCell::new(0u64);
    let cell = TxCell::new(0u64);

    // Force the holder onto the fallback path immediately.
    let zero_retry = RetryPolicy {
        conflict_retries: 0,
        capacity_retries: 0,
        explicit_retries: 0,
        spurious_retries: 0,
        fallback_lock_retries: 0,
        backoff: false,
    };
    let out = holder.htm_execute(&fb, &zero_retry, |tx| {
        if tx.is_fallback() {
            tx.charge(10_000); // a long serialized section
            tx.write(&cell, 1)?;
            Ok(())
        } else {
            tx.explicit_abort(1)
        }
    });
    assert!(out.used_fallback());

    // `other` starts at clock 0, inside the holder's virtual hold window:
    // its attempt must wait for the lock release before committing.
    let out2 = other.htm_execute(&fb, &RetryPolicy::default(), |tx| {
        let v = tx.read(&cell)?;
        tx.write(&cell, v + 1)
    });
    assert!(!out2.used_fallback());
    assert!(
        other.clock >= 10_000,
        "the transaction must serialize behind the fallback section, clock={}",
        other.clock
    );
    assert_eq!(cell.load_plain(), 2);
}

/// Capacity thresholds follow the cost model exactly.
#[test]
fn capacity_threshold_is_exact() {
    let rt = Runtime::new(
        Backend::Virtual,
        CostModel {
            write_capacity_lines: 4,
            ..CostModel::default()
        },
    );
    let mut ctx = rt.thread(1);
    let fb = TxCell::new(0u64);
    // 64-byte aligned structs: one line each.
    #[repr(align(64))]
    struct Padded(TxCell<u64>);
    let cells: Vec<Padded> = (0..8).map(|_| Padded(TxCell::new(0))).collect();

    // Writing 4 distinct lines commits…
    let out = ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
        for c in cells.iter().take(4) {
            tx.write(&c.0, 1)?;
        }
        Ok(())
    });
    assert!(!out.used_fallback());
    assert_eq!(ctx.stats.aborts[AbortClass::Capacity], 0);

    // …writing 5 aborts with Capacity and lands on the fallback.
    let out = ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
        for c in cells.iter().take(5) {
            tx.write(&c.0, 2)?;
        }
        Ok(())
    });
    assert!(out.used_fallback());
    assert!(ctx.stats.aborts[AbortClass::Capacity] >= 1);
}

/// Retry storms: once a line is written at a steady rate, later
/// overlapping transactions keep aborting until the heat decays.
#[test]
fn storm_heat_raises_abort_probability() {
    let rt = Runtime::new_virtual();
    let fb = TxCell::new(0u64);
    #[repr(align(64))]
    struct Hot(TxCell<u64>);
    let hot = Hot(TxCell::new(0));

    // Six writers hammer the hot line in min-clock order.
    let mut writers: Vec<ThreadCtx> = (0..6).map(|i| rt.thread(i)).collect();
    for _ in 0..600 {
        min_clock_step(&mut writers, |_, ctx| {
            ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
                let v = tx.read(&hot.0)?;
                tx.charge(300);
                tx.write(&hot.0, v + 1)
            });
            ctx.stats.ops += 1;
        });
    }
    let total_aborts: u64 = writers.iter().map(|c| c.stats.aborts.total()).sum();
    let total_ops: u64 = writers.iter().map(|c| c.stats.ops).sum();
    assert!(
        total_aborts as f64 / total_ops as f64 > 0.3,
        "hot-line writers must storm: {total_aborts} aborts / {total_ops} ops"
    );
    // And the updates all landed despite the storm.
    assert_eq!(hot.0.load_plain(), 600);
}

/// Virtual advisory locks compose with transactions: lock waits push the
/// clock, and work under the lock is observed by later acquirers.
#[test]
fn advisory_locks_and_transactions_compose() {
    let rt = Runtime::new_virtual();
    let fb = TxCell::new(0u64);
    let lock = LockWord::default();
    let cell = TxCell::new(0u64);
    let mut ctxs: Vec<ThreadCtx> = (0..4).map(|i| rt.thread(i)).collect();
    for round in 0..800 {
        min_clock_step(&mut ctxs, |_, ctx| {
            lock.acquire(ctx);
            ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
                tx.mark_serialized();
                let v = tx.read(&cell)?;
                tx.charge(100);
                tx.write(&cell, v + 1)
            });
            lock.release(ctx);
            ctx.stats.ops += 1;
        });
        let _ = round;
    }
    assert_eq!(cell.load_plain(), 800);
    // Lock-protected writers should see almost no HTM conflicts: the lock
    // serializes them before the region (the CCM lock-bit principle).
    let aborts: u64 = ctxs.iter().map(|c| c.stats.aborts.total()).sum();
    let waits: u64 = ctxs.iter().map(|c| c.stats.cycles_lock_wait).sum();
    assert!(waits > 0, "contended lock must produce waits");
    assert!(
        aborts < 40,
        "lock-serialized writers should rarely conflict, got {aborts}"
    );
}

/// Nested episodes are rejected loudly.
#[test]
#[should_panic(expected = "nesting")]
fn episode_nesting_panics() {
    let rt = Runtime::new_virtual();
    let mut ctx = rt.thread(1);
    ctx.episode_begin(EpisodeKind::OptimisticRead);
    ctx.episode_begin(EpisodeKind::OptimisticRead);
}

/// Explicit aborts carry their code through the cause.
#[test]
fn explicit_abort_codes_surface_in_stats() {
    let rt = Runtime::new_virtual();
    let mut ctx = rt.thread(1);
    let fb = TxCell::new(0u64);
    let mut saw_code = None;
    let mut first = true;
    ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
        if first && !tx.is_fallback() {
            first = false;
            let r: Result<(), AbortCause> = tx.explicit_abort(0x2a);
            if let Err(AbortCause::Explicit(code)) = &r {
                saw_code = Some(*code);
            }
            return r.map(|_| 0u64);
        }
        Ok(1)
    });
    assert_eq!(saw_code, Some(0x2a));
    assert_eq!(ctx.stats.aborts[AbortClass::Explicit], 1);
}

/// Two identical runtimes with identical seeds produce bit-identical
/// executions — the aligned-allocation determinism guarantee.
#[test]
fn fresh_runtimes_are_reproducible() {
    fn run() -> (u64, u64, u64) {
        let rt = Runtime::new_virtual();
        let fb = TxCell::new(0u64);
        #[repr(align(64))]
        struct Padded(TxCell<u64>);
        let cells: Vec<Padded> = (0..4).map(|_| Padded(TxCell::new(0))).collect();
        let mut ctxs: Vec<ThreadCtx> = (0..5).map(|i| rt.thread(i * 31)).collect();
        for _ in 0..400 {
            min_clock_step(&mut ctxs, |_, ctx| {
                let i = (euno_rng::Rng::gen_range(ctx.rng(), 0..4usize)) % 4;
                ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
                    let v = tx.read(&cells[i].0)?;
                    tx.write(&cells[i].0, v + 1)
                });
                ctx.stats.ops += 1;
            });
        }
        let clock_sum: u64 = ctxs.iter().map(|c| c.clock).sum();
        let aborts: u64 = ctxs.iter().map(|c| c.stats.aborts.total()).sum();
        let values: u64 = cells.iter().map(|c| c.0.load_plain()).sum();
        (clock_sum, aborts, values)
    }
    assert_eq!(run(), run());
}
