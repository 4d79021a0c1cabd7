//! Wall-clock behaviour of the TL2-style concurrent backend: scaling on
//! disjoint keys (the property the retired global commit lock could not
//! provide), deadlock-freedom of the sorted-slot commit under seeded
//! permutations, and linearizability-flavoured invariant checks.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Instant;

use euno_htm::{RetryPolicy, Runtime, TxCell};

#[repr(align(64))]
struct Padded(TxCell);

fn cells(n: usize) -> Vec<Padded> {
    (0..n).map(|_| Padded(TxCell::new(0))).collect()
}

/// Run `threads` workers, each doing `per_thread` transactional RMWs of
/// its own private line, and return the wall time of the measured phase.
fn disjoint_run(rt: &std::sync::Arc<Runtime>, threads: usize, per_thread: u64) -> f64 {
    let arena = cells(threads);
    let fb = TxCell::new(0u64);
    let barrier = Barrier::new(threads + 1);
    std::thread::scope(|s| {
        for t in 0..threads {
            let (arena, fb, barrier) = (&arena, &fb, &barrier);
            let mut ctx = rt.thread(t as u64);
            s.spawn(move || {
                barrier.wait();
                for _ in 0..per_thread {
                    ctx.htm_execute(fb, &RetryPolicy::default(), |tx| {
                        let v = tx.read(&arena[t].0)?;
                        tx.write(&arena[t].0, v + 1)
                    });
                }
            });
        }
        barrier.wait();
        // Workers joined when the scope closes; time from the release of
        // the barrier to scope exit covers every worker's full run.
        Instant::now()
    })
    .elapsed()
    .as_secs_f64()
}

/// Disjoint-key transactions must get *faster* when the same total work
/// is spread over four cores. The retired NOrec design serialized every
/// writer through one global commit lock, which capped this ratio near
/// (and under contention below) 1×.
#[test]
fn disjoint_keys_scale_beyond_one_thread() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    if cores < 4 {
        eprintln!("skipped: host exposes {cores} < 4 cores");
        return;
    }
    const TOTAL_OPS: u64 = 200_000;
    let rt = Runtime::new_concurrent();
    // Warm up allocator + runtime once.
    disjoint_run(&rt, 1, 1_000);
    let t1 = disjoint_run(&rt, 1, TOTAL_OPS);
    let t4 = disjoint_run(&rt, 4, TOTAL_OPS / 4);
    let speedup = t1 / t4;
    assert!(
        speedup > 1.15,
        "4 threads on disjoint keys must beat 1 thread on the same total \
         work: t1={t1:.4}s t4={t4:.4}s speedup={speedup:.2}x"
    );
}

/// Sorted-slot acquisition property: threads committing write sets that
/// cover the same cells in *different program orders* must neither
/// deadlock nor lose updates. Each thread picks a seeded permutation of a
/// small shared cell pool per transaction; the commit path's sort into
/// slot order is what keeps opposing orders from waiting on each other
/// forever (the bounded try-lock is the backstop for stripe collisions).
#[test]
fn permuted_write_sets_commit_without_deadlock_or_lost_updates() {
    const CELLS: usize = 8;
    const THREADS: usize = 4;
    const TXS_PER_THREAD: usize = 2_000;
    const WRITES_PER_TX: usize = 3;

    let rt = Runtime::new_concurrent();
    let pool = cells(CELLS);
    let fb = TxCell::new(0u64);
    // Ground truth: how many increments each cell received, tallied
    // outside the engine.
    let expected: Vec<AtomicU64> = (0..CELLS).map(|_| AtomicU64::new(0)).collect();

    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (pool, fb, expected) = (&pool, &fb, &expected);
            let mut ctx = rt.thread(t as u64);
            s.spawn(move || {
                // Deterministic per-thread xorshift so failures replay.
                let mut state = 0x9e37_79b9u64.wrapping_mul(t as u64 + 1) | 1;
                let mut rand = move || {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    state
                };
                for _ in 0..TXS_PER_THREAD {
                    // A seeded permutation prefix: WRITES_PER_TX distinct
                    // indices in shuffled order.
                    let mut idx: Vec<usize> = (0..CELLS).collect();
                    for i in (1..CELLS).rev() {
                        idx.swap(i, (rand() % (i as u64 + 1)) as usize);
                    }
                    idx.truncate(WRITES_PER_TX);
                    ctx.htm_execute(fb, &RetryPolicy::default(), |tx| {
                        for &i in &idx {
                            let v = tx.read(&pool[i].0)?;
                            tx.write(&pool[i].0, v + 1)?;
                        }
                        Ok(())
                    });
                    for &i in &idx {
                        expected[i].fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
        }
    });

    for (i, cell) in pool.iter().enumerate() {
        assert_eq!(
            cell.0.load_plain(),
            expected[i].load(Ordering::Relaxed),
            "cell {i} lost updates under permuted commit orders"
        );
    }
}

/// Linearizability smoke: writers move value between two cells keeping
/// the sum invariant; concurrent transactional readers must never see a
/// torn intermediate state. This is the test the value-validated NOrec
/// path passed only by accident of timing — TL2 read-version validation
/// makes it structural.
#[test]
fn transfer_invariant_holds_under_concurrent_readers() {
    const SUM: u64 = 1_000;
    const ITERS: usize = 5_000;

    let rt = Runtime::new_concurrent();
    let a = Padded(TxCell::new(SUM));
    let b = Padded(TxCell::new(0u64));
    let fb = TxCell::new(0u64);

    std::thread::scope(|s| {
        for t in 0..2u64 {
            let (a, b, fb) = (&a, &b, &fb);
            let mut ctx = rt.thread(t);
            s.spawn(move || {
                for i in 0..ITERS as u64 {
                    let delta = (i % 7) + 1;
                    ctx.htm_execute(fb, &RetryPolicy::default(), |tx| {
                        let va = tx.read(&a.0)?;
                        let vb = tx.read(&b.0)?;
                        let d = delta.min(va);
                        tx.write(&a.0, va - d)?;
                        tx.write(&b.0, vb + d)
                    });
                }
            });
        }
        for t in 2..4u64 {
            let (a, b, fb) = (&a, &b, &fb);
            let mut ctx = rt.thread(t);
            s.spawn(move || {
                for _ in 0..ITERS {
                    let sum = ctx
                        .htm_execute(fb, &RetryPolicy::default(), |tx| {
                            Ok(tx.read(&a.0)? + tx.read(&b.0)?)
                        })
                        .value;
                    assert_eq!(sum, SUM, "reader observed a torn transfer");
                }
            });
        }
    });
    assert_eq!(a.0.load_plain() + b.0.load_plain(), SUM);
}

/// Hot-cell stress against the TL2 backend: no increment may be lost
/// through the full escalation ladder (speculation, backoff, fallback).
#[test]
fn hot_cell_increments_survive_contention() {
    const THREADS: u64 = 4;
    const ITERS: u64 = 10_000;
    let rt = Runtime::new_concurrent();
    let cell = Padded(TxCell::new(0u64));
    let fb = TxCell::new(0u64);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (cell, fb) = (&cell, &fb);
            let mut ctx = rt.thread(t);
            s.spawn(move || {
                for _ in 0..ITERS {
                    ctx.htm_execute(fb, &RetryPolicy::default(), |tx| {
                        let v = tx.read(&cell.0)?;
                        tx.write(&cell.0, v + 1)
                    });
                }
            });
        }
    });
    assert_eq!(cell.0.load_plain(), THREADS * ITERS);
}

/// Writing commits on the RTM backend must advance the TL2 clock (the
/// executor bumps it inside the hardware transaction), otherwise
/// episode-free optimistic readers validating `seq == snap` would accept
/// snapshots an elided writer landed in the middle of. Read-only regions
/// must leave the clock alone. Holds on both the real-RTM and the
/// software-degraded path, so the test runs regardless of CPU support.
#[test]
fn writing_commits_advance_the_optimistic_clock_on_rtm() {
    let rt = Runtime::new_concurrent_rtm();
    eprintln!("rtm_active = {}", rt.rtm_active());
    let cell = Padded(TxCell::new(0u64));
    let fb = TxCell::new(0u64);
    let mut ctx = rt.thread(0);

    let before = ctx.optimistic_snapshot();
    ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
        let v = tx.read(&cell.0)?;
        tx.write(&cell.0, v + 1)
    });
    assert!(
        ctx.optimistic_snapshot() > before,
        "a writing commit left the optimistic clock unchanged"
    );

    // Judged on a region that committed speculatively: one that the
    // silicon aborted onto the fallback lock (a preempted hardware
    // transaction, on a loaded host) bumps the clock by design — its
    // section wrote directly.
    let speculative = (0..100).any(|_| {
        let mid = ctx.optimistic_snapshot();
        let out = ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| tx.read(&cell.0));
        if !out.used_fallback() {
            assert_eq!(
                ctx.optimistic_snapshot(),
                mid,
                "a read-only region must not move the clock"
            );
        }
        !out.used_fallback()
    });
    if !speculative {
        // A host whose TSX aborts every transaction (microcode force-abort
        // while a performance counter is in use) has nothing to judge.
        eprintln!("no read-only region committed speculatively: clock check not run");
    }
}

/// The same lost-update check on the hardware lock-elision backend. Only
/// meaningful where the CPU exposes RTM; elsewhere the runtime reports
/// `rtm_active() == false` and transparently uses the software episodes,
/// so the assertion still must hold.
#[test]
fn hot_cell_increments_survive_contention_on_rtm() {
    const THREADS: u64 = 4;
    const ITERS: u64 = 10_000;
    let rt = Runtime::new_concurrent_rtm();
    eprintln!(
        "rtm_active = {} (cpu rtm = {})",
        rt.rtm_active(),
        euno_htm::hw_rtm_available()
    );
    let cell = Padded(TxCell::new(0u64));
    let fb = TxCell::new(0u64);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let (cell, fb) = (&cell, &fb);
            let mut ctx = rt.thread(t);
            s.spawn(move || {
                for _ in 0..ITERS {
                    ctx.htm_execute(fb, &RetryPolicy::default(), |tx| {
                        let v = tx.read(&cell.0)?;
                        tx.write(&cell.0, v + 1)
                    });
                }
            });
        }
    });
    assert_eq!(cell.0.load_plain(), THREADS * ITERS);
}
