//! Zero-allocation gate for the episode hot path.
//!
//! The engine's per-episode state (read/write line sets, the NOrec write
//! log, retry bookkeeping) lives in a per-thread scratch pool and is
//! recycled across episodes; the virtual-mode window and line index reuse
//! their buffers across prune/sweep cycles. After a warmup long enough to
//! reach every structure's high-water mark, running more episodes must
//! perform **no heap allocation at all** — the property that makes engine
//! wall-clock throughput allocation-independent. This test installs a
//! counting global allocator and asserts exactly that.
//!
//! On failure, re-run with `EUNO_ALLOC_TRAP=1` to print the sizes of the
//! first measured-phase allocations — usually enough to identify the
//! structure that grew (window deque, an index list, a line set spill).
//!
//! Single `#[test]` on purpose: the allocation counter is process-global,
//! so a concurrently scheduled second test would pollute the measured
//! window.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};

use euno_htm::{Backend, CostModel, RetryPolicy, Runtime, ThreadCtx, TxCell};

/// Forwards to the system allocator, counting every allocation and
/// reallocation (frees are irrelevant to the property under test).
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// Count only the test thread: the libtest harness keeps a main thread
// alive (slow-test timers, result channels) that can allocate mid-window
// on a loaded machine, and a process-global count would blame the engine
// for it. Const-initialized so reading the flag in the allocator never
// itself allocates TLS storage.
thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Diagnostic trap: remaining slots of [`TRAP_SIZES`] to fill with the
/// request sizes of counted allocations (enabled via `EUNO_ALLOC_TRAP`).
/// Recording into preallocated statics is deliberate — capturing a
/// backtrace *inside* the allocator deadlocks.
static TRAP: AtomicU64 = AtomicU64::new(0);
static TRAP_SIZES: [AtomicU64; 16] = [const { AtomicU64::new(0) }; 16];

fn note_size(layout: Layout) {
    let n = TRAP.load(Ordering::Relaxed);
    if n > 0 {
        TRAP.fetch_sub(1, Ordering::Relaxed);
        TRAP_SIZES[(16 - n as usize).min(15)].store(layout.size() as u64, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(|c| c.get()) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            note_size(layout);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(|c| c.get()) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            note_size(layout);
        }
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

/// One counter per cache line, as a tree leaf slot would be.
#[repr(align(64))]
struct Padded(TxCell<u64>);

const CELLS: usize = 8;
const SCAN: usize = 4;

/// Episodes between prune calls. The steady-state length of the window
/// (and so of the per-line index lists) depends on this cadence, so the
/// warmup and measured phases must use episode counts divisible by it:
/// otherwise the phase boundary widens one prune gap, the window briefly
/// overshoots its warmup high-water mark, and the deque legitimately
/// reallocates inside the measured window.
const PRUNE_EVERY: u64 = 256;

/// How far behind the thread's clock a prune cuts the window.
#[derive(Clone, Copy)]
enum Prune {
    /// Not at all (the concurrent backend has no window).
    Never,
    /// 100 000 cycles behind, as a scheduler whose slowest thread lags:
    /// recent records (and their line-index entries) stay live across
    /// sweeps.
    Lagging,
    /// At the clock itself, as every lone-thread driver (a preload) does:
    /// each prune empties the window, and every sweep the line index.
    AtClock,
}

/// A mixed bag of episodes: transactional RMWs round-robin over the cells
/// plus a read-only scan every fourth episode, so both the write-set and
/// read-set paths (and the commit-time window check for each) stay hot.
fn run_episodes(
    ctx: &mut ThreadCtx,
    rt: &Runtime,
    fb: &TxCell<u64>,
    cells: &[Padded],
    count: u64,
    prune: Prune,
) {
    let policy = RetryPolicy::default();
    for i in 0..count {
        if i % 4 == 3 {
            ctx.htm_execute(fb, &policy, |tx| {
                let mut acc = 0u64;
                for c in &cells[..SCAN] {
                    acc = acc.wrapping_add(tx.read(&c.0)?);
                }
                Ok(acc)
            });
        } else {
            let c = &cells[i as usize % CELLS].0;
            ctx.htm_execute(fb, &policy, |tx| {
                let v = tx.read(c)?;
                tx.write(c, v + 1)
            });
        }
        if i % PRUNE_EVERY == PRUNE_EVERY - 1 {
            match prune {
                Prune::Never => {}
                Prune::Lagging => rt.virt_prune(ctx.clock.saturating_sub(100_000)),
                Prune::AtClock => rt.virt_prune(ctx.clock),
            }
        }
    }
}

fn dump_trapped_sizes() {
    for s in &TRAP_SIZES {
        let v = s.swap(0, Ordering::Relaxed);
        if v > 0 {
            eprintln!("measured-phase allocation of {v} bytes");
        }
    }
}

/// Warm up, then count the allocations of `measured` more episodes.
fn measured_allocs(
    ctx: &mut ThreadCtx,
    rt: &Runtime,
    fb: &TxCell<u64>,
    cells: &[Padded],
    (warmup, measured): (u64, u64),
    prune: Prune,
) -> u64 {
    run_episodes(ctx, rt, fb, cells, warmup, prune);
    COUNTING.with(|c| c.set(true));
    let before = ALLOCS.load(Ordering::Relaxed);
    if std::env::var_os("EUNO_ALLOC_TRAP").is_some() {
        TRAP.store(16, Ordering::Relaxed);
    }
    run_episodes(ctx, rt, fb, cells, measured, prune);
    TRAP.store(0, Ordering::Relaxed);
    let during = ALLOCS.load(Ordering::Relaxed) - before;
    COUNTING.with(|c| c.set(false));
    dump_trapped_sizes();
    during
}

#[test]
fn steady_state_episodes_do_not_allocate() {
    // ---- virtual mode: the deterministic engine behind every figure ----
    // Warmup: fill the episode scratch pool, grow the window deque, the
    // line index lists and the hot-line map to their steady high-water
    // marks, and cross the index-sweep threshold many times. Once with
    // the window pruned behind the clock, once at it: the regime of a
    // lone-thread driver, where each sweep empties the line index and the
    // hot lines' access lists must spill into recycled buffers.
    for prune in [Prune::Lagging, Prune::AtClock] {
        let rt = Runtime::new_virtual();
        let mut ctx = rt.thread(42);
        let fb = TxCell::new(0u64);
        let cells: Vec<Padded> = (0..CELLS).map(|_| Padded(TxCell::new(0))).collect();
        let phases = (200 * PRUNE_EVERY, 40 * PRUNE_EVERY);
        let during = measured_allocs(&mut ctx, &rt, &fb, &cells, phases, prune);
        assert_eq!(
            during, 0,
            "virtual-mode steady state allocated {during} times in 10k episodes"
        );
        assert!(
            ctx.exec_stages().commits >= 240 * PRUNE_EVERY,
            "sanity: episodes actually committed (commits={})",
            ctx.exec_stages().commits
        );
    }

    // ---- concurrent mode: the NOrec software path, single thread ------
    let rt = Runtime::new(Backend::Stm, CostModel::default());
    let mut ctx = rt.thread(43);
    let fb = TxCell::new(0u64);
    let cells: Vec<Padded> = (0..CELLS).map(|_| Padded(TxCell::new(0))).collect();
    let during = measured_allocs(&mut ctx, &rt, &fb, &cells, (30_000, 10_000), Prune::Never);
    assert_eq!(
        during, 0,
        "concurrent-mode steady state allocated {during} times in 10k episodes"
    );
    ctx.finish();
}
