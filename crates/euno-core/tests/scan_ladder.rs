//! The scan ladder end to end (DESIGN.md §4.7): every leaf step makes
//! progress, and a step that cannot validate falls through to the locked
//! rung instead of spinning.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::sync::{mpsc, Arc};
use std::time::Duration;

use euno_core::{EunoBTreeDefault, EunoConfig};
use euno_htm::euno_metrics::Counter;
use euno_htm::{ConcurrentMap, Runtime};
use euno_rng::{Rng, SmallRng};
use euno_sim::VirtualScheduler;

/// The optimistic scan used to re-descend forever across a run of more
/// than 64 record-less leaves (it took the run for a stale chain): with
/// the read-optimized config this scan never returned. The scan runs on a
/// helper thread so a livelock fails the test instead of hanging it.
#[test]
fn scan_crosses_a_long_run_of_recordless_leaves() {
    for cfg in [EunoConfig::paper(), EunoConfig::default()] {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let rt = Runtime::new_virtual();
            let tree = EunoBTreeDefault::with_config(Arc::clone(&rt), cfg);
            let mut ctx = rt.thread(1);
            for k in 0..4_000u64 {
                tree.put(&mut ctx, k, k);
            }
            // Below the re-balance threshold: ~180 leaves stay chained
            // with nothing but tombstones in them.
            for k in 100..3_000u64 {
                tree.delete(&mut ctx, k);
            }
            let mut out = Vec::new();
            tree.scan(&mut ctx, 100, 10, &mut out);
            let _ = tx.send((tree.name(), out));
        });
        let (name, out) = rx
            .recv_timeout(Duration::from_secs(20))
            .expect("scan across the tombstoned run never returned");
        let want: Vec<(u64, u64)> = (3_000..3_010).map(|k| (k, k)).collect();
        assert_eq!(out, want, "{name}");
    }
}

const WRITERS: u64 = 15;
const SCANS: u64 = 2_000;
const SCAN_LEN: usize = 48;
/// The 16 keys the writers fight over fit in one leaf; the even ones are
/// preloaded and only ever updated, the odd ones come and go.
const HOT: std::ops::Range<u64> = 1_000..1_016;
/// No scan may cost more. The longest ones are the steps that spent all
/// their optimistic tries on the hot leaf and then queued behind its
/// writers on the locked rung (measured: 25 158 cycles, with 368 locked
/// steps in the 2 000 scans; 30 481 and 515 while a step validated its
/// whole leaf at once — fifteen back-to-back writers still beat a
/// two-line section often enough); a scan that spins has no bound.
const MAX_SCAN_CYCLES: u64 = 100_000;

/// Fifteen logical writers hammer one leaf while one scanner walks across
/// it. The scheduler runs one op at a time, so a `BTreeMap` is an exact
/// model of every scan; the interesting part is the virtual clock, on
/// which the scanner's sections overlap the writers' commits.
#[test]
fn scan_across_a_write_hot_leaf_is_exact_and_bounded() {
    let rt = Runtime::new_virtual();
    let tree = EunoBTreeDefault::new(Arc::clone(&rt));
    let model = RefCell::new(BTreeMap::new());
    {
        let mut ctx = rt.thread(0x10ad);
        for key in (0..2_000u64).step_by(2) {
            tree.put(&mut ctx, key, key);
            model.borrow_mut().insert(key, key);
        }
        rt.virt_prune(ctx.clock);
        rt.reset_dynamics();
    }
    let scans_done = Cell::new(0u64);
    let longest_scan = Cell::new(0u64);

    let mut sched = VirtualScheduler::new(Arc::clone(&rt));
    for t in 0..WRITERS {
        let (tree, model, scans_done) = (&tree, &model, &scans_done);
        let mut rng = SmallRng::seed_from_u64(0x5CA7_7E12 ^ t);
        let mut seq = 0u64;
        sched.add_thread(
            t,
            Box::new(move |ctx| {
                let key = rng.gen_range(HOT);
                seq += 1;
                let model = &mut *model.borrow_mut();
                if key.is_multiple_of(2) || rng.gen_range(0..2u32) == 0 {
                    let value = t << 32 | seq;
                    assert_eq!(tree.put(ctx, key, value), model.insert(key, value));
                } else {
                    assert_eq!(tree.delete(ctx, key), model.remove(&key));
                }
                ctx.stats.ops += 1;
                scans_done.get() < SCANS
            }),
        );
    }
    {
        let (tree, model, scans_done, longest_scan) = (&tree, &model, &scans_done, &longest_scan);
        let mut out = Vec::new();
        sched.add_thread(
            WRITERS,
            Box::new(move |ctx| {
                // Start a leaf or two below the hot one, end above it.
                let from = HOT.start - 20 + scans_done.get() % 8;
                let start = ctx.clock;
                out.clear();
                tree.scan(ctx, from, SCAN_LEN, &mut out);
                longest_scan.set(longest_scan.get().max(ctx.clock - start));
                let model = model.borrow();
                let want = model.range(from..).take(SCAN_LEN);
                assert!(
                    out.iter().copied().eq(want.map(|(&k, &v)| (k, v))),
                    "scan from {from}: {out:?}"
                );
                ctx.stats.ops += 1;
                scans_done.set(scans_done.get() + 1);
                scans_done.get() < SCANS
            }),
        );
    }
    sched.run();

    assert!(
        longest_scan.get() <= MAX_SCAN_CYCLES,
        "longest scan took {} cycles (bound {MAX_SCAN_CYCLES})",
        longest_scan.get()
    );
    let totals = rt.metrics().totals();
    assert!(
        totals[Counter::ScanLockedSteps.index()] > 0,
        "15 writers on one leaf never pushed a step onto the locked rung"
    );
    assert_eq!(
        tree.collect_all_plain(),
        model.into_inner().into_iter().collect::<Vec<_>>()
    );
    assert_eq!(tree.audit_quiescent(), Vec::<String>::new());
}
