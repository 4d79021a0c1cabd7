//! Bounded maintenance: the deferred re-balance sweep (§4.2.4) is carried
//! by foreground deletes in bounded slices, so no single operation ever
//! pays for the whole leaf chain.
//!
//! Sixteen logical threads run a scan-churn-like mix on the virtual clock
//! with the delete threshold lowered so that several sweeps arm. Every op
//! is checked against a `BTreeMap` (the scheduler runs one op at a time,
//! so the model is exact) and timed by its `ctx.clock` delta. With the
//! sweep run inline by the delete that crosses the threshold, the longest
//! op of this run costs one full pass over ~1 500 leaf pairs — more than a
//! million cycles.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use euno_core::{EunoBTreeDefault, EunoConfig};
use euno_htm::euno_metrics::Counter;
use euno_htm::{ConcurrentMap, Runtime};
use euno_rng::{Rng, SmallRng};
use euno_sim::VirtualScheduler;

const THREADS: u64 = 16;
const KEYS: u64 = 24_000;
const OPS_PER_THREAD: u64 = 5_000;
const THRESHOLD: u64 = 4_000;
const SCAN_LEN: usize = 16;
/// No op — not even the delete that crosses the threshold — may cost more.
/// The longest ops are contended scans, a few ten thousand cycles.
const MAX_OP_CYCLES: u64 = 100_000;

struct Shared {
    model: BTreeMap<u64, u64>,
    longest_op: u64,
    scan_buf: Vec<(u64, u64)>,
    /// Sweeps seen going from pending to idle (the scheduler runs one op
    /// at a time, so looking after every op misses none).
    sweeps_finished: u64,
    sweep_was_pending: bool,
}

#[test]
fn no_foreground_op_pays_for_the_whole_sweep() {
    let rt = Runtime::new_virtual();
    let tree = EunoBTreeDefault::with_config(
        Arc::clone(&rt),
        EunoConfig {
            rebalance_delete_threshold: THRESHOLD,
            ..EunoConfig::default()
        },
    );
    let shared = RefCell::new(Shared {
        model: BTreeMap::new(),
        longest_op: 0,
        scan_buf: Vec::new(),
        sweeps_finished: 0,
        sweep_was_pending: false,
    });
    {
        let mut ctx = rt.thread(0x10ad);
        for key in (0..KEYS).step_by(2) {
            tree.put(&mut ctx, key, key);
            shared.borrow_mut().model.insert(key, key);
            if key % 256 == 0 {
                rt.virt_prune(ctx.clock);
            }
        }
        rt.reset_dynamics();
    }
    let leaves_before = tree.leaf_count_plain();

    let mut sched = VirtualScheduler::new(Arc::clone(&rt));
    for t in 0..THREADS {
        let (tree, shared) = (&tree, &shared);
        let mut rng = SmallRng::seed_from_u64(0x00B0_0DED ^ t);
        let mut done = 0u64;
        sched.add_thread(
            t,
            Box::new(move |ctx| {
                let sh = &mut *shared.borrow_mut();
                let key = rng.gen_range(0..KEYS);
                let start = ctx.clock;
                // Delete-heavier than it is put-heavy, so leaves drain and
                // the sweeps find pairs to merge.
                match rng.gen_range(0..100u32) {
                    0..=19 => assert_eq!(tree.get(ctx, key), sh.model.get(&key).copied()),
                    20..=44 => {
                        let value = t << 32 | done;
                        assert_eq!(tree.put(ctx, key, value), sh.model.insert(key, value));
                    }
                    45..=79 => assert_eq!(tree.delete(ctx, key), sh.model.remove(&key)),
                    _ => {
                        sh.scan_buf.clear();
                        tree.scan(ctx, key, SCAN_LEN, &mut sh.scan_buf);
                        let want = sh.model.range(key..).take(SCAN_LEN);
                        assert!(sh.scan_buf.iter().copied().eq(want.map(|(&k, &v)| (k, v))));
                    }
                }
                ctx.stats.ops += 1;
                sh.longest_op = sh.longest_op.max(ctx.clock - start);
                let pending = tree.sweep_pending();
                sh.sweeps_finished += u64::from(sh.sweep_was_pending && !pending);
                sh.sweep_was_pending = pending;
                done += 1;
                // Past its quota a thread keeps going only while a sweep is
                // still pending: the run ends with every armed sweep idle,
                // carried there by foreground deletes alone.
                assert!(done < 3 * OPS_PER_THREAD, "a pending sweep never finished");
                done < OPS_PER_THREAD || pending
            }),
        );
    }
    let run = sched.run();
    let sh = shared.into_inner();

    // (a) Bounded: the longest op of the whole run.
    assert!(run.total_ops >= THREADS * OPS_PER_THREAD);
    assert!(
        sh.longest_op <= MAX_OP_CYCLES,
        "longest op took {} cycles (bound {MAX_OP_CYCLES})",
        sh.longest_op
    );

    // (b) Several crossings armed sweeps, all reached idle, and they merged leaves
    // whose memory the epoch collector gets back.
    let totals = rt.metrics().totals();
    let (slices, merges) = (
        totals[Counter::SweepSlices.index()],
        totals[Counter::SweepMerges.index()],
    );
    assert!(
        tree.delete_count() >= 3 * THRESHOLD,
        "{} deletes",
        tree.delete_count()
    );
    assert!(!tree.sweep_pending());
    // How many sweeps that makes depends on the schedule — a crossing
    // while a sweep is pending is absorbed by it — so count them. A slice
    // examines 8 pairs (more only to step over an empty leaf), and each
    // sweep walked the whole chain of its day.
    let (sweeps, leaves_after) = (sh.sweeps_finished, tree.leaf_count_plain());
    assert!(sweeps >= 2, "{sweeps} sweeps finished");
    assert!(
        slices * 8 >= sweeps * (leaves_after as u64 - 1),
        "{slices} slices cannot have covered {sweeps} sweeps of {leaves_after} leaves"
    );
    assert!(merges > 0, "sweeps over a draining tree must merge");
    assert!(
        leaves_after < leaves_before,
        "leaf count must shrink: {leaves_before} → {leaves_after}"
    );
    rt.epoch().collect();
    rt.epoch().collect();
    let mem = tree.memory();
    assert_eq!(mem.retired_pending_bytes, 0, "quiescent drain frees all");
    assert!(mem.reclaimed_bytes > 0, "merged leaves are actually freed");

    // (c) Still the same map, structurally sound.
    assert_eq!(
        tree.collect_all_plain(),
        sh.model.into_iter().collect::<Vec<_>>()
    );
    assert_eq!(tree.audit_quiescent(), Vec::<String>::new());
}
