//! A scan's tail must not depend on how fast the writers beside it are
//! (DESIGN.md §4.7). ISSUE 20 found that it did: with the whole leaf in
//! one validated section, taking 80 cycles off every operation's client
//! overhead — nothing else — *raised* the scans' p99 by 5 %, because
//! writers that come round sooner void more of a ten-line read. With a
//! section per segment a write voids two lines, and the tail stays put.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

use euno_core::EunoBTreeDefault;
use euno_htm::euno_metrics::Counter;
use euno_htm::{Backend, ConcurrentMap, CostModel, Runtime};
use euno_sim::VirtualScheduler;
use euno_workloads::{KeyDistribution, Op, OpMix, OpStream, Preload, WorkloadSpec};

const THREADS: u64 = 16;
const OPS_PER_THREAD: u64 = 20_000;
/// No scan may cost more (measured: 5 349 and 5 572 cycles; 20 481 and
/// 24 312 with the whole-leaf section).
const MAX_SCAN_CYCLES: u64 = 15_000;

/// `virt-scan-churn`'s traffic, drawn from the workload generator.
fn churn_with_scans() -> WorkloadSpec {
    WorkloadSpec {
        key_range: 1_000_000,
        dist: KeyDistribution::Zipfian {
            theta: 0.9,
            scramble: false,
        },
        mix: OpMix {
            get: 0.2,
            put: 0.3,
            delete: 0.3,
            scan: 0.2,
        },
        scan_len: 16,
        preload: Preload::EvenKeys,
    }
}

/// Sixteen logical threads of that traffic with `op_overhead` cycles of
/// client work before every operation; every scan is checked against the
/// model (the scheduler runs one operation at a time). Returns the scans'
/// p99 and maximum, in cycles, client work included.
fn scan_tail(op_overhead: u64) -> (u64, u64) {
    let spec = churn_with_scans();
    let cost = CostModel {
        op_overhead,
        ..CostModel::default()
    };
    let rt = Runtime::new(Backend::Virtual, cost);
    let tree = EunoBTreeDefault::new(Arc::clone(&rt));
    let model = RefCell::new(BTreeMap::new());
    {
        let mut ctx = rt.thread(0x10ad);
        for key in spec.preload_keys() {
            tree.put(&mut ctx, key, key);
            model.borrow_mut().insert(key, key);
        }
        rt.virt_prune(ctx.clock);
        rt.reset_dynamics();
    }
    let scans = RefCell::new(Vec::new());

    let mut sched = VirtualScheduler::new(Arc::clone(&rt));
    for t in 0..THREADS {
        let (tree, model, scans) = (&tree, &model, &scans);
        let mut stream = OpStream::new(&spec, t, 20_261_007);
        let (mut left, mut out) = (OPS_PER_THREAD, Vec::new());
        sched.add_thread(
            t,
            Box::new(move |ctx| {
                let model = &mut *model.borrow_mut();
                let start = ctx.clock;
                ctx.charge(op_overhead);
                match stream.next_op() {
                    Op::Get { key } => assert_eq!(tree.get(ctx, key), model.get(&key).copied()),
                    Op::Put { key, value } => {
                        assert_eq!(tree.put(ctx, key, value), model.insert(key, value))
                    }
                    Op::Delete { key } => assert_eq!(tree.delete(ctx, key), model.remove(&key)),
                    Op::Scan { from, len } => {
                        out.clear();
                        tree.scan(ctx, from, len, &mut out);
                        let want = model.range(from..).take(len);
                        assert!(
                            out.iter().copied().eq(want.map(|(&k, &v)| (k, v))),
                            "scan from {from}: {out:?}"
                        );
                        scans.borrow_mut().push(ctx.clock - start);
                    }
                }
                ctx.metric_add(Counter::Ops, 1);
                left -= 1;
                left > 0
            }),
        );
    }
    sched.run();
    assert_eq!(tree.audit_quiescent(), Vec::<String>::new());

    let mut scans = scans.into_inner();
    scans.sort_unstable();
    assert!(scans.len() > 10_000, "{} scans", scans.len());
    (scans[scans.len() * 99 / 100], *scans.last().unwrap())
}

/// Measured: p99 3 464 cycles at 700 and 3 465 at 620 (+0.03 %); with the
/// whole-leaf section 6 603 and 7 061 (+6.9 %).
#[test]
#[cfg_attr(
    debug_assertions,
    ignore = "a million keys, twice: a minute unoptimized; check.sh runs it in --release"
)]
fn faster_writers_do_not_lengthen_the_scans_tail() {
    let (slow_p99, slow_max) = scan_tail(700);
    let (fast_p99, fast_max) = scan_tail(620);
    eprintln!("scan p99 / max: {slow_p99} / {slow_max} at 700, {fast_p99} / {fast_max} at 620");
    assert!(
        fast_p99 * 100 <= slow_p99 * 101,
        "scan p99 rose from {slow_p99} to {fast_p99} cycles when every op got 80 cycles faster"
    );
    let longest = slow_max.max(fast_max);
    assert!(
        longest <= MAX_SCAN_CYCLES,
        "longest scan took {longest} cycles (bound {MAX_SCAN_CYCLES})"
    );
}
