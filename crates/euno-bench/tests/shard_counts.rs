//! Every count a run reports has one home, its threads' metric shards: on
//! each of the four trees, the run report's ops, stage counts and aborts
//! by class are the sums over the shards the run's scheduler registered,
//! taken since each thread's warm-up mark, and every measured op has
//! exactly one latency. The cycle books are measured over the same
//! window.

use std::cell::RefCell;

use euno_bench::common::{measure, System};
use euno_htm::{Runtime, ThreadCtx};
use euno_metrics::{AbortClass, Counter, Counts, ABORTS_HTM};
use euno_sim::report::metrics_json;
use euno_sim::{apply_op, preload, run_ops, Json, RunConfig};
use euno_workloads::{OpStream, WorkloadSpec};

#[test]
fn a_run_reports_the_sums_of_its_own_shards() {
    let mut spec = WorkloadSpec::paper_default(0.9);
    spec.key_range = 4_000;
    let cfg = RunConfig {
        threads: 6,
        ops_per_thread: 300,
        seed: 17,
        warmup_ops: 60,
        ..RunConfig::default()
    };
    let mut aborts = 0;
    for system in System::MAIN_FOUR {
        let rt = Runtime::new_virtual();
        let map = system.build(&rt);
        preload(map.as_ref(), &rt, &spec);
        rt.reset_dynamics();
        let before = rt.metrics().totals();
        let lat_before = rt.metrics().merged_histogram().count();
        // `run_virtual`'s own loop, with each thread's counts read where
        // its warm-up ends: a warm-up op stays on the shard, and the
        // report leaves it out.
        let marks = RefCell::new(Counts::default());
        let m = run_ops(&rt, &cfg, |t| {
            let mut stream = OpStream::new(&spec, t as u64, cfg.seed);
            let (map, marks) = (map.as_ref(), &marks);
            let (mut scan_buf, mut done) = (Vec::new(), 0);
            move |ctx: &mut ThreadCtx| {
                apply_op(map, ctx, stream.next_op(), &mut scan_buf);
                done += 1;
                if done == cfg.warmup_ops {
                    marks.borrow_mut().merge(&ctx.counts());
                }
            }
        });
        // The scheduler's shards are the only ones that moved.
        let after = rt.metrics().totals();
        let marks = marks.into_inner();
        let shards = |c: Counter| after[c.index()] - before[c.index()] - marks[c];

        let doc = metrics_json(&m);
        let at = |section: &str, key: &str| {
            doc.get(section)
                .and_then(|s| s.get(key))
                .and_then(Json::as_u64)
                .unwrap_or_else(|| panic!("{system:?}: no {section}.{key}"))
        };
        let total_ops = doc.get("total_ops").and_then(Json::as_u64).unwrap();
        assert_eq!(total_ops, shards(Counter::Ops), "{system:?}");
        assert_eq!(total_ops, cfg.threads as u64 * cfg.ops_per_thread);
        assert_eq!(marks[Counter::Ops], cfg.threads as u64 * cfg.warmup_ops);
        for class in AbortClass::ALL {
            let n = at("aborts", class.name());
            assert_eq!(n, shards(ABORTS_HTM[class.index()]), "{system:?} {class:?}");
        }
        for c in [
            Counter::Attempts,
            Counter::Commits,
            Counter::Fallbacks,
            Counter::Backoffs,
        ] {
            assert_eq!(at("stages", c.name()), shards(c), "{system:?} {c:?}");
        }
        assert_eq!(at("latency", "count"), total_ops, "{system:?}");
        let lat = rt.metrics().merged_histogram();
        assert_eq!(lat.count() - lat_before, total_ops, "{system:?}");
        assert_eq!(lat.max(), m.latency.max(), "{system:?}");
        aborts += at("aborts", "total");
    }
    assert!(aborts > 0, "θ = 0.9 on 6 threads aborted nothing anywhere");
}

/// §2.3's wasted share divides by the measured clock. On one thread the
/// run's mark is that thread's, so `cycles_total` is the span from the
/// end of its warm-up to the end of its last op. (Until the warm-up ended
/// in a mark, `cycles_total` was the whole clock while `cycles_wasted`
/// was measured: here 11 017 169 cycles of which 4 406 958 warm-up, and a
/// share of 0.00010 where the measured clock gives 0.00016.)
#[test]
fn the_wasted_share_divides_by_the_measured_clock() {
    let mut spec = WorkloadSpec::paper_default(0.9);
    spec.key_range = 20_000;
    let cfg = RunConfig {
        threads: 1,
        ops_per_thread: 6_000,
        seed: 3,
        warmup_ops: 4_000,
        ..RunConfig::default()
    };
    let m = measure(System::EunoBTree, &spec, &cfg);
    let span = m.window.end - m.window.start;
    assert!(m.window.start > 0, "the warm-up took no cycles");
    assert_eq!(m.stats.cycles_total, span);
    assert!(m.stats.cycles_wasted > 0, "θ = 0.9 wasted nothing");
    assert_eq!(
        m.wasted_cycle_fraction,
        m.stats.cycles_wasted as f64 / span as f64
    );
}
