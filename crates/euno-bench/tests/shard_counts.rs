//! Every count a run reports has one home, its threads' metric shards: on
//! each of the four trees, the run report's ops, stage counts and aborts
//! by class are the sums over the shards the run's scheduler registered,
//! and every measured op has exactly one latency.

use euno_bench::common::System;
use euno_htm::Runtime;
use euno_metrics::{AbortClass, Counter, ABORTS_HTM};
use euno_sim::report::metrics_json;
use euno_sim::{preload, run_virtual, Json, RunConfig};
use euno_workloads::WorkloadSpec;

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
        let m = run_virtual(map.as_ref(), &rt, &spec, &cfg);
        // The scheduler's shards are the only ones that moved.
        let after = rt.metrics().totals();
        let shards = |c: Counter| after[c.index()] - before[c.index()];

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
