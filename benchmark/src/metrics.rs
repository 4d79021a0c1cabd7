//! The metric vocabulary: every name the benchmark prints, with its unit.
//! `BENCHMARK.json` lists the same names; a test keeps the two in step.

/// End-to-end metrics: `(name, unit)`. The gated `virt-*` workloads report
/// every one, on the virtual clock (a second is a virtual second and a ns a
/// virtual ns at the cost model's 2.3 GHz; only `setup_s` is wall time).
/// The wall workloads, which are not gated, report the ones they have on
/// the wall clock: `throughput_ops_s`, `lat_p50_ns` and `setup_s`
/// (`EunoServer` has no memory accessor, and wall tails are the host's).
pub const END_TO_END: [(&str, &str); 6] = [
    ("throughput_ops_s", "ops/s"),
    ("lat_p50_ns", "ns"),
    ("lat_p99_ns", "ns"),
    ("lat_p999_ns", "ns"),
    ("mem_bytes_per_key", "bytes"),
    ("setup_s", "s"),
];

/// Per-layer metrics: `(name, unit)`. A traced run reports every one; a
/// metric of a layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 73] = [
    // euno-htm, over the traced window
    ("htm.attempts_per_op", "count"),
    ("htm.commit_ratio", "ratio"),
    ("htm.aborts_per_op", "count"),
    ("htm.aborts_true_per_op", "count"),
    ("htm.aborts_false_record_per_op", "count"),
    ("htm.aborts_false_meta_per_op", "count"),
    ("htm.aborts_structure_per_op", "count"),
    ("htm.aborts_capacity_per_op", "count"),
    ("htm.aborts_fallback_locked_per_op", "count"),
    ("htm.wasted_cycle_frac", "ratio"),
    ("htm.backoff_cycles_per_op", "cycles"),
    ("htm.middles_per_op", "count"),
    ("htm.fallbacks_per_op", "count"),
    ("htm.fallback_wait_cycles_per_op", "cycles"),
    ("htm.tl2_lock_fails_per_op", "count"),
    ("htm.tl2_validation_fails_per_op", "count"),
    ("htm.episode_pool_allocs", "count"),
    ("htm.episode_ns", "ns"),
    // euno-core
    ("core.accesses_per_op", "count"),
    ("core.read_retries_per_op", "count"),
    ("core.lock_wait_cycles_per_op", "cycles"),
    ("core.ccm_flips", "count"),
    ("core.bypassed_leaf_frac", "ratio"),
    ("core.op_ns.get", "ns"),
    ("core.op_ns.put", "ns"),
    ("core.op_ns.scan", "ns"),
    ("core.op_ns.serve", "ns"),
    ("core.lat_p99_cycles.get", "cycles"),
    ("core.lat_p99_cycles.put", "cycles"),
    ("core.lat_p99_cycles.delete", "cycles"),
    ("core.lat_p99_cycles.scan", "cycles"),
    ("core.depth", "count"),
    ("core.leaves", "count"),
    ("core.leaf_fill", "ratio"),
    ("core.tombstones", "count"),
    ("core.epoch_reclaimed", "count"),
    ("core.epoch_retired_pending", "count"),
    // euno-core::batch
    ("batch.op_ns", "ns"),
    ("batch.speedup_vs_single", "ratio"),
    ("batch.lower_episodes_per_op", "count"),
    ("batch.opt_gets_frac", "ratio"),
    ("batch.singles_frac", "ratio"),
    ("batch.conflict_aborts_per_op", "count"),
    // euno-serve
    ("serve.submit_ns", "ns"),
    ("serve.rtt1_ns", "ns"),
    ("serve.overhead_ns", "ns"),
    ("router.shard_of_ns", "ns"),
    ("serve.mean_batch", "count"),
    ("serve.batch_bail_frac", "ratio"),
    ("serve.batch_shrinks", "count"),
    ("serve.shed_frac", "ratio"),
    ("serve.slo_rate_ops_s", "ops/s"),
    // The wall workloads' own end-to-end numbers, demoted: on this shared
    // guest they do not repeat within any bound (see the README). A traced
    // `virt-*` run measures one of the three in a short pass of its own.
    ("wall.point.throughput_ops_s", "ops/s"),
    ("wall.point.lat_p50_ns", "ns"),
    ("wall.point.lat_p99_ns", "ns"),
    ("serve.sat.throughput_ops_s", "ops/s"),
    ("serve.sat.lat_p50_ns", "ns"),
    ("serve.sat.lat_p99_ns", "ns"),
    ("serve.open.throughput_ops_s", "ops/s"),
    ("serve.open.lat_p50_ns", "ns"),
    ("serve.open.lat_p99_ns", "ns"),
    ("serve.open.lat_p999_ns", "ns"),
    ("serve.open.gen_lag_p99_ns", "ns"),
    // euno-baselines
    ("baseline.htm_btree.virt_throughput_ops_s.hot", "ops/s"),
    ("baseline.htm_btree.virt_throughput_ops_s.flat", "ops/s"),
    ("baseline.euno_speedup", "ratio"),
    // euno-sim
    ("sim.wall_ops_s", "ops/s"),
    // the trace itself and the checks
    ("trace_overhead_frac", "ratio"),
    ("trace.spans", "count"),
    ("trace.spans_dropped", "count"),
    ("failed_frac", "ratio"),
    ("gen_s", "s"),
    ("pinned", "bool"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|&(_, unit)| unit)
}
