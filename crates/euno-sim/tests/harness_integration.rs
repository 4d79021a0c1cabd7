//! Integration tests for the experiment harness: workload driving,
//! metrics plumbing, latency collection and end-to-end determinism over a
//! minimal `ConcurrentMap`.

use euno_htm::euno_metrics::{ABORTS_HTM, ABORT_BUCKETS};
use euno_htm::{ConcurrentMap, RetryPolicy, Runtime, ThreadCtx, TxCell};
use euno_sim::{preload, run_ops, run_virtual, RunConfig};
use euno_workloads::{KeyDistribution, OpMix, Preload, WorkloadSpec};

/// One cache line of slots. Conflict footprints derive from *real heap
/// addresses* (LineId = addr/64), so which slots false-share depends on
/// where the allocator placed the storage — unless the storage is
/// line-aligned, like every real tree node in this repo (`repr(C,
/// align(64))`). Aligning makes the abort pattern a pure function of slot
/// indices, which the end-to-end determinism test below relies on.
#[repr(align(64))]
struct SlotLine([TxCell; 8]);

/// A deliberately naive HTM-protected open-addressing table: enough map to
/// exercise the harness without pulling in the tree crates.
struct ToyMap {
    fb: TxCell,
    keys: Vec<SlotLine>,
    vals: Vec<SlotLine>,
    capacity: usize,
    policy: RetryPolicy,
}

const EMPTY: u64 = u64::MAX;

impl ToyMap {
    fn new(capacity: usize) -> Self {
        assert_eq!(capacity % 8, 0);
        let line = |v: u64| SlotLine(std::array::from_fn(|_| TxCell::new(v)));
        ToyMap {
            fb: TxCell::new(0),
            keys: (0..capacity / 8).map(|_| line(EMPTY)).collect(),
            vals: (0..capacity / 8).map(|_| line(0)).collect(),
            capacity,
            policy: RetryPolicy::default(),
        }
    }

    fn key_at(&self, i: usize) -> &TxCell {
        &self.keys[i / 8].0[i % 8]
    }

    fn val_at(&self, i: usize) -> &TxCell {
        &self.vals[i / 8].0[i % 8]
    }

    fn slot_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E3779B97F4A7C15) % self.capacity as u64) as usize
    }
}

impl ConcurrentMap for ToyMap {
    fn get(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64> {
        let mut i = self.slot_of(key);
        ctx.htm_execute(&self.fb, &self.policy, |tx| {
            for _ in 0..self.capacity {
                let k = tx.read(self.key_at(i))?;
                if k == key {
                    return Ok(Some(tx.read(self.val_at(i))?));
                }
                if k == EMPTY {
                    return Ok(None);
                }
                i = (i + 1) % self.capacity;
            }
            Ok(None)
        })
        .value
    }

    fn put(&self, ctx: &mut ThreadCtx, key: u64, value: u64) -> Option<u64> {
        let mut i = self.slot_of(key);
        ctx.htm_execute(&self.fb, &self.policy, |tx| loop {
            let k = tx.read(self.key_at(i))?;
            if k == key {
                let old = tx.read(self.val_at(i))?;
                tx.write(self.val_at(i), value)?;
                return Ok(Some(old));
            }
            if k == EMPTY {
                tx.write(self.key_at(i), key)?;
                tx.write(self.val_at(i), value)?;
                return Ok(None);
            }
            i = (i + 1) % self.capacity;
        })
        .value
    }

    fn delete(&self, _ctx: &mut ThreadCtx, _key: u64) -> Option<u64> {
        None // open addressing: deletes unsupported in the toy
    }

    fn scan(
        &self,
        _ctx: &mut ThreadCtx,
        _from: u64,
        _count: usize,
        _out: &mut Vec<(u64, u64)>,
    ) -> usize {
        0
    }

    fn name(&self) -> &'static str {
        "ToyMap"
    }
}

fn toy_spec() -> WorkloadSpec {
    WorkloadSpec {
        key_range: 512,
        dist: KeyDistribution::Zipfian {
            theta: 0.9,
            scramble: false,
        },
        mix: OpMix::get_put(0.5),
        scan_len: 4,
        preload: Preload::None,
    }
}

#[test]
fn virtual_harness_runs_and_fills_metrics() {
    let rt = Runtime::new_virtual();
    let map = ToyMap::new(4096);
    preload(&map, &rt, &toy_spec());
    rt.reset_dynamics();
    let cfg = RunConfig {
        threads: 8,
        ops_per_thread: 1_000,
        seed: 3,
        warmup_ops: 100,
        ..RunConfig::default()
    };
    let m = run_virtual(&map, &rt, &toy_spec(), &cfg);
    assert_eq!(m.threads, 8);
    assert_eq!(m.total_ops, 8_000);
    assert!(m.throughput > 0.0);
    assert!(m.accesses_per_op > 1.0);
    // Latency histogram is populated, sane, and consistent with ops.
    assert_eq!(m.latency.count(), 8_000);
    assert!(m.latency.quantile(0.5) > 0);
    assert!(m.latency.quantile(0.99) >= m.latency.quantile(0.5));
    assert!(m.latency.mean() > 0.0);
}

#[test]
fn virtual_harness_is_deterministic_end_to_end() {
    let run = || {
        let rt = Runtime::new_virtual();
        let map = ToyMap::new(4096);
        preload(&map, &rt, &toy_spec());
        rt.reset_dynamics();
        let cfg = RunConfig {
            threads: 6,
            ops_per_thread: 800,
            seed: 11,
            warmup_ops: 50,
            ..RunConfig::default()
        };
        let m = run_virtual(&map, &rt, &toy_spec(), &cfg);
        (
            m.total_ops,
            m.stats.cycles_total,
            m.counts.aborts(),
            m.latency.quantile(0.99),
            m.elapsed_secs.to_bits(),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn hot_zipfian_produces_contention_in_the_toy() {
    let rt = Runtime::new_virtual();
    let map = ToyMap::new(4096);
    preload(&map, &rt, &toy_spec());
    rt.reset_dynamics();
    let cfg = RunConfig {
        threads: 16,
        ops_per_thread: 1_500,
        seed: 4,
        warmup_ops: 200,
        ..RunConfig::default()
    };
    let m = run_virtual(&map, &rt, &toy_spec(), &cfg);
    assert!(
        m.counts.aborts() > 0,
        "16 threads on 512 hot keys in one table must conflict"
    );
    // Tail latency shows the convoys the mean hides.
    assert!(m.latency.quantile(0.999) > 2 * m.latency.quantile(0.5));
}

#[test]
fn tracing_does_not_perturb_the_virtual_schedule() {
    // The zero-overhead contract (DESIGN.md §13): installing a trace sink
    // must not change a single measured number — emission never charges
    // cycles or touches the RNG, so the deterministic schedule, the abort
    // pattern, and every counter stay bit-identical.
    let run = |trace_capacity: usize| {
        let rt = Runtime::new_virtual();
        let map = ToyMap::new(4096);
        preload(&map, &rt, &toy_spec());
        rt.reset_dynamics();
        let cfg = RunConfig {
            threads: 8,
            ops_per_thread: 600,
            seed: 21,
            warmup_ops: 50,
            trace_capacity,
            ..RunConfig::default()
        };
        run_virtual(&map, &rt, &toy_spec(), &cfg)
    };
    let plain = run(0);
    let traced = run(4096);
    assert_eq!(plain.total_ops, traced.total_ops);
    assert_eq!(plain.stats.cycles_total, traced.stats.cycles_total);
    assert_eq!(plain.counts.aborts(), traced.counts.aborts());
    assert_eq!(plain.elapsed_secs.to_bits(), traced.elapsed_secs.to_bits());
    assert_eq!(
        plain.latency.quantile(0.999),
        traced.latency.quantile(0.999)
    );
    // And the traced run actually recorded the run: every thread has a
    // buffer with episode + op + scheduler events in it.
    assert!(plain.trace.is_none());
    let traces = traced.trace.as_ref().unwrap();
    assert_eq!(traces.len(), 8);
    for t in traces {
        assert!(t.total > 0, "thread {} traced nothing", t.thread);
    }
    let all: usize = traces.iter().map(|t| t.events.len()).sum();
    assert!(all > 1_000, "only {all} events for 8×600 ops");
}

#[test]
fn an_aborting_warm_up_op_leaves_no_abort_behind() {
    // Warm-up is rolled back through one mark that covers both stores: the
    // thread's `ThreadStats` and its metric shard.
    let rt = Runtime::new_virtual();
    let (fb, cell) = (TxCell::new(0u64), TxCell::new(0u64));
    let cfg = RunConfig {
        threads: 2,
        ops_per_thread: 0,
        warmup_ops: 3,
        ..RunConfig::default()
    };
    let m = run_ops(&rt, &cfg, |_| {
        |ctx: &mut ThreadCtx| {
            ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
                if !tx.is_fallback() {
                    return tx.explicit_abort(1);
                }
                let v = tx.read(&cell)?;
                tx.write(&cell, v + 1)
            });
        }
    });
    assert_eq!(cell.load_plain(), 6, "every warm-up op ran");
    assert_eq!(m.counts.aborts(), 0);
    let totals = rt.metrics().totals();
    assert_eq!(ABORTS_HTM.map(|c| totals[c.index()]), [0; ABORT_BUCKETS]);
}
