//! The virtual-clock workloads: 16 logical threads on one OS thread under
//! the benchmark's own `VirtualScheduler` drivers. Every latency is a
//! `ctx.clock` delta around one op, every count a delta of the thread's
//! public counters between the end of its warm-up and its last op, so the
//! results are bit-reproducible for a given `--seed` and `--seconds`.

use std::cell::RefCell;
use std::sync::Arc;
use std::time::Instant;

use euno_htm::{ConcurrentMap, Runtime, ThreadCtx};
use euno_sim::VirtualScheduler;

use crate::check::{encode, point_reply_ok, scan_ok};
use crate::counters::LayerCounts;
use crate::gen::{Kind, Op, KEY_RANGE, SCAN_LEN};
use crate::hist::Hist;
use crate::probe::HostProbe;
use crate::span::{Counts, Span, SpanBuf};

pub const THREADS: usize = 16;
/// Per thread and per `--seconds`: 5 000 measured ops after 500 warm-up
/// ops (50 000 + 5 000 at the contract's 10 s).
pub const MEASURED_PER_SECOND: u64 = 5_000;
pub const WARMUP_PER_SECOND: u64 = 500;

/// Insert every even key, single-threaded. On a virtual runtime the
/// conflict window is pruned as the scheduler would, then the engine's
/// dynamics and metric totals are reset so preload never leaks into a
/// measured window. With a `probe`, one chunk of it runs after every
/// 1 024 puts, so that it sees the host as the preload does.
pub fn preload_even(map: &dyn ConcurrentMap, rt: &Arc<Runtime>, mut probe: Option<&mut HostProbe>) {
    let mut ctx = rt.thread(0x10ad);
    let virtual_clock = rt.mode() == euno_htm::Mode::Virtual;
    for key in (0..KEY_RANGE).step_by(2) {
        map.put(&mut ctx, key, encode(key, 0, 0));
        if let (Some(probe), 0) = (probe.as_deref_mut(), key % 2048) {
            probe.chunk();
        }
        if virtual_clock && key % 128 == 0 {
            rt.virt_prune(ctx.clock);
        }
    }
    rt.reset_dynamics();
}

/// Run one generated op through the map's public interface and check what
/// came back. `seq` numbers this thread's puts.
#[inline]
pub fn exec_op<M: ConcurrentMap + ?Sized>(
    map: &M,
    ctx: &mut ThreadCtx,
    op: Op,
    thread: u64,
    seq: &mut u64,
    scan_buf: &mut Vec<(u64, u64)>,
) -> bool {
    let key = op.key();
    match op.kind() {
        Kind::Get => point_reply_ok(key, map.get(ctx, key)),
        Kind::Put => {
            *seq += 1;
            point_reply_ok(key, map.put(ctx, key, encode(key, thread, *seq)))
        }
        Kind::Delete => point_reply_ok(key, map.delete(ctx, key)),
        Kind::Scan => {
            scan_buf.clear();
            map.scan(ctx, key, SCAN_LEN, scan_buf);
            scan_ok(key, SCAN_LEN, scan_buf)
        }
    }
}

/// The four counts a span carries, read from the thread's own counters.
#[inline]
pub fn span_counts(ctx: &ThreadCtx) -> Counts {
    use euno_htm::euno_metrics::Counter;
    [
        ctx.metric(Counter::Attempts),
        ctx.stats.aborts.total(),
        ctx.stats.mem_accesses,
        ctx.metric(Counter::Fallbacks),
    ]
}

pub fn counts_between(before: Counts, after: Counts) -> Counts {
    std::array::from_fn(|i| after[i] - before[i])
}

pub const OP_SPAN_NAMES: [&str; 4] = ["op.get", "op.put", "op.delete", "op.scan"];

pub struct VirtPass {
    /// Measured ops (warm-up excluded).
    pub ops: u64,
    pub failed: u64,
    /// Measured ops per virtual second.
    pub throughput: f64,
    /// Per-op latency in cycles, all kinds and per kind.
    pub lat: Hist,
    pub lat_kind: [Hist; 4],
    pub counts: LayerCounts,
    /// Simulated ops (warm-up included) per wall second.
    pub sim_wall_ops_s: f64,
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
}

struct ThreadState<'a> {
    ops: &'a [Op],
    next: usize,
    warm_left: u64,
    left: u64,
    seq: u64,
    scan_buf: Vec<(u64, u64)>,
    lat_kind: [Hist; 4],
    failed: u64,
    window_start: Option<(u64, LayerCounts)>,
    window_end: Option<(u64, LayerCounts)>,
    spans: Option<SpanBuf>,
}

/// Drive `streams` (one per logical thread) against `map`: `warm` unmeasured
/// then `measured` measured ops per thread. With `trace`, every measured
/// op records one root span `op.<kind>`.
pub fn run_pass(
    map: &dyn ConcurrentMap,
    rt: &Arc<Runtime>,
    streams: &[Vec<Op>],
    seed: u64,
    warm: u64,
    measured: u64,
    trace: bool,
) -> VirtPass {
    assert!(measured > 0 && streams.iter().all(|s| !s.is_empty()));
    let op_overhead = rt.cost.op_overhead;
    let states: Vec<RefCell<ThreadState>> = streams
        .iter()
        .enumerate()
        .map(|(t, ops)| {
            RefCell::new(ThreadState {
                ops,
                next: 0,
                warm_left: warm,
                left: measured,
                seq: 0,
                scan_buf: Vec::with_capacity(SCAN_LEN),
                lat_kind: std::array::from_fn(|_| Hist::new()),
                failed: 0,
                window_start: None,
                window_end: None,
                spans: trace.then(|| SpanBuf::new(t as u64, measured as usize)),
            })
        })
        .collect();

    let mut sched = VirtualScheduler::new(Arc::clone(rt));
    for (t, state) in states.iter().enumerate() {
        sched.add_thread(
            seed.wrapping_add(t as u64),
            Box::new(move |ctx| {
                let st = &mut *state.borrow_mut();
                if st.warm_left == 0 && st.window_start.is_none() {
                    st.window_start = Some((ctx.clock, LayerCounts::of_ctx(ctx)));
                }
                let op = st.ops[st.next % st.ops.len()];
                st.next += 1;
                let before = st.spans.is_some().then(|| span_counts(ctx));
                let start = ctx.clock;
                // The harness convention: a fixed client-side cost per op.
                ctx.charge(op_overhead);
                let ok = exec_op(map, ctx, op, t as u64, &mut st.seq, &mut st.scan_buf);
                ctx.stats.ops += 1;
                let end = ctx.clock;
                st.failed += u64::from(!ok);
                if st.warm_left > 0 {
                    st.warm_left -= 1;
                    return true;
                }
                let kind = op.kind() as usize;
                st.lat_kind[kind].record(end - start);
                if let (Some(buf), Some(before)) = (st.spans.as_mut(), before) {
                    let counts = counts_between(before, span_counts(ctx));
                    let request = buf.next_id();
                    buf.push(0, request, OP_SPAN_NAMES[kind], start, end, counts);
                }
                st.left -= 1;
                if st.left == 0 {
                    st.window_end = Some((end, LayerCounts::of_ctx(ctx)));
                }
                st.left > 0
            }),
        );
    }
    let wall = Instant::now();
    sched.run();
    let wall_s = wall.elapsed().as_secs_f64();

    let mut pass = VirtPass {
        ops: measured * streams.len() as u64,
        failed: 0,
        throughput: 0.0,
        lat: Hist::new(),
        lat_kind: std::array::from_fn(|_| Hist::new()),
        counts: LayerCounts::default(),
        sim_wall_ops_s: (warm + measured) as f64 * streams.len() as f64 / wall_s,
        spans: Vec::new(),
        spans_dropped: 0,
    };
    let (mut first_start, mut last_end) = (u64::MAX, 0);
    for state in states {
        let st = state.into_inner();
        let (start, before) = st.window_start.expect("thread reached its window");
        let (end, after) = st.window_end.expect("thread finished its window");
        first_start = first_start.min(start);
        last_end = last_end.max(end);
        pass.counts.add(&after.since(&before));
        pass.failed += st.failed;
        for (all, one) in pass.lat_kind.iter_mut().zip(&st.lat_kind) {
            all.merge(one);
            pass.lat.merge(one);
        }
        if let Some(buf) = st.spans {
            pass.spans_dropped += buf.dropped;
            pass.spans.extend(buf.into_spans());
        }
    }
    // As the harness: the measured span runs from the earliest end of
    // warm-up to the makespan.
    pass.throughput = pass.ops as f64 / rt.cost.cycles_to_secs(last_end - first_start);
    pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Traffic;
    use euno_core::EunoBTreeDefault;

    fn small_pass(trace: bool) -> VirtPass {
        let rt = Runtime::new_virtual();
        let tree = EunoBTreeDefault::new(Arc::clone(&rt));
        let mut ctx = rt.thread(9);
        for key in (0..4_000).step_by(2) {
            tree.put(&mut ctx, key, encode(key, 0, 0));
        }
        rt.reset_dynamics();
        let streams = Traffic::ScanChurn.streams(5, 4, 600);
        run_pass(&tree, &rt, &streams, 5, 100, 500, trace)
    }

    #[test]
    fn a_pass_is_bit_reproducible_and_tracing_does_not_move_the_virtual_clock() {
        let (a, b, traced) = (small_pass(false), small_pass(false), small_pass(true));
        for other in [&b, &traced] {
            assert_eq!(a.throughput.to_bits(), other.throughput.to_bits());
            assert_eq!(a.lat.quantile(0.99), other.lat.quantile(0.99));
            assert_eq!(a.counts, other.counts);
        }
        assert_eq!(a.ops, 2_000);
        assert_eq!(a.failed, 0);
        assert_eq!(a.lat.count(), 2_000);
        assert_eq!(traced.spans.len(), 2_000);
        assert!(a.spans.is_empty());
        let span_attempts: u64 = traced.spans.iter().map(|s| s.counts[0]).sum();
        assert_eq!(
            span_attempts, traced.counts.attempts,
            "span counts add up to the window's"
        );
    }
}
