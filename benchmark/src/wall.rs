//! `wall-point`: the *hot* traffic on two pinned OS threads calling
//! `ConcurrentMap` directly — the only place allocation, cache and
//! instruction-path work in `euno-htm` / `euno-core` is visible.
//!
//! The timed window is cut into equal slices; throughput and latency
//! quantiles are computed per slice and reported as the median over
//! slices, so a host stall that lands in one slice does not move the
//! result. One op in 16 is timed (two clock reads ≈ 75 ns on this host
//! would otherwise be ~4 % of every op).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use euno_htm::{ConcurrentMap, Runtime};

use crate::counters::LayerCounts;
use crate::gen::Op;
use crate::hist::Hist;
use crate::pin::Placement;
use crate::span::{Span, SpanBuf};
use crate::virt::{counts_between, exec_op, span_counts, OP_SPAN_NAMES};

pub const THREADS: usize = 2;
pub const SLICES: usize = 20;
/// One op in this many is timed (and, in a traced pass, recorded).
pub const TIMED_EVERY: u64 = 16;
/// Warm-up ops per thread and per `--seconds`.
pub const WARMUP_PER_SECOND: u64 = 100_000;

pub struct Slice {
    pub ops: u64,
    pub lat: Hist,
}

fn empty_slices() -> Vec<Slice> {
    (0..SLICES)
        .map(|_| Slice {
            ops: 0,
            lat: Hist::new(),
        })
        .collect()
}

pub struct WallPass {
    pub slices: Vec<Slice>,
    pub slice_s: f64,
    pub failed: u64,
    pub counts: LayerCounts,
    pub spans: Vec<Span>,
    pub spans_dropped: u64,
}

impl WallPass {
    pub fn ops(&self) -> u64 {
        self.slices.iter().map(|s| s.ops).sum()
    }
}

struct ThreadOut {
    slices: Vec<Slice>,
    failed: u64,
    counts: LayerCounts,
    spans: Option<SpanBuf>,
}

pub struct PassSpec {
    pub seed: u64,
    /// Unmeasured ops per thread before the window.
    pub warm: u64,
    pub window_s: f64,
    /// Record a span per timed op — in the odd slices only, so that the
    /// even slices of the same pass give the spans-off throughput.
    pub trace: bool,
}

/// Tracing overhead of a traced pass: 1 − (median throughput of its traced
/// slices ÷ that of its spans-off slices). Both halves run on one instance
/// in one window, so process- and host-level drift cancels.
pub fn trace_overhead(slice_throughput: impl Iterator<Item = f64>) -> f64 {
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    for (slice, value) in slice_throughput.enumerate() {
        if traced_slice(slice) {
            traced.push(value);
        } else {
            plain.push(value);
        }
    }
    1.0 - crate::hist::median(&traced) / crate::hist::median(&plain)
}

#[inline]
pub fn traced_slice(slice: usize) -> bool {
    slice % 2 == 1
}

/// `spec.warm` unmeasured ops per thread, then `spec.window_s` seconds
/// measured in `SLICES` slices. Streams are cycled when a thread outruns
/// its own.
pub fn run_pass<M: ConcurrentMap>(
    map: &M,
    rt: &Arc<Runtime>,
    streams: &[Vec<Op>],
    spec: &PassSpec,
    place: &Placement,
) -> WallPass {
    let &PassSpec {
        seed,
        warm,
        window_s,
        trace,
    } = spec;
    let slice_ns = (window_s * 1e9) as u64 / SLICES as u64;
    let origin = Instant::now();
    let barrier = Barrier::new(streams.len());
    let start_ns = AtomicU64::new(0);
    // Room for every timed op of a window at 4 M ops/s per thread.
    let span_capacity = (window_s * 4e6 / TIMED_EVERY as f64) as usize;

    let outs: Vec<ThreadOut> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(t, ops)| {
                let (barrier, start_ns) = (&barrier, &start_ns);
                s.spawn(move || {
                    if t == 0 {
                        place.pin_client();
                    } else {
                        place.pin_server();
                    }
                    let mut ctx = rt.thread(seed.wrapping_add(t as u64));
                    let mut seq = 0u64;
                    let mut scan_buf = Vec::new();
                    let mut failed = 0u64;
                    let mut next = 0usize;
                    let mut take = || {
                        let op = ops[next % ops.len()];
                        next += 1;
                        op
                    };
                    for _ in 0..warm {
                        let ok = exec_op(map, &mut ctx, take(), t as u64, &mut seq, &mut scan_buf);
                        failed += u64::from(!ok);
                    }
                    let mut slices = empty_slices();
                    let mut spans = trace.then(|| SpanBuf::new(t as u64, span_capacity));

                    // Common start: the last thread to arrive stamps it.
                    if barrier.wait().is_leader() {
                        start_ns.store(origin.elapsed().as_nanos() as u64, Ordering::SeqCst);
                    }
                    barrier.wait();
                    let start = start_ns.load(Ordering::SeqCst);
                    let before = LayerCounts::of_ctx(&ctx);
                    let mut slice = 0usize;
                    let mut n = 0u64;
                    loop {
                        let op = take();
                        if n.is_multiple_of(TIMED_EVERY) {
                            // `slice` is where the last timed op ended.
                            let tracing = spans.is_some() && traced_slice(slice);
                            let counts_before = tracing.then(|| span_counts(&ctx));
                            let a = origin.elapsed().as_nanos() as u64;
                            let ok = exec_op(map, &mut ctx, op, t as u64, &mut seq, &mut scan_buf);
                            let b = origin.elapsed().as_nanos() as u64;
                            failed += u64::from(!ok);
                            slice = ((b - start) / slice_ns) as usize;
                            if slice >= SLICES {
                                break;
                            }
                            slices[slice].lat.record(b - a);
                            if let (Some(buf), Some(cb)) = (spans.as_mut(), counts_before) {
                                let counts = counts_between(cb, span_counts(&ctx));
                                let request = buf.next_id();
                                let name = OP_SPAN_NAMES[op.kind() as usize];
                                buf.push(0, request, name, a - start, b - start, counts);
                            }
                        } else {
                            let ok = exec_op(map, &mut ctx, op, t as u64, &mut seq, &mut scan_buf);
                            failed += u64::from(!ok);
                        }
                        slices[slice].ops += 1;
                        n += 1;
                    }
                    let counts = LayerCounts::of_ctx(&ctx).since(&before);
                    ctx.finish();
                    ThreadOut {
                        slices,
                        failed,
                        counts,
                        spans,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("wall-point worker panicked"))
            .collect()
    });

    let mut pass = WallPass {
        slices: empty_slices(),
        slice_s: slice_ns as f64 / 1e9,
        failed: 0,
        counts: LayerCounts::default(),
        spans: Vec::new(),
        spans_dropped: 0,
    };
    for out in outs {
        for (all, one) in pass.slices.iter_mut().zip(&out.slices) {
            all.ops += one.ops;
            all.lat.merge(&one.lat);
        }
        pass.failed += out.failed;
        pass.counts.add(&out.counts);
        if let Some(buf) = out.spans {
            pass.spans_dropped += buf.dropped;
            pass.spans.extend(buf.into_spans());
        }
    }
    pass
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Traffic;
    use euno_core::EunoBTreeDefault;

    #[test]
    fn a_short_pass_fills_every_slice_and_fails_nothing() {
        let rt = Runtime::new_concurrent();
        let tree = EunoBTreeDefault::new(Arc::clone(&rt));
        let streams = Traffic::Hot.streams(1, THREADS, 1 << 12);
        let place = Placement::detect();
        let spec = PassSpec {
            seed: 1,
            warm: 1_000,
            window_s: 0.2,
            trace: true,
        };
        let pass = run_pass(&tree, &rt, &streams, &spec, &place);
        assert_eq!(pass.failed, 0);
        assert!(pass.slices.iter().all(|s| s.ops > 0 && s.lat.count() > 0));
        assert!(pass.counts.commits > 0);
        // One span per timed op of the odd slices, give or take the op that
        // crosses each slice boundary on each thread.
        let timed_odd: u64 = pass
            .slices
            .iter()
            .skip(1)
            .step_by(2)
            .map(|s| s.lat.count())
            .sum();
        let spans = pass.spans.len() as u64 + pass.spans_dropped;
        assert!(
            spans.abs_diff(timed_odd) <= (SLICES * THREADS) as u64,
            "{spans} vs {timed_odd}"
        );
    }

    #[test]
    fn overhead_compares_odd_slices_with_even_ones() {
        let slices = [100.0, 90.0, 102.0, 91.0, 98.0, 89.0];
        assert!((trace_overhead(slices.into_iter()) - 0.1).abs() < 1e-12);
    }
}
