//! The abort taxonomy is defined once, as `euno_metrics::AbortClass`, and
//! every telemetry channel files an abort under the same class and name:
//! `AbortCause::class`, the `ABORTS_HTM` shard counter, the run report's
//! `aborts` key and the Chrome trace's `cause`.

use euno_htm::euno_metrics::{AbortClass, Counts, LogHistogram, ABORTS_HTM};
use euno_htm::{
    AbortCause, ConflictInfo, CostModel, LineId, RetryPolicy, Runtime, ThreadStats, TxCell,
};
use euno_sim::report::metrics_json;
use euno_sim::{chrome_trace, Json, RunMetrics, TraceBuf};

/// The run report's `aborts` section for one thread's counts.
fn report_aborts(counts: Counts) -> Json {
    let (cost, hist) = (CostModel::default(), LogHistogram::new());
    let m = RunMetrics::from_virtual(ThreadStats::default(), 1, counts, 1, &cost, hist);
    metrics_json(&m)
        .get("aborts")
        .cloned()
        .expect("an aborts section")
}

#[test]
fn abort_vocabulary_lines_up() {
    let conflict = |kind| {
        AbortCause::Conflict(ConflictInfo {
            line: LineId(1),
            kind,
            other_thread: None,
        })
    };
    let causes = [
        conflict(AbortClass::TrueSameRecord),
        conflict(AbortClass::FalseDifferentRecord),
        conflict(AbortClass::FalseMetadata),
        conflict(AbortClass::FalseStructure),
        conflict(AbortClass::UnclassifiedConflict),
        AbortCause::Capacity,
        AbortCause::Explicit(7),
        AbortCause::Spurious,
        AbortCause::FallbackLocked,
    ];
    assert_eq!(
        causes.map(AbortCause::class),
        AbortClass::ALL,
        "one cause per class, in index order"
    );
    for cause in causes {
        let class = cause.class();
        let mut counts = Counts::default();
        counts[ABORTS_HTM[class.index()]] += 1;
        assert_eq!((counts[class], counts.aborts()), (1, 1));
        let counter = ABORTS_HTM[class.index()].name();
        let bucket = counter.strip_prefix("aborts_htm_").unwrap();
        assert!(class.name().contains(bucket), "{counter} counts {class:?}");
        let aborts = report_aborts(counts);
        for other in AbortClass::ALL {
            let n = aborts.get(other.name()).and_then(Json::as_u64);
            assert_eq!(n, Some(u64::from(other == class)), "{cause:?}");
        }
    }

    // One aborted episode, end to end: the trace names its cause by the
    // report's key, and the shard counter and the report count it.
    let rt = Runtime::new_virtual();
    let mut ctx = rt.thread(1);
    ctx.set_tracer(Box::new(TraceBuf::new(ctx.id, 64)));
    let (fb, cell) = (TxCell::new(0u64), TxCell::new(0u64));
    ctx.htm_execute(&fb, &RetryPolicy::default(), |tx| {
        if !tx.is_fallback() {
            return tx.explicit_abort(1);
        }
        let v = tx.read(&cell)?;
        tx.write(&cell, v + 1)
    });
    let trace = ctx.take_tracer().unwrap().into_thread_trace();
    let doc = chrome_trace(&[trace]);
    let causes: Vec<&str> = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter(|e| e.get("name").and_then(Json::as_str) == Some("abort"))
        .filter_map(|e| e.get("args")?.get("cause")?.as_str())
        .collect();
    let explicit = AbortClass::Explicit;
    assert_eq!(causes, [explicit.name()]);
    assert_eq!(ctx.metric(ABORTS_HTM[explicit.index()]), 1);
    let reported = report_aborts(ctx.counts())
        .get(explicit.name())
        .and_then(Json::as_u64);
    assert_eq!(reported, Some(1));
}
