//! Trace exporters: Chrome trace-event JSON and a flamegraph-style
//! folded rollup.
//!
//! The Chrome format (one object per event, `ph` phase letter, `ts`
//! timestamp) loads directly into Perfetto / `chrome://tracing`.
//! Timestamps are virtual cycles written into the `ts` microsecond
//! field — absolute units don't matter for inspection, relative spans
//! do; `otherData.clock` records the convention. Episodes and client
//! operations become `B`/`E` duration pairs (per-thread event order is
//! the ring order, so pairing is well-defined); waits whose length is
//! known at emission (backoff, lock wait, fallback wait) become `X`
//! complete events ending at the emission timestamp; everything else is
//! an instant.
//!
//! The folded rollup is the classic `stack;frame value` format: one
//! line per distinct stack, cycle-weighted where the event stream
//! carries durations, count-weighted otherwise — small enough to eyeball
//! in CI logs, structured enough for any flamegraph renderer.

use std::collections::BTreeMap;

use crate::event::{EpisodeKind, EventKind, OpKind};
use crate::json::Json;
use crate::ring::ThreadTrace;

fn field(k: &str, v: Json) -> (String, Json) {
    (k.to_string(), v)
}

fn chrome_event(name: &str, ph: &str, ts: u64, tid: u32, args: Vec<(String, Json)>) -> Json {
    let mut fields = vec![
        field("name", Json::str(name)),
        field("ph", Json::str(ph)),
        field("ts", Json::u64(ts)),
        field("pid", Json::u64(0)),
        field("tid", Json::u64(u64::from(tid))),
    ];
    if ph == "i" {
        // Thread-scoped instant: renders as a tick on the thread track.
        fields.push(field("s", Json::str("t")));
    }
    if !args.is_empty() {
        fields.push(field("args", Json::Obj(args)));
    }
    Json::Obj(fields)
}

fn span_event(name: &str, end_ts: u64, dur: u64, tid: u32) -> Json {
    let mut ev = chrome_event(name, "X", end_ts.saturating_sub(dur), tid, vec![]);
    if let Json::Obj(fields) = &mut ev {
        fields.push(field("dur", Json::u64(dur.max(1))));
    }
    ev
}

fn hex(addr: u64) -> Json {
    Json::str(format!("{addr:#x}"))
}

/// Build a Chrome trace-event document from finished thread traces.
pub fn chrome_trace(traces: &[ThreadTrace]) -> Json {
    let mut events = Vec::new();
    for t in traces {
        events.push(chrome_event(
            "thread_name",
            "M",
            0,
            t.thread,
            vec![field("name", Json::str(format!("thread {}", t.thread)))],
        ));
        for ev in &t.events {
            let tid = t.thread;
            match ev.kind {
                EventKind::EpisodeBegin { kind } => {
                    events.push(chrome_event(kind.name(), "B", ev.ts, tid, vec![]));
                }
                EventKind::EpisodeCommit { kind } => {
                    events.push(chrome_event(
                        kind.name(),
                        "E",
                        ev.ts,
                        tid,
                        vec![field("outcome", Json::str("commit"))],
                    ));
                }
                EventKind::EpisodeAbort {
                    kind,
                    cause,
                    line_addr,
                } => {
                    events.push(chrome_event(
                        kind.name(),
                        "E",
                        ev.ts,
                        tid,
                        vec![field("outcome", Json::str("abort"))],
                    ));
                    let mut args = vec![field("cause", Json::str(cause.name()))];
                    if line_addr != 0 {
                        args.push(field("line", hex(line_addr)));
                    }
                    events.push(chrome_event("abort", "i", ev.ts, tid, args));
                }
                EventKind::Backoff { cycles } => {
                    events.push(span_event("backoff", ev.ts, cycles, tid));
                }
                EventKind::FallbackWait { cycles } => {
                    events.push(span_event("fallback_wait", ev.ts, cycles, tid));
                }
                EventKind::LockAcquire { addr, wait_cycles } => {
                    if wait_cycles > 0 {
                        events.push(span_event("lock_wait", ev.ts, wait_cycles, tid));
                    }
                    events.push(chrome_event(
                        "lock_acquire",
                        "i",
                        ev.ts,
                        tid,
                        vec![field("lock", hex(addr))],
                    ));
                }
                EventKind::LockRelease { addr } => {
                    events.push(chrome_event(
                        "lock_release",
                        "i",
                        ev.ts,
                        tid,
                        vec![field("lock", hex(addr))],
                    ));
                }
                EventKind::CcmFlip { addr, bypass } => {
                    events.push(chrome_event(
                        "ccm_bypass_flip",
                        "i",
                        ev.ts,
                        tid,
                        vec![field("ccm", hex(addr)), field("bypass", Json::Bool(bypass))],
                    ));
                }
                EventKind::Split { left, right } => {
                    events.push(chrome_event(
                        "split",
                        "i",
                        ev.ts,
                        tid,
                        vec![field("left", hex(left)), field("right", hex(right))],
                    ));
                }
                EventKind::Merge { left, right } => {
                    events.push(chrome_event(
                        "merge",
                        "i",
                        ev.ts,
                        tid,
                        vec![field("left", hex(left)), field("right", hex(right))],
                    ));
                }
                EventKind::Reorg { leaf } => {
                    events.push(chrome_event(
                        "reorg",
                        "i",
                        ev.ts,
                        tid,
                        vec![field("leaf", hex(leaf))],
                    ));
                }
                EventKind::Maintain { merges } => {
                    events.push(chrome_event(
                        "maintain",
                        "i",
                        ev.ts,
                        tid,
                        vec![field("merges", Json::u64(merges))],
                    ));
                }
                EventKind::OpBegin { kind, key } => {
                    events.push(chrome_event(
                        &format!("op:{}", kind.name()),
                        "B",
                        ev.ts,
                        tid,
                        vec![field("key", Json::u64(key))],
                    ));
                }
                EventKind::OpEnd => {
                    events.push(chrome_event("op", "E", ev.ts, tid, vec![]));
                }
                EventKind::SchedStep { clock } => {
                    events.push(chrome_event(
                        "sched_step",
                        "i",
                        ev.ts,
                        tid,
                        vec![field("clock", Json::u64(clock))],
                    ));
                }
                EventKind::EpochAdvance { epoch } => {
                    events.push(chrome_event(
                        "epoch_advance",
                        "i",
                        ev.ts,
                        tid,
                        vec![field("epoch", Json::u64(epoch))],
                    ));
                }
                EventKind::EpochReclaim { nodes, bytes } => {
                    events.push(chrome_event(
                        "epoch_reclaim",
                        "i",
                        ev.ts,
                        tid,
                        vec![
                            field("nodes", Json::u64(nodes)),
                            field("bytes", Json::u64(bytes)),
                        ],
                    ));
                }
                EventKind::ReadRetry { key } => {
                    events.push(chrome_event(
                        "read_retry",
                        "i",
                        ev.ts,
                        tid,
                        vec![field("key", Json::u64(key))],
                    ));
                }
                EventKind::BatchExec { ops, batched } => {
                    events.push(chrome_event(
                        "batch_exec",
                        "i",
                        ev.ts,
                        tid,
                        vec![
                            field("ops", Json::u64(u64::from(ops))),
                            field("batched", Json::u64(u64::from(batched))),
                        ],
                    ));
                }
            }
        }
    }
    Json::Obj(vec![
        field("traceEvents", Json::Arr(events)),
        field("displayTimeUnit", Json::str("ns")),
        field(
            "otherData",
            Json::Obj(vec![field("clock", Json::str("virtual-cycles-as-us"))]),
        ),
    ])
}

/// Check that `text` is a loadable Chrome trace-event document produced
/// by [`chrome_trace`]: parses as JSON, has a non-empty `traceEvents`
/// array, and every event carries the required fields.
pub fn validate_chrome_trace(text: &str) -> Result<(), String> {
    let doc = Json::parse(text)?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("trace: traceEvents must be an array")?;
    if events.is_empty() {
        return Err("trace: traceEvents is empty".into());
    }
    for (i, ev) in events.iter().enumerate() {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            ev.get(key)
                .ok_or_else(|| format!("trace: traceEvents[{i}] missing {key:?}"))?;
        }
        let ph = ev.get("ph").and_then(Json::as_str).unwrap_or("");
        if ph == "X" && ev.get("dur").is_none() {
            return Err(format!("trace: traceEvents[{i}] is 'X' without dur"));
        }
    }
    Ok(())
}

/// Write `traces` as a Chrome trace-event file at `path`, validated by
/// [`validate_chrome_trace`] first, with its [`folded_rollup`] next to it
/// at `<path>.folded`.
pub fn write_trace(path: &str, traces: &[ThreadTrace]) -> std::io::Result<()> {
    let chrome = chrome_trace(traces).to_pretty();
    validate_chrome_trace(&chrome).map_err(std::io::Error::other)?;
    std::fs::write(path, chrome)?;
    std::fs::write(format!("{path}.folded"), folded_rollup(traces))
}

/// Cycle-weighted folded stacks (`stack;frame value`), deterministic
/// order. Episode/op durations are reconstructed from begin/end pairs;
/// waits use their carried cycle counts; structural events count 1.
pub fn folded_rollup(traces: &[ThreadTrace]) -> String {
    let mut stacks: BTreeMap<String, u64> = BTreeMap::new();
    for t in traces {
        let tn = format!("thread_{}", t.thread);
        // Reconstruct episode spans: per-thread events are ordered, and
        // episodes do not nest within a thread.
        let mut open_episode: Option<(EpisodeKind, u64)> = None;
        let mut open_op: Option<(OpKind, u64)> = None;
        for ev in &t.events {
            match ev.kind {
                EventKind::EpisodeBegin { kind } => open_episode = Some((kind, ev.ts)),
                EventKind::EpisodeCommit { kind } | EventKind::EpisodeAbort { kind, .. } => {
                    let outcome = match ev.kind {
                        EventKind::EpisodeCommit { .. } => "commit".to_string(),
                        EventKind::EpisodeAbort { cause, .. } => cause.name().to_string(),
                        _ => unreachable!(),
                    };
                    // Tolerate a begin lost to ring overwrite: weight 1.
                    let dur = match open_episode.take() {
                        Some((k, begin)) if k == kind => ev.ts.saturating_sub(begin).max(1),
                        _ => 1,
                    };
                    *stacks
                        .entry(format!("{tn};{};{outcome}", kind.name()))
                        .or_default() += dur;
                }
                EventKind::Backoff { cycles } => {
                    *stacks.entry(format!("{tn};backoff")).or_default() += cycles.max(1);
                }
                EventKind::FallbackWait { cycles } => {
                    *stacks.entry(format!("{tn};fallback_wait")).or_default() += cycles.max(1);
                }
                EventKind::LockAcquire { wait_cycles, .. } if wait_cycles > 0 => {
                    *stacks.entry(format!("{tn};lock_wait")).or_default() += wait_cycles;
                }
                EventKind::CcmFlip { .. } => {
                    *stacks.entry(format!("{tn};ccm_bypass_flip")).or_default() += 1;
                }
                EventKind::Split { .. } => {
                    *stacks.entry(format!("{tn};split")).or_default() += 1;
                }
                EventKind::Merge { .. } => {
                    *stacks.entry(format!("{tn};merge")).or_default() += 1;
                }
                EventKind::Reorg { .. } => {
                    *stacks.entry(format!("{tn};reorg")).or_default() += 1;
                }
                EventKind::EpochReclaim { nodes, .. } => {
                    *stacks.entry(format!("{tn};epoch_reclaim")).or_default() += nodes.max(1);
                }
                EventKind::ReadRetry { .. } => {
                    *stacks.entry(format!("{tn};read_retry")).or_default() += 1;
                }
                EventKind::OpBegin { kind, .. } => open_op = Some((kind, ev.ts)),
                EventKind::OpEnd => {
                    if let Some((kind, begin)) = open_op.take() {
                        *stacks
                            .entry(format!("{tn};op_{}", kind.name()))
                            .or_default() += ev.ts.saturating_sub(begin).max(1);
                    }
                }
                _ => {}
            }
        }
    }
    let mut out = String::new();
    for (stack, value) in stacks {
        out.push_str(&stack);
        out.push(' ');
        out.push_str(&value.to_string());
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Event;
    use euno_metrics::AbortClass;

    fn sample_traces() -> Vec<ThreadTrace> {
        let mk = |ts, kind| Event {
            ts,
            thread: 0,
            kind,
        };
        vec![ThreadTrace {
            thread: 0,
            dropped: 0,
            total: 8,
            events: vec![
                mk(
                    10,
                    EventKind::OpBegin {
                        kind: OpKind::Put,
                        key: 42,
                    },
                ),
                mk(
                    11,
                    EventKind::EpisodeBegin {
                        kind: EpisodeKind::HtmTx,
                    },
                ),
                mk(
                    40,
                    EventKind::EpisodeAbort {
                        kind: EpisodeKind::HtmTx,
                        cause: AbortClass::TrueSameRecord,
                        line_addr: 0x4040,
                    },
                ),
                mk(90, EventKind::Backoff { cycles: 50 }),
                mk(
                    91,
                    EventKind::EpisodeBegin {
                        kind: EpisodeKind::HtmTx,
                    },
                ),
                mk(
                    130,
                    EventKind::EpisodeCommit {
                        kind: EpisodeKind::HtmTx,
                    },
                ),
                mk(
                    131,
                    EventKind::LockAcquire {
                        addr: 0x4000,
                        wait_cycles: 20,
                    },
                ),
                mk(140, EventKind::OpEnd),
            ],
        }]
    }

    #[test]
    fn chrome_export_roundtrips_through_parser() {
        let doc = chrome_trace(&sample_traces());
        let text = doc.to_pretty();
        validate_chrome_trace(&text).unwrap();
        let parsed = Json::parse(&text).unwrap();
        assert_eq!(parsed, doc, "export must round-trip bit-exactly");
        let events = parsed.get("traceEvents").unwrap().as_arr().unwrap();
        // metadata + 8 source events, some expanding to 2 chrome events.
        assert!(events.len() >= 9, "got {}", events.len());
        // B/E pairing balances per phase letter.
        let count = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
                .count()
        };
        assert_eq!(count("B"), count("E"), "begin/end pairs must balance");
        assert!(count("X") >= 2, "backoff and lock_wait become spans");
    }

    #[test]
    fn validate_rejects_junk() {
        assert!(validate_chrome_trace("not json").is_err());
        assert!(validate_chrome_trace("{}").is_err());
        assert!(validate_chrome_trace("{\"traceEvents\": []}").is_err());
        assert!(
            validate_chrome_trace("{\"traceEvents\": [{\"name\": \"x\"}]}").is_err(),
            "events missing ph/ts/pid/tid must fail"
        );
    }

    #[test]
    fn folded_rollup_weights_by_cycles() {
        let text = folded_rollup(&sample_traces());
        // Aborted episode: 40-11 = 29 cycles under the cause name.
        assert!(
            text.contains("thread_0;htm_tx;true_same_record 29"),
            "{text}"
        );
        // Committed episode: 130-91 = 39 cycles.
        assert!(text.contains("thread_0;htm_tx;commit 39"), "{text}");
        assert!(text.contains("thread_0;backoff 50"), "{text}");
        assert!(text.contains("thread_0;lock_wait 20"), "{text}");
        // The op span: 140-10 = 130 cycles.
        assert!(text.contains("thread_0;op_put 130"), "{text}");
    }
}
