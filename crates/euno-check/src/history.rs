//! Operation history capture.
//!
//! Each stress thread drives a [`Recorder`] beside its `ThreadCtx`,
//! bracketing every map operation with [`Recorder::invoke`] /
//! [`Recorder::respond`]. The recorder stamps both events with a ticket
//! from one shared atomic counter — a total order on history events that
//! is consistent with real time (the `fetch_add` for a response happens
//! after the operation's last memory effect, the invocation ticket before
//! its first). Completed operations buffer locally (no cross-thread
//! traffic on the hot path beyond the ticket counter) and flush into the
//! shared sink when the recorder drops.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

pub use euno_trace::OpKind;

/// The value an operation returned to the client.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum OpOutput {
    /// `get`/`put`/`delete`: the (previous) value, if any.
    Value(Option<u64>),
    /// `scan`: the records delivered, in delivery order.
    Scan(Vec<(u64, u64)>),
    /// `maintain` and other counters (merges performed).
    Count(u64),
}

/// One completed operation: invocation/response interval plus payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CompletedOp {
    pub thread: u32,
    pub kind: OpKind,
    /// Target key (scan: range start).
    pub key: u64,
    /// Second argument (put: value; scan: max count).
    pub arg: u64,
    /// Invocation ticket — drawn before the operation touched the tree.
    pub inv: u64,
    /// Response ticket — drawn after the operation returned.
    pub ret: u64,
    pub output: OpOutput,
}

/// Shared destination for completed operations from all threads.
pub type HistorySink = Arc<Mutex<Vec<CompletedOp>>>;

/// Create an empty sink and the ticket clock that recorders share.
pub fn new_sink() -> (HistorySink, Arc<AtomicU64>) {
    (
        Arc::new(Mutex::new(Vec::new())),
        Arc::new(AtomicU64::new(0)),
    )
}

/// One thread's recorder of invocation/response pairs.
pub struct Recorder {
    thread: u32,
    clock: Arc<AtomicU64>,
    sink: HistorySink,
    /// The op announced by `invoke`, awaiting its response.
    pending: Option<(OpKind, u64, u64, u64)>,
    done: Vec<CompletedOp>,
}

impl Recorder {
    pub fn new(thread: u32, clock: Arc<AtomicU64>, sink: HistorySink) -> Self {
        Recorder {
            thread,
            clock,
            sink,
            pending: None,
            done: Vec::new(),
        }
    }

    /// Push buffered operations into the sink now (also runs on drop).
    pub fn flush(&mut self) {
        if !self.done.is_empty() {
            self.sink.lock().unwrap().append(&mut self.done);
        }
    }

    /// An operation is about to start. `key` is its target key (for scans,
    /// the range start) and `arg` its second argument (put value / scan
    /// count), 0 otherwise.
    pub fn invoke(&mut self, kind: OpKind, key: u64, arg: u64) {
        debug_assert!(self.pending.is_none(), "nested invocation");
        let inv = self.clock.fetch_add(1, Ordering::AcqRel);
        self.pending = Some((kind, key, arg, inv));
    }

    /// The operation the last `invoke` announced has returned `output`.
    pub fn respond(&mut self, output: OpOutput) {
        let (kind, key, arg, inv) = self
            .pending
            .take()
            .expect("response without a matching invocation");
        let ret = self.clock.fetch_add(1, Ordering::AcqRel);
        self.done.push(CompletedOp {
            thread: self.thread,
            kind,
            key,
            arg,
            inv,
            ret,
            output,
        });
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recorder_stamps_and_flushes_on_drop() {
        let (sink, clock) = new_sink();
        {
            let mut r = Recorder::new(3, Arc::clone(&clock), Arc::clone(&sink));
            r.invoke(OpKind::Put, 10, 99);
            r.respond(OpOutput::Value(None));
            r.invoke(OpKind::Get, 10, 0);
            r.respond(OpOutput::Value(Some(99)));
            assert!(sink.lock().unwrap().is_empty(), "buffers until drop");
        }
        let h = sink.lock().unwrap();
        assert_eq!(h.len(), 2);
        assert_eq!(h[0].kind, OpKind::Put);
        assert!(h[0].inv < h[0].ret);
        assert!(
            h[0].ret < h[1].inv,
            "sequential ops have disjoint intervals"
        );
        assert_eq!(h[1].output, OpOutput::Value(Some(99)));
    }

    #[test]
    fn tickets_are_globally_unique_across_threads() {
        let (sink, clock) = new_sink();
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let (clock, sink) = (Arc::clone(&clock), Arc::clone(&sink));
                s.spawn(move || {
                    let mut r = Recorder::new(t, clock, sink);
                    for i in 0..500u64 {
                        r.invoke(OpKind::Put, i, i);
                        r.respond(OpOutput::Value(None));
                    }
                });
            }
        });
        let h = sink.lock().unwrap();
        assert_eq!(h.len(), 2_000);
        let mut stamps: Vec<u64> = h.iter().flat_map(|o| [o.inv, o.ret]).collect();
        stamps.sort_unstable();
        stamps.dedup();
        assert_eq!(stamps.len(), 4_000, "no ticket reuse");
    }
}
