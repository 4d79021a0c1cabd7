//! Outside-in span trace: the benchmark's own record of when it called
//! into each layer. Spans go into a preallocated in-memory buffer during
//! the traced pass and are written out when the run ends.
//!
//! A span is `{id, parent, request, name, start, end}` in cycles (virtual
//! clock) or ns (wall clock) plus the count deltas (`attempts`, `aborts`,
//! `accesses`, `fallbacks`) read from public counters at the same two
//! boundaries. A layer's *self time* is its span's duration minus the part
//! of that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write;

use crate::hist::Hist;

/// Count deltas at a span's boundaries: attempts, aborts, accesses,
/// fallbacks.
pub type Counts = [u64; 4];

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    /// Shared by all spans of one request / op.
    pub request: u64,
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub counts: Counts,
}

/// One thread's span buffer. Full buffers drop (and count) further spans
/// rather than allocate inside a timed window.
pub struct SpanBuf {
    spans: Vec<Span>,
    /// High bits of every id, so buffers of different threads never clash.
    base: u64,
    pub dropped: u64,
}

impl SpanBuf {
    pub fn new(thread: u64, capacity: usize) -> Self {
        SpanBuf {
            spans: Vec::with_capacity(capacity),
            base: (thread + 1) << 40,
            dropped: 0,
        }
    }

    /// Record a span; returns its id (0 when dropped) for use as `parent`.
    pub fn push(
        &mut self,
        parent: u64,
        request: u64,
        name: &'static str,
        start: u64,
        end: u64,
        counts: Counts,
    ) -> u64 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return 0;
        }
        let id = self.base + self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            request,
            name,
            start,
            end: end.max(start),
            counts,
        });
        id
    }

    /// The id the next `push` will return, so a root recorded after its
    /// children can still be named as their parent.
    pub fn next_id(&self) -> u64 {
        self.base + self.spans.len() as u64 + 1
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-span-name summary of a trace.
pub struct NameSummary {
    pub name: &'static str,
    pub count: u64,
    pub total: u64,
    pub self_time: u64,
    pub p50: u64,
    pub p99: u64,
}

/// Self time of every span: duration minus the union of its children's
/// intervals, clipped to the span. Returned in `spans` order.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start, s.end));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.end - s.start;
            };
            kids.sort_unstable();
            let (mut covered, mut upto) = (0u64, s.start);
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(upto), b.min(s.end));
                if b > a {
                    covered += b - a;
                    upto = b;
                }
            }
            (s.end - s.start) - covered
        })
        .collect()
}

pub fn summarize(spans: &[Span]) -> Vec<NameSummary> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<&'static str, (NameSummary, Hist)> = BTreeMap::new();
    for (s, &self_time) in spans.iter().zip(&selfs) {
        let (sum, hist) = by_name.entry(s.name).or_insert_with(|| {
            (
                NameSummary {
                    name: s.name,
                    count: 0,
                    total: 0,
                    self_time: 0,
                    p50: 0,
                    p99: 0,
                },
                Hist::new(),
            )
        });
        sum.count += 1;
        sum.total += s.end - s.start;
        sum.self_time += self_time;
        hist.record(s.end - s.start);
    }
    by_name
        .into_values()
        .map(|(mut sum, hist)| {
            sum.p50 = hist.quantile(0.5) as u64;
            sum.p99 = hist.quantile(0.99) as u64;
            sum
        })
        .collect()
}

/// One JSON object per line; `unit` names the clock of `start`/`end`.
/// With `append` the lines are added to an existing file.
pub fn write_jsonl(
    path: &std::path::Path,
    spans: &[Span],
    unit: &str,
    append: bool,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let file = std::fs::OpenOptions::new()
        .create(true)
        .write(true)
        .append(append)
        .truncate(!append)
        .open(path)?;
    let mut w = std::io::BufWriter::new(file);
    for s in spans {
        let [attempts, aborts, accesses, fallbacks] = s.counts;
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\
             \"unit\":\"{unit}\",\"attempts\":{attempts},\"aborts\":{aborts},\
             \"accesses\":{accesses},\"fallbacks\":{fallbacks}}}",
            s.id, s.parent, s.request, s.name, s.start, s.end,
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut buf = SpanBuf::new(0, 16);
        let root = buf.next_id();
        // Children overlap each other and one sticks out past the parent.
        buf.push(0, 1, "request", 100, 200, [0; 4]);
        buf.push(root, 1, "submit", 100, 120, [0; 4]);
        buf.push(root, 1, "inflight", 110, 150, [0; 4]);
        buf.push(root, 1, "reap", 190, 230, [0; 4]);
        let lone = buf.push(0, 2, "request", 300, 310, [0; 4]);
        assert_ne!(lone, 0);
        let spans = buf.into_spans();
        assert_eq!(spans[0].id, root);
        // Cover = [100,150] ∪ [190,200] = 60 → self = 40.
        assert_eq!(self_times(&spans), vec![40, 20, 40, 40, 10]);
        let sums = summarize(&spans);
        let req = sums.iter().find(|s| s.name == "request").unwrap();
        assert_eq!((req.count, req.total, req.self_time), (2, 110, 50));
    }

    #[test]
    fn a_full_buffer_drops_and_counts() {
        let mut buf = SpanBuf::new(3, 1);
        assert_ne!(buf.push(0, 1, "a", 0, 1, [0; 4]), 0);
        assert_eq!(buf.push(0, 2, "a", 1, 2, [0; 4]), 0);
        assert_eq!(buf.dropped, 1);
        assert_eq!(buf.into_spans().len(), 1);
    }

    #[test]
    fn ids_of_different_threads_never_clash() {
        let (mut a, mut b) = (SpanBuf::new(0, 2), SpanBuf::new(1, 2));
        assert_ne!(
            a.push(0, 1, "x", 0, 1, [0; 4]),
            b.push(0, 1, "x", 0, 1, [0; 4])
        );
    }
}
