//! The hot-leaf contention profiler.
//!
//! Aggregate counters can say "2.3 aborts per op"; this profiler says
//! *leaf `0x7f3a…` ate 61 % of them*. It walks the finished event
//! stream and attributes every address-carrying event — conflict aborts
//! (the conflicting cache line), lock acquisitions (the lock cell),
//! CCM bypass flips (the CCM word), splits and merges (the leaf header)
//! — to the object covering that address.
//!
//! Attribution rules (DESIGN.md §13):
//!
//! * The caller supplies `resolve: addr → Option<object base>` — in
//!   practice `Runtime::object_base_of`, backed by the node table
//!   that `EunoLeaf::register` populates. This crate never learns what
//!   a leaf *is*, only which base address owns an event.
//! * Events whose address resolves to no registered object (baseline
//!   trees, the global fallback lock, internal nodes) are pooled under
//!   `unattributed` rather than dropped — the profile's totals always
//!   add up to the event stream's.
//! * Non-conflict aborts (capacity, spurious, explicit, fallback-locked)
//!   carry no line address and also land in `unattributed`.
//! * Leaves are ranked by abort count, then lock-wait cycles, then CCM
//!   flips — the order the paper's Figures 2/9 care about.

use std::collections::HashMap;

use crate::event::{Event, EventKind};
use crate::ring::ThreadTrace;

/// Contention charged to one leaf (or to the unattributed pool).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LeafCounters {
    /// HTM aborts whose conflicting line falls inside the leaf.
    pub aborts: u64,
    /// Cycles spent waiting for locks homed in the leaf (split lock, CCM
    /// lock bits).
    pub lock_wait_cycles: u64,
    /// Lock acquisitions (contended or not).
    pub lock_acquires: u64,
    /// Adaptive-detector bypass flips on the leaf's CCM.
    pub ccm_flips: u64,
    pub splits: u64,
    pub merges: u64,
}

impl LeafCounters {
    pub fn is_zero(&self) -> bool {
        *self == LeafCounters::default()
    }
}

/// The ranked hot-leaf table plus stream accounting.
#[derive(Clone, Debug, Default)]
pub struct LeafProfile {
    /// `(leaf base address, counters)`, hottest first.
    pub leaves: Vec<(u64, LeafCounters)>,
    /// Events that resolved to no registered object.
    pub unattributed: LeafCounters,
    /// Events inspected (sum over threads of retained events).
    pub events_seen: u64,
    /// Events lost to ring overwrites before collection.
    pub events_dropped: u64,
}

impl LeafProfile {
    /// Top `n` rows (for printing).
    pub fn top(&self, n: usize) -> &[(u64, LeafCounters)] {
        &self.leaves[..self.leaves.len().min(n)]
    }

    /// A human-readable ranked table (used by `--profile` on the stress
    /// binary and handy in test failures).
    pub fn render(&self, top: usize) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<18} {:>9} {:>15} {:>9} {:>9} {:>7} {:>7}",
            "leaf", "aborts", "lock_wait_cyc", "acquires", "ccm_flips", "splits", "merges"
        );
        for (addr, c) in self.top(top) {
            let _ = writeln!(
                out,
                "{:<18} {:>9} {:>15} {:>9} {:>9} {:>7} {:>7}",
                format!("{addr:#x}"),
                c.aborts,
                c.lock_wait_cycles,
                c.lock_acquires,
                c.ccm_flips,
                c.splits,
                c.merges
            );
        }
        let u = &self.unattributed;
        let _ = writeln!(
            out,
            "{:<18} {:>9} {:>15} {:>9} {:>9} {:>7} {:>7}",
            "(unattributed)",
            u.aborts,
            u.lock_wait_cycles,
            u.lock_acquires,
            u.ccm_flips,
            u.splits,
            u.merges
        );
        let _ = writeln!(
            out,
            "events: {} seen, {} dropped",
            self.events_seen, self.events_dropped
        );
        out
    }
}

/// Build the profile from finished thread traces. `resolve` maps an
/// address to the base of the registered object containing it (`None` ⇒
/// unattributed).
pub fn build_profile(traces: &[ThreadTrace], resolve: impl Fn(u64) -> Option<u64>) -> LeafProfile {
    let mut by_leaf: HashMap<u64, LeafCounters> = HashMap::new();
    let mut unattributed = LeafCounters::default();
    let mut seen = 0u64;
    let mut dropped = 0u64;

    let mut charge = |addr: u64, f: &dyn Fn(&mut LeafCounters)| match resolve(addr) {
        Some(base) if addr != 0 => f(by_leaf.entry(base).or_default()),
        _ => f(&mut unattributed),
    };

    for t in traces {
        dropped += t.dropped;
        for ev in &t.events {
            seen += 1;
            apply_event(ev, &mut charge);
        }
    }

    let mut leaves: Vec<(u64, LeafCounters)> = by_leaf.into_iter().collect();
    leaves.sort_by(|(aa, a), (ba, b)| {
        (b.aborts, b.lock_wait_cycles, b.ccm_flips, *aa).cmp(&(
            a.aborts,
            a.lock_wait_cycles,
            a.ccm_flips,
            *ba,
        ))
    });
    LeafProfile {
        leaves,
        unattributed,
        events_seen: seen,
        events_dropped: dropped,
    }
}

fn apply_event(ev: &Event, charge: &mut impl FnMut(u64, &dyn Fn(&mut LeafCounters))) {
    match ev.kind {
        EventKind::EpisodeAbort {
            cause, line_addr, ..
        } => {
            let addr = if cause.is_conflict() { line_addr } else { 0 };
            charge(addr, &|c| c.aborts += 1);
        }
        EventKind::LockAcquire { addr, wait_cycles } => {
            charge(addr, &move |c| {
                c.lock_acquires += 1;
                c.lock_wait_cycles += wait_cycles;
            });
        }
        EventKind::CcmFlip { addr, .. } => charge(addr, &|c| c.ccm_flips += 1),
        EventKind::Split { left, .. } => charge(left, &|c| c.splits += 1),
        EventKind::Merge { left, .. } => charge(left, &|c| c.merges += 1),
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EpisodeKind;
    use euno_metrics::AbortClass;

    fn trace(events: Vec<Event>) -> ThreadTrace {
        ThreadTrace {
            thread: 0,
            total: events.len() as u64,
            dropped: 0,
            events,
        }
    }

    fn ev(kind: EventKind) -> Event {
        Event {
            ts: 0,
            thread: 0,
            kind,
        }
    }

    /// Two fake leaves at 0x1000 and 0x2000, each 256 bytes.
    fn resolve(addr: u64) -> Option<u64> {
        [(0x1000u64, 256u64), (0x2000, 256)]
            .iter()
            .find(|&&(base, len)| addr >= base && addr < base + len)
            .map(|&(base, _)| base)
    }

    #[test]
    fn attributes_and_ranks_by_aborts() {
        let t = trace(vec![
            ev(EventKind::EpisodeAbort {
                kind: EpisodeKind::HtmTx,
                cause: AbortClass::TrueSameRecord,
                line_addr: 0x2040, // leaf 2
            }),
            ev(EventKind::EpisodeAbort {
                kind: EpisodeKind::HtmTx,
                cause: AbortClass::FalseMetadata,
                line_addr: 0x2080, // leaf 2 again
            }),
            ev(EventKind::EpisodeAbort {
                kind: EpisodeKind::HtmTx,
                cause: AbortClass::FalseDifferentRecord,
                line_addr: 0x1010, // leaf 1
            }),
            ev(EventKind::LockAcquire {
                addr: 0x1040,
                wait_cycles: 500,
            }),
            ev(EventKind::CcmFlip {
                addr: 0x20c0,
                bypass: false,
            }),
        ]);
        let p = build_profile(&[t], resolve);
        assert_eq!(p.events_seen, 5);
        assert_eq!(p.leaves.len(), 2);
        // Leaf 2 has 2 aborts → ranked first.
        assert_eq!(p.leaves[0].0, 0x2000);
        assert_eq!(p.leaves[0].1.aborts, 2);
        assert_eq!(p.leaves[0].1.ccm_flips, 1);
        assert_eq!(p.leaves[1].0, 0x1000);
        assert_eq!(p.leaves[1].1.aborts, 1);
        assert_eq!(p.leaves[1].1.lock_wait_cycles, 500);
        assert_eq!(p.leaves[1].1.lock_acquires, 1);
        assert!(p.unattributed.is_zero());
    }

    #[test]
    fn unresolved_and_capacity_aborts_pool_unattributed() {
        let t = trace(vec![
            // Address outside both leaves.
            ev(EventKind::EpisodeAbort {
                kind: EpisodeKind::HtmTx,
                cause: AbortClass::TrueSameRecord,
                line_addr: 0x9000,
            }),
            // Capacity abort: no meaningful address.
            ev(EventKind::EpisodeAbort {
                kind: EpisodeKind::HtmTx,
                cause: AbortClass::Capacity,
                line_addr: 0x1010, // must be ignored: not a conflict
            }),
            ev(EventKind::LockAcquire {
                addr: 0x8888,
                wait_cycles: 9,
            }),
        ]);
        let p = build_profile(&[t], resolve);
        assert!(p.leaves.is_empty());
        assert_eq!(p.unattributed.aborts, 2);
        assert_eq!(p.unattributed.lock_wait_cycles, 9);
    }

    #[test]
    fn splits_merges_and_drops_accounted() {
        let mut t = trace(vec![
            ev(EventKind::Split {
                left: 0x1000,
                right: 0x2000,
            }),
            ev(EventKind::Merge {
                left: 0x1000,
                right: 0x2000,
            }),
        ]);
        t.dropped = 7;
        t.total += 7;
        let p = build_profile(&[t], resolve);
        assert_eq!(p.events_dropped, 7);
        assert_eq!(p.leaves[0].1.splits, 1);
        assert_eq!(p.leaves[0].1.merges, 1);
        let rendered = p.render(10);
        assert!(rendered.contains("0x1000"), "{rendered}");
        assert!(rendered.contains("7 dropped"), "{rendered}");
    }
}
