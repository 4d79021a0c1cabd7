//! Timestamped CCM bypass-flip ledger and the adaptation-lag derivation.
//!
//! Eunomia's CCM protects a leaf while it is contended and *bypasses*
//! prefetch-protection once it cools down. How fast those flips chase a
//! moving hotspot is the paper's adaptivity story (ROADMAP item 4): the
//! fig14 timeline programs hotspot rotations, marks each rotation tick
//! here as a [`FlipKind::ShiftMark`], and the CCM records every flip with
//! the flipping thread's clock. [`adaptation_lags`] then pairs each shift
//! with the first re-protect flip after it — the **adaptation lag**.
//!
//! The log is a fixed-capacity array of atomic slots claimed by
//! `fetch_add` — wait-free for writers, no allocation after construction.
//! In virtual mode recording is deterministic (the scheduler serializes
//! threads); in concurrent mode a slot's fields are written independently,
//! so a reader racing a writer could observe a partially-filled slot —
//! slots are therefore published with a release flag and unpublished
//! slots are skipped on read.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// What a flip-log entry records.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FlipKind {
    /// CCM re-protected a leaf (bypass → protect): contention detected.
    ToProtect,
    /// CCM disabled protection (protect → bypass): leaf went calm.
    ToBypass,
    /// A programmed hotspot rotation boundary (written by the workload
    /// driver, not the CCM) — the reference point lags are measured from.
    ShiftMark,
}

impl FlipKind {
    fn encode(self) -> u64 {
        match self {
            FlipKind::ToProtect => 0,
            FlipKind::ToBypass => 1,
            FlipKind::ShiftMark => 2,
        }
    }

    fn decode(v: u64) -> FlipKind {
        match v {
            0 => FlipKind::ToProtect,
            1 => FlipKind::ToBypass,
            _ => FlipKind::ShiftMark,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            FlipKind::ToProtect => "to_protect",
            FlipKind::ToBypass => "to_bypass",
            FlipKind::ShiftMark => "shift_mark",
        }
    }
}

/// One decoded flip-log entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FlipEvent {
    /// The recording thread's cycle clock at the moment of the flip
    /// (virtual cycles on the virtual backend).
    pub tick: u64,
    /// Leaf address (0 for shift marks).
    pub addr: u64,
    pub kind: FlipKind,
}

struct FlipSlot {
    tick: AtomicU64,
    addr: AtomicU64,
    kind: AtomicU64,
    ready: AtomicU64,
}

/// Fixed-capacity, wait-free event log for CCM flips and shift marks.
pub struct FlipLog {
    slots: Box<[FlipSlot]>,
    next: AtomicUsize,
}

impl FlipLog {
    pub const DEFAULT_CAPACITY: usize = 4096;

    pub fn new(capacity: usize) -> Self {
        let slots = (0..capacity.max(1))
            .map(|_| FlipSlot {
                tick: AtomicU64::new(0),
                addr: AtomicU64::new(0),
                kind: AtomicU64::new(0),
                ready: AtomicU64::new(0),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        FlipLog {
            slots,
            next: AtomicUsize::new(0),
        }
    }

    /// Append an event. Wait-free; events past capacity are dropped (and
    /// counted — see [`FlipLog::dropped`]).
    pub fn record(&self, tick: u64, addr: u64, kind: FlipKind) {
        let idx = self.next.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = self.slots.get(idx) {
            slot.tick.store(tick, Ordering::Relaxed);
            slot.addr.store(addr, Ordering::Relaxed);
            slot.kind.store(kind.encode(), Ordering::Relaxed);
            slot.ready.store(1, Ordering::Release);
        }
    }

    /// Number of published events (≤ capacity).
    pub fn len(&self) -> usize {
        self.next.load(Ordering::Relaxed).min(self.slots.len())
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Events that arrived after the log was full.
    pub fn dropped(&self) -> u64 {
        self.next
            .load(Ordering::Relaxed)
            .saturating_sub(self.slots.len()) as u64
    }

    /// Decode the published prefix (post-run; allocates). Slots still in
    /// flight (claimed but unpublished) are skipped.
    pub fn events(&self) -> Vec<FlipEvent> {
        self.slots[..self.len()]
            .iter()
            .filter(|s| s.ready.load(Ordering::Acquire) == 1)
            .map(|s| FlipEvent {
                tick: s.tick.load(Ordering::Relaxed),
                addr: s.addr.load(Ordering::Relaxed),
                kind: FlipKind::decode(s.kind.load(Ordering::Relaxed)),
            })
            .collect()
    }

    /// Clear the log (between runs on a reused runtime).
    pub fn reset(&self) {
        // Unpublish before releasing the slots so a racing reader never
        // sees a stale pair.
        for s in self.slots.iter() {
            s.ready.store(0, Ordering::Relaxed);
        }
        self.next.store(0, Ordering::Release);
    }
}

impl Default for FlipLog {
    fn default() -> Self {
        FlipLog::new(Self::DEFAULT_CAPACITY)
    }
}

/// One programmed hotspot shift and how the CCM responded.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AdaptationLag {
    /// Tick of the shift mark.
    pub shift_tick: u64,
    /// Tick of the first re-protect flip at or after the shift (before
    /// the next shift), if any.
    pub flip_tick: Option<u64>,
    /// `flip_tick - shift_tick`, if the CCM reacted in time.
    pub lag: Option<u64>,
}

/// Pair each shift mark with the first `ToProtect` flip that follows it
/// (strictly before the next shift mark): the **adaptation lag** of the
/// CCM after each programmed hotspot rotation.
///
/// Pure function over a decoded event list — exact in virtual mode, where
/// the log order is deterministic.
pub fn adaptation_lags(events: &[FlipEvent]) -> Vec<AdaptationLag> {
    let mut shifts: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == FlipKind::ShiftMark)
        .map(|e| e.tick)
        .collect();
    shifts.sort_unstable();
    let mut flips: Vec<u64> = events
        .iter()
        .filter(|e| e.kind == FlipKind::ToProtect)
        .map(|e| e.tick)
        .collect();
    flips.sort_unstable();

    shifts
        .iter()
        .enumerate()
        .map(|(i, &shift)| {
            let horizon = shifts.get(i + 1).copied().unwrap_or(u64::MAX);
            let flip_tick = flips.iter().copied().find(|&f| f >= shift && f < horizon);
            AdaptationLag {
                shift_tick: shift,
                flip_tick,
                lag: flip_tick.map(|f| f - shift),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_and_decodes_in_order() {
        let log = FlipLog::new(8);
        log.record(10, 0xabc, FlipKind::ToProtect);
        log.record(20, 0xdef, FlipKind::ToBypass);
        log.record(15, 0, FlipKind::ShiftMark);
        let ev = log.events();
        assert_eq!(ev.len(), 3);
        assert_eq!(
            ev[0],
            FlipEvent {
                tick: 10,
                addr: 0xabc,
                kind: FlipKind::ToProtect
            }
        );
        assert_eq!(ev[1].kind, FlipKind::ToBypass);
        assert_eq!(log.dropped(), 0);
    }

    #[test]
    fn overflow_drops_and_counts() {
        let log = FlipLog::new(2);
        for t in 0..5 {
            log.record(t, 0, FlipKind::ToProtect);
        }
        assert_eq!(log.len(), 2);
        assert_eq!(log.events().len(), 2);
        assert_eq!(log.dropped(), 3);
        log.reset();
        assert!(log.is_empty());
        assert_eq!(log.events().len(), 0);
    }

    #[test]
    fn lag_pairs_shift_with_first_reprotect() {
        let ev = [
            FlipEvent {
                tick: 100,
                addr: 0,
                kind: FlipKind::ShiftMark,
            },
            FlipEvent {
                tick: 90,
                addr: 1,
                kind: FlipKind::ToProtect,
            }, // before shift: ignored
            FlipEvent {
                tick: 130,
                addr: 2,
                kind: FlipKind::ToProtect,
            },
            FlipEvent {
                tick: 150,
                addr: 2,
                kind: FlipKind::ToBypass,
            },
            FlipEvent {
                tick: 200,
                addr: 0,
                kind: FlipKind::ShiftMark,
            },
            FlipEvent {
                tick: 260,
                addr: 3,
                kind: FlipKind::ToProtect,
            },
        ];
        let lags = adaptation_lags(&ev);
        assert_eq!(lags.len(), 2);
        assert_eq!(lags[0].lag, Some(30));
        assert_eq!(lags[1].lag, Some(60));
    }

    #[test]
    fn unanswered_shift_yields_none() {
        let ev = [
            FlipEvent {
                tick: 100,
                addr: 0,
                kind: FlipKind::ShiftMark,
            },
            FlipEvent {
                tick: 500,
                addr: 0,
                kind: FlipKind::ShiftMark,
            },
            // Only flip lands after the *second* shift.
            FlipEvent {
                tick: 510,
                addr: 1,
                kind: FlipKind::ToProtect,
            },
        ];
        let lags = adaptation_lags(&ev);
        assert_eq!(lags[0].lag, None);
        assert_eq!(lags[1].lag, Some(10));
    }

    #[test]
    fn concurrent_writers_never_produce_garbage() {
        let log = std::sync::Arc::new(FlipLog::new(64));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let log = log.clone();
                s.spawn(move || {
                    for i in 0..32u64 {
                        log.record(t * 1000 + i, t, FlipKind::ToProtect);
                    }
                });
            }
        });
        let ev = log.events();
        assert_eq!(ev.len(), 64);
        assert_eq!(log.dropped(), 64);
        for e in ev {
            assert!(e.addr < 4);
            assert_eq!(e.kind, FlipKind::ToProtect);
        }
    }
}
