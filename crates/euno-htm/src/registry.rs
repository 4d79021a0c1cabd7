//! The node table: one ordered map from cache line to registered node.
//!
//! The abort taxonomy (paper §2.3) asks one question about a conflicting
//! line — which node is it in, and is that part of the node record,
//! metadata or structure — and the contention profiler asks the same
//! question about an address. Both are point lookups on abort or
//! reporting paths, so the table is a plain `RwLock<BTreeMap>` keyed by a
//! node's first line: one entry per node, written once per node
//! allocation, O(log n) to read, and nothing retained beyond the live
//! entries.
//!
//! **Eviction.** Live nodes are line-aligned and never share a line, so an
//! entry overlapping a new registration can only describe a freed node
//! whose memory the allocator handed out again: a registration removes
//! every entry it overlaps, whole. A stale entry therefore never answers
//! for a line of the node that replaced it.

use std::collections::BTreeMap;
use std::sync::{RwLock, RwLockReadGuard};

use crate::line::{common_lines, LineClass, LineId};

/// Most parts one node is described by (a header, its records and a
/// trailer).
const MAX_PARTS: usize = 3;

/// A line's deterministic identity: `(node registration id, line offset
/// within the node)`. Registration order and in-node offsets are
/// functions of the program's deterministic behaviour, not of where the
/// allocator placed a node — so ordering lines by rank is stable across
/// heap layouts, ASLR, and allocation-pattern changes, where ordering by
/// raw line id (address) is not. Unregistered lines fall back to address
/// order in the `u64::MAX` bucket.
pub(crate) type LineRank = (u64, u64);

struct NodeEntry {
    /// One past the node's last line (the map key is its first).
    end: u64,
    /// Registration sequence number: the major half of [`LineRank`].
    id: u64,
    /// Byte range, for address → node attribution.
    base: u64,
    len: u64,
    /// `(first line, class)` of each part in address order; unused
    /// trailing slots hold `u64::MAX` so no line selects them.
    parts: [(u64, LineClass); MAX_PARTS],
    /// The node the contention profiler attributes addresses here to:
    /// this one's base, another's (a side block attributed to its leaf),
    /// or none.
    owner: Option<u64>,
}

#[derive(Default)]
struct Nodes {
    by_first_line: BTreeMap<u64, NodeEntry>,
    next_id: u64,
}

#[derive(Default)]
pub(crate) struct NodeTable {
    nodes: RwLock<Nodes>,
}

impl NodeTable {
    /// Publish one node occupying `[base, base + len)`: `parts` lists
    /// `(byte offset of the part's start, class)` in address order,
    /// starting at offset 0. A line two parts share belongs to the later
    /// one. `owner` is the base the profiler attributes the node's
    /// addresses to, if any. Replaces every entry the new node's lines
    /// overlap. The whole node becomes visible at once — a concurrent
    /// lookup sees all of it or none of it.
    pub(crate) fn register(
        &self,
        base: usize,
        len: usize,
        parts: &[(usize, LineClass)],
        owner: Option<usize>,
    ) {
        assert!(
            !parts.is_empty() && parts.len() <= MAX_PARTS && parts[0].0 == 0,
            "a node has 1..={MAX_PARTS} parts, the first at offset 0"
        );
        if len == 0 {
            return;
        }
        let line_of = |off: usize| LineId::of_addr(base + off).0;
        let (first, end) = (line_of(0), line_of(len - 1) + 1);
        let mut slots = [(u64::MAX, LineClass::Unknown); MAX_PARTS];
        for (slot, &(off, class)) in slots.iter_mut().zip(parts) {
            debug_assert!(off < len, "part starts inside the node");
            *slot = (line_of(off), class);
        }
        debug_assert!(
            slots.windows(2).all(|w| w[0].0 <= w[1].0),
            "parts are listed in address order"
        );

        let mut guard = self.nodes.write().expect("node table poisoned");
        let nodes = &mut *guard;
        // Entries are disjoint and sorted, so the overlapped ones are the
        // run ending at the last entry that starts before `end`.
        while let Some((&k, e)) = nodes.by_first_line.range(..end).next_back() {
            if e.end <= first {
                break;
            }
            nodes.by_first_line.remove(&k);
        }
        let entry = NodeEntry {
            end,
            id: nodes.next_id,
            base: base as u64,
            len: len as u64,
            parts: slots,
            owner: owner.map(|o| o as u64),
        };
        nodes.next_id += 1;
        nodes.by_first_line.insert(first, entry);
    }

    /// A consistent view for one or more lookups: conflict resolution
    /// picks the line and reads its class under one.
    #[inline]
    pub(crate) fn read(&self) -> NodeTableRead<'_> {
        NodeTableRead(self.nodes.read().expect("node table poisoned"))
    }
}

pub(crate) struct NodeTableRead<'a>(RwLockReadGuard<'a, Nodes>);

impl NodeTableRead<'_> {
    /// The node whose line span contains `line`, with its first line.
    #[inline]
    fn node_of(&self, line: LineId) -> Option<(u64, &NodeEntry)> {
        let (&first, e) = self.0.by_first_line.range(..=line.0).next_back()?;
        (line.0 < e.end).then_some((first, e))
    }

    #[inline]
    pub(crate) fn class_of(&self, line: LineId) -> LineClass {
        self.node_of(line).map_or(LineClass::Unknown, |(_, e)| {
            let part = e.parts.iter().rev().find(|p| p.0 <= line.0);
            part.expect("a node's first part starts at its first line")
                .1
        })
    }

    /// Deterministic rank of a line (see [`LineRank`]).
    #[inline]
    pub(crate) fn rank_of(&self, line: LineId) -> LineRank {
        match self.node_of(line) {
            Some((first, e)) => (e.id, line.0 - first),
            None => (u64::MAX, line.0),
        }
    }

    /// The common line of `a` and `b` with the smallest [`LineRank`], if
    /// the sets intersect. This is the engine's canonical "which line do I
    /// report for this conflict" rule: unlike *smallest line id* (heap
    /// address order — sensitive to allocator placement), the answer is a
    /// deterministic function of the simulated schedule.
    pub(crate) fn best_common_line(&self, a: &[LineId], b: &[LineId]) -> Option<LineId> {
        common_lines(a, b).min_by_key(|&line| self.rank_of(line))
    }

    /// Base address of the node the profiler attributes `addr` to.
    pub(crate) fn object_base_of(&self, addr: u64) -> Option<u64> {
        let (_, e) = self.node_of(LineId::of_addr(addr as usize))?;
        e.owner.filter(|_| e.base <= addr && addr - e.base < e.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::line::LineSet;
    use LineClass::{Metadata, Record, Structure, Unknown};

    fn classes(r: &NodeTableRead<'_>, lines: std::ops::Range<u64>) -> Vec<LineClass> {
        lines.map(|l| r.class_of(LineId(l))).collect()
    }

    #[test]
    fn class_exact_overwrite_and_disjoint_ranges() {
        let t = NodeTable::default();
        t.register(5 * 64, 3 * 64, &[(0, Metadata)], None);
        t.register(5 * 64, 3 * 64, &[(0, Record)], None); // same span, new class
        t.register(100 * 64, 64, &[(0, Structure)], None);
        let r = t.read();
        let want = [Unknown, Record, Record, Record, Unknown];
        assert_eq!(classes(&r, 4..9), want);
        assert_eq!(r.class_of(LineId(100)), Structure);
        assert_eq!(r.0.by_first_line.len(), 2);
    }

    #[test]
    fn parts_split_a_node_and_rank_by_offset() {
        let t = NodeTable::default();
        t.register(20 * 64, 64, &[(0, Structure)], None);
        let leaf = [(0, Metadata), (64, Record), (192, Metadata)];
        t.register(10 * 64, 4 * 64, &leaf, Some(10 * 64));
        let r = t.read();
        let want = [Unknown, Metadata, Record, Record, Metadata, Unknown];
        assert_eq!(classes(&r, 9..15), want);
        // Ranks follow registration order, then offset — not address.
        assert_eq!(r.rank_of(LineId(20)), (0, 0));
        assert_eq!(r.rank_of(LineId(10)), (1, 0));
        assert_eq!(r.rank_of(LineId(13)), (1, 3));
        assert_eq!(r.rank_of(LineId(14)), (u64::MAX, 14));
        let a: LineSet = [LineId(12), LineId(14), LineId(20)].into_iter().collect();
        let b: LineSet = [LineId(14), LineId(20), LineId(12)].into_iter().collect();
        assert_eq!(
            r.best_common_line(a.as_slice(), b.as_slice()),
            Some(LineId(20))
        );
    }

    #[test]
    fn object_boundary_addresses() {
        let t = NodeTable::default();
        t.register(0x1000, 256, &[(0, Record)], Some(0x1000));
        t.register(0x2000, 40, &[(0, Record)], Some(0x2000));
        t.register(0x3000, 64, &[(0, Record)], None);
        // A side block, attributed to the node that owns it.
        t.register(0x4000, 64, &[(0, Metadata)], Some(0x1000));
        let r = t.read();
        // First and last byte of each range resolve; one past does not.
        assert_eq!(r.object_base_of(0x1000), Some(0x1000));
        assert_eq!(r.object_base_of(0x10ff), Some(0x1000));
        assert_eq!(r.object_base_of(0x1100), None);
        assert_eq!(r.object_base_of(0x0fff), None);
        assert_eq!(r.object_base_of(0x2027), Some(0x2000));
        // Same line as the node, past its last byte.
        assert_eq!(r.object_base_of(0x2028), None);
        // Classified but not attributed.
        assert_eq!(r.object_base_of(0x3000), None);
        assert_eq!(r.class_of(LineId(0x3000 / 64)), Record);
        assert_eq!(r.object_base_of(0x4008), Some(0x1000));
        assert_eq!(r.object_base_of(0x4040), None);
        assert_eq!(r.class_of(LineId(0x4000 / 64)), Metadata);
    }

    #[test]
    fn object_reregistration_shrinks() {
        let t = NodeTable::default();
        t.register(0x1000, 256, &[(0, Record)], Some(0x1000));
        assert_eq!(t.read().object_base_of(0x10ff), Some(0x1000));
        // Reused allocation: same base, smaller node. The old tail must
        // stop resolving.
        t.register(0x1000, 64, &[(0, Record)], Some(0x1000));
        let r = t.read();
        assert_eq!(r.0.by_first_line.len(), 1);
        assert_eq!(r.object_base_of(0x103f), Some(0x1000));
        assert_eq!(r.object_base_of(0x1040), None);
        assert_eq!(r.object_base_of(0x10ff), None);
    }

    /// Profiler mis-attribution under churn: an internal node reusing a
    /// freed leaf's address used to leave the leaf's object entry behind.
    #[test]
    fn reuse_with_different_size_evicts_the_stale_node() {
        let t = NodeTable::default();
        let leaf = [(0, Metadata), (64, Record), (192, Metadata)];
        t.register(0x4000, 4 * 64, &leaf, Some(0x4000));
        assert_eq!(t.read().object_base_of(0x4000), Some(0x4000));
        t.register(0x4000, 2 * 64, &[(0, Structure)], None);
        let r = t.read();
        assert_eq!(r.object_base_of(0x4000), None);
        let want = [Structure, Structure, Unknown, Unknown];
        assert_eq!(classes(&r, 0x100..0x104), want);
    }

    #[test]
    fn concurrent_register_and_classify() {
        // One thread re-registers the same base with two different
        // layouts while another classifies. Under one read view the
        // classifier must see a whole registration — never the record
        // part of one with the CCM line or attribution of the other.
        let t = NodeTable::default();
        let leaf = [(0, Metadata), (64, Record), (192, Metadata)];
        std::thread::scope(|s| {
            s.spawn(|| {
                for i in 0..2_000 {
                    if i % 2 == 0 {
                        t.register(0, 256, &[(0, Structure)], None);
                    } else {
                        t.register(0, 256, &leaf, Some(0));
                    }
                }
            });
            for _ in 0..20_000 {
                let r = t.read();
                let seen = (classes(&r, 0..4), r.object_base_of(8));
                drop(r);
                let whole = [
                    (vec![Unknown; 4], None),
                    (vec![Structure; 4], None),
                    (vec![Metadata, Record, Record, Metadata], Some(0)),
                ];
                assert!(whole.contains(&seen), "torn registration: {seen:?}");
            }
        });
        // The writer's last iteration (1999, odd) registered the leaf.
        assert_eq!(t.read().class_of(LineId(3)), Metadata);
    }
}
