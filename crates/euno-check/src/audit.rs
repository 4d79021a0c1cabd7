//! Cross-time structural audits.
//!
//! (The single-snapshot audit — locks, chain, parents, key order, marks,
//! and the placement of every record on its key's probe path — is
//! `EunoBTree::audit_quiescent`; `stress` runs it at quiescence and folds
//! its findings into the same "invariants" verdict as the watches here.)
//!
//! [`SeqnoWatch`] consumes address-keyed leaf seqno snapshots (from
//! `EunoBTree::leaf_seqnos_plain`) taken before, during, and after a
//! stress run and verifies monotonicity: a leaf's seqno is the version
//! glue between the two-step traversal's upper and lower HTM regions, so
//! any observed decrease means a traversal could validate against a
//! version that never supersedes the one it cached.
//!
//! Each snapshot is the *full* live chain. An address identifies one leaf
//! only while it stays on the chain: merged leaves are handed to the
//! epoch collector and their addresses can be reused by later
//! allocations, so an address that disappears from a snapshot and later
//! reappears is treated as a fresh leaf (its baseline resets). A seqno
//! decrease is only a violation when the address was continuously
//! present — which is exactly the case where the memory is guaranteed to
//! still be the same leaf.
//!
//! [`IndexWatch`] consumes index-node snapshots (from
//! `EunoBTree::index_lows_plain`) taken at quiescent points and holds the
//! tree to what subtree hints assume of it: an index node, once seen, is
//! in every later snapshot, with the same lower bound. A thread may start
//! a walk at an index node it remembers from any earlier operation,
//! checking nothing but what the walk itself reads — so a tree that one
//! day merges, unlinks or re-bounds index nodes must fail here, in a test,
//! and not in a reader.

use std::collections::{BTreeMap, HashMap, HashSet};

/// Accumulates seqno snapshots and records monotonicity violations.
#[derive(Default)]
pub struct SeqnoWatch {
    high_water: HashMap<usize, u64>,
    /// Addresses present in the most recent snapshot.
    live: HashSet<usize>,
    violations: Vec<String>,
}

impl SeqnoWatch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one full live-chain snapshot (order irrelevant).
    pub fn observe(&mut self, snapshot: &[(usize, u64)]) {
        let mut next_live = HashSet::with_capacity(snapshot.len());
        for &(addr, seq) in snapshot {
            next_live.insert(addr);
            match self.high_water.get_mut(&addr) {
                Some(hw) if self.live.contains(&addr) => {
                    if seq < *hw {
                        self.violations
                            .push(format!("leaf {addr:#x} seqno went backwards: {hw} → {seq}"));
                    } else {
                        *hw = seq;
                    }
                }
                _ => {
                    // First sighting, or a reappearance after the address
                    // left the chain (reclaimed + reused): new identity.
                    self.high_water.insert(addr, seq);
                }
            }
        }
        self.live = next_live;
    }

    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Number of distinct leaf sightings ever observed (a reused address
    /// counts once — identities, not allocations).
    pub fn leaves_seen(&self) -> usize {
        self.high_water.len()
    }
}

/// Accumulates index-node snapshots and records nodes that disappeared
/// or whose lower bound changed.
#[derive(Default)]
pub struct IndexWatch {
    /// The latest snapshot (ordered, so that findings print in one order).
    lows: BTreeMap<usize, u64>,
    violations: Vec<String>,
}

impl IndexWatch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed one full snapshot of a quiescent tree (order irrelevant).
    /// Each finding is reported once: the new snapshot is the baseline
    /// for the next.
    pub fn observe(&mut self, snapshot: &[(usize, u64)]) {
        let now: BTreeMap<usize, u64> = snapshot.iter().copied().collect();
        for (addr, was) in &self.lows {
            match now.get(addr) {
                None => self.violations.push(format!(
                    "index node {addr:#x} (low {was}) left the tree: subtree hints may still name it"
                )),
                Some(low) if low != was => self.violations.push(format!(
                    "index node {addr:#x} changed its lower bound: {was} → {low}"
                )),
                Some(_) => {}
            }
        }
        self.lows = now;
    }

    pub fn violations(&self) -> &[String] {
        &self.violations
    }

    /// Number of distinct index nodes in the latest snapshot.
    pub fn nodes_seen(&self) -> usize {
        self.lows.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_growing_index_with_fixed_lows_is_clean() {
        // A root, then its split under a new root, then a split below:
        // nodes only ever join, and each keeps the bound it came with.
        let mut w = IndexWatch::new();
        w.observe(&[]);
        w.observe(&[(0x1000, 0)]);
        w.observe(&[(0x3000, 0), (0x1000, 0), (0x2000, 500)]);
        w.observe(&[(0x3000, 0), (0x1000, 0), (0x4000, 250), (0x2000, 500)]);
        assert!(w.violations().is_empty(), "{:?}", w.violations());
        assert_eq!(w.nodes_seen(), 4);
    }

    #[test]
    fn a_vanished_index_node_is_flagged() {
        // What merging two index nodes would look like.
        let mut w = IndexWatch::new();
        w.observe(&[(0x3000, 0), (0x1000, 0), (0x2000, 500)]);
        w.observe(&[(0x3000, 0), (0x1000, 0)]);
        assert_eq!(w.violations().len(), 1, "{:?}", w.violations());
        assert!(w.violations()[0].contains("0x2000"));
        assert!(w.violations()[0].contains("left the tree"));
        w.observe(&[(0x3000, 0), (0x1000, 0)]);
        assert_eq!(w.violations().len(), 1, "reported once");
    }

    #[test]
    fn a_moved_lower_bound_is_flagged() {
        // What re-distributing children between index siblings would.
        let mut w = IndexWatch::new();
        w.observe(&[(0x3000, 0), (0x1000, 0), (0x2000, 500)]);
        w.observe(&[(0x3000, 0), (0x1000, 0), (0x2000, 400)]);
        assert_eq!(w.violations().len(), 1, "{:?}", w.violations());
        assert!(w.violations()[0].contains("500 → 400"));
        w.observe(&[(0x3000, 0), (0x1000, 0), (0x2000, 400)]);
        assert_eq!(w.violations().len(), 1, "reported once");
    }

    #[test]
    fn monotone_snapshots_are_clean() {
        let mut w = SeqnoWatch::new();
        w.observe(&[(0x1000, 0), (0x2000, 3)]);
        w.observe(&[(0x1000, 2), (0x2000, 3), (0x3000, 0)]);
        w.observe(&[(0x1000, 2), (0x3000, 5)]);
        assert!(w.violations().is_empty());
        assert_eq!(w.leaves_seen(), 3);
    }

    #[test]
    fn backwards_seqno_is_flagged() {
        let mut w = SeqnoWatch::new();
        w.observe(&[(0x1000, 4)]);
        w.observe(&[(0x1000, 3)]);
        assert_eq!(w.violations().len(), 1);
        assert!(w.violations()[0].contains("seqno went backwards"));
    }

    #[test]
    fn reused_address_resets_its_baseline() {
        // A leaf at 0x2000 reaches seqno 9, is merged away (absent from
        // the next snapshot), and the allocator hands its address to a
        // brand-new leaf starting at seqno 0. Not a violation — but a
        // subsequent decrease on the *new* leaf still is.
        let mut w = SeqnoWatch::new();
        w.observe(&[(0x1000, 1), (0x2000, 9)]);
        w.observe(&[(0x1000, 1)]);
        w.observe(&[(0x1000, 2), (0x2000, 0)]);
        assert!(w.violations().is_empty(), "{:?}", w.violations());
        w.observe(&[(0x1000, 2), (0x2000, 4)]);
        w.observe(&[(0x1000, 2), (0x2000, 3)]);
        assert_eq!(w.violations().len(), 1);
    }
}
