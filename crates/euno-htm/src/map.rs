//! The common key-value interface all trees in this workspace implement.
//!
//! The paper evaluates four systems (Euno-B+Tree, HTM-B+Tree, Masstree,
//! HTM-Masstree) under one YCSB-style client (§5.1). This trait is that
//! client's view: word keys and values (8 bytes each, as in the paper),
//! point gets/puts/deletes and an ordered range scan.

use crate::ctx::ThreadCtx;

/// Reserved value meaning "deleted tombstone"; user values must be below.
pub const TOMBSTONE: u64 = u64::MAX;
/// Reserved key sentinel for empty slots; user keys must be below.
pub const KEY_SENTINEL: u64 = u64::MAX;

/// A concurrent ordered map of `u64 → u64`.
pub trait ConcurrentMap: Send + Sync {
    /// Point lookup.
    fn get(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64>;

    /// Insert or update; returns the previous value if the key existed.
    fn put(&self, ctx: &mut ThreadCtx, key: u64, value: u64) -> Option<u64>;

    /// Logical delete; returns the previous value if the key existed.
    fn delete(&self, ctx: &mut ThreadCtx, key: u64) -> Option<u64>;

    /// Ordered range scan: append up to `count` live records with
    /// `key ≥ from` to `out`, in ascending key order. Returns the number
    /// appended.
    fn scan(
        &self,
        ctx: &mut ThreadCtx,
        from: u64,
        count: usize,
        out: &mut Vec<(u64, u64)>,
    ) -> usize;

    /// Run one full structural-maintenance pass (deferred rebalancing,
    /// garbage sweeps) to completion on the calling thread and return how
    /// many structural changes it made. This is the call for a dedicated
    /// maintenance thread or a quiesced tree: its cost grows with the
    /// structure, so a tree that also maintains itself from foreground
    /// operations must bound that work per operation rather than call
    /// this inline. Maintenance must be a no-op on the abstract map
    /// contents. Trees without a maintenance concept keep the default.
    fn maintain(&self, _ctx: &mut ThreadCtx) -> u64 {
        0
    }

    /// Human-readable system name for benchmark tables.
    fn name(&self) -> &'static str;

    /// Memory accounting for the §5.7 experiment.
    fn memory(&self) -> MemoryReport {
        MemoryReport::default()
    }
}

/// Byte accounting per structure class, mirroring the §5.7 breakdown
/// (baseline structure vs. reserved keys vs. conflict-control module).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryReport {
    /// Bytes in tree nodes (keys, values, children, per-node headers).
    pub structural_bytes: usize,
    /// Bytes in conflict-control modules (mark + lock bit vectors).
    pub ccm_bytes: usize,
    /// Bytes currently held by transient reserved-key buffers.
    pub reserved_live_bytes: usize,
    /// High-water mark of transient reserved-key buffers.
    pub reserved_peak_bytes: usize,
    /// Cumulative bytes ever allocated for reserved-key buffers.
    pub reserved_cumulative_bytes: usize,
    /// Bytes of retired nodes awaiting their grace period (unlinked but
    /// not yet freed by the epoch collector).
    pub retired_pending_bytes: usize,
    /// Cumulative bytes actually freed by the epoch collector.
    pub reclaimed_bytes: usize,
}

impl MemoryReport {
    pub fn total_live(&self) -> usize {
        self.structural_bytes + self.ccm_bytes + self.reserved_live_bytes
    }

    /// Overhead of the Eunomia auxiliaries relative to the bare structure,
    /// as a fraction (the paper reports 2.2 %–7.6 %).
    pub fn overhead_fraction(&self) -> f64 {
        if self.structural_bytes == 0 {
            0.0
        } else {
            (self.ccm_bytes + self.reserved_peak_bytes) as f64 / self.structural_bytes as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_fraction_math() {
        let r = MemoryReport {
            structural_bytes: 1000,
            ccm_bytes: 30,
            reserved_live_bytes: 0,
            reserved_peak_bytes: 20,
            reserved_cumulative_bytes: 500,
            retired_pending_bytes: 64,
            reclaimed_bytes: 128,
        };
        assert!((r.overhead_fraction() - 0.05).abs() < 1e-12);
        assert_eq!(r.total_live(), 1030);
    }

    #[test]
    fn zero_structure_is_zero_overhead() {
        assert_eq!(MemoryReport::default().overhead_fraction(), 0.0);
    }
}
