//! Word-sized transactional cells.
//!
//! Every shared mutable location in every tree is a [`TxCell`], a
//! `repr(transparent)` wrapper over an `AtomicU64`. Two design forces pick
//! this representation:
//!
//! * The paper's workload uses 8-byte keys and 8-byte values (§5.1), and
//!   all tree bookkeeping (counts, versions, bit vectors, node pointers)
//!   fits a machine word, so a cell holds a `u64`, takes no type parameter
//!   (a node pointer goes through [`NodeRef::to_word`](crate::NodeRef::to_word)),
//!   and is `Send` and `Sync` because its `AtomicU64` is.
//! * Conflict detection is *address based*: a cell's cache line is derived
//!   from its own address, so arrays of cells inside a node share lines
//!   exactly like the C++ layout the paper measured — false sharing is
//!   reproduced by construction, not simulated by a parameter.
//!
//! Cells offer two access families with different semantics:
//!
//! * **Transactional** — through [`Tx::read`](crate::ctx::Tx::read) /
//!   [`Tx::write`](crate::ctx::Tx::write): write-buffered, validated,
//!   abortable.
//! * **Direct** — [`TxCell::load_direct`] etc.: immediate, strongly atomic
//!   (TSX §2.1 "strong atomicity": a direct write to a line inside some
//!   transaction's footprint aborts that transaction — the engine's
//!   validation reproduces this). Used for the CCM bit vectors and advisory
//!   locks, which the algorithms manipulate *outside* HTM regions.
//!
//! A given cell should be written through exactly one family for the whole
//! program (reads may mix); the trees in this workspace follow that
//! discipline and it is asserted in debug builds of the engine.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::ctx::ThreadCtx;
use crate::line::LineId;
use crate::lock::LockWord;

/// A word-sized shared cell participating in HTM conflict detection.
#[repr(transparent)]
#[derive(Default)]
pub struct TxCell {
    raw: AtomicU64,
}

impl TxCell {
    pub fn new(v: u64) -> Self {
        TxCell {
            raw: AtomicU64::new(v),
        }
    }

    /// The cache line this cell occupies — derived from its real address.
    #[inline]
    pub fn line(&self) -> LineId {
        LineId::of_ptr(self.raw_ptr())
    }

    #[inline]
    pub(crate) fn raw_ptr(&self) -> *const AtomicU64 {
        &self.raw as *const AtomicU64
    }

    #[inline]
    pub(crate) fn raw(&self) -> &AtomicU64 {
        &self.raw
    }

    #[inline]
    fn cas(w: &AtomicU64, old: u64, new: u64) -> bool {
        w.compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
    }

    /// Uninstrumented load. For single-threaded setup, assertions and
    /// statistics only — charges no cycles and records no footprint.
    #[inline]
    pub fn load_plain(&self) -> u64 {
        self.raw.load(Ordering::Acquire)
    }

    /// Uninstrumented store. For single-threaded setup only.
    #[inline]
    pub fn store_plain(&self, v: u64) {
        self.raw.store(v, Ordering::Release)
    }

    /// Direct (non-transactional) load: immediate, charged, recorded in the
    /// current episode's read footprint if one is open.
    #[inline]
    pub fn load_direct(&self, ctx: &mut ThreadCtx) -> u64 {
        ctx.direct_load(self.raw_ptr())
    }

    /// Direct (non-transactional) store. Strongly atomic with respect to
    /// running transactions.
    #[inline]
    pub fn store_direct(&self, ctx: &mut ThreadCtx, v: u64) {
        ctx.direct_write(self.raw_ptr(), false, |w| {
            (w.store(v, Ordering::Release), true)
        })
    }

    /// Direct compare-and-swap; returns whether the swap happened.
    #[inline]
    pub fn cas_direct(&self, ctx: &mut ThreadCtx, old: u64, new: u64) -> bool {
        ctx.direct_write(self.raw_ptr(), true, |w| {
            let ok = Self::cas(w, old, new);
            (ok, ok)
        })
    }

    /// Direct store that is *protocol-invisible*: charged and recorded in
    /// the current episode's footprint, but not published as a point write
    /// to the virtual conflict window. For writes whose observable value is
    /// unchanged for validating readers (e.g. clearing a version word's
    /// lock bit without bumping its counters): the cache line is
    /// invalidated physically, but an optimistic protocol validating the
    /// *value* sees nothing.
    #[inline]
    pub fn store_direct_quiet(&self, ctx: &mut ThreadCtx, v: u64) {
        ctx.direct_write(self.raw_ptr(), false, |w| {
            (w.store(v, Ordering::Release), false)
        })
    }

    /// Quiet counterpart of [`TxCell::cas_direct`]; see
    /// [`TxCell::store_direct_quiet`].
    #[inline]
    pub fn cas_direct_quiet(&self, ctx: &mut ThreadCtx, old: u64, new: u64) -> bool {
        ctx.direct_write(self.raw_ptr(), true, |w| (Self::cas(w, old, new), false))
    }

    /// Direct fetch-or on the underlying word (bit-vector manipulation).
    #[inline]
    pub fn fetch_or_direct(&self, ctx: &mut ThreadCtx, bits: u64) -> u64 {
        ctx.direct_write(self.raw_ptr(), true, |w| {
            (w.fetch_or(bits, Ordering::AcqRel), true)
        })
    }

    /// Direct fetch-and on the underlying word.
    #[inline]
    pub fn fetch_and_direct(&self, ctx: &mut ThreadCtx, bits: u64) -> u64 {
        ctx.direct_write(self.raw_ptr(), true, |w| {
            (w.fetch_and(bits, Ordering::AcqRel), true)
        })
    }

    /// Direct fetch-add on the underlying word.
    #[inline]
    pub fn fetch_add_direct(&self, ctx: &mut ThreadCtx, n: u64) -> u64 {
        ctx.direct_write(self.raw_ptr(), true, |w| {
            (w.fetch_add(n, Ordering::AcqRel), true)
        })
    }

    /// This word as an advisory lock: for a lock that lives among a node's
    /// other words rather than in a field of its own (a Euno leaf's split
    /// lock rides a key line's spare words).
    #[inline]
    pub fn as_lock(&self) -> &LockWord {
        // SAFETY: `LockWord` is `repr(transparent)` over `TxCell`: one layout.
        unsafe { &*(self as *const TxCell as *const LockWord) }
    }
}

impl std::fmt::Debug for TxCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "TxCell({:?})", self.load_plain())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plain_load_store() {
        let c = TxCell::new(11u64);
        assert_eq!(c.load_plain(), 11);
        c.store_plain(99);
        assert_eq!(c.load_plain(), 99);
    }

    #[test]
    fn cell_is_word_sized() {
        // repr(transparent) over AtomicU64: arrays of cells are contiguous,
        // so 8 consecutive cells share at most two cache lines — the layout
        // property the whole false-sharing analysis rests on.
        assert_eq!(std::mem::size_of::<TxCell>(), 8);
        let arr: [TxCell; 8] = Default::default();
        let distinct: std::collections::HashSet<_> = arr.iter().map(|c| c.line()).collect();
        assert!(distinct.len() <= 2);
    }

    #[test]
    fn adjacent_cells_share_lines() {
        let arr: Vec<TxCell> = (0..16).map(TxCell::new).collect();
        // At least one pair of neighbours must share a line.
        assert!((1..16).any(|i| arr[i].line() == arr[i - 1].line()));
    }
}
