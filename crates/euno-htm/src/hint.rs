//! A per-thread, direct-mapped cache of a few words per `(owner, key
//! block)`.
//!
//! The engine knows nothing about what the words mean — a data structure
//! stores whatever lets its next operation on a nearby key skip work (the
//! Euno-B+Tree keeps the leaf its last walk ended on in a table of
//! [`Hint`]s, and the index node a walk for the key's neighbourhood may
//! start at in a table of [`Anchor`]s) and is alone responsible for
//! re-validating them before use. A table is thread-private scratch like
//! the episode pool: it lives on the [`ThreadCtx`](crate::ThreadCtx) — not
//! in a `thread_local!`, because the virtual scheduler runs many logical
//! threads on one OS thread — is allocated by the first
//! [`HintTable::record`] and never grows.
//!
//! Nothing here is keyed by an address: the slot index comes from the key
//! block and the owner id, and owner ids come from a process-wide counter,
//! so what collides with what does not depend on heap layout.

use std::sync::atomic::{AtomicU64, Ordering};

/// Payload words of an entry of the wide table and of the narrow one.
pub const HINT_WORDS: usize = 5;
pub const ANCHOR_WORDS: usize = 2;

/// What one entry of the wide table carries; the owner defines the meaning.
pub type Hint = [u64; HINT_WORDS];

/// What one entry of the narrow table carries.
pub type Anchor = [u64; ANCHOR_WORDS];

/// Entries per table (a power of two): 1 024 × 56 B = 56 KiB of [`Hint`]s
/// and 1 024 × 32 B = 32 KiB of [`Anchor`]s a thread. Swept together with
/// the Euno-B+Tree's two key-block sizes; tables in DESIGN.md §4.4.
const SLOTS: usize = 1024;

/// Tag of a slot nothing was recorded in ([`fresh_owner`] never returns it).
const NO_OWNER: u64 = 0;

static NEXT_OWNER: AtomicU64 = AtomicU64::new(NO_OWNER + 1);

/// A process-unique owner id for a structure that records hints. Never
/// re-issued — unlike the structure's address, which a later instance may
/// be handed — so entries of a dropped owner can never serve a new one.
pub fn fresh_owner() -> u64 {
    // Relaxed: the counter publishes nothing but its own value.
    NEXT_OWNER.fetch_add(1, Ordering::Relaxed)
}

struct Slot<const WORDS: usize> {
    owner: u64,
    block: u64,
    words: [u64; WORDS],
}

/// The table. One entry per slot: a record overwrites whatever was there.
pub struct HintTable<const WORDS: usize> {
    /// Empty until the first record, `SLOTS` long from then on.
    slots: Vec<Slot<WORDS>>,
}

impl<const WORDS: usize> Default for HintTable<WORDS> {
    fn default() -> Self {
        HintTable { slots: Vec::new() }
    }
}

impl<const WORDS: usize> HintTable<WORDS> {
    /// Blocks spread by a multiplicative hash, each owner's image rotated
    /// by its id: which blocks of one owner collide is the same for every
    /// id, and two owners holding the same keys do not evict each other.
    #[inline]
    fn index(owner: u64, block: u64) -> usize {
        let spread = block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - SLOTS.trailing_zeros());
        (spread.wrapping_add(owner) as usize) & (SLOTS - 1)
    }

    /// The words last recorded for exactly `(owner, block)`, if they are
    /// still in their slot.
    #[inline]
    pub fn probe(&self, owner: u64, block: u64) -> Option<[u64; WORDS]> {
        let slot = self.slots.get(Self::index(owner, block))?;
        (slot.owner == owner && slot.block == block).then_some(slot.words)
    }

    /// Allocate the slots, if nothing has yet. [`HintTable::record`] does
    /// this itself; a thread with two tables reserves the other one along
    /// with it, so that past its first record of either kind it never
    /// allocates for a hint again.
    pub fn reserve(&mut self) {
        if self.slots.is_empty() {
            let empty = || Slot {
                owner: NO_OWNER,
                block: 0,
                words: [0; WORDS],
            };
            self.slots = std::iter::repeat_with(empty).take(SLOTS).collect();
        }
    }

    /// Store `words` for `(owner, block)`, replacing the slot's entry.
    pub fn record(&mut self, owner: u64, block: u64, words: [u64; WORDS]) {
        debug_assert_ne!(owner, NO_OWNER, "owner ids come from fresh_owner()");
        self.reserve();
        self.slots[Self::index(owner, block)] = Slot {
            owner,
            block,
            words,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The implementation is one; the tests run it at the wider width.
    const WORDS: usize = HINT_WORDS;
    type Table = HintTable<WORDS>;

    /// Two blocks of `owner` that share a slot.
    fn colliding_blocks(owner: u64) -> (u64, u64) {
        let first = Table::index(owner, 0);
        let other = (1..u64::MAX)
            .find(|&b| Table::index(owner, b) == first)
            .expect("more blocks than slots");
        (0, other)
    }

    #[test]
    fn probe_returns_what_was_recorded_for_that_owner_and_block_only() {
        let mut t = Table::default();
        let (a, b) = (fresh_owner(), fresh_owner());
        assert_ne!(a, b);
        assert_eq!(t.probe(a, 7), None, "an unallocated table answers nothing");
        t.record(a, 7, [1, 2, 3, 4, 5]);
        assert_eq!(t.probe(a, 7), Some([1, 2, 3, 4, 5]));
        assert_eq!(t.probe(a, 8), None, "neighbouring block");
        assert_eq!(t.probe(b, 7), None, "same block, other owner");
    }

    #[test]
    fn record_overwrites_the_same_entry() {
        let mut t = Table::default();
        let a = fresh_owner();
        t.record(a, 7, [1; WORDS]);
        t.record(a, 7, [2; WORDS]);
        assert_eq!(t.probe(a, 7), Some([2; WORDS]));
    }

    #[test]
    fn colliding_block_evicts_and_is_never_served_for_the_other() {
        let mut t = Table::default();
        let a = fresh_owner();
        let (x, y) = colliding_blocks(a);
        t.record(a, x, [1; WORDS]);
        assert_eq!(t.probe(a, y), None, "same slot, different tag");
        t.record(a, y, [2; WORDS]);
        assert_eq!(t.probe(a, y), Some([2; WORDS]));
        assert_eq!(t.probe(a, x), None, "direct-mapped: one entry a slot");
    }

    #[test]
    fn the_same_block_of_two_owners_lands_in_two_slots() {
        let mut t = Table::default();
        let (a, b) = (fresh_owner(), fresh_owner());
        for block in 0..4096 {
            t.record(a, block, [block; WORDS]);
            t.record(b, block, [block + 1; WORDS]);
            assert_eq!(t.probe(a, block), Some([block; WORDS]));
            assert_eq!(t.probe(b, block), Some([block + 1; WORDS]));
        }
    }

    #[test]
    fn collisions_within_an_owner_do_not_depend_on_its_id() {
        // What makes a run repeat whichever ids its trees were given.
        let (a, b) = (fresh_owner(), fresh_owner() + 12_345);
        let (x, y) = colliding_blocks(a);
        assert_eq!(Table::index(b, x), Table::index(b, y));
        for block in 0..4096u64 {
            let apart = |o| Table::index(o, block) != Table::index(o, block + 1);
            assert_eq!(apart(a), apart(b), "block {block}");
        }
    }

    #[test]
    fn allocates_on_first_record_and_never_again() {
        let mut t = Table::default();
        assert_eq!(
            t.slots.capacity(),
            0,
            "a thread that records nothing pays nothing"
        );
        let a = fresh_owner();
        t.record(a, 0, [0; WORDS]);
        let (at, cap) = (t.slots.as_ptr(), t.slots.capacity());
        assert_eq!(t.slots.len(), SLOTS);
        for block in 0..10 * SLOTS as u64 {
            t.record(a, block, [block; WORDS]);
        }
        assert_eq!((t.slots.as_ptr(), t.slots.capacity()), (at, cap));
    }

    #[test]
    fn both_widths_are_one_table() {
        type Narrow = HintTable<ANCHOR_WORDS>;
        assert_eq!(std::mem::size_of::<Slot<HINT_WORDS>>(), 56);
        assert_eq!(std::mem::size_of::<Slot<ANCHOR_WORDS>>(), 32);
        let (mut hints, mut anchors) = (Table::default(), Narrow::default());
        let a = fresh_owner();
        for block in 0..4096u64 {
            assert_eq!(Table::index(a, block), Narrow::index(a, block));
        }
        anchors.reserve();
        assert_eq!(anchors.slots.len(), SLOTS, "reserved without a record");
        assert_eq!(anchors.probe(a, 7), None);
        hints.record(a, 7, [1, 2, 3, 4, 5]);
        anchors.record(a, 7, [8, 9]);
        assert_eq!(hints.probe(a, 7), Some([1, 2, 3, 4, 5]));
        assert_eq!(anchors.probe(a, 7), Some([8, 9]));
    }
}
