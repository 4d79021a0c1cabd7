//! A per-thread, set-associative cache of a few words per `(owner, key
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
//! Nothing here is keyed by an address: the set index comes from the key
//! block and the owner id, and owner ids come from a process-wide counter,
//! so what collides with what does not depend on heap layout.

use std::sync::atomic::{AtomicU64, Ordering};

/// Payload words of an entry of the wide table and of the narrow one.
pub const HINT_WORDS: usize = 5;
pub const ANCHOR_WORDS: usize = 2;

/// Entries per set of each table. The leaf-hint table is direct-mapped (a
/// second way there took fewer hits on `virt-hot`, not more); two 32 B
/// anchors are one cache line, so the anchor table's second way is one tag
/// compare on a line the probe reads anyway. DESIGN.md §4.4.
pub const HINT_WAYS: usize = 1;
pub const ANCHOR_WAYS: usize = 2;

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

#[derive(Clone, Copy)]
struct Slot<const WORDS: usize> {
    owner: u64,
    block: u64,
    words: [u64; WORDS],
}

/// How a set of `N` ways is aligned: a set that fills a cache line starts
/// on one, a direct-mapped set of 56 B is packed.
pub struct Ways<const N: usize>;

pub trait SetAlign {
    /// A zero-sized field of this type gives a set its alignment.
    type Unit;
}

/// One cache line's alignment, and nothing else.
#[repr(align(64))]
pub struct LineAligned;

impl SetAlign for Ways<1> {
    type Unit = ();
}

impl SetAlign for Ways<2> {
    type Unit = LineAligned;
}

/// The ways a block may be in, most recently recorded first.
#[repr(C)]
struct Set<const WORDS: usize, const WAYS: usize>
where
    Ways<WAYS>: SetAlign,
{
    _align: [<Ways<WAYS> as SetAlign>::Unit; 0],
    ways: [Slot<WORDS>; WAYS],
}

/// The table: `SLOTS / WAYS` sets of `WAYS` entries, least recently
/// recorded evicted first.
pub struct HintTable<const WORDS: usize, const WAYS: usize>
where
    Ways<WAYS>: SetAlign,
{
    /// Empty until the first record, `SLOTS / WAYS` long from then on.
    sets: Vec<Set<WORDS, WAYS>>,
}

impl<const WORDS: usize, const WAYS: usize> Default for HintTable<WORDS, WAYS>
where
    Ways<WAYS>: SetAlign,
{
    fn default() -> Self {
        HintTable { sets: Vec::new() }
    }
}

impl<const WORDS: usize, const WAYS: usize> HintTable<WORDS, WAYS>
where
    Ways<WAYS>: SetAlign,
{
    const SETS: usize = SLOTS / WAYS;

    /// Blocks spread by a multiplicative hash, each owner's image rotated
    /// by its id: which blocks of one owner collide is the same for every
    /// id, and two owners holding the same keys do not evict each other.
    #[inline]
    fn index(owner: u64, block: u64) -> usize {
        let spread =
            block.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - Self::SETS.trailing_zeros());
        (spread.wrapping_add(owner) as usize) & (Self::SETS - 1)
    }

    /// The words last recorded for exactly `(owner, block)`, if they are
    /// still in its set, and how many tags the lookup compared: the way it
    /// hit in plus one, or every way on a miss.
    #[inline]
    pub fn probe(&self, owner: u64, block: u64) -> (Option<[u64; WORDS]>, usize) {
        let Some(set) = self.sets.get(Self::index(owner, block)) else {
            return (None, WAYS);
        };
        match set
            .ways
            .iter()
            .position(|s| s.owner == owner && s.block == block)
        {
            Some(way) => (Some(set.ways[way].words), way + 1),
            None => (None, WAYS),
        }
    }

    /// Allocate the sets, if nothing has yet. [`HintTable::record`] does
    /// this itself; a thread with two tables reserves the other one along
    /// with it, so that past its first record of either kind it never
    /// allocates for a hint again.
    pub fn reserve(&mut self) {
        if self.sets.is_empty() {
            let empty = || Set {
                _align: [],
                ways: [Slot {
                    owner: NO_OWNER,
                    block: 0,
                    words: [0; WORDS],
                }; WAYS],
            };
            self.sets = std::iter::repeat_with(empty).take(Self::SETS).collect();
        }
    }

    /// Store `words` for `(owner, block)` in the set's first way: the
    /// entry it replaces is its own earlier one if the set has it, else the
    /// least recently recorded; the ways in front move back one.
    pub fn record(&mut self, owner: u64, block: u64, words: [u64; WORDS]) {
        debug_assert_ne!(owner, NO_OWNER, "owner ids come from fresh_owner()");
        self.reserve();
        let set = &mut self.sets[Self::index(owner, block)].ways;
        let way = set
            .iter()
            .position(|s| s.owner == owner && s.block == block)
            .unwrap_or(WAYS - 1);
        set[..=way].rotate_right(1);
        set[0] = Slot {
            owner,
            block,
            words,
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The implementation is one; most tests run it at the wider width.
    const WORDS: usize = HINT_WORDS;
    type Table = HintTable<WORDS, HINT_WAYS>;
    type Anchors = HintTable<ANCHOR_WORDS, ANCHOR_WAYS>;

    /// `n` blocks of `owner` that share a set of a `HintTable<W, N>`, the
    /// first being 0.
    fn colliding<const W: usize, const N: usize>(owner: u64, n: usize) -> Vec<u64>
    where
        Ways<N>: SetAlign,
    {
        let first = HintTable::<W, N>::index(owner, 0);
        (0..u64::MAX)
            .filter(|&b| HintTable::<W, N>::index(owner, b) == first)
            .take(n)
            .collect()
    }

    #[test]
    fn probe_returns_what_was_recorded_for_that_owner_and_block_only() {
        let mut t = Table::default();
        let (a, b) = (fresh_owner(), fresh_owner());
        assert_ne!(a, b);
        assert_eq!(
            t.probe(a, 7).0,
            None,
            "an unallocated table answers nothing"
        );
        t.record(a, 7, [1, 2, 3, 4, 5]);
        assert_eq!(t.probe(a, 7), (Some([1, 2, 3, 4, 5]), 1));
        assert_eq!(t.probe(a, 8).0, None, "neighbouring block");
        assert_eq!(t.probe(b, 7).0, None, "same block, other owner");
    }

    #[test]
    fn record_overwrites_the_same_entry() {
        let mut t = Table::default();
        let a = fresh_owner();
        t.record(a, 7, [1; WORDS]);
        t.record(a, 7, [2; WORDS]);
        assert_eq!(t.probe(a, 7).0, Some([2; WORDS]));
    }

    #[test]
    fn colliding_block_evicts_and_is_never_served_for_the_other() {
        let mut t = Table::default();
        let a = fresh_owner();
        let [x, y] = colliding::<WORDS, HINT_WAYS>(a, 2)[..] else {
            unreachable!()
        };
        t.record(a, x, [1; WORDS]);
        assert_eq!(t.probe(a, y).0, None, "same slot, different tag");
        t.record(a, y, [2; WORDS]);
        assert_eq!(t.probe(a, y).0, Some([2; WORDS]));
        assert_eq!(t.probe(a, x).0, None, "direct-mapped: one entry a slot");
    }

    #[test]
    fn two_blocks_that_share_a_set_are_both_served() {
        let mut t = Anchors::default();
        let a = fresh_owner();
        let [x, y] = colliding::<ANCHOR_WORDS, ANCHOR_WAYS>(a, 2)[..] else {
            unreachable!()
        };
        t.record(a, x, [1, 1]);
        t.record(a, y, [2, 2]);
        // The newer record is in the first way, the older one in the
        // second: one tag compare more to find it.
        assert_eq!(t.probe(a, y), (Some([2, 2]), 1));
        assert_eq!(t.probe(a, x), (Some([1, 1]), 2));
        assert_eq!(t.probe(a, x + 1).0, None);
        assert_eq!(
            t.probe(a, x + 1).1,
            ANCHOR_WAYS,
            "a miss compares every way"
        );
    }

    #[test]
    fn a_third_block_evicts_the_least_recently_recorded() {
        let mut t = Anchors::default();
        let a = fresh_owner();
        let [x, y, z] = colliding::<ANCHOR_WORDS, ANCHOR_WAYS>(a, 3)[..] else {
            unreachable!()
        };
        t.record(a, x, [1, 1]);
        t.record(a, y, [2, 2]);
        // Probes do not count as use: `x` was recorded first.
        assert_eq!(t.probe(a, x).0, Some([1, 1]));
        t.record(a, z, [3, 3]);
        assert_eq!(t.probe(a, x).0, None, "least recently recorded: gone");
        assert_eq!(t.probe(a, z), (Some([3, 3]), 1));
        assert_eq!(t.probe(a, y), (Some([2, 2]), 2));
    }

    #[test]
    fn re_recording_the_second_way_promotes_it() {
        let mut t = Anchors::default();
        let a = fresh_owner();
        let [x, y, z] = colliding::<ANCHOR_WORDS, ANCHOR_WAYS>(a, 3)[..] else {
            unreachable!()
        };
        t.record(a, x, [1, 1]);
        t.record(a, y, [2, 2]);
        t.record(a, x, [4, 4]);
        assert_eq!(t.probe(a, x), (Some([4, 4]), 1), "promoted, updated");
        assert_eq!(t.probe(a, y), (Some([2, 2]), 2), "not duplicated over");
        t.record(a, z, [3, 3]);
        assert_eq!(t.probe(a, y).0, None, "now the least recently recorded");
        assert_eq!(t.probe(a, x), (Some([4, 4]), 2));
    }

    #[test]
    fn the_same_block_of_two_owners_lands_in_two_slots() {
        let mut t = Table::default();
        let (a, b) = (fresh_owner(), fresh_owner());
        for block in 0..4096 {
            t.record(a, block, [block; WORDS]);
            t.record(b, block, [block + 1; WORDS]);
            assert_eq!(t.probe(a, block).0, Some([block; WORDS]));
            assert_eq!(t.probe(b, block).0, Some([block + 1; WORDS]));
        }
    }

    /// What makes a run repeat whichever ids its trees were given: which
    /// blocks of one owner share a set is the same for every id.
    fn collisions_do_not_depend_on_the_id<const W: usize, const N: usize>()
    where
        Ways<N>: SetAlign,
    {
        let (a, b) = (fresh_owner(), fresh_owner() + 12_345);
        let set = |o, block| HintTable::<W, N>::index(o, block);
        let shared = colliding::<W, N>(a, 3);
        assert!(shared.iter().all(|&x| set(b, x) == set(b, shared[0])));
        for block in 0..4096u64 {
            let apart = |o| set(o, block) != set(o, block + 1);
            assert_eq!(apart(a), apart(b), "block {block}");
        }
    }

    #[test]
    fn collisions_within_an_owner_do_not_depend_on_its_id() {
        collisions_do_not_depend_on_the_id::<HINT_WORDS, HINT_WAYS>();
        collisions_do_not_depend_on_the_id::<ANCHOR_WORDS, ANCHOR_WAYS>();
    }

    #[test]
    fn allocates_on_first_record_and_never_again() {
        let mut t = Table::default();
        assert_eq!(
            t.sets.capacity(),
            0,
            "a thread that records nothing pays nothing"
        );
        let a = fresh_owner();
        t.record(a, 0, [0; WORDS]);
        let (at, cap) = (t.sets.as_ptr(), t.sets.capacity());
        assert_eq!(t.sets.len(), SLOTS);
        for block in 0..10 * SLOTS as u64 {
            t.record(a, block, [block; WORDS]);
        }
        assert_eq!((t.sets.as_ptr(), t.sets.capacity()), (at, cap));
    }

    #[test]
    fn both_widths_are_one_table() {
        // 56 KiB and 32 KiB, as when both were direct-mapped; a set of
        // anchors is one line and sits on one.
        assert_eq!(std::mem::size_of::<Set<HINT_WORDS, HINT_WAYS>>(), 56);
        assert_eq!(std::mem::size_of::<Set<ANCHOR_WORDS, ANCHOR_WAYS>>(), 64);
        assert_eq!(std::mem::align_of::<Set<ANCHOR_WORDS, ANCHOR_WAYS>>(), 64);
        let (mut hints, mut anchors) = (Table::default(), Anchors::default());
        anchors.reserve();
        hints.reserve();
        assert_eq!(hints.sets.len() * 56, 56 << 10);
        assert_eq!(anchors.sets.len() * 64, 32 << 10);
        assert_eq!(anchors.sets.as_ptr() as usize % 64, 0);
        let a = fresh_owner();
        assert_eq!(anchors.probe(a, 7).0, None, "reserved without a record");
        hints.record(a, 7, [1, 2, 3, 4, 5]);
        anchors.record(a, 7, [8, 9]);
        assert_eq!(hints.probe(a, 7).0, Some([1, 2, 3, 4, 5]));
        assert_eq!(anchors.probe(a, 7).0, Some([8, 9]));
    }
}
