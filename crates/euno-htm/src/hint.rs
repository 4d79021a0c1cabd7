//! A per-thread, set-associative cache of a few words per `(owner, key
//! block)`.
//!
//! The engine knows nothing about what the words mean — a data structure
//! stores whatever lets its next operation on a nearby key skip work (the
//! Euno-B+Tree keeps the leaves its walks ended on in a table of
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
pub const HINT_WORDS: usize = 3;
pub const ANCHOR_WORDS: usize = 2;

/// The payload word that holds the lowest key an entry serves. The
/// leaf-hint table tells the entries of one block apart by it.
pub const LOW: usize = 1;

/// Entries per set of each table. Two leaf hints are 80 B, packed; two
/// 32 B anchors are one cache line, and a set of them starts on one. A
/// second way is one more tag compare on the set the probe reads anyway.
/// DESIGN.md §4.4.
pub const HINT_WAYS: usize = 2;
pub const ANCHOR_WAYS: usize = 2;

/// What one entry of the wide table carries; the owner defines the meaning.
pub type Hint = [u64; HINT_WORDS];

/// What one entry of the narrow table carries.
pub type Anchor = [u64; ANCHOR_WORDS];

/// Entries per table (a power of two): 1 024 × 40 B = 40 KiB of [`Hint`]s
/// and 1 024 × 32 B = 32 KiB of [`Anchor`]s a thread. Swept together with
/// the Euno-B+Tree's two key-block sizes; tables in DESIGN.md §4.4.
const SLOTS: usize = 1024;

/// Tag of a slot nothing was recorded in ([`fresh_owner`] never returns it).
const NO_OWNER: u64 = 0;

/// The top bit of a slot's block word: a [`SecondChance`] entry has served
/// a probe since it was recorded or last passed over. A block is a key
/// shifted right, so the bit is free.
const USED: u64 = 1 << 63;

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
    /// The key block, and [`USED`].
    block: u64,
    words: [u64; WORDS],
}

impl<const WORDS: usize> Slot<WORDS> {
    const EMPTY: Self = Slot {
        owner: NO_OWNER,
        block: 0,
        words: [0; WORDS],
    };

    #[inline]
    fn holds(&self, owner: u64, block: u64) -> bool {
        self.owner == owner && self.block & !USED == block
    }
}

/// How a table admits entries and which one a probe answers with; the
/// choice also sets how a set is aligned.
pub trait Policy {
    /// A zero-sized field of this type gives a set its alignment.
    type Unit;
}

/// One entry a block, found by its tag alone. A record replaces the
/// block's entry if the set has it, else the least recently recorded one.
/// A set fills a cache line and starts on one. The anchor table.
pub struct Lru;

/// Entries of one block told apart by their [`LOW`] word, admitted by
/// second chance (see [`HintTable::record`]). Sets are packed. The
/// leaf-hint table.
pub struct SecondChance;

/// One cache line's alignment, and nothing else.
#[repr(align(64))]
pub struct LineAligned;

impl Policy for Lru {
    type Unit = LineAligned;
}

impl Policy for SecondChance {
    type Unit = ();
}

/// The ways a block may be in: under [`Lru`] the most recently recorded
/// first, under [`SecondChance`] the most recently admitted last, where
/// the next record looks first.
#[repr(C)]
struct Set<const WORDS: usize, const WAYS: usize, P: Policy> {
    _align: [P::Unit; 0],
    ways: [Slot<WORDS>; WAYS],
}

/// The table: `SLOTS / WAYS` sets of `WAYS` entries each.
pub struct HintTable<const WORDS: usize, const WAYS: usize, P: Policy> {
    /// Empty until the first record, `SLOTS / WAYS` long from then on.
    sets: Vec<Set<WORDS, WAYS, P>>,
}

/// The entry a [`SecondChance`] probe answered with, for the owner to
/// [keep](HintTable::keep) once it has trusted it. Good until the table's
/// next record.
#[derive(Clone, Copy, Debug)]
pub struct HintWay {
    set: usize,
    way: usize,
}

impl<const WORDS: usize, const WAYS: usize, P: Policy> Default for HintTable<WORDS, WAYS, P> {
    fn default() -> Self {
        HintTable { sets: Vec::new() }
    }
}

impl<const WORDS: usize, const WAYS: usize, P: Policy> HintTable<WORDS, WAYS, P> {
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

    /// Allocate the sets, if nothing has yet. A record does this itself;
    /// a thread with two tables reserves the other one along with it, so
    /// that past its first record of either kind it never allocates for a
    /// hint again.
    pub fn reserve(&mut self) {
        if self.sets.is_empty() {
            let empty = || Set {
                _align: [],
                ways: [Slot::EMPTY; WAYS],
            };
            self.sets = std::iter::repeat_with(empty).take(Self::SETS).collect();
        }
    }

    /// The ways of `(owner, block)`'s set, allocated if need be.
    fn ways_mut(&mut self, owner: u64, block: u64) -> &mut [Slot<WORDS>; WAYS] {
        debug_assert_ne!(owner, NO_OWNER, "owner ids come from fresh_owner()");
        debug_assert_eq!(block & USED, 0, "a block is a shifted key");
        self.reserve();
        &mut self.sets[Self::index(owner, block)].ways
    }
}

impl<const WORDS: usize, const WAYS: usize> HintTable<WORDS, WAYS, Lru> {
    /// The words last recorded for exactly `(owner, block)`, if they are
    /// still in its set, and how many tags the lookup compared: the way it
    /// hit in plus one, or every way on a miss.
    #[inline]
    pub fn probe(&self, owner: u64, block: u64) -> (Option<[u64; WORDS]>, usize) {
        let Some(set) = self.sets.get(Self::index(owner, block)) else {
            return (None, WAYS);
        };
        match set.ways.iter().position(|s| s.holds(owner, block)) {
            Some(way) => (Some(set.ways[way].words), way + 1),
            None => (None, WAYS),
        }
    }

    /// Store `words` for `(owner, block)` in the set's first way: the
    /// entry it replaces is its own earlier one if the set has it, else the
    /// least recently recorded; the ways in front move back one.
    pub fn record(&mut self, owner: u64, block: u64, words: [u64; WORDS]) {
        let ways = self.ways_mut(owner, block);
        let way = ways
            .iter()
            .position(|s| s.holds(owner, block))
            .unwrap_or(WAYS - 1);
        ways[..=way].rotate_right(1);
        ways[0] = Slot {
            owner,
            block,
            words,
        };
    }
}

impl<const WORDS: usize, const WAYS: usize> HintTable<WORDS, WAYS, SecondChance> {
    /// Of the entries of `(owner, block)` still in its set, the one with
    /// the greatest [`LOW`] word at or below `key`, and where it is; and
    /// how many tags the lookup compared — every way's, since a block may
    /// be in more than one.
    #[inline]
    pub fn probe(
        &self,
        owner: u64,
        block: u64,
        key: u64,
    ) -> (Option<(HintWay, [u64; WORDS])>, usize) {
        let set = Self::index(owner, block);
        let Some(ways) = self.sets.get(set).map(|s| &s.ways) else {
            return (None, WAYS);
        };
        let found = (0..WAYS)
            .filter(|&way| ways[way].holds(owner, block) && ways[way].words[LOW] <= key)
            .max_by_key(|&way| ways[way].words[LOW])
            .map(|way| (HintWay { set, way }, ways[way].words));
        (found, WAYS)
    }

    /// Mark the entry a probe answered with as used, so that the next
    /// record into its set passes it over. Whether that was a store: the
    /// bit may be set already.
    pub fn keep(&mut self, at: HintWay) -> bool {
        let block = &mut self.sets[at.set].ways[at.way].block;
        let flipped = *block & USED == 0;
        *block |= USED;
        flipped
    }

    /// Store `words` for `(owner, block)`:
    ///
    /// - over the block's entry with the same [`LOW`] word, in place, if
    ///   the set has one;
    /// - else in the set's last way, the entry it replaces leaving and the
    ///   ways behind that one moving up: an empty way if there is one, else
    ///   the first unused one from the back — every used way passed over on
    ///   the way there survives and loses its bit;
    /// - else nowhere: every way was used, and each has lost its bit.
    ///
    /// A new entry is the first the set's next record looks at, so a block
    /// seen once displaces at most another such block, and an entry that
    /// served a probe in between outlives a record. Two leaves that share
    /// a block keep an entry each.
    pub fn record(&mut self, owner: u64, block: u64, words: [u64; WORDS]) {
        let ways = self.ways_mut(owner, block);
        let slot = Slot {
            owner,
            block,
            words,
        };
        if let Some(same) = ways
            .iter_mut()
            .find(|s| s.holds(owner, block) && s.words[LOW] == words[LOW])
        {
            *same = slot;
            return;
        }
        let free = ways.iter().rposition(|s| s.owner == NO_OWNER);
        let victim = free.or_else(|| {
            // From the back: each way looked at loses its bit, and the
            // first that had none is replaced.
            (0..WAYS).rev().find(|&way| {
                let unused = ways[way].block & USED == 0;
                ways[way].block &= !USED;
                unused
            })
        });
        if let Some(way) = victim {
            ways[way..].rotate_left(1);
            ways[WAYS - 1] = slot;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const WORDS: usize = HINT_WORDS;
    type Table = HintTable<WORDS, HINT_WAYS, SecondChance>;
    type Anchors = HintTable<ANCHOR_WORDS, ANCHOR_WAYS, Lru>;

    /// `n` blocks of `owner` that share a set of a `HintTable<W, N, P>`,
    /// the first being 0.
    fn colliding<const W: usize, const N: usize, P: Policy>(owner: u64, n: usize) -> Vec<u64> {
        let first = HintTable::<W, N, P>::index(owner, 0);
        (0..u64::MAX)
            .filter(|&b| HintTable::<W, N, P>::index(owner, b) == first)
            .take(n)
            .collect()
    }

    /// A leaf hint of `leaf` serving keys from `low` on.
    fn hint(leaf: u64, low: u64) -> Hint {
        [leaf, low, 0]
    }

    /// What a probe of the leaf-hint table answers with, if anything.
    fn words(t: &Table, owner: u64, block: u64, key: u64) -> Option<Hint> {
        t.probe(owner, block, key).0.map(|(_, w)| w)
    }

    /// Probe for `key` and keep what answers, as a hit does.
    fn hit(t: &mut Table, owner: u64, block: u64, key: u64) -> Hint {
        let (at, words) = t.probe(owner, block, key).0.expect("a hit");
        t.keep(at);
        words
    }

    #[test]
    fn probe_returns_what_was_recorded_for_that_owner_and_block_only() {
        let mut t = Table::default();
        let (a, b) = (fresh_owner(), fresh_owner());
        assert_ne!(a, b);
        assert_eq!(
            words(&t, a, 7, 60),
            None,
            "an unallocated table answers nothing"
        );
        t.record(a, 7, hint(1, 58));
        assert_eq!(words(&t, a, 7, 60), Some(hint(1, 58)));
        assert_eq!(words(&t, a, 7, 58), Some(hint(1, 58)), "its low itself");
        assert_eq!(words(&t, a, 7, 57), None, "below its low");
        assert_eq!(words(&t, a, 8, 60), None, "neighbouring block");
        assert_eq!(words(&t, b, 7, 60), None, "same block, other owner");
        assert_eq!(t.probe(a, 7, 60).1, HINT_WAYS, "a hit compares every way");
    }

    #[test]
    fn record_overwrites_the_same_entry() {
        let mut t = Table::default();
        let a = fresh_owner();
        t.record(a, 7, hint(1, 56));
        t.record(a, 7, hint(2, 56));
        assert_eq!(words(&t, a, 7, 60), Some(hint(2, 56)));
        // …so the other way is still free for the block's other leaf.
        t.record(a, 7, hint(3, 61));
        assert_eq!(words(&t, a, 7, 60), Some(hint(2, 56)));
        assert_eq!(words(&t, a, 7, 62), Some(hint(3, 61)));
    }

    #[test]
    fn two_leaves_of_one_block_are_both_served() {
        let mut t = Table::default();
        let a = fresh_owner();
        // Block 7 is keys 56..64; a leaf boundary at 61 cuts it.
        t.record(a, 7, hint(1, 50));
        t.record(a, 7, hint(2, 61));
        for key in 56..61 {
            assert_eq!(words(&t, a, 7, key), Some(hint(1, 50)), "key {key}");
        }
        for key in 61..64 {
            assert_eq!(words(&t, a, 7, key), Some(hint(2, 61)), "key {key}");
        }
        // The order they were recorded in does not matter.
        let mut t = Table::default();
        t.record(a, 7, hint(2, 61));
        t.record(a, 7, hint(1, 50));
        assert_eq!(words(&t, a, 7, 60), Some(hint(1, 50)));
        assert_eq!(words(&t, a, 7, 63), Some(hint(2, 61)));
    }

    #[test]
    fn a_used_entry_survives_one_cold_record() {
        let mut t = Table::default();
        let a = fresh_owner();
        let [x, y, z, w, v] = colliding::<WORDS, HINT_WAYS, SecondChance>(a, 5)[..] else {
            unreachable!()
        };
        t.record(a, x, hint(1, 0));
        t.record(a, y, hint(2, 0));
        hit(&mut t, a, y, 0);
        // `y` is the newest, but used: it survives and `x` goes instead.
        t.record(a, z, hint(3, 0));
        assert_eq!(words(&t, a, x, 0), None, "unused: evicted");
        assert_eq!(words(&t, a, y, 0), Some(hint(2, 0)), "second chance");
        assert_eq!(words(&t, a, z, 0), Some(hint(3, 0)));
        // Cold records now displace `z`, the newest.
        t.record(a, w, hint(4, 0));
        assert_eq!(words(&t, a, z, 0), None);
        assert_eq!(words(&t, a, y, 0), Some(hint(2, 0)));
        // The chance was spent: once `w` has served a probe, `y` — unused
        // since it survived — is the one that goes.
        hit(&mut t, a, w, 0);
        t.record(a, v, hint(5, 0));
        assert_eq!(words(&t, a, y, 0), None);
        assert_eq!(words(&t, a, w, 0), Some(hint(4, 0)));
        assert_eq!(words(&t, a, v, 0), Some(hint(5, 0)));
    }

    #[test]
    fn a_record_is_dropped_when_every_way_is_used() {
        let mut t = Table::default();
        let a = fresh_owner();
        let [x, y, z] = colliding::<WORDS, HINT_WAYS, SecondChance>(a, 3)[..] else {
            unreachable!()
        };
        t.record(a, x, hint(1, 0));
        t.record(a, y, hint(2, 0));
        assert!(t.keep(t.probe(a, x, 0).0.unwrap().0), "the bit flips");
        assert!(!t.keep(t.probe(a, x, 0).0.unwrap().0), "…once");
        hit(&mut t, a, y, 0);
        t.record(a, z, hint(3, 0));
        assert_eq!(words(&t, a, z, 0), None, "dropped");
        assert_eq!(words(&t, a, x, 0), Some(hint(1, 0)));
        assert_eq!(words(&t, a, y, 0), Some(hint(2, 0)));
        // Both lost their bits: the same record again is stored, over the
        // newer of the two.
        t.record(a, z, hint(3, 0));
        assert_eq!(words(&t, a, z, 0), Some(hint(3, 0)));
        assert_eq!(words(&t, a, x, 0), Some(hint(1, 0)));
        assert_eq!(words(&t, a, y, 0), None);
    }

    #[test]
    fn colliding_block_evicts_and_is_never_served_for_the_other() {
        let mut t = Table::default();
        let a = fresh_owner();
        let [x, y, z] = colliding::<WORDS, HINT_WAYS, SecondChance>(a, 3)[..] else {
            unreachable!()
        };
        t.record(a, x, hint(1, 0));
        assert_eq!(words(&t, a, y, 0), None, "same set, different tag");
        t.record(a, y, hint(2, 0));
        t.record(a, z, hint(3, 0));
        assert_eq!(words(&t, a, z, 0), Some(hint(3, 0)));
        assert_eq!(words(&t, a, y, 0), None, "the newest entry went");
        assert_eq!(words(&t, a, x, 0), Some(hint(1, 0)));
    }

    #[test]
    fn two_blocks_that_share_a_set_are_both_served() {
        let mut t = Anchors::default();
        let a = fresh_owner();
        let [x, y] = colliding::<ANCHOR_WORDS, ANCHOR_WAYS, Lru>(a, 2)[..] else {
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
        let [x, y, z] = colliding::<ANCHOR_WORDS, ANCHOR_WAYS, Lru>(a, 3)[..] else {
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
        let [x, y, z] = colliding::<ANCHOR_WORDS, ANCHOR_WAYS, Lru>(a, 3)[..] else {
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

    /// The same block of two owners lands in two sets. Nothing is kept, so
    /// every record is admitted and answers the probe that follows it.
    #[test]
    fn the_same_block_of_two_owners_lands_in_two_slots() {
        let mut t = Table::default();
        let (a, b) = (fresh_owner(), fresh_owner());
        for block in 0..4096 {
            t.record(a, block, hint(block, 0));
            t.record(b, block, hint(block + 1, 0));
            assert_eq!(words(&t, a, block, 0), Some(hint(block, 0)));
            assert_eq!(words(&t, b, block, 0), Some(hint(block + 1, 0)));
        }
    }

    /// What makes a run repeat whichever ids its trees were given: which
    /// blocks of one owner share a set is the same for every id.
    fn collisions_do_not_depend_on_the_id<const W: usize, const N: usize, P: Policy>() {
        let (a, b) = (fresh_owner(), fresh_owner() + 12_345);
        let set = |o, block| HintTable::<W, N, P>::index(o, block);
        let shared = colliding::<W, N, P>(a, 3);
        assert!(shared.iter().all(|&x| set(b, x) == set(b, shared[0])));
        for block in 0..4096u64 {
            let apart = |o| set(o, block) != set(o, block + 1);
            assert_eq!(apart(a), apart(b), "block {block}");
        }
    }

    #[test]
    fn collisions_within_an_owner_do_not_depend_on_its_id() {
        collisions_do_not_depend_on_the_id::<HINT_WORDS, HINT_WAYS, SecondChance>();
        collisions_do_not_depend_on_the_id::<ANCHOR_WORDS, ANCHOR_WAYS, Lru>();
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
        t.record(a, 0, hint(0, 0));
        let (at, cap) = (t.sets.as_ptr(), t.sets.capacity());
        assert_eq!(t.sets.len() * HINT_WAYS, SLOTS);
        for block in 0..10 * SLOTS as u64 {
            t.record(a, block, hint(block, block));
            if let (Some((kept, _)), 0) = (t.probe(a, block, block).0, block % 3) {
                t.keep(kept);
            }
        }
        assert_eq!((t.sets.as_ptr(), t.sets.capacity()), (at, cap));
    }

    #[test]
    fn both_widths_are_one_table() {
        // 40 KiB and 32 KiB; a set of anchors is one line and sits on one,
        // a set of leaf hints is 80 B and packed.
        type HintSet = Set<HINT_WORDS, HINT_WAYS, SecondChance>;
        type AnchorSet = Set<ANCHOR_WORDS, ANCHOR_WAYS, Lru>;
        assert_eq!(std::mem::size_of::<HintSet>(), 80);
        assert_eq!(std::mem::align_of::<HintSet>(), 8);
        assert_eq!(std::mem::size_of::<AnchorSet>(), 64);
        assert_eq!(std::mem::align_of::<AnchorSet>(), 64);
        let (mut hints, mut anchors) = (Table::default(), Anchors::default());
        anchors.reserve();
        hints.reserve();
        assert_eq!(hints.sets.len() * 80, 40 << 10);
        assert_eq!(anchors.sets.len() * 64, 32 << 10);
        assert_eq!(anchors.sets.as_ptr() as usize % 64, 0);
        let a = fresh_owner();
        assert_eq!(anchors.probe(a, 7).0, None, "reserved without a record");
        hints.record(a, 7, [1, 2, 3]);
        anchors.record(a, 7, [8, 9]);
        assert_eq!(words(&hints, a, 7, 56), Some([1, 2, 3]));
        assert_eq!(anchors.probe(a, 7).0, Some([8, 9]));
    }
}
