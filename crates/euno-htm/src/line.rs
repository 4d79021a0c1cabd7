//! Cache-line addressing and footprint sets.
//!
//! Intel TSX detects conflicts at 64-byte cache-line granularity: two
//! transactions conflict when the write set of one overlaps the read or
//! write set of the other *measured in cache lines*, not in program-level
//! objects. Everything the Eunomia paper calls a *false conflict* (adjacent
//! records sharing a line, shared metadata words) falls out of this
//! granularity, so the engine tracks footprints as sets of [`LineId`]s
//! derived from the *real addresses* of the cells a transaction touches.

use std::fmt;

/// Size of a cache line on the modelled machine (Intel Haswell: 64 bytes).
pub const CACHE_LINE_BYTES: usize = 64;
const LINE_SHIFT: u32 = 6;

/// Identifier of one 64-byte cache line: the address divided by 64.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineId(pub u64);

impl LineId {
    /// The line containing `addr`.
    #[inline]
    pub fn of_addr(addr: usize) -> Self {
        LineId((addr as u64) >> LINE_SHIFT)
    }

    /// The line containing the referent of `p`.
    #[inline]
    pub fn of_ptr<T>(p: *const T) -> Self {
        Self::of_addr(p as usize)
    }

    /// First byte address covered by this line.
    #[inline]
    pub fn base_addr(self) -> u64 {
        self.0 << LINE_SHIFT
    }
}

impl fmt::Debug for LineId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{:#x}", self.0)
    }
}

/// What kind of program-level data lives on a line.
///
/// The Eunomia paper decomposes HTM aborts into *true conflicts* (same
/// record), *false conflicts from different records* (consecutive layout)
/// and *false conflicts from shared metadata* (§2.3, Figure 2). Trees
/// register each allocated region with a class so the simulator can
/// attribute every conflict to one of these buckets.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, Default)]
pub enum LineClass {
    /// Key/value record storage (leaf slots).
    Record,
    /// Per-node bookkeeping: counts, versions, locks, parent pointers.
    Metadata,
    /// Interior index structure: internal-node keys and child pointers.
    Structure,
    /// Anything not registered (stack temporaries, engine-internal words).
    #[default]
    Unknown,
}

/// Lines stored inline before a [`LineSet`] spills to the heap. Sixteen
/// covers a deep tree traversal (root→leaf reads, the fallback-lock line,
/// a couple of metadata words) with room to spare; node splits and long
/// scans are the rare episodes that spill.
const INLINE_LINES: usize = 16;

/// A small, allocation-free set of cache lines.
///
/// Transactional footprints are tiny (a handful of lines for a tree
/// traversal, a few dozen for a node split), so the set keeps up to
/// [`INLINE_LINES`] entries in a sorted inline array — zero heap traffic
/// on the episode hot path — and spills to a sorted `Vec` only above
/// that. Either representation keeps iteration ordered and deterministic,
/// which matters because the virtual-time simulator must be bit-for-bit
/// reproducible for a given seed.
///
/// Invariant: elements live in `spill` iff `spill` is non-empty (a spilled
/// set that is `clear()`ed returns to the inline representation, keeping
/// the spill buffer's capacity for reuse).
///
/// The set remembers the line it was last asked to insert (`last`, which
/// is then always a member): an access to the same line again — the
/// common case, a node's words read one after another — answers without
/// a search. `clear` forgets it, and so does `mem::take`, which leaves a
/// fresh set behind; the memo changes no answer, only how it is found.
#[derive(Clone)]
pub struct LineSet {
    inline_len: u8,
    last: LineId,
    inline: [LineId; INLINE_LINES],
    spill: Vec<LineId>,
}

/// No line: the memo of a set that has none to remember (a line id is an
/// address over 64, so `u64::MAX` names none).
const NO_LINE: LineId = LineId(u64::MAX);

impl LineSet {
    pub fn new() -> Self {
        LineSet {
            inline_len: 0,
            last: NO_LINE,
            inline: [LineId(0); INLINE_LINES],
            spill: Vec::new(),
        }
    }

    /// A set that can hold `cap` lines before (re)allocating. Capacities
    /// up to [`INLINE_LINES`] cost nothing.
    pub fn with_capacity(cap: usize) -> Self {
        let mut s = Self::new();
        if cap > INLINE_LINES {
            s.spill.reserve(cap);
        }
        s
    }

    /// Insert a line; returns `true` if it was not present before.
    #[inline]
    pub fn insert(&mut self, line: LineId) -> bool {
        if line == self.last {
            return false;
        }
        self.last = line;
        if self.spill.is_empty() {
            // A linear walk from the top: at most sixteen compares, and
            // the shift below is a loop of the same length, not a
            // `memmove` call.
            let n = self.inline_len as usize;
            let mut pos = n;
            while pos > 0 && self.inline[pos - 1] > line {
                pos -= 1;
            }
            if pos > 0 && self.inline[pos - 1] == line {
                return false;
            }
            if n < INLINE_LINES {
                for i in (pos..n).rev() {
                    self.inline[i + 1] = self.inline[i];
                }
                self.inline[pos] = line;
                self.inline_len += 1;
            } else {
                // Spill: move the inline elements (still sorted) plus the
                // newcomer into the vector.
                self.spill.reserve(INLINE_LINES + 1);
                self.spill.extend_from_slice(&self.inline[..pos]);
                self.spill.push(line);
                self.spill.extend_from_slice(&self.inline[pos..]);
                self.inline_len = 0;
            }
            true
        } else {
            match self.spill.binary_search(&line) {
                Ok(_) => false,
                Err(pos) => {
                    self.spill.insert(pos, line);
                    true
                }
            }
        }
    }

    #[inline]
    pub fn contains(&self, line: LineId) -> bool {
        line == self.last || self.as_slice().binary_search(&line).is_ok()
    }

    #[inline]
    pub fn len(&self) -> usize {
        if self.spill.is_empty() {
            self.inline_len as usize
        } else {
            self.spill.len()
        }
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn clear(&mut self) {
        self.inline_len = 0;
        self.last = NO_LINE;
        self.spill.clear();
    }

    pub fn iter(&self) -> impl Iterator<Item = LineId> + '_ {
        self.as_slice().iter().copied()
    }

    #[inline]
    pub fn as_slice(&self) -> &[LineId] {
        if self.spill.is_empty() {
            &self.inline[..self.inline_len as usize]
        } else {
            &self.spill
        }
    }

    /// First line present in both sets, if any. O(n + m) merge walk.
    pub fn first_intersection(&self, other: &LineSet) -> Option<LineId> {
        common_lines(self.as_slice(), other.as_slice()).next()
    }

    /// Whether the two sets share any line.
    #[inline]
    pub fn intersects(&self, other: &LineSet) -> bool {
        self.first_intersection(other).is_some()
    }
}

/// All lines present in both sorted, deduplicated slices (a
/// [`LineSet::as_slice`], a committed footprint), in line order. O(n + m)
/// merge walk, no allocation.
pub fn common_lines<'a>(a: &'a [LineId], b: &'a [LineId]) -> impl Iterator<Item = LineId> + 'a {
    let (mut i, mut j) = (0, 0);
    std::iter::from_fn(move || {
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    let l = a[i];
                    i += 1;
                    j += 1;
                    return Some(l);
                }
            }
        }
        None
    })
}

impl Default for LineSet {
    fn default() -> Self {
        Self::new()
    }
}

impl fmt::Debug for LineSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

impl FromIterator<LineId> for LineSet {
    fn from_iter<I: IntoIterator<Item = LineId>>(iter: I) -> Self {
        let mut s = LineSet::new();
        for l in iter {
            s.insert(l);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_of_addr_maps_64_byte_blocks() {
        assert_eq!(LineId::of_addr(0), LineId(0));
        assert_eq!(LineId::of_addr(63), LineId(0));
        assert_eq!(LineId::of_addr(64), LineId(1));
        assert_eq!(LineId::of_addr(128 + 17), LineId(2));
    }

    #[test]
    fn adjacent_words_share_a_line() {
        // Two u64s 8 bytes apart land on the same line unless they straddle
        // a boundary — the root cause of the paper's false conflicts.
        let xs = [0u64; 8];
        let distinct: std::collections::HashSet<_> = xs.iter().map(|x| LineId::of_ptr(x)).collect();
        assert!(
            distinct.len() <= 2,
            "8 contiguous words span at most two lines, got {}",
            distinct.len()
        );
        // And at least one pair of neighbours must share a line.
        assert!((1..8).any(|i| LineId::of_ptr(&xs[i]) == LineId::of_ptr(&xs[i - 1])));
    }

    #[test]
    fn lineset_insert_dedup_and_order() {
        let mut s = LineSet::new();
        assert!(s.insert(LineId(5)));
        assert!(s.insert(LineId(1)));
        assert!(!s.insert(LineId(5)));
        assert_eq!(s.len(), 2);
        let v: Vec<_> = s.iter().collect();
        assert_eq!(v, vec![LineId(1), LineId(5)]);
        assert!(s.contains(LineId(1)));
        assert!(!s.contains(LineId(2)));
    }

    #[test]
    fn lineset_intersection() {
        let a: LineSet = [1u64, 3, 9].iter().map(|&x| LineId(x)).collect();
        let b: LineSet = [2u64, 9, 11].iter().map(|&x| LineId(x)).collect();
        let c: LineSet = [4u64, 6].iter().map(|&x| LineId(x)).collect();
        assert_eq!(a.first_intersection(&b), Some(LineId(9)));
        assert!(a.intersects(&b));
        assert!(!a.intersects(&c));
        assert!(!c.intersects(&a));
    }

    #[test]
    fn lineset_spills_and_returns_inline_after_clear() {
        let mut s = LineSet::new();
        // Descending inserts exercise the shift path; cross the inline
        // boundary by a few elements.
        let n = INLINE_LINES + 5;
        for i in (0..n).rev() {
            assert!(s.insert(LineId(i as u64 * 3)));
        }
        assert_eq!(s.len(), n);
        let v: Vec<_> = s.iter().collect();
        assert!(v.windows(2).all(|w| w[0] < w[1]), "iteration stays sorted");
        for i in 0..n {
            assert!(s.contains(LineId(i as u64 * 3)));
            assert!(!s.insert(LineId(i as u64 * 3)), "dedup across the spill");
        }
        assert!(!s.contains(LineId(1)));
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.as_slice(), &[] as &[LineId]);
        // Refills inline after the clear.
        assert!(s.insert(LineId(7)));
        assert_eq!(s.len(), 1);
        assert_eq!(s.as_slice(), &[LineId(7)]);
    }

    #[test]
    fn lineset_intersection_across_representations() {
        // One spilled set, one inline set, intersecting in the middle.
        let big: LineSet = (0..INLINE_LINES as u64 + 8)
            .map(|x| LineId(x * 2))
            .collect();
        let small: LineSet = [LineId(9), LineId(20), LineId(33)].into_iter().collect();
        assert_eq!(big.first_intersection(&small), Some(LineId(20)));
        assert_eq!(small.first_intersection(&big), Some(LineId(20)));
    }

    /// The memo of the last inserted line answers exactly what a search
    /// would: random inserts (repeats of the last line among them),
    /// membership probes, `clear` and `mem::take` against a `BTreeSet`,
    /// across the spill boundary. After a `clear` or a `take` the memo
    /// must not claim the line it remembered.
    #[test]
    fn lineset_memo_matches_btreeset() {
        use euno_rng::{Rng, SmallRng};
        use std::collections::BTreeSet;
        let mut rng = SmallRng::seed_from_u64(0x3e30);
        let mut set = LineSet::new();
        let mut model = BTreeSet::new();
        let mut last = None;
        for step in 0..200_000u32 {
            let roll = rng.gen_range(0u32..100);
            let x = match last {
                Some(l) if rng.gen_range(0u32..2) == 0 => l,
                _ => rng.gen_range(0u64..48),
            };
            match roll {
                0 => {
                    set.clear();
                    model.clear();
                }
                1 => {
                    let taken = std::mem::take(&mut set);
                    let had: Vec<u64> = taken.iter().map(|l| l.0).collect();
                    assert_eq!(
                        had,
                        model.iter().copied().collect::<Vec<_>>(),
                        "step {step}"
                    );
                    model.clear();
                }
                2..=29 => assert_eq!(set.contains(LineId(x)), model.contains(&x), "step {step}"),
                _ => {
                    assert_eq!(set.insert(LineId(x)), model.insert(x), "step {step}");
                    last = Some(x);
                }
            }
            if roll <= 1 {
                if let Some(l) = last {
                    assert!(
                        !set.contains(LineId(l)),
                        "step {step}: memo outlived the set"
                    );
                }
            }
            assert_eq!(set.len(), model.len(), "step {step}");
        }
        let got: Vec<u64> = set.iter().map(|l| l.0).collect();
        assert_eq!(got, model.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn empty_sets_never_intersect() {
        let e = LineSet::new();
        let a: LineSet = [1u64].iter().map(|&x| LineId(x)).collect();
        assert!(!e.intersects(&a));
        assert!(!a.intersects(&e));
        assert!(!e.intersects(&e));
        assert!(e.is_empty());
    }
}
