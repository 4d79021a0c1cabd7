//! The engine's hashing for keys it derives from its own allocations:
//! line ids, lock keys, node addresses and cell addresses.
//!
//! The default SipHash costs more than the lookups it guards on the
//! episode hot path, and HashDoS resistance buys nothing against keys we
//! allocate ourselves. One odd-constant multiply (Fibonacci hashing)
//! spreads sequential keys across the high bits hashbrown uses for its
//! control tags, and, as the low bits of a product depend only on the low
//! bits of the key, keeps a run of sequential keys a permutation of the
//! buckets. Keys must therefore not share their low bits: an aligned
//! address goes in divided by its alignment ([`crate::arena::Arena`]).
//! Deterministic, so map *behaviour* is reproducible, and nothing
//! schedule-visible iterates these maps, so bucket order never reaches a
//! run report either way.

use std::hash::{BuildHasherDefault, Hasher};

/// 2^64 / phi, forced odd: the classic Fibonacci multiplier.
const FIB: u64 = 0x9e37_79b9_7f4a_7c15;

/// Multiply-based [`Hasher`] for `u64`-shaped keys (see the module docs).
#[derive(Default)]
pub(crate) struct FibHasher(u64);

impl Hasher for FibHasher {
    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.0 = n.wrapping_mul(FIB);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }

    fn write(&mut self, bytes: &[u8]) {
        // Not reached by integer keys; fold bytes so any other key type
        // still hashes sanely.
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(FIB);
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// A `HashMap` under [`FibHasher`].
pub(crate) type FibMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FibHasher>>;

/// A `HashSet` under [`FibHasher`].
pub(crate) type FibSet<K> = std::collections::HashSet<K, BuildHasherDefault<FibHasher>>;

/// A 256-bit one-hash Bloom filter over `u64` keys, no heap: sized for
/// a write buffer, which holds a few cells for a put and 72 for a split,
/// and for a point operation's footprint of a few lines (a larger set
/// costs false positives, never a wrong answer).
/// [`KeyFilter::may_contain`] answers `false` only for a key never
/// inserted since the last [`KeyFilter::clear`], so a `false` may skip a
/// search and a `true` must still do it. The bit is the product's top
/// eight bits, which every bit of the key reaches.
#[derive(Clone, Copy, Default)]
pub(crate) struct KeyFilter([u64; 4]);

impl KeyFilter {
    #[inline]
    fn bit(key: u64) -> (usize, u64) {
        let b = key.wrapping_mul(FIB) >> 56;
        ((b / 64) as usize, 1 << (b % 64))
    }

    #[inline]
    pub(crate) fn insert(&mut self, key: u64) {
        let (w, m) = Self::bit(key);
        self.0[w] |= m;
    }

    #[inline]
    pub(crate) fn may_contain(&self, key: u64) -> bool {
        let (w, m) = Self::bit(key);
        self.0[w] & m != 0
    }

    #[inline]
    pub(crate) fn clear(&mut self) {
        self.0 = [0; 4];
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_filter_has_no_false_negatives_and_forgets_on_clear() {
        let mut f = KeyFilter::default();
        let keys: Vec<u64> = (0..40).map(|i| 0x7f00_0000 + i * 8).collect();
        assert!(keys.iter().all(|&k| !f.may_contain(k)));
        for &k in &keys {
            f.insert(k);
        }
        assert!(keys.iter().all(|&k| f.may_contain(k)));
        f.clear();
        assert!(keys.iter().all(|&k| !f.may_contain(k)));
    }
}
