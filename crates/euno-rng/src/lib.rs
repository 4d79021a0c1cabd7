//! # euno-rng — deterministic PRNG for the Eunomia workspace
//!
//! One generator, [`SmallRng`], so the whole reproduction builds with no
//! external dependencies. It is xoshiro256++ (Blackman & Vigna), seeded
//! through SplitMix64: fast, tiny state, and more than adequate
//! statistical quality for workload generation and scheduling jitter
//! (nothing here is cryptographic).
//!
//! Every draw is an inherent method, so no caller imports a trait:
//!
//! * [`SmallRng::seed_from_u64`] — SplitMix64 expansion of a 64-bit seed,
//! * [`SmallRng::next_u64`] — one raw output,
//! * [`SmallRng::gen_range`] — a half-open `u64` / `u32` / `usize` range
//!   (Lemire's widening-multiply reduction),
//! * [`SmallRng::gen_f64`] — uniform in `[0, 1)` with 53 bits,
//! * [`SmallRng::gen_bool`] — a Bernoulli draw over `gen_f64`.
//!
//! Every figure's schedule rests on these exact derivations; the
//! known-answer tests below pin them.

#![forbid(unsafe_code)]

use core::ops::Range;

/// Integer widths [`SmallRng::gen_range`] draws: each converts losslessly
/// to and from the 64-bit word the reduction works in.
pub trait RangeInt: Copy + PartialOrd {
    fn to_u64(self) -> u64;
    fn from_u64(w: u64) -> Self;
}

macro_rules! range_int {
    ($($t:ty),*) => {$(
        impl RangeInt for $t {
            #[inline]
            fn to_u64(self) -> u64 { self as u64 }
            #[inline]
            fn from_u64(w: u64) -> Self { w as $t }
        }
    )*};
}

range_int!(u64, u32, usize);

/// SplitMix64: the recommended seed expander for xoshiro state.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// xoshiro256++ — small-state, fast, solid equidistribution.
#[derive(Clone, Debug)]
pub struct SmallRng {
    s: [u64; 4],
}

impl SmallRng {
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut sm = seed;
        let mut s = [0u64; 4];
        for slot in &mut s {
            *slot = splitmix64(&mut sm);
        }
        // All-zero state is the one degenerate orbit; SplitMix64 cannot
        // produce four zero outputs in a row, but keep the guard explicit.
        if s == [0; 4] {
            s[0] = 0x9e37_79b9_7f4a_7c15;
        }
        SmallRng { s }
    }

    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    pub fn gen_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Draw uniformly from a half-open integer range, by the
    /// widening-multiply reduction (Lemire): deterministic and
    /// branch-free, which matters more here than the ~2^-64 modulo bias
    /// it retains.
    #[inline]
    pub fn gen_range<T: RangeInt>(&mut self, range: Range<T>) -> T {
        assert!(range.start < range.end, "gen_range: empty range");
        let start = range.start.to_u64();
        let span = range.end.to_u64() - start;
        T::from_u64(start + ((self.next_u64() as u128 * span as u128) >> 64) as u64)
    }

    /// Bernoulli draw with success probability `p`.
    #[inline]
    pub fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p}");
        self.gen_f64() < p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SmallRng::seed_from_u64(42);
        let mut b = SmallRng::seed_from_u64(42);
        let mut c = SmallRng::seed_from_u64(43);
        let va: Vec<u64> = (0..64).map(|_| a.next_u64()).collect();
        let vb: Vec<u64> = (0..64).map(|_| b.next_u64()).collect();
        let vc: Vec<u64> = (0..64).map(|_| c.next_u64()).collect();
        assert_eq!(va, vb);
        assert_ne!(va, vc);
    }

    #[test]
    fn f64_in_unit_interval_and_well_spread() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut sum = 0.0;
        for _ in 0..10_000 {
            let x = rng.gen_f64();
            assert!((0.0..1.0).contains(&x));
            sum += x;
        }
        let mean = sum / 10_000.0;
        assert!((mean - 0.5).abs() < 0.01, "mean = {mean}");
    }

    #[test]
    fn gen_range_respects_bounds_for_every_width() {
        let mut rng = SmallRng::seed_from_u64(9);
        for _ in 0..10_000 {
            let a = rng.gen_range(10u64..17);
            assert!((10..17).contains(&a));
            let b = rng.gen_range(0usize..3);
            assert!(b < 3);
            let c = rng.gen_range(5u32..6);
            assert_eq!(c, 5, "single-element range");
        }
    }

    #[test]
    fn gen_range_hits_every_value() {
        let mut rng = SmallRng::seed_from_u64(11);
        let mut seen = [false; 8];
        for _ in 0..1_000 {
            seen[rng.gen_range(0usize..8)] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    #[should_panic(expected = "empty range")]
    fn empty_range_panics() {
        let mut rng = SmallRng::seed_from_u64(1);
        let _ = rng.gen_range(3u64..3);
    }

    #[test]
    fn gen_bool_tracks_probability() {
        let mut rng = SmallRng::seed_from_u64(13);
        let hits = (0..100_000).filter(|_| rng.gen_bool(0.3)).count();
        let f = hits as f64 / 100_000.0;
        assert!((f - 0.3).abs() < 0.01, "p=0.3 observed {f}");
        assert!(!(0..100).any(|_| rng.gen_bool(0.0)));
        assert!((0..100).all(|_| rng.gen_bool(1.0)));
    }

    #[test]
    fn known_answer_xoshiro256pp() {
        // Spot-check the raw generator against the reference
        // implementation's first outputs for state {1, 2, 3, 4}.
        let mut rng = SmallRng { s: [1, 2, 3, 4] };
        assert_eq!(rng.next_u64(), 41943041);
        assert_eq!(rng.next_u64(), 58720359);
        assert_eq!(rng.next_u64(), 3588806011781223);
    }

    #[test]
    fn known_answer_derived_draws() {
        // The SplitMix64 seeding and every derivation over `next_u64`, in
        // one fixed order at two seeds. The values were recorded from the
        // `rand`-shaped API this one replaced; any change here moves every
        // workload schedule and every virtual-engine spurious/storm draw.
        let draws = |seed: u64| {
            let mut r = SmallRng::seed_from_u64(seed);
            let raw = [r.next_u64(), r.next_u64(), r.next_u64()];
            let ranges = (
                r.gen_range(0u64..1_000_000_007),
                r.gen_range(10u32..17),
                r.gen_range(0usize..3),
            );
            let f = r.gen_f64().to_bits();
            let bools = [(); 4].map(|_| r.gen_bool(0.5));
            (raw, ranges, f, bools, r.gen_f64().to_bits())
        };
        assert_eq!(
            draws(1),
            (
                [
                    14971601782005023387,
                    13781649495232077965,
                    1847458086238483744
                ],
                (746216875, 11, 1),
                0x3fef_9478_f2a1_1e82,
                [false, true, true, false],
                0x3fd5_fbeb_b767_db3e,
            )
        );
        assert_eq!(
            draws(0x5eed_cafe),
            (
                [
                    12318350942904609768,
                    8961615724248324206,
                    12181769137313284037
                ],
                (973525774, 12, 0),
                0x3fd5_64dc_a54c_15be,
                [true, false, true, false],
                0x3fed_9a9c_200b_3a52,
            )
        );
    }
}
