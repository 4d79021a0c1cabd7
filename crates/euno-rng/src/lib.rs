//! # euno-rng — deterministic PRNG for the Eunomia workspace
//!
//! A self-contained replacement for the tiny slice of the `rand` crate
//! API this workspace uses, so the whole reproduction builds with no
//! external dependencies. The generator is xoshiro256++ (Blackman &
//! Vigna), seeded through SplitMix64 — the same construction `rand`'s
//! `SmallRng` uses on 64-bit targets: fast, tiny state, and more than
//! adequate statistical quality for workload generation and scheduling
//! jitter (nothing here is cryptographic).
//!
//! The API mirrors `rand` where the workspace touches it:
//!
//! * [`SmallRng::seed_from_u64`] (also via the [`SeedableRng`] trait),
//! * [`Rng::gen`] for `f64`/`u64`/`u32`,
//! * [`Rng::gen_range`] over half-open integer ranges,
//! * [`Rng::gen_bool`],
//! * generic `R: Rng` bounds for caller-supplied generators.

#![forbid(unsafe_code)]

/// Sources of raw 64-bit randomness.
pub trait RngCore {
    fn next_u64(&mut self) -> u64;
}

/// Values drawable uniformly from an RNG via [`Rng::gen`].
pub trait Standard: Sized {
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> Self;
}

impl Standard for u64 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u64 {
        rng.next_u64()
    }
}

impl Standard for u32 {
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> u32 {
        (rng.next_u64() >> 32) as u32
    }
}

impl Standard for f64 {
    /// Uniform in `[0, 1)` with 53 bits of precision.
    #[inline]
    fn sample<R: RngCore + ?Sized>(rng: &mut R) -> f64 {
        (rng.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }
}

/// Half-open ranges usable with [`Rng::gen_range`].
pub trait SampleRange {
    type Output;
    fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> Self::Output;
}

/// Unbiased-enough bounded sample via the widening-multiply reduction
/// (Lemire); deterministic and branch-free, which matters more here than
/// the ~2^-64 modulo bias it retains.
#[inline]
fn bounded(rng: &mut (impl RngCore + ?Sized), span: u64) -> u64 {
    debug_assert!(span > 0);
    ((rng.next_u64() as u128 * span as u128) >> 64) as u64
}

macro_rules! int_range {
    ($($t:ty),*) => {$(
        impl SampleRange for core::ops::Range<$t> {
            type Output = $t;
            #[inline]
            fn sample_from<R: RngCore + ?Sized>(self, rng: &mut R) -> $t {
                assert!(self.start < self.end, "gen_range: empty range");
                let span = (self.end - self.start) as u64;
                self.start + bounded(rng, span) as $t
            }
        }
    )*};
}

int_range!(u64, u32, u16, u8, usize);

/// The user-facing RNG methods, available on every [`RngCore`].
pub trait Rng: RngCore {
    /// Draw a uniform value of an implementing type (`f64` is `[0, 1)`).
    #[inline]
    fn gen<T: Standard>(&mut self) -> T {
        T::sample(self)
    }

    /// Draw uniformly from a half-open integer range.
    #[inline]
    fn gen_range<S: SampleRange>(&mut self, range: S) -> S::Output {
        range.sample_from(self)
    }

    /// Bernoulli draw with success probability `p`.
    #[inline]
    fn gen_bool(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "gen_bool: p = {p}");
        self.gen::<f64>() < p
    }
}

impl<R: RngCore + ?Sized> Rng for R {}

/// Construction from a 64-bit seed, mirroring `rand::SeedableRng`.
pub trait SeedableRng: Sized {
    fn seed_from_u64(seed: u64) -> Self;
}

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
}

impl SeedableRng for SmallRng {
    fn seed_from_u64(seed: u64) -> Self {
        SmallRng::seed_from_u64(seed)
    }
}

impl RngCore for SmallRng {
    #[inline]
    fn next_u64(&mut self) -> u64 {
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
}

/// `rand`-compatible module path (`euno_rng::rngs::SmallRng`).
pub mod rngs {
    pub use crate::SmallRng;
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
            let x: f64 = rng.gen();
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
    fn generic_rng_bound_works_like_rand() {
        fn sample_mean<R: Rng>(rng: &mut R) -> f64 {
            (0..1000).map(|_| rng.gen::<f64>()).sum::<f64>() / 1000.0
        }
        let mut rng = SmallRng::seed_from_u64(17);
        let m = sample_mean(&mut rng);
        assert!((m - 0.5).abs() < 0.05);
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
}
