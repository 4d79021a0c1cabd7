//! Frozen input generation: the benchmark's own PRNG, Zipfian sampler and
//! arrival process. Deliberately *not* `euno-workloads`/`euno-rng`, so a
//! later change to the program's generators cannot change these inputs.
//! Everything here is a pure function of `--seed`; the FNV checksum of
//! each workload's ops is printed per run and asserted for seed 1.

/// Keys are drawn from `0..KEY_RANGE`; even keys are preloaded.
pub const KEY_RANGE: u64 = 1_000_000;
/// Records asked of every scan.
pub const SCAN_LEN: usize = 16;

/// xoshiro256++ (Blackman & Vigna), seeded through splitmix64.
pub struct Xoshiro {
    s: [u64; 4],
}

impl Xoshiro {
    pub fn new(seed: u64) -> Self {
        let mut z = seed;
        let mut next = || {
            z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut x = z;
            x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            x ^ (x >> 31)
        };
        Xoshiro {
            s: [next(), next(), next(), next()],
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (multiply-shift; bias below 2^-44 for n ≤ 2^20).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// Gray et al.'s Zipfian generator over ranks `0..n` ("Quickly generating
/// billion-record synthetic databases", SIGMOD '94), the one YCSB uses.
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    scramble: bool,
}

impl Zipf {
    pub fn new(n: u64, theta: f64, scramble: bool) -> Self {
        assert!(n >= 2 && (0.0..1.0).contains(&theta) && theta > 0.0);
        let zeta = |m: u64| -> f64 { (1..=m).map(|i| 1.0 / (i as f64).powf(theta)).sum() };
        let zetan = zeta(n);
        Zipf {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta(2) / zetan),
            scramble,
        }
    }

    pub fn sample(&self, rng: &mut Xoshiro) -> u64 {
        let u = rng.next_f64();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            let k = (self.n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
            k.min(self.n - 1)
        };
        if self.scramble {
            // Hot ranks land on unrelated keys: popularity skew without
            // the adjacency (no false sharing between hot records).
            fnv1a(rank.to_le_bytes()) % self.n
        } else {
            rank
        }
    }
}

pub fn fnv1a(bytes: impl IntoIterator<Item = u8>) -> u64 {
    bytes.into_iter().fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    Get = 0,
    Put = 1,
    Delete = 2,
    Scan = 3,
}

impl Kind {
    pub const ALL: [Kind; 4] = [Kind::Get, Kind::Put, Kind::Delete, Kind::Scan];
}

const KEY_BITS: u32 = 20;

/// One generated operation, packed: key in the low 20 bits, kind above.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Op(u32);

impl Op {
    fn new(key: u64, kind: Kind) -> Self {
        debug_assert!(key < KEY_RANGE && KEY_RANGE <= 1 << KEY_BITS);
        Op(key as u32 | (kind as u32) << KEY_BITS)
    }

    #[inline]
    pub fn key(self) -> u64 {
        u64::from(self.0 & ((1 << KEY_BITS) - 1))
    }

    #[inline]
    pub fn kind(self) -> Kind {
        Kind::ALL[(self.0 >> KEY_BITS) as usize]
    }
}

/// The four traffic definitions of the benchmark (see the README).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Traffic {
    /// Zipfian θ = 0.99 unscrambled, 50 % get / 50 % put.
    Hot,
    /// Uniform keys, 50 % get / 50 % put.
    Flat,
    /// Zipfian θ = 0.9 unscrambled, 20 % get / 30 % put / 30 % delete /
    /// 20 % scan of 16 records.
    ScanChurn,
    /// Zipfian θ = 0.9 scrambled, 50 % get / 50 % put.
    Serve,
}

impl Traffic {
    pub fn name(self) -> &'static str {
        match self {
            Traffic::Hot => "hot",
            Traffic::Flat => "flat",
            Traffic::ScanChurn => "scan-churn",
            Traffic::Serve => "serve",
        }
    }

    fn keys(self) -> Option<Zipf> {
        match self {
            Traffic::Hot => Some(Zipf::new(KEY_RANGE, 0.99, false)),
            Traffic::Flat => None,
            Traffic::ScanChurn => Some(Zipf::new(KEY_RANGE, 0.9, false)),
            Traffic::Serve => Some(Zipf::new(KEY_RANGE, 0.9, true)),
        }
    }

    fn kind_of(self, u: f64) -> Kind {
        match self {
            Traffic::ScanChurn if u < 0.2 => Kind::Get,
            Traffic::ScanChurn if u < 0.5 => Kind::Put,
            Traffic::ScanChurn if u < 0.8 => Kind::Delete,
            Traffic::ScanChurn => Kind::Scan,
            _ if u < 0.5 => Kind::Get,
            _ => Kind::Put,
        }
    }

    /// `threads` op streams of `len` ops each. Stream `t` depends only on
    /// `(self, seed, t)`, so a longer stream extends a shorter one.
    pub fn streams(self, seed: u64, threads: usize, len: usize) -> Vec<Vec<Op>> {
        let keys = self.keys();
        (0..threads)
            .map(|t| {
                let mut rng = Xoshiro::new(
                    seed ^ (self as u64 + 1).wrapping_mul(0xa076_1d64_78bd_642f)
                        ^ (t as u64 + 1).wrapping_mul(0xe703_7ed1_a0b4_28db),
                );
                (0..len)
                    .map(|_| {
                        let key = match &keys {
                            Some(z) => z.sample(&mut rng),
                            None => rng.below(KEY_RANGE),
                        };
                        Op::new(key, self.kind_of(rng.next_f64()))
                    })
                    .collect()
            })
            .collect()
    }
}

/// FNV-1a over every op of every stream, in order.
pub fn checksum(streams: &[Vec<Op>]) -> u64 {
    fnv1a(streams.iter().flatten().flat_map(|op| op.0.to_le_bytes()))
}

/// Poisson arrivals at `rate` per second: `n` due times in ns from 0.
pub fn poisson_arrivals(seed: u64, rate: f64, n: usize) -> Vec<u64> {
    let mut rng = Xoshiro::new(seed ^ 0x0a11_1a15);
    let mut t = 0.0f64;
    (0..n)
        .map(|_| {
            t += -(1.0 - rng.next_f64()).ln() / rate * 1e9;
            t as u64
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn xoshiro_matches_reference_vector() {
        // State {1,2,3,4} → first outputs of the reference C code.
        let mut r = Xoshiro { s: [1, 2, 3, 4] };
        assert_eq!(r.next_u64(), 41943041);
        assert_eq!(r.next_u64(), 58720359);
        assert_eq!(r.next_u64(), 3588806011781223);
    }

    #[test]
    fn streams_are_deterministic_and_prefix_stable() {
        for tr in [
            Traffic::Hot,
            Traffic::Flat,
            Traffic::ScanChurn,
            Traffic::Serve,
        ] {
            let a = tr.streams(1, 3, 2_000);
            let b = tr.streams(1, 3, 2_000);
            assert_eq!(checksum(&a), checksum(&b));
            let longer = tr.streams(1, 3, 3_000);
            assert_eq!(a[2][..], longer[2][..2_000]);
            assert_ne!(checksum(&a), checksum(&tr.streams(2, 3, 2_000)));
            assert_ne!(a[0], a[1], "threads draw private streams");
        }
    }

    #[test]
    fn mixes_and_skew_are_as_defined() {
        let n = 200_000;
        let frac =
            |ops: &[Op], k: Kind| ops.iter().filter(|o| o.kind() == k).count() as f64 / n as f64;
        let hot = &Traffic::Hot.streams(3, 1, n)[0];
        assert!((frac(hot, Kind::Get) - 0.5).abs() < 0.01);
        assert_eq!(frac(hot, Kind::Scan), 0.0);
        let churn = &Traffic::ScanChurn.streams(3, 1, n)[0];
        for (k, want) in [
            (Kind::Get, 0.2),
            (Kind::Put, 0.3),
            (Kind::Delete, 0.3),
            (Kind::Scan, 0.2),
        ] {
            assert!((frac(churn, k) - want).abs() < 0.01, "{k:?}");
        }
        // Unscrambled Zipf: the hottest keys are the smallest and adjacent.
        let low = hot.iter().filter(|o| o.key() < 16).count() as f64 / n as f64;
        assert!(
            low > 0.15,
            "θ=0.99 puts >15 % of draws on 16 keys, got {low}"
        );
        let flat = &Traffic::Flat.streams(3, 1, n)[0];
        let low = flat.iter().filter(|o| o.key() < KEY_RANGE / 2).count() as f64 / n as f64;
        assert!((low - 0.5).abs() < 0.01);
        // Scrambled: same skew, hot keys spread out.
        let serve = &Traffic::Serve.streams(3, 1, n)[0];
        let low = serve.iter().filter(|o| o.key() < 16).count() as f64 / n as f64;
        assert!(low < 0.01);
    }

    #[test]
    fn arrivals_are_sorted_at_the_asked_rate() {
        let a = poisson_arrivals(1, 200_000.0, 100_000);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        let rate = a.len() as f64 / (*a.last().unwrap() as f64 / 1e9);
        assert!((rate - 200_000.0).abs() < 2_000.0, "rate {rate}");
    }
}
