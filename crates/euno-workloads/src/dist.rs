//! Key-distribution samplers for the YCSB-style client (§5.1, §5.5).
//!
//! The paper drives every experiment with skewed key streams:
//!
//! * **Zipfian** with skew coefficient θ (Gray et al.'s generator, the one
//!   YCSB uses): `P(k) ∝ (1/k)^θ`. θ = 0 is uniform; at θ = 0.99 "the
//!   hottest tenth of the values are accessed by 41 % of the requests".
//! * **Self-similar** (80/20 rule): within any sub-range the skew repeats.
//! * **Normal** with mean N/2 and σ = 1 % of the mean.
//! * **Poisson** calibrated so the hottest 10 % of records receive ~70 % of
//!   requests (§5.5 quotes the hot-set fractions rather than λ; we solve
//!   for the matching λ).
//!
//! All samplers draw from a caller-supplied RNG so every thread has a
//! private, deterministic stream (the paper's "intra-thread locality").

use euno_rng::SmallRng;

/// A key distribution over `0..n`.
#[derive(Clone, Debug)]
pub enum KeyDistribution {
    /// Every key equally likely.
    Uniform,
    /// Zipfian with skew `theta ∈ [0, 1)`. With `scramble`, ranks are
    /// hashed over the key space (YCSB's "scrambled zipfian"), which keeps
    /// popularity skew but destroys the adjacency of hot keys; the paper's
    /// false-sharing analysis uses the unscrambled form.
    Zipfian { theta: f64, scramble: bool },
    /// Self-similar / hotspot: fraction `h` of the keys receive `1 − h` of
    /// the accesses, recursively (h = 0.2 → the 80/20 rule of §5.5).
    SelfSimilar { h: f64 },
    /// Normal around `n/2` with standard deviation `sd_fraction · n/2`
    /// (§5.5 uses 1 % of the mean).
    Normal { sd_fraction: f64 },
    /// Poisson-shaped hot spot: a Poisson(λ) sample stretched over the key
    /// space so that ±10 %·n/2 around the mode captures ~70 % of requests,
    /// matching §5.5's "10 % hottest records are accessed by 70 % of the
    /// requests".
    Poisson { lambda: f64 },
}

impl KeyDistribution {
    /// The paper's default Poisson calibration: `P(|X−λ| ≤ 0.1λ) ≈ 0.7`
    /// requires `0.1λ ≈ 1.036√λ`, i.e. λ ≈ 107.
    pub fn poisson_paper() -> Self {
        KeyDistribution::Poisson { lambda: 107.4 }
    }

    /// The paper's Normal calibration (σ = 1 % of the mean).
    pub fn normal_paper() -> Self {
        KeyDistribution::Normal { sd_fraction: 0.01 }
    }

    /// The paper's self-similar calibration (80/20).
    pub fn self_similar_paper() -> Self {
        KeyDistribution::SelfSimilar { h: 0.2 }
    }
}

/// A ready-to-sample distribution instance bound to a key-range size.
/// Construction may precompute tables (the Zipfian ζ constant is Θ(n)),
/// so build once per run and share across threads.
#[derive(Clone, Debug)]
pub struct KeySampler {
    n: u64,
    kind: SamplerKind,
}

#[derive(Clone, Debug)]
enum SamplerKind {
    Uniform,
    Zipfian(ZipfianTable),
    SelfSimilar { exponent: f64 },
    Normal { mean: f64, sd: f64 },
    Poisson { lambda: f64 },
}

#[derive(Clone, Debug)]
struct ZipfianTable {
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
    scramble: bool,
}

impl KeySampler {
    pub fn new(dist: &KeyDistribution, n: u64) -> Self {
        assert!(n > 0, "key range must be non-empty");
        let kind = match *dist {
            KeyDistribution::Uniform => SamplerKind::Uniform,
            KeyDistribution::Zipfian { theta, scramble } => {
                assert!(
                    (0.0..1.0).contains(&theta),
                    "zipfian theta must be in [0, 1), got {theta}"
                );
                if theta == 0.0 {
                    SamplerKind::Uniform
                } else {
                    SamplerKind::Zipfian(ZipfianTable::new(n, theta, scramble))
                }
            }
            KeyDistribution::SelfSimilar { h } => {
                assert!((0.0..0.5).contains(&h) && h > 0.0, "h must be in (0, 0.5)");
                SamplerKind::SelfSimilar {
                    exponent: h.ln() / (1.0 - h).ln(),
                }
            }
            KeyDistribution::Normal { sd_fraction } => {
                let mean = n as f64 / 2.0;
                SamplerKind::Normal {
                    mean,
                    sd: sd_fraction * mean,
                }
            }
            KeyDistribution::Poisson { lambda } => {
                assert!(lambda > 0.0);
                SamplerKind::Poisson { lambda }
            }
        };
        KeySampler { n, kind }
    }

    pub fn key_range(&self) -> u64 {
        self.n
    }

    /// Draw one key in `0..n`.
    pub fn sample(&self, rng: &mut SmallRng) -> u64 {
        match &self.kind {
            SamplerKind::Uniform => rng.gen_range(0..self.n),
            SamplerKind::Zipfian(t) => t.sample(self.n, rng),
            SamplerKind::SelfSimilar { exponent } => {
                let u = rng.gen_f64();
                let k = (self.n as f64 * u.powf(*exponent)) as u64;
                k.min(self.n - 1)
            }
            SamplerKind::Normal { mean, sd } => {
                let z = standard_normal(rng);
                let x = mean + sd * z;
                (x.max(0.0) as u64).min(self.n - 1)
            }
            SamplerKind::Poisson { lambda } => {
                // Stretch the Poisson lattice over the key space, smoothing
                // with a uniform jitter so neighbouring keys (not just
                // lattice points) receive traffic.
                let x = poisson(*lambda, rng) as f64 + rng.gen_f64();
                let key = x * self.n as f64 / (2.0 * lambda);
                (key as u64).min(self.n - 1)
            }
        }
    }
}

impl ZipfianTable {
    fn new(n: u64, theta: f64, scramble: bool) -> Self {
        let zetan = zeta(n, theta);
        let zeta2 = zeta(2, theta);
        let alpha = 1.0 / (1.0 - theta);
        let eta = (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan);
        ZipfianTable {
            theta,
            alpha,
            zetan,
            eta,
            scramble,
        }
    }

    fn sample(&self, n: u64, rng: &mut SmallRng) -> u64 {
        let u = rng.gen_f64();
        let uz = u * self.zetan;
        let rank = if uz < 1.0 {
            0
        } else if uz < 1.0 + 0.5f64.powf(self.theta) {
            1
        } else {
            let k = (n as f64 * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64;
            k.min(n - 1)
        };
        if self.scramble {
            fnv_hash(rank) % n
        } else {
            rank
        }
    }
}

/// Generalized harmonic number Σ 1/i^θ, computed once per (n, θ).
fn zeta(n: u64, theta: f64) -> f64 {
    (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum()
}

/// FNV-1a on the rank, YCSB's key scrambler.
fn fnv_hash(mut x: u64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for _ in 0..8 {
        h ^= x & 0xff;
        h = h.wrapping_mul(0x1000_0000_01b3);
        x >>= 8;
    }
    h
}

/// Box–Muller standard normal deviate.
fn standard_normal(rng: &mut SmallRng) -> f64 {
    loop {
        let u1 = rng.gen_f64();
        let u2 = rng.gen_f64();
        if u1 > f64::EPSILON {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// Poisson sampler: Knuth's product method for small λ, normal
/// approximation (continuity-corrected) for large λ.
fn poisson(lambda: f64, rng: &mut SmallRng) -> u64 {
    if lambda < 30.0 {
        let l = (-lambda).exp();
        let mut k = 0u64;
        let mut p = 1.0;
        loop {
            p *= rng.gen_f64();
            if p <= l {
                return k;
            }
            k += 1;
        }
    } else {
        let x = lambda + lambda.sqrt() * standard_normal(rng) + 0.5;
        x.max(0.0) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u64 = 100_000;
    const SAMPLES: usize = 200_000;

    fn histogram(sampler: &KeySampler, seed: u64) -> Vec<u64> {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut h = vec![0u64; sampler.key_range() as usize];
        for _ in 0..SAMPLES {
            h[sampler.sample(&mut rng) as usize] += 1;
        }
        h
    }

    /// Fraction of samples landing in the lowest-`frac` key prefix. For
    /// the *unscrambled* generators the hottest keys are exactly the low
    /// ranks, so this measures the distribution's hot mass without the
    /// upward bias of sorting a sparse empirical histogram.
    fn prefix_fraction(hist: &[u64], frac: f64) -> f64 {
        let hot = (hist.len() as f64 * frac) as usize;
        let hot_sum: u64 = hist[..hot].iter().sum();
        let total: u64 = hist.iter().sum();
        hot_sum as f64 / total as f64
    }

    #[test]
    fn uniform_is_flat() {
        let s = KeySampler::new(&KeyDistribution::Uniform, N);
        let h = histogram(&s, 1);
        let f = prefix_fraction(&h, 0.1);
        assert!((f - 0.1).abs() < 0.01, "uniform hot-10% fraction = {f}");
    }

    #[test]
    fn zipfian_099_hot_mass() {
        // With θ = 0.99 the hot mass of the rank prefix depends on the key
        // range: Σ_{i≤n/10} i^-θ / Σ_{i≤n} i^-θ ≈ 0.83 for n = 10^5 (the
        // paper's "hottest tenth gets 41 %" parenthetical is quoted for its
        // 100 M-key range). We assert the analytic value for our n.
        let s = KeySampler::new(
            &KeyDistribution::Zipfian {
                theta: 0.99,
                scramble: false,
            },
            N,
        );
        let h = histogram(&s, 2);
        let f = prefix_fraction(&h, 0.1);
        let analytic = zeta(N / 10, 0.99) / zeta(N, 0.99);
        assert!(
            (f - analytic).abs() < 0.03,
            "hot-10% fraction = {f}, analytic = {analytic}"
        );
    }

    #[test]
    fn zipfian_skew_increases_with_theta() {
        let mut prev = 0.0;
        for (i, theta) in [0.2, 0.5, 0.8, 0.99].iter().enumerate() {
            let s = KeySampler::new(
                &KeyDistribution::Zipfian {
                    theta: *theta,
                    scramble: false,
                },
                N,
            );
            let f = prefix_fraction(&histogram(&s, 3 + i as u64), 0.01);
            assert!(f > prev, "θ={theta}: hot fraction {f} ≤ previous {prev}");
            prev = f;
        }
    }

    #[test]
    fn zipfian_theta_zero_is_uniform() {
        let s = KeySampler::new(
            &KeyDistribution::Zipfian {
                theta: 0.0,
                scramble: false,
            },
            N,
        );
        let f = prefix_fraction(&histogram(&s, 7), 0.1);
        assert!((f - 0.1).abs() < 0.01);
    }

    #[test]
    fn unscrambled_zipfian_hot_keys_are_small_and_adjacent() {
        let s = KeySampler::new(
            &KeyDistribution::Zipfian {
                theta: 0.9,
                scramble: false,
            },
            N,
        );
        let h = histogram(&s, 4);
        // The very hottest key must be key 0, and the low prefix must carry
        // a large share — this adjacency is what produces false sharing.
        let hottest = h.iter().enumerate().max_by_key(|(_, &c)| c).unwrap().0;
        assert_eq!(hottest, 0);
        let prefix: u64 = h[..64].iter().sum();
        let total: u64 = h.iter().sum();
        assert!(prefix as f64 / total as f64 > 0.2);
    }

    #[test]
    fn scrambled_zipfian_spreads_hot_keys() {
        let s = KeySampler::new(
            &KeyDistribution::Zipfian {
                theta: 0.9,
                scramble: true,
            },
            N,
        );
        let h = histogram(&s, 5);
        let prefix: u64 = h[..64].iter().sum();
        let total: u64 = h.iter().sum();
        assert!(
            (prefix as f64 / total as f64) < 0.05,
            "scrambling must break prefix concentration"
        );
    }

    #[test]
    fn self_similar_obeys_80_20() {
        let s = KeySampler::new(&KeyDistribution::self_similar_paper(), N);
        let mut rng = SmallRng::seed_from_u64(6);
        let mut in_first_fifth = 0usize;
        for _ in 0..SAMPLES {
            if s.sample(&mut rng) < N / 5 {
                in_first_fifth += 1;
            }
        }
        let f = in_first_fifth as f64 / SAMPLES as f64;
        assert!((f - 0.8).abs() < 0.02, "80/20 fraction = {f}");
    }

    #[test]
    fn normal_concentrates_around_mean() {
        let s = KeySampler::new(&KeyDistribution::normal_paper(), N);
        let mut rng = SmallRng::seed_from_u64(8);
        let mean = N as f64 / 2.0;
        let sd = 0.01 * mean;
        let mut within = 0usize;
        for _ in 0..SAMPLES {
            let k = s.sample(&mut rng) as f64;
            if (k - mean).abs() <= 2.0 * sd {
                within += 1;
            }
        }
        let f = within as f64 / SAMPLES as f64;
        assert!((f - 0.954).abs() < 0.02, "±2σ mass = {f}");
    }

    #[test]
    fn poisson_hotspot_calibration() {
        // §5.5: the 10 % hottest records get ~70 % of requests. The hot
        // region of the stretched Poisson is the 10 %-wide window around
        // the mode at n/2.
        let s = KeySampler::new(&KeyDistribution::poisson_paper(), N);
        let h = histogram(&s, 9);
        let (lo, hi) = ((N as usize * 45) / 100, (N as usize * 55) / 100);
        let window: u64 = h[lo..hi].iter().sum();
        let total: u64 = h.iter().sum();
        let f = window as f64 / total as f64;
        assert!((0.62..0.78).contains(&f), "poisson hot-10% = {f}");
    }

    #[test]
    fn samples_always_in_range() {
        for dist in [
            KeyDistribution::Uniform,
            KeyDistribution::Zipfian {
                theta: 0.99,
                scramble: false,
            },
            KeyDistribution::self_similar_paper(),
            KeyDistribution::normal_paper(),
            KeyDistribution::poisson_paper(),
        ] {
            let s = KeySampler::new(&dist, 97); // odd small range
            let mut rng = SmallRng::seed_from_u64(10);
            for _ in 0..10_000 {
                assert!(s.sample(&mut rng) < 97);
            }
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let s = KeySampler::new(
            &KeyDistribution::Zipfian {
                theta: 0.9,
                scramble: false,
            },
            N,
        );
        let mut a = SmallRng::seed_from_u64(11);
        let mut b = SmallRng::seed_from_u64(11);
        for _ in 0..1000 {
            assert_eq!(s.sample(&mut a), s.sample(&mut b));
        }
    }

    #[test]
    fn small_lambda_poisson_mean() {
        let mut rng = SmallRng::seed_from_u64(12);
        let mean: f64 = (0..50_000)
            .map(|_| poisson(4.0, &mut rng) as f64)
            .sum::<f64>()
            / 50_000.0;
        assert!((mean - 4.0).abs() < 0.1, "Poisson(4) sample mean = {mean}");
    }
}
