//! Randomized property tests for the workload generators, driven by
//! seeded `euno-rng` parameter sweeps.

use euno_rng::{Rng, SmallRng};

use euno_workloads::{KeyDistribution, KeySampler, OpMix, OpStream, Preload, WorkloadSpec};

fn random_distribution(rng: &mut SmallRng) -> KeyDistribution {
    match rng.gen_range(0u32..6) {
        0 => KeyDistribution::Uniform,
        1 => KeyDistribution::Zipfian {
            theta: rng.gen::<f64>() * 0.999,
            scramble: false,
        },
        2 => KeyDistribution::Zipfian {
            theta: rng.gen::<f64>() * 0.999,
            scramble: true,
        },
        3 => KeyDistribution::SelfSimilar {
            h: 0.01 + rng.gen::<f64>() * 0.48,
        },
        4 => KeyDistribution::Normal {
            sd_fraction: 0.001 + rng.gen::<f64>() * 0.199,
        },
        _ => KeyDistribution::Poisson {
            lambda: 1.0 + rng.gen::<f64>() * 499.0,
        },
    }
}

/// Every sampler stays inside its key range for any parameters.
#[test]
fn samples_in_range() {
    let mut meta = SmallRng::seed_from_u64(0x5a3);
    for _ in 0..64 {
        let dist = random_distribution(&mut meta);
        let n = meta.gen_range(1u64..100_000);
        let seed = meta.gen::<u64>();
        let s = KeySampler::new(&dist, n);
        let mut rng = SmallRng::seed_from_u64(seed);
        for _ in 0..200 {
            assert!(s.sample(&mut rng) < n, "{dist:?} n={n}");
        }
    }
}

/// Samplers are pure: identical seeds give identical streams.
#[test]
fn samplers_deterministic() {
    let mut meta = SmallRng::seed_from_u64(0xde7e);
    for _ in 0..64 {
        let dist = random_distribution(&mut meta);
        let seed = meta.gen::<u64>();
        let s = KeySampler::new(&dist, 10_000);
        let mut a = SmallRng::seed_from_u64(seed);
        let mut b = SmallRng::seed_from_u64(seed);
        for _ in 0..100 {
            assert_eq!(s.sample(&mut a), s.sample(&mut b), "{dist:?}");
        }
    }
}

/// Op streams respect the key range and mixes with arbitrary weights.
#[test]
fn op_streams_respect_spec() {
    let mut meta = SmallRng::seed_from_u64(0x09f7);
    for _ in 0..64 {
        let get = meta.gen::<f64>();
        let scan_weight = meta.gen::<f64>() * 0.3;
        let seed = meta.gen::<u64>();
        let thread = meta.gen_range(0u64..32);
        let put = (1.0 - get) * (1.0 - scan_weight);
        let scan = (1.0 - get) * scan_weight;
        let spec = WorkloadSpec {
            key_range: 5_000,
            dist: KeyDistribution::Uniform,
            mix: OpMix {
                get,
                put,
                delete: 0.0,
                scan,
            },
            scan_len: 9,
            preload: Preload::None,
        };
        let mut stream = OpStream::new(&spec, thread, seed);
        for _ in 0..300 {
            let op = stream.next_op();
            assert!(op.key() < 5_000);
            if let euno_workloads::Op::Scan { len, .. } = op {
                assert_eq!(len, 9);
            }
        }
    }
}

/// Preload policies generate strictly increasing unique keys in range.
#[test]
fn preload_keys_sorted_unique() {
    let mut meta = SmallRng::seed_from_u64(0x9135);
    for _ in 0..64 {
        let pm = meta.gen_range(0u32..1000);
        let range = meta.gen_range(1u64..50_000);
        for preload in [
            Preload::EvenKeys,
            Preload::FirstN(range / 2),
            Preload::FractionPerMille(pm),
        ] {
            let spec = WorkloadSpec {
                key_range: range,
                dist: KeyDistribution::Uniform,
                mix: OpMix::default_ycsb(),
                scan_len: 4,
                preload,
            };
            let keys: Vec<u64> = spec.preload_keys().collect();
            assert!(keys.windows(2).all(|w| w[0] < w[1]), "{preload:?}");
            assert!(keys.iter().all(|&k| k < range), "{preload:?}");
        }
    }
}
