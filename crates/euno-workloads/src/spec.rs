//! Workload specification and per-thread operation streams.
//!
//! Mirrors the YCSB client setup of §5.1: a key range, a key distribution,
//! a get/put mix (default 50 %/50 %), optional deletes and range scans,
//! and one private deterministic stream per thread.

use euno_rng::{Rng, SmallRng};

use crate::dist::{KeyDistribution, KeySampler};

/// Operation mix as probabilities (must sum to 1).
#[derive(Clone, Copy, Debug)]
pub struct OpMix {
    pub get: f64,
    pub put: f64,
    pub delete: f64,
    pub scan: f64,
}

impl OpMix {
    /// The paper's default: 50 % get / 50 % put.
    pub fn default_ycsb() -> Self {
        OpMix {
            get: 0.5,
            put: 0.5,
            delete: 0.0,
            scan: 0.0,
        }
    }

    /// A get/put-only mix with the given get fraction (§5.4 sweeps
    /// 0 %, 20 %, 50 %, 70 % gets).
    pub fn get_put(get_fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&get_fraction));
        OpMix {
            get: get_fraction,
            put: 1.0 - get_fraction,
            delete: 0.0,
            scan: 0.0,
        }
    }

    pub fn validate(&self) {
        let sum = self.get + self.put + self.delete + self.scan;
        assert!((sum - 1.0).abs() < 1e-9, "op mix must sum to 1, got {sum}");
        for p in [self.get, self.put, self.delete, self.scan] {
            assert!((0.0..=1.0).contains(&p));
        }
    }
}

/// One client operation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Get { key: u64 },
    Put { key: u64, value: u64 },
    Delete { key: u64 },
    Scan { from: u64, len: usize },
}

impl Op {
    pub fn key(&self) -> u64 {
        match *self {
            Op::Get { key } | Op::Put { key, .. } | Op::Delete { key } => key,
            Op::Scan { from, .. } => from,
        }
    }

    pub fn is_write(&self) -> bool {
        matches!(self, Op::Put { .. } | Op::Delete { .. })
    }
}

/// How the tree is populated before measurement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Preload {
    /// No initial records (insert-only workloads).
    None,
    /// Every even key present — leaves are half full and a Zipfian get has
    /// a 50 % hit rate, exercising both the hit and miss paths (and the
    /// CCM mark-bit filter). The default.
    EvenKeys,
    /// The first `n` keys, contiguous.
    FirstN(u64),
    /// A deterministic pseudo-random fraction (per-mille) of the range.
    FractionPerMille(u32),
}

/// Full workload description. Cheap to clone; build one [`KeySampler`]
/// via [`WorkloadSpec::sampler`] and share it.
#[derive(Clone, Debug)]
pub struct WorkloadSpec {
    pub key_range: u64,
    pub dist: KeyDistribution,
    pub mix: OpMix,
    /// Records returned per scan.
    pub scan_len: usize,
    pub preload: Preload,
}

impl WorkloadSpec {
    /// §5.1 defaults scaled to the host (the paper uses a 100 M key range;
    /// see DESIGN.md for the substitution note).
    pub fn paper_default(theta: f64) -> Self {
        WorkloadSpec {
            key_range: 1_000_000,
            dist: KeyDistribution::Zipfian {
                theta,
                scramble: false,
            },
            mix: OpMix::default_ycsb(),
            scan_len: 16,
            preload: Preload::EvenKeys,
        }
    }

    pub fn sampler(&self) -> KeySampler {
        self.mix.validate();
        KeySampler::new(&self.dist, self.key_range)
    }

    /// The keys present before the measured phase begins, in insertion
    /// order (ascending — building a B+Tree bulk-ish).
    pub fn preload_keys(&self) -> Box<dyn Iterator<Item = u64> + '_> {
        match self.preload {
            Preload::None => Box::new(std::iter::empty()),
            Preload::EvenKeys => Box::new((0..self.key_range / 2).map(|i| i * 2)),
            Preload::FirstN(n) => Box::new(0..n.min(self.key_range)),
            Preload::FractionPerMille(pm) => {
                let pm = pm.min(1000) as u64;
                Box::new(
                    (0..self.key_range)
                        .filter(move |k| (k.wrapping_mul(0x9e3779b97f4a7c15) >> 54) % 1000 < pm),
                )
            }
        }
    }
}

/// A private per-thread operation stream. Deterministic for (spec, seed).
pub struct OpStream {
    sampler: KeySampler,
    mix: OpMix,
    scan_len: usize,
    rng: SmallRng,
    serial: u64,
    thread: u64,
}

impl OpStream {
    pub fn new(spec: &WorkloadSpec, thread: u64, seed: u64) -> Self {
        OpStream {
            sampler: spec.sampler(),
            mix: spec.mix,
            scan_len: spec.scan_len,
            rng: SmallRng::seed_from_u64(seed ^ (thread.wrapping_mul(0xff51_afd7_ed55_8ccd))),
            serial: 0,
            thread,
        }
    }

    /// Generate the next operation.
    pub fn next_op(&mut self) -> Op {
        let key = self.sampler.sample(&mut self.rng);
        let r: f64 = self.rng.gen();
        self.serial += 1;
        let m = &self.mix;
        if r < m.get {
            Op::Get { key }
        } else if r < m.get + m.put {
            // Distinguishable value payload: thread id in the top bits,
            // serial below — lets tests detect lost/mixed updates.
            let value = (self.thread << 48) | (self.serial & 0xffff_ffff_ffff);
            Op::Put { key, value }
        } else if r < m.get + m.put + m.delete {
            Op::Delete { key }
        } else {
            Op::Scan {
                from: key,
                len: self.scan_len,
            }
        }
    }
}

impl Iterator for OpStream {
    type Item = Op;
    fn next(&mut self) -> Option<Op> {
        Some(self.next_op())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> WorkloadSpec {
        WorkloadSpec::paper_default(0.9)
    }

    #[test]
    fn mix_ratios_hold() {
        let mut s = OpStream::new(
            &WorkloadSpec {
                mix: OpMix {
                    get: 0.2,
                    put: 0.6,
                    delete: 0.1,
                    scan: 0.1,
                },
                ..spec()
            },
            0,
            7,
        );
        let (mut g, mut p, mut d, mut sc) = (0, 0, 0, 0);
        let n = 100_000;
        for _ in 0..n {
            match s.next_op() {
                Op::Get { .. } => g += 1,
                Op::Put { .. } => p += 1,
                Op::Delete { .. } => d += 1,
                Op::Scan { .. } => sc += 1,
            }
        }
        let f = |x: i32| x as f64 / n as f64;
        assert!((f(g) - 0.2).abs() < 0.01);
        assert!((f(p) - 0.6).abs() < 0.01);
        assert!((f(d) - 0.1).abs() < 0.01);
        assert!((f(sc) - 0.1).abs() < 0.01);
    }

    #[test]
    #[should_panic(expected = "sum to 1")]
    fn invalid_mix_rejected() {
        OpMix {
            get: 0.5,
            put: 0.6,
            delete: 0.0,
            scan: 0.0,
        }
        .validate();
    }

    #[test]
    fn streams_are_deterministic_and_thread_distinct() {
        let a: Vec<Op> = OpStream::new(&spec(), 0, 42).take(100).collect();
        let b: Vec<Op> = OpStream::new(&spec(), 0, 42).take(100).collect();
        let c: Vec<Op> = OpStream::new(&spec(), 1, 42).take(100).collect();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn put_values_encode_thread() {
        let mut s = OpStream::new(&spec(), 5, 1);
        for _ in 0..1000 {
            if let Op::Put { value, .. } = s.next_op() {
                assert_eq!(value >> 48, 5);
            }
        }
    }

    #[test]
    fn preload_even_keys() {
        let sp = WorkloadSpec {
            key_range: 10,
            ..spec()
        };
        let keys: Vec<u64> = sp.preload_keys().collect();
        assert_eq!(keys, vec![0, 2, 4, 6, 8]);
    }

    #[test]
    fn preload_fraction_is_sparse_and_deterministic() {
        let sp = WorkloadSpec {
            key_range: 100_000,
            preload: Preload::FractionPerMille(250),
            ..spec()
        };
        let a: Vec<u64> = sp.preload_keys().collect();
        let b: Vec<u64> = sp.preload_keys().collect();
        assert_eq!(a, b);
        let frac = a.len() as f64 / 100_000.0;
        assert!((frac - 0.25).abs() < 0.02, "fraction = {frac}");
    }

    #[test]
    fn op_accessors() {
        assert_eq!(Op::Get { key: 3 }.key(), 3);
        assert!(Op::Put { key: 1, value: 2 }.is_write());
        assert!(Op::Delete { key: 1 }.is_write());
        assert!(!Op::Scan { from: 0, len: 4 }.is_write());
    }
}
