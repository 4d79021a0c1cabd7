//! The six core YCSB workloads as presets, plus the pieces they need
//! beyond the paper's get/put sweep: the *latest* distribution and
//! read-modify-write operations.
//!
//! The paper evaluates with "the Yahoo! Cloud Serving Benchmark" (§5.1)
//! at its default 50/50 mix; a library a downstream user would adopt
//! should speak the whole core suite (Cooper et al., SoCC 2010, Table 1):
//!
//! | workload | mix | distribution |
//! |---|---|---|
//! | A (update heavy) | 50 % read / 50 % update | zipfian |
//! | B (read mostly)  | 95 % read / 5 % update  | zipfian |
//! | C (read only)    | 100 % read              | zipfian |
//! | D (read latest)  | 95 % read / 5 % insert  | latest |
//! | E (short ranges) | 95 % scan / 5 % insert  | zipfian |
//! | F (read-modify-write) | 50 % read / 50 % RMW | zipfian |

use euno_rng::{Rng, SmallRng};

use crate::dist::{KeyDistribution, KeySampler};
use crate::spec::{Op, OpMix, Preload, WorkloadSpec};

/// The YCSB core workload identifiers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum YcsbWorkload {
    A,
    B,
    C,
    D,
    E,
    F,
}

impl YcsbWorkload {
    pub const ALL: [YcsbWorkload; 6] = [
        YcsbWorkload::A,
        YcsbWorkload::B,
        YcsbWorkload::C,
        YcsbWorkload::D,
        YcsbWorkload::E,
        YcsbWorkload::F,
    ];

    pub fn label(self) -> &'static str {
        match self {
            YcsbWorkload::A => "YCSB-A (update heavy)",
            YcsbWorkload::B => "YCSB-B (read mostly)",
            YcsbWorkload::C => "YCSB-C (read only)",
            YcsbWorkload::D => "YCSB-D (read latest)",
            YcsbWorkload::E => "YCSB-E (short ranges)",
            YcsbWorkload::F => "YCSB-F (read-modify-write)",
        }
    }

    /// The preset's base spec over `key_range` keys with skew `theta`
    /// where zipfian applies.
    pub fn spec(self, key_range: u64, theta: f64) -> YcsbSpec {
        let zipf = KeyDistribution::Zipfian {
            theta,
            scramble: false,
        };
        let (mix, dist, rmw) = match self {
            YcsbWorkload::A => (OpMix::get_put(0.5), zipf, false),
            YcsbWorkload::B => (OpMix::get_put(0.95), zipf, false),
            YcsbWorkload::C => (OpMix::get_put(1.0), zipf, false),
            YcsbWorkload::D => (
                OpMix {
                    get: 0.95,
                    put: 0.05,
                    delete: 0.0,
                    scan: 0.0,
                },
                KeyDistribution::Uniform, // shape replaced by Latest below
                false,
            ),
            YcsbWorkload::E => (
                OpMix {
                    get: 0.0,
                    put: 0.05,
                    delete: 0.0,
                    scan: 0.95,
                },
                zipf,
                false,
            ),
            YcsbWorkload::F => (OpMix::get_put(0.5), zipf, true),
        };
        YcsbSpec {
            workload: self,
            base: WorkloadSpec {
                key_range,
                dist,
                mix,
                scan_len: 16,
                preload: Preload::EvenKeys,
            },
            read_modify_write: rmw,
        }
    }
}

/// A YCSB preset: a base [`WorkloadSpec`] plus the semantics the plain
/// spec cannot express (latest-distribution inserts, RMW).
#[derive(Clone, Debug)]
pub struct YcsbSpec {
    pub workload: YcsbWorkload,
    pub base: WorkloadSpec,
    pub read_modify_write: bool,
}

/// One logical YCSB operation (RMW is a composite the driver executes as
/// get-then-put on the same key).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum YcsbOp {
    Simple(Op),
    ReadModifyWrite { key: u64, delta: u64 },
}

/// A per-thread YCSB stream. Implements workload D's *latest*
/// distribution: reads target recently inserted keys (zipfian over
/// recency rank from the insertion frontier), inserts advance the
/// frontier.
pub struct YcsbStream {
    spec: YcsbSpec,
    sampler: KeySampler,
    /// Zipfian over recency ranks, for the latest distribution.
    recency: KeySampler,
    rng: SmallRng,
    /// Next key this thread inserts (thread-striped to stay disjoint).
    insert_cursor: u64,
    stride: u64,
    serial: u64,
    thread: u64,
}

impl YcsbStream {
    pub fn new(spec: &YcsbSpec, thread: u64, threads: u64, seed: u64) -> Self {
        assert!(threads > 0 && thread < threads);
        let base = &spec.base;
        let sampler = base.sampler();
        let recency = KeySampler::new(
            &KeyDistribution::Zipfian {
                theta: 0.99,
                scramble: false,
            },
            (base.key_range / 2).max(2),
        );
        YcsbStream {
            spec: spec.clone(),
            sampler,
            recency,
            rng: SmallRng::seed_from_u64(seed ^ thread.wrapping_mul(0x9E3779B97F4A7C15)),
            // Workload D inserts fresh keys above the preloaded range
            // front; stripe by thread so inserts never collide.
            insert_cursor: base.key_range / 2 + thread,
            stride: threads,
            serial: 0,
            thread,
        }
    }

    /// The highest key this thread has inserted so far (latest frontier).
    fn frontier(&self) -> u64 {
        self.insert_cursor
    }

    pub fn next_op(&mut self) -> YcsbOp {
        self.serial += 1;
        let r: f64 = self.rng.gen();
        let m = &self.spec.base.mix;
        let latest = self.spec.workload == YcsbWorkload::D;
        if r < m.get {
            let key = if latest {
                // Read near this thread's insertion frontier: rank 0 is
                // the newest key, decaying zipfian into the past.
                let rank = self.recency.sample(&mut self.rng);
                self.frontier().saturating_sub(rank * self.stride)
            } else {
                self.sampler.sample(&mut self.rng)
            };
            if self.spec.read_modify_write {
                YcsbOp::ReadModifyWrite {
                    key,
                    delta: self.serial,
                }
            } else {
                YcsbOp::Simple(Op::Get { key })
            }
        } else if r < m.get + m.put {
            if latest {
                let key = self.insert_cursor;
                self.insert_cursor += self.stride;
                YcsbOp::Simple(Op::Put {
                    key,
                    value: (self.thread << 48) | (self.serial & 0xffff_ffff_ffff),
                })
            } else {
                let key = self.sampler.sample(&mut self.rng);
                YcsbOp::Simple(Op::Put {
                    key,
                    value: (self.thread << 48) | (self.serial & 0xffff_ffff_ffff),
                })
            }
        } else if r < m.get + m.put + m.delete {
            YcsbOp::Simple(Op::Delete {
                key: self.sampler.sample(&mut self.rng),
            })
        } else {
            YcsbOp::Simple(Op::Scan {
                from: self.sampler.sample(&mut self.rng),
                // YCSB-E: uniform scan length in 1..=2·scan_len.
                len: 1 + self.rng.gen_range(0..2 * self.spec.base.scan_len.max(1)),
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: u64 = 100_000;

    fn count_kinds(spec: &YcsbSpec, n: usize) -> (usize, usize, usize, usize) {
        let mut s = YcsbStream::new(spec, 0, 4, 9);
        let (mut get, mut put, mut scan, mut rmw) = (0, 0, 0, 0);
        for _ in 0..n {
            match s.next_op() {
                YcsbOp::Simple(Op::Get { .. }) => get += 1,
                YcsbOp::Simple(Op::Put { .. }) => put += 1,
                YcsbOp::Simple(Op::Scan { .. }) => scan += 1,
                YcsbOp::Simple(Op::Delete { .. }) => {}
                YcsbOp::ReadModifyWrite { .. } => rmw += 1,
            }
        }
        (get, put, scan, rmw)
    }

    #[test]
    fn preset_mixes() {
        let n = 20_000;
        let (g, p, _, _) = count_kinds(&YcsbWorkload::A.spec(N, 0.9), n);
        assert!((g as f64 / n as f64 - 0.5).abs() < 0.02);
        assert!((p as f64 / n as f64 - 0.5).abs() < 0.02);

        let (g, p, _, _) = count_kinds(&YcsbWorkload::B.spec(N, 0.9), n);
        assert!((g as f64 / n as f64 - 0.95).abs() < 0.01);
        assert!((p as f64 / n as f64 - 0.05).abs() < 0.01);

        let (g, p, _, _) = count_kinds(&YcsbWorkload::C.spec(N, 0.9), n);
        assert_eq!(g, n);
        assert_eq!(p, 0);

        let (_, _, scan, _) = count_kinds(&YcsbWorkload::E.spec(N, 0.9), n);
        assert!((scan as f64 / n as f64 - 0.95).abs() < 0.01);

        let (g, _, _, rmw) = count_kinds(&YcsbWorkload::F.spec(N, 0.9), n);
        assert_eq!(g, 0, "F's reads are all RMW");
        assert!((rmw as f64 / n as f64 - 0.5).abs() < 0.02);
    }

    #[test]
    fn latest_reads_cluster_at_the_frontier() {
        let spec = YcsbWorkload::D.spec(N, 0.9);
        let mut s = YcsbStream::new(&spec, 1, 4, 3);
        let mut inserts = Vec::new();
        let mut reads = Vec::new();
        for _ in 0..20_000 {
            match s.next_op() {
                YcsbOp::Simple(Op::Put { key, .. }) => inserts.push(key),
                YcsbOp::Simple(Op::Get { key }) => reads.push(key),
                _ => {}
            }
        }
        assert!(!inserts.is_empty());
        // Inserts are strictly increasing and thread-striped.
        assert!(inserts.windows(2).all(|w| w[1] == w[0] + 4));
        assert!(inserts.iter().all(|k| (k - 1) % 4 == 0));
        // Reads skew to recent keys: the median read must sit in the upper
        // half of the inserted range once the frontier has moved.
        let frontier = *inserts.last().unwrap();
        let recent = reads.iter().filter(|&&k| k + (N / 10) >= frontier).count();
        assert!(
            recent as f64 / reads.len() as f64 > 0.5,
            "latest reads must cluster near the frontier"
        );
    }

    #[test]
    fn scan_lengths_vary_in_workload_e() {
        let spec = YcsbWorkload::E.spec(N, 0.9);
        let mut s = YcsbStream::new(&spec, 0, 1, 1);
        let mut lens = std::collections::HashSet::new();
        for _ in 0..2_000 {
            if let YcsbOp::Simple(Op::Scan { len, .. }) = s.next_op() {
                assert!((1..=32).contains(&len));
                lens.insert(len);
            }
        }
        assert!(lens.len() > 10, "scan lengths should vary");
    }

    #[test]
    fn all_presets_have_labels_and_specs() {
        for w in YcsbWorkload::ALL {
            let spec = w.spec(1_000, 0.5);
            assert!(!w.label().is_empty());
            spec.base.mix.validate();
        }
    }
}
