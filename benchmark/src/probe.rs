//! A host-speed probe for `setup_s`.
//!
//! Set-up is the one gated number measured on the wall clock, and on this
//! shared guest the wall clock drifts: the same preload took 2.7–4.9 s on
//! one afternoon, in slow phases that last longer than a run, so no
//! statistic over a run's repetitions removes them (two sets of ten runs
//! twenty minutes apart read medians 18 % and 21 % apart). The probe is a
//! fixed piece of work that belongs to the benchmark — a dependent-load
//! chase round a 1 MiB ring with integer mixing between the loads — run in
//! half-millisecond chunks *between* the puts of the preload, so it samples
//! the host over exactly the interval the set-up ran in. The set-up's own
//! seconds (probe time taken out) are then divided by how much slower than
//! `REFERENCE_CHUNK_NS` the chunks ran: `setup_s` is seconds at the
//! reference host speed. A change that adds work to set-up moves the
//! numerator only; a slow host moves both.
//!
//! The mix matters because the host's slow phases are mostly its shared
//! caches: side by side, a pure multiply chain slowed 1.15x, a 2 MiB chase
//! 2.0x and the preload 1.4x. 140 mixing rounds per load put the probe at
//! the preload's sensitivity. Measured: over 90 set-ups whose raw time
//! drifted 18 % between blocks of ten, the scaled time drifted 5 %; with a
//! busy loop sharing the CPU, raw time rose 118 %, scaled time 5 %.

use std::time::{Duration, Instant};

/// 2^18 `u32`s: big enough to leave L1, small enough to stay out of the
/// allocator's heap (one mmap), which the program's node registry is
/// sensitive to.
const RING: usize = 1 << 18;
const STEPS_PER_CHUNK: usize = 2_000;
const MIX_ROUNDS: usize = 140;
/// What a chunk takes on this host in a quiet hour (median of the 7 800
/// chunks of 16 set-ups in the quietest period recorded). Only a scale:
/// any constant keeps two commits comparable.
pub const REFERENCE_CHUNK_NS: f64 = 640_000.0;

pub struct HostProbe {
    ring: Vec<u32>,
    at: usize,
    acc: u64,
    chunks: u64,
    spent: Duration,
}

impl HostProbe {
    /// One cycle through every slot (Sattolo's shuffle, fixed seed).
    pub fn new() -> Self {
        let mut ring: Vec<u32> = (0..RING as u32).collect();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in (1..RING).rev() {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            ring.swap(i, (x % i as u64) as usize);
        }
        HostProbe {
            ring,
            at: 0,
            acc: 1,
            chunks: 0,
            spent: Duration::ZERO,
        }
    }

    /// One chunk of the fixed work, timed.
    pub fn chunk(&mut self) {
        let t = Instant::now();
        let (mut at, mut acc) = (self.at, self.acc);
        for _ in 0..STEPS_PER_CHUNK {
            at = self.ring[at] as usize;
            for _ in 0..MIX_ROUNDS {
                acc = (acc ^ (acc >> 29))
                    .wrapping_mul(0xbf58_476d_1ce4_e5b9)
                    .wrapping_add(at as u64);
            }
        }
        (self.at, self.acc) = (at, std::hint::black_box(acc));
        self.chunks += 1;
        self.spent += t.elapsed();
    }

    /// Wall time spent inside chunks so far.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// How many times slower than the reference the chunks ran (1 when no
    /// chunk ran).
    pub fn slowdown(&self) -> f64 {
        if self.chunks == 0 {
            return 1.0;
        }
        self.spent.as_nanos() as f64 / self.chunks as f64 / REFERENCE_CHUNK_NS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_ring_is_one_cycle_and_chunks_are_counted() {
        let mut p = HostProbe::new();
        let (mut at, mut seen) = (0usize, 0usize);
        loop {
            at = p.ring[at] as usize;
            seen += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(seen, RING);
        assert_eq!(p.slowdown(), 1.0);
        p.chunk();
        p.chunk();
        assert_eq!(p.chunks, 2);
        assert!(p.spent() > Duration::ZERO && p.slowdown() > 0.0);
    }
}
