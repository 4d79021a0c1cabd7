//! Fine log-linear histogram for every latency the benchmark reports.
//!
//! The program's own `LogHistogram` has √2-wide buckets, which move a
//! quantile in 33–50 % steps — far coarser than any bound this benchmark
//! gates on. Here each octave is cut into 128 equal sub-buckets (values
//! below 256 get a bucket each), so a quantile is off by less than 1/128 of
//! its value. Within its bucket a quantile is interpolated linearly by
//! rank, which makes it a continuous function of the samples: two runs
//! that differ read differently even when most samples tie. Histograms
//! merge by addition and keep the exact maximum.

const SUB_BITS: u32 = 7;
const SUB: u64 = 1 << SUB_BITS;
/// Values are clamped below 2^40 (18 minutes in ns) to bound the table.
const MAX_VALUE: u64 = (1 << 40) - 1;
const BUCKETS: usize = ((40 - SUB_BITS as usize) << SUB_BITS) + SUB as usize;

#[derive(Clone)]
pub struct Hist {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Hist {
    fn default() -> Self {
        Self::new()
    }
}

#[inline]
fn bucket_of(v: u64) -> usize {
    let v = v.min(MAX_VALUE);
    if v < SUB {
        return v as usize;
    }
    let shift = 63 - v.leading_zeros() - SUB_BITS;
    ((u64::from(shift) << SUB_BITS) + (v >> shift)) as usize
}

/// `(lowest value, width)` of bucket `idx`.
fn bounds_of(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < 2 * SUB {
        return (idx, 1);
    }
    let shift = (idx >> SUB_BITS) - 1;
    ((SUB + (idx & (SUB - 1))) << shift, 1 << shift)
}

impl Hist {
    pub fn new() -> Self {
        Hist {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }

    #[inline]
    pub fn record(&mut self, v: u64) {
        self.counts[bucket_of(v)] += 1;
        self.total += 1;
        self.max = self.max.max(v);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    /// The value at quantile `q` in `(0, 1]`: the bucket holding the
    /// sample of rank `q·n`, interpolated by how far into the bucket's
    /// samples that rank falls. Never above the exact maximum; 0 when
    /// empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = (q * self.total as f64).clamp(0.0, self.total as f64);
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= rank {
                let (lo, width) = bounds_of(idx);
                let into = (rank - seen as f64) / c as f64;
                return (lo as f64 + width as f64 * into).min(self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }
}

/// Median of a small set of per-slice values (mean of the middle two for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of nothing");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::Xoshiro;

    #[test]
    fn buckets_are_contiguous_and_monotone() {
        let mut last = 0;
        for v in 0..100_000u64 {
            let b = bucket_of(v);
            assert!(b == last || b == last + 1, "gap at {v}");
            last = b;
        }
        assert!(bucket_of(MAX_VALUE) < BUCKETS);
        assert_eq!(bucket_of(u64::MAX), bucket_of(MAX_VALUE));
    }

    #[test]
    fn quantiles_match_a_sorted_vector_within_one_percent() {
        let mut rng = Xoshiro::new(7);
        let mut h = Hist::new();
        let mut all = Vec::new();
        for i in 0..200_000u64 {
            // Heavy-tailed: most values small, a few across many octaves.
            let v = 50 + (rng.next_u64() % 2_000) * (1 + (i % 97 == 0) as u64 * 5_000);
            h.record(v);
            all.push(v);
        }
        all.sort_unstable();
        for q in [0.001, 0.5, 0.9, 0.99, 0.999, 1.0] {
            let want = all[((q * all.len() as f64).ceil() as usize).max(1) - 1] as f64;
            let got = h.quantile(q);
            assert!(
                (got - want).abs() <= 0.01 * want,
                "q={q} got={got} want={want}"
            );
        }
        assert_eq!(h.max(), *all.last().unwrap());
        assert_eq!(h.count(), all.len() as u64);
    }

    #[test]
    fn tied_samples_still_give_a_quantile_that_follows_the_mass() {
        // 60 % of samples at 1000, 40 % at 2000: p50 sits inside the 1000
        // bucket, further in than p10, and moves when the split moves.
        let hist = |low: u64| {
            let mut h = Hist::new();
            for i in 0..1_000 {
                h.record(if i < low { 1_000 } else { 2_000 });
            }
            h
        };
        let h = hist(600);
        assert!(h.quantile(0.1) < h.quantile(0.5) && h.quantile(0.5) < 1_008.0);
        assert!(h.quantile(0.5) >= 1_000.0);
        assert!(h.quantile(0.7) >= 2_000.0);
        assert_ne!(h.quantile(0.5), hist(610).quantile(0.5));
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let (mut a, mut b, mut both) = (Hist::new(), Hist::new(), Hist::new());
        for v in 0..5_000u64 {
            let x = v * v % 77_777;
            if v % 2 == 0 { &mut a } else { &mut b }.record(x);
            both.record(x);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert_eq!(a.max(), both.max());
        for q in [0.5, 0.99, 0.999] {
            assert_eq!(a.quantile(q), both.quantile(q));
        }
    }

    #[test]
    fn small_values_stay_within_their_unit_bucket() {
        let mut h = Hist::new();
        for v in [3, 3, 9, 200, 255] {
            h.record(v);
        }
        assert!((9.0..10.0).contains(&h.quantile(0.5)));
        assert_eq!(h.quantile(1.0), 255.0, "never above the exact maximum");
        assert_eq!(Hist::new().quantile(0.5), 0.0);
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
