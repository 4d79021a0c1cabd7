//! Seeded property sweep for `LogHistogram` merge/quantile against a
//! sorted-vec model (in-tree property style, per PR 1: deterministic
//! seed loops, no external proptest).

use euno_metrics::LogHistogram;
use euno_rng::SmallRng;

/// Exact quantile on the model: value at ceil(q·n)-th sample (1-based).
fn model_quantile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty());
    let rank = ((q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize).max(1);
    sorted[rank.min(sorted.len()) - 1]
}

fn draw_value(rng: &mut SmallRng, shape: u64) -> u64 {
    match shape % 3 {
        // Uniform small.
        0 => rng.gen_range(1u64..10_000),
        // Log-uniform across ~12 decades.
        1 => {
            let exp = rng.gen_range(0u32..40);
            (1u64 << exp) + rng.gen_range(0u64..(1u64 << exp).max(2))
        }
        // Bulk + heavy tail (convoy shape).
        _ => {
            if rng.gen_bool(0.99) {
                rng.gen_range(50u64..200)
            } else {
                rng.gen_range(1_000_000u64..100_000_000)
            }
        }
    }
}

#[test]
fn quantiles_track_sorted_vec_model_within_bucket_resolution() {
    for seed in 0..40u64 {
        let mut rng = SmallRng::seed_from_u64(0x1157 ^ seed);
        let n = rng.gen_range(1usize..3000);
        let mut h = LogHistogram::new();
        let mut model = Vec::with_capacity(n);
        for _ in 0..n {
            let v = draw_value(&mut rng, seed);
            h.record(v);
            model.push(v);
        }
        model.sort_unstable();

        assert_eq!(h.count(), n as u64, "seed {seed}");
        assert_eq!(h.max(), *model.last().unwrap(), "seed {seed}");
        let exact_mean = model.iter().map(|&v| v as f64).sum::<f64>() / n as f64;
        assert!(
            (h.mean() - exact_mean).abs() < 1e-6 * exact_mean.max(1.0),
            "seed {seed}"
        );

        // q = 0 is excluded: ceil(0·n) targets rank 0, which the histogram
        // satisfies at the first bucket regardless of contents (floor 1).
        for q in [0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let est = h.quantile(q);
            let exact = model_quantile(&model, q);
            // Log buckets: the estimate is the floor of the bucket holding
            // the exact value (≤ exact, within √2×) — except when the rank
            // lands in the terminal bucket, where the exact observed max is
            // returned instead (≥ exact, still within the bucket's width).
            if est <= exact {
                assert!(
                    exact as f64 / est.max(1) as f64 <= 1.5 + 1e-9,
                    "seed {seed} q={q}: est {est} vs exact {exact} off by >√2"
                );
            } else {
                assert_eq!(
                    est,
                    h.max(),
                    "seed {seed} q={q}: over-estimate {est} is not the max"
                );
                assert!(
                    est as f64 / exact.max(1) as f64 <= 1.5 + 1e-9,
                    "seed {seed} q={q}: terminal est {est} vs exact {exact} off by >√2"
                );
            }
        }
        assert_eq!(h.quantile(1.0), *model.last().unwrap(), "seed {seed}");
    }
}

#[test]
fn merge_of_shards_is_identical_to_one_histogram() {
    for seed in 0..40u64 {
        let mut rng = SmallRng::seed_from_u64(0x3e12_6ed0 ^ seed);
        let shards = rng.gen_range(2usize..8);
        let n = rng.gen_range(0usize..2000);

        let mut whole = LogHistogram::new();
        let mut parts: Vec<LogHistogram> = (0..shards).map(|_| LogHistogram::new()).collect();
        for i in 0..n {
            let v = draw_value(&mut rng, seed);
            whole.record(v);
            parts[i % shards].record(v);
        }

        let mut merged = LogHistogram::new();
        for p in &parts {
            merged.merge(p);
        }

        assert_eq!(merged.count(), whole.count(), "seed {seed}");
        assert_eq!(merged.max(), whole.max(), "seed {seed}");
        assert_eq!(merged.bucket_counts(), whole.bucket_counts(), "seed {seed}");
        assert_eq!(
            merged.nonzero_buckets(),
            whole.nonzero_buckets(),
            "seed {seed}"
        );
        for q in [0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), whole.quantile(q), "seed {seed} q={q}");
        }
        assert!((merged.mean() - whole.mean()).abs() < 1e-9, "seed {seed}");
    }
}

#[test]
fn merge_is_order_insensitive() {
    let mut rng = SmallRng::seed_from_u64(7);
    let mut a = LogHistogram::new();
    let mut b = LogHistogram::new();
    let mut c = LogHistogram::new();
    for _ in 0..500 {
        a.record(rng.gen_range(1u64..1_000_000));
        b.record(rng.gen_range(1u64..100));
        c.record(rng.gen_range(1_000u64..2_000));
    }
    let mut abc = LogHistogram::new();
    abc.merge(&a);
    abc.merge(&b);
    abc.merge(&c);
    let mut cba = LogHistogram::new();
    cba.merge(&c);
    cba.merge(&b);
    cba.merge(&a);
    assert_eq!(abc.bucket_counts(), cba.bucket_counts());
    assert_eq!(abc.quantile(0.99), cba.quantile(0.99));
    assert_eq!(abc.max(), cba.max());
}
