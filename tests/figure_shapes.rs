//! Shape tests for the paper's evaluation: tiny-budget versions of the
//! figure experiments asserting that the qualitative results of §2.3 and
//! §5 hold — who wins, in which regime, and why. The bench binaries
//! regenerate the full curves; these tests keep the shapes from
//! regressing.

use std::sync::Arc;

use eunomia::htm::AbortClass;
use eunomia::prelude::*;

fn measure(map: &dyn ConcurrentMap, rt: &Arc<Runtime>, theta: f64, threads: usize) -> RunMetrics {
    let spec = WorkloadSpec {
        key_range: 100_000,
        ..WorkloadSpec::paper_default(theta)
    };
    preload(map, rt, &spec);
    rt.reset_dynamics();
    let cfg = RunConfig {
        threads,
        ops_per_thread: 4_000,
        seed: 0x5EED,
        warmup_ops: 400,
        ..RunConfig::default()
    };
    run_virtual(map, rt, &spec, &cfg)
}

/// The Euno-B+Tree the paper evaluates — the shapes below are the paper's,
/// so they are asserted on its configuration, not on the library default.
fn paper_euno(rt: Arc<Runtime>) -> EunoBTreeDefault {
    EunoBTreeDefault::with_config(rt, EunoConfig::paper())
}

fn fresh<M>(build: impl FnOnce(Arc<Runtime>) -> M) -> (Arc<Runtime>, M) {
    let rt = Runtime::new_virtual();
    let m = build(Arc::clone(&rt));
    (rt, m)
}

/// Figure 1: the monolithic HTM-B+Tree collapses under contention.
#[test]
fn htm_btree_collapses_past_theta_06() {
    let (rt, tree) = fresh(HtmBTree::<16>::new);
    let low = measure(&tree, &rt, 0.2, 16);
    let (rt, tree) = fresh(HtmBTree::<16>::new);
    let high = measure(&tree, &rt, 0.9, 16);
    assert!(
        high.throughput < low.throughput / 2.0,
        "collapse expected: low {:.1} vs high {:.1} Mops/s",
        low.mops(),
        high.mops()
    );
    assert!(
        high.aborts_per_op > 10.0 * low.aborts_per_op.max(0.01),
        "abort rate must explode: {} vs {}",
        high.aborts_per_op,
        low.aborts_per_op
    );
}

/// §2.3: most cycles are wasted and most conflicts are leaf-level false
/// conflicts under high contention.
#[test]
fn abort_taxonomy_matches_paper_analysis() {
    let (rt, tree) = fresh(HtmBTree::<16>::new);
    let m = measure(&tree, &rt, 0.9, 16);
    let conflicts = m.stats.aborts.conflicts().max(1) as f64;
    let false_frac = (m.stats.aborts[AbortClass::FalseDifferentRecord]
        + m.stats.aborts[AbortClass::FalseMetadata]) as f64
        / conflicts;
    let leaf_frac = m.stats.aborts.leaf_level_conflicts() as f64 / conflicts;
    assert!(
        false_frac > 0.5,
        "false conflicts must dominate, got {false_frac:.2}"
    );
    assert!(
        leaf_frac > 0.8,
        "conflicts concentrate at the leaf level, got {leaf_frac:.2}"
    );
    // §2.3 attributes >94 % of cycles to aborted work on hardware; in the
    // virtual-time model contention shows up as aborted-attempt cycles plus
    // fallback-lock waiting — together they must dominate.
    let lost = m.wasted_cycle_fraction
        + m.stats.cycles_lock_wait as f64 / m.stats.cycles_total.max(1) as f64;
    assert!(
        lost > 0.35,
        "contention must burn a large cycle share under θ=0.9, got {lost:.2}"
    );
    assert!(
        m.stats.aborts[AbortClass::TrueSameRecord] > 0,
        "true conflicts must exist under a hot zipfian"
    );
}

/// Figures 8/9: Euno-B+Tree beats the HTM-B+Tree by a wide margin under
/// high contention and nearly matches it under low contention.
#[test]
fn euno_wins_under_contention_and_ties_at_low_skew() {
    let (rt, euno) = fresh(paper_euno);
    let euno_high = measure(&euno, &rt, 0.9, 16);
    let (rt, htm) = fresh(HtmBTree::<16>::new);
    let htm_high = measure(&htm, &rt, 0.9, 16);
    assert!(
        euno_high.throughput > 2.0 * htm_high.throughput,
        "high contention: Euno {:.2} vs HTM {:.2} Mops/s",
        euno_high.mops(),
        htm_high.mops()
    );
    assert!(
        euno_high.aborts_per_op < htm_high.aborts_per_op / 2.0,
        "Euno must eliminate most aborts: {:.2} vs {:.2}",
        euno_high.aborts_per_op,
        htm_high.aborts_per_op
    );

    let (rt, euno) = fresh(paper_euno);
    let euno_low = measure(&euno, &rt, 0.2, 16);
    let (rt, htm) = fresh(HtmBTree::<16>::new);
    let htm_low = measure(&htm, &rt, 0.2, 16);
    assert!(
        euno_low.throughput > 0.75 * htm_low.throughput,
        "low contention: Euno {:.2} must stay within ~25% of HTM {:.2}",
        euno_low.mops(),
        htm_low.mops()
    );
}

/// §5.2: Masstree executes clearly more instrumented accesses per op than
/// Euno (the paper: ~2.1× at θ=0.5), and Euno outperforms it under high
/// contention.
#[test]
fn masstree_instruction_overhead_and_contention_loss() {
    let (rt, mt) = fresh(Masstree::new);
    let mt_m = measure(&mt, &rt, 0.5, 16);
    let (rt, euno) = fresh(paper_euno);
    let euno_m = measure(&euno, &rt, 0.5, 16);
    assert!(
        mt_m.accesses_per_op > 1.2 * euno_m.accesses_per_op,
        "Masstree accesses/op {:.1} must exceed Euno {:.1}",
        mt_m.accesses_per_op,
        euno_m.accesses_per_op
    );

    let (rt, mt) = fresh(Masstree::new);
    let mt_high = measure(&mt, &rt, 0.9, 16);
    let (rt, euno) = fresh(paper_euno);
    let euno_high = measure(&euno, &rt, 0.9, 16);
    assert!(
        euno_high.throughput > mt_high.throughput,
        "high contention: Euno {:.2} vs Masstree {:.2} Mops/s",
        euno_high.mops(),
        mt_high.mops()
    );
}

/// §5.2: HTM-Masstree underperforms lock-based Masstree — version words
/// in the read/write sets make whole-op transactions abort-prone.
#[test]
fn htm_masstree_is_worse_than_masstree_under_contention() {
    let (rt, hmt) = fresh(HtmMasstree::new);
    let hmt_m = measure(&hmt, &rt, 0.9, 16);
    let (rt, mt) = fresh(Masstree::new);
    let mt_m = measure(&mt, &rt, 0.9, 16);
    assert!(
        hmt_m.throughput < mt_m.throughput,
        "HTM-Masstree {:.2} must trail Masstree {:.2} Mops/s",
        hmt_m.mops(),
        mt_m.mops()
    );
    assert!(hmt_m.aborts_per_op > 0.1, "it must be abort-bound");
}

/// Figure 10 (low contention): Euno scales with the thread count.
#[test]
fn euno_scales_at_low_contention() {
    let (rt, euno) = fresh(paper_euno);
    let one = measure(&euno, &rt, 0.2, 1);
    let (rt, euno) = fresh(paper_euno);
    let sixteen = measure(&euno, &rt, 0.2, 16);
    assert!(
        sixteen.throughput > 6.0 * one.throughput,
        "16 threads must be ≥6× of 1: {:.2} vs {:.2} Mops/s",
        sixteen.mops(),
        one.mops()
    );
}

/// Figure 13 ladder: each design increment improves high-contention
/// throughput.
#[test]
fn ablation_ladder_is_monotone_under_contention() {
    let mut last = 0.0;
    let labels = ["+SplitHTM", "+PartLeaf", "+CCM lock", "+CCM mark"];
    let measures: Vec<f64> = vec![
        {
            let rt = Runtime::new_virtual();
            let t =
                EunoBTreeUnpartitioned::with_config(Arc::clone(&rt), EunoConfig::split_htm_only());
            measure(&t, &rt, 0.9, 16).throughput
        },
        {
            let rt = Runtime::new_virtual();
            let t = EunoBTreeDefault::with_config(Arc::clone(&rt), EunoConfig::part_leaf());
            measure(&t, &rt, 0.9, 16).throughput
        },
        {
            let rt = Runtime::new_virtual();
            let t = EunoBTreeDefault::with_config(Arc::clone(&rt), EunoConfig::ccm_lockbits());
            measure(&t, &rt, 0.9, 16).throughput
        },
        {
            let rt = Runtime::new_virtual();
            let t = EunoBTreeDefault::with_config(Arc::clone(&rt), EunoConfig::ccm_markbits());
            measure(&t, &rt, 0.9, 16).throughput
        },
    ];
    // Require overall growth and no catastrophic inversion between steps.
    for (i, &m) in measures.iter().enumerate() {
        if i > 0 {
            assert!(
                m > last * 0.8,
                "{} ({m:.0}) regressed badly vs {} ({last:.0})",
                labels[i],
                labels[i - 1]
            );
        }
        last = m;
    }
    // The exact margin depends on the deterministic RNG streams (segment
    // randomization, schedule jitter); ~1.4–1.6× is the stable band.
    assert!(
        measures[3] > measures[0] * 1.35,
        "full CCM must clearly beat bare split-HTM: {:.0} vs {:.0}",
        measures[3],
        measures[0]
    );
}

/// Figure 13 at low contention: what the CCM costs a calm tree (lock bit,
/// mark bit, unlock, window count on every request), guideline 4 gives
/// back — `+Adaptive` is no slower than the always-on CCM below it and
/// within 2 % of the tree that has no CCM at all.
#[test]
fn adaptive_recovers_the_ccm_cost_at_low_skew() {
    let low = |cfg: EunoConfig| {
        let rt = Runtime::new_virtual();
        let t = EunoBTreeDefault::with_config(Arc::clone(&rt), cfg);
        measure(&t, &rt, 0.2, 16).throughput
    };
    let (no_ccm, always_on, adaptive) = (
        low(EunoConfig::part_leaf()),
        low(EunoConfig::ccm_markbits()),
        low(EunoConfig::full()),
    );
    assert!(
        adaptive >= always_on,
        "+Adaptive {adaptive:.0} below +CCM markbits {always_on:.0}: the bypass costs more than it saves"
    );
    assert!(
        adaptive >= 0.98 * no_ccm,
        "+Adaptive {adaptive:.0} not within 2 % of +Part Leaf {no_ccm:.0}: the CCM's cost is not recovered"
    );
}

/// §5.7: the Eunomia auxiliaries cost little memory.
#[test]
fn memory_overhead_is_small() {
    let (rt, euno) = fresh(paper_euno);
    let _ = measure(&euno, &rt, 0.9, 16);
    let m = euno.memory();
    assert!(m.ccm_bytes > 0 && m.structural_bytes > 0);
    assert!(
        m.overhead_fraction() < 0.35,
        "aux overhead {:.1}% too large",
        100.0 * m.overhead_fraction()
    );
}

/// Determinism: the whole pipeline is reproducible for a fixed seed.
#[test]
fn virtual_runs_are_deterministic() {
    let run = || {
        let rt = Runtime::new_virtual();
        let t = paper_euno(Arc::clone(&rt));
        let m = measure(&t, &rt, 0.9, 8);
        (
            m.total_ops,
            m.stats.cycles_total,
            m.stats.aborts.total(),
            m.stats.mem_accesses,
        )
    };
    assert_eq!(run(), run());
}
