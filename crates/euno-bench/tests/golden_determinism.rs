//! Golden-determinism regression gate for the virtual-time engine.
//!
//! Runs a fixed-seed virtual-mode workload on all four systems and hashes
//! the resulting `RunReport` JSON against a checked-in digest. Every cycle
//! charge, RNG draw and conflict decision feeds the report, so any edit to
//! the engine hot path that perturbs the simulated schedule — a reordered
//! lock acquisition, a skipped storm draw, a changed prune horizon —
//! changes the digest and fails here, loudly, instead of silently shifting
//! every figure.
//!
//! The hash covers the full document (throughput, abort taxonomy, stage
//! counters, latency quantiles) minus the two provenance fields that are
//! legitimately environment-dependent: `git` (working-tree revision) and
//! `bench_scale` (`EUNO_BENCH_SCALE`). Cross-process stability holds
//! because virtual-mode elapsed time is derived from cycle counts (not
//! wall time), every tree node is `repr(C, align(64))` (so line-relative
//! layout is address-independent), and conflict-line *selection* ranks
//! candidate lines by class-registration order, not raw address — without
//! that last property, `heat.end` ties in the storm extrapolation would
//! break on heap-address order and the digest would flip with the
//! allocator's address layout (which varies with environment size and
//! ASLR). The one remaining address sensitivity is the summation order of
//! per-line `f64` survival terms in the storm check; a reordering there
//! perturbs the compared probability by ~1 ulp (~1e-16 per draw), far
//! below any threshold the workload approaches. (Longer runs have one
//! more, which is not about addresses: `VirtState::prune` evicts line
//! heat older than 1 M cycles only once the heat map holds more than
//! 65 536 lines, so a node layout that writes a different *number* of
//! distinct lines moves the eviction — PR 17's leaf, one line shorter,
//! moved `virt-hot` by 0.02 % this way. Until PR 18 the same trigger let
//! runs that *free* nodes depend on the allocator after all: a dead
//! leaf's entries counted towards the map's size until its address was
//! re-issued; `Runtime::forget_node_heat` now drops them at retirement.
//! This run writes ~2 000 lines and frees nothing.)

use euno_bench::common::{measure, System};
use euno_htm::CostModel;
use euno_sim::{Json, RunConfig, RunEntry, RunReport};
use euno_workloads::WorkloadSpec;

/// Expected FNV-1a 64 digest of the normalized report. If an intentional
/// semantic change (new cost constant, different conflict rule) moves it,
/// rerun the test and update this value with the printed digest — but
/// never for a "pure performance" refactor, which must keep it
/// bit-identical.
///
/// History: `42530f0911227b68` through PR 16; `be238653318f4aa8` since
/// PR 17, which changed the CCM's conflict rule for `EunoConfig::paper()`
/// (split-born leaves inherit the verdict, marks are tested before they
/// are set, calm operations on a bypassed leaf feed no window). The
/// layout change and the shared enter/leave stage of the same PR, taken
/// with the old rule, left the old digest standing. PR 18 (leaf hints)
/// did not touch it: `paper()` never probes the hint table.
/// `75d0b2a0da7a08d4` since PR 19, for format only: the report lost the
/// middle path's four keys, and `GOLDEN_DUMP` at the parent with its 16
/// `middle` lines (all zero) removed equals the dump at that change byte
/// for byte. `3a535ea063280e42` since PR 22, which gave every key a home
/// segment (the leaf search reads one segment, the write scheduler draws
/// nothing from the thread RNG) for `paper()` and `default()` alike: of
/// the four entries only `Euno-B+Tree` moved (13.09 → 13.75 Mops/s), the
/// three baselines' are byte for byte what they were. `4628b39987e061b5`
/// since PR 23, for attribution only: `HtmMasstree` registers its leaf's
/// header line `Metadata` as `Masstree` always did, and `GOLDEN_DUMP`
/// against the parent differs in two lines of the `HTM-Masstree` entry —
/// `false_different_record` 5990 → 5968, `false_metadata` 0 → 22. The
/// same PR's refactor (one B+tree under the four trees, and the baselines
/// handing back an aborted split's nodes) left `3a535ea063280e42`
/// standing, checked before the registration change went in.
/// `81ecc19001df312c` since the shared index node put `count` on the line
/// of the first seven separators (a level is two lines, not three): all
/// four entries moved — `Euno-B+Tree` 13.75 → 13.88, `HTM-B+Tree` 10.35 →
/// 9.90, `Masstree` 12.75 → 12.71, `HTM-Masstree` 7.66 → 7.17 Mops/s.
/// `57664f53bcd30bee` (was `81ecc19001df312c`) since the Euno leaf lost its
/// header line: `seqno` rides every segment's key line and `next` /
/// `parent` the last one's, and a key's home is charged once an operation.
/// Of the four entries only `Euno-B+Tree` moved (13.88 → 14.09 Mops/s);
/// `GOLDEN_DUMP` against the parent differs in that entry's lines only.
/// `d0d9b3bc156a6d86` (was `57664f53bcd30bee`) since the CCM left the
/// leaf: a leaf's conflict-control block is allocated at its first
/// conflict, with every mark set, and a leaf without one claims no mark.
/// Of the four entries only `Euno-B+Tree` moved (14.09 → 14.02 Mops/s,
/// 87 → 104 verdict flips); `GOLDEN_DUMP` against the parent differs in
/// that entry's lines only.
/// `4e1118d0d9fd14fb` (was `d0d9b3bc156a6d86`) since a segment became one
/// line — its `seqno` copy, keys and values — and the leaf six of them
/// (`EunoBTree<6, 3>`), the HTM upper region reading the leaf's fence and
/// the `seqno` copy beside it in a section after the region. Of the four
/// entries only `Euno-B+Tree` moved (14.02 → 14.19 Mops/s, aborts 172 →
/// 127, `cas_ops` 9 720 → 7 963); `GOLDEN_DUMP` against the parent differs
/// in that entry's lines only.
/// `af53bd8594ecddb4` (was `4e1118d0d9fd14fb`) since the leaf's range took
/// `seqno`'s place on the point paths: every segment carries a copy of the
/// leaf's fence, an operation checks `key < fence` where it acts, and the
/// HTM upper region reads the index alone — its pair section after the
/// region is gone; and a leaf's CCM block, born at its first conflict,
/// starts protected only if that operation met two. Of the four entries
/// only `Euno-B+Tree` moved (14.19 → 15.11 Mops/s, optimistic retries 450
/// → 0, aborts 127 → 132, verdict flips 96 → 89); `GOLDEN_DUMP` against
/// the parent differs in that entry's lines only.
/// `c70b64efcdff6ba3` (was `af53bd8594ecddb4`) since a thread's warm-up
/// ends in one mark and the run reports its books since that mark: no
/// schedule moved, but `cycles_total` is now the measured clock, not the
/// whole one, so `wasted_cycle_fraction` divides by measured cycles only.
/// `GOLDEN_DUMP` against the parent differs only in the `cycles_total`
/// and `wasted_cycle_fraction` lines (`Euno-B+Tree` 0.0045 → 0.0056,
/// `HTM-B+Tree` 0.251 → 0.324, `HTM-Masstree` 0.274 → 0.351; `Masstree`
/// wastes nothing), and `measure_start_cycles` is unchanged.
const GOLDEN_DIGEST: &str = "c70b64efcdff6ba3";

/// Expected digest of the same run of `System::EunoReadOpt` alone
/// (`EunoConfig::default()`), normalised alike. It moves with what moves
/// the benchmark's `virt-*` rows — the walk, the leaf hints, the
/// contention splits — which `GOLDEN_DIGEST` does not see. With
/// `GOLDEN_DUMP` set, its normalised text goes to `$GOLDEN_DUMP.default`.
/// `9f81ebfa63481705` (was `989c2d70ab6fe197`) since the warm-up mark,
/// for the same reason and in the same two lines (wasted share 0.0039 →
/// 0.0049).
const GOLDEN_DEFAULT_DIGEST: &str = "9f81ebfa63481705";

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The fixed workload: skewed enough to exercise conflicts, aborts, the
/// fallback path and storm extrapolation on every system, small enough to
/// finish in seconds.
fn golden_spec() -> WorkloadSpec {
    let mut spec = WorkloadSpec::paper_default(0.9);
    spec.key_range = 20_000;
    spec
}

fn golden_config() -> RunConfig {
    RunConfig {
        threads: 8,
        ops_per_thread: 1_200,
        seed: 0x60_1d_e4,
        warmup_ops: 300,
        trace_capacity: 0,
        profile: false,
        sample_every: 0,
    }
}

/// Serialize the report and pin the provenance fields that are
/// legitimately schedule-independent so the digest only reflects
/// simulated behaviour: `git` and `bench_scale` vary with the
/// environment, and `schema_version` is document-format provenance — a
/// schema bump that adds sections without touching the engine must keep
/// the digest stable (it is pinned to the v2 value the digest was first
/// computed against).
fn normalized_report_text(report: &RunReport) -> String {
    let mut doc = report.to_json();
    if let Json::Obj(fields) = &mut doc {
        for (k, v) in fields.iter_mut() {
            match k.as_str() {
                "git" => *v = Json::str("golden"),
                "bench_scale" => *v = Json::Num(1.0),
                "schema_version" => *v = Json::u64(2),
                _ => {}
            }
        }
    }
    doc.to_pretty()
}

/// Single test on purpose: the digest is sensitive to heap layout only
/// through *allocator reuse* (a freed node's line re-registered by a node
/// of a different class), which is deterministic for a fixed allocation
/// sequence — but libtest runs a binary's tests on concurrent threads, and
/// a second test interleaving its own allocations perturbs block reuse
/// nondeterministically. One `#[test]` keeps the process single-threaded
/// and the sequence fixed; the within-process determinism check (which
/// isolates "nondeterminism" failures from "semantics changed" failures)
/// therefore runs inside it, after the digest.
#[test]
fn fixed_seed_run_reports_are_byte_identical_to_golden_digest() {
    let spec = golden_spec();
    let cfg = golden_config();
    let mut report = RunReport::new(
        "golden",
        "Golden determinism gate: four systems, fixed seed",
        CostModel::default(),
    );
    for system in System::MAIN_FOUR {
        let metrics = measure(system, &spec, &cfg);
        assert!(metrics.total_ops > 0, "{:?} ran no ops", system);
        report.runs.push(RunEntry {
            system: system.label().to_string(),
            x: "golden".to_string(),
            spec: spec.clone(),
            cfg: cfg.clone(),
            metrics,
            extra: Vec::new(),
        });
    }
    let text = normalized_report_text(&report);
    if let Ok(dst) = std::env::var("GOLDEN_DUMP") {
        std::fs::write(dst, &text).unwrap();
    }
    let digest = format!("{:016x}", fnv1a64(text.as_bytes()));
    assert_eq!(
        digest,
        GOLDEN_DIGEST,
        "virtual-mode schedule changed: the run report no longer matches \
         the checked-in golden digest.\n\
         If (and only if) the change is intentionally semantic, update \
         GOLDEN_DIGEST to {digest}.\n--- normalized report was {} bytes ---",
        text.len()
    );

    // `EunoConfig::default()` — the tree the benchmark, the server and the
    // examples run, and which the digest above does not cover — under its
    // own digest, on the same workload and with the same normalisation.
    let mut report = RunReport::new(
        "golden",
        "Golden determinism gate: the default tree, fixed seed",
        CostModel::default(),
    );
    report.runs.push(RunEntry {
        system: System::EunoReadOpt.label().to_string(),
        x: "golden".to_string(),
        spec: spec.clone(),
        cfg: cfg.clone(),
        metrics: measure(System::EunoReadOpt, &spec, &cfg),
        extra: Vec::new(),
    });
    let text = normalized_report_text(&report);
    if let Ok(dst) = std::env::var("GOLDEN_DUMP") {
        std::fs::write(format!("{dst}.default"), &text).unwrap();
    }
    let digest = format!("{:016x}", fnv1a64(text.as_bytes()));
    assert_eq!(
        digest, GOLDEN_DEFAULT_DIGEST,
        "virtual-mode schedule of `EunoConfig::default()` changed: update \
         GOLDEN_DEFAULT_DIGEST to {digest} only for an intentionally \
         semantic change"
    );

    // Within-process determinism: two further runs of one system agree
    // exactly (see the comment above for why this shares the test).
    let a = measure(System::EunoBTree, &spec, &cfg);
    let b = measure(System::EunoBTree, &spec, &cfg);
    assert_eq!(a.total_ops, b.total_ops);
    assert_eq!(a.stats.cycles_total, b.stats.cycles_total);
    assert_eq!(a.counts, b.counts);
    assert_eq!(a.elapsed_secs, b.elapsed_secs);
}
