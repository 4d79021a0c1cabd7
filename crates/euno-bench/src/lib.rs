//! # euno-bench — the paper's evaluation, regenerated
//!
//! One binary per table/figure of §5 (run with `cargo run --release -p
//! euno-bench --bin <name>`):
//!
//! | binary | reproduces |
//! |---|---|
//! | `fig01_motivation` | Fig. 1 — HTM-B+Tree collapse vs θ |
//! | `fig02_abort_breakdown` | Fig. 2 — abort taxonomy vs θ + §2.3 stats |
//! | `fig08_throughput` | Fig. 8 — 4 systems vs θ |
//! | `fig09_abort_comparison` | Fig. 9 — aborts/op, Euno vs HTM-B+Tree |
//! | `fig10_scalability` | Fig. 10 — threads × 4 contention levels |
//! | `fig11_getput_ratio` | Fig. 11 — get/put mixes at θ=0.9 |
//! | `fig12_distributions` | Fig. 12 — Poisson/Normal/Self-similar/Zipfian |
//! | `fig13_ablation` | Fig. 13 — design-choice ladder |
//! | `mem_overhead` | §5.7 — memory consumption analysis |
//! | `ycsb_suite` | YCSB core A–F with latency quantiles (beyond the paper) |
//! | `sensitivity` | cost-model robustness sweep (beyond the paper) |
//!
//! All binaries accept `--csv <path>`, `--ops <n>`, `--threads <n>`, and
//! honour `EUNO_BENCH_SCALE` for quick runs. Self-timed microbenches
//! (plain `main()`, `harness = false`) live in `benches/`.

pub mod common;
