//! # euno-bench — the paper's evaluation, regenerated
//!
//! One binary, `figures` (`cargo run --release -p euno-bench --bin
//! figures`), runs every virtual-clock figure and table from one table
//! ([`figures::FIGURES`]). `figures [NAME…]` runs, by CSV stem:
//!
//! | figure | reproduces |
//! |---|---|
//! | `fig01_motivation` | Fig. 1 — HTM-B+Tree collapse vs θ |
//! | `fig02_abort_breakdown` | Fig. 2 — abort taxonomy vs θ + §2.3 stats |
//! | `fig08_throughput` | Fig. 8 — 4 systems (+ Euno-ReadOpt) vs θ |
//! | `fig09_abort_comparison` | Fig. 9 — aborts/op, Euno vs HTM-B+Tree |
//! | `fig10_scalability` | Fig. 10 — threads × 4 contention levels |
//! | `fig11_getput_ratio` | Fig. 11 — get/put mixes at θ=0.9 |
//! | `fig12_distributions` | Fig. 12 — Poisson/Normal/Self-similar/Zipfian |
//! | `fig13_ablation` | Fig. 13 — design-choice ladder |
//! | `fig14_timeline` | adaptation timeline under a rotating hotspot (beyond the paper) |
//! | `ycsb_suite` | YCSB core A–F with latency quantiles (beyond the paper) |
//! | `mem_overhead` | §5.7 — memory consumption analysis |
//! | `sensitivity` | cost-model robustness sweep (beyond the paper) |
//!
//! `--out <dir>` writes each figure's CSV and `BENCH_<id>.json`, each
//! report validated before it is written; `--check` compares the CSVs with
//! those recorded in `results/` instead. `EUNO_BENCH_SCALE` scales every
//! op budget for quick runs. The engine's wall-clock cost is measured by
//! the repo benchmark's layer ladder (`benchmark/`), not here.

#![forbid(unsafe_code)]

pub mod common;
pub mod figures;
