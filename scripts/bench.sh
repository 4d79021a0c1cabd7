#!/usr/bin/env bash
# Regenerate every figure/table of the evaluation.
#
# Each binary writes its CSV into results/ and, via the run-report layer
# (euno-sim::report, DESIGN.md §11), a BENCH_<figure>.json next to it with
# full provenance: workload spec, θ, thread count, seed, policy, cost-model
# constants, git describe, per-cause abort counts, stage counters and
# latency quantiles for every run.  Afterwards every report is validated
# against the schema by the report_check binary — a drift fails the script.
#
# Usage: scripts/bench.sh [scale]
#   scale defaults to $EUNO_BENCH_SCALE, then 0.3 — the scale the recorded
#   results in results/ were produced with (see results/README.md).
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-${EUNO_BENCH_SCALE:-0.3}}"
export EUNO_BENCH_SCALE="$SCALE"
OUT=results
LOG="$OUT/all_figures.log"
mkdir -p "$OUT"

cargo build --release -p euno-bench

run() { # run <binary> <csv-name>
    local bin="$1" csv="$2"
    echo "=== $bin ===" | tee -a "$LOG"
    cargo run --release -q -p euno-bench --bin "$bin" -- --csv "$OUT/$csv" \
        2>&1 | tee -a "$LOG"
}

: >"$LOG"
echo "# EUNO_BENCH_SCALE=$SCALE  $(date -u +%Y-%m-%dT%H:%M:%SZ)" | tee -a "$LOG"
run fig01_motivation fig01_motivation.csv
run fig02_abort_breakdown fig02_abort_breakdown.csv
run fig08_throughput fig08_throughput.csv
run fig09_abort_comparison fig09_abort_comparison.csv
run fig10_scalability fig10_scalability.csv
run fig11_getput_ratio fig11_getput_ratio.csv
run fig12_distributions fig12_distributions.csv
run fig13_ablation fig13_ablation.csv
run fig14_timeline fig14_timeline.csv
run ycsb_suite ycsb_suite.csv
run mem_overhead mem_overhead.csv
run sensitivity sensitivity.csv
run engine_bench engine.csv
run serve_bench serve_knee.csv

echo | tee -a "$LOG"
echo "=== report_check ===" | tee -a "$LOG"
cargo run --release -q -p euno-bench --bin report_check -- "$OUT"/BENCH_*.json \
    | tee -a "$LOG"
echo "all run reports validate against the DESIGN.md §11 schema" | tee -a "$LOG"
