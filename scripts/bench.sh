#!/usr/bin/env bash
# Regenerate every figure/table of the evaluation.
#
# The `figures` binary runs the twelve virtual-clock figures in one
# process and writes each CSV into results/ with, via the run-report layer
# (euno-sim::report, DESIGN.md §11), a BENCH_<figure>.json next to it with
# full provenance: workload spec, θ, thread count, seed, policy, cost-model
# constants, git describe, per-cause abort counts, stage counters and
# latency quantiles for every run.  Every report is validated against the
# schema as it is written — a drift fails the script.  The engine's
# wall-clock cost is the repo benchmark's to measure (benchmark/README.md).
#
# Usage: scripts/bench.sh [scale]
#   scale defaults to $EUNO_BENCH_SCALE, then 0.3 — the scale the recorded
#   results in results/ were produced with (see results/README.md).
#   `figures --check` (scripts/check.sh --full) compares instead of writing.
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-${EUNO_BENCH_SCALE:-0.3}}"
export EUNO_BENCH_SCALE="$SCALE"
OUT=results
LOG="$OUT/all_figures.log"
mkdir -p "$OUT"

cargo build --release -p euno-bench

: >"$LOG"
echo "# EUNO_BENCH_SCALE=$SCALE  $(date -u +%Y-%m-%dT%H:%M:%SZ)" | tee -a "$LOG"
# Prints its own `=== <figure> ===` sections.
cargo run --release -q -p euno-bench --bin figures -- --out "$OUT" 2>&1 | tee -a "$LOG"
