#!/usr/bin/env bash
# Regenerate every virtual-clock result at the recorded scale and compare
# it with results/, row by row.
#
# The twelve figure binaries below run on the virtual clock, so their
# CSVs are bit-reproducible: a row that differs from the recorded one is a
# behaviour change of the system named in its first column, not noise.
# (engine_bench and serve_bench are wall-clock and stay with
# scripts/bench.sh.)
#
# Usage: scripts/regen_results.sh [--check]
#   default  list the moved rows, then re-record each figure that has one:
#            its CSV, its BENCH_*.json (and .jsonl), and its section of
#            results/all_figures.log.  Figures without a moved row are left
#            alone, byte for byte.
#   --check  list the moved rows and exit 1 if there is any; writes nothing.
#
# About 25 minutes on a 2-vCPU guest; not part of check.sh's default path
# (`scripts/check.sh --full` runs the --check form).
set -euo pipefail
cd "$(dirname "$0")/.."

CHECK=0
case "${1:-}" in
    --check) CHECK=1 ;;
    "") ;;
    *) echo "usage: $0 [--check]" >&2; exit 2 ;;
esac

# The scale results/ was recorded at (results/README.md).
export EUNO_BENCH_SCALE=0.3
OUT=results
LOG="$OUT/all_figures.log"
FIGURES=(
    fig01_motivation fig02_abort_breakdown fig08_throughput
    fig09_abort_comparison fig10_scalability fig11_getput_ratio
    fig12_distributions fig13_ablation fig14_timeline
    ycsb_suite mem_overhead sensitivity
)

TMP="$(mktemp -d)"
trap 'rm -rf "$TMP"' EXIT
cargo build --release -q -p euno-bench

moved_figures=0
for fig in "${FIGURES[@]}"; do
    mkdir "$TMP/$fig"
    cargo run --release -q -p euno-bench --bin "$fig" -- \
        --csv "$TMP/$fig/$fig.csv" >"$TMP/$fig.console" 2>&1 \
        || { cat "$TMP/$fig.console" >&2; echo "$fig failed" >&2; exit 1; }
    if cmp -s "$OUT/$fig.csv" "$TMP/$fig/$fig.csv"; then
        echo "$fig.csv: identical"
        continue
    fi
    moved_figures=$((moved_figures + 1))
    echo "$fig.csv: MOVED"
    # Rows come out in a fixed order, so line N is the same cell in both.
    awk -F, '
        NR == FNR { old[FNR] = $0; mops[FNR] = $6; n = FNR; next }
        FNR > n { printf "    %-22s x=%-16s threads=%-3s (new row) %s Mops/s\n", $1, $2, $3, $6; next }
        old[FNR] != $0 {
            printf "    %-22s x=%-16s threads=%-3s %s -> %s Mops/s\n", $1, $2, $3, mops[FNR], $6
        }
        END { if (FNR < n) printf "    %d recorded rows are gone\n", n - FNR }
    ' "$OUT/$fig.csv" "$TMP/$fig/$fig.csv"
    if [[ $CHECK == 0 ]]; then
        cp "$TMP/$fig"/* "$OUT/"
        # Swap this figure's section of the console log for the new one
        # (which names the files where they end up, not where they were
        # written).
        sed -i "s#$TMP/$fig/#$OUT/#g" "$TMP/$fig.console"
        awk -v head="=== $fig ===" -v body="$TMP/$fig.console" '
            $0 == head { print; while ((getline line < body) > 0) print line; skip = 1; next }
            /^=== / { skip = 0 }
            !skip
        ' "$LOG" >"$TMP/log" && cp "$TMP/log" "$LOG"
    fi
done

if [[ $moved_figures == 0 ]]; then
    echo "results/: all ${#FIGURES[@]} virtual-clock CSVs regenerate byte-identically"
elif [[ $CHECK == 1 ]]; then
    echo "results/: $moved_figures of ${#FIGURES[@]} CSVs differ from what is recorded" >&2
    exit 1
else
    echo "results/: re-recorded $moved_figures of ${#FIGURES[@]} figures; list the rows above in results/README.md"
    cargo run --release -q -p euno-bench --bin report_check -- "$OUT"/BENCH_*.json >/dev/null
fi
