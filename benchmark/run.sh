#!/usr/bin/env bash
# The repo benchmark: build the package in this directory (offline, default
# features: TL2-STM backend, hw-rtm off) and hand every argument to it.
#
#   benchmark/run.sh [--seed N] [--seconds S] [--trace] [--only <workload>] [--aa] [--smoke]
#   benchmark/run.sh --workload <name> --seed N --seconds S --trace <0|1>
#
# The second form runs one workload and prints one JSON result object as
# the last line of stdout. See benchmark/README.md.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
# An outside driver sets CARGO_TARGET_DIR; otherwise build beside the package.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
case "$CARGO_TARGET_DIR" in
  /*) bin="$CARGO_TARGET_DIR/release/euno-benchmark" ;;
  *) bin="$PWD/$CARGO_TARGET_DIR/release/euno-benchmark" ;;
esac
exec "$bin" "$@"
