#!/usr/bin/env bash
# Builds ppm-perf and ppm-cli in release mode, then runs the benchmark.
#
#   benchmark/run.sh [--seed N] [--workload NAME] [--seconds S] [--smoke] [--repeat N]
#       every workload (or one), untraced then traced pass, each in its
#       own process; prints every metric and writes one JSON result file
#   benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
#       one pass of one workload; last stdout line is one JSON object
#   benchmark/run.sh compare BASE.json NEW.json
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$here/target}"
case "$CARGO_TARGET_DIR" in /*) ;; *) CARGO_TARGET_DIR="$PWD/$CARGO_TARGET_DIR" ;; esac
# Build output goes to stderr: stdout carries only the benchmark's result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" >&2
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin ppm-cli >&2
export PPM_PERF_OUT="${PPM_PERF_OUT:-$here/out}"
# Not exec: ppm-perf counts the CPU time and peak memory of the children
# it waits for (ppm-cli), and after an exec it would inherit this shell's
# children - the two cargo builds above.
"$CARGO_TARGET_DIR/release/ppm-perf" "$@"
