#!/usr/bin/env bash
# Build the benchmark (release, offline) and run it.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload; the last line of output is the result object
#   benchmark/run.sh [--seed N] [--workload W] [--trace]
#       without --workload: every workload, untraced then traced, each in its
#       own child process, with the wall-time budget guard
#   benchmark/run.sh --check-repeat
#       the suite twice; simulated metrics must repeat exactly, host metrics
#       within their bounds; writes benchmark/results/seed_run_{a,b}.json
#   benchmark/run.sh --emit-contract > BENCHMARK.json
set -euo pipefail
cd "$(dirname "$0")/.."

# The package is its own workspace; without a target directory from the
# caller it builds into benchmark/target.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

# At most two pool threads, all from the one process of a workload.
cores="$(nproc)"
export PIPAD_THREADS="$(( cores < 2 ? cores : 2 ))"
exec "$CARGO_TARGET_DIR/release/pipad-benchmark" "$@"
