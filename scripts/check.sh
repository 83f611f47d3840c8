#!/usr/bin/env bash
# The CI-equivalent gate; each thing runs once, and each gate prints its
# wall time. The host-determinism contract (threads × buffer pool,
# `pipad_bench::HOST_MATRIX`) is asserted in-process by the test suites,
# so nothing is re-run under env vars and no two `repro` outputs are
# compared here.
set -euo pipefail
cd "$(dirname "$0")/.."

scratch_dir="$(mktemp -d)"
trap 'rm -rf "$scratch_dir"' EXIT
t_start=$(date +%s)

# gate <command...>: run one gate and report its elapsed seconds.
gate() {
    local t0
    t0=$(date +%s)
    echo "== $* =="
    "$@"
    echo "-- $*: $(($(date +%s) - t0))s"
}

repro_profile() {
    cargo run -q --release -p pipad-bench --bin repro -- \
        profile --scale tiny --out "$scratch_dir/profile" --baseline "$1"
}

# The perf-regression sentinel is the only place the `repro` binary's exit
# code is driven: the committed baseline must pass...
sentinel_accepts_committed_baseline() {
    repro_profile tests/golden/profile_baseline.json
}

# ...and a seeded drift must fail: perturb the first guarded metric's
# expected value far outside its tolerance band.
sentinel_rejects_seeded_drift() {
    sed '2s/"value":[^,]*/"value":123456789.0/' tests/golden/profile_baseline.json \
        > "$scratch_dir/bad_baseline.json"
    if repro_profile "$scratch_dir/bad_baseline.json" 2> "$scratch_dir/sentinel_neg.log"; then
        echo "ERROR: sentinel accepted a drifted baseline" >&2
        return 1
    fi
    grep -q "drifted" "$scratch_dir/sentinel_neg.log"
}

# The one release-profile test gate. Allocation budget under the counting
# allocator: steady-state epochs must stay ≥95% below the preparing epochs'
# hot-path heap allocations, under a pinned budget. Trainer digests and GEMM
# bits: the benchmark, `repro` and every committed result run `--release`,
# and the GEMM micro-kernel is exactly the code whose codegen differs
# between the profiles, so its oracle and the digests it feeds are checked
# here as well as at dev `opt-level` in the workspace run. The same goes for
# the fused recurrent-cell loops and their `to_bits` oracles in
# `pipad-kernels` and `pipad-autograd`.
release_profile_tests() {
    cargo test -q --release --test alloc_budget --test multigpu_alloc \
        --test trainer_digests --test host_parallel_exactness
    cargo test -q --release -p pipad-tensor -p pipad-kernels -p pipad-autograd
}

gate cargo build --release
gate cargo fmt --check
gate cargo clippy --workspace -- -D warnings
# Tier-1 is `cargo test -q` (the facade package's integration tests); the
# workspace run is a superset that also executes every crate's unit tests
# (kill-and-resume, executors, reuse stores, simulator, tape, every
# HOST_MATRIX-carrying `repro` experiment at tiny scale, ...).
gate cargo test --workspace -q
gate release_profile_tests
gate sentinel_accepts_committed_baseline
gate sentinel_rejects_seeded_drift
gate env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

echo "== all checks passed in $(($(date +%s) - t_start))s =="
