#!/usr/bin/env bash
# Tier-1 gate plus the determinism contracts.
#
# Builds the workspace, lints it, runs the full test suite (integration
# tests and every crate's unit tests), then re-runs
# the determinism suites under forced thread counts (PIPAD_THREADS=1 and
# =4): the host-parallel bit-exactness contract, the trace-export
# byte-identity contract (golden Chrome-trace regression), the
# allocation-budget gate (steady-state epochs must stay ≥95% below the
# preparing epochs' hot-path heap allocations, under a pinned budget),
# the buffer-pool kill-switch equivalence gate, the chaos gate
# (`repro chaos` twice, diffing the fault-injection reports), the
# resume gate (kill-and-resume bit-identity for every model, pool on and
# off, threads 1 and 4, plus a `repro resume` report thread-diff), the
# multi-GPU gate (loss trajectories bit-identical across device
# counts for every model at both thread counts, plus a `repro multigpu`
# scaling-report thread-diff), and the serving gate (served logits
# bit-identical to the train-time forward at both thread counts and with
# the buffer pool disabled, plus a `repro serve` report thread-diff),
# the profile gate (`repro profile` exports byte-identical across thread
# counts and with the buffer pool disabled), the perf-regression sentinel
# (key profile metrics within tolerance of the committed baseline, plus a
# negative test proving a seeded drift fails), and a rustdoc pass with
# warnings denied.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release =="
cargo build --release

echo "== cargo fmt --check =="
cargo fmt --check

echo "== cargo clippy --workspace -- -D warnings =="
cargo clippy --workspace -- -D warnings

# Tier-1 is `cargo test -q` (the facade package's integration tests); the
# workspace run is a superset that also executes every crate's unit tests
# (kill-and-resume, executors, reuse stores, simulator, tape, ...).
echo "== cargo test --workspace -q =="
cargo test --workspace -q

echo "== bit-exactness @ PIPAD_THREADS=1 =="
PIPAD_THREADS=1 cargo test -q --test host_parallel_exactness

echo "== bit-exactness @ PIPAD_THREADS=4 =="
PIPAD_THREADS=4 cargo test -q --test host_parallel_exactness

echo "== trace determinism @ PIPAD_THREADS=1 =="
PIPAD_THREADS=1 cargo test -q --test trace_golden

echo "== trace determinism @ PIPAD_THREADS=4 =="
PIPAD_THREADS=4 cargo test -q --test trace_golden

echo "== allocation budget (counting allocator, zero-alloc steady state) =="
cargo test -q --release --test alloc_budget
cargo test -q --release --test multigpu_alloc

echo "== pool equivalence (PIPAD_NO_POOL=1 bit-identity) =="
PIPAD_NO_POOL=1 cargo test -q --test pool_equivalence

echo "== chaos determinism (repro chaos @ PIPAD_THREADS=1 vs =4) =="
scratch_dir="$(mktemp -d)"
trap 'rm -rf "$scratch_dir"' EXIT
PIPAD_THREADS=1 cargo run -q --release -p pipad-bench --bin repro -- \
    chaos --scale tiny --out "$scratch_dir/t1"
PIPAD_THREADS=4 cargo run -q --release -p pipad-bench --bin repro -- \
    chaos --scale tiny --out "$scratch_dir/t4"
diff "$scratch_dir/t1/chaos.json" "$scratch_dir/t4/chaos.json"
diff "$scratch_dir/t1/chaos.txt" "$scratch_dir/t4/chaos.txt"
echo "chaos report byte-identical across thread counts"

echo "== resume equivalence (kill-and-resume bit-identity) @ PIPAD_THREADS=1 =="
PIPAD_THREADS=1 cargo test -q --release --test resume_equivalence

echo "== resume equivalence @ PIPAD_THREADS=4 =="
PIPAD_THREADS=4 cargo test -q --release --test resume_equivalence

echo "== resume determinism (repro resume @ PIPAD_THREADS=1 vs =4) =="
PIPAD_THREADS=1 cargo run -q --release -p pipad-bench --bin repro -- \
    resume --scale tiny --out "$scratch_dir/r1"
PIPAD_THREADS=4 cargo run -q --release -p pipad-bench --bin repro -- \
    resume --scale tiny --out "$scratch_dir/r4"
diff "$scratch_dir/r1/resume.json" "$scratch_dir/r4/resume.json"
diff "$scratch_dir/r1/resume.txt" "$scratch_dir/r4/resume.txt"
echo "resume report byte-identical across thread counts"

echo "== multi-GPU equivalence (bit-identical across device counts) @ PIPAD_THREADS=1 =="
PIPAD_THREADS=1 cargo test -q --release --test multigpu_equivalence

echo "== multi-GPU equivalence @ PIPAD_THREADS=4 =="
PIPAD_THREADS=4 cargo test -q --release --test multigpu_equivalence

echo "== multi-GPU determinism (repro multigpu @ PIPAD_THREADS=1 vs =4) =="
PIPAD_THREADS=1 cargo run -q --release -p pipad-bench --bin repro -- \
    multigpu --scale tiny --out "$scratch_dir/m1"
PIPAD_THREADS=4 cargo run -q --release -p pipad-bench --bin repro -- \
    multigpu --scale tiny --out "$scratch_dir/m4"
diff "$scratch_dir/m1/multigpu.json" "$scratch_dir/m4/multigpu.json"
diff "$scratch_dir/m1/multigpu.txt" "$scratch_dir/m4/multigpu.txt"
echo "multigpu report byte-identical across thread counts"

echo "== serve equivalence (served logits ≡ training forward) @ PIPAD_THREADS=1 =="
PIPAD_THREADS=1 cargo test -q --release --test serve_equivalence

echo "== serve equivalence @ PIPAD_THREADS=4 =="
PIPAD_THREADS=4 cargo test -q --release --test serve_equivalence

echo "== serve equivalence with the buffer pool disabled =="
PIPAD_NO_POOL=1 cargo test -q --release --test serve_equivalence

echo "== serve determinism (repro serve @ PIPAD_THREADS=1 vs =4) =="
PIPAD_THREADS=1 cargo run -q --release -p pipad-bench --bin repro -- \
    serve --scale tiny --out "$scratch_dir/s1"
PIPAD_THREADS=4 cargo run -q --release -p pipad-bench --bin repro -- \
    serve --scale tiny --out "$scratch_dir/s4"
diff "$scratch_dir/s1/serve.json" "$scratch_dir/s4/serve.json"
diff "$scratch_dir/s1/serve.txt" "$scratch_dir/s4/serve.txt"
echo "serve report byte-identical across thread counts"

echo "== profile determinism (repro profile @ PIPAD_THREADS=1 vs =4 vs PIPAD_NO_POOL=1) =="
PIPAD_THREADS=1 cargo run -q --release -p pipad-bench --bin repro -- \
    profile --scale tiny --out "$scratch_dir/p1"
PIPAD_THREADS=4 cargo run -q --release -p pipad-bench --bin repro -- \
    profile --scale tiny --out "$scratch_dir/p4"
PIPAD_NO_POOL=1 cargo run -q --release -p pipad-bench --bin repro -- \
    profile --scale tiny --out "$scratch_dir/p0"
for ext in json prom txt; do
    diff "$scratch_dir/p1/profile.$ext" "$scratch_dir/p4/profile.$ext"
    diff "$scratch_dir/p1/profile.$ext" "$scratch_dir/p0/profile.$ext"
done
echo "profile exports byte-identical across thread counts and with the pool disabled"

echo "== perf-regression sentinel (repro profile --baseline) =="
cargo run -q --release -p pipad-bench --bin repro -- \
    profile --scale tiny --out "$scratch_dir/ps" --baseline tests/golden/profile_baseline.json
echo "sentinel accepted the committed baseline"

echo "== perf-regression sentinel negative test (seeded drift must fail) =="
# Perturb the first guarded metric's expected value far outside its
# tolerance band; the comparator must exit nonzero.
sed '2s/"value":[^,]*/"value":123456789.0/' tests/golden/profile_baseline.json \
    > "$scratch_dir/bad_baseline.json"
if cargo run -q --release -p pipad-bench --bin repro -- \
    profile --scale tiny --out "$scratch_dir/pn" --baseline "$scratch_dir/bad_baseline.json" \
    2> "$scratch_dir/sentinel_neg.log"; then
    echo "ERROR: sentinel accepted a drifted baseline" >&2
    exit 1
fi
grep -q "drifted" "$scratch_dir/sentinel_neg.log"
echo "sentinel correctly rejected the seeded drift"

echo "== cargo doc --workspace --no-deps (warnings denied) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet
echo "rustdoc clean"

echo "== all checks passed =="
