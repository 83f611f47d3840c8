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

# The one release-profile test gate. Allocation budget under the counting
# allocator: steady-state epochs must stay ≥95% below the preparing epochs'
# hot-path heap allocations, under a pinned budget. Trainer digests and GEMM
# bits: the benchmark, `repro` and every committed result run `--release`,
# and the GEMM micro-kernel is exactly the code whose codegen differs
# between the profiles, so its oracle and the digests it feeds are checked
# here as well as at dev `opt-level` in the workspace run. The same goes for
# the fused recurrent-cell loops and their `to_bits` oracles in
# `pipad-kernels` and `pipad-autograd`. The profile goldens, too: every
# pipeline number `repro profile` exports, exact, under the threads × pool
# sweep, in the profile the committed `results/profile.*` are built with.
# And the trace goldens: every committed trace is exported in `--release`,
# through the tracer's argument-list intern table. And the data-parallel
# trainer's replay counts and epoch bounds, in the profile the benchmark's
# `multigpu_4dev` runs.
release_profile_tests() {
    cargo test -q --release --test alloc_budget --test multigpu_alloc \
        --test trainer_digests --test host_parallel_exactness --test metrics_layer \
        --test trace_golden --test fig10_replays --test multigpu_equivalence
    cargo test -q --release -p pipad-tensor -p pipad-kernels -p pipad-autograd
}

# Every key under `[dependencies]` of every crate, the facade's at the root
# included, must be named somewhere in that crate's `src/` (`name::`,
# `use name;`, `name as`): an edge nothing links fails here instead of
# lingering in a manifest. A dependency only tests or examples use belongs
# under `[dev-dependencies]`.
unused_deps() {
    local manifest dir section line dep name bad=0
    for manifest in Cargo.toml crates/*/Cargo.toml; do
        dir=$(dirname "$manifest")
        section=""
        while IFS= read -r line; do
            case $line in
                "["*) section=$line ;;
                [a-z]*)
                    [[ $section == "[dependencies]" ]] || continue
                    dep=${line%%[. =]*}
                    name=${dep//-/_}
                    if ! grep -rqE "\b$name(::|;| as)" "$dir/src"; then
                        echo "ERROR: $dir depends on $dep but never names it" >&2
                        bad=1
                    fi
                    ;;
            esac
        done < "$manifest"
    done
    return "$bad"
}

# `benchmark/` is a workspace of its own that path-depends on the crates and
# is frozen by BENCHMARK.json: it must keep compiling, unedited, against
# whatever this tree's public API now is, and its own unit tests (workload
# output checks, the metric catalog against BENCHMARK.json) must pass.
# Building it rewrites its stale lock file, so the lock is copied aside and
# put back.
benchmark_compiles() {
    local status=0
    cp benchmark/Cargo.lock "$scratch_dir/benchmark.lock"
    cargo test --offline --quiet --manifest-path benchmark/Cargo.toml \
        --target-dir benchmark/target || status=$?
    cp "$scratch_dir/benchmark.lock" benchmark/Cargo.lock
    return "$status"
}

# No executor, kernel or trainer may answer an input with a stub panic:
# `unimplemented!(` / `todo!(` must not appear in `crates/*/src` above a
# file's `#[cfg(test)]` module.
no_panicking_stubs() {
    find crates/*/src -name '*.rs' -exec awk '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        !in_tests && /unimplemented!\(|todo!\(/ {
            print "ERROR: panicking stub at " FILENAME ":" FNR > "/dev/stderr"
            bad = 1
        }
        END { exit bad }' {} +
}

# Every committed `results/*` artifact must be one that `repro` wrote into
# `results/repro.log` (the `bench_pr*` A/B tables come from
# `scripts/bench_ab.sh`): an experiment deleted with its artifact left
# behind fails here.
results_have_a_producer() {
    local file bad=0
    for file in $(git ls-files results); do
        case $file in results/bench_pr* | results/repro.log) continue ;; esac
        if ! grep -qxF "[repro] wrote $file" results/repro.log; then
            echo "ERROR: $file is committed but no logged repro run wrote it" >&2
            bad=1
        fi
    done
    return "$bad"
}

# Figures 9 and 11 measure the code that trains: they stage and aggregate
# through the trainers' executors (`util::run_gnn_frame`), so neither may
# name an aggregation kernel, an upload or the overlap extraction itself.
# (Figures 5 and 12 are single-kernel micro-benchmarks by design.) Names are
# matched from a word start: a test may say `vs_gespmm_are`.
figures_run_the_executors() {
    if grep -nE "\b(spmm_|upload_|extract_overlap)" crates/bench/src/fig9.rs crates/bench/src/fig11.rs; then
        echo "ERROR: Figures 9 and 11 must run the executors, not a copy of their kernels" >&2
        return 1
    fi
}

# The host (loader) lane is a lane of `gpu_sim::Gpu`: no trainer, executor
# or serving loop carries host time of its own. `host_cursor` may appear only
# as the parameter of the two one-off passes, `GraphAnalyzer::run` and
# `PartitionCatalog::build`, and the staging cost's `host_bytes_per_us` is
# read only inside `gpu-sim` (`Gpu::host_stage`).
host_lane_has_one_owner() {
    local bad=0
    if grep -rn host_cursor crates/*/src | grep -vE '^crates/core/src/(analyzer|prep)\.rs:'; then
        echo "ERROR: host time is carried outside gpu-sim's host lane" >&2
        bad=1
    fi
    if grep -rn host_bytes_per_us crates/*/src | grep -v '^crates/gpu-sim/'; then
        echo "ERROR: the host staging cost is computed outside gpu-sim" >&2
        bad=1
    fi
    # A second host lane (the data-preparation worker) is gpu-sim's too: no
    # trainer or serving type keeps a host cursor of its own.
    if grep -rnE 'Cell<SimNanos>|\b[A-Za-z_]*(lane|worker)[A-Za-z_]*: *SimNanos\b' \
        crates/core/src crates/serve/src; then
        echo "ERROR: a host lane cursor is kept outside gpu-sim" >&2
        bad=1
    fi
    return "$bad"
}

# Overlap extraction has one cost formula and one home: the catalog's
# on-demand `plan` and its eager `fill` share one private extraction in
# `crates/core/src/prep.rs`, and no other source names its per-edge cost or
# charges its host op, so the two paths cannot drift apart.
overlap_extraction_has_one_home() {
    if grep -rnE 'EXTRACT_NS_PER_EDGE|"overlap_extraction"' crates/*/src |
        grep -v '^crates/core/src/prep\.rs:'; then
        echo "ERROR: overlap extraction costed outside crates/core/src/prep.rs" >&2
        return 1
    fi
}

# The staged copy's retry policy (budget, doubling backoff, the retry loop
# and the per-op index its attempts share) lives in one place,
# `Gpu::h2d_staged`: no crate outside `gpu-sim` names a retry primitive.
copy_retry_has_one_home() {
    if grep -rnE '\b(Backoff|upload_staged|try_copy|backoff_stream|next_copy_op|transfer_retry_budget)\b' crates/*/src |
        grep -v '^crates/gpu-sim/'; then
        echo "ERROR: copy retry policy outside Gpu::h2d_staged" >&2
        return 1
    fi
}

# Serving has one batcher: the serving loop steps `Batcher::next` with the
# device's free time, and `form_batches` (the never-idle wrapper the
# proptests and the benchmark's probe call) is called nowhere else in
# `crates/*/src`, so no second, clock-blind batch schedule can come back.
serving_has_one_batcher() {
    if grep -rn 'form_batches(' crates/*/src | grep -v '^crates/serve/src/batcher\.rs:'; then
        echo "ERROR: form_batches called outside serve::batcher; step Batcher::next instead" >&2
        return 1
    fi
}

# CUDA graphs are captured, replayed and checked in one place, the device
# (`gpu_sim::Gpu`'s `graph_scope` / `capture_or_replay`): no crate outside
# `crates/gpu-sim/src` declares a `GraphCache` type or keeps its own map of
# captured kernel sequences.
graph_capture_has_one_home() {
    local hits
    hits=$(grep -rnE "struct GraphCache\b|\bcaptured: *(std::collections::)?(HashMap|BTreeMap)<|(HashMap|BTreeMap)<[^<>]*, *Vec<&('static )?str>>" \
        crates/*/src | grep -v '^crates/gpu-sim/src/' || true)
    if [[ -n $hits ]]; then
        echo "$hits"
        echo "ERROR: a graph capture outside gpu_sim::Gpu" >&2
        return 1
    fi
}

# Every row of README's "Beyond the paper" table must name what measures it:
# a `repro <name>` that is an `EXPERIMENTS` entry (name or alias), or a
# `tests/<file>.rs` that exists. An extension with no result to point at
# fails here instead of lingering.
extensions_name_a_result() {
    local names row name file found bad=0
    names=$(grep -E '^ *(name|aliases):' crates/bench/src/experiments.rs | grep -oE '"[^"]+"' | tr -d '"')
    # The table's rows, less its header and separator lines.
    while IFS= read -r row; do
        found=0
        for name in $(grep -oE '`repro [a-z0-9_]+`' <<< "$row" | tr -d '`' | cut -d' ' -f2); do
            grep -qxF "$name" <<< "$names" && found=1
        done
        for file in $(grep -oE '`tests/[A-Za-z0-9_]+\.rs`' <<< "$row" | tr -d '`'); do
            [[ -f $file ]] && found=1
        done
        if ((!found)); then
            echo "ERROR: README extension \"$(cut -d'|' -f2 <<< "$row" | xargs)\" names no repro experiment and no test file" >&2
            bad=1
        fi
    done < <(sed -n '/^## Beyond the paper/,/^## [^B]/p' README.md | grep '^| ' | tail -n +2)
    return "$bad"
}

# README says what the system is and how to run it; its history lives in
# CHANGES.md. It may shrink, never grow: lower the cap when it shrinks.
readme_does_not_grow() {
    local cap=877 lines
    lines=$(wc -l < README.md)
    if ((lines > cap)); then
        echo "ERROR: README.md has $lines lines, over its cap of $cap" >&2
        return 1
    fi
}

# The examples are the only end-to-end runs through the facade's re-exports;
# the workspace test run has already built them.
examples_run() {
    local ex
    for ex in examples/*.rs; do
        cargo run -q --example "$(basename "$ex" .rs)" > /dev/null
    done
}

gate unused_deps
gate no_panicking_stubs
gate results_have_a_producer
gate figures_run_the_executors
gate host_lane_has_one_owner
gate overlap_extraction_has_one_home
gate copy_retry_has_one_home
gate serving_has_one_batcher
gate graph_capture_has_one_home
gate extensions_name_a_result
gate readme_does_not_grow
gate cargo build --release
gate cargo fmt --check
gate cargo clippy --workspace --all-targets -- -D warnings
gate benchmark_compiles
# Tier-1 is `cargo test -q` (the facade package's integration tests); the
# workspace run is a superset that also executes every crate's unit tests
# (kill-and-resume, executors, reuse stores, simulator, tape, every
# HOST_MATRIX-carrying `repro` experiment at tiny scale, ...).
gate cargo test --workspace -q
gate examples_run
gate release_profile_tests
gate env RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --quiet

# Wall-time budget: twice the warm total (48 s with nothing to recompile, on
# the 2-core sandbox), so the cost of the gates cannot creep back up
# unnoticed. A run that had to compile does not fit; run it again.
budget_s=96
total_s=$(($(date +%s) - t_start))
if ((total_s > budget_s)); then
    echo "ERROR: all checks passed, but in ${total_s}s: over the ${budget_s}s wall-time budget" >&2
    echo "       (warm runs only: if this one compiled, run it again)" >&2
    exit 1
fi
echo "== all checks passed in ${total_s}s (budget ${budget_s}s) =="
