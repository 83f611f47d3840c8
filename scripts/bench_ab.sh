#!/usr/bin/env bash
# A/B two checkouts on the two-clock benchmark, by the protocol of
# /opt/skills/guides/choosing-metrics §8: paired runs, alternating which
# side goes first, medians with inclusive quartiles and wins per pair.
#
#   scripts/bench_ab.sh PARENT_ROOT CHANGE_ROOT [--pairs 10] [--seed 1]
#       [--fresh-seed N [--fresh-pairs 6]] [--workloads a,b,...]
#       [--out results/bench_ab] [--title TEXT] [--claim METRIC:WORKLOAD]
#
# Builds nothing: each root must already hold its own
# `benchmark/target/release/pipad-benchmark` (`bash benchmark/run.sh
# --workload serve_two_rates --seconds 1` in that root builds it). A build
# rewrites the stale, frozen `benchmark/Cargo.lock`, so once both binaries
# exist each root's lock file is put back with `git checkout` and no build
# rewrite is ever committed. Every run is that root's binary,
# from that root, as `--workload W --seed N --seconds 20 --trace 0` with
# PIPAD_THREADS=2; then one traced run per side and workload (`--trace 1`,
# the first seed) for the per-layer table. `--fresh-seed` repeats the
# untraced pairs on a seed that was not used while the change was written.
# Writes OUT.txt and OUT.json; every run made is in the JSON.
#
# Every end-to-end row carries the verdict the guide's rule reaches (§6.5,
# §8; direction and bound from BENCHMARK.json): `improved` (the change wins
# at least 9/10 of the pairs, ties counting for neither, and the medians
# differ by more than the distance between the parent's quartiles),
# `regressed` (the change's median is worse by more than the bound),
# `unresolved` (either side's quartiles are further apart than the bound and
# not every change run beats every parent run), else `no worse`. With
# `--claim` the script exits 1 unless that row is `improved` on every seed
# run and no row is `regressed`.
#
# Run it on an otherwise idle machine: no cargo, no tests beside it.
set -euo pipefail

usage() {
    sed -n '2,32p' "$0" | sed 's/^# \{0,1\}//' >&2
    exit 2
}

[[ $# -ge 2 ]] || usage
parent_root=$(cd "$1" && pwd)
change_root=$(cd "$2" && pwd)
shift 2
pairs=10 seed=1 fresh_seed="" fresh_pairs=6 out=results/bench_ab title="" workloads="" claim=""
while [[ $# -gt 0 ]]; do
    [[ $# -ge 2 ]] || usage
    case $1 in
        --pairs) pairs=$2 ;;
        --seed) seed=$2 ;;
        --fresh-seed) fresh_seed=$2 ;;
        --fresh-pairs) fresh_pairs=$2 ;;
        --workloads) workloads=${2//,/ } ;;
        --out) out=$2 ;;
        --title) title=$2 ;;
        --claim) claim=$2 ;;
        *) usage ;;
    esac
    shift 2
done

bin=benchmark/target/release/pipad-benchmark
for root in "$parent_root" "$change_root"; do
    [[ -x $root/$bin ]] || { echo "ERROR: $root/$bin is not built" >&2; exit 1; }
done
for root in "$parent_root" "$change_root"; do
    git -C "$root" checkout -- benchmark/Cargo.lock
done
if [[ -z $workloads ]]; then
    workloads=$(python3 -c '
import json, sys
print(" ".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))
' "$change_root/BENCHMARK.json")
fi

runs_dir=$(mktemp -d)
trap 'rm -rf "$runs_dir"' EXIT

# one_run SIDE WORKLOAD SEED TRACE INDEX: stdout of one run, kept whole.
one_run() {
    local side=$1 root
    [[ $side == parent ]] && root=$parent_root || root=$change_root
    (cd "$root" && PIPAD_THREADS=2 "./$bin" --workload "$2" --seed "$3" --seconds 20 \
        --trace "$4") > "$runs_dir/$side.$2.$3.$4.$5.out" 2> /dev/null
}

# untraced_pairs SEED PAIRS
untraced_pairs() {
    local w i
    for w in $workloads; do
        for ((i = 0; i < $2; i++)); do
            if ((i % 2 == 0)); then
                one_run parent "$w" "$1" 0 "$i"
                one_run change "$w" "$1" 0 "$i"
            else
                one_run change "$w" "$1" 0 "$i"
                one_run parent "$w" "$1" 0 "$i"
            fi
            echo "  $w seed $1 pair $((i + 1))/$2" >&2
        done
    done
}

untraced_pairs "$seed" "$pairs"
[[ -z $fresh_seed ]] || untraced_pairs "$fresh_seed" "$fresh_pairs"
for w in $workloads; do
    one_run parent "$w" "$seed" 1 0
    one_run change "$w" "$seed" 1 0
    echo "  $w traced" >&2
done

mkdir -p "$(dirname "$out")"
python3 - "$runs_dir" "$out" "$title" "$seed" "$fresh_seed" \
    "$(git -C "$parent_root" rev-parse HEAD)" \
    "$(git -C "$change_root" rev-parse HEAD)$(git -C "$change_root" diff --quiet HEAD || echo +uncommitted)" \
    "$change_root/BENCHMARK.json" "$(nproc)" "$claim" $workloads << 'PY'
import json, os, re, statistics, sys

(runs_dir, out, title, seed, fresh_seed, parent_commit, change_commit, contract, cores,
 claim) = sys.argv[1:11]
workloads = sys.argv[11:]
contract = json.load(open(contract))
end_to_end = [(m["name"], m["bound"]) for m in contract["end_to_end"]]
# +1 where lower reads better, -1 where higher does: `sign * (a - b) > 0`
# means b reads better than a.
sign = {m["name"]: 1 if m["better"] == "lower" else -1 for m in contract["end_to_end"]}
LINE = re.compile(r"^([\w.+\-]+) (\S+) (\S+)$")


def read(path):
    """One run: its printed `name value unit` lines plus the result object."""
    lines = open(path).read().splitlines()
    result = json.loads(lines[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    for l in lines[:-1]:
        m = LINE.match(l)
        if m:
            values.setdefault(m.group(1), float(m.group(2)))
    return {"values": values, "correct": result["correct"], "failed": result["failed"]}


runs = {}  # (side, workload, seed, trace) -> [run, ...] in pair order
for name in sorted(os.listdir(runs_dir), key=lambda n: int(n.split(".")[-2])):
    side, workload, s, trace, _, _ = name.rsplit(".", 5)
    runs.setdefault((side, workload, s, trace), []).append(read(os.path.join(runs_dir, name)))


def quartiles(xs):
    """q1, median, q3, inclusive method (a single run is all three)."""
    return statistics.quantiles(xs, n=4, method="inclusive") if len(xs) > 1 else xs * 3


def pct(parent, change):
    return 0.0 if parent == change else (change - parent) / parent * 100 if parent else float("inf")


def fmt(x):
    return f"{x:.10g}" if x == int(x) and abs(x) < 1e15 else f"{x:.4g}"


def verdict(r):
    """The rule of choosing-metrics sections 6.5 and 8 for one finished row."""
    k, bound = sign[r["metric"]], r["bound_pct"] / 100 * abs(r["parent_median"])
    parent_iqr = r["parent_q3"] - r["parent_q1"]
    if (10 * r["change_wins"] >= 9 * r["pairs"]
            and k * (r["parent_median"] - r["change_median"]) > parent_iqr):
        return "improved"
    if k * (r["change_median"] - r["parent_median"]) > bound:
        return "regressed"
    separated = all(k * (a - b) > 0 for a in r["parent_runs"] for b in r["change_runs"])
    if max(parent_iqr, r["change_q3"] - r["change_q1"]) > bound and not separated:
        return "unresolved"
    return "no worse"


def untraced_rows(s):
    rows = []
    for w in workloads:
        p, c = runs[("parent", w, s, "0")], runs[("change", w, s, "0")]
        for metric, bound in end_to_end:
            pv = [r["values"][metric] for r in p]
            cv = [r["values"][metric] for r in c]
            (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(pv), quartiles(cv)
            rows.append({
                "seed": int(s), "workload": w, "metric": metric, "pairs": len(pv),
                "parent_q1": pq1, "parent_median": pm, "parent_q3": pq3,
                "change_q1": cq1, "change_median": cm, "change_q3": cq3,
                "delta_pct": pct(pm, cm), "bound_pct": bound * 100,
                "change_wins": sum(sign[metric] * (a - b) > 0 for a, b in zip(pv, cv)),
                "ties": sum(a == b for a, b in zip(pv, cv)),
                "all_correct": all(r["correct"] for r in p + c),
                "failed_ops": sum(r["failed"] for r in p + c),
                "parent_runs": pv, "change_runs": cv,
            })
            rows[-1]["verdict"] = verdict(rows[-1])
    return rows


def table(rows):
    lines = [f"{'workload':<20} {'metric':<18} {'parent med [q1..q3]':<36} "
             f"{'change med [q1..q3]':<36} {'delta':>8}  {'wins':<6} verdict"]
    for r in rows:
        side = lambda k: f"{fmt(r[k + '_median'])} [{fmt(r[k + '_q1'])}..{fmt(r[k + '_q3'])}]"
        lines.append(f"{r['workload']:<20} {r['metric']:<18} {side('parent'):<36} "
                     f"{side('change'):<36} {r['delta_pct']:>+7.1f}%  "
                     f"{str(r['change_wins']) + '/' + str(r['pairs']):<6} {r['verdict']}")
    return lines


method = ("each root's own pipad-benchmark (release, built beforehand), run from its root as "
          "`--workload W --seed N --seconds 20 "
          "--trace 0|1` with PIPAD_THREADS=2, parent and change alternating which runs first; "
          f"{cores}-core sandbox; quartiles inclusive; wins = pairs where the change reads "
          "better; verdict = improved (wins >= 9/10 of the pairs and the medians differ by more "
          "than the distance between the parent's quartiles), regressed (change median worse "
          "than the parent's by more than the bound), unresolved (either side's quartiles "
          "further apart than the bound and not every change run better than every parent run), "
          "else no worse")
doc = {"title": title, "parent_commit": parent_commit, "change_commit": change_commit,
       "method": method}
text = [title or f"A/B: parent {parent_commit[:7]} vs change {change_commit[:7]}",
        f"parent {parent_commit} vs change {change_commit}", method, ""]

for s in [seed] + ([fresh_seed] if fresh_seed else []):
    rows = untraced_rows(s)
    doc[f"end_to_end_seed{s}"] = rows
    note = " (not used while the change was written)" if s == fresh_seed else ""
    text += [f"== end-to-end: seed {s}{note}, untraced, {rows[0]['pairs']} pairs per workload =="]
    text += table(rows) + [""]

# Per-layer: one traced run per side. Simulated values and counts repeat
# exactly, so any difference is reported; a host-clock probe from a single
# run is only worth a row when it moved by a tenth or more.
layer_rows = []
text += [f"== per-layer, traced pass (seed {seed}, one run per side; host-clock probes only "
         "where they moved >= 10 %) ==",
         f"{'workload':<20} {'metric':<46} {'parent':>20} {'change':>20} {'delta':>8}"]
for w in workloads:
    p = runs[("parent", w, seed, "1")][0]["values"]
    c = runs[("change", w, seed, "1")][0]["values"]
    for metric in p:
        if metric not in c or metric in dict(end_to_end):
            continue
        host_clock = "host" in metric or metric.startswith(("bench.", "pool.", "dyngraph.gen"))
        d = pct(p[metric], c[metric])
        always = metric in ("final_loss", "failed_op_share")
        if not always and (d == 0 or (host_clock and abs(d) < 10)):
            continue
        layer_rows.append({"workload": w, "metric": metric, "parent": p[metric],
                           "change": c[metric], "delta_pct": d, "host_clock": host_clock})
        text.append(f"{w:<20} {metric:<46} {p[metric]!r:>20} {c[metric]!r:>20} {d:>+7.1f}%")
doc[f"per_layer_traced_seed{seed}"] = layer_rows

losses, equal = {}, True
for (side, w, s, trace), rs in sorted(runs.items()):
    for r in rs:
        loss = r["values"].get("final_loss")
        if loss is not None:
            equal &= losses.setdefault(f"{w}@seed{s}", loss) == loss
doc["final_loss"] = losses
doc["final_loss_bit_equal"] = equal
every = [r for rs in runs.values() for r in rs]
doc["all_correct"] = all(r["correct"] for r in every)
doc["failed_ops"] = sum(r["failed"] for r in every)
text += ["", f"final_loss equal between the sides on every workload, seed and pass: {equal}; "
         f"failed ops: {doc['failed_ops']}; every run's output checks passed: "
         f"{doc['all_correct']}; runs made: {len(every)}.",
         "Bounds (BENCHMARK.json): " + ", ".join(f"{m} +{b * 100:.0f} %" for m, b in end_to_end)
         + "."]

claim_met = True
if claim:
    metric, workload = claim.split(":")
    every_row = [r for k, rows in doc.items() if k.startswith("end_to_end_seed") for r in rows]
    claimed = [r for r in every_row if (r["metric"], r["workload"]) == (metric, workload)]
    regressed = [r for r in every_row if r["verdict"] == "regressed"]
    claim_met = bool(claimed) and all(r["verdict"] == "improved" for r in claimed) \
        and not regressed
    doc["claim"] = {"metric": metric, "workload": workload, "met": claim_met}
    text += [f"Claim {metric} on {workload}: " + ", ".join(
        f"seed {r['seed']} {r['verdict']}" for r in claimed) + "; rows regressed: "
        + (", ".join(f"{r['metric']} on {r['workload']} (seed {r['seed']})" for r in regressed)
           or "none") + f" -> claim {'met' if claim_met else 'NOT met'}."]

open(out + ".txt", "w").write("\n".join(text) + "\n")
json.dump(doc, open(out + ".json", "w"), indent=1)
print("\n".join(text))
sys.exit(0 if claim_met else 1)
PY
