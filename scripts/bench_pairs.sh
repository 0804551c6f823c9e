#!/usr/bin/env bash
# Runs the benchmark in pairs, parent revision against the working tree,
# and summarises every metric. Run from anywhere inside the repository:
#
#   bash scripts/bench_pairs.sh PARENT_REV WORKLOAD SEED...
#
# One pair per seed. Pair i runs the parent first when i is even and the
# working tree first when it is odd, so slow drifts of the host load fall
# on both sides alike.
#
# The parent is extracted with `git archive` into $BENCH_PAIRS_DIR/parent-src.
# Each run goes through its own tree's `benchmark/run.sh`, with that tree
# as working directory (for `BENCHMARK.json`) and its own target directory,
# $BENCH_PAIRS_DIR/parent-target or change-target, so each side is built
# by its own recipe and neither touches `.bench_build`. Runs use the
# benchmark's own `--seconds` default and `--trace $BENCH_PAIRS_TRACE`.
# The script reads `benchmark/` and `BENCHMARK.json` and changes neither.
#
# Every JSON line goes to $BENCH_PAIRS_DIR/<workload>.jsonl, tagged with
# its side and seed, and each run's readable summary to <workload>.stderr;
# both are appended to, never overwritten. At the end the
# script prints each side's failed share and, per metric, each side's
# median and quartiles over this invocation's runs, the change of the
# medians, and in how many pairs the working tree won (by the metric's
# `better` in `BENCHMARK.json`). Each end-to-end metric also gets its
# `bound` from `BENCHMARK.json` and one verdict word:
#   worse       the working tree's median is worse than the parent's by
#               more than the bound;
#   unresolved  the parent's quartile spread over its median exceeds the
#               bound, and not every working-tree run beats every parent
#               run;
#   ok          otherwise.
#
# Environment:
#   BENCH_PAIRS_DIR      work directory (default: .bench_pairs at the root)
#   BENCH_PAIRS_TRACE    the benchmark's --trace (default: 0; 1 reports the
#                        per-layer metrics instead of the end-to-end ones)
set -euo pipefail

if [ "$#" -lt 3 ]; then
    echo "usage: $0 PARENT_REV WORKLOAD SEED..." >&2
    exit 2
fi
parent_rev=$1
workload=$2
shift 2
seeds=("$@")

root=$(git rev-parse --show-toplevel)
work=${BENCH_PAIRS_DIR:-$root/.bench_pairs}
mkdir -p "$work"
work=$(cd "$work" && pwd)
trace=${BENCH_PAIRS_TRACE:-0}
parent_hash=$(git -C "$root" rev-parse --verify "$parent_rev^{commit}")
parent_src=$work/parent-src

# The benchmark refuses to run under any FULLLOCK_* variable.
for var in $(env | sed -n 's/^\(FULLLOCK_[A-Za-z0-9_]*\)=.*/\1/p'); do
    unset "$var"
done

# Re-extract the parent only when the revision changed: `git archive`
# stamps files with the commit time, but a fresh tree still rebuilds.
if [ "$(cat "$parent_src/.bench_pairs_rev" 2>/dev/null)" != "$parent_hash" ]; then
    rm -rf "$parent_src"
    mkdir -p "$parent_src"
    git -C "$root" archive "$parent_hash" | tar -x -C "$parent_src"
    echo "$parent_hash" >"$parent_src/.bench_pairs_rev"
fi

log=$work/$workload.jsonl
this_run=$(mktemp "$work/run.XXXXXX")
trap 'rm -f "$this_run"' EXIT

# The first run of each side also builds it; build errors land in
# <workload>.stderr and the run counts as failed.
run() {
    local side=$1 src=$2 seed=$3 line
    echo "$workload seed $seed: $side" >&2
    line=$(cd "$src" && CARGO_TARGET_DIR=$work/$side-target bash benchmark/run.sh \
        --workload "$workload" --seed "$seed" --trace "$trace" \
        2>>"$work/$workload.stderr" | tail -n 1) || true
    if [ -z "$line" ]; then
        line='{"correct":false,"attempted":0,"failed":0,"metrics":{}}'
    fi
    printf '{"side":"%s","seed":%s,"workload":"%s","result":%s}\n' \
        "$side" "$seed" "$workload" "$line" | tee -a "$log" >>"$this_run"
}

for i in "${!seeds[@]}"; do
    seed=${seeds[$i]}
    if [ $((i % 2)) -eq 0 ]; then
        run parent "$parent_src" "$seed"
        run change "$root" "$seed"
    else
        run change "$root" "$seed"
        run parent "$parent_src" "$seed"
    fi
done

python3 - "$root/BENCHMARK.json" "$this_run" <<'EOF'
import json, statistics, sys

spec = json.load(open(sys.argv[1]))
better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
runs = [json.loads(line) for line in open(sys.argv[2])]
by_seed = {}
for r in runs:
    by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]
pairs = [p for p in by_seed.values() if "parent" in p and "change" in p]

def quartiles(xs):
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3

def verdict(bound, sign, parent, change, pq, cq):
    """The pipeline's word for one end-to-end metric."""
    if sign * (cq[1] - pq[1]) > bound * abs(pq[1]):
        return "worse"
    every_run_beats = all(sign * (c - p) < 0 for c in change for p in parent)
    if pq[2] - pq[0] > bound * abs(pq[1]) and not every_run_beats:
        return "unresolved"
    return "ok"

for side in ("parent", "change"):
    rs = [p[side] for p in pairs]
    failed = sum(r["failed"] for r in rs)
    attempted = sum(r["attempted"] for r in rs)
    share = failed / attempted if attempted else 0.0
    print(f"{side}: {len(rs)} runs, correct in {sum(bool(r['correct']) for r in rs)}, "
          f"failed {failed} of {attempted} ({share:.1%})")
names = sorted({n for p in pairs for side in p.values() for n in side["metrics"]})
print(f"{'metric':<28} {'parent median [q1, q3]':>30} "
      f"{'change median [q1, q3]':>30} {'delta':>8} wins  bound verdict")
for name in names:
    both = [(p["parent"]["metrics"].get(name), p["change"]["metrics"].get(name)) for p in pairs]
    both = [(a["value"], b["value"]) for a, b in both if a and b]
    if not both:
        continue
    parent, change = [a for a, _ in both], [b for _, b in both]
    pq, cq = quartiles(parent), quartiles(change)
    sign = 1 if better.get(name, "lower") == "lower" else -1
    wins = sum(sign * (b - a) < 0 for a, b in both)
    delta = (cq[1] - pq[1]) / pq[1] * 100 if pq[1] else float("nan")
    judged = ""
    if name in bounds:
        word = verdict(bounds[name], sign, parent, change, pq, cq)
        judged = f"  {bounds[name]:>5.0%} {word}"
    print(f"{name:<28} {pq[1]:>12.4g} [{pq[0]:.4g}, {pq[2]:.4g}] "
          f"{cq[1]:>12.4g} [{cq[0]:.4g}, {cq[2]:.4g}] {delta:>+7.1f}% "
          f"{wins:>4}/{len(both)}{judged}")
EOF
