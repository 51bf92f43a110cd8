#!/usr/bin/env bash
# Paired benchmark runs of a base commit against the working tree: the table
# a performance change has to show (docs: benchmark/README.md, "Metrics").
#
#   scripts/bench_pairs.sh BASE_REF [--pairs N] [WORKLOAD...]
#
# Unpacks BASE_REF (`git archive`) into a temporary directory, builds both
# sides offline — the base into its own target directory there, the working
# tree into its usual ones — and runs the driver's contract
#
#   benchmark/run.sh --workload W --seed S --seconds 6 --trace 0
#
# N times per workload (default 10, every workload of BENCHMARK.json), each
# pair at a seed not used before and with the side that goes first
# alternating. Prints, per (workload, end-to-end metric), both medians with
# their quartiles, the change of the median, how many pairs the working
# tree won (ties count for neither) and the verdict the merge gate applies:
#
#   gain        the working tree won >= 9 of 10 pairs and its median differs
#               from the base's by more than the base's interquartile range
#   worse       the median is worse than the base's by more than the metric's
#               `bound` in BENCHMARK.json
#   unresolved  the base's interquartile range exceeds that bound (relative
#               to its median): the runs spread too widely to tell
#   same        otherwise
#
# and, per workload and side, the failed and attempted operations summed
# over its runs. Exits 1 if any run returned a wrong answer.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

usage() {
    echo "usage: scripts/bench_pairs.sh BASE_REF [--pairs N] [WORKLOAD...]" >&2
    exit 2
}

[ $# -ge 1 ] || usage
base_ref=$1
shift
pairs=10
workloads=()
while [ $# -gt 0 ]; do
    case $1 in
    --pairs)
        [ $# -ge 2 ] || usage
        pairs=$2
        shift 2
        ;;
    -*) usage ;;
    *)
        workloads+=("$1")
        shift
        ;;
    esac
done
if [ ${#workloads[@]} -eq 0 ]; then
    mapfile -t workloads < <(python3 -c '
import json
for w in json.load(open("BENCHMARK.json"))["workloads"]:
    print(w["name"])')
fi
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
commit=$(git rev-parse --verify "$base_ref^{commit}")

scratch=$(mktemp -d)
trap 'rm -rf "$scratch"' EXIT
mkdir "$scratch/base" "$scratch/runs"
git archive "$commit" | tar -x -C "$scratch/base"

# One contract run of `side`; its JSON line lands in runs/W.side.PAIR.json.
# The first run of each side also builds it.
run_side() {
    local side=$1 workload=$2 seed=$3 pair=$4 out
    out="$scratch/runs/$workload.$side.$pair.json"
    if [ "$side" = base ]; then
        (cd "$scratch/base" && CARGO_TARGET_DIR="$scratch/base-target" \
            benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)
    else
        (unset CARGO_TARGET_DIR &&
            benchmark/run.sh --workload "$workload" --seed "$seed" --seconds "$seconds" --trace 0)
    fi | tail -n 1 >"$out"
}

# Seeds start at the clock so that no two invocations share one.
first_seed=$(($(date +%s) % 1000000))
echo "base $base_ref ($commit) against the working tree:" \
    "$pairs pairs x ${#workloads[@]} workloads, $seconds s each, seeds from $first_seed" >&2
for workload in "${workloads[@]}"; do
    for pair in $(seq 1 "$pairs"); do
        seed=$((first_seed + pair))
        if [ $((pair % 2)) -eq 1 ]; then order="base cand"; else order="cand base"; fi
        for side in $order; do
            run_side "$side" "$workload" "$seed" "$pair"
        done
        echo "  $workload pair $pair/$pairs (seed $seed, $order)" >&2
    done
done

python3 - "$scratch/runs" "$pairs" "${workloads[@]}" <<'PY'
import json, statistics, sys

runs, pairs, workloads = sys.argv[1], int(sys.argv[2]), sys.argv[3:]
metrics = json.load(open("BENCHMARK.json"))["end_to_end"]

def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3

def fmt(value):
    return f"{value:.1f}" if value >= 10 else f"{value:.3f}"

def verdict(base, cand, wins, bound, lower):
    mb, mc = statistics.median(base), statistics.median(cand)
    q1, q3 = quartiles(base)
    worse_by = (mc - mb) if lower else (mb - mc)
    if wins * 10 >= 9 * pairs and -worse_by > q3 - q1:
        return "gain"
    if mb and worse_by / mb > bound:
        return "worse"
    if mb and (q3 - q1) / mb > bound:
        return "unresolved"
    return "same"

wrong = 0
failures = []
print(f"{'workload':<15}{'metric':<23}{'base median [q1, q3]':>34}{'working tree median [q1, q3]':>34}{'change':>9}{'wins':>7}  verdict")
for workload in workloads:
    sides = {"base": [], "cand": []}
    for side, lines in sides.items():
        failed = attempted = 0
        for pair in range(1, pairs + 1):
            line = json.load(open(f"{runs}/{workload}.{side}.{pair}.json"))
            wrong += not line["correct"]
            failed += line["failed"]
            attempted += line["attempted"]
            lines.append(line["metrics"])
        failures.append(f"{workload:<15}{side:<6}{failed:>10}/{attempted}")
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        base = [m[name]["value"] for m in sides["base"]]
        cand = [m[name]["value"] for m in sides["cand"]]
        wins = sum((c < b) if lower else (c > b) for b, c in zip(base, cand))
        cells = []
        for values in (base, cand):
            q1, q3 = quartiles(values)
            cells.append(f"{fmt(statistics.median(values))} [{fmt(q1)}, {fmt(q3)}]")
        mb, mc = statistics.median(base), statistics.median(cand)
        change = f"{(mc - mb) / mb * 100:+.1f}%" if mb else "n/a"
        said = verdict(base, cand, wins, metric["bound"], lower)
        print(f"{workload:<15}{name:<23}{cells[0]:>34}{cells[1]:>34}{change:>9}{wins:>4}/{pairs}  {said}")
print(f"\n{'workload':<15}{'side':<6}{'failed/attempted':>17}")
print("\n".join(failures))
if wrong:
    sys.exit(f"{wrong} runs returned a wrong answer")
PY
