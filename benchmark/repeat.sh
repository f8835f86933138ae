#!/usr/bin/env bash
# Does this benchmark repeat? Two sets of RUNS untraced runs per workload,
# every run on another seed, the same build throughout. For each end-to-end
# metric and workload it prints both medians, the first set's quartile
# spread as a share of its median, and how much worse the second median is,
# each against the bound in BENCHMARK.json; then it runs one traced workload
# twice on one seed and checks that the simulator's exact counts agree.
# Exits non-zero when a spread or a gap is over its bound, or a count differs.
#
#   benchmark/repeat.sh [RUNS]        (default 10; markdown on stdout)
set -euo pipefail
cd "$(dirname "$0")/.."
runs="${1:-10}"
raw="$(mktemp -d benchmark/out/tmp-repeat.XXXXXX)"
trap 'rm -rf "$raw"' EXIT
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
workloads="$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')"

for set in 1 2; do
    for w in $workloads; do
        for i in $(seq 1 "$runs"); do
            seed=$(( (set - 1) * runs + i ))
            benchmark/run.sh --workload "$w" --seed "$seed" --seconds "$seconds" --trace 0 \
                | tail -n 1 > "$raw/$set.$w.$seed.json"
        done
    done
done
for rep in a b; do
    benchmark/run.sh --workload sweep_sim --seed 1 --seconds "$seconds" --trace 1 \
        | tail -n 1 > "$raw/counts.$rep.json"
done

python3 - "$raw" "$runs" <<'PY'
import glob, json, statistics, sys
raw, runs = sys.argv[1], int(sys.argv[2])
spec = json.load(open("BENCHMARK.json"))
bad = []
print(f"# Repeatability: two sets of {runs} runs, seeds 1..{2 * runs}, {spec['run_seconds']} s each\n")
print("| workload | metric | unit | median 1 | median 2 | IQR/median 1 | worse by | bound | |")
print("|---|---|---|---|---|---|---|---|---|")
for w in [x["name"] for x in spec["workloads"]]:
    sets = []
    for s in (1, 2):
        rows = [json.load(open(f)) for f in sorted(glob.glob(f"{raw}/{s}.{w}.*.json"))]
        assert len(rows) == runs, f"{w}: set {s} has {len(rows)} results"
        for r in rows:
            if not r["correct"] or r["failed"]:
                bad.append(f"{w}: {r['failed']} of {r['attempted']} ops failed")
        sets.append(rows)
    for m in spec["end_to_end"]:
        v1, v2 = ([r["metrics"][m["name"]]["value"] for r in rows] for rows in sets)
        m1, m2 = statistics.median(v1), statistics.median(v2)
        q = statistics.quantiles(v1, n=4)
        spread = (q[2] - q[0]) / m1
        worse = (m2 - m1) / m1 if m["better"] == "lower" else (m1 - m2) / m1
        over = (spread > m["bound"] and m["name"] != "setup_s") or worse > m["bound"]
        if over:
            bad.append(f"{w}.{m['name']}: spread {spread:.3f}, worse by {worse:.3f}, bound {m['bound']}")
        print(f"| {w} | {m['name']} | {m['unit']} | {m1:.6g} | {m2:.6g} | {spread:.3f} | {worse:+.3f} | {m['bound']} | {'OVER' if over else 'ok'} |")
a, b = (json.load(open(f"{raw}/counts.{r}.json"))["metrics"] for r in "ab")
print("\n| exact count (sweep_sim, seed 1, traced twice) | run a | run b | |")
print("|---|---|---|---|")
for name in ("gpusim.sim_cycles_total", "gpusim.accesses_total", "gpusim.launches_total"):
    same = a[name]["value"] == b[name]["value"]
    if not same:
        bad.append(f"{name} differs between two runs of one seed")
    print(f"| {name} | {a[name]['value']} | {b[name]['value']} | {'ok' if same else 'DIFFERS'} |")
print()
for line in bad:
    print(f"- FAIL {line}")
print("all within bounds" if not bad else f"{len(bad)} failure(s)")
sys.exit(1 if bad else 0)
PY
