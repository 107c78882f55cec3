#!/usr/bin/env bash
# End-to-end benchmark: build, run, report.
#
#   bench/e2e/run.sh [--seed N] [--workload W]... [--trace [0|1]]
#
# Builds bench/e2e (Release) into build-e2e/ at the repo root, then
# runs each workload in its own process. Every workload runs a fixed
# op count (bench/e2e/catalog.json); --seconds S is accepted, for
# callers that pass a measuring window, and ignored.
#
# One --workload: one run of that workload. With --trace 0 (the
# default) it prints the end-to-end metrics, with --trace 1 the
# per-layer metrics; the last stdout line is the run's JSON result.
#
# Otherwise (no --workload, or several): every named workload (all four
# by default) runs untraced in three passes over the workloads, and once
# traced when --trace is given. Each metric is the median over the
# passes, printed as "workload metric value unit" and collected in
# BENCH_e2e.json at the repo root; build-e2e/runs/ keeps every run's
# output. Compare two such files with bench/e2e/compare.py.
#
# A traced run writes its spans to build-e2e/TRACE_e2e_<workload>.json.
# Exits 1 if any op failed (after printing every metric), 2 on bad
# arguments.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
build="$root/build-e2e"
seed=1
trace=""
workloads=()

usage() {
  sed -n '2,24p' "${BASH_SOURCE[0]}" | sed 's/^# \{0,1\}//'
}

while [ $# -gt 0 ]; do
  case "$1" in
    --seed) seed="${2:?--seed needs a value}"; shift 2 ;;
    --seconds) : "${2:?--seconds needs a value}"; shift 2 ;;
    --workload) workloads+=("${2:?--workload needs a value}"); shift 2 ;;
    --trace)
      if [ "${2:-}" = 0 ] || [ "${2:-}" = 1 ]; then
        trace="$2"; shift 2
      else
        trace=1; shift
      fi ;;
    -h|--help) usage; exit 0 ;;
    *) usage >&2; exit 2 ;;
  esac
done

jobs=$(nproc)
[ "$jobs" -gt 4 ] && jobs=4
cmake -S "$root/bench/e2e" -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target e2e_bench -j "$jobs" >&2
bench="$build/e2e_bench"
cd "$build"

if [ ${#workloads[@]} -eq 1 ]; then
  exec "$bench" --workload "${workloads[0]}" --seed "$seed" \
    --trace "${trace:-0}"
fi

[ ${#workloads[@]} -eq 0 ] &&
  workloads=(spmd-convergent paper-apps serve-waves fuzz-matrix)

# The host's speed drifts by up to 25% over minutes. Interleaving the
# passes spreads each workload's runs over the whole session, so one
# slow spell moves one pass of it, which the median drops.
out="$build/runs"
rm -rf "$out"
mkdir -p "$out"
status=0
for pass in 1 2 3; do
  for w in "${workloads[@]}"; do
    "$bench" --workload "$w" --seed "$seed" --trace 0 \
      > "$out/$w.0.$pass.txt" || status=1
  done
done
if [ "$trace" = 1 ]; then
  for w in "${workloads[@]}"; do
    "$bench" --workload "$w" --seed "$seed" --trace 1 \
      > "$out/$w.1.txt" || status=1
  done
fi

python3 - "$out" "$seed" "$root/BENCH_e2e.json" "${workloads[@]}" <<'EOF' || status=1
import json, pathlib, statistics, sys

out, seed, dest = pathlib.Path(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
results = {}
for path in sorted(out.glob("*.txt")):
    workload, mode = path.name.split(".")[:2]
    lines = path.read_text().splitlines()
    if not lines or not lines[-1].startswith("{"):
        continue
    result = json.loads(lines[-1])
    # Every printed "workload metric value unit" line, not just the
    # ones in the JSON result (span self times, fail_ratio, ...).
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == workload:
            result["metrics"][parts[1]] = {"value": float(parts[2]), "unit": parts[3]}
    key = "traced" if mode == "1" else "untraced"
    results.setdefault(workload, {}).setdefault(key, []).append(result)

runs = {}
for workload in sys.argv[4:]:
    for key, passes in results.get(workload, {}).items():
        metrics = {}
        for name, metric in passes[0]["metrics"].items():
            values = [p["metrics"][name]["value"] for p in passes
                      if name in p["metrics"]]
            metrics[name] = {"value": statistics.median(values), "unit": metric["unit"]}
            print(workload, name, repr(metrics[name]["value"]), metric["unit"])
        runs.setdefault(workload, {})[key] = {
            "correct": all(p["correct"] for p in passes),
            "attempted": sum(p["attempted"] for p in passes),
            "failed": sum(p["failed"] for p in passes),
            "passes": len(passes),
            "metrics": metrics,
        }
with open(dest, "w") as f:
    json.dump({"seed": seed, "runs": runs}, f, indent=1)
    f.write("\n")
EOF
echo "wrote BENCH_e2e.json" >&2
exit "$status"
