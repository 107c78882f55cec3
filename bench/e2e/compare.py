#!/usr/bin/env python3
"""Compare BENCH_e2e.json files from bench/e2e/run.sh.

    compare.py A.json B.json
    compare.py A1.json A2.json ... -- B1.json B2.json ...

A is the base side, B the change. For every workload x metric present
on both sides it prints both values, the delta, the bound and a
verdict:

  within          B is no worse than A by more than the bound
  worse           B is worse than A by more than the bound
  better          B is better than A by more than the bound
  unresolved      A's own spread (quartile distance / median) exceeds
                  the bound and B does not beat every A run
  exact           an exact metric, identical within every pair
  exact-mismatch  an exact metric that differs within some pair
  info            a per-layer metric without a bound

End-to-end bounds come from BENCHMARK.json, the list of exact metrics
from catalog.json. With repeated files per side it reports each side's
median and quartiles and the pair win rate: runs are paired in the
order given and each pair should share a seed; B wins a pair when it
reads better, ties count for neither. Exits 1 if any metric is worse or
an exact metric mismatches.
"""
import json
import pathlib
import statistics
import sys

HERE = pathlib.Path(__file__).resolve().parent


def load_runs(path):
    """{(workload, metric): value} over the untraced and traced runs."""
    data = json.loads(pathlib.Path(path).read_text())
    values = {}
    for workload, modes in data["runs"].items():
        for result in modes.values():
            for name, metric in result["metrics"].items():
                values[(workload, name)] = metric["value"]
    return values


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv):
    if "--" in argv:
        split = argv.index("--")
        base_files, change_files = argv[:split], argv[split + 1:]
    elif len(argv) == 2:
        base_files, change_files = argv[:1], argv[1:]
    else:
        print(__doc__, file=sys.stderr)
        return 2
    if not base_files or not change_files:
        print(__doc__, file=sys.stderr)
        return 2

    bench = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    catalog = json.loads((HERE / "catalog.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    better = {m["name"]: m["better"] for m in bench["end_to_end"] + bench["per_layer"]}
    exact = {m["name"] for m in catalog["per_layer"] if m.get("exact")}
    exact.add("fail_ratio")

    base = [load_runs(p) for p in base_files]
    change = [load_runs(p) for p in change_files]
    keys = sorted(set.intersection(*(set(r) for r in base + change)))
    repeated = len(base) > 1 or len(change) > 1

    header = ("workload", "metric", "A", "B", "delta", "bound", "verdict")
    if repeated:
        header = ("workload", "metric", "A median [q1,q3]",
                  "B median [q1,q3]", "delta", "bound", "wins", "verdict")
    print("  ".join(header))
    failed = False
    for key in keys:
        workload, name = key
        a = [r[key] for r in base]
        b = [r[key] for r in change]
        a_med, b_med = statistics.median(a), statistics.median(b)
        delta = (b_med - a_med) / a_med if a_med else 0.0
        lower = better.get(name, "lower") == "lower"
        bound = bounds[name]["bound"] if name in bounds else None
        pairs = list(zip(a, b))
        wins = sum(1 for x, y in pairs if (y < x if lower else y > x))

        if name in exact:
            # Pairs share a seed; exact metrics may differ across seeds.
            same = (all(x == y for x, y in pairs) if len(a) == len(b)
                    else set(a) == set(b))
            verdict = "exact" if same else "exact-mismatch"
        elif bound is None:
            verdict = "info"
        else:
            worse_by = delta if lower else -delta
            a_q1, a_q3 = quartiles(a)
            spread = (a_q3 - a_q1) / a_med if a_med else 0.0
            all_better = all((y < x if lower else y > x) for x in a for y in b)
            if worse_by > bound:
                verdict = "worse"
            elif spread > bound and not all_better:
                verdict = "unresolved"
            elif -worse_by > bound:
                verdict = "better"
            else:
                verdict = "within"
        failed |= verdict in ("worse", "exact-mismatch")

        bound_text = "-" if bound is None else "%.0f%%" % (bound * 100)
        if repeated:
            aq, bq = quartiles(a), quartiles(b)
            row = (workload, name,
                   "%.6g [%.6g,%.6g]" % (a_med, *aq),
                   "%.6g [%.6g,%.6g]" % (b_med, *bq),
                   "%+.2f%%" % (delta * 100), bound_text,
                   "%d/%d" % (wins, len(pairs)), verdict)
        else:
            row = (workload, name, "%.6g" % a_med, "%.6g" % b_med,
                   "%+.2f%%" % (delta * 100), bound_text, verdict)
        print("  ".join(row))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
