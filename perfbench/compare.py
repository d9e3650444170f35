#!/usr/bin/env python3
"""Compare two sets of perfbench results metric by metric.

    python3 perfbench/compare.py <parent-results-dir> <change-results-dir>

Each directory holds the result files run.py writes (perfbench/out/*-trace0.json).
For every workload and end-to-end metric it prints both medians and calls the
change a regression when its median is worse than the parent's by more than the
metric's bound in BENCHMARK.json. When the two sets were measured on machines
whose stamps differ (CPU count or model, kernel, compiler), no verdict is given:
the rows are flagged as not comparable instead.
"""

import json
import statistics
import sys
from pathlib import Path

# Stamp fields that must match for two results to be compared.
MACHINE = ("nproc", "cpu", "kernel", "rustc")


def load(directory):
    runs = {}
    for path in sorted(Path(directory).glob("*-trace0.json")):
        result = json.loads(path.read_text())
        runs.setdefault(result["stamp"]["workload"], []).append(result)
    return runs


def machines(results):
    return {tuple(r["stamp"].get(k, "") for k in MACHINE) for r in results}


def main():
    if len(sys.argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    parent, change = load(sys.argv[1]), load(sys.argv[2])
    regressions = 0
    for workload in sorted(set(parent) & set(change)):
        stamps = machines(parent[workload]) | machines(change[workload])
        comparable = len(stamps) == 1
        if not comparable:
            print(f"{workload}: NOT COMPARABLE, stamps differ: {sorted(stamps)}")
        for metric in spec["end_to_end"]:
            name, bound, lower = metric["name"], metric["bound"], metric["better"] == "lower"
            a = statistics.median(r["result"]["metrics"][name]["value"] for r in parent[workload])
            b = statistics.median(r["result"]["metrics"][name]["value"] for r in change[workload])
            worse = (b - a) / a if lower else (a - b) / a
            verdict = "not comparable" if not comparable else ("REGRESSION" if worse > bound else "ok")
            regressions += verdict == "REGRESSION"
            print(f"{workload:20s} {name:16s} {a:14.6g} -> {b:14.6g} {metric['unit']:5s} {worse:+7.1%} (bound {bound:.0%}) {verdict}")
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
