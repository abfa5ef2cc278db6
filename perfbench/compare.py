#!/usr/bin/env python3
"""Spread and regression checks over saved perfbench runs.

Each input file holds the stdout of one `perfbench/run.py` run (the
"# {details}" line names the workload; the last line is the result).

    python3 perfbench/compare.py RUN...                 spread per workload/metric
    python3 perfbench/compare.py RUN... --against RUN...  regression check

Spread is the distance between the first and third quartile of a metric's
values (statistics.quantiles, n=4) as a share of their median; a benchmark is
steady when every spread stays below a third of the metric's bound. The
regression check compares the median of the first set (the parent) with the
median of the second (the child) and flags a metric that got worse by more
than its bound, in the metric's own direction.
"""

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def spread(values):
    """Interquartile range as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def worsening(parent_median, child_median, better):
    """How much worse the child is, as a share of the parent (<= 0: no worse)."""
    if parent_median == 0:
        return 0.0 if child_median == 0 else float("inf")
    change = (child_median - parent_median) / abs(parent_median)
    return change if better == "lower" else -change


def regressed(parent_values, child_values, better, bound):
    """True when the child's median is worse than the parent's by more than bound."""
    return worsening(statistics.median(parent_values),
                     statistics.median(child_values), better) > bound


def load_runs(paths):
    """{workload: {metric: [values...]}} from saved run outputs."""
    runs = {}
    for path in paths:
        with open(path) as handle:
            lines = [line for line in handle.read().splitlines() if line.strip()]
        details = next(json.loads(line[2:]) for line in lines if line.startswith("# "))
        result = json.loads(lines[-1])
        bucket = runs.setdefault(details["workload"], {})
        for name, metric in result["metrics"].items():
            bucket.setdefault(name, []).append(metric["value"])
    return runs


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("runs", nargs="+")
    parser.add_argument("--against", nargs="+", default=None)
    parser.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE),
                                                            "BENCHMARK.json"))
    args = parser.parse_args()
    with open(args.benchmark) as handle:
        spec = json.load(handle)
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    parent = load_runs(args.runs)
    child = load_runs(args.against) if args.against else None

    bad = 0
    for workload, values in sorted(parent.items()):
        for name, series in sorted(values.items()):
            meta = metrics.get(name, {})
            bound = meta.get("bound")
            s = spread(series)
            flag = ""
            if bound is not None and name != "setup_s" and s >= bound:
                flag, bad = "  SPREAD>BOUND", bad + 1
            elif bound is not None and s >= bound / 3:
                flag = "  spread>bound/3"
            line = (f"{workload:13s} {name:40s} n={len(series):2d} "
                    f"median={statistics.median(series):14.6g} spread={s:7.4f}")
            if bound is not None:
                line += f" bound={bound}"
            if child is not None and bound is not None:
                other = child.get(workload, {}).get(name)
                if other:
                    w = worsening(statistics.median(series), statistics.median(other),
                                  meta["better"])
                    line += f" worse_by={w:+.4f}"
                    if w > bound:
                        flag, bad = flag + "  REGRESSED", bad + 1
            print(line + flag)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
