#!/usr/bin/env python3
"""Steadiness report over one or two sets of runs made by sweep.py.

    python3 perfbench/spread.py A.jsonl [B.jsonl]

For every workload x end-to-end metric of BENCHMARK.json it prints each
set's median and quartiles (statistics.quantiles, n=4), the spread
(q3 - q1) / median, and the metric's bound. Flags:

  FAIL  a set's spread exceeds the bound, or B's median differs from
        A's by more than the bound, in either direction: two sets of the
        same code must agree;
  warn  a set's spread exceeds half the bound: not steady enough to
        resolve a change of the bound's size.

Exits 1 on any FAIL, or on a run that failed or reported correct=false.
"""

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())


def load(path):
    """{workload: {metric: [values]}} of the runs in @p path."""
    runs, bad = {}, 0
    for line in Path(path).read_text().splitlines():
        record = json.loads(line)
        result = record.get("result")
        if result is None or not result["correct"] or result["failed"]:
            bad += 1
            continue
        per_metric = runs.setdefault(record["workload"], {})
        for name, metric in result["metrics"].items():
            per_metric.setdefault(name, []).append(metric["value"])
    return runs, bad


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    if len(sys.argv) not in (2, 3):
        sys.exit(__doc__)
    sets = [load(path) for path in sys.argv[1:]]
    failed = sum(bad for _, bad in sets)
    if failed:
        print(f"FAIL: {failed} run(s) failed or were incorrect")
    header = f"{'workload':<14} {'metric':<13} {'bound':>5}"
    for i in range(len(sets)):
        header += f" | set{i + 1}: {'n':>2} {'median':>11} {'q1':>11} " \
                  f"{'q3':>11} {'spread':>6}"
    print(header + " | flags")
    for workload in (w["name"] for w in SPEC["workloads"]):
        for metric in SPEC["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            row = f"{workload:<14} {name:<13} {bound:>5.2f}"
            flags, medians = [], []
            for i, (runs, _) in enumerate(sets):
                values = runs.get(workload, {}).get(name, [])
                if len(values) < 2:
                    row += f" | set{i + 1}: {len(values):>2} {'-':>11} " \
                           f"{'-':>11} {'-':>11} {'-':>6}"
                    flags.append(f"FAIL set{i + 1} has too few runs")
                    continue
                median, q1, q3, spread = summary(values)
                medians.append(median)
                row += f" | set{i + 1}: {len(values):>2} {median:>11.5g} " \
                       f"{q1:>11.5g} {q3:>11.5g} {spread:>6.3f}"
                if spread > bound:
                    flags.append(f"FAIL set{i + 1} spread > bound")
                elif spread > bound / 2:
                    flags.append(f"warn set{i + 1} spread > bound/2")
            if len(medians) == 2 and medians[0]:
                change = (medians[1] - medians[0]) / medians[0]
                if abs(change) > bound:
                    flags.append(f"FAIL set2 median moved by {change:+.3f}")
            failed += sum(flag.startswith("FAIL") for flag in flags)
            print(row + " | " + ("; ".join(flags) or "ok"))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
