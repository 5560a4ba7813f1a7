#!/usr/bin/env python3
"""The ycsb screen of scripts/bench_summary.py on synthetic CSVs.

A run is clean when its threads waited for a CPU no more than its
runnable threads outnumber the CPUs, plus a quarter of the CPUs it
uses. These cases pin that a host with fewer CPUs than threads still
measures (the bench's own surplus is not steal), that steal beyond the
surplus drops a round, and that too few clean rounds fail as NOT
MEASURED.

Usage: bench_summary_ycsb_test.py SCRIPTS_DIR
"""

import csv
import os
import subprocess
import sys
import tempfile
import unittest

SCRIPTS = sys.argv.pop(1) if len(sys.argv) > 1 else os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "..", "scripts")
sys.path.insert(0, SCRIPTS)

import bench_summary  # noqa: E402

ELAPSED_MS = 20.0
FIELDS = ["workload", "engine", "round", "run_queue_ns", "cpus", "zipf",
          "threads", "keys", "capacity", "ops", "elapsed_ms", "kops_s",
          "commits", "aborts", "retries", "abort_rate", "key_collisions"]
OPS = ["get", "put", "delete", "scan", "rmw"]


def row(engine, rnd, queued, cpus, kops_s, threads=4):
    """One ycsb_run CSV row whose threads kept `queued` of themselves
    waiting for a CPU on average over the run."""
    out = {
        "workload": "b", "engine": engine, "round": rnd,
        "run_queue_ns": int(queued * ELAPSED_MS * 1e6), "cpus": cpus,
        "zipf": 0.99, "threads": threads, "keys": 8192, "capacity": 16384,
        "ops": 40000, "elapsed_ms": ELAPSED_MS, "kops_s": kops_s,
        "commits": 40000, "aborts": 0, "retries": 0, "abort_rate": 0.0,
        "key_collisions": 0,
    }
    for op in OPS:
        for field in ("count", "mean_ns", "p50_ns", "p95_ns", "p99_ns"):
            out[f"{op}_{field}"] = 0
    return out


def write_csv(path, rows):
    with open(path, "w", newline="") as f:
        writer = csv.DictWriter(
            f, FIELDS + [f"{op}_{field}" for op in OPS
                         for field in ("count", "mean_ns", "p50_ns",
                                       "p95_ns", "p99_ns")])
        writer.writeheader()
        writer.writerows(rows)


def summarize(rows):
    """Exit code and printed verdict of bench_summary.py on `rows`."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ycsb.csv")
        write_csv(path, rows)
        done = subprocess.run(
            [sys.executable, os.path.join(SCRIPTS, "bench_summary.py"),
             "--ycsb-csv", path, "--workload", "b",
             "--min-occ-ratio", "0.25", "--max-abort-rate", "0.05",
             "--out", os.path.join(tmp, "out.json")],
            capture_output=True, text=True)
    return done.returncode, done.stdout


class YcsbScreen(unittest.TestCase):
    def test_oversubscribed_host_is_measured(self):
        # One CPU: 5 runnable OCC threads keep 4 queued, 2PL's 4 keep 3.
        rows = []
        for rnd in range(11):
            rows.append(row("occ", rnd, 4.0, cpus=1, kops_s=40.0))
            rows.append(row("2pl", rnd, 3.0, cpus=1, kops_s=100.0))
        code, out = summarize(rows)
        self.assertEqual(code, 0, out)
        self.assertIn("11/11 clean rounds", out)
        self.assertIn("ratio 0.40", out)

    def test_two_cpus(self):
        rows = []
        for rnd in range(11):
            rows.append(row("occ", rnd, 3.2, cpus=2, kops_s=40.0))
            rows.append(row("2pl", rnd, 2.4, cpus=2, kops_s=100.0))
        code, out = summarize(rows)
        self.assertEqual(code, 0, out)
        self.assertIn("11/11 clean rounds", out)

    def test_steal_beyond_the_surplus_drops_the_round(self):
        # Four CPUs: OCC may keep 2 queued, 2PL 1. Stolen rounds
        # read a ratio under the floor and must not count.
        rows = []
        for rnd in range(11):
            stolen = rnd % 2 == 1
            rows.append(row("occ", rnd, 2.5 if stolen else 1.2, cpus=4,
                            kops_s=5.0 if stolen else 40.0))
            rows.append(row("2pl", rnd, 0.2, cpus=4, kops_s=100.0))
        code, out = summarize(rows)
        self.assertEqual(code, 0, out)
        self.assertIn("6/11 clean rounds", out)
        self.assertIn("ratio 0.40", out)

    def test_too_few_clean_rounds_is_not_measured(self):
        rows = []
        for rnd in range(11):
            rows.append(row("occ", rnd, 1.2, cpus=4, kops_s=40.0))
            rows.append(row("2pl", rnd, 0.2 if rnd < 4 else 1.5, cpus=4,
                            kops_s=100.0))
        code, out = summarize(rows)
        self.assertEqual(code, 1, out)
        self.assertIn("4/11 clean rounds", out)
        self.assertIn("NOT MEASURED", out)

    def test_allowance_follows_threads_and_cpus(self):
        self.assertEqual(bench_summary.ycsb_max_queued(
            {"engine": "occ", "threads": 4, "cpus": 4}), 2.0)
        self.assertEqual(bench_summary.ycsb_max_queued(
            {"engine": "2pl", "threads": 4, "cpus": 8}), 1.0)
        self.assertEqual(bench_summary.ycsb_max_queued(
            {"engine": "2pl", "threads": 8, "cpus": 2}), 6.5)


if __name__ == "__main__":
    unittest.main()
