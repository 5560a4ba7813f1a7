#!/usr/bin/env python3
"""Run the benchmark untraced over seeds and workloads into a JSONL file.

    python3 perfbench/sweep.py --out runs.jsonl [--workloads a,b]
                               [--seeds 1-10] [--seconds 10]

Each line is {"workload", "seed", "result"} with run.py's result
object, or "error" in place of "result" when a run failed.
Seeds are the outer loop, so slow drift of the host touches every
workload alike. Feed two such files to spread.py.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def main():
    spec = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args()

    with open(args.out, "a") as out:
        for seed in parse_seeds(args.seeds):
            for workload in args.workloads.split(","):
                cmd = [sys.executable, str(BENCH_DIR / "run.py"),
                       "--workload", workload, "--seed", str(seed),
                       "--seconds", str(args.seconds), "--trace", "0"]
                done = subprocess.run(cmd, stdout=subprocess.PIPE,
                                      stderr=subprocess.PIPE, text=True)
                record = {"workload": workload, "seed": seed}
                lines = done.stdout.strip().splitlines()
                if done.returncode == 0 and lines:
                    record["result"] = json.loads(lines[-1])
                else:
                    record["error"] = done.stderr.strip().splitlines()[-1:]
                out.write(json.dumps(record) + "\n")
                out.flush()
                print(f"{workload} seed={seed}: "
                      f"{'ok' if 'result' in record else record['error']}",
                      file=sys.stderr)


if __name__ == "__main__":
    main()
