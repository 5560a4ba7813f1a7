#!/usr/bin/env python3
"""Run one benchmark workload and print its result as one JSON line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. The first run configures and builds
perfbench/kvbench (and the src/ layers it links) with CMake into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later runs
only re-check the build. Build output goes to stderr. The last stdout
line is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end metrics,
with --trace 1 its per_layer metrics. The result is checked against
BENCHMARK.json before it is printed; a malformed result exits 1 and
prints nothing on stdout.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configure (once) and build kvbench; return the binary's path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("run.py: src/ not found next to perfbench/; run from a "
                 "full checkout of the repository")
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not (out / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(out), "-j", jobs,
                  "--target", "kvbench"])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
        if done.returncode != 0:
            sys.exit(f"run.py: build step failed: {' '.join(step)}")
    return out / "kvbench"


def check_result(result, spec, trace):
    """List what makes @p result break the output contract."""
    problems = []
    if not isinstance(result, dict):
        return ["result is not a JSON object"]
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys are {sorted(result)}")
        return problems
    if not isinstance(result["correct"], bool):
        problems.append("correct is not a boolean")
    for key in ("attempted", "failed"):
        if not isinstance(result[key], int) or isinstance(result[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(result["attempted"], int) and result["attempted"] < 1:
        problems.append("attempted < 1")
    wanted = spec["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    if not isinstance(metrics, dict):
        return problems + ["metrics is not an object"]
    names = [m["name"] for m in wanted]
    if sorted(metrics) != sorted(names):
        missing = sorted(set(names) - set(metrics))
        extra = sorted(set(metrics) - set(names))
        problems.append(f"metric names differ: missing {missing}, "
                        f"extra {extra}")
    for m in wanted:
        got = metrics.get(m["name"])
        if not isinstance(got, dict) or set(got) != {"value", "unit"}:
            continue
        value = got["value"]
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            problems.append(f"{m['name']} is not a finite number")
        if got["unit"] != m["unit"]:
            problems.append(f"{m['name']} unit {got['unit']!r} != "
                            f"{m['unit']!r}")
    return problems


def unique_keys(pairs):
    """object_pairs_hook for json.loads that rejects repeated keys."""
    keys = [k for k, _ in pairs]
    if len(keys) != len(set(keys)):
        raise ValueError(f"repeated key in {keys}")
    return dict(pairs)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.exit(f"run.py: unknown workload {args.workload!r}")

    binary = build()
    out = build_dir()
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}"]
    if args.trace:
        cmd.append(f"--trace-out={args.workload}.trace.json")
    # kvbench writes its socket and trace into its working directory.
    done = subprocess.run(cmd, cwd=out, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        sys.exit(f"run.py: kvbench exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1], object_pairs_hook=unique_keys)
    except (IndexError, ValueError) as err:
        sys.exit(f"run.py: kvbench printed no well-formed result: {err}")
    problems = check_result(result, spec, args.trace)
    if problems:
        sys.exit("run.py: malformed result: " + "; ".join(problems))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
