#!/usr/bin/env python3
"""Self-test of the benchmark's own machinery.

    python3 perfbench/selftest.py

Checks, in order:
  1. BENCHMARK.json keeps the limits of the benchmark contract.
  2. run.check_result rejects malformed results.
  3. kvbench --self-test: the correctness gate rejects a wrong expected
     sum.
  4. The stream digest printed by kvbench --dump-stream follows the
     seed: equal seeds give identical op streams, different seeds
     different ones.
  5. Output format: every workload at its smallest size (--seconds 1),
     untraced and traced, through run.py. Each printed result must be
     correct and match the contract and BENCHMARK.json.
Exits 1 if any check fails.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
import run  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
failures = []


def expect(ok, what):
    print(f"{'ok  ' if ok else 'FAIL'}: {what}")
    if not ok:
        failures.append(what)


def check_spec(spec):
    expect(set(spec) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}, "BENCHMARK.json keys")
    expect(1 <= len(spec["paths"]) <= 16, "1 to 16 paths")
    expect(isinstance(spec["run_seconds"], int)
           and 1 <= spec["run_seconds"] <= 60, "run_seconds in 1..60")
    expect(2 <= len(spec["workloads"]) <= 8, "2 to 8 workloads")
    expect(all(set(w) == {"name", "why"} and len(w["why"]) <= 200
               and "\n" not in w["why"] for w in spec["workloads"]),
           "each workload has a one-line why of <= 200 characters")
    expect(1 <= len(spec["end_to_end"]) <= 16, "1 to 16 end-to-end metrics")
    expect(all(set(m) == {"name", "unit", "better", "bound"}
               and 0 < m["bound"] <= 0.25 for m in spec["end_to_end"]),
           "end-to-end metrics have bounds in (0, 0.25]")
    expect(any(m["name"] == "setup_s" and m["unit"] == "s"
               and m["better"] == "lower" for m in spec["end_to_end"]),
           "setup_s is an end-to-end metric")
    expect(1 <= len(spec["per_layer"]) <= 128, "1 to 128 per-layer metrics")
    expect(all(set(m) == {"name", "unit", "better"}
               for m in spec["per_layer"]), "per-layer metric keys")
    names = [x["name"] for x in spec["workloads"] + spec["end_to_end"]
             + spec["per_layer"]]
    expect(all(NAME.match(n) for n in names), "names are well formed")
    expect(len(names) == len(set(names)), "names are used once")
    expect(all(UNIT.match(m["unit"])
               for m in spec["end_to_end"] + spec["per_layer"]),
           "units are well formed")


def check_checker(spec):
    good = {"correct": True, "attempted": 1, "failed": 0,
            "metrics": {m["name"]: {"value": 1.5, "unit": m["unit"]}
                        for m in spec["end_to_end"]}}
    expect(run.check_result(good, spec, 0) == [],
           "check_result accepts a well-formed result")
    missing = json.loads(json.dumps(good))
    missing["metrics"].popitem()
    expect(run.check_result(missing, spec, 0) != [],
           "check_result rejects a missing metric")
    bad_unit = json.loads(json.dumps(good))
    next(iter(bad_unit["metrics"].values()))["unit"] = "furlongs"
    expect(run.check_result(bad_unit, spec, 0) != [],
           "check_result rejects a wrong unit")
    not_finite = json.loads(json.dumps(good))
    next(iter(not_finite["metrics"].values()))["value"] = float("nan")
    expect(run.check_result(not_finite, spec, 0) != [],
           "check_result rejects a non-finite value")
    try:
        json.loads('{"a": 1, "a": 2}', object_pairs_hook=run.unique_keys)
        repeated = False
    except ValueError:
        repeated = True
    expect(repeated, "result parsing rejects a repeated key")
    extra_key = dict(good, note="x")
    expect(run.check_result(extra_key, spec, 0) != [],
           "check_result rejects an extra top-level key")


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    check_spec(spec)
    check_checker(spec)

    binary = run.build()
    done = subprocess.run([str(binary), "--self-test"], cwd=run.build_dir(),
                          stdout=subprocess.PIPE, text=True)
    print(done.stdout, end="")
    expect(done.returncode == 0, "kvbench --self-test")

    for workload in (w["name"] for w in spec["workloads"]):
        digest = {}
        for seed in (1, 1, 2):
            out = subprocess.run(
                [str(binary), f"--workload={workload}", f"--seed={seed}",
                 "--dump-stream=10000"],
                stdout=subprocess.PIPE, text=True, check=True).stdout
            digest.setdefault(seed, set()).add(out.strip())
        expect(len(digest[1]) == 1 and digest[1] != digest[2],
               f"{workload}: stream digest follows the seed")

        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, str(BENCH_DIR / "run.py"),
                 "--workload", workload, "--seed", "1", "--seconds", "1",
                 "--trace", str(trace)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
            lines = done.stdout.strip().splitlines()
            result = (json.loads(lines[-1], object_pairs_hook=run.unique_keys)
                      if lines else None)
            ok = (done.returncode == 0 and result is not None
                  and run.check_result(result, spec, trace) == []
                  and result["correct"] and result["failed"] == 0)
            expect(ok, f"{workload} --trace {trace}: well-formed, correct "
                       "result with every metric once")

    print(f"{len(failures)} failure(s)")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
