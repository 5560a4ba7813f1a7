#!/usr/bin/env python3
"""Distill bench outputs into one committed JSON summary.

Three modes, selected by which input CSV is given (exactly one):

  * --shards-csv: the CSV written by `bench/ablation_shards --csv=...`
    — one row per (shards, cross_fraction) sweep cell with modelled
    throughput and speedup. Optionally --loadgen-json adds a
    server-side telemetry file written by `bench/svc_loadgen
    --shards=N --telemetry-server=...`, from which the service-level
    shard counters and stage histograms are lifted. Output:
    BENCH_shard.json. Exits nonzero if S=4 stops beating S=1 at <= 1%
    cross-shard traffic (the scaling canary).

  * --hotpath-csv: the CSV written by `bench/micro_validate --csv=...`
    — one row per signature/window geometry with the bit-sliced vs
    row-major classify latency (each the median of the rounds in which
    the bench did not wait for a CPU), the steady-state pipeline
    round trip (one caller: the median of the rounds in which no thread
    waited for a CPU; and per call with two callers back to back,
    reported but not gated), the bare engine's process() cost (reported,
    not gated) and allocations/validation. Output:
    BENCH_hotpath.json. Exits nonzero
    if, on the paper geometry (W=64, 512-bit), the bit-sliced classify's
    speedup over the row-major walk falls below --min-speedup (default
    2.0) or allocations/validation exceed --max-allocs (default 0.0).
    --max-pipeline-ns caps
    the paper geometry's synchronous pipeline round trip (default 0:
    not gated); the cap skips rather than fails when this process may
    run on one CPU only, where the spin-then-park wait never spins, and
    fails with its own message when fewer than MIN_CLEAN_ROUNDS rounds
    were clean.

  * --ycsb-csv: the CSV written by `bench/ycsb_run --csv=...` — one
    row per (workload, zipf, engine, round) with throughput, transaction
    outcomes, per-op latency quantiles and the run-queue delay the
    run's threads gained, for the OCC store and the 2PL baseline under
    identical traffic. Output: BENCH_ycsb.json. The canary checks the
    read-heavy workload (--workload, default b) at its most skewed zipf
    cell: the OCC/2PL throughput ratio must stay >= --min-occ-ratio and
    the OCC abort rate <= --max-abort-rate (the "low contention"
    premise, asserted rather than assumed). The ratio is the median of
    the per-round ratios over the clean rounds, those in which neither
    engine's run kept more of its threads waiting for a CPU on average
    (run-queue delay over run time) than its runnable threads outnumber
    the CPUs, plus HOST_CPU_SHARE of the CPUs it uses; fewer than
    MIN_CLEAN_ROUNDS such rounds fail as NOT MEASURED. The abort rate
    is the median over all rounds.
    --min-occ-ratio defaults to 1.0 — OCC beats 2PL, the multicore
    expectation (invisible readers vs. hot stripe mutexes); single-core
    CI boxes cannot express reader parallelism, so the ctest wiring
    pins the measured hot-path cost ratio with a documented floor
    instead (tests/CMakeLists.txt).

Usage:
  bench_summary.py --shards-csv CSV [--loadgen-json FILE] --out FILE
  bench_summary.py --hotpath-csv CSV [--min-speedup X] [--max-allocs N]
                   [--max-pipeline-ns N] --out FILE
  bench_summary.py --ycsb-csv CSV [--workload W] [--min-occ-ratio X]
                   [--max-abort-rate X] --out FILE
"""

import argparse
import csv
import json
import os
import statistics
import sys


def load_sweep(path):
    cells = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            cells.append(
                {
                    "shards": int(row["shards"]),
                    "cross_fraction": float(row["cross_fraction"]),
                    "requests": int(row["requests"]),
                    "modeled_throughput_per_s": float(
                        row["modeled_throughput_per_s"]
                    ),
                    "speedup_vs_1": float(row["speedup_vs_1"]),
                    "commit_fraction": float(row["commit_fraction"]),
                    "cross_observed": float(row["cross_observed"]),
                    "imbalance": float(row["imbalance"]),
                }
            )
    if not cells:
        raise SystemExit(f"{path}: no sweep rows")
    return cells


def headline(cells):
    """The acceptance numbers: S=4 vs S=1 at <= 1% cross traffic."""

    def cell(shards, max_cross):
        best = None
        for c in cells:
            if c["shards"] == shards and c["cross_fraction"] <= max_cross:
                if best is None or c["cross_fraction"] > best["cross_fraction"]:
                    best = c
        return best

    s1 = cell(1, 0.01)
    s4 = cell(4, 0.01)
    if s1 is None or s4 is None:
        raise SystemExit("sweep lacks S=1 / S=4 cells at <= 1% cross")
    return {
        "cross_fraction": s4["cross_fraction"],
        "s1_throughput_per_s": s1["modeled_throughput_per_s"],
        "s4_throughput_per_s": s4["modeled_throughput_per_s"],
        "s4_speedup": s4["speedup_vs_1"],
        "s4_beats_s1": s4["modeled_throughput_per_s"]
        > s1["modeled_throughput_per_s"],
    }


def find_section(doc, key):
    """Depth-first search for the first dict holding `key` (the
    telemetry envelope nests the registry export)."""
    if isinstance(doc, dict):
        if key in doc and isinstance(doc[key], dict):
            return doc[key]
        for value in doc.values():
            found = find_section(value, key)
            if found is not None:
                return found
    elif isinstance(doc, list):
        for value in doc:
            found = find_section(value, key)
            if found is not None:
                return found
    return None


def load_service(path):
    with open(path) as f:
        doc = json.load(f)
    counters = find_section(doc, "counters") or {}
    histograms = find_section(doc, "histograms") or {}
    picked = {
        name: int(value)
        for name, value in sorted(counters.items())
        if name.startswith(("svc.", "shard."))
    }
    stages = {
        name: histograms[name]
        for name in ("svc.stage.shard_route", "svc.stage.shard_coord")
        if name in histograms
    }
    answered = (
        sum(v for k, v in picked.items() if k.startswith("svc.verdict."))
        + picked.get("svc.timeout", 0)
        + picked.get("svc.rejected", 0)
    )
    return {
        "counters": picked,
        "stage_histograms": stages,
        "accounting_balanced": picked.get("svc.requests", -1) == answered,
    }


def load_hotpath(path):
    rows = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            rows.append(
                {
                    "window": int(row["window"]),
                    "sig_bits": int(row["sig_bits"]),
                    "hashes": int(row["hashes"]),
                    "reads": int(row["reads"]),
                    "writes": int(row["writes"]),
                    "iters": int(row["iters"]),
                    "sliced_ns": float(row["sliced_ns"]),
                    "scalar_ns": float(row["scalar_ns"]),
                    "speedup": float(row["speedup"]),
                    "pipeline_validate_ns": float(
                        row["pipeline_validate_ns"]
                    ),
                    "allocs_per_validation": float(
                        row["allocs_per_validation"]
                    ),
                    "pipeline2_validate_ns": float(
                        row["pipeline2_validate_ns"]
                    ),
                    "engine_ns": float(row["engine_ns"]),
                    "pipeline_rounds": int(row["pipeline_rounds"]),
                    "pipeline_clean_rounds": int(
                        row["pipeline_clean_rounds"]
                    ),
                    "classify_clean_rounds": int(
                        row["classify_clean_rounds"]
                    ),
                }
            )
    if not rows:
        raise SystemExit(f"{path}: no hot-path rows")
    return rows


# The round-trip ceiling and the OCC/2PL floor each need at least this
# many rounds in which no thread of the bench waited for a CPU; fewer
# fail on their own.
MIN_CLEAN_ROUNDS = 5


def single_cpu():
    """True when this process may run on one CPU only."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) < 2
    return (os.cpu_count() or 1) < 2


def hotpath_headline(rows, min_speedup, max_allocs, max_pipeline_ns):
    """The acceptance numbers: the paper geometry W=64 / 512-bit.

    One gated ratio on that geometry: the bit-sliced classify against
    the row-major walk (the layout win, --min-speedup).

    One gated latency, --max-pipeline-ns: the synchronous pipeline
    round trip on the same geometry. Both of its waits spin before they
    park, so it stays near the engine's cost unless a wait outlasts the
    spin budget and pays a futex wake-up. micro_validate measures it in
    rounds, drops each round in which one of its threads waited for a
    CPU, and reports the median of the clean rounds; the cap needs
    MIN_CLEAN_ROUNDS of them and fails on its own if there are fewer. A
    single-CPU host never spins, so there the cap is reported but
    skipped. The engine's own cost (engine_ns) is reported, not gated.
    """
    canary = None
    for row in rows:
        if row["window"] == 64 and row["sig_bits"] == 512:
            canary = row
    if canary is None:
        raise SystemExit("hot-path sweep lacks the W=64 / 512-bit row")
    worst_allocs = max(r["allocs_per_validation"] for r in rows)
    armed = max_pipeline_ns > 0 and not single_cpu()
    clean_ok = canary["pipeline_clean_rounds"] >= MIN_CLEAN_ROUNDS
    headline = {
        "window": canary["window"],
        "sig_bits": canary["sig_bits"],
        "sliced_ns": canary["sliced_ns"],
        "scalar_ns": canary["scalar_ns"],
        "speedup": canary["speedup"],
        "pipeline_validate_ns": canary["pipeline_validate_ns"],
        "pipeline2_validate_ns": canary["pipeline2_validate_ns"],
        "pipeline_rounds": canary["pipeline_rounds"],
        "pipeline_clean_rounds": canary["pipeline_clean_rounds"],
        "engine_ns": canary["engine_ns"],
        "allocs_per_validation": worst_allocs,
        "speedup_ok": canary["speedup"] >= min_speedup,
        "allocs_ok": worst_allocs <= max_allocs,
        "pipeline_ceiling_ns": max_pipeline_ns,
        "pipeline_clean_ok": not armed or clean_ok,
        "pipeline_ok": (not armed or not clean_ok
                        or canary["pipeline_validate_ns"] <= max_pipeline_ns),
    }
    return headline


def run_hotpath(args):
    rows = load_hotpath(args.hotpath_csv)
    summary = {
        "bench": "validation-hot-path",
        "tool": "scripts/bench_summary.py",
        "sweep": rows,
        "headline": hotpath_headline(rows, args.min_speedup,
                                     args.max_allocs,
                                     args.max_pipeline_ns),
    }
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=False)
        f.write("\n")

    h = summary["headline"]
    print(
        f"W={h['window']} m={h['sig_bits']}: bit-sliced "
        f"{h['sliced_ns']:.1f} ns vs scalar {h['scalar_ns']:.1f} ns "
        f"({h['speedup']:.2f}x, floor {args.min_speedup:.2f}x) "
        f"{'OK' if h['speedup_ok'] else 'REGRESSION'}; "
        f"allocs/validation {h['allocs_per_validation']:.3f} "
        f"{'OK' if h['allocs_ok'] else 'REGRESSION'}"
    )
    ceiling = h["pipeline_ceiling_ns"]
    rounds = (f"{h['pipeline_clean_rounds']}/{h['pipeline_rounds']} "
              f"clean rounds")
    if ceiling <= 0:
        status = "(not gated)"
    elif single_cpu():
        status = f"(ceiling {ceiling:.0f} ns) skipped: single CPU"
    elif not h["pipeline_clean_ok"]:
        status = (f"(ceiling {ceiling:.0f} ns) NOT MEASURED: fewer than "
                  f"{MIN_CLEAN_ROUNDS} rounds ran without waiting for a "
                  f"CPU; the host is stolen from")
    else:
        status = (f"(ceiling {ceiling:.0f} ns) "
                  f"{'OK' if h['pipeline_ok'] else 'REGRESSION'}")
    print(f"pipeline round trip {h['pipeline_validate_ns']:.0f} ns, median of "
          f"{rounds} {status}; two callers "
          f"{h['pipeline2_validate_ns']:.0f} ns per call; engine "
          f"{h['engine_ns']:.0f} ns per request (not gated)")
    ok = (h["speedup_ok"] and h["allocs_ok"] and h["pipeline_clean_ok"]
          and h["pipeline_ok"])
    return 0 if ok else 1


OPS = ("get", "put", "delete", "scan", "rmw")


def load_ycsb(path):
    rows = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            parsed = {
                "workload": row["workload"],
                "engine": row["engine"],
                "round": int(row["round"]),
                "run_queue_ns": int(row["run_queue_ns"]),
                "cpus": int(row["cpus"]),
                "zipf": float(row["zipf"]),
                "threads": int(row["threads"]),
                "keys": int(row["keys"]),
                "capacity": int(row["capacity"]),
                "ops": int(row["ops"]),
                "elapsed_ms": float(row["elapsed_ms"]),
                "kops_s": float(row["kops_s"]),
                "commits": int(row["commits"]),
                "aborts": int(row["aborts"]),
                "retries": int(row["retries"]),
                "abort_rate": float(row["abort_rate"]),
                "key_collisions": int(row["key_collisions"]),
            }
            for op in OPS:
                if int(row[f"{op}_count"]) == 0:
                    continue
                parsed[op] = {
                    field: int(row[f"{op}_{field}"])
                    for field in ("count", "mean_ns", "p50_ns",
                                  "p95_ns", "p99_ns")
                }
            rows.append(parsed)
    if not rows:
        raise SystemExit(f"{path}: no ycsb rows")
    return rows


def median(values):
    """Median of `values` (0.0 when empty)."""
    values = list(values)
    return statistics.median(values) if values else 0.0


# Threads each store runs beside ycsb_run's workers: the OCC store's
# validation worker spins while it waits for work; the 2PL store has
# none.
STORE_THREADS = {"occ": 1, "2pl": 0}

# Share of the CPUs a run uses that the host may take from it in a
# clean run. A run loses about this share of its throughput, so at a
# quarter a measured OCC/2PL ratio of 0.4 stays above the 0.25 floor
# even when only the OCC run was stolen from.
HOST_CPU_SHARE = 0.25


def ycsb_max_queued(row):
    """Mean number of threads the run may keep waiting for a CPU and
    still be clean. More runnable threads than CPUs keep the surplus
    queued without the host taking any (4 workers and OCC's validation
    worker keep one queued on four CPUs, four on one CPU); on top of
    that the host may take HOST_CPU_SHARE of the CPUs the run uses."""
    runnable = row["threads"] + STORE_THREADS.get(row["engine"], 0)
    surplus = max(0, runnable - row["cpus"])
    return surplus + HOST_CPU_SHARE * min(runnable, row["cpus"])


def ycsb_run_clean(row):
    """True when the run's threads waited for a CPU no more on average
    (run-queue delay over run time) than ycsb_max_queued allows."""
    queued = row["run_queue_ns"] / (row["elapsed_ms"] * 1e6)
    return queued <= ycsb_max_queued(row)


def ycsb_comparison(rows):
    """OCC vs 2PL per (workload, zipf) cell, over the rounds in which
    both engines ran; a round is clean when both runs are."""
    cells = {}
    for row in rows:
        cells.setdefault((row["workload"], row["zipf"]), {}).setdefault(
            row["round"], {}
        )[row["engine"]] = row
    comparison = []
    for (workload, zipf), rounds in sorted(cells.items()):
        pairs = [(r["occ"], r["2pl"]) for _, r in sorted(rounds.items())
                 if "occ" in r and "2pl" in r]
        if not pairs:
            continue
        clean = [(occ, pl) for occ, pl in pairs
                 if ycsb_run_clean(occ) and ycsb_run_clean(pl)]
        comparison.append(
            {
                "workload": workload,
                "zipf": zipf,
                "rounds": len(pairs),
                "clean_rounds": len(clean),
                "occ_kops_s": median(occ["kops_s"] for occ, _ in clean),
                "2pl_kops_s": median(pl["kops_s"] for _, pl in clean),
                "occ_over_2pl": median(
                    occ["kops_s"] / pl["kops_s"] if pl["kops_s"] > 0
                    else 0.0
                    for occ, pl in clean
                ),
                "occ_abort_rate": median(
                    occ["abort_rate"] for occ, _ in pairs
                ),
                "occ_retries": median(occ["retries"] for occ, _ in pairs),
            }
        )
    return comparison


def ycsb_headline(comparison, workload, min_ratio, max_abort_rate):
    """The canary cell: the required workload at its most skewed zipf."""
    candidates = [c for c in comparison if c["workload"] == workload]
    if not candidates:
        raise SystemExit(
            f"ycsb sweep lacks an occ+2pl cell for workload {workload!r}"
        )
    cell = max(candidates, key=lambda c: c["zipf"])
    clean_ok = (min_ratio <= 0
                or cell["clean_rounds"] >= MIN_CLEAN_ROUNDS)
    return {
        "workload": cell["workload"],
        "zipf": cell["zipf"],
        "rounds": cell["rounds"],
        "clean_rounds": cell["clean_rounds"],
        "occ_kops_s": cell["occ_kops_s"],
        "2pl_kops_s": cell["2pl_kops_s"],
        "occ_over_2pl": cell["occ_over_2pl"],
        "occ_abort_rate": cell["occ_abort_rate"],
        "occ_beats_2pl": cell["occ_over_2pl"] > 1.0,
        "ratio_floor": min_ratio,
        "clean_ok": clean_ok,
        "ratio_ok": not clean_ok or cell["occ_over_2pl"] >= min_ratio,
        "low_contention_ok": cell["occ_abort_rate"] <= max_abort_rate,
    }


def run_ycsb(args):
    rows = load_ycsb(args.ycsb_csv)
    comparison = ycsb_comparison(rows)
    summary = {
        "bench": "ycsb-kv",
        "tool": "scripts/bench_summary.py",
        "rows": rows,
        "comparison": comparison,
        "headline": ycsb_headline(
            comparison, args.workload, args.min_occ_ratio,
            args.max_abort_rate
        ),
    }
    with open(args.out, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=False)
        f.write("\n")

    h = summary["headline"]
    if not h["clean_ok"]:
        verdict = (f"NOT MEASURED: fewer than {MIN_CLEAN_ROUNDS} rounds "
                   f"ran without the host taking a CPU from them; the "
                   f"host is stolen from")
    else:
        verdict = "OK" if h["ratio_ok"] else "REGRESSION"
    print(
        f"YCSB-{h['workload'].upper()} zipf={h['zipf']:.2f}: "
        f"occ {h['occ_kops_s']:.0f} kops/s vs 2pl "
        f"{h['2pl_kops_s']:.0f} kops/s "
        f"(ratio {h['occ_over_2pl']:.2f}, median of "
        f"{h['clean_rounds']}/{h['rounds']} clean rounds, floor "
        f"{h['ratio_floor']:.2f}) {verdict}; "
        f"occ abort rate {h['occ_abort_rate']:.4f} "
        f"{'OK' if h['low_contention_ok'] else 'CONTENDED'}"
    )
    ok = h["clean_ok"] and h["ratio_ok"] and h["low_contention_ok"]
    return 0 if ok else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards-csv")
    parser.add_argument("--hotpath-csv")
    parser.add_argument("--ycsb-csv")
    parser.add_argument("--loadgen-json")
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--max-allocs", type=float, default=0.0)
    parser.add_argument("--max-pipeline-ns", type=float, default=0.0)
    parser.add_argument("--workload", default="b")
    parser.add_argument("--min-occ-ratio", type=float, default=1.0)
    parser.add_argument("--max-abort-rate", type=float, default=0.05)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    given = [
        name
        for name, value in (
            ("--shards-csv", args.shards_csv),
            ("--hotpath-csv", args.hotpath_csv),
            ("--ycsb-csv", args.ycsb_csv),
        )
        if value
    ]
    if len(given) != 1:
        parser.error(
            "give exactly one of --shards-csv / --hotpath-csv / --ycsb-csv"
        )
    if args.hotpath_csv:
        return run_hotpath(args)
    if args.ycsb_csv:
        return run_ycsb(args)

    cells = load_sweep(args.shards_csv)
    summary = {
        "bench": "sharded-validation-tier",
        "tool": "scripts/bench_summary.py",
        "sweep": cells,
        "headline": headline(cells),
    }
    if args.loadgen_json:
        summary["service"] = load_service(args.loadgen_json)

    with open(args.out, "w") as f:
        json.dump(summary, f, indent=2, sort_keys=False)
        f.write("\n")

    h = summary["headline"]
    print(
        f"S=4 vs S=1 at cross={h['cross_fraction']:.2%}: "
        f"{h['s4_speedup']:.2f}x "
        f"({'OK' if h['s4_beats_s1'] else 'REGRESSION'})"
    )
    if not h["s4_beats_s1"]:
        return 1
    service = summary.get("service")
    if service is not None and not service["accounting_balanced"]:
        print("service accounting unbalanced", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
