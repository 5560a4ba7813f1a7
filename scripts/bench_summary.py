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
    — one row per (signature/window geometry, match kernel) with the
    bit-sliced vs scalar classify latency, the steady-state pipeline
    round trip (one caller: the median of the rounds in which no thread
    waited for a CPU; and per call with two callers back to back,
    reported but not gated), the bare engine's process() cost (reported,
    not gated) and allocations/validation. Output:
    BENCH_hotpath.json. Exits nonzero
    if, on the paper geometry (W=64, 512-bit), the bit-sliced scalar
    kernel's speedup over the row-major walk falls below --min-speedup
    (default 2.0), allocations/validation exceed --max-allocs (default
    0.0), or — when any SIMD kernel row is present — the best SIMD
    kernel's speedup over the bit-sliced scalar kernel falls below
    --min-simd-speedup (default 1.5). That speedup is the median of the
    per-round ratios over micro_validate's interleaved kernel rounds in
    which no thread waited for a CPU; fewer than MIN_CLEAN_ROUNDS such
    rounds fail as NOT MEASURED. Hosts without AVX2 emit no SIMD
    rows and the SIMD gate skips rather than fails, mirroring the
    single-core convention of the ycsb canary. --max-pipeline-ns caps
    the paper geometry's synchronous pipeline round trip (default 0:
    not gated); the cap skips rather than fails when this process may
    run on one CPU only, where the spin-then-park wait never spins, and
    fails with its own message when fewer than MIN_CLEAN_ROUNDS rounds
    were clean.

  * --ycsb-csv: the CSV written by `bench/ycsb_run --csv=...` — one
    row per (workload, zipf, engine) with throughput, transaction
    outcomes and per-op latency quantiles for the OCC store and the
    2PL baseline under identical traffic. Output: BENCH_ycsb.json.
    The canary checks the read-heavy workload (--workload, default b)
    at its most skewed zipf cell: the OCC/2PL throughput ratio must
    stay >= --min-occ-ratio and the OCC abort rate <= --max-abort-rate
    (the "low contention" premise, asserted rather than assumed).
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
                    "kernel": row["kernel"],
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
                    "vs_portable": float(row["vs_portable"]),
                    "kernel_clean_rounds": int(row["kernel_clean_rounds"]),
                }
            )
    if not rows:
        raise SystemExit(f"{path}: no hot-path rows")
    return rows


# The round-trip ceiling and the SIMD floor each need at least this
# many rounds in which no thread of micro_validate waited for a CPU;
# fewer fail on their own.
MIN_CLEAN_ROUNDS = 5


def single_cpu():
    """True when this process may run on one CPU only."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0)) < 2
    return (os.cpu_count() or 1) < 2


def hotpath_headline(rows, min_speedup, max_allocs, min_simd_speedup,
                     max_pipeline_ns):
    """The acceptance numbers: the paper geometry W=64 / 512-bit.

    Two gated ratios on that geometry: the bit-sliced *scalar* kernel
    against the row-major walk (the layout win, --min-speedup), and the
    best SIMD kernel against the bit-sliced scalar kernel (the explicit
    vectorization win, --min-simd-speedup). The SIMD gate only arms
    when the sweep actually produced SIMD rows — micro_validate emits
    one row per runtime-available kernel, so their absence means the
    host cannot run them, not that they regressed. Its ratio is the
    median of per-round ratios over the clean interleaved kernel
    rounds, and it needs MIN_CLEAN_ROUNDS of them like the cap below.

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
        if (row["window"] == 64 and row["sig_bits"] == 512
                and row["kernel"] == "scalar"):
            canary = row
    if canary is None:
        raise SystemExit(
            "hot-path sweep lacks the W=64 / 512-bit scalar-kernel row"
        )
    simd = [
        r for r in rows
        if r["window"] == 64 and r["sig_bits"] == 512
        and r["kernel"] != "scalar"
    ]
    best_simd = max(simd, key=lambda r: r["vs_portable"]) if simd else None
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
    if best_simd is None:
        headline["simd_kernel"] = None
        headline["simd_clean_ok"] = True
        headline["simd_ok"] = True  # skip-not-fail: no SIMD on this host
    else:
        ratio = best_simd["vs_portable"]
        headline["simd_kernel"] = best_simd["kernel"]
        headline["simd_sliced_ns"] = best_simd["sliced_ns"]
        headline["simd_speedup_vs_sliced_scalar"] = ratio
        headline["simd_floor"] = min_simd_speedup
        # micro_validate runs the kernels and the round trip in the
        # same number of rounds.
        headline["simd_rounds"] = canary["pipeline_rounds"]
        headline["simd_clean_rounds"] = best_simd["kernel_clean_rounds"]
        headline["simd_clean_ok"] = (min_simd_speedup <= 0 or
                                     best_simd["kernel_clean_rounds"]
                                     >= MIN_CLEAN_ROUNDS)
        headline["simd_ok"] = (not headline["simd_clean_ok"]
                               or ratio >= min_simd_speedup)
    return headline


def run_hotpath(args):
    rows = load_hotpath(args.hotpath_csv)
    summary = {
        "bench": "validation-hot-path",
        "tool": "scripts/bench_summary.py",
        "sweep": rows,
        "headline": hotpath_headline(rows, args.min_speedup,
                                     args.max_allocs,
                                     args.min_simd_speedup,
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
    if h["simd_kernel"] is None:
        print("simd: no SIMD kernel rows (host lacks AVX2) — gate skipped")
    else:
        if not h["simd_clean_ok"]:
            verdict = (f"NOT MEASURED: fewer than {MIN_CLEAN_ROUNDS} "
                       f"rounds ran without waiting for a CPU; the host "
                       f"is stolen from")
        else:
            verdict = "OK" if h["simd_ok"] else "REGRESSION"
        print(
            f"simd: {h['simd_kernel']} {h['simd_sliced_ns']:.1f} ns, "
            f"{h['simd_speedup_vs_sliced_scalar']:.2f}x the sliced-scalar "
            f"kernel (median of {h['simd_clean_rounds']}/"
            f"{h['simd_rounds']} clean rounds, floor "
            f"{h['simd_floor']:.2f}x) {verdict}"
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
    ok = (h["speedup_ok"] and h["allocs_ok"] and h["simd_clean_ok"]
          and h["simd_ok"] and h["pipeline_clean_ok"] and h["pipeline_ok"])
    return 0 if ok else 1


OPS = ("get", "put", "delete", "scan", "rmw")


def load_ycsb(path):
    rows = []
    with open(path, newline="") as f:
        for row in csv.DictReader(f):
            parsed = {
                "workload": row["workload"],
                "engine": row["engine"],
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


def ycsb_comparison(rows):
    """OCC vs 2PL per (workload, zipf) cell where both engines ran."""
    cells = {}
    for row in rows:
        cells.setdefault((row["workload"], row["zipf"]), {})[
            row["engine"]
        ] = row
    comparison = []
    for (workload, zipf), engines in sorted(cells.items()):
        if "occ" not in engines or "2pl" not in engines:
            continue
        occ, pl = engines["occ"], engines["2pl"]
        comparison.append(
            {
                "workload": workload,
                "zipf": zipf,
                "occ_kops_s": occ["kops_s"],
                "2pl_kops_s": pl["kops_s"],
                "occ_over_2pl": occ["kops_s"] / pl["kops_s"]
                if pl["kops_s"] > 0
                else 0.0,
                "occ_abort_rate": occ["abort_rate"],
                "occ_retries": occ["retries"],
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
    return {
        "workload": cell["workload"],
        "zipf": cell["zipf"],
        "occ_kops_s": cell["occ_kops_s"],
        "2pl_kops_s": cell["2pl_kops_s"],
        "occ_over_2pl": cell["occ_over_2pl"],
        "occ_abort_rate": cell["occ_abort_rate"],
        "occ_beats_2pl": cell["occ_over_2pl"] > 1.0,
        "ratio_floor": min_ratio,
        "ratio_ok": cell["occ_over_2pl"] >= min_ratio,
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
    print(
        f"YCSB-{h['workload'].upper()} zipf={h['zipf']:.2f}: "
        f"occ {h['occ_kops_s']:.0f} kops/s vs 2pl "
        f"{h['2pl_kops_s']:.0f} kops/s "
        f"(ratio {h['occ_over_2pl']:.2f}, floor {h['ratio_floor']:.2f}) "
        f"{'OK' if h['ratio_ok'] else 'REGRESSION'}; "
        f"occ abort rate {h['occ_abort_rate']:.4f} "
        f"{'OK' if h['low_contention_ok'] else 'CONTENDED'}"
    )
    return 0 if h["ratio_ok"] and h["low_contention_ok"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shards-csv")
    parser.add_argument("--hotpath-csv")
    parser.add_argument("--ycsb-csv")
    parser.add_argument("--loadgen-json")
    parser.add_argument("--min-speedup", type=float, default=2.0)
    parser.add_argument("--min-simd-speedup", type=float, default=1.5)
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
