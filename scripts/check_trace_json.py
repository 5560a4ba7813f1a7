#!/usr/bin/env python3
"""Validate a telemetry JSON file written by obs::TelemetrySession
(or merged from several of them by merge_trace_json.py).

Checks, in order:

1. Schema: the file is a JSON object with a "traceEvents" array in
   Chrome trace-event format (every event has name/ph/ts/pid/tid;
   complete "X" events carry a duration; flow events "s"/"f" carry the
   binding "id" and flow ends bind to their enclosing slice) and a
   "metrics" object with counters/gauges/histograms.

2. Abort accounting: for every layer prefix that reports aborts
   (tm., cc., sim.), the per-reason counters "<p>.abort.<reason>" sum
   exactly to the "<p>.abort" total. The instrumentation bumps both at
   the same attribution site, so any mismatch means a code path lost
   its typed AbortReason.

3. KV-layer accounting: when the file carries "kv.ops.*" counters (a
   trace from a process hosting a kv::KvStore / KvStore2pl), every
   operation is exactly one committed transaction —
   sum(kv.ops.*) == kv.txn.commits — and each "kv.latency.<op>"
   histogram holds exactly kv.ops.<op> samples (the histogram is
   recorded at the same site that bumps the counter).

4. Validation-service accounting: when the file carries "svc.*"
   counters (a trace from a process hosting svc::Server), every
   well-formed request must be answered exactly once:
   svc.requests == sum(svc.verdict.*) + svc.timeout + svc.rejected.
   Client-side counters ("svc.client.*") are excluded — the
   "svc.verdict." prefix does not match them. Snapshots
   ("svc.snapshot") are answered outside the request path and excluded
   by design.

5. Span chains (skippable with --no-chain, for metrics-only files from
   replay/simulator benches): every "tx.commit" span must sit inside a
   "tx.attempt" span on the same (pid, tid) that also contains a
   "tx.validate" span — the begin -> validate -> commit lifecycle of a
   committed offloaded transaction — and at least one complete chain
   must exist. Per-thread ring buffers overwrite their oldest events,
   so up to --max-orphans (default 2) broken chains per thread are
   tolerated at the wraparound boundary.

6. Distributed-trace linkage (runs when the file contains
   "svc.server.validate" spans; mandatory with --require-flows): every
   server validation span carries args.parent_span_id, and — in a
   merged client+server file — that id must name the trace_id of a
   client "svc.rpc" span, with the matching flow-start ("s") and
   flow-end ("f") events sharing the same id so Perfetto draws the
   arrow. Up to --max-orphans unmatched ids per side are tolerated
   (ring wraparound can drop one half of a pair). With --require-flows
   the check also demands at least one fully linked client/server pair,
   failing single-process files where the other half is missing.

The tracer's ring buffers drop oldest events silently; the session
surfaces the total as the "obs.trace.dropped" counter plus the
always-exported "obs.trace.dropped_total" gauge, and this script prints
a warning when they are non-zero (the tolerances above exist precisely
because of it). With --strict that warning becomes a FAILURE — and so
does a file without the gauge at all, since "nobody measured" must not
pass as "no drops".

--incident switches to validating a flight-recorder incident file
(obs/flight_recorder.h) instead of a telemetry envelope: the "incident"
header (trigger "manual" or "slo:<rule>", pid, seq >= 1, t_ns), the
"metrics" registry snapshot, the "topk" hot-key table (entries sorted
by count, error <= count), the "health" look-back (the monitor's
status with health.enabled true and at least one sampled point; each
series' t_ns monotone, ratio-series values in [0, 1]) and a
"traceEvents" list (possibly empty) in the usual Chrome shape.

Exit status 0 if all checks pass; 1 with a message on stderr otherwise.

Usage: check_trace_json.py FILE [--no-chain] [--require-flows]
                                [--max-orphans=N] [--strict]
                                [--incident]
"""

import json
import sys

REASON_PREFIXES = ("tm", "cc", "sim")


def fail(message):
    print(f"check_trace_json: FAIL: {message}", file=sys.stderr)
    sys.exit(1)


def check_events(events):
    for i, event in enumerate(events):
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                fail(f"traceEvents[{i}] lacks required key {key!r}")
        if event["ph"] == "X" and "dur" not in event:
            fail(f'traceEvents[{i}] is a complete event without "dur"')
        if event["ph"] in ("s", "f"):
            if "id" not in event:
                fail(f"traceEvents[{i}] is a flow event without an id")
            if event["ph"] == "f" and event.get("bp") != "e":
                fail(
                    f"traceEvents[{i}] is a flow end without "
                    f'"bp":"e" (the arrow would bind to the wrong slice)'
                )
        if event["ph"] not in ("X", "C", "i", "s", "f"):
            fail(f"traceEvents[{i}] has unknown phase {event['ph']!r}")


def check_metrics_shape(doc):
    metrics = doc.get("metrics")
    if not isinstance(metrics, dict):
        fail('missing "metrics" object')
    for section in ("counters", "gauges", "histograms"):
        if not isinstance(metrics.get(section), dict):
            fail(f'metrics lacks the "{section}" object')
    return metrics


def check_schema(doc):
    if not isinstance(doc, dict):
        fail("top level is not a JSON object")
    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail('missing "traceEvents" array')
    check_events(events)
    return events, check_metrics_shape(doc)


def check_abort_sums(counters):
    checked = 0
    for prefix in REASON_PREFIXES:
        total_name = f"{prefix}.abort"
        if total_name not in counters:
            continue
        total = counters[total_name]
        by_reason = sum(
            value
            for name, value in counters.items()
            if name.startswith(f"{prefix}.abort.")
        )
        if by_reason != total:
            fail(
                f"per-reason counters under {prefix}.abort.* sum to "
                f"{by_reason}, but {total_name} = {total}"
            )
        checked += 1
    return checked


def check_svc_accounting(counters):
    """svc.requests == sum(svc.verdict.*) + svc.timeout + svc.rejected.

    The server bumps svc.requests once per well-formed frame and exactly
    one of the answer counters per request (stop() counts still-queued
    requests as rejected), so an imbalance means a request was dropped
    or double-answered. Snapshots bump svc.snapshot instead of
    svc.requests, so introspection never unbalances the ledger.
    """
    if "svc.requests" not in counters:
        return False
    answered = sum(
        value
        for name, value in counters.items()
        if name.startswith("svc.verdict.")
    ) + counters.get("svc.timeout", 0) + counters.get("svc.rejected", 0)
    if answered != counters["svc.requests"]:
        fail(
            f"svc answer counters sum to {answered}, but "
            f"svc.requests = {counters['svc.requests']}"
        )
    return True


def check_kv_accounting(counters, histograms):
    """sum(kv.ops.*) == kv.txn.commits, and each kv.latency.<op>
    histogram holds exactly kv.ops.<op> samples.

    kv::HotMetrics::finish_op bumps the op counter, the commit counter
    and the latency histogram at one site, so any mismatch means an
    operation path skipped its accounting (or double-counted).
    """
    ops = {
        name: value
        for name, value in counters.items()
        if name.startswith("kv.ops.")
    }
    if not ops:
        return False
    total = sum(ops.values())
    commits = counters.get("kv.txn.commits")
    if commits != total:
        fail(
            f"kv.ops.* counters sum to {total}, but kv.txn.commits = "
            f"{commits}"
        )
    for name, value in sorted(ops.items()):
        op = name[len("kv.ops."):]
        hist = histograms.get(f"kv.latency.{op}")
        if hist is None:
            fail(f"{name} = {value} but no kv.latency.{op} histogram")
        if hist.get("count") != value:
            fail(
                f"kv.latency.{op} holds {hist.get('count')} samples, "
                f"but {name} = {value}"
            )
    return True


def check_span_chains(events, max_orphans):
    spans = [e for e in events if e["ph"] == "X"]
    by_thread = {}
    for span in spans:
        # Merged files interleave processes: a thread is (pid, tid).
        by_thread.setdefault((span["pid"], span["tid"]), []).append(span)

    def contains(outer, inner):
        outer_end = outer["ts"] + outer["dur"]
        inner_end = inner["ts"] + inner["dur"]
        return outer["ts"] <= inner["ts"] and inner_end <= outer_end

    complete = 0
    orphan_report = []
    for thread, thread_spans in sorted(by_thread.items()):
        attempts = [s for s in thread_spans if s["name"] == "tx.attempt"]
        validates = [s for s in thread_spans if s["name"] == "tx.validate"]
        commits = [s for s in thread_spans if s["name"] == "tx.commit"]
        orphans = 0
        for commit in commits:
            enclosing = [a for a in attempts if contains(a, commit)]
            chained = any(
                contains(a, v)
                for a in enclosing
                for v in validates
            )
            if chained:
                complete += 1
            else:
                orphans += 1
        if orphans > max_orphans:
            orphan_report.append(
                f"pid {thread[0]} tid {thread[1]}: {orphans} tx.commit "
                f"spans without an enclosing tx.attempt containing "
                f"tx.validate (tolerance {max_orphans} for ring "
                f"wraparound)"
            )
    if orphan_report:
        fail("; ".join(orphan_report))
    if complete == 0:
        fail(
            "no complete begin -> validate -> commit span chain found "
            "(expected at least one; use --no-chain for metrics-only "
            "files)"
        )
    return complete


def check_flows(events, max_orphans, require):
    """Cross-process causality: server spans point at client spans.

    Returns the number of linked client/server span pairs (0 when the
    file carries no distributed-tracing material and require is False).
    """
    client_ids = {
        e["args"]["trace_id"]
        for e in events
        if e["ph"] == "X"
        and e["name"] == "svc.rpc"
        and "trace_id" in e.get("args", {})
    }
    server_spans = [
        e
        for e in events
        if e["ph"] == "X" and e["name"] == "svc.server.validate"
    ]
    flow_starts = {e["id"] for e in events if e["ph"] == "s"}
    flow_ends = {e["id"] for e in events if e["ph"] == "f"}

    if not server_spans and not flow_starts and not flow_ends:
        if require:
            fail(
                "no distributed-tracing events found "
                "(--require-flows expects svc.server.validate spans and "
                "s/f flow events; was the capture made with "
                "ROCOCO_TRACE=ON through the validation service?)"
            )
        return 0

    for i, span in enumerate(server_spans):
        if "parent_span_id" not in span.get("args", {}):
            fail(
                f"svc.server.validate span #{i} lacks "
                f"args.parent_span_id"
            )

    # Every server span must reference a client span that exists in the
    # merged file (tolerating ring wraparound on either side).
    unmatched_spans = sum(
        1
        for span in server_spans
        if span["args"]["parent_span_id"] not in client_ids
    )
    linked = len(server_spans) - unmatched_spans
    if client_ids and unmatched_spans > max_orphans:
        fail(
            f"{unmatched_spans} svc.server.validate spans reference a "
            f"parent_span_id with no matching client svc.rpc span "
            f"(tolerance {max_orphans})"
        )

    # Flow arrows need both halves to render.
    dangling_ends = len(flow_ends - flow_starts)
    if flow_starts and dangling_ends > max_orphans:
        fail(
            f"{dangling_ends} flow ends have no matching flow start "
            f"(tolerance {max_orphans})"
        )

    if require:
        if linked == 0 or not client_ids:
            fail(
                "no linked client/server span pair (server "
                "parent_span_id matching a client svc.rpc trace_id); "
                "merge the client and server telemetry files first"
            )
        if not (flow_starts & flow_ends):
            fail("no flow start/end pair sharing an id")
    return linked


INCIDENT_TRIGGERS = ("manual",)
# SLO-triggered incidents (obs/health.cc) use "slo:<rule-name>".
SLO_TRIGGER_PREFIX = "slo:"


def check_incident_health(health):
    """The "health" section is the look-back of every incident: the
    HealthMonitor's status (obs/health.cc status_json) with at least
    one sampled point, time-ordered rings and ratio values in [0, 1]
    (the sampler clamps kRatio series).
    """
    if not isinstance(health, dict) or health.get("enabled") is not True:
        fail("incident lacks health.enabled: true (an armed recorder "
             "always has a monitor)")
    verdict = health.get("health")
    if not isinstance(verdict, dict) or "state" not in verdict:
        fail("incident lacks health.health.state")
    samples = health.get("samples")
    if not isinstance(samples, dict) or not isinstance(
            samples.get("series"), list):
        fail("incident lacks health.samples.series (the sampler rings)")
    points = 0
    for i, series in enumerate(samples["series"]):
        name = series.get("name", f"#{i}")
        ring = series.get("points")
        if not isinstance(ring, list):
            fail(f"health series {name} lacks a points array")
        last_t = None
        for j, point in enumerate(ring):
            if not isinstance(point, list) or len(point) != 3:
                fail(f"health series {name} point {j} is not "
                     f"[t_ns, raw, value]")
            t_ns, _, value = point
            if last_t is not None and t_ns < last_t:
                fail(f"health series {name} point {j}: t_ns goes "
                     f"backwards (ring rotation must preserve time order)")
            last_t = t_ns
            if (series.get("kind") == "ratio" and value is not None
                    and not 0 <= value <= 1):
                fail(f"health series {name} point {j}: ratio {value} "
                     f"outside [0, 1]")
        points += len(ring)
    if points == 0:
        fail("health.samples.series holds no sampled point (the "
             "incident has no look-back)")
    return points


def check_incident(doc):
    """Validate a flight-recorder incident file (obs/flight_recorder.cc
    dump writes it; svcctl dump and critical SLO rules produce it).
    """
    if not isinstance(doc, dict):
        fail("top level is not a JSON object")
    header = doc.get("incident")
    if not isinstance(header, dict):
        fail('missing "incident" header object')
    trigger = header.get("trigger")
    is_slo = isinstance(trigger, str) and trigger.startswith(
        SLO_TRIGGER_PREFIX) and len(trigger) > len(SLO_TRIGGER_PREFIX)
    if trigger not in INCIDENT_TRIGGERS and not is_slo:
        fail(f"incident.trigger {trigger!r} not in {INCIDENT_TRIGGERS} "
             f"and not '{SLO_TRIGGER_PREFIX}<rule>'")
    for key in ("pid", "seq", "t_ns"):
        if not isinstance(header.get(key), int):
            fail(f"incident.{key} missing or not an integer")
    if header["seq"] < 1:
        fail(f"incident.seq = {header['seq']} (numbered from 1)")

    check_metrics_shape(doc)

    topk = doc.get("topk")
    if not isinstance(topk, dict) or not isinstance(
            topk.get("shards"), list):
        fail('missing "topk" object with a "shards" array')
    for s, shard in enumerate(topk["shards"]):
        entries = shard.get("entries")
        if "shard" not in shard or "offered" not in shard or not isinstance(
                entries, list):
            fail(f"topk.shards[{s}] lacks shard/offered/entries")
        prev_count = None
        for e, entry in enumerate(entries):
            for key in ("key", "count", "error"):
                if key not in entry:
                    fail(f"topk.shards[{s}].entries[{e}] lacks {key!r}")
            if entry["error"] > entry["count"]:
                fail(f"topk.shards[{s}].entries[{e}]: error "
                     f"{entry['error']} > count {entry['count']}")
            if prev_count is not None and entry["count"] > prev_count:
                fail(f"topk.shards[{s}].entries[{e}] not sorted by "
                     f"descending count")
            prev_count = entry["count"]

    points = check_incident_health(doc.get("health"))

    events = doc.get("traceEvents")
    if not isinstance(events, list):
        fail('missing "traceEvents" array (empty is fine)')
    check_events(events)

    print(
        f"check_trace_json: OK: incident ({trigger}, seq "
        f"{header['seq']}), {points} health points, "
        f"{sum(len(s.get('entries', [])) for s in topk['shards'])} "
        f"hot keys, {len(events)} events"
    )
    return 0


def dropped_events(metrics):
    """Trace-ring overwrites, and whether they were measured at all.

    The counter only appears when non-zero (historical shape); the
    gauge is exported always, including the zero, so its absence means
    the capture predates the measurement — which --strict refuses.
    """
    counters = metrics["counters"]
    gauge = metrics["gauges"].get("obs.trace.dropped_total")
    measured = gauge is not None
    dropped = counters.get("obs.trace.dropped", 0)
    if gauge is not None:
        # Merged files: merge_gauge keeps the max across inputs, so a
        # drop in any input stays visible even when the last one is 0.
        dropped = max(dropped, gauge.get("max", 0), gauge.get("last", 0))
    return dropped, measured


def main(argv):
    path = None
    no_chain = False
    require_flows = False
    strict = False
    incident = False
    max_orphans = 2
    for arg in argv[1:]:
        if arg == "--no-chain":
            no_chain = True
        elif arg == "--require-flows":
            require_flows = True
        elif arg == "--strict":
            strict = True
        elif arg == "--incident":
            incident = True
        elif arg.startswith("--max-orphans="):
            max_orphans = int(arg.split("=", 1)[1])
        elif arg.startswith("--"):
            fail(f"unknown flag {arg}")
        elif path is None:
            path = arg
        else:
            fail("more than one input file")
    if path is None:
        print(__doc__, file=sys.stderr)
        sys.exit(2)

    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        fail(f"cannot load {path}: {error}")

    if incident:
        return check_incident(doc)

    events, metrics = check_schema(doc)
    counters = metrics["counters"]
    dropped, measured = dropped_events(metrics)
    if strict and not measured:
        fail(
            'no "obs.trace.dropped_total" gauge in the file; --strict '
            "requires a capture that measured ring overwrites "
            "(re-capture with a current build)"
        )
    if dropped:
        if strict:
            fail(
                f"{dropped} trace events were overwritten in the ring "
                f"buffers before export (--strict forbids a truncated "
                f"trace; raise the ring capacity or shorten the capture)"
            )
        print(
            f"check_trace_json: WARNING: {dropped} trace events were "
            f"overwritten in the ring buffers before export; span-chain "
            f"and flow checks run with wraparound tolerances "
            f"(raise the ring capacity or shorten the capture for a "
            f"complete trace)",
            file=sys.stderr,
        )
    layers = check_abort_sums(counters)
    kv_checked = check_kv_accounting(counters, metrics["histograms"])
    svc_checked = check_svc_accounting(counters)
    chains = 0 if no_chain else check_span_chains(events, max_orphans)
    flows = check_flows(events, max_orphans, require_flows)

    print(
        f"check_trace_json: OK: {len(events)} events, "
        f"{len(counters)} counters "
        f"({layers} abort layer(s) consistent, "
        + ("kv accounting balanced, " if kv_checked else "")
        + "svc accounting "
        + ("balanced), " if svc_checked else "absent), ")
        + (f"{chains} complete span chains" if not no_chain
           else "chain check skipped")
        + (f", {flows} flow-linked client/server pairs" if flows else "")
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
