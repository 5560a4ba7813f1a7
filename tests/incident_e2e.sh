#!/bin/sh
# Conflict-forensics end-to-end: a loadgen-hosted server with the
# flight recorder armed, pumping a planted hot-key workload whose
# near-total abort rate must drive the abort-rate SLO to critical and
# so dump an incident.
#
#   $1 = path to svc_loadgen   $2 = path to svcctl
#   $3 = incident file prefix (files written as "$3-<seq>.json")
#   $4... = optional checker command (python3 check_trace_json.py);
#           when given, every incident file must validate --incident.
#
# While the sweep runs: `svcctl stats` must surface the planted hot
# set in its topk section, `svcctl dump` must write a manual incident
# and report its path, and the abort-rate burn-rate SLO must walk the
# storm to critical — observable as `svcctl watch --once` turning its
# exit status non-zero. The loadgen's own exit status then proves two more things:
# the accounting ledger balanced AND the SLO actually dumped (it fails
# when no "<prefix>-*.json" carries an "slo:" trigger).
set -u

LOADGEN="$1"
SVCCTL="$2"
PREFIX="$3"
shift 3

SOCK="/tmp/incident_e2e_$$.sock"
rm -f "$PREFIX"-*.json

# The SLO windows are shrunk (200 ms fast / 1 s slow) so the burn-rate
# ladder walks ok -> warn -> critical within the sweep, not in minutes.
"$LOADGEN" --clients=2 --batch=8 --requests=400000 --hot-keys=8 \
    --socket="$SOCK" --recorder-out="$PREFIX" \
    --slo-abort-rate=0.5 --slo-fast-ms=200 --slo-slow-ms=1000 \
    > /dev/null 2>&1 &
LOADGEN_PID=$!
trap 'kill "$LOADGEN_PID" 2>/dev/null; rm -f "$SOCK"' EXIT

tries=0
while [ ! -S "$SOCK" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "incident_e2e: server socket never appeared" >&2
        exit 1
    fi
    sleep 0.05
done

# The hot set is the 8 keys [0,8): the top-K sketch must surface them
# once the first conflicts land (poll — the sweep just started).
tries=0
until "$SVCCTL" --socket="$SOCK" stats | grep -q '"key": [0-7]'; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "incident_e2e: top never surfaced the planted hot keys" >&2
        exit 1
    fi
    sleep 0.05
done
"$SVCCTL" --socket="$SOCK" stats --top | grep -q 'key' || {
    echo "incident_e2e: stats --top table form failed" >&2
    exit 1
}

# The storm must drive the abort-rate SLO to critical: poll the
# dashboard's scriptable form until its exit status goes non-zero.
tries=0
while "$SVCCTL" --socket="$SOCK" watch --once > /dev/null 2>&1; do
    tries=$((tries + 1))
    if [ "$tries" -gt 200 ]; then
        echo "incident_e2e: watch --once never reported critical" >&2
        exit 1
    fi
    sleep 0.05
done

# Manual dump against the armed recorder: ok + a real file.
DUMP_REPLY=$("$SVCCTL" --socket="$SOCK" dump) || {
    echo "incident_e2e: dump exited nonzero against an armed recorder" >&2
    exit 1
}
echo "$DUMP_REPLY" | grep -q '"ok": true' || {
    echo "incident_e2e: dump reply was not ok: $DUMP_REPLY" >&2
    exit 1
}

# Sweep end: accounting balanced and the SLO incident was dumped.
wait "$LOADGEN_PID"
status=$?
trap - EXIT
rm -f "$SOCK"
if [ "$status" -ne 0 ]; then
    echo "incident_e2e: loadgen failed (accounting or missing slo: dump)" >&2
    exit 1
fi

# Both provenances must exist on disk: the manual dump and the SLO's.
MANUAL=$(grep -l '"trigger": "manual"' "$PREFIX"-*.json | head -n 1)
if [ -z "$MANUAL" ]; then
    echo "incident_e2e: no manual incident file" >&2
    exit 1
fi

# The burn-rate SLO's critical transition dumps an incident that embeds
# the health verdicts and the breaching series rings — the storm's full
# story in one file.
SLO=$(grep -l '"trigger": "slo:abort-rate"' "$PREFIX"-*.json | head -n 1)
if [ -z "$SLO" ]; then
    echo "incident_e2e: no slo:abort-rate incident file" >&2
    exit 1
fi
grep -q '"svc.abort_rate"' "$SLO" || {
    echo "incident_e2e: SLO incident lacks the breaching series ring" >&2
    exit 1
}
grep -q '"to": "warn"' "$SLO" || {
    echo "incident_e2e: SLO incident records no ok->warn transition" >&2
    exit 1
}
grep -q '"to": "critical"' "$SLO" || {
    echo "incident_e2e: SLO incident records no warn->critical transition" >&2
    exit 1
}

# Schema-validate every incident the run produced, manual included:
# each must carry a monitor look-back (check_trace_json.py --incident).
if [ "$#" -gt 0 ]; then
    for file in "$PREFIX"-*.json; do
        "$@" "$file" --incident || {
            echo "incident_e2e: $file failed incident validation" >&2
            exit 1
        }
    done
fi
echo "incident_e2e: OK ($MANUAL, $SLO)"
