#!/bin/sh
# Live-introspection smoke test: svcctl against a server under load.
#
#   $1 = path to svc_loadgen   $2 = path to svcctl
#
# svc_loadgen runs a single long (clients=2, batch=8) cell in the
# background; while its clients are pumping requests we hit the server
# with every svcctl command and section flag. The loadgen's own exit status is the
# accounting check — it verifies svc.requests == sum(answers) after the
# sweep and exits 1 on imbalance, so a snapshot op that perturbed the
# ledger fails this test.
set -u

LOADGEN="$1"
SVCCTL="$2"
SOCK="/tmp/svcctl_e2e_$$.sock"

"$LOADGEN" --clients=2 --batch=8 --requests=300000 --socket="$SOCK" \
    > /dev/null 2>&1 &
LOADGEN_PID=$!
trap 'kill "$LOADGEN_PID" 2>/dev/null; rm -f "$SOCK"' EXIT

# The server binds before the clients fork; wait for the socket.
tries=0
while [ ! -S "$SOCK" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "svcctl_e2e: server socket never appeared" >&2
        exit 1
    fi
    sleep 0.05
done

# Every check reads the one kSnapshot reply: raw, or one section of it
# formatted.
"$SVCCTL" --socket="$SOCK" stats | grep -q '"svc.requests"' || {
    echo "svcctl_e2e: stats lacks svc.requests" >&2
    exit 1
}
"$SVCCTL" --socket="$SOCK" stats | grep -q '"monitor": {"enabled": true' || {
    echo "svcctl_e2e: stats lacks an enabled monitor" >&2
    exit 1
}
"$SVCCTL" --socket="$SOCK" stats | grep -q '"svc.abort_rate"' || {
    echo "svcctl_e2e: stats lacks the svc.abort_rate ring" >&2
    exit 1
}
"$SVCCTL" --socket="$SOCK" stats --hist svc.batch_size | grep -q '"count"' || {
    echo "svcctl_e2e: stats --hist svc.batch_size failed" >&2
    exit 1
}
"$SVCCTL" --socket="$SOCK" watch --interval-ms=50 --count=3 \
    | grep -c 'health:' | grep -q '^3$' || {
    echo "svcctl_e2e: watch did not print 3 frames" >&2
    exit 1
}
# Conflict-free workload: the dashboard's scriptable form must report
# health and exit 0 (it exits 3 on critical).
WATCH_OUT=$("$SVCCTL" --socket="$SOCK" watch --once) || {
    echo "svcctl_e2e: watch --once exited non-zero on a healthy server" >&2
    exit 1
}
echo "$WATCH_OUT" | grep -q 'health:' || {
    echo "svcctl_e2e: watch output lacks the health banner" >&2
    exit 1
}
echo "$WATCH_OUT" | grep -q 'abort-rate' || {
    echo "svcctl_e2e: watch output lacks the abort-rate rule row" >&2
    exit 1
}

# Forensics answer inline under load. This workload is conflict-free,
# so the top section must print the table header either way, and the
# raw reply must carry the fixed shards shape.
"$SVCCTL" --socket="$SOCK" stats --top | grep -q 'key' || {
    echo "svcctl_e2e: stats --top failed against a live server" >&2
    exit 1
}
"$SVCCTL" --socket="$SOCK" stats | grep -q '"topk": {"shards"' || {
    echo "svcctl_e2e: stats lacks the topk shards table" >&2
    exit 1
}
# This server runs without a flight recorder: dump must fail loudly
# (exit 1, JSON error) rather than pretend an incident was written.
if "$SVCCTL" --socket="$SOCK" dump 2>/dev/null | grep -q '"ok": true'; then
    echo "svcctl_e2e: dump claimed success without a recorder" >&2
    exit 1
fi
if "$SVCCTL" --socket="$SOCK" dump > /dev/null 2>&1; then
    echo "svcctl_e2e: dump exited 0 without a recorder" >&2
    exit 1
fi

# Unknown histogram and usage errors must fail loudly, not silently.
if "$SVCCTL" --socket="$SOCK" stats --hist=no.such.histogram 2>/dev/null; then
    echo "svcctl_e2e: stats --hist accepted an unknown name" >&2
    exit 1
fi
if "$SVCCTL" frobnicate 2>/dev/null; then
    echo "svcctl_e2e: unknown command did not fail" >&2
    exit 1
fi

# The accounting cross-check happens inside svc_loadgen at sweep end.
wait "$LOADGEN_PID"
status=$?
trap - EXIT
rm -f "$SOCK"
if [ "$status" -ne 0 ]; then
    echo "svcctl_e2e: svc_loadgen accounting check failed" >&2
    exit 1
fi
echo "svcctl_e2e: OK"
