#!/bin/sh
# svcctl watch must survive a server restart: it reconnects with
# bounded backoff and keeps sampling instead of dying on the first
# failed round trip.
#
#   $1 = path to svc_loadgen   $2 = path to svcctl
#
# Sequence: server A comes up (a background svc_loadgen run) -> watch
# starts sampling -> A is killed mid-watch -> server B comes up on the
# same socket path (sharded, so `stats --shards` can be checked on the
# survivor) -> watch must log a reconnect and still exit 0 with all
# requested frames delivered.
set -u

LOADGEN="$1"
SVCCTL="$2"
SOCK="/tmp/svcctl_watch_reconnect_$$.sock"
OUT="/tmp/svcctl_watch_out_$$"
ERR="/tmp/svcctl_watch_err_$$"

cleanup() {
    kill "$LOADGEN_A_PID" "$LOADGEN_B_PID" "$WATCH_PID" 2>/dev/null
    rm -f "$SOCK" "$OUT" "$ERR"
}
LOADGEN_A_PID=""
LOADGEN_B_PID=""
WATCH_PID=""
trap cleanup EXIT

wait_for_socket() {
    tries=0
    while [ ! -S "$SOCK" ]; do
        tries=$((tries + 1))
        if [ "$tries" -gt 200 ]; then
            echo "watch_reconnect: server socket never appeared" >&2
            exit 1
        fi
        sleep 0.05
    done
}

# Server A.
"$LOADGEN" --clients=1 --batch=8 --requests=500000 --socket="$SOCK" \
    > /dev/null 2>&1 &
LOADGEN_A_PID=$!
wait_for_socket

# Watch for 8 frames at 50 ms; capture stderr for the reconnect log.
# Create the output file first: the background job's redirection may
# not have run yet when the sample poll below reads it.
: > "$OUT"
"$SVCCTL" --socket="$SOCK" watch --interval-ms=50 --count=8 \
    > "$OUT" 2> "$ERR" &
WATCH_PID=$!

# Let it deliver at least one frame (each opens with its health banner)
# before the restart, so the reconnect happens mid-stream.
tries=0
while [ "$(grep -c 'health:' "$OUT")" -lt 1 ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 200 ]; then
        echo "watch_reconnect: watch produced no samples" >&2
        exit 1
    fi
    sleep 0.05
done

# Kill server A; the socket path goes stale until B rebinds it.
kill "$LOADGEN_A_PID" 2>/dev/null
wait "$LOADGEN_A_PID" 2>/dev/null
rm -f "$SOCK"

# Server B — sharded, so `stats --shards` is checked on the survivor.
"$LOADGEN" --clients=1 --batch=8 --shards=2 --requests=500000 \
    --socket="$SOCK" > /dev/null 2>&1 &
LOADGEN_B_PID=$!
wait_for_socket

# The watch must come back on its own and finish all 8 frames.
wait "$WATCH_PID"
watch_status=$?
WATCH_PID=""
if [ "$watch_status" -ne 0 ]; then
    echo "watch_reconnect: watch exited $watch_status" >&2
    cat "$ERR" >&2
    exit 1
fi
if ! grep -q 'reconnecting' "$ERR"; then
    echo "watch_reconnect: no reconnect was logged" >&2
    cat "$ERR" >&2
    exit 1
fi
frames=$(grep -c 'health:' "$OUT")
if [ "$frames" -lt 8 ]; then
    echo "watch_reconnect: only $frames of 8 frames delivered" >&2
    cat "$OUT" >&2
    exit 1
fi

# Per-shard introspection against the sharded survivor.
"$SVCCTL" --socket="$SOCK" stats --shards | grep -q 'cross-shard:' || {
    echo "watch_reconnect: stats --shards failed on sharded server" >&2
    exit 1
}

echo "watch_reconnect: OK"
