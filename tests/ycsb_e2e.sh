#!/bin/sh
# KV conflict forensics end-to-end: ycsb_run in --service mode — one
# sharded server, 4 forked client processes pumping KV-shaped
# validation RPCs with stale snapshots (a planted conflict storm) —
# while `svcctl stats` snapshots the hot-address table, which
# scripts/resolve_topk.py must join back to string keys via the
# --key-map-out dictionary. The driver's own exit status proves the
# server-side accounting ledger balanced.
#
#   $1 = path to ycsb_run   $2 = path to svcctl
#   $3 = output directory for keymap/topk files
#   $4 = python3 (optional)  $5 = resolve_topk.py (with $4)
set -u

YCSB="$1"
SVCCTL="$2"
OUT="$3"
shift 3

SOCK="/tmp/ycsb_e2e_$$.sock"
mkdir -p "$OUT"
rm -f "$OUT"/keymap.json "$OUT"/topk.json

# Few keys + heavy zipf + stale snapshots + all-RMW ops: RMW reads the
# value cell other RMWs write, so every window overlap is a
# forward/backward pair — a cycle abort with provenance — and the
# per-shard top-K sketch fills with the hot keys' slot addresses
# quickly. (Pure put shapes read only meta and write only value, which
# cannot cycle; an all-update storm would leave the sketch empty.)
"$YCSB" --service --clients=4 --shards=2 --requests=200000 \
    --workload=a --rmw-pct=100 --keys=64 --zipf=1.2 --stale-snapshots=1 \
    --key-map-out="$OUT"/keymap.json --socket="$SOCK" \
    > "$OUT"/ycsb_service.log 2>&1 &
YCSB_PID=$!
trap 'kill "$YCSB_PID" 2>/dev/null; rm -f "$SOCK"' EXIT

tries=0
while [ ! -S "$SOCK" ]; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "ycsb_e2e: server socket never appeared" >&2
        exit 1
    fi
    sleep 0.05
done

# The key map is written before the clients fork, so it must already
# be there.
[ -s "$OUT"/keymap.json ] || {
    echo "ycsb_e2e: --key-map-out produced no key map" >&2
    exit 1
}

# Poll until the sketch surfaces conflicting addresses.
tries=0
until "$SVCCTL" --socket="$SOCK" stats > "$OUT"/topk.json \
        && grep -q '"key":' "$OUT"/topk.json; do
    tries=$((tries + 1))
    if [ "$tries" -gt 100 ]; then
        echo "ycsb_e2e: top never surfaced conflict addresses" >&2
        exit 1
    fi
    sleep 0.05
done

# Driver exit: clients done, server accounting ledger balanced.
wait "$YCSB_PID"
status=$?
trap - EXIT
rm -f "$SOCK"
if [ "$status" -ne 0 ]; then
    echo "ycsb_e2e: ycsb_run --service failed (accounting?)" >&2
    cat "$OUT"/ycsb_service.log >&2
    exit 1
fi

# Join the hot addresses back to string keys: at least one must
# resolve to a "user<N>" key, or the dictionary is broken.
if [ "$#" -ge 2 ]; then
    PYTHON="$1"
    RESOLVE="$2"
    "$PYTHON" "$RESOLVE" --keymap "$OUT"/keymap.json \
        --topk "$OUT"/topk.json > "$OUT"/resolved.txt || {
        echo "ycsb_e2e: resolve_topk.py failed" >&2
        cat "$OUT"/resolved.txt >&2
        exit 1
    }
    grep -q 'user' "$OUT"/resolved.txt || {
        echo "ycsb_e2e: no top-K address resolved to a user key" >&2
        cat "$OUT"/resolved.txt >&2
        exit 1
    }
fi
echo "ycsb_e2e: OK"
