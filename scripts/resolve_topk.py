#!/usr/bin/env python3
"""Join conflict top-K output back to string KV keys.

The "topk" section of a `svcctl stats` snapshot (and of flight-recorder
incident files) reports conflicting *wire addresses* — opaque numbers
for KV traffic. `bench/ycsb_run --key-map-out=FILE` dumps the
key→slot/address dictionary of the same run: every key's slot plus its
two slot-derived wire addresses (KeyMapper::meta_addr = slot*2,
value_addr = slot*2+1). This script joins the two, so a hot-key
investigation reads "user37 (value cell)" instead of "address 9134".

Inputs:
  --keymap FILE   JSON from ycsb_run --key-map-out
                  ({"capacity":..., "mode": "resolved"|"home",
                    "entries":[{"key","slot","meta_addr","value_addr"}]})
  --topk FILE     a `svcctl stats` snapshot or a flight-recorder
                  incident file (its "topk" object is used), or a
                  bare top-K table
                  ({"shards":[{"shard","offered","entries":[...]}]}).

Output: one table row per top-K entry — shard, address, the resolved
key and which of its cells (meta/value) the address names, count and
error — plus, with --json FILE, the same rows as JSON for scripting.

Exit status: 0 on success; 1 if the top-K table has entries but not a
single address resolved against the key map (almost always a capacity
mismatch between the dump and the run — the mapping depends on the
table capacity).

Usage: resolve_topk.py --keymap FILE --topk FILE [--json FILE]
"""

import argparse
import json
import sys


def load_keymap(path):
    with open(path) as f:
        doc = json.load(f)
    entries = doc.get("entries")
    if not isinstance(entries, list):
        raise SystemExit(f"{path}: no 'entries' array (not a key map?)")
    by_addr = {}
    for entry in entries:
        by_addr[entry["meta_addr"]] = (entry["key"], "meta")
        by_addr[entry["value_addr"]] = (entry["key"], "value")
    return doc, by_addr


def load_topk(path):
    with open(path) as f:
        doc = json.load(f)
    # Snapshots and incident files nest the table under "topk".
    table = doc.get("topk", doc)
    shards = table.get("shards")
    if not isinstance(shards, list):
        raise SystemExit(f"{path}: no 'shards' array (not a top-K table?)")
    return shards


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--keymap", required=True)
    parser.add_argument("--topk", required=True)
    parser.add_argument("--json", dest="json_out")
    args = parser.parse_args()

    keymap_doc, by_addr = load_keymap(args.keymap)
    shards = load_topk(args.topk)

    rows = []
    total = resolved = 0
    for shard in shards:
        for entry in shard.get("entries", []):
            total += 1
            addr = entry["key"]
            key, cell = by_addr.get(addr, (None, None))
            if key is not None:
                resolved += 1
            rows.append(
                {
                    "shard": shard.get("shard"),
                    "addr": addr,
                    "key": key,
                    "cell": cell,
                    "count": entry.get("count"),
                    "error": entry.get("error"),
                }
            )

    print(f"{'shard':>5} {'addr':>12} {'key':>16} {'cell':>6} "
          f"{'count':>10} {'error':>8}")
    for row in rows:
        print(
            f"{row['shard']:>5} {row['addr']:>12} "
            f"{row['key'] or '?':>16} {row['cell'] or '?':>6} "
            f"{row['count']:>10} {row['error']:>8}"
        )
    print(
        f"resolved {resolved}/{total} addresses against "
        f"{args.keymap} (mode {keymap_doc.get('mode', '?')}, capacity "
        f"{keymap_doc.get('capacity', '?')})"
    )

    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump({"entries": rows}, f, indent=2)
            f.write("\n")

    if total > 0 and resolved == 0:
        print(
            "resolve_topk: no address resolved — key map and top-K "
            "table almost certainly come from different --capacity "
            "runs",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
