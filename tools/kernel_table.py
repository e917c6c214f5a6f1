#!/usr/bin/env python3
"""Per-tweet cost of the value-model walks and per-record cost of the segment
decoder, for one or two source trees.

    python3 tools/kernel_table.py --src /path/to/parent/src --src src

Each round starts one child interpreter per ``--src`` (alternating which
goes first) that times, on the same 100 generated tweets,

* ``item_from_json``                      -- construct
* ``match_item(root{//*="<user id>"})``   -- the default SAR subject selector
* ``match_item(root{/user{/id_str=...}})`` -- a navigating pattern (control)
* ``infer_schema`` over the 100 items     -- infer, twice: ``infer_first_ms``
  on items re-coerced from their JSON before each repeat (outside the
  timer), so no value has been typed yet, and ``infer_again_ms`` on the same
  objects every repeat, which a tree that keeps each value's type answers
  from that memo
* the warehouse's item encoder            -- encode item (write side)
* the string leaves ``index.seg`` indexes -- from the item where the tree's
  walk knows the model types, else from ``json.loads`` of its stored bytes

and, on a D3 capture (scale 0.2), the read side of the segment codec:

* ``decode_operator`` per encoded operator record -- ``decode_operator_us``
* ``iter_encoded_rows`` per row of the rows payload, hopped 100 times per
  timing -- ``hop_rows_us``

and the in-memory ``captured.backtrace`` of D3's own pattern on that
capture -- ``backtrace_d3_us`` (match, backtrace and source resolution)

and prints the best-of-repeats per kernel.  The parent prints, per tree,
the median over rounds and the interquartile range (IQR) beside it, and,
given two trees, the ratio first/second of the medians and the number of
rounds in which the first tree's value is lower (``9/10``).  The two children
of a round run back to back, so that paired count cancels the host's load
drift, which quartile intervals over few rounds do not.  A ratio is marked
``~`` (within noise) unless there were at least ``MIN_ROUNDS`` (10) rounds,
one tree won at least 9/10 of them, rounded up, and the two quartile
intervals do not overlap: at 5 rounds identical code still came out 5/5 with
disjoint intervals.  One round has no spread (IQR ``-``, no count).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

#: Fewer paired rounds than this cannot call a change: every ratio is ``~``.
MIN_ROUNDS = 10

_CHILD = r"""
import json, time
from repro import PebbleSession
from repro.core.treepattern.matcher import match_item
from repro.core.treepattern.parser import parse_pattern
from repro.nested.json_io import item_from_json
from repro.nested.schema import infer_schema
from repro.warehouse.format import (
    Cursor, _item_json, decode_operator, encode_operator, encode_rows, iter_encoded_rows,
)
from repro.warehouse.index import walk_string_leaves
from repro.workloads import load_workload, scenario
from repro.workloads.twitter import generate_tweets

tweets = generate_tweets(scale=0.25, seed=1)
texts = [json.dumps(tweet) for tweet in tweets]
items = [item_from_json(text) for text in texts]
user = tweets[5]["user"]["id_str"]
wildcard = parse_pattern('root{//*="%s"}' % user)
navigating = parse_pattern('root{/user{/id_str="%s"}}' % user)
stored = [_item_json(item) for item in items]
if any(walk_string_leaves(items[0])):
    leaves = lambda: [list(walk_string_leaves(i)) for i in items]
else:  # a tree whose walk sees only parsed JSON
    leaves = lambda: [list(walk_string_leaves(json.loads(raw))) for raw in stored]


def best(fn, repeats=7, fresh=None):
    times = []
    for _ in range(repeats):
        args = () if fresh is None else (fresh(),)  # built outside the timer
        started = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - started)
    return min(times)


d3 = scenario("D3")
pebble = PebbleSession()
captured = pebble.run(d3.build(pebble.session, load_workload(d3.kind, 0.2)))
records = [encode_operator(provenance) for provenance in captured.execution.store.operators()]
rows = captured.execution.rows()
rows_payload = encode_rows(rows)

n = len(items)
hits = sum(match_item(wildcard, item) is not None for item in items)
print(json.dumps({
    "item_from_json_us": best(lambda: [item_from_json(t) for t in texts]) / n * 1e6,
    "match_wildcard_us": best(lambda: [match_item(wildcard, i) for i in items]) / n * 1e6,
    "match_navigating_us": best(lambda: [match_item(navigating, i) for i in items]) / n * 1e6,
    # Before anything types ``items``: first-time typing, then the same objects.
    "infer_first_ms": best(infer_schema, fresh=lambda: [item_from_json(t) for t in texts]) * 1e3,
    "infer_again_ms": best(lambda: infer_schema(items)) * 1e3,
    "encode_item_us": best(lambda: [_item_json(i) for i in items]) / n * 1e6,
    "string_leaves_us": best(leaves) / n * 1e6,
    "json_loads_us": best(lambda: [json.loads(t) for t in texts]) / n * 1e6,
    "decode_operator_us": best(lambda: [decode_operator(Cursor(r)) for r in records])
    / len(records) * 1e6,
    # A hop is a few µs: 100 per timing keep it above the clock's noise, and
    # counting (not keeping) the rows keeps the collector out of the timing.
    "hop_rows_us": best(lambda: [sum(1 for _ in iter_encoded_rows(Cursor(rows_payload)))
                                 for _ in range(100)]) / (100 * len(rows)) * 1e6,
    "backtrace_d3_us": best(lambda: captured.backtrace(d3.pattern), repeats=21) * 1e6,
    "d3_records": len(records), "d3_record_bytes": sum(map(len, records)), "d3_rows": len(rows),
    "tweets": n, "bytes_per_tweet": sum(map(len, texts)) // n, "wildcard_hits": hits,
}))
"""


def _measure(src: str) -> dict[str, float]:
    env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED="0")
    out = subprocess.run(
        [sys.executable, "-c", _CHILD], env=env, check=True, capture_output=True, text=True
    )
    return json.loads(out.stdout)


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(median, q1, q3)`` of one kernel's per-round values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return median, q1, q3


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", action="append", required=True, help="a src/ tree (give twice to compare)")
    parser.add_argument("--rounds", type=int, default=MIN_ROUNDS)
    args = parser.parse_args()
    runs: dict[str, list[dict[str, float]]] = {src: [] for src in args.src}
    for round_index in range(args.rounds):
        order = args.src if round_index % 2 == 0 else list(reversed(args.src))
        for src in order:
            runs[src].append(_measure(src))
    # Per tree and kernel: (median, first quartile, third quartile).
    spread = {src: {key: _quartiles([run[key] for run in rows]) for key in rows[0]}
              for src, rows in runs.items()}
    keys = [key for key in spread[args.src[0]] if key.endswith(("_us", "_ms"))]
    # Round by round, the two trees' values: their children ran back to back.
    pairs = list(zip(*(runs[src] for src in args.src)))
    print(f"{'kernel':<22}" + "".join(f"{src[-28:]:>30}{'iqr':>10}" for src in args.src)
          + ("   first/second" if len(args.src) == 2 else ""))
    for key in keys:
        row = f"{key:<22}"
        for src in args.src:
            median, low, high = spread[src][key]
            row += f"{median:>30.2f}" + (f"{high - low:>10.2f}" if args.rounds > 1 else f"{'-':>10}")
        if len(args.src) == 2:
            (first, low1, high1), (second, low2, high2) = (spread[src][key] for src in args.src)
            row += f"   {first / second:>10.2f}x"
            decided = False
            if args.rounds > 1:
                first_wins = sum(a[key] < b[key] for a, b in pairs)
                second_wins = sum(b[key] < a[key] for a, b in pairs)
                decided = (
                    args.rounds >= MIN_ROUNDS
                    and max(first_wins, second_wins) >= math.ceil(9 * args.rounds / 10)
                    and not (low1 <= high2 and low2 <= high1)
                )
                row += f" {first_wins}/{args.rounds}"
            row += "" if decided else " ~"
        print(row)
    shape = {key: median for key, (median, _, _) in spread[args.src[0]].items()}
    print(f"({int(shape['tweets'])} tweets, {int(shape['bytes_per_tweet'])} B each, "
          f"{int(shape['wildcard_hits'])} wildcard hits; D3: {int(shape['d3_records'])} operator "
          f"records, {int(shape['d3_record_bytes'])} B, {int(shape['d3_rows'])} rows; "
          f"median of {args.rounds} rounds)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
