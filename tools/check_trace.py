#!/usr/bin/env python
"""Validate a Chrome trace-event JSON file (CI trace-artifact schema check).

Checks, exiting non-zero on the first violation:

* the file is JSON with a ``traceEvents`` list,
* every event carries ``ph``, ``name``, ``ts``, ``pid``, ``tid``,
* every ``B`` event has a matching ``E`` on the same (pid, tid) stack
  (same name, LIFO order, nothing left open),
* optionally (``--require NAME``) that a span with the given name prefix
  exists -- used to assert the traced workload actually exercised a phase.

:func:`phase_times` reads explain-analyze phases back from a trace (the
CI obs-smoke job compares them with what ``--analyze`` printed).

Usage::

    python tools/check_trace.py trace.json --require backtrace --require segment-read
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.obs.breakdown import PHASES  # noqa: E402
from repro.obs.tracer import iter_b_e_pairs  # noqa: E402

REQUIRED_KEYS = ("ph", "name", "ts", "pid", "tid")


def check(path: str, require: list[str]) -> list[str]:
    """Return a list of violations (empty means the trace is well-formed)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            payload = json.load(handle)
    except (OSError, json.JSONDecodeError) as error:
        return [f"{path}: not readable JSON: {error}"]

    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return [f"{path}: no traceEvents list"]
    if not events:
        return [f"{path}: traceEvents is empty"]

    errors = []
    for index, event in enumerate(events):
        missing = [key for key in REQUIRED_KEYS if key not in event]
        if missing:
            errors.append(f"event #{index} ({event.get('name')!r}) missing {missing}")
    if errors:
        return errors

    try:
        pairs = list(iter_b_e_pairs(events))
    except ValueError as error:
        return [f"{path}: unbalanced B/E events: {error}"]
    if not pairs:
        return [f"{path}: no duration (B/E) events"]

    names = {begin["name"] for begin, _ in pairs}
    for prefix in require:
        if not any(name.startswith(prefix) for name in names):
            errors.append(f"{path}: no span named {prefix!r}* (have: {sorted(names)})")
    return errors


def phase_times(events: list[dict]) -> dict[str, float]:
    """Explain-analyze phases (seconds) folded from trace events.

    Every span inside an ``analyze <kind>`` root books its self time to its
    category when that is a phase, else to its nearest phase ancestor's --
    the rule :class:`repro.obs.breakdown.QueryBreakdown` folds spans by,
    here rebuilt from the per-thread ``B``/``E`` nesting alone.
    """
    phases: dict[str, float] = {}
    stacks: dict[tuple[int, int], list[list]] = {}
    for event in events:
        if event.get("ph") not in ("B", "E"):
            continue
        stack = stacks.setdefault((event["pid"], event["tid"]), [])
        if event["ph"] == "B":
            stack.append([event, 0.0])
            continue
        begin, child_us = stack.pop()
        duration = event["ts"] - begin["ts"]
        if stack:
            stack[-1][1] += duration
        chain = [begin] + [frame[0] for frame in reversed(stack)]
        if not any(span["name"].startswith("analyze ") for span in chain):
            continue
        owner = next((span["cat"] for span in chain if span["cat"] in PHASES), "other")
        phases[owner] = phases.get(owner, 0.0) + (duration - child_us) / 1e6
    return phases


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", nargs="+", help="trace JSON file(s) to validate")
    parser.add_argument(
        "--require",
        action="append",
        default=[],
        metavar="NAME",
        help="require a span whose name starts with NAME (repeatable)",
    )
    args = parser.parse_args(argv)
    failed = False
    for path in args.trace:
        errors = check(path, args.require)
        if errors:
            failed = True
            for error in errors:
                print(f"FAIL {error}", file=sys.stderr)
        else:
            print(f"ok {path}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
