"""Measurement plumbing shared by the workloads.

* :class:`Recorder` -- the benchmark-owned span recorder (name, layer, start,
  end, parent, op id; kept in memory, exported as Chrome trace events).  A
  layer's time is the *self* time of its spans: duration minus children.
* :class:`Cycle` -- one pass over a workload's fixed op list: every op is
  timed whether or not spans are recorded, so end-to-end latencies come
  from untraced cycles and layer numbers from traced ones.
* :func:`measure` -- runs cycles until the time budget and op floor are met;
  in trace mode untraced and traced cycles alternate, so tracing overhead
  is the ratio of two interleaved medians.
* canonical answer digests, the correctness oracle's currency.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import math
import os
import re
import resource
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter
from typing import Any, Iterable

__all__ = [
    "Cycle",
    "NULL_RECORDER",
    "OpRecord",
    "Recorder",
    "Span",
    "backtrace_digest",
    "backtrace_json_digest",
    "disk_usage",
    "forward_digest",
    "measure",
    "median",
    "peak_rss_mb",
    "reset_peak_rss",
    "percentile",
    "timed_setups",
]


# -- statistics ---------------------------------------------------------------


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def percentile(values: Iterable[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..1); 0.0 for no samples."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


# -- spans --------------------------------------------------------------------


class Span:
    """One timed interval at a layer boundary."""

    __slots__ = ("id", "name", "layer", "start", "end", "parent", "op", "thread", "child_seconds")

    def __init__(
        self,
        span_id: int,
        name: str,
        layer: str,
        start: float,
        parent: "Span | None",
        op: str | None,
    ):
        self.id = span_id
        self.name = name
        self.layer = layer
        self.start = start
        self.end = start
        self.parent = parent.id if parent is not None else None
        self.op = op if op is not None else (parent.op if parent is not None else None)
        self.thread = threading.get_ident()
        #: Time covered by direct children (they never overlap: one thread).
        self.child_seconds = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return max(0.0, self.seconds - self.child_seconds)


class _OpenSpan:
    __slots__ = ("_recorder", "_span", "_parent")

    def __init__(self, recorder: "Recorder", name: str, layer: str, op: str | None):
        stack = recorder._stack()
        self._recorder = recorder
        self._parent = stack[-1] if stack else None
        self._span = Span(next(recorder._ids), name, layer, 0.0, self._parent, op)

    def __enter__(self) -> Span:
        self._recorder._stack().append(self._span)
        self._span.start = perf_counter()
        return self._span

    def __exit__(self, *exc_info: object) -> bool:
        span = self._span
        span.end = perf_counter()
        self._recorder._stack().pop()
        if self._parent is not None:
            self._parent.child_seconds += span.seconds
        self._recorder.spans.append(span)
        return False


class Recorder:
    """In-memory span recorder; one per traced run, shared by client threads."""

    enabled = True

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[Span]:
        try:
            return self._local.stack
        except AttributeError:
            self._local.stack = []
            return self._local.stack

    def span(self, name: str, layer: str, op: str | None = None) -> _OpenSpan:
        return _OpenSpan(self, name, layer, op)

    def attach(self, parent: Span, name: str, layer: str, start: float, seconds: float) -> Span:
        """Add a child whose duration something else measured.

        ``QueryBreakdown`` phases and the server time of a response envelope
        arrive as durations; laying them out inside their parent keeps the
        rule "a layer's time is its spans' self time" without a second clock.
        """
        span = Span(next(self._ids), name, layer, start, parent, None)
        span.thread = parent.thread
        span.end = start + seconds
        parent.child_seconds += seconds
        self.spans.append(span)
        return span

    def by_name(self, name: str) -> list[Span]:
        return [span for span in self.spans if span.name == name]

    def chrome_trace(self) -> dict[str, Any]:
        """The spans as Chrome trace-event JSON (``chrome://tracing``, Perfetto)."""
        origin = min((span.start for span in self.spans), default=0.0)
        threads = {ident: index for index, ident in enumerate(sorted({s.thread for s in self.spans}))}
        events = [
            {
                "name": span.name,
                "cat": span.layer,
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.seconds * 1e6,
                "pid": 1,
                "tid": threads[span.thread],
                "args": {
                    "id": span.id,
                    "parent": span.parent,
                    "workload": self.workload,
                    "op": span.op,
                    "self_us": span.self_seconds * 1e6,
                },
            }
            for span in sorted(self.spans, key=lambda s: s.start)
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


class _NullSpan:
    __slots__ = ()

    def __enter__(self) -> None:
        return None

    def __exit__(self, *exc_info: object) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class _NullRecorder:
    """Tracing off: ``span()`` hands out one shared no-op context."""

    enabled = False

    def span(self, name: str, layer: str, op: str | None = None) -> _NullSpan:
        return _NULL_SPAN


NULL_RECORDER = _NullRecorder()


# -- ops and cycles -----------------------------------------------------------


class OpRecord:
    """One executed op: kind, wall seconds, error text, workload extras."""

    __slots__ = ("kind", "slot", "seconds", "error", "info")

    def __init__(self, kind: str, slot: int):
        self.kind = kind
        #: Position in the cycle's fixed op list: the same slot of every
        #: cycle is the same op, so its repeats can be summarised together.
        self.slot = slot
        self.seconds = 0.0
        self.error: str | None = None
        #: Whatever the workload needs for verification and layer numbers.
        self.info: dict[str, Any] = {}


class _OpenOp:
    __slots__ = ("_cycle", "_record", "_span", "_start")

    def __init__(self, cycle: "Cycle", kind: str, slot: int):
        self._cycle = cycle
        self._record = OpRecord(kind, slot)
        self._span = cycle.rec.span(kind, "bench", op=f"{cycle.index}.{slot}")

    def __enter__(self) -> OpRecord:
        self._start = perf_counter()
        self._span.__enter__()
        return self._record

    def __exit__(self, exc_type: object, exc: BaseException | None, tb: object) -> bool:
        self._span.__exit__(exc_type, exc, tb)
        record = self._record
        record.seconds = perf_counter() - self._start
        self._cycle.ops.append(record)
        if isinstance(exc, Exception):
            # An op that raised is a failed op, not a failed benchmark.
            record.error = f"{type(exc).__name__}: {exc}"
            self._cycle.fail(f"{record.kind} raised {record.error}")
            return True
        return False


class Cycle:
    """One pass over a workload's fixed op list."""

    def __init__(self, index: int, rec: "Recorder | _NullRecorder"):
        self.index = index
        self.rec = rec
        self.traced = rec.enabled
        self.ops: list[OpRecord] = []
        #: First op start to last op end, set by the workload.
        self.wall = 0.0
        self.failed = 0
        #: Non-op measurements of this cycle (live queries, finish, ...).
        self.extra: dict[str, Any] = {}
        #: Artefacts kept for :meth:`verify`; dropped afterwards.
        self.kept: list[Any] = []
        self._slots = itertools.count()
        self._lock = threading.Lock()

    def op(self, kind: str, slot: int | None = None) -> _OpenOp:
        """Time one op; *slot* defaults to the order ops are opened in."""
        return _OpenOp(self, kind, next(self._slots) if slot is None else slot)

    def fail(self, reason: str) -> None:
        with self._lock:  # client threads fail ops concurrently
            self.failed += 1
            report = self.failed <= 3
        if report:
            print(f"  FAILED (cycle {self.index}): {reason}", file=sys.stderr)


def measure(workload: Any, seconds: float, min_ops: int, recorder: Recorder | None) -> list[Cycle]:
    """Run cycles until *seconds* of timed work and *min_ops* ops are done.

    Only the cycles' own walls count against *seconds*; verification runs
    between cycles, outside every timed window.  With a *recorder*, odd
    cycles are traced and even ones are not.
    """
    gc.collect()
    gc.freeze()
    reset_peak_rss()
    cycles: list[Cycle] = []
    timed = 0.0
    ops = 0
    while True:
        traced = recorder is not None and len(cycles) % 2 == 1
        cycle = Cycle(len(cycles), recorder if traced else NULL_RECORDER)
        workload.cycle(cycle)
        workload.verify(cycle)
        cycle.kept.clear()
        cycles.append(cycle)
        timed += cycle.wall
        ops += len(cycle.ops)
        enough = ops >= min_ops and (recorder is None or len(cycles) >= 2)
        if enough and timed + median(c.wall for c in cycles) / 2 >= seconds:
            return cycles


def timed_setups(workload: Any, repeats: int) -> list[float]:
    """Set the workload up *repeats* times (tearing down in between)."""
    samples = []
    for attempt in range(repeats):
        if attempt:
            workload.teardown()
        gc.collect()
        start = perf_counter()
        workload.setup()
        samples.append(perf_counter() - start)
    return samples


# -- process and disk accounting ---------------------------------------------


def reset_peak_rss() -> None:
    """Restart the kernel's resident-set high-water mark of this process, so
    the peak covers the timed section and not set-up's transient inputs."""
    try:
        Path("/proc/self/clear_refs").write_text("5")
    except OSError:
        pass  # not Linux: the peak then includes set-up


def peak_rss_mb(pid: int | str = "self") -> float:
    """Resident-set high-water mark (``VmHWM``) of a process, in MB."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0
    except (OSError, AttributeError):
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def disk_usage(root: Path) -> tuple[int, int]:
    """``(bytes, files)`` of every regular file under *root*."""
    total = files = 0
    for directory, _, names in os.walk(root):
        for name in names:
            total += os.path.getsize(os.path.join(directory, name))
            files += 1
    return total, files


# -- canonical answer digests -------------------------------------------------


def _digest(canonical: Any) -> str:
    text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha1(text.encode("utf-8")).hexdigest()


def backtrace_digest(result: Any) -> str:
    """Digest of a library ``ProvenanceResult``: matched outputs plus, per
    source, every input id with its contributing and influencing paths."""
    return _digest(
        {
            "matched": sorted(result.matched_output_ids),
            "sources": sorted(
                [
                    source.oid,
                    source.name,
                    [
                        [entry.item_id, entry.contributing_paths(), entry.influencing_paths()]
                        for entry in source
                    ],
                ]
                for source in result.sources
            ),
        }
    )


def backtrace_json_digest(block: dict[str, Any]) -> str:
    """The same digest from the ``result`` block of a ``/v1/query`` answer."""
    return _digest(
        {
            "matched": sorted(block["matched_output_ids"]),
            "sources": sorted(
                [
                    source["oid"],
                    source["name"],
                    [
                        [entry["id"], entry["contributing"], entry["influencing"]]
                        for entry in sorted(source["entries"], key=lambda e: e["id"])
                    ],
                ]
                for source in block["sources"]
            ),
        }
    )


def forward_digest(sources: Iterable[dict[str, Any]], output_ids: Iterable[int]) -> str:
    """Digest of one forward trace: matched input ids per source, derived
    output ids.  Sources that matched nothing are dropped, so a SAR entry
    (which omits them) and a forward answer (which lists them) agree."""
    return _digest(
        {
            "sources": sorted(
                [source["oid"], source["name"], sorted(source["ids"])]
                for source in sources
                if source["ids"]
            ),
            "outputs": sorted(output_ids),
        }
    )
