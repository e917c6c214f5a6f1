"""Span-based tracing: where a run spends its time, as an inspectable artifact.

The evaluation chapters of the paper (capture overhead, eager-vs-lazy query
latency) reduce runs to single wall-clock numbers; concurrent stage execution
(thread-pool scheduler) and lazy segment decoding make those numbers
unexplainable without a time dimension.  The tracer records **hierarchical
spans** -- run -> physical stage -> partition task -> operator, plus warehouse
segment reads and backtrace query phases -- and exports them as Chrome
trace-event JSON (loadable in Perfetto / ``chrome://tracing``) or JSONL.

Design constraints:

* **Zero cost when off.**  The process-wide current tracer defaults to
  :data:`NULL_TRACER`, whose ``span()`` returns one shared no-op context
  manager; instrumented code pays a function call and nothing else.  The
  bench ablation ladder carries a ``+trace`` row that pins this.
* **Thread safe.**  The thread-pool scheduler runs partition tasks of one
  stage concurrently; spans record the identifier of the thread they ran on
  and the tracer appends finished spans under a lock, so overlapping stages
  render correctly as separate tracks.
* **No result perturbation.**  Tracing only observes; the equivalence
  property tests pin traced == untraced results, stores, and backtraces.

Spans nest implicitly: Chrome's ``B``/``E`` duration events are matched per
thread by timestamp order, so a span opened inside another span on the same
thread renders as its child without the tracer tracking parents.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from typing import Any, Iterator, TextIO

__all__ = [
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "tracing",
    "chrome_trace_events",
]

#: Synthetic process id used in exported traces (one trace == one process).
TRACE_PID = 1

#: Process-wide monotone span ids.  Assigned when a live span opens; the
#: id is what histogram exemplars reference (``span_id="17"`` in the
#: OpenMetrics rendering), so a scraped tail latency points back at the
#: exact span in the exported timeline.  The null tracer assigns none.
_SPAN_IDS = itertools.count(1)


class Span:
    """One finished span: a named interval on one thread."""

    __slots__ = ("name", "category", "start", "end", "tid", "args")

    def __init__(
        self,
        name: str,
        category: str,
        start: float,
        end: float,
        tid: int,
        args: dict[str, Any],
    ):
        self.name = name
        self.category = category
        #: Start/end offsets in seconds relative to the tracer's epoch.
        self.start = start
        self.end = end
        self.tid = tid
        self.args = args

    @property
    def duration(self) -> float:
        return self.end - self.start

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, cat={self.category!r}, "
            f"{self.duration * 1000:.3f} ms, tid={self.tid})"
        )


class _SpanHandle:
    """Context manager for one live span; finishes into the owning tracer."""

    __slots__ = ("_tracer", "_name", "_category", "_args", "_start", "_tid", "span_id")

    def __init__(self, tracer: "Tracer", name: str, category: str, args: dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._category = category
        self._args = args
        #: Assigned on ``__enter__``; ``None`` before the span opens.
        self.span_id: int | None = None

    def set(self, **args: Any) -> None:
        """Attach further arguments to the span (e.g. counts known at exit)."""
        self._args.update(args)

    def __enter__(self) -> "_SpanHandle":
        self._tid = threading.get_ident()
        self.span_id = next(_SPAN_IDS)
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        end = time.perf_counter()
        epoch = self._tracer._epoch
        self._tracer._record(
            Span(
                self._name,
                self._category,
                self._start - epoch,
                end - epoch,
                self._tid,
                self._args,
            )
        )


class _NullSpanHandle:
    """The shared no-op span handle: enter/exit/set do nothing."""

    __slots__ = ()

    #: No id while tracing is off -- exemplar call sites pass it straight
    #: through to ``Histogram.observe``, which then records no exemplar.
    span_id = None

    def set(self, **args: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpanHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpanHandle()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    Instrumented code calls :func:`get_tracer` unconditionally; with this
    tracer active the per-call cost is one attribute lookup and one shared
    object return -- no allocation, no lock, no clock read.
    """

    enabled = False

    def span(self, name: str, category: str = "run", **args: Any) -> _NullSpanHandle:
        return _NULL_SPAN

    def instant(self, name: str, category: str = "run", **args: Any) -> None:
        pass

    def spans(self) -> list[Span]:
        return []

    def __repr__(self) -> str:
        return "NullTracer()"


NULL_TRACER = NullTracer()


class Tracer:
    """Records spans; thread-safe; exports Chrome trace JSON and JSONL."""

    enabled = True

    def __init__(self, process_name: str = "repro"):
        self.process_name = process_name
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        self._instants: list[Span] = []
        #: Timeline origin (``perf_counter`` units) spans are relative to.
        self._epoch = time.perf_counter()

    # -- recording -----------------------------------------------------------

    def span(self, name: str, category: str = "run", **args: Any) -> _SpanHandle:
        """Open a span; use as ``with tracer.span("stage-0", "stage"):``."""
        return _SpanHandle(self, name, category, args)

    def instant(self, name: str, category: str = "run", **args: Any) -> None:
        """Record a zero-duration marker event."""
        now = time.perf_counter() - self._epoch
        span = Span(name, category, now, now, threading.get_ident(), args)
        with self._lock:
            self._instants.append(span)

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    # -- reading -------------------------------------------------------------

    def spans(self) -> list[Span]:
        """Snapshot of the finished spans, in completion order."""
        with self._lock:
            return list(self._spans)

    def find(self, category: str | None = None, name: str | None = None) -> list[Span]:
        """Finished spans filtered by category and/or name substring."""
        return [
            span
            for span in self.spans()
            if (category is None or span.category == category)
            and (name is None or name in span.name)
        ]

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans) + len(self._instants)

    def __repr__(self) -> str:
        with self._lock:
            return f"Tracer({self.process_name!r}, {len(self._spans)} spans)"

    # -- export --------------------------------------------------------------

    def chrome_events(self) -> list[dict[str, Any]]:
        """The trace-event list: metadata + paired ``B``/``E`` duration events."""
        with self._lock:
            spans = list(self._spans)
            instants = list(self._instants)
        return chrome_trace_events(spans, instants, self.process_name)

    def write_chrome_trace(self, path: str) -> None:
        """Write a Perfetto/``chrome://tracing``-loadable JSON file."""
        payload = {
            "traceEvents": self.chrome_events(),
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs", "process": self.process_name},
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)
            handle.write("\n")

    def write_jsonl(self, path_or_handle: str | TextIO) -> None:
        """Write one JSON object per finished span (ts/dur in seconds)."""
        if isinstance(path_or_handle, str):
            with open(path_or_handle, "w", encoding="utf-8") as handle:
                self.write_jsonl(handle)
            return
        for span in self.spans():
            record = {
                "name": span.name,
                "cat": span.category,
                "ts": span.start,
                "dur": span.duration,
                "tid": span.tid,
                "args": span.args,
            }
            path_or_handle.write(json.dumps(record) + "\n")


def chrome_trace_events(
    spans: list[Span],
    instants: list[Span] | None = None,
    process_name: str = "repro",
) -> list[dict[str, Any]]:
    """Convert spans to Chrome trace-event dicts (timestamps in microseconds).

    Every duration is emitted as a ``B``/``E`` pair; per thread the pairs are
    ordered by timestamp with ties broken so that enclosing spans open first
    and close last, which is what the viewers use to reconstruct nesting.
    """
    events: list[dict[str, Any]] = [
        {
            "ph": "M",
            "name": "process_name",
            "pid": TRACE_PID,
            "tid": 0,
            "ts": 0,
            "args": {"name": process_name},
        }
    ]
    tids = sorted({span.tid for span in spans} | {span.tid for span in (instants or [])})
    #: Real thread idents are large opaque integers; renumber for readability.
    tid_map = {tid: index + 1 for index, tid in enumerate(tids)}
    for tid, mapped in tid_map.items():
        events.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": TRACE_PID,
                "tid": mapped,
                "ts": 0,
                "args": {"name": f"thread-{mapped}"},
            }
        )

    def _us(seconds: float) -> float:
        return seconds * 1_000_000

    timed: list[tuple[float, int, dict[str, Any]]] = []
    for span in spans:
        tid = tid_map[span.tid]
        begin = {
            "ph": "B",
            "name": span.name,
            "cat": span.category,
            "pid": TRACE_PID,
            "tid": tid,
            "ts": _us(span.start),
            "args": span.args,
        }
        end = {
            "ph": "E",
            "name": span.name,
            "cat": span.category,
            "pid": TRACE_PID,
            "tid": tid,
            "ts": _us(span.end),
        }
        # Tie-breakers: at equal timestamps longer spans begin first and end
        # last, so a parent measured around a child never inverts.
        timed.append((_us(span.start), -round(_us(span.duration)), begin))
        timed.append((_us(span.end), round(_us(span.duration)), end))
    for span in instants or []:
        timed.append(
            (
                _us(span.start),
                0,
                {
                    "ph": "i",
                    "name": span.name,
                    "cat": span.category,
                    "pid": TRACE_PID,
                    "tid": tid_map[span.tid],
                    "ts": _us(span.start),
                    "s": "t",
                    "args": span.args,
                },
            )
        )
    timed.sort(key=lambda entry: (entry[2]["tid"], entry[0], entry[1]))
    events.extend(event for _, _, event in timed)
    return events


# -- the process-wide current tracer ------------------------------------------

_ACTIVE: Tracer | NullTracer = NULL_TRACER
_ACTIVE_LOCK = threading.Lock()


def get_tracer() -> Tracer | NullTracer:
    """The currently active tracer (the shared no-op tracer by default)."""
    return _ACTIVE


def set_tracer(tracer: Tracer | NullTracer | None) -> Tracer | NullTracer:
    """Install *tracer* process-wide; returns the previously active one."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        previous = _ACTIVE
        _ACTIVE = tracer if tracer is not None else NULL_TRACER
    return previous


class tracing:
    """Context manager activating *tracer* for the enclosed block.

    ::

        tracer = Tracer()
        with tracing(tracer):
            execution = pipeline.execute(capture=True)
        tracer.write_chrome_trace("run.json")
    """

    def __init__(self, tracer: Tracer | NullTracer):
        self.tracer = tracer
        self._previous: Tracer | NullTracer | None = None

    def __enter__(self) -> Tracer | NullTracer:
        self._previous = set_tracer(self.tracer)
        return self.tracer

    def __exit__(self, *exc_info: object) -> None:
        set_tracer(self._previous)


def iter_b_e_pairs(events: list[dict[str, Any]]) -> Iterator[tuple[dict, dict]]:
    """Pair ``B``/``E`` events per (pid, tid) stack; raises on imbalance.

    Shared by the test-suite and ``tools/check_trace.py`` well-formedness
    checks.
    """
    stacks: dict[tuple[int, int], list[dict[str, Any]]] = {}
    for event in events:
        phase = event.get("ph")
        if phase not in ("B", "E"):
            continue
        key = (event["pid"], event["tid"])
        stack = stacks.setdefault(key, [])
        if phase == "B":
            stack.append(event)
        else:
            if not stack:
                raise ValueError(f"E event without open B on {key}: {event.get('name')}")
            begin = stack.pop()
            if begin.get("name") != event.get("name"):
                raise ValueError(
                    f"mismatched B/E pair on {key}: "
                    f"{begin.get('name')!r} closed by {event.get('name')!r}"
                )
            yield begin, event
    for key, stack in stacks.items():
        if stack:
            raise ValueError(
                f"unclosed B events on {key}: {[event.get('name') for event in stack]}"
            )
