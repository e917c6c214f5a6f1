"""Spans: the one clock every duration in the system is read from.

The evaluation chapters of the paper (capture overhead, eager-vs-lazy query
latency) reduce runs to single wall-clock numbers; fused stages, concurrent
serve requests and lazy segment decoding make those numbers unexplainable
without a time dimension.  A **span** is a named interval on one thread --
run -> physical stage -> partition task, warehouse segment reads, the phases
of a provenance query -- and it is the only timing primitive: explain-analyze
(:mod:`repro.obs.breakdown`) is a fold over a query's spans, and the run,
stage, capture-hook and serve seconds are the durations of their spans.

A span is recorded when a :class:`Recorder` is active on its thread
(:func:`recording`) or a process tracer is installed (:func:`tracing`); the
process :class:`Tracer` is the same recorder with a Chrome trace-event
(Perfetto / ``chrome://tracing``) and JSONL file sink.

Design constraints:

* **Zero cost when off.**  With neither active, :func:`span` returns one
  shared no-op context manager: no allocation, no clock read.  Only
  :func:`timed` -- the handful of sites whose seconds feed a metric whatever
  the tracing state -- reads the clock then.
* **Parents and self time.**  A thread-local stack of open spans gives each
  span its parent; a closing span adds its duration to the parent's
  ``child_seconds``, so ``self_seconds`` (exclusive time) is known without
  a second clock.
* **Thread safe.**  ``repro serve`` answers requests on worker threads;
  spans record the identifier of the thread they ran on and the tracer
  appends finished spans under a lock, so overlapping requests render
  correctly as separate tracks.  A recorder sees only its own thread.
* **No result perturbation.**  Spans only observe; the equivalence
  property tests pin traced == untraced results, stores, and backtraces.
"""

from __future__ import annotations

import itertools
import json
import threading
from time import perf_counter
from typing import Any, Iterator, TextIO

__all__ = [
    "Span",
    "Recorder",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "span",
    "timed",
    "count",
    "recording",
    "get_tracer",
    "set_tracer",
    "tracing",
    "chrome_trace_events",
]

#: Synthetic process id used in exported traces (one trace == one process).
TRACE_PID = 1

#: Process-wide monotone span ids.  Assigned when a recorded span opens; the
#: id is what histogram exemplars reference (``span_id="17"`` in the
#: OpenMetrics rendering), so a scraped tail latency points back at the
#: exact span in the exported timeline.  Unrecorded spans get none.
_SPAN_IDS = itertools.count(1)


class _ThreadState(threading.local):
    #: The recorders active on this thread, outermost first.
    recorders: tuple["Recorder", ...] = ()

    def __init__(self) -> None:
        #: Open spans of this thread, innermost last.
        self.stack: list[Span] = []


_THREAD = _ThreadState()


class Span:
    """One named interval on one thread: a context manager while open, a
    record once closed.  ``start`` / ``end`` are ``perf_counter`` seconds."""

    __slots__ = (
        "name", "category", "start", "end", "tid", "args",
        "parent", "child_seconds", "span_id", "_sinks",
    )

    def __init__(
        self,
        name: str,
        category: str,
        start: float = 0.0,
        end: float = 0.0,
        tid: int = 0,
        args: dict[str, Any] | None = None,
        sinks: tuple["Recorder", ...] = (),
    ):
        self.name = name
        self.category = category
        self.start = start
        self.end = end
        self.tid = tid
        self.args = {} if args is None else args
        #: The span that was open on this thread when this one opened.
        self.parent: Span | None = None
        #: Summed durations of the spans opened directly inside this one.
        self.child_seconds = 0.0
        #: Assigned on ``__enter__`` when a recorder keeps the span.
        self.span_id: int | None = None
        self._sinks = sinks

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Exclusive time: the duration minus the child spans' durations."""
        return self.end - self.start - self.child_seconds

    def set(self, **args: Any) -> None:
        """Attach further arguments to the span (e.g. counts known at exit)."""
        self.args.update(args)

    def __enter__(self) -> "Span":
        stack = _THREAD.stack
        if stack:
            self.parent = stack[-1]
        stack.append(self)
        self.tid = threading.get_ident()
        if self._sinks:
            self.span_id = next(_SPAN_IDS)
        self.start = perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.end = perf_counter()
        _THREAD.stack.pop()
        if self.parent is not None:
            self.parent.child_seconds += self.end - self.start
        for sink in self._sinks:
            sink._record(self)

    def __repr__(self) -> str:
        return (
            f"Span({self.name!r}, cat={self.category!r}, "
            f"{self.duration * 1000:.3f} ms, tid={self.tid})"
        )


class _NullSpan:
    """The shared no-op span: enter/exit/set do nothing."""

    __slots__ = ()

    #: No id while nothing records -- exemplar call sites pass it straight
    #: through to ``Histogram.observe``, which then records no exemplar.
    span_id = None

    def set(self, **args: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Recorder:
    """Collects finished spans and counters; thread-safe.

    Activated on one thread with :func:`recording`, it keeps that thread's
    spans (``QueryBreakdown`` is one); installed with :func:`tracing`, the
    :class:`Tracer` subclass keeps every thread's.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._spans: list[Span] = []
        #: Counters reported through :func:`count` while active.
        self.counters: dict[str, Any] = {}

    def _record(self, span: Span) -> None:
        with self._lock:
            self._spans.append(span)

    def count(self, **deltas: Any) -> None:
        """Merge counters: numbers add, everything else is last-write-wins."""
        for key, value in deltas.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                self.counters[key] = value
            else:
                self.counters[key] = self.counters.get(key, 0) + value

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
            return len(self._spans)


class NullTracer:
    """The disabled process tracer: nothing is recorded."""

    enabled = False

    def spans(self) -> list[Span]:
        return []

    def __repr__(self) -> str:
        return "NullTracer()"


NULL_TRACER = NullTracer()


class Tracer(Recorder):
    """The process recorder: every thread's spans, exported as Chrome trace
    JSON or JSONL."""

    def __init__(self, process_name: str = "repro"):
        super().__init__()
        self.process_name = process_name
        #: Timeline origin (``perf_counter`` units) exports are relative to.
        self._epoch = perf_counter()

    def __repr__(self) -> str:
        return f"Tracer({self.process_name!r}, {len(self)} spans)"

    # -- export --------------------------------------------------------------

    def chrome_events(self) -> list[dict[str, Any]]:
        """The trace-event list: metadata + paired ``B``/``E`` duration events."""
        return chrome_trace_events(self.spans(), self.process_name, self._epoch)

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
                "ts": span.start - self._epoch,
                "dur": span.duration,
                "tid": span.tid,
                "args": span.args,
            }
            path_or_handle.write(json.dumps(record) + "\n")


def chrome_trace_events(
    spans: list[Span], process_name: str = "repro", epoch: float = 0.0
) -> list[dict[str, Any]]:
    """Convert spans to Chrome trace-event dicts (microseconds after *epoch*).

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
    #: Real thread idents are large opaque integers; renumber for readability.
    tid_map = {tid: index + 1 for index, tid in enumerate(sorted({s.tid for s in spans}))}
    for mapped in tid_map.values():
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

    timed_events: list[tuple[float, int, dict[str, Any]]] = []
    for span in spans:
        tid = tid_map[span.tid]
        begin = {
            "ph": "B",
            "name": span.name,
            "cat": span.category,
            "pid": TRACE_PID,
            "tid": tid,
            "ts": _us(span.start - epoch),
            "args": span.args,
        }
        end = {
            "ph": "E",
            "name": span.name,
            "cat": span.category,
            "pid": TRACE_PID,
            "tid": tid,
            "ts": _us(span.end - epoch),
        }
        # Tie-breakers: at equal timestamps longer spans begin first and end
        # last, so a parent measured around a child never inverts.
        timed_events.append((begin["ts"], -round(_us(span.duration)), begin))
        timed_events.append((end["ts"], round(_us(span.duration)), end))
    timed_events.sort(key=lambda entry: (entry[2]["tid"], entry[0], entry[1]))
    events.extend(event for _, _, event in timed_events)
    return events


# -- opening spans -------------------------------------------------------------

_ACTIVE: Tracer | NullTracer = NULL_TRACER
_ACTIVE_LOCK = threading.Lock()


def _sinks() -> tuple[Recorder, ...]:
    recorders = _THREAD.recorders
    if _ACTIVE is NULL_TRACER:
        return recorders
    return recorders + (_ACTIVE,)  # type: ignore[operator]


def span(name: str, category: str = "run", **args: Any) -> Span | _NullSpan:
    """Open a span: ``with span("stage-0 read", "stage") as handle:``.

    Kept by this thread's recorders and the process tracer; with none of
    them on, the shared no-op handle.
    """
    sinks = _sinks()
    if not sinks:
        return _NULL_SPAN
    return Span(name, category, args=args, sinks=sinks)


def timed(name: str, category: str = "run", **args: Any) -> Span:
    """:func:`span` for a site whose ``duration`` feeds a metric: always a
    real span that reads the clock, recorded only as :func:`span` would be."""
    return Span(name, category, args=args, sinks=_sinks())


def count(**deltas: Any) -> None:
    """Report counters to this thread's innermost recorder; a no-op with none."""
    recorders = _THREAD.recorders
    if recorders:
        recorders[-1].count(**deltas)


class recording:
    """Context manager activating *recorder* on this thread for the block."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder

    def __enter__(self) -> Recorder:
        _THREAD.recorders = _THREAD.recorders + (self.recorder,)
        return self.recorder

    def __exit__(self, *exc_info: object) -> None:
        _THREAD.recorders = _THREAD.recorders[:-1]


# -- the process-wide tracer ---------------------------------------------------


def get_tracer() -> Tracer | NullTracer:
    """The installed process tracer (the shared no-op tracer by default)."""
    return _ACTIVE


def set_tracer(tracer: Tracer | NullTracer | None) -> Tracer | NullTracer:
    """Install *tracer* process-wide; returns the previously active one."""
    global _ACTIVE
    with _ACTIVE_LOCK:
        previous = _ACTIVE
        _ACTIVE = tracer if tracer is not None else NULL_TRACER
    return previous


class tracing:
    """Context manager installing *tracer* process-wide for the block.

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
