"""Explain-analyze accounting: where one provenance query spends its time.

Aggregate histograms (``repro.obs.metrics``) say how queries behave on
average; a :class:`QueryBreakdown` says where *this* query's wall time went:
pattern matching, index probes, segment decoding, the association closure,
source resolution.  The breakdown is the payload behind ``repro warehouse
query --analyze``, ``repro trace-forward --analyze``, the ``"analyze"``
field of served queries, and the slow-query log.

Two design constraints mirror the tracer's:

* **Exclusive phases that sum to the total.**  Phases are kept on a stack
  and time is flushed into exactly one bucket at every transition, so
  nesting ``segment_decode`` inside ``closure`` moves time out of the
  parent instead of double-counting it.  ``sum(phases.values())`` equals
  ``total_seconds`` up to float rounding -- the property the acceptance
  tests pin at 5%.
* **Zero cost when off.**  Instrumented code calls :func:`get_breakdown`
  unconditionally; the default is a shared no-op whose ``phase()`` returns
  one shared null handle -- no allocation, no clock read.  The active
  breakdown is **thread-local** (a query runs on one thread), so concurrent
  serve requests each see their own.

A breakdown only observes: query answers are byte-identical with and
without one attached.
"""

from __future__ import annotations

import threading
import time
from typing import Any

__all__ = [
    "PHASES",
    "QueryBreakdown",
    "NullBreakdown",
    "NULL_BREAKDOWN",
    "get_breakdown",
    "activate",
    "render_breakdown",
]

#: Canonical phase order (rendering and JSON use it; unknown phases append).
PHASES: tuple[str, ...] = (
    "load",
    "pattern_match",
    "index_probe",
    "segment_decode",
    "closure",
    "source_resolution",
    "other",
)


class _PhaseHandle:
    """Context manager for one phase interval on the owning breakdown."""

    __slots__ = ("_breakdown", "_name")

    def __init__(self, breakdown: "QueryBreakdown", name: str):
        self._breakdown = breakdown
        self._name = name

    def __enter__(self) -> "_PhaseHandle":
        self._breakdown._push(self._name)
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._breakdown._pop()


class _NullPhaseHandle:
    """The shared no-op phase handle."""

    __slots__ = ()

    def __enter__(self) -> "_NullPhaseHandle":
        return self

    def __exit__(self, *exc_info: object) -> None:
        pass


_NULL_PHASE = _NullPhaseHandle()


class NullBreakdown:
    """The disabled breakdown: every operation is a no-op."""

    enabled = False

    def phase(self, name: str) -> _NullPhaseHandle:
        return _NULL_PHASE

    def count(self, **deltas: Any) -> None:
        pass

    def __repr__(self) -> str:
        return "NullBreakdown()"


NULL_BREAKDOWN = NullBreakdown()


class QueryBreakdown:
    """Per-phase wall time plus the counters of one provenance query.

    Usage -- callers hand one to the layer that drives it::

        breakdown = QueryBreakdown()
        result, metrics = warehouse.backtrace(run_id, pattern, breakdown=breakdown)
        breakdown.to_json()

    and the driving layer (``Warehouse.backtrace``, the serve tier) brackets
    the query with ``start()`` / ``activate(...)`` / ``finish()``; the
    instrumented code inside opens phases on :func:`get_breakdown`.

    Between ``start()`` and ``finish()`` every instant belongs to exactly
    one phase: the innermost open ``phase(...)``, or ``"other"`` when none
    is open.
    """

    enabled = True

    __slots__ = ("phases", "counters", "total_seconds", "_stack", "_mark", "_origin")

    def __init__(self) -> None:
        self.phases: dict[str, float] = {}
        #: Query-shape counters (segments decoded, cache hits, rows visited,
        #: index vs scan verdict, ...) -- whatever the instrumented layers
        #: report via :meth:`count`.
        self.counters: dict[str, Any] = {}
        self.total_seconds = 0.0
        self._stack: list[str] = []
        self._mark: float | None = None
        self._origin: float | None = None

    # -- the phase stack -------------------------------------------------------

    def start(self) -> "QueryBreakdown":
        """Open the measured window; time starts accruing to ``other``."""
        now = time.perf_counter()
        self._origin = now
        self._mark = now
        return self

    def _flush(self, now: float) -> None:
        if self._mark is None:  # never started: tolerate stray phases
            self._mark = now
            return
        bucket = self._stack[-1] if self._stack else "other"
        elapsed = now - self._mark
        if elapsed > 0.0:
            self.phases[bucket] = self.phases.get(bucket, 0.0) + elapsed
        self._mark = now

    def _push(self, name: str) -> None:
        self._flush(time.perf_counter())
        self._stack.append(name)

    def _pop(self) -> None:
        self._flush(time.perf_counter())
        if self._stack:
            self._stack.pop()

    def phase(self, name: str) -> _PhaseHandle:
        """Open phase *name*; nested phases pause (not double-count) parents."""
        return _PhaseHandle(self, name)

    def finish(self) -> "QueryBreakdown":
        """Close the window; sets :attr:`total_seconds` (== phase sum)."""
        now = time.perf_counter()
        self._flush(now)
        self._stack.clear()
        if self._origin is not None:
            self.total_seconds = now - self._origin
        return self

    # -- counters --------------------------------------------------------------

    def count(self, **deltas: Any) -> None:
        """Merge counters: numbers add, everything else is last-write-wins."""
        for key, value in deltas.items():
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                self.counters[key] = value
            else:
                self.counters[key] = self.counters.get(key, 0) + value

    # -- export ----------------------------------------------------------------

    def phase_sum(self) -> float:
        return sum(self.phases.values())

    def to_json(self) -> dict[str, Any]:
        """The ``"analyze"`` payload: total, ordered phases, counters."""
        ordered = {name: self.phases[name] for name in PHASES if name in self.phases}
        for name in sorted(self.phases):
            if name not in ordered:
                ordered[name] = self.phases[name]
        return {
            "total_seconds": self.total_seconds,
            "phases": ordered,
            "counters": dict(sorted(self.counters.items())),
        }

    def __repr__(self) -> str:
        return f"QueryBreakdown({self.total_seconds * 1000:.3f} ms, {len(self.phases)} phases)"


def render_breakdown(payload: dict[str, Any]) -> str:
    """Human rendering of a :meth:`QueryBreakdown.to_json` payload."""
    total = payload.get("total_seconds", 0.0)
    lines = [f"query breakdown: {total * 1000:.3f} ms total"]
    for name, seconds in payload.get("phases", {}).items():
        share = (seconds / total * 100) if total else 0.0
        lines.append(f"  {name:<18} {seconds * 1000:>10.3f} ms  {share:5.1f}%")
    counters = payload.get("counters", {})
    if counters:
        lines.append("  counters: " + ", ".join(
            f"{key}={value}" for key, value in counters.items()
        ))
    return "\n".join(lines)


# -- the thread-local active breakdown ----------------------------------------

_ACTIVE = threading.local()


def get_breakdown() -> "QueryBreakdown | NullBreakdown":
    """This thread's active breakdown (the shared no-op by default)."""
    return getattr(_ACTIVE, "breakdown", NULL_BREAKDOWN)


class activate:
    """Context manager installing *breakdown* as this thread's active one."""

    def __init__(self, breakdown: QueryBreakdown | NullBreakdown):
        self.breakdown = breakdown
        self._previous: QueryBreakdown | NullBreakdown | None = None

    def __enter__(self) -> QueryBreakdown | NullBreakdown:
        self._previous = get_breakdown()
        _ACTIVE.breakdown = self.breakdown
        return self.breakdown

    def __exit__(self, *exc_info: object) -> None:
        _ACTIVE.breakdown = self._previous
