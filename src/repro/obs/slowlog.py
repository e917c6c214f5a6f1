"""Slow-query capture: over-budget queries, with breakdowns, in a ring buffer.

``REPRO_SLOW_QUERY_MS`` sets the budget: any backtrace or forward trace
whose wall time meets or exceeds it is logged as a structured
``slow-query`` event (:mod:`repro.obs.log`) carrying its full
:class:`~repro.obs.breakdown.QueryBreakdown`, and appended to a bounded
in-process ring buffer.  The ring is what ``GET /debug/slow`` and ``repro
stats --slow`` expose: the most recent over-budget queries of this process,
newest first, without scraping log files.

The threshold is read from the environment per query so long-lived servers
can be tuned without a restart (``0`` captures everything -- the smoke-test
setting; unset/empty disables capture entirely and the fast path pays one
``os.environ.get``).

Every layer that answers a provenance question -- ``Warehouse.backtrace``,
``trace_forward``, the serve tier's four request kinds -- runs it under
:func:`explained`, the one place that decides whether a
:class:`~repro.obs.breakdown.QueryBreakdown` is collected and offers the
finished query to the ring.
"""

from __future__ import annotations

import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Iterator

from repro.obs.breakdown import QueryBreakdown
from repro.obs.log import get_logger
from repro.obs.tracer import recording, span

__all__ = [
    "SLOW_QUERY_ENV",
    "DEFAULT_RING_SIZE",
    "SlowQueryLog",
    "get_slow_log",
    "set_slow_log",
    "slow_threshold_seconds",
    "observe_query",
    "ExplainedQuery",
    "explained",
    "slow_log_payload",
]

SLOW_QUERY_ENV = "REPRO_SLOW_QUERY_MS"

#: Entries the in-process ring keeps (oldest evicted first).
DEFAULT_RING_SIZE = 128


def slow_threshold_seconds() -> float | None:
    """The current budget in seconds, or ``None`` when capture is off."""
    raw = os.environ.get(SLOW_QUERY_ENV)
    if raw is None or not raw.strip():
        return None
    try:
        millis = float(raw)
    except ValueError:
        return None
    if millis < 0:
        return None
    return millis / 1000.0


class SlowQueryLog:
    """A thread-safe bounded ring of slow-query records, newest first."""

    def __init__(self, maxlen: int = DEFAULT_RING_SIZE):
        self._entries: deque[dict[str, Any]] = deque(maxlen=maxlen)
        self._lock = threading.Lock()
        self._total = 0

    def record(self, entry: dict[str, Any]) -> None:
        with self._lock:
            self._entries.append(entry)
            self._total += 1

    def snapshot(self) -> list[dict[str, Any]]:
        """The retained entries, newest first."""
        with self._lock:
            return list(reversed(self._entries))

    @property
    def total(self) -> int:
        """Slow queries observed since process start (evictions included)."""
        with self._lock:
            return self._total

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._total = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        return f"SlowQueryLog({len(self)} retained, {self.total} total)"


# -- the process-wide ring -----------------------------------------------------

_RING = SlowQueryLog()
_RING_LOCK = threading.Lock()


def get_slow_log() -> SlowQueryLog:
    """The process-wide slow-query ring buffer."""
    return _RING


def set_slow_log(ring: SlowQueryLog) -> SlowQueryLog:
    """Swap the process-wide ring (test isolation); returns the previous one."""
    global _RING
    with _RING_LOCK:
        previous = _RING
        _RING = ring
    return previous


def observe_query(
    kind: str,
    run_id: str,
    pattern: str,
    seconds: float,
    breakdown: dict[str, Any] | None = None,
    threshold: float | None = None,
) -> bool:
    """Record one finished query if it blew the budget; ``True`` when it did.

    *threshold* defaults to the environment's current value; callers that
    already read it (to decide whether to build a breakdown) pass it through
    so one query sees one consistent budget.
    """
    if threshold is None:
        threshold = slow_threshold_seconds()
    if threshold is None or seconds < threshold:
        return False
    entry: dict[str, Any] = {
        "ts": time.time(),
        "kind": kind,
        "run_id": run_id,
        "pattern": pattern,
        "seconds": seconds,
        "threshold_ms": threshold * 1000.0,
    }
    if breakdown is not None:
        entry["breakdown"] = breakdown
    get_slow_log().record(entry)
    get_logger(run_id).event(
        "slow-query",
        kind=kind,
        pattern=pattern,
        seconds=seconds,
        threshold_ms=threshold * 1000.0,
        breakdown=breakdown,
    )
    return True


def slow_log_payload() -> dict[str, Any]:
    """The ring as ``GET /v1/debug/slow`` and ``repro stats --slow`` print it.

    Entries are newest first; ``total`` counts every over-budget query
    this process observed, evicted entries included.
    """
    threshold = slow_threshold_seconds()
    ring = get_slow_log()
    return {
        "threshold_ms": threshold * 1000.0 if threshold is not None else None,
        "total": ring.total,
        "entries": ring.snapshot(),
    }


class ExplainedQuery:
    """What :func:`explained` yields: the breakdown, if one is collected,
    and the run id and pattern text the query is logged under (the body
    may set either once it has resolved them)."""

    __slots__ = ("breakdown", "run_id", "pattern")

    def __init__(self, breakdown: QueryBreakdown | None, run_id: str, pattern: str):
        self.breakdown = breakdown
        self.run_id = run_id
        self.pattern = pattern


@contextmanager
def explained(
    kind: str,
    pattern: str,
    run_id: str = "",
    breakdown: QueryBreakdown | None = None,
    analyze: bool = False,
) -> Iterator[ExplainedQuery]:
    """Run one provenance question under the explain / slow-log scaffold.

    A breakdown is collected when the caller passed one, asked with
    *analyze*, or a slow-query budget is set; it is this thread's recorder
    for the body, which runs inside one root span (``analyze <kind>``,
    category ``other``).  After a body that did not raise, the recorded
    spans are folded into the breakdown and the query is offered to the
    slow log.  With none of the three the body runs bare.
    """
    threshold = slow_threshold_seconds()
    if breakdown is None and (analyze or threshold is not None):
        breakdown = QueryBreakdown()
    query = ExplainedQuery(breakdown, run_id, pattern)
    if breakdown is None:
        yield query
        return
    with recording(breakdown), span(f"analyze {kind}", "other") as root:
        yield query
    breakdown.fold(root)
    observe_query(
        kind,
        query.run_id,
        query.pattern,
        breakdown.total_seconds,
        breakdown=breakdown.to_json(),
        threshold=threshold,
    )
