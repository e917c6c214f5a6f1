"""Explain-analyze accounting: where one provenance query spends its time.

Aggregate histograms (``repro.obs.metrics``) say how queries behave on
average; a :class:`QueryBreakdown` says where *this* query's wall time went:
pattern matching, index probes, segment decoding, the association closure,
source resolution.  The breakdown is the payload behind ``repro warehouse
query --analyze``, ``repro trace-forward --analyze``, the ``"analyze"``
field of served queries, and the slow-query log.

A breakdown is a fold over the query's spans (:mod:`repro.obs.tracer`),
not a second clock.  :func:`~repro.obs.slowlog.explained` activates it as
the query thread's recorder and opens one root span of category ``other``
around the query; at the end every recorded span contributes its self time
to one phase:

* a span whose category is in :data:`PHASES` books its self time there;
* any other category (``backtrace``, ``warehouse``, ``serve``, ...) is
  **transparent**: its self time goes to the nearest ancestor whose
  category is a phase -- the root at the latest, so ``other``.

Self times tile the root span, so ``sum(phases.values())`` equals
``total_seconds`` by construction (up to float rounding).  A breakdown only
observes: query answers are byte-identical with and without one attached.
"""

from __future__ import annotations

from typing import Any

from repro.obs.tracer import Recorder, Span

__all__ = ["PHASES", "QueryBreakdown", "render_breakdown"]

#: Canonical phase order; a span whose category is one of these is a phase.
PHASES: tuple[str, ...] = (
    "load",
    "pattern_match",
    "index_probe",
    "segment_decode",
    "closure",
    "source_resolution",
    "other",
)


class QueryBreakdown(Recorder):
    """Per-phase wall time plus the counters of one provenance query.

    Callers hand one to the layer that drives the query::

        breakdown = QueryBreakdown()
        result, metrics = warehouse.backtrace(run_id, pattern, breakdown=breakdown)
        breakdown.to_json()

    and the driving layer runs the query under
    :func:`~repro.obs.slowlog.explained`, which records the query's spans
    here and folds them with :meth:`fold`.
    """

    def __init__(self) -> None:
        super().__init__()
        self.phases: dict[str, float] = {}
        self.total_seconds = 0.0

    def fold(self, root: Span) -> "QueryBreakdown":
        """Book every recorded span's self time to its phase; *root* (the
        span around the whole query) adds its duration to the total."""
        with self._lock:
            spans, self._spans = self._spans, []
        for span in spans:
            owner: Span | None = span
            while owner is not None and owner.category not in PHASES:
                owner = owner.parent
            phase = owner.category if owner is not None else "other"
            self.phases[phase] = self.phases.get(phase, 0.0) + span.self_seconds
        self.total_seconds += root.duration
        return self

    def phase_sum(self) -> float:
        return sum(self.phases.values())

    def to_json(self) -> dict[str, Any]:
        """The ``"analyze"`` payload: total, ordered phases, counters."""
        return {
            "total_seconds": self.total_seconds,
            "phases": {name: self.phases[name] for name in PHASES if name in self.phases},
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
