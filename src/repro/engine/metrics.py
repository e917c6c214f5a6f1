"""Execution instrumentation: per-operator and per-pipeline metrics.

The evaluation (Sec. 7.3.1 / 7.3.2) reports wall-clock runtime with and
without capture plus the size of the collected provenance.  The executor
fills one :class:`OperatorMetrics` per operator (cardinalities and capture
time) and one :class:`StageMetrics` per physical stage and aggregates them
into an :class:`ExecutionMetrics` for the run.  Every second here is the
duration of a span (:func:`repro.obs.tracer.timed`): the run's, a stage's,
or an operator's capture.  A fused stage is the measured grain; its
operators carry no wall time of their own.

These per-run objects are no longer islands: each exposes a ``publish``
method that folds its counters into a :mod:`repro.obs.metrics` registry
(the process-wide one by default), so stage latencies and row counts,
capture overhead, and segment-cache behaviour accumulate across runs
and are exportable as one Prometheus text page or JSON dump
(``repro stats``).
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Iterator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.obs.metrics import MetricsRegistry

__all__ = [
    "OperatorMetrics",
    "StageMetrics",
    "ExecutionMetrics",
    "SegmentCacheMetrics",
]


class OperatorMetrics:
    """Cardinality counters and capture time of one executed operator."""

    __slots__ = ("oid", "op_type", "label", "rows_in", "rows_out", "capture_seconds")

    def __init__(self, oid: int, op_type: str, label: str):
        self.oid = oid
        self.op_type = op_type
        self.label = label
        self.rows_in = 0
        self.rows_out = 0
        #: Time spent assembling and handing over provenance records (the
        #: operator's ``capture`` spans).
        self.capture_seconds = 0.0

    def __repr__(self) -> str:
        return (
            f"OperatorMetrics({self.label!r}: {self.rows_in} -> {self.rows_out} rows, "
            f"capture {self.capture_seconds * 1000:.2f} ms)"
        )


class StageMetrics:
    """Cardinality and wall-time counters of one executed physical stage.

    A fused stage realises several logical operators at once; this is the
    stage-granular accounting (rows in/out of the whole pipeline segment and
    its wall time) that complements the per-operator slots above.
    """

    __slots__ = (
        "index",
        "kind",
        "label",
        "operator_oids",
        "rows_in",
        "rows_out",
        "seconds",
        "span_id",
    )

    def __init__(self, index: int, kind: str, label: str, operator_oids: tuple[int, ...]):
        self.index = index
        self.kind = kind
        self.label = label
        #: Logical operators this stage realises (in execution order).
        self.operator_oids = operator_oids
        self.rows_in = 0
        self.rows_out = 0
        self.seconds = 0.0
        #: The stage's trace-span id when tracing was on; becomes the
        #: latency histogram's exemplar at publish time.
        self.span_id: int | None = None

    def to_json(self) -> dict:
        return {
            "index": self.index,
            "kind": self.kind,
            "label": self.label,
            "operators": list(self.operator_oids),
            "rows_in": self.rows_in,
            "rows_out": self.rows_out,
            "seconds": self.seconds,
        }

    def publish(self, registry: "MetricsRegistry | None" = None) -> None:
        """Fold this stage's accounting into a metrics registry."""
        from repro.obs.metrics import get_registry

        registry = registry if registry is not None else get_registry()
        registry.histogram("repro_stage_seconds", kind=self.kind).observe(
            self.seconds, span_id=self.span_id
        )
        registry.counter("repro_stage_rows_out_total", kind=self.kind).inc(self.rows_out)

    def __repr__(self) -> str:
        return (
            f"StageMetrics(#{self.index} {self.kind}: {self.rows_in} -> {self.rows_out} rows, "
            f"{self.seconds * 1000:.2f} ms)"
        )


class SegmentCacheMetrics:
    """Hit/miss counters of a lazy provenance reader's segment cache.

    A *miss* decodes one operator segment from disk; the miss count is
    therefore exactly the number of operators a query materialised -- the
    observable that lets tests (and the Fig. 9 warehouse benchmark) assert
    that lazy backtracing touches only the operators on the backtrace path,
    not the whole run.  Source-item blocks are counted separately because
    the reader defers them past operator decoding: a source that ends up
    with empty provenance never has its items decoded.  ``rows_decoded`` and
    ``items_decoded`` count the result rows and source items whose JSON was
    actually parsed -- the cold path parses only rows the pattern's constants
    cannot rule out and only the items an answer lists.

    Counter updates are atomic (:meth:`add` takes an internal lock) so one
    instance can account for a store shared by concurrent readers -- the
    serving layer keeps one resident store per run and lets every request
    thread feed the same counters.
    """

    __slots__ = (
        "hits", "misses", "item_hits", "item_misses", "bytes_read",
        "rows_decoded", "items_decoded", "_lock",
    )

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.item_hits = 0
        self.item_misses = 0
        self.bytes_read = 0
        self.rows_decoded = 0
        self.items_decoded = 0
        self._lock = threading.Lock()

    def add(
        self,
        *,
        hits: int = 0,
        misses: int = 0,
        item_hits: int = 0,
        item_misses: int = 0,
        bytes_read: int = 0,
        rows_decoded: int = 0,
        items_decoded: int = 0,
    ) -> None:
        """Atomically apply one batch of counter increments."""
        with self._lock:
            self.hits += hits
            self.misses += misses
            self.item_hits += item_hits
            self.item_misses += item_misses
            self.bytes_read += bytes_read
            self.rows_decoded += rows_decoded
            self.items_decoded += items_decoded

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of operator lookups served from the cache."""
        lookups = self.lookups
        return self.hits / lookups if lookups else 0.0

    def reset(self) -> None:
        with self._lock:
            self.hits = 0
            self.misses = 0
            self.item_hits = 0
            self.item_misses = 0
            self.bytes_read = 0
            self.rows_decoded = 0
            self.items_decoded = 0

    def to_json(self) -> dict:
        """Machine-readable cache accounting (CLI artifacts, fig9 payload)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "item_hits": self.item_hits,
            "item_misses": self.item_misses,
            "bytes_read": self.bytes_read,
            "rows_decoded": self.rows_decoded,
            "items_decoded": self.items_decoded,
            "hit_rate": self.hit_rate,
        }

    def publish(self, registry: "MetricsRegistry | None" = None) -> None:
        """Fold one query's cache accounting into a metrics registry.

        Call once per finished query (the warehouse does); the registry
        counters then accumulate over every query the process answered.
        """
        from repro.obs.metrics import get_registry

        registry = registry if registry is not None else get_registry()
        registry.counter("repro_segment_cache_hits_total").inc(self.hits)
        registry.counter("repro_segment_cache_misses_total").inc(self.misses)
        registry.counter("repro_segment_cache_item_hits_total").inc(self.item_hits)
        registry.counter("repro_segment_cache_item_misses_total").inc(self.item_misses)
        registry.counter("repro_segment_cache_bytes_read_total").inc(self.bytes_read)
        registry.counter("repro_segment_cache_rows_decoded_total").inc(self.rows_decoded)
        registry.counter("repro_segment_cache_items_decoded_total").inc(self.items_decoded)
        registry.gauge("repro_segment_cache_hit_rate").set(self.hit_rate)

    def __repr__(self) -> str:
        return (
            f"SegmentCacheMetrics(hits={self.hits}, misses={self.misses}, "
            f"items={self.item_hits}/{self.item_hits + self.item_misses}, "
            f"read={self.bytes_read}B)"
        )


class ExecutionMetrics:
    """Aggregated metrics of one pipeline execution."""

    def __init__(self) -> None:
        self._operators: dict[int, OperatorMetrics] = {}
        self._stages: list[StageMetrics] = []
        self.total_seconds = 0.0

    def operator(self, oid: int, op_type: str, label: str) -> OperatorMetrics:
        """Return (creating if needed) the metrics slot for operator *oid*."""
        metrics = self._operators.get(oid)
        if metrics is None:
            metrics = OperatorMetrics(oid, op_type, label)
            self._operators[oid] = metrics
        return metrics

    def operators(self) -> Iterator[OperatorMetrics]:
        return iter(self._operators.values())

    def add_stage(self, stage: StageMetrics) -> None:
        """Record the accounting of one executed physical stage."""
        self._stages.append(stage)

    def stages(self) -> list[StageMetrics]:
        """Per-stage accounting, in execution order."""
        return list(self._stages)

    def to_json(self) -> dict:
        """A plain-JSON view of the run's accounting (CI artifact format)."""
        return {
            "total_seconds": self.total_seconds,
            "operators": [
                {
                    "oid": op.oid,
                    "op_type": op.op_type,
                    "label": op.label,
                    "rows_in": op.rows_in,
                    "rows_out": op.rows_out,
                    "capture_seconds": op.capture_seconds,
                }
                for op in self._operators.values()
            ],
            "stages": [stage.to_json() for stage in self._stages],
        }

    def publish(self, registry: "MetricsRegistry | None" = None) -> None:
        """Fold the run's accounting into a metrics registry.

        The executor calls this once at the end of every execution, so the
        process-wide registry observes every run: run latency, rows out per
        operator type, capture overhead, stage latency and rows out.
        """
        from repro.obs.metrics import get_registry, set_build_info

        registry = registry if registry is not None else get_registry()
        set_build_info(registry)
        registry.counter("repro_runs_total").inc()
        registry.histogram("repro_run_seconds").observe(self.total_seconds)
        for op in self._operators.values():
            registry.counter("repro_operator_rows_out_total", op_type=op.op_type).inc(
                op.rows_out
            )
            if op.capture_seconds:
                registry.counter("repro_capture_seconds_total").inc(op.capture_seconds)
        for stage in self._stages:
            stage.publish(registry)

    def __repr__(self) -> str:
        return f"ExecutionMetrics({len(self._operators)} operators, {self.total_seconds:.3f} s)"
