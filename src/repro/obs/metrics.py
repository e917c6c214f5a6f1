"""Process-wide metrics registry: counters, gauges, histograms.

The engine's per-run accounting (:class:`~repro.engine.metrics.ExecutionMetrics`,
``StageMetrics``, ``SegmentCacheMetrics``) describes a single execution or
query; this registry is where those islands publish so the process as a whole
is observable: how many runs executed, how their stage latencies distribute,
how segment caches behave across many warehouse queries.

Naming follows the Prometheus conventions: ``repro_<subsystem>_<unit>`` with
``_total`` suffixes on counters (``repro_stage_seconds``,
``repro_segment_cache_misses_total``).  Histograms use **fixed bucket
boundaries** declared at creation -- latency buckets for durations,
power-of-ten row buckets for row counts -- so two dumps of
the same registry are always comparable.

Two export formats: :meth:`MetricsRegistry.to_json` (machine-readable dump,
the CLI's ``repro stats --json``) and
:meth:`MetricsRegistry.render_prometheus` (text exposition format).
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from typing import Any, Iterator

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "set_registry",
    "set_build_info",
    "LATENCY_BUCKETS",
    "ROWS_BUCKETS",
    "BYTES_BUCKETS",
]

#: Latency bucket boundaries in seconds (0.5 ms .. 10 s).
LATENCY_BUCKETS: tuple[float, ...] = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Row-count buckets (per-operator cardinalities).
ROWS_BUCKETS: tuple[float, ...] = (0, 1, 10, 100, 1_000, 10_000, 100_000, 1_000_000)

#: Byte-size buckets (segment reads, provenance sizes).
BYTES_BUCKETS: tuple[float, ...] = (
    256, 1_024, 4_096, 16_384, 65_536, 262_144, 1_048_576, 16_777_216,
)

Labels = tuple[tuple[str, str], ...]


def _label_key(labels: dict[str, Any] | None) -> Labels:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _escape_label_value(value: str) -> str:
    """Escape a label value per the Prometheus text exposition format.

    Backslash, double-quote, and line feed are the three characters the
    format requires escaping inside quoted label values; backslash must go
    first so the other escapes are not themselves re-escaped.
    """
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _render_labels(labels: Labels, extra: tuple[tuple[str, str], ...] = ()) -> str:
    pairs = labels + extra
    if not pairs:
        return ""
    body = ",".join(f'{key}="{_escape_label_value(value)}"' for key, value in pairs)
    return "{" + body + "}"


class Counter:
    """A monotonically increasing value."""

    kind = "counter"
    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: Labels):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease (inc {amount})")
        with self._lock:
            self.value += amount

    def to_json(self) -> dict[str, Any]:
        return {"type": self.kind, "name": self.name, "labels": dict(self.labels), "value": self.value}

    def render(self) -> Iterator[str]:
        yield f"{self.name}{_render_labels(self.labels)} {_fmt(self.value)}"


class Gauge:
    """A value that can go up and down (last write wins)."""

    kind = "gauge"
    __slots__ = ("name", "labels", "value", "_lock")

    def __init__(self, name: str, labels: Labels):
        self.name = name
        self.labels = labels
        self.value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self.value += amount

    def to_json(self) -> dict[str, Any]:
        return {"type": self.kind, "name": self.name, "labels": dict(self.labels), "value": self.value}

    def render(self) -> Iterator[str]:
        yield f"{self.name}{_render_labels(self.labels)} {_fmt(self.value)}"


class Histogram:
    """Cumulative-bucket histogram over fixed boundaries."""

    kind = "histogram"
    __slots__ = ("name", "labels", "buckets", "counts", "sum", "count", "exemplar", "_lock")

    def __init__(self, name: str, labels: Labels, buckets: tuple[float, ...]):
        if not buckets or tuple(sorted(buckets)) != tuple(buckets):
            raise ValueError(f"histogram {name} needs sorted, non-empty buckets")
        self.name = name
        self.labels = labels
        self.buckets = buckets
        #: counts[i] observations <= buckets[i]; counts[-1] is the overflow.
        self.counts = [0] * (len(buckets) + 1)
        self.sum = 0.0
        self.count = 0
        #: ``(bucket_index, value, span_id)`` of the largest observation that
        #: carried a trace-span id -- the OpenMetrics exemplar rendered on
        #: its bucket line ("which trace explains this histogram's tail?").
        self.exemplar: tuple[int, float, str] | None = None
        self._lock = threading.Lock()

    def observe(self, value: float, span_id: int | str | None = None) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self.counts[index] += 1
            self.sum += value
            self.count += 1
            if span_id is not None and (
                self.exemplar is None or value >= self.exemplar[1]
            ):
                self.exemplar = (index, value, str(span_id))

    def to_json(self) -> dict[str, Any]:
        payload = {
            "type": self.kind,
            "name": self.name,
            "labels": dict(self.labels),
            "buckets": list(self.buckets),
            "counts": list(self.counts),
            "sum": self.sum,
            "count": self.count,
        }
        if self.exemplar is not None:
            _, value, span_id = self.exemplar
            payload["exemplar"] = {"span_id": span_id, "value": value}
        return payload

    def _bucket_line(self, index: int, le: str, cumulative: int) -> str:
        line = f'{self.name}_bucket{_render_labels(self.labels, (("le", le),))} {cumulative}'
        if self.exemplar is not None and self.exemplar[0] == index:
            _, value, span_id = self.exemplar
            line += f' # {{span_id="{_escape_label_value(span_id)}"}} {_fmt(value)}'
        return line

    def render(self) -> Iterator[str]:
        cumulative = 0
        for index, (boundary, bucket_count) in enumerate(zip(self.buckets, self.counts)):
            cumulative += bucket_count
            yield self._bucket_line(index, _fmt(boundary), cumulative)
        cumulative += self.counts[-1]
        yield self._bucket_line(len(self.buckets), "+Inf", cumulative)
        yield f"{self.name}_sum{_render_labels(self.labels)} {_fmt(self.sum)}"
        yield f"{self.name}_count{_render_labels(self.labels)} {self.count}"


def _fmt(value: float) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return repr(value)


Metric = Counter | Gauge | Histogram


class MetricsRegistry:
    """A named family of metrics; get-or-create access, stable dump order."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[tuple[str, Labels], Metric] = {}

    def _get_or_create(self, cls: type, name: str, labels: Labels, **kwargs: Any) -> Metric:
        key = (name, labels)
        with self._lock:
            metric = self._metrics.get(key)
            if metric is None:
                metric = cls(name, labels, **kwargs)
                self._metrics[key] = metric
            elif not isinstance(metric, cls):
                raise ValueError(
                    f"metric {name!r} already registered as {metric.kind}, not {cls.kind}"
                )
            return metric

    def counter(self, name: str, **labels: Any) -> Counter:
        metric = self._get_or_create(Counter, name, _label_key(labels))
        assert isinstance(metric, Counter)
        return metric

    def gauge(self, name: str, **labels: Any) -> Gauge:
        metric = self._get_or_create(Gauge, name, _label_key(labels))
        assert isinstance(metric, Gauge)
        return metric

    def histogram(
        self, name: str, buckets: tuple[float, ...] = LATENCY_BUCKETS, **labels: Any
    ) -> Histogram:
        metric = self._get_or_create(Histogram, name, _label_key(labels), buckets=buckets)
        assert isinstance(metric, Histogram)
        if metric.buckets != tuple(buckets):
            raise ValueError(
                f"histogram {name!r} already registered with buckets {metric.buckets}"
            )
        return metric

    def metrics(self) -> list[Metric]:
        """All metrics, sorted by (name, labels) for stable output."""
        with self._lock:
            return [self._metrics[key] for key in sorted(self._metrics)]

    def reset(self) -> None:
        """Drop every registered metric (test isolation)."""
        with self._lock:
            self._metrics.clear()

    def to_json(self) -> dict[str, Any]:
        """Machine-readable dump: one entry per metric, stable order."""
        return {"metrics": [metric.to_json() for metric in self.metrics()]}

    def render_prometheus(self) -> str:
        """Prometheus text exposition (``# TYPE`` headers + sample lines)."""
        lines: list[str] = []
        seen_types: set[str] = set()
        for metric in self.metrics():
            if metric.name not in seen_types:
                lines.append(f"# TYPE {metric.name} {metric.kind}")
                seen_types.add(metric.name)
            lines.extend(metric.render())
        return "\n".join(lines) + ("\n" if lines else "")

    def __len__(self) -> int:
        with self._lock:
            return len(self._metrics)

    def __repr__(self) -> str:
        return f"MetricsRegistry({len(self)} metrics)"


def set_build_info(registry: "MetricsRegistry | None" = None, **labels: Any) -> Gauge:
    """Publish the ``repro_build_info`` gauge (value 1, identity in labels).

    The Prometheus build-info convention: the interesting facts -- package
    version plus whatever the caller knows (e.g. the component) --
    ride as labels on a constant-1 gauge, joinable against every other
    series.  The version label is always present.
    """
    from repro import __version__

    registry = registry if registry is not None else get_registry()
    gauge = registry.gauge("repro_build_info", version=__version__, **labels)
    gauge.set(1)
    return gauge


# -- the process-wide registry -------------------------------------------------

_REGISTRY = MetricsRegistry()
_REGISTRY_LOCK = threading.Lock()


def get_registry() -> MetricsRegistry:
    """The process-wide default registry the engine publishes into."""
    return _REGISTRY


def set_registry(registry: MetricsRegistry) -> MetricsRegistry:
    """Swap the process-wide registry (returns the previous one)."""
    global _REGISTRY
    with _REGISTRY_LOCK:
        previous = _REGISTRY
        _REGISTRY = registry
    return previous
