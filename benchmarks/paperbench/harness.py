"""Measurement harness for the paper's evaluation (Sec. 7.3).

Provides one measurement function per experiment family:

* :func:`measure_capture_overhead` -- runtime with vs. without capture
  (Figs. 6 and 7),
* :func:`measure_provenance_size` -- lineage vs. structural bytes (Fig. 8),
* :func:`measure_query_times` -- eager (holistic) vs. lazy (PROVision-style)
  provenance query runtime (Fig. 9),
* :func:`measure_titian_comparison` -- flat-workload overhead of a
  lineage-only capture vs. the structural capture (Sec. 7.3.4),
* :func:`measure_operator_overhead` -- per-operator capture overhead
  (discussed without graphs in Sec. 7.3.1),
* :func:`measure_optimizer_ablation` -- capture-on runtime under the
  optimizer rewrite ladder.

Runs are repeated and averaged; data generation is excluded from every
timing (the generators memoise per scale, mirroring data already on disk).
The ``benchmarks/bench_*.py`` figure scripts run it; the end-to-end
benchmark of the system lives in ``benchmarks/e2e/``.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Callable, Sequence

from repro.core.store import ProvenanceStore
from repro.engine.config import EngineConfig
from repro.engine.dataset import Dataset
from repro.engine.executor import Executor
from repro.engine.expressions import col
from repro.engine.session import Session
from repro.obs.tracer import Tracer, tracing
from repro.pebble.query import query_provenance
from repro.workloads.dblp import DblpConfig, generate_dblp
from repro.workloads.scenarios import load_workload, scenario

from paperbench.lazy import LazyProvenanceQuerier
from paperbench.lineage import LineageExecutor, structured_operators

__all__ = [
    "ABLATION_CONFIGS",
    "AblationMeasurement",
    "CaptureMeasurement",
    "SizeMeasurement",
    "QueryMeasurement",
    "TitianMeasurement",
    "OperatorMeasurement",
    "measure_capture_overhead",
    "measure_optimizer_ablation",
    "measure_provenance_size",
    "measure_query_times",
    "measure_titian_comparison",
    "measure_operator_overhead",
]


def _sample(fn: Callable[[], object]) -> float:
    """Time one run of *fn* with the garbage collector paused."""
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        fn()
        return time.perf_counter() - start
    finally:
        if was_enabled:
            gc.enable()


def _timed(fn: Callable[[], object], repeats: int, warmup: int = 1) -> tuple[float, float]:
    """Run *fn* ``warmup + repeats`` times; return (median, stdev) seconds."""
    for _ in range(warmup):
        fn()
    samples = [_sample(fn) for _ in range(repeats)]
    median = statistics.median(samples)
    stdev = statistics.stdev(samples) if len(samples) > 1 else 0.0
    return median, stdev


def _timed_pair(
    fn_a: Callable[[], object],
    fn_b: Callable[[], object],
    repeats: int,
    warmup: int = 1,
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Time two functions with interleaved runs (robust A/B comparison).

    Alternating the runs spreads slow drifts (allocator state, CPU
    frequency) evenly over both sides, and B runs first on odd repeats so
    neither side always gets the warmer or the colder slot; medians damp
    outliers.  Samples stay paired by repeat index.
    """
    for _ in range(warmup):
        fn_a()
        fn_b()
    samples_a: list[float] = []
    samples_b: list[float] = []
    order = ((samples_a, fn_a), (samples_b, fn_b))
    for repeat in range(repeats):
        for samples, fn in order[:: -1 if repeat % 2 else 1]:
            samples.append(_sample(fn))

    def summarise(samples: list[float]) -> tuple[float, float]:
        median = statistics.median(samples)
        stdev = statistics.stdev(samples) if len(samples) > 1 else 0.0
        return median, stdev

    # Report B relative to A via the median of per-pair deltas: pairing
    # cancels drift that hits both sides of one iteration equally.
    median_a, stdev_a = summarise(samples_a)
    delta = statistics.median(b - a for a, b in zip(samples_a, samples_b))
    _, stdev_b = summarise(samples_b)
    return (median_a, stdev_a), (median_a + delta, stdev_b)


class CaptureMeasurement:
    """One bar of Figs. 6/7: plain vs. capture runtime for a scenario."""

    __slots__ = (
        "scenario",
        "scale",
        "plain_seconds",
        "plain_stdev",
        "capture_seconds",
        "capture_stdev",
        "result_rows",
    )

    def __init__(
        self,
        scenario_name: str,
        scale: float,
        plain: tuple[float, float],
        capture: tuple[float, float],
        result_rows: int,
    ):
        self.scenario = scenario_name
        self.scale = scale
        self.plain_seconds, self.plain_stdev = plain
        self.capture_seconds, self.capture_stdev = capture
        self.result_rows = result_rows

    @property
    def overhead_pct(self) -> float:
        """Relative capture overhead (the percentages atop the bars)."""
        if self.plain_seconds == 0:
            return 0.0
        return 100.0 * (self.capture_seconds - self.plain_seconds) / self.plain_seconds

    def __repr__(self) -> str:
        return (
            f"CaptureMeasurement({self.scenario}@{self.scale}x: "
            f"{self.plain_seconds:.3f}s -> {self.capture_seconds:.3f}s, "
            f"+{self.overhead_pct:.0f}%)"
        )


def measure_capture_overhead(
    names: Sequence[str],
    scales: Sequence[float] = (1.0,),
    repeats: int = 3,
) -> list[CaptureMeasurement]:
    """Figs. 6/7: capture overhead per scenario per scale."""
    measurements = []
    for scale in scales:
        for name in names:
            spec = scenario(name)
            data = load_workload(spec.kind, scale)

            def run_plain() -> None:
                spec.build(Session(), data).execute(capture=False)

            def run_capture() -> None:
                execution = spec.build(Session(), data).execute(capture=True)
                assert execution.store is not None
                # Eager capture includes persisting the pebbles (Sec. 5.1).
                execution.store.serialize()

            rows = len(spec.build(Session(), data).execute())
            plain, capture = _timed_pair(run_plain, run_capture, repeats)
            measurements.append(CaptureMeasurement(name, scale, plain, capture, rows))
    return measurements


class SizeMeasurement:
    """One bar of Fig. 8: lineage vs. structural provenance bytes."""

    __slots__ = ("scenario", "scale", "lineage_bytes", "structural_bytes", "records")

    def __init__(
        self, scenario_name: str, scale: float, lineage_bytes: int, structural_bytes: int, records: int
    ):
        self.scenario = scenario_name
        self.scale = scale
        self.lineage_bytes = lineage_bytes
        #: The *extra* bytes structural provenance adds on top of lineage.
        self.structural_bytes = structural_bytes
        self.records = records

    @property
    def total_bytes(self) -> int:
        return self.lineage_bytes + self.structural_bytes

    def __repr__(self) -> str:
        return (
            f"SizeMeasurement({self.scenario}@{self.scale}x: "
            f"lineage={self.lineage_bytes}B +structural={self.structural_bytes}B)"
        )


def measure_provenance_size(
    names: Sequence[str], scale: float = 1.0
) -> list[SizeMeasurement]:
    """Fig. 8: size of the captured provenance, split lineage/structural."""
    measurements = []
    for name in names:
        spec = scenario(name)
        data = load_workload(spec.kind, scale)
        execution = spec.build(Session(), data).execute(capture=True)
        assert execution.store is not None
        report = execution.store.size_report()
        measurements.append(
            SizeMeasurement(
                name, scale, report.lineage_bytes, report.structural_bytes, report.association_count
            )
        )
    return measurements


class QueryMeasurement:
    """One scenario of Fig. 9: eager vs. lazy provenance query runtime.

    ``warehouse_seconds`` adds the third mode: cold backtracing straight
    from the on-disk warehouse segments, together with the segment-cache
    behaviour of that query (decoded segment count and hit rate).
    """

    __slots__ = (
        "scenario",
        "scale",
        "eager_seconds",
        "lazy_seconds",
        "source_count",
        "warehouse_seconds",
        "cache_hit_rate",
        "segments_decoded",
        "cache",
    )

    def __init__(
        self,
        scenario_name: str,
        scale: float,
        eager_seconds: float,
        lazy_seconds: float,
        source_count: int,
        warehouse_seconds: float | None = None,
        cache_hit_rate: float | None = None,
        segments_decoded: int | None = None,
        cache: dict | None = None,
    ):
        self.scenario = scenario_name
        self.scale = scale
        self.eager_seconds = eager_seconds
        self.lazy_seconds = lazy_seconds
        self.source_count = source_count
        self.warehouse_seconds = warehouse_seconds
        self.cache_hit_rate = cache_hit_rate
        self.segments_decoded = segments_decoded
        #: Full segment-cache accounting of the warehouse query, as JSON.
        self.cache = cache

    @property
    def speedup(self) -> float:
        """How much faster the eager (holistic) approach answers the query."""
        if self.eager_seconds == 0:
            return float("inf")
        return self.lazy_seconds / self.eager_seconds

    def __repr__(self) -> str:
        return (
            f"QueryMeasurement({self.scenario}@{self.scale}x: eager={self.eager_seconds:.3f}s "
            f"lazy={self.lazy_seconds:.3f}s, x{self.speedup:.1f})"
        )


def measure_query_times(
    names: Sequence[str],
    scale: float = 1.0,
    repeats: int = 3,
) -> list[QueryMeasurement]:
    """Fig. 9: eager (capture already paid) vs. lazy (re-run per input),
    plus cold warehouse backtracing from segments on disk."""
    import tempfile

    from repro.warehouse import Warehouse

    measurements = []
    for name in names:
        spec = scenario(name)
        data = load_workload(spec.kind, scale)
        captured = spec.build(Session(), data).execute(capture=True)

        def run_eager() -> None:
            query_provenance(captured, spec.pattern)

        lazy_dataset = spec.build(Session(), data)
        querier = LazyProvenanceQuerier(lazy_dataset)

        def run_lazy() -> None:
            querier.query(spec.pattern)

        eager_seconds, _ = _timed(run_eager, repeats)
        lazy_seconds, _ = _timed(run_lazy, repeats, warmup=0)

        with tempfile.TemporaryDirectory(prefix="pebble-wh-") as tmp:
            warehouse = Warehouse.open(tmp)
            record = warehouse.record(captured, name=name)
            last_metrics = None

            def run_warehouse() -> None:
                # Fresh load per query: every segment decode pays the
                # disk + decode cost (cold cache), matching the "query a
                # run recorded days ago" scenario.
                nonlocal last_metrics
                _, last_metrics = warehouse.backtrace(record.run_id, spec.pattern)

            warehouse_seconds, _ = _timed(run_warehouse, repeats)
            assert last_metrics is not None
            measurements.append(
                QueryMeasurement(
                    name,
                    scale,
                    eager_seconds,
                    lazy_seconds,
                    querier.source_count(),
                    warehouse_seconds=warehouse_seconds,
                    cache_hit_rate=last_metrics.hit_rate,
                    segments_decoded=last_metrics.misses,
                    cache=last_metrics.to_json(),
                )
            )
    return measurements


class TitianMeasurement:
    """The Sec. 7.3.4 comparison on a flat workload."""

    __slots__ = (
        "plain_seconds",
        "titian_seconds",
        "pebble_seconds",
    )

    def __init__(self, plain_seconds: float, titian_seconds: float, pebble_seconds: float):
        self.plain_seconds = plain_seconds
        self.titian_seconds = titian_seconds
        self.pebble_seconds = pebble_seconds

    @property
    def titian_overhead_pct(self) -> float:
        return 100.0 * (self.titian_seconds - self.plain_seconds) / self.plain_seconds

    @property
    def pebble_overhead_pct(self) -> float:
        return 100.0 * (self.pebble_seconds - self.plain_seconds) / self.plain_seconds

    def __repr__(self) -> str:
        return (
            f"TitianMeasurement(titian=+{self.titian_overhead_pct:.2f}%, "
            f"pebble=+{self.pebble_overhead_pct:.2f}%)"
        )


def _flat_dblp_lines(scale: float) -> tuple[list[dict[str, str]], list[dict[str, str]]]:
    """Flat string records from DBLP, as in the Sec. 7.3.4 test program."""
    data = generate_dblp(DblpConfig(scale=scale))
    articles = [
        {"line": f"{record['key']}|{record['title']}|{record['year']}"}
        for record in data["articles"]
    ]
    inproceedings = [
        {"line": f"{record['key']}|{record['title']}|{record['year']}"}
        for record in data["inproceedings"]
    ]
    return articles, inproceedings


def measure_titian_comparison(
    scale: float = 1.0, repeats: int = 5
) -> TitianMeasurement:
    """Sec. 7.3.4: filter '2015' lines of articles/inproceedings, then union.

    Pebble captures full structural provenance; the Titian stand-in is a
    :class:`LineageExecutor` capture, which registers the same id
    associations with no accessed paths and no manipulations.  Both are
    compared against the plain run on the same flat string records.
    """
    articles, inproceedings = _flat_dblp_lines(scale)

    def build(session: Session) -> Dataset:
        left = session.create_dataset(articles, "articles").filter(col("line").contains("2015"))
        right = session.create_dataset(inproceedings, "inproceedings").filter(
            col("line").contains("2015")
        )
        return left.union(right)

    def run_plain() -> None:
        plan = build(Session()).plan
        Executor().execute(plan)

    def run_titian() -> ProvenanceStore:
        plan = build(Session()).plan
        return LineageExecutor(capture=True).execute(plan).store

    def run_pebble() -> None:
        plan = build(Session()).plan
        Executor(capture=True).execute(plan)

    structured = structured_operators(run_titian())
    if structured:
        raise AssertionError(f"the lineage capture kept structure on operators {structured}")
    (titian_seconds, _), (pebble_seconds, _) = _timed_pair(run_titian, run_pebble, repeats)
    plain_seconds, _ = _timed(run_plain, repeats)
    return TitianMeasurement(plain_seconds, titian_seconds, pebble_seconds)


#: The optimizer ablation ladder: no rewrites at all (the seed path),
#: projection pruning alone, then pruning plus operator fusion.  The
#: ``+trace`` rung repeats the full ladder with a live span tracer, pinning
#: the "tracing off costs nothing" claim: its delta against ``prune+fuse``
#: is the entire observability tax.
_PRUNE_FUSE = EngineConfig(rules=("prune", "fuse"))
ABLATION_CONFIGS: tuple[tuple[str, EngineConfig], ...] = (
    ("no-opt", EngineConfig(optimize=False)),
    ("prune", EngineConfig(rules=("prune",))),
    ("prune+fuse", _PRUNE_FUSE),
    ("prune+fuse+trace", _PRUNE_FUSE),
)


class AblationMeasurement:
    """Capture-on runtime of one scenario under one optimizer configuration."""

    __slots__ = ("scenario", "scale", "config_name", "seconds", "stdev", "rules_fired")

    def __init__(
        self,
        scenario_name: str,
        scale: float,
        config_name: str,
        seconds: float,
        stdev: float,
        rules_fired: tuple[str, ...],
    ):
        self.scenario = scenario_name
        self.scale = scale
        self.config_name = config_name
        self.seconds = seconds
        self.stdev = stdev
        self.rules_fired = rules_fired

    def __repr__(self) -> str:
        return (
            f"AblationMeasurement({self.scenario}@{self.scale}x "
            f"{self.config_name}: {self.seconds:.3f}s)"
        )


def measure_optimizer_ablation(
    names: Sequence[str],
    scale: float = 1.0,
    repeats: int = 3,
) -> list[AblationMeasurement]:
    """Capture-on runtime under the optimizer ablation ladder.

    Runs every scenario with structural capture enabled under each
    :data:`ABLATION_CONFIGS` entry.  Captured stores are identical across the
    ladder by construction (pruning/fusion are fidelity-preserving), so the
    deltas isolate how much captured work the rewrites save.
    """
    measurements: list[AblationMeasurement] = []
    for name in names:
        spec = scenario(name)
        data = load_workload(spec.kind, scale)
        for config_name, config in ABLATION_CONFIGS:
            traced = config_name.endswith("+trace")

            def run_capture() -> None:
                dataset = spec.build(Session(config=config), data)
                if traced:
                    # A fresh tracer per run: span recording is part of the
                    # measured cost, unbounded accumulation is not.
                    with tracing(Tracer()):
                        execution = dataset.execute(capture=True)
                else:
                    execution = dataset.execute(capture=True)
                assert execution.store is not None
                execution.store.serialize()

            probe = spec.build(Session(config=config), data).execute(capture=True)
            rules = probe.physical.report.rules_fired() if probe.physical else ()
            seconds, stdev = _timed(run_capture, repeats)
            measurements.append(
                AblationMeasurement(name, scale, config_name, seconds, stdev, rules)
            )
    return measurements


class OperatorMeasurement:
    """Per-operator capture overhead (Sec. 7.3.1, no graph in the paper)."""

    __slots__ = ("operator", "plain_seconds", "capture_seconds")

    def __init__(self, operator: str, plain_seconds: float, capture_seconds: float):
        self.operator = operator
        self.plain_seconds = plain_seconds
        self.capture_seconds = capture_seconds

    @property
    def overhead_pct(self) -> float:
        if self.plain_seconds == 0:
            return 0.0
        return 100.0 * (self.capture_seconds - self.plain_seconds) / self.plain_seconds

    def __repr__(self) -> str:
        return f"OperatorMeasurement({self.operator}: +{self.overhead_pct:.0f}%)"


def measure_operator_overhead(
    scale: float = 1.0, repeats: int = 3
) -> list[OperatorMeasurement]:
    """Single-operator micro-pipelines over the Twitter corpus.

    Reproduces the per-operator observations of Sec. 7.3.1: constant
    annotation overhead for filter/select/union/join/flatten, markedly
    higher relative overhead for aggregations (which store one id per group
    member).
    """
    from repro.engine.expressions import collect_list

    tweets = load_workload("twitter", scale)

    def pipeline(kind: str) -> Callable[[Session], Dataset]:
        def build(session: Session) -> Dataset:
            base = session.create_dataset(tweets, "tweets.json")
            if kind == "filter":
                return base.filter(col("retweet_count") == 0)
            if kind == "select":
                return base.select(col("text"), col("user.id_str"), col("user.name"))
            if kind == "flatten":
                return base.flatten("user_mentions", "m_user")
            if kind == "union":
                other = session.create_dataset(tweets, "tweets.json")
                return base.union(other)
            if kind == "join":
                users = session.create_dataset(
                    [{"join_id": tweet["user"]["id_str"]} for tweet in tweets[:50]], "users"
                )
                return base.join(users, col("user.id_str") == col("join_id"))
            if kind == "aggregate":
                return base.group_by(col("user.id_str")).agg(
                    collect_list(col("text")).alias("texts")
                )
            raise ValueError(kind)

        return build

    measurements = []
    for kind in ("filter", "select", "flatten", "union", "join", "aggregate"):
        build = pipeline(kind)

        def run_plain() -> None:
            build(Session()).execute(capture=False)

        def run_capture() -> None:
            build(Session()).execute(capture=True)

        (plain_seconds, _), (capture_seconds, _) = _timed_pair(run_plain, run_capture, repeats)
        measurements.append(OperatorMeasurement(kind, plain_seconds, capture_seconds))
    return measurements

