"""The query service: the route table, resident stores, caches, admission.

This is the transport-independent core of ``repro.serve``, and the one
place the served surface is spelled out.  :data:`POST_ROUTES` and
:data:`GET_ROUTES` declare every endpoint once -- path, body fields and
their validation, run scope, cache-key params, the computation over
resident runs, counter and log fields -- and every layer reads them: the
file transport of :func:`repro.connect`, the server's HTTP handler, and
the HTTP client.  A POST
request *is* its JSON body on every transport, and
:meth:`QueryService.request` is the one path it takes: validate ->
resolve scope -> cache -> admit under a deadline -> compute under a span
-> ``server`` block.

Serving changes the warehouse's access pattern from "load per query" to
"load once, query forever":

* one **resident run per run id** -- the
  :class:`~repro.warehouse.reader.StoredRun` that ``Warehouse.backtrace``
  answers one-shot questions from, opened on first use and shared by all
  request threads (it is thread safe): operator segments decode on demand
  and each result row is parsed on its first touch, then kept;
* one **pattern-result cache** keyed by ``(kind, run scope, params)``; the
  scope holds resolved run ids, so a newly recorded run costs nothing and
  only a run whose stored answers change (its segment epoch moves, or it
  leaves the catalog) drops its entries;
* one **query pool** bounding concurrent computations with admission
  control (429) and per-request deadlines (504).

Request accounting flows into a :class:`~repro.obs.metrics.MetricsRegistry`
(the process-wide one by default) and every query runs under a tracer span,
so a ``--trace`` serve session exports one merged timeline of requests,
backtrace phases, and segment reads.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable

from repro.audit.forward import ForwardResult, ForwardTracer
from repro.audit.sar import (
    DEFAULT_SUBJECT_TEMPLATE,
    erasure_over_tracers,
    sar_over_tracers,
)
from repro.core.backtrace.result import ProvenanceResult
from repro.errors import ServeError
from repro.obs.log import get_logger
from repro.obs.metrics import Counter, MetricsRegistry, get_registry, set_build_info
from repro.obs.slowlog import explained, slow_log_payload
from repro.obs.tracer import span, timed
from repro.serve.cache import PatternResultCache
from repro.serve.pool import QueryPool
from repro.warehouse import Warehouse
from repro.warehouse.index import RunIndex
from repro.warehouse.reader import StoredRun
from repro.warehouse.service import METRICS_NAME

__all__ = [
    "API_VERSION",
    "GET_ROUTES",
    "POST_ROUTES",
    "GetRoute",
    "PostRoute",
    "QueryService",
    "ServeConfig",
    "result_to_json",
]

#: The current (only) version namespace of the HTTP surface.
API_VERSION = "v1"


@dataclass(frozen=True)
class ServeConfig:
    """All serving knobs in one picklable, printable bundle."""

    root: str
    host: str = "127.0.0.1"
    port: int = 9410
    #: Query workers (concurrent backtraces).
    workers: int = 4
    #: Admitted-but-waiting requests beyond the workers; 0 rejects eagerly.
    queue_limit: int = 16
    #: Per-request wall-clock budget in seconds; ``None``/0 disables it.
    deadline: float | None = 30.0
    #: Pattern-result cache capacity (entries).
    cache_size: int = 128
    #: Retention TTL in seconds for epoch-layout (streaming) runs;
    #: ``None``/0 disables the background sweep.
    retention_ttl: float | None = None
    #: Seconds between background retention sweeps.
    retention_sweep_interval: float = 60.0

    def effective_deadline(self) -> float | None:
        return self.deadline if self.deadline else None


def _suffix(labels: tuple[tuple[str, str], ...]) -> str:
    """A flat ``{k=v,...}`` rendering for shutdown-event counter names."""
    if not labels:
        return ""
    return "{" + ",".join(f"{key}={value}" for key, value in labels) + "}"


def result_to_json(result: ProvenanceResult) -> dict[str, Any]:
    """A deterministic JSON view of a provenance query answer.

    Everything is sorted (entry ids, paths, operator ids), so two answers to
    the same question serialise byte-identically -- the property the
    concurrent-vs-serial equivalence tests pin.
    """
    return {
        "matched_output_ids": list(result.matched_output_ids),
        "sources": [
            {
                "oid": source.oid,
                "name": source.name,
                "ids": source.ids(),
                "entries": [
                    {
                        "id": entry.item_id,
                        "contributing": entry.contributing_paths(),
                        "influencing": entry.influencing_paths(),
                        "accessed_by": entry.accessed_by(),
                        "manipulated_by": entry.manipulated_by(),
                        "tree": entry.tree.render(),
                    }
                    for entry in source
                ],
            }
            for source in result.sources
        ],
        "render": result.render(),
    }


class _ResidentRun:
    """One opened stored run shared across request threads."""

    __slots__ = ("run", "index")

    def __init__(self, run: StoredRun, index: RunIndex | None):
        self.run = run
        #: The run's persisted index, or ``None`` when the run was recorded
        #: unindexed (forward traces then fall back to a full scan; answers
        #: are identical either way).
        self.index = index

    def forward_tracer(self) -> ForwardTracer:
        """A fresh tracer per request: per-trace stats stay un-shared."""
        return ForwardTracer(self.run, self.index)


# -- the route table -----------------------------------------------------------


def _is_name(value: Any) -> bool:
    return isinstance(value, str) and bool(value.strip())


def _is_count(value: Any) -> bool:
    return type(value) is int and value >= 1


#: Every field a POST body may carry: its default when absent, what a valid
#: value is (the 400 message says so), and the test for one.
_FIELDS: dict[str, tuple[Any, str, Callable[[Any], bool]]] = {
    "pattern": (None, "a non-empty pattern string", _is_name),
    "subjects": (
        None,
        "a non-empty list of non-empty strings",
        lambda value: isinstance(value, list)
        and bool(value)
        and all(map(_is_name, value)),
    ),
    "run": (
        None,
        "a run id or name, or null",
        lambda value: value is None or isinstance(value, str),
    ),
    "runs": (
        None,
        "a list of run ids or names, or null",
        lambda value: value is None
        or (isinstance(value, list) and all(map(_is_name, value))),
    ),
    "analyze": (False, "true or false", lambda value: isinstance(value, bool)),
    "template": (DEFAULT_SUBJECT_TEMPLATE, "a pattern template string", _is_name),
    "page": (1, "an integer >= 1", _is_count),
    "page_size": (100, "an integer >= 1", _is_count),
}


@dataclass(frozen=True)
class PostRoute:
    """One POST kind of the served surface; every layer reads this row."""

    kind: str
    #: Path under ``/v1``.
    path: str
    #: The body's fields (see :data:`_FIELDS`); anything else is ignored.
    fields: tuple[str, ...]
    #: ``(residents, params) -> (answer, facts)``: the computation over the
    #: scope's resident runs, and what its span and log line say about it.
    compute: Callable[[list[_ResidentRun], dict[str, Any]], tuple[Any, dict[str, Any]]]
    #: The answer's JSON view (its ``result`` / ``report`` block).
    render: Callable[[Any], dict[str, Any]]
    #: The request counter.
    counter: str
    #: The run scope.  ``False``: one run (``run`` names it, default the
    #: newest).  ``True``: many runs (``runs``, else ``run``, else every run).
    many_runs: bool = False

    @property
    def cache_key(self) -> tuple[str, ...]:
        """The params, beside the kind and the run scope, that an answer is
        a pure function of: every field that is not the scope or ``analyze``
        (which bypasses the cache)."""
        return tuple(
            name for name in self.fields if name not in ("run", "runs", "analyze")
        )

    @property
    def block(self) -> str:
        """The payload key the rendered answer sits under."""
        return "report" if self.many_runs else "result"

    def parse(self, body: dict[str, Any]) -> dict[str, Any]:
        """Validate a request body into normalised params, or raise
        :class:`ServeError` (400) -- identically on every transport."""
        params = {}
        for name in self.fields:
            default, expected, valid = _FIELDS[name]
            value = body.get(name, default)
            if not valid(value):
                raise ServeError(
                    f"{self.kind}: '{name}' must be {expected}, got {value!r}"
                )
            params[name] = value
        if "subjects" in params:  # order and repeats never change a report
            params["subjects"] = tuple(sorted(set(params["subjects"])))
        return params


@dataclass(frozen=True)
class GetRoute:
    """One GET endpoint: its path template and the method answering it."""

    #: Path under ``/v1``; ``<id>`` stands for one path segment.
    path: str
    #: The :class:`QueryService` method answering it.
    method: str
    #: The argument the method takes: ``"id"`` (the path's ``<id>``, a run),
    #: ``"run"`` (the optional ``?run=`` query parameter), or ``None``.
    takes: str | None = None

    def answer(self, service: "QueryService", arg: str | None = None) -> Any:
        """Call the method this route names on *service*."""
        return getattr(service, self.method)(*([arg] if self.takes else ()))


def _tracers(residents: list[_ResidentRun]) -> list[tuple[str, ForwardTracer]]:
    return [(resident.run.run_id, resident.forward_tracer()) for resident in residents]


def _backtrace(residents: list[_ResidentRun], params: dict[str, Any]) -> Any:
    result = residents[0].run.backtrace(params["pattern"])
    return result, {"matched": len(result.matched_output_ids)}


def _forward(residents: list[_ResidentRun], params: dict[str, Any]) -> Any:
    result = residents[0].forward_tracer().trace(params["pattern"])
    return result, {
        "matched_inputs": result.matched_input_count,
        "outputs": len(result.output_ids),
        **result.stats,
    }


def _sar(residents: list[_ResidentRun], params: dict[str, Any]) -> Any:
    report = sar_over_tracers(
        _tracers(residents),
        params["subjects"],
        template=params["template"],
        page=params["page"],
        page_size=params["page_size"],
    )
    return report, {"subjects": report["total_subjects"], "page": params["page"]}


def _erasure(residents: list[_ResidentRun], params: dict[str, Any]) -> Any:
    report = erasure_over_tracers(
        _tracers(residents), params["subjects"], template=params["template"]
    )
    return report, {"subjects": report["subject_count"], "clean": report["clean"]}


_AUDIT_FIELDS = ("subjects", "template", "run", "runs")

#: The four request kinds.  A fifth is one entry here plus one
#: :class:`~repro.client.ProvenanceClient` method.
POST_ROUTES: dict[str, PostRoute] = {
    route.kind: route
    for route in (
        PostRoute(
            "query", "/query",
            fields=("pattern", "run", "analyze"),
            compute=_backtrace,
            render=result_to_json,
            counter="repro_serve_queries_total",
        ),
        PostRoute(
            "forward", "/forward",
            fields=("pattern", "run", "analyze"),
            compute=_forward,
            render=ForwardResult.to_json,
            counter="repro_serve_forward_queries_total",
        ),
        PostRoute(
            "sar", "/audit/sar",
            fields=_AUDIT_FIELDS + ("page", "page_size"),
            compute=_sar,
            render=dict,
            counter="repro_serve_sar_requests_total",
            many_runs=True,
        ),
        PostRoute(
            "erasure", "/audit/erasure",
            fields=_AUDIT_FIELDS,
            compute=_erasure,
            render=dict,
            counter="repro_serve_erasure_requests_total",
            many_runs=True,
        ),
    )
}

#: The read-only endpoints, by path template.
GET_ROUTES: dict[str, GetRoute] = {
    route.path: route
    for route in (
        GetRoute("/healthz", "health"),
        GetRoute("/runs", "runs"),
        GetRoute("/runs/<id>", "run_detail", takes="id"),
        GetRoute("/stats", "stats", takes="run"),
        GetRoute("/debug/slow", "debug_slow"),
    )
}


class QueryService:
    """Long-lived provenance query engine over one warehouse root."""

    def __init__(
        self,
        warehouse: Warehouse,
        config: ServeConfig,
        registry: MetricsRegistry | None = None,
    ):
        self.warehouse = warehouse
        self.config = config
        self.registry = registry if registry is not None else get_registry()
        self.pool = QueryPool(
            workers=config.workers,
            queue_limit=config.queue_limit,
            deadline=config.effective_deadline(),
        )
        self.cache = PatternResultCache(config.cache_size)
        self._residents: dict[str, _ResidentRun] = {}
        self._load_lock = threading.Lock()
        self._catalog_sig = self._catalog_signature()
        self._segment_epochs = self._catalog_epochs()
        self._started = time.time()
        self._closed = False
        #: Test instrumentation: called on the worker thread before each
        #: query executes (lets tests hold workers busy deterministically).
        self.query_hook: Callable[[], None] | None = None
        self._sweep_stop = threading.Event()
        self._sweeper: threading.Thread | None = None
        if config.retention_ttl:
            self._sweeper = threading.Thread(
                target=self._retention_loop, name="repro-retention", daemon=True
            )
            self._sweeper.start()
        set_build_info(self.registry, component="serve")

    @classmethod
    def open(cls, config: ServeConfig, registry: MetricsRegistry | None = None) -> "QueryService":
        return cls(Warehouse.open(config.root), config, registry=registry)

    # -- catalog freshness -----------------------------------------------------

    def _catalog_signature(self) -> tuple[int, int] | None:
        try:
            stat = os.stat(self.warehouse.root / "catalog.json")
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def _catalog_epochs(self) -> dict[str, int | None]:
        """``run_id -> segment_epoch`` over the warehouse's catalog."""
        return {
            record.run_id: record.segment_epoch for record in self.warehouse.runs()
        }

    def check_catalog(self) -> bool:
        """Pick up external catalog changes; ``True`` if anything invalidated.

        Called on every request; the fast path is one ``stat`` of
        ``catalog.json``.  When the file changed, the reloaded catalog is
        diffed run by run against the service's ``{run_id: segment_epoch}``
        snapshot, because a run is the only grain at which a stored answer
        can change:

        * a run whose segment epoch moved (a micro-batch append, a seal, a
          retention sweep) loses its cached answers and its resident store;
        * a run that left the catalog loses the same two;
        * a new run costs nothing: every cache key holds its resolved run
          ids, so a request that now resolves to it misses by key.

        A batch run never changes after ``record``, so its answers survive
        every other writer.
        """
        signature = self._catalog_signature()
        if signature == self._catalog_sig:
            return False
        with self._load_lock:
            signature = self._catalog_signature()
            if signature == self._catalog_sig:
                return False
            self._catalog_sig = signature
            self.warehouse.refresh()
            # Diff against the *service's* snapshot: a sweep this very
            # process ran has already moved the warehouse's records in
            # memory, yet the cache is still stale.
            before, self._segment_epochs = self._segment_epochs, self._catalog_epochs()
            moved = {
                run_id
                for run_id, epoch in self._segment_epochs.items()
                if run_id in before and before[run_id] != epoch
            }
            stale = moved | (before.keys() - self._segment_epochs.keys())
            for run_id in stale & self._residents.keys():
                del self._residents[run_id]
        self.registry.counter("repro_serve_catalog_refreshes_total").inc()
        if not stale:
            return False
        if moved:
            self.registry.counter("repro_serve_segment_invalidations_total").inc(
                len(moved)
            )
        self.cache.invalidate_runs(stale)
        return True

    # -- retention -------------------------------------------------------------

    def sweep_retention(self, ttl_seconds: float | None = None) -> dict[str, Any]:
        """One TTL sweep over every epoch-layout run; returns the report.

        Each swept run yields a verified retention receipt and a segment
        epoch bump, so the next request's :meth:`check_catalog` drops
        exactly that run's cached answers and resident store.
        """
        ttl = ttl_seconds if ttl_seconds is not None else self.config.retention_ttl
        if not ttl:
            raise ServeError("retention sweep needs a positive TTL")
        report = self.warehouse.retain(ttl)
        self.registry.counter("repro_serve_retention_sweeps_total").inc()
        expired = sum(
            len(receipt["expired_epochs"]) for receipt in report["receipts"]
        )
        if expired:
            self.registry.counter("repro_serve_segments_expired_total").inc(expired)
            get_logger("serve").event(
                "serve-retention", swept=report["swept"], segments_expired=expired
            )
            # Propagate the staleness immediately rather than waiting for
            # the next request to stat the catalog.
            self.check_catalog()
        return report

    def _retention_loop(self) -> None:
        interval = max(self.config.retention_sweep_interval, 0.01)
        while not self._sweep_stop.wait(interval):
            try:
                self.sweep_retention()
            except Exception as exc:  # noqa: BLE001 -- the sweeper must survive
                get_logger("serve").event("serve-retention-error", error=str(exc))

    # -- read-only endpoints ---------------------------------------------------

    def health(self) -> dict[str, Any]:
        from repro import __version__

        return {
            "status": "ok",
            "version": __version__,
            "runs": len(self.warehouse),
            "resident_runs": len(self._residents),
            "uptime_seconds": time.time() - self._started,
            "workers": self.config.workers,
            "queue_limit": self.config.queue_limit,
        }

    def runs(self) -> dict[str, Any]:
        """The catalog: one object per stored run, oldest first."""
        return {"runs": [record.to_obj() for record in self.warehouse.runs()]}

    def run_detail(self, run_id: str) -> dict[str, Any]:
        """Manifest summary plus the execution metrics recorded with the run."""
        summary = self.warehouse.inspect(run_id)
        metrics_path = self.warehouse.run_dir(summary["run_id"]) / METRICS_NAME
        if metrics_path.exists():
            with open(metrics_path, "r", encoding="utf-8") as handle:
                summary["metrics"] = json.load(handle)
        return summary

    def run_stats(self, run_id: str | None = None) -> MetricsRegistry:
        """The per-run registry ``repro stats`` renders, served remotely.

        Serve-side counters (queries, forward traces, SARs, requests) are
        folded in after the warehouse figures, so ``repro stats --remote``
        shows what this server has answered, not just what is stored.
        """
        registry = self.warehouse.stats(run_id, registry=MetricsRegistry())
        for metric in self.registry.metrics():
            if isinstance(metric, Counter) and metric.name.startswith("repro_serve_"):
                copy = registry.counter(metric.name, **dict(metric.labels))
                if metric.value:
                    copy.inc(metric.value)
        return registry

    def stats(self, run_id: str | None = None) -> dict[str, Any]:
        """:meth:`run_stats` as JSON (``GET /v1/stats``)."""
        return self.run_stats(run_id).to_json()

    def debug_slow(self) -> dict[str, Any]:
        """This process's slow-query ring (``GET /v1/debug/slow``)."""
        return slow_log_payload()

    # -- the request path ------------------------------------------------------

    def request(self, kind: str, body: dict[str, Any]) -> dict[str, Any]:
        """Answer one POST request of *kind* (a :data:`POST_ROUTES` key).

        *body* is the request's JSON body -- on every transport.  It is
        validated by the route's ``parse``, its run scope resolved to an id
        tuple, and the answer taken from the pattern-result cache or
        computed as one pooled task (one admission slot, one deadline).
        Returns the stored payload (``result`` or ``report``,
        ``query_seconds``, ...) plus a per-request ``server`` block carrying
        the cache verdict and this request's wall time.  An ``analyze``
        request bypasses the cache (a cached answer has no fresh timings to
        explain) and its payload gains an ``"analyze"`` breakdown block;
        the ``result`` block is byte-identical either way.
        """
        route = POST_ROUTES[kind]
        params = route.parse(body)
        run_ids = self._scope(route, params)
        deadline = self.config.effective_deadline()

        def compute() -> dict[str, Any]:
            return self.pool.run(
                lambda: self._execute(route, run_ids, params), deadline
            )

        with timed(f"serve-request {kind}", "serve") as request_span:
            if params.get("analyze"):
                payload, was_hit = compute(), False
            else:
                # Position 1 is what invalidate_runs inspects when a run goes stale.
                key = (kind, run_ids, *(params[name] for name in route.cache_key))
                payload, was_hit = self.cache.get_or_compute(
                    key, compute, wait_timeout=deadline
                )
            request_span.set(cached=was_hit)
        self.registry.counter(route.counter).inc()
        return dict(
            payload, server={"cached": was_hit, "seconds": request_span.duration}
        )

    def _scope(self, route: PostRoute, params: dict[str, Any]) -> tuple[str, ...]:
        """Resolve a request's run scope to an ordered id tuple.

        A one-run route resolves ``run`` (``None``: the newest).  On a
        many-run route ``runs`` (an explicit list of ids/names, order
        preserved) wins over ``run``; with neither, the scope is every
        catalogued run.
        """
        resolve = self.warehouse.resolve
        if route.many_runs:
            if params["runs"] is not None:
                return tuple(resolve(run).run_id for run in params["runs"])
            if params["run"] is None:
                return tuple(record.run_id for record in self.warehouse.runs())
        return (resolve(params["run"]).run_id,)

    def _execute(
        self, route: PostRoute, run_ids: tuple[str, ...], params: dict[str, Any]
    ) -> dict[str, Any]:
        """The pooled worker body: the route's computation over resident runs."""
        analyze = params.get("analyze", False)
        if route.many_runs:
            text, log_as, about = params["template"], "serve", {"runs": len(run_ids)}
        else:
            text, log_as = params["pattern"], run_ids[0]
            about = {"run_id": log_as, "pattern": text}
        with explained(
            route.kind, text, run_id=",".join(run_ids), analyze=analyze
        ) as query:
            if self.query_hook is not None:
                self.query_hook()
            residents = [self._resident(run_id) for run_id in run_ids]
            with timed(f"serve-{route.kind}", "serve", **about) as compute_span:
                answer, facts = route.compute(residents, params)
                compute_span.set(**facts)
            seconds = compute_span.duration
            get_logger(log_as).event(
                f"serve-{route.kind}", seconds=seconds, **about, **facts
            )
            payload = {
                route.block: route.render(answer),
                "query_seconds": seconds,
            }
            if not route.many_runs:
                payload.update(about)
        if analyze:
            payload["analyze"] = query.breakdown.to_json()
        return payload

    def _resident(self, run_id: str) -> _ResidentRun:
        """The shared stored run *run_id*, opened on first use."""
        resident = self._residents.get(run_id)
        if resident is not None:
            return resident
        with self._load_lock:
            resident = self._residents.get(run_id)
            if resident is not None:
                return resident
            with span("serve-load", "serve", run_id=run_id):
                resident = _ResidentRun(
                    self.warehouse.load(run_id), self.warehouse.load_index(run_id)
                )
            self._residents[run_id] = resident
            return resident

    # -- metrics ---------------------------------------------------------------

    def observe_request(
        self,
        endpoint: str,
        status: int,
        seconds: float,
        span_id: int | str | None = None,
    ) -> None:
        """Fold one finished HTTP request into the registry.

        *span_id* (the request span's id, when tracing is on) becomes the
        histogram's exemplar: the trace that explains the latency tail.
        """
        self.registry.counter(
            "repro_serve_requests_total", endpoint=endpoint, status=str(status)
        ).inc()
        self.registry.histogram(
            "repro_serve_request_seconds", endpoint=endpoint
        ).observe(seconds, span_id=span_id)

    def publish_gauges(self) -> None:
        """Refresh the point-in-time gauges before a ``/metrics`` scrape."""
        registry = self.registry
        registry.gauge("repro_serve_uptime_seconds").set(time.time() - self._started)
        registry.gauge("repro_serve_inflight").set(self.pool.pending())
        registry.gauge("repro_serve_queue_depth").set(self.pool.queue_depth())
        pool = self.pool.stats
        registry.gauge("repro_serve_pool_admitted").set(pool.admitted)
        registry.gauge("repro_serve_pool_completed").set(pool.completed)
        registry.gauge("repro_serve_pool_rejected").set(pool.rejected)
        registry.gauge("repro_serve_pool_timeouts").set(pool.timeouts)
        for name, value in self.cache.snapshot().items():
            registry.gauge(f"repro_serve_pattern_cache_{name}").set(value)
        for run_id, resident in list(self._residents.items()):
            cache = resident.run.store.metrics
            for field in ("hits", "misses", "item_hits", "item_misses", "bytes_read", "evictions"):
                registry.gauge(
                    f"repro_serve_segment_cache_{field}", run_id=run_id
                ).set(getattr(cache, field))

    def metrics_text(self) -> str:
        """The Prometheus text page ``GET /metrics`` serves."""
        self.publish_gauges()
        return self.registry.render_prometheus()

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Drain the pool and flush final counters; safe to call twice.

        Part of graceful shutdown: in-flight queries finish (the pool closes
        with ``wait=True``), then a last ``serve-shutdown`` event carrying
        the final ``/metrics`` counter values lands in the structured run
        log -- the numbers a scraper would have seen on its next pass.
        """
        with self._load_lock:
            if self._closed:
                return
            self._closed = True
        self._sweep_stop.set()
        if self._sweeper is not None:
            self._sweeper.join(timeout=5)
            self._sweeper = None
        self.pool.close()
        self.publish_gauges()
        counters = {
            metric.name + _suffix(metric.labels): metric.value
            for metric in self.registry.metrics()
            if isinstance(metric, Counter) and metric.name.startswith("repro_serve_")
        }
        get_logger("serve").event(
            "serve-shutdown",
            uptime_seconds=time.time() - self._started,
            resident_runs=len(self._residents),
            counters=counters,
        )

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"QueryService({self.warehouse!r}, {len(self._residents)} resident, "
            f"{len(self.cache)} cached answers)"
        )
