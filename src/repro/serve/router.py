"""The fleet router: one ``/v1`` front door over N serve workers.

The router owns the **run -> worker** map (a :class:`~repro.core.ring.HashRing`
over the fleet's worker names) and answers the same route table a worker
does (:mod:`repro.serve.service`), splitting it by each row's run scope:

* **one-run** rows (``POST /v1/query``, ``POST /v1/forward``,
  ``GET /v1/runs/<id>``) are *proxied byte-for-byte* to the worker that
  owns the run, so every query for a run lands on the worker whose
  pattern-result cache and resident
  :class:`~repro.warehouse.reader.LazyProvenanceStore` are already hot --
  and the response body is exactly what a single server would have sent;
* **many-run** rows are *scatter-gathered*: ``GET /v1/runs`` is the
  union of the workers' catalogs, ``GET /v1/stats`` sums the fleet's
  ``repro_serve_*`` counters over one shared copy of the warehouse figures
  (what ``repro stats --remote`` renders), and the bulk audit kinds
  (``POST /v1/audit/sar``, ``POST /v1/audit/erasure``) hand each worker
  exactly its owned runs via the request's ``runs`` field, then merge the
  parts with the row's ``merge`` into **the same report bytes -- and for
  erasure the same sha256 digest -- a single process would produce**.

Placement is an affinity optimisation, never a correctness constraint:
every worker mounts the whole warehouse, so when the owning worker is
unreachable the router walks the ring's deterministic preference chain and
the answer is identical, merely colder.  Routing state is a cached catalog
snapshot, refreshed before every scatter-gather (where completeness is
correctness) and on resolution misses (for placement).

Like a worker, the router speaks ``/v1`` plus the two unversioned scrape
pages (``/metrics`` and ``/stats?format=prometheus``, which aggregate the
fleet); it adds ``GET /v1/fleet``: the topology -- workers, ring size, and
the current run assignments.
"""

from __future__ import annotations

import json
import threading
from http.server import ThreadingHTTPServer
from time import perf_counter
from typing import Any, Callable
from urllib.parse import quote

from repro.client import exchange, unwrap
from repro.core.ring import DEFAULT_REPLICAS, HashRing
from repro.errors import ProvenanceError, ReproError, ServeError
from repro.obs.log import get_logger
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, set_build_info
from repro.serve.http import OneWriteHandler, json_object
from repro.serve.service import API_VERSION, GetRoute, PostRoute

__all__ = ["RouterService", "RouterServer"]


class RouterService:
    """Transport-free router core: placement, proxying, scatter-gather."""

    def __init__(
        self,
        workers: list[tuple[str, str]],
        replicas: int = DEFAULT_REPLICAS,
        timeout: float = 30.0,
        registry: MetricsRegistry | None = None,
    ):
        if not workers:
            raise ServeError("router needs at least one worker")
        self.workers = dict(workers)
        if len(self.workers) != len(workers):
            raise ServeError("router worker names must be unique")
        self.ring = HashRing(self.workers, replicas=replicas)
        self.timeout = timeout
        self.registry = registry if registry is not None else MetricsRegistry()
        self._catalog: list[dict[str, Any]] = []
        self._catalog_lock = threading.Lock()
        set_build_info(self.registry, component="router")

    # -- the catalog snapshot --------------------------------------------------

    def refresh_catalog(self) -> list[dict[str, Any]]:
        """Re-fetch ``/v1/runs`` from the first reachable worker."""
        last_error: Exception | None = None
        for name in self.ring.preference("catalog"):
            try:
                answer = self._worker_fetch(name, "GET", f"/{API_VERSION}/runs")
                runs = unwrap(*answer)["runs"]
            except ReproError as exc:  # unreachable, or not answering /runs
                last_error = exc
                continue
            with self._catalog_lock:
                self._catalog = runs
            return runs
        raise ServeError(f"no worker could list runs: {last_error}")

    def catalog(self, refresh: bool = False) -> list[dict[str, Any]]:
        with self._catalog_lock:
            snapshot = list(self._catalog)
        if refresh or not snapshot:
            return self.refresh_catalog()
        return snapshot

    def _resolve(self, run: str | None) -> str | None:
        """Best-effort run resolution for *placement* (the warehouse rules:
        exact id first, then newest run of that name, ``None`` -> newest).

        A miss refreshes once; a second miss returns ``None`` and the
        request is routed by the raw value -- the worker, which always
        resolves against the live catalog, produces the authoritative
        answer (or 404) either way.
        """
        for attempt in range(2):
            catalog = self.catalog(refresh=attempt > 0)
            if run is None:
                if catalog:
                    return catalog[-1]["run_id"]
            else:
                named = None
                for record in catalog:
                    if record["run_id"] == run:
                        return run
                    if record.get("name") == run:
                        named = record["run_id"]
                if named is not None:
                    return named
        return None

    # -- placement + proxying --------------------------------------------------

    def owner(self, run_id: str) -> str:
        return self.ring.assign(run_id)

    def _worker_fetch(
        self, name: str, verb: str, path: str, data: bytes | None = None
    ) -> tuple[int, bytes]:
        """One exchange with a worker: error responses return, an
        unreachable worker raises a (retryable) :class:`ServeError`."""
        started = perf_counter()
        try:
            return exchange(self.workers[name] + path, verb, data, self.timeout)
        finally:
            self.registry.counter(
                "repro_router_worker_requests_total", worker=name
            ).inc()
            self.registry.histogram(
                "repro_router_worker_seconds", worker=name
            ).observe(perf_counter() - started)

    def forward_to_owner(
        self, run_key: str, verb: str, path: str, data: bytes | None = None
    ) -> tuple[int, bytes, str]:
        """Send the raw request to *run_key*'s owner; walk the failover chain.

        Returns ``(status, body, worker)`` with the worker's body untouched
        -- the byte-identity guarantee for run-scoped endpoints.  Only
        transport failures fail over; an HTTP error status is the owner's
        authoritative answer and is returned as-is.
        """
        last_error: Exception | None = None
        for name in self.ring.preference(run_key):
            try:
                status, body = self._worker_fetch(name, verb, path, data)
            except ServeError as exc:
                last_error = exc
                get_logger("router").event(
                    "router-failover", worker=name, path=path, error=str(exc)
                )
                continue
            return status, body, name
        raise ServeError(f"no worker reachable for {path}: {last_error}")

    def _scatter(
        self, verb: str, path: str, per_worker_data: dict[str, bytes | None]
    ) -> dict[str, tuple[int, bytes]]:
        """Issue one request per worker concurrently; gather every answer."""
        results: dict[str, tuple[int, bytes]] = {}
        errors: dict[str, Exception] = {}
        lock = threading.Lock()

        def call(name: str, data: bytes | None) -> None:
            try:
                answer = self._worker_fetch(name, verb, path, data)
            except ServeError as exc:
                with lock:
                    errors[name] = exc
                return
            with lock:
                results[name] = answer

        threads = [
            threading.Thread(
                target=call, args=(name, data), name=f"repro-router-{name}"
            )
            for name, data in per_worker_data.items()
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            failed = ", ".join(sorted(errors))
            raise ServeError(f"fleet workers unreachable: {failed}")
        return results

    def _ask_all(self, path: str) -> dict[str, tuple[int, bytes]]:
        """``GET /v1<path>`` from every worker, by worker name."""
        return self._scatter(
            "GET", f"/{API_VERSION}{path}", {name: None for name in self.workers}
        )

    # -- scatter-gather endpoints ----------------------------------------------

    def runs(self) -> dict[str, Any]:
        """The fleet's union catalog, in catalog (oldest-first) order."""
        answers = self._ask_all("/runs")
        merged: list[dict[str, Any]] = []
        seen: set[str] = set()
        for name in sorted(answers):
            for record in unwrap(*answers[name])["runs"]:
                if record["run_id"] not in seen:
                    seen.add(record["run_id"])
                    merged.append(record)
        merged.sort(key=lambda record: (record["created"], record["run_id"]))
        with self._catalog_lock:
            self._catalog = merged
        return {"runs": merged}

    def run_stats(self, run: str | None = None) -> MetricsRegistry:
        """The fleet-wide registry: shared warehouse figures + summed serve counters.

        Every worker reports the same warehouse-derived metrics (they mount
        one root), so those are taken once (first worker wins); the
        ``repro_serve_*`` counters and histograms describe each worker's own
        traffic and are summed.  Worker identity is deliberately not a
        label: the aggregate must look like one big server to dashboards.
        """
        answers = self._ask_all("/stats" + (f"?run={quote(run)}" if run else ""))
        registry = MetricsRegistry()
        seen: set[tuple[str, tuple[tuple[str, str], ...]]] = set()
        for name in sorted(answers):
            for entry in unwrap(*answers[name])["metrics"]:
                self._fold_metric(registry, entry, seen)
        return registry

    def stats(self, run: str | None = None) -> dict[str, Any]:
        """:meth:`run_stats` as JSON (``GET /v1/stats``)."""
        return self.run_stats(run).to_json()

    @staticmethod
    def _fold_metric(
        registry: MetricsRegistry,
        entry: dict[str, Any],
        seen: set[tuple[str, tuple[tuple[str, str], ...]]],
    ) -> None:
        labels = dict(entry.get("labels") or {})
        key = (entry["name"], tuple(sorted(labels.items())))
        additive = entry["name"].startswith("repro_serve_")
        if not additive and key in seen:
            return
        seen.add(key)
        if entry["type"] == "counter":
            counter: Counter = registry.counter(entry["name"], **labels)
            if entry["value"]:
                counter.inc(entry["value"])
        elif entry["type"] == "gauge":
            gauge: Gauge = registry.gauge(entry["name"], **labels)
            if additive:
                gauge.add(entry["value"])
            else:
                gauge.set(entry["value"])
        else:
            histogram: Histogram = registry.histogram(
                entry["name"], buckets=tuple(entry["buckets"]), **labels
            )
            if additive or histogram.count == 0:
                for index, count in enumerate(entry["counts"]):
                    histogram.counts[index] += count
                histogram.sum += entry["sum"]
                histogram.count += entry["count"]

    def _scope(self, run: str | None, runs: list[str] | None) -> list[str]:
        """The ordered run-id scope of a many-run request.

        Refreshes the catalog first: scatter-gather completeness is a
        correctness property (a missed run is a wrong report), unlike
        query placement where staleness only costs cache warmth.
        """
        catalog = self.catalog(refresh=True)
        if runs is None and not run:
            return [record["run_id"] for record in catalog]
        resolved = []
        for name in runs if runs is not None else [run]:
            run_id = self._resolve(name)
            if run_id is None:
                raise ProvenanceError(f"no run {name!r} in the fleet catalog")
            resolved.append(run_id)
        return resolved

    def audit(self, route: PostRoute, body: dict[str, Any]) -> dict[str, Any]:
        """Scatter one many-run request by ownership; merge to the
        single-server bytes.

        Each worker receives the full request but only its owned subset of
        the scope in ``runs`` -- pagination and subject ordering happen
        identically everywhere -- and ``route.merge`` rebuilds, from the
        parts' reports, exactly the report (for erasure: the sha256 digest)
        one process would have produced over the whole scope.
        """
        params = route.parse(body)
        scope = self._scope(params["run"], params["runs"])
        by_worker: dict[str, list[str]] = {}
        for run_id in scope:
            by_worker.setdefault(self.owner(run_id), []).append(run_id)
        if not by_worker:
            # An empty warehouse still produces a (subject-only) report;
            # one worker answers for the empty scope.
            by_worker[self.ring.assign("")] = []
        answers = self._scatter(
            "POST",
            f"/{API_VERSION}{route.path}",
            {
                name: json.dumps(dict(body, runs=owned, run=None)).encode("utf-8")
                for name, owned in by_worker.items()
            },
        )
        payloads = [unwrap(*answer) for answer in answers.values()]
        return {
            "method": payloads[0]["method"],
            "report": route.merge(scope, [payload["report"] for payload in payloads]),
            "query_seconds": max(payload["query_seconds"] for payload in payloads),
        }

    def health(self) -> dict[str, Any]:
        """Router liveness plus each worker's own health answer."""
        answers = self._ask_all("/healthz")
        workers = {}
        for name in sorted(self.workers):
            try:
                workers[name] = unwrap(*answers[name])
            except Exception as exc:  # noqa: BLE001 -- health reports, not raises
                workers[name] = {"status": "error", "error": str(exc)}
        healthy = sum(
            1 for health in workers.values() if health.get("status") == "ok"
        )
        return {
            "status": "ok" if healthy == len(self.workers) else "degraded",
            "role": "router",
            "workers": workers,
            "healthy_workers": healthy,
        }

    def fleet(self) -> dict[str, Any]:
        """The topology: workers, ring parameters, current run placement."""
        catalog = self.catalog(refresh=True)
        run_ids = [record["run_id"] for record in catalog]
        return {
            "workers": [
                {"name": name, "url": url}
                for name, url in sorted(self.workers.items())
            ],
            "replicas": self.ring.replicas,
            "assignments": self.ring.assignments(run_ids),
        }

    def debug_slow(self) -> dict[str, Any]:
        """Every worker's slow-query ring, keyed by worker name."""
        answers = self._ask_all("/debug/slow")
        return {"workers": {name: unwrap(*answers[name]) for name in sorted(answers)}}

    def metrics_text(self) -> str:
        """The aggregate Prometheus page, router-side counters appended."""
        registry = self.run_stats()
        for metric in self.registry.metrics():
            if isinstance(metric, Counter):
                copy = registry.counter(metric.name, **dict(metric.labels))
                if metric.value:
                    copy.inc(metric.value)
            elif isinstance(metric, Gauge):
                registry.gauge(metric.name, **dict(metric.labels)).set(metric.value)
        return registry.render_prometheus()

    def observe_request(
        self,
        endpoint: str,
        status: int,
        seconds: float,
        span_id: int | str | None = None,
    ) -> None:
        self.registry.counter(
            "repro_router_requests_total", endpoint=endpoint, status=str(status)
        ).inc()
        self.registry.histogram(
            "repro_router_request_seconds", endpoint=endpoint
        ).observe(seconds, span_id=span_id)


class _RouterHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], router: RouterService):
        super().__init__(address, _RouterHandler)
        self.router = router


class _RouterHandler(OneWriteHandler):
    """The router's connections: a one-run row is proxied to the run's
    owner, bytes untouched; a many-run row is scattered and merged."""

    server: _RouterHTTPServer
    role = "router"

    @property
    def backend(self) -> RouterService:
        return self.server.router

    def _resolve(
        self, verb: str, path: str, query: dict[str, list[str]], raw: bytes
    ) -> tuple[str, Callable[[], int]]:
        if verb == "GET" and path == f"/{API_VERSION}/fleet":
            return path, lambda: self._ok(self.server.router.fleet())
        return super()._resolve(verb, path, query, raw)

    def _get(self, route: GetRoute, arg: str | None) -> int:
        if route.takes == "id":
            return self._proxy(arg, "GET")
        return super()._get(route, arg)

    def _post(self, route: PostRoute, raw: bytes) -> int:
        body = json_object(raw)
        if route.many_runs:
            return self._ok(self.server.router.audit(route, body))
        run = body.get("run")
        return self._proxy(run if isinstance(run, str) else None, "POST", raw)

    def _proxy(self, run: str | None, verb: str, data: bytes | None = None) -> int:
        """Pass this request to the owner of *run*, and its answer back."""
        router = self.server.router
        status, body, worker = router.forward_to_owner(
            router._resolve(run or None) or run or "", verb, self.path, data
        )
        return self._send(status, body, worker=worker)


class RouterServer:
    """The long-running router front-end; same lifecycle as ProvenanceServer."""

    def __init__(
        self, router: RouterService, host: str = "127.0.0.1", port: int = 0
    ):
        self.router = router
        self._httpd = _RouterHTTPServer((host, port), router)
        self._thread: threading.Thread | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "RouterServer":
        if self._thread is not None:
            raise ServeError("router already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-router-accept",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self._httpd.serve_forever(poll_interval=0.1)

    def close(self) -> None:
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()

    def __enter__(self) -> "RouterServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"RouterServer({self.url}, {len(self.router.workers)} workers)"
