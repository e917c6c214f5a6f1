"""The fleet router: one ``/v1`` front door over N serve workers.

The router owns the **run -> worker** map (a :class:`~repro.core.ring.HashRing`
over the fleet's worker names) and splits the API surface by scope:

* **run-scoped** requests (``POST /v1/query``, ``POST /v1/forward``,
  ``GET /v1/runs/<id>``) are *proxied byte-for-byte* to the worker that
  owns the run, so every query for a run lands on the worker whose
  pattern-result cache and resident
  :class:`~repro.warehouse.reader.LazyProvenanceStore` are already hot --
  and the response body is exactly what a single server would have sent;
* **cross-shard** requests are *scatter-gathered*: ``GET /v1/runs`` is the
  union of the workers' catalogs, ``GET /v1/stats`` sums the fleet's
  ``repro_serve_*`` counters over one shared copy of the warehouse figures
  (what ``repro stats --remote`` renders), and the bulk audit endpoints
  (``POST /v1/audit/sar``, ``POST /v1/audit/erasure``) hand each worker
  exactly its owned runs via the request's ``runs`` field, then merge the
  per-run findings back into **the same report bytes -- and for erasure
  the same sha256 digest -- a single process would produce**.

Placement is an affinity optimisation, never a correctness constraint:
every worker mounts the whole warehouse, so when the owning worker is
unreachable the router walks the ring's deterministic preference chain and
the answer is identical, merely colder.  Routing state is a cached catalog
snapshot, refreshed before every scatter-gather (where completeness is
correctness) and on resolution misses (for placement).

The router speaks ``/v1`` only (plus the unversioned ``/metrics`` and
``/stats?format=prometheus`` scrape surfaces, which aggregate the fleet)
and adds ``GET /v1/fleet``: the topology -- workers, ring size, and the
current run assignments.
"""

from __future__ import annotations

import json
import threading
import urllib.error
import urllib.request
from http.server import ThreadingHTTPServer
from time import perf_counter
from typing import Any, Callable

from repro.audit.sar import report_digest
from repro.core.ring import DEFAULT_REPLICAS, HashRing
from repro.errors import ProvenanceError, ServeError
from repro.obs.log import get_logger
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry, set_build_info
from repro.obs.tracer import get_tracer
from repro.serve.http import (
    API_VERSION,
    MAX_BODY_BYTES,
    OneWriteHandler,
    error_envelope,
    error_status,
)

__all__ = ["RouterService", "RouterServer"]


def _fetch(
    url: str, verb: str, path: str, data: bytes | None = None, timeout: float = 30.0
) -> tuple[int, bytes]:
    """One HTTP exchange with a worker; error responses return, not raise."""
    request = urllib.request.Request(
        url + path,
        data=data,
        headers={"Content-Type": "application/json"},
        method=verb,
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, response.read()
    except urllib.error.HTTPError as exc:
        return exc.code, exc.read()


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
                status, body = self._worker_fetch(
                    name, "GET", f"/{API_VERSION}/runs"
                )
            except urllib.error.URLError as exc:
                last_error = exc
                continue
            if status != 200:
                last_error = ServeError(
                    f"worker {name} answered /runs with HTTP {status}"
                )
                continue
            runs = json.loads(body)["data"]["runs"]
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
        started = perf_counter()
        try:
            return _fetch(self.workers[name], verb, path, data, self.timeout)
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
            except urllib.error.URLError as exc:
                last_error = exc
                get_logger("router").event(
                    "router-failover", worker=name, path=path, error=str(exc.reason)
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
            except urllib.error.URLError as exc:
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

    @staticmethod
    def _unwrap(name: str, status: int, body: bytes) -> Any:
        """Decode one worker's ``/v1`` envelope; re-raise its typed error."""
        payload = json.loads(body)
        if payload.get("ok") is True:
            return payload["data"]
        from repro.serve.client import _error_for

        detail = payload.get("error") or {}
        raise _error_for(
            status,
            str(detail.get("message", f"worker {name} answered HTTP {status}")),
            code=detail.get("code"),
            retryable=detail.get("retryable"),
        )

    # -- scatter-gather endpoints ----------------------------------------------

    def runs(self) -> dict[str, Any]:
        """The fleet's union catalog, in catalog (oldest-first) order."""
        answers = self._scatter(
            "GET", f"/{API_VERSION}/runs", {name: None for name in self.workers}
        )
        merged: list[dict[str, Any]] = []
        seen: set[str] = set()
        for name in sorted(answers):
            status, body = answers[name]
            for record in self._unwrap(name, status, body)["runs"]:
                if record["run_id"] not in seen:
                    seen.add(record["run_id"])
                    merged.append(record)
        merged.sort(key=lambda record: (record["created"], record["run_id"]))
        with self._catalog_lock:
            self._catalog = merged
        return {"runs": merged}

    def stats(self) -> MetricsRegistry:
        """The fleet-wide registry: shared warehouse figures + summed serve counters.

        Every worker reports the same warehouse-derived metrics (they mount
        one root), so those are taken once (first worker wins); the
        ``repro_serve_*`` counters and histograms describe each worker's own
        traffic and are summed.  Worker identity is deliberately not a
        label: the aggregate must look like one big server to dashboards.
        """
        answers = self._scatter(
            "GET", f"/{API_VERSION}/stats", {name: None for name in self.workers}
        )
        registry = MetricsRegistry()
        seen: set[tuple[str, tuple[tuple[str, str], ...]]] = set()
        for name in sorted(answers):
            status, body = answers[name]
            for entry in self._unwrap(name, status, body)["metrics"]:
                self._fold_metric(registry, entry, seen)
        return registry

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

    def _scope(self, body: dict[str, Any]) -> list[str]:
        """The ordered run-id scope of a bulk audit request.

        Refreshes the catalog first: scatter-gather completeness is a
        correctness property (a missed run is a wrong report), unlike
        query placement where staleness only costs cache warmth.
        """
        catalog = self.catalog(refresh=True)
        order = [record["run_id"] for record in catalog]
        if body.get("runs") is not None:
            runs = body["runs"]
            if not isinstance(runs, list) or not all(
                isinstance(run, str) and run for run in runs
            ):
                raise ServeError("'runs' must be a list of run ids or names")
            resolved = []
            for run in runs:
                run_id = self._resolve(run)
                if run_id is None:
                    raise ProvenanceError(f"no run {run!r} in the fleet catalog")
                resolved.append(run_id)
            return resolved
        if body.get("run"):
            run_id = self._resolve(str(body["run"]))
            if run_id is None:
                raise ProvenanceError(
                    f"no run {body['run']!r} in the fleet catalog"
                )
            return [run_id]
        return order

    def _scatter_audit(
        self, endpoint: str, body: dict[str, Any]
    ) -> tuple[list[str], dict[str, Any]]:
        """Fan a bulk audit request out by run ownership; gather the answers.

        Returns ``(ordered scope, worker -> unwrapped payload)``.  Each
        worker receives the full subject list and request shape but only
        its owned subset of the scope in ``runs`` -- pagination and subject
        ordering happen identically everywhere, so the per-run entries can
        be merged back without recomputing anything.
        """
        scope = self._scope(body)
        by_worker: dict[str, list[str]] = {}
        for run_id in scope:
            by_worker.setdefault(self.owner(run_id), []).append(run_id)
        if not by_worker:
            # An empty warehouse still produces a (subject-only) report;
            # one worker answers for the empty scope.
            by_worker[self.ring.assign("")] = []
        per_worker = {
            name: json.dumps(dict(body, runs=owned, run=None)).encode("utf-8")
            for name, owned in by_worker.items()
        }
        answers = self._scatter("POST", f"/{API_VERSION}{endpoint}", per_worker)
        payloads = {
            name: self._unwrap(name, status, answer_body)
            for name, (status, answer_body) in answers.items()
        }
        return scope, payloads

    def sar(self, body: dict[str, Any]) -> dict[str, Any]:
        """Scatter one subject-access request; merge to the single-server bytes."""
        scope, payloads = self._scatter_audit("/audit/sar", body)
        order = {run_id: index for index, run_id in enumerate(scope)}
        first = next(iter(payloads.values()))
        report = dict(first["report"])
        merged_subjects = []
        for index, template_entry in enumerate(report["subjects"]):
            runs: list[dict[str, Any]] = []
            for payload in payloads.values():
                runs.extend(payload["report"]["subjects"][index]["runs"])
            runs.sort(key=lambda entry: order[entry["run_id"]])
            merged_subjects.append(
                {
                    "subject": template_entry["subject"],
                    "runs": runs,
                    "run_count": len(runs),
                    "total_outputs": sum(
                        entry["output_count"] for entry in runs
                    ),
                }
            )
        report["subjects"] = merged_subjects
        return {
            "method": first["method"],
            "report": report,
            "query_seconds": max(
                payload["query_seconds"] for payload in payloads.values()
            ),
        }

    def erasure(self, body: dict[str, Any]) -> dict[str, Any]:
        """Scatter one erasure verification; rebuild the digest-signed receipt.

        The merged body is exactly what ``erasure_over_tracers`` would have
        produced over the full scope, so recomputing the sha256 here yields
        the same digest as a direct library call -- fleet receipts and
        single-process receipts are interchangeable.
        """
        scope, payloads = self._scatter_audit("/audit/erasure", body)
        order = {run_id: index for index, run_id in enumerate(scope)}
        first = next(iter(payloads.values()))
        findings = []
        for index, template_entry in enumerate(first["report"]["subjects"]):
            residuals: list[dict[str, Any]] = []
            for payload in payloads.values():
                residuals.extend(
                    payload["report"]["subjects"][index]["residuals"]
                )
            residuals.sort(key=lambda entry: order[entry["run_id"]])
            findings.append(
                {
                    "subject": template_entry["subject"],
                    "clean": not residuals,
                    "residuals": residuals,
                }
            )
        merged = {
            "report": "erasure-verification",
            "template": first["report"]["template"],
            "subjects": findings,
            "subject_count": len(findings),
            "clean": all(finding["clean"] for finding in findings),
            "runs_checked": scope,
        }
        return {
            "method": first["method"],
            "report": dict(merged, digest=report_digest(merged)),
            "query_seconds": max(
                payload["query_seconds"] for payload in payloads.values()
            ),
        }

    def health(self) -> dict[str, Any]:
        """Router liveness plus each worker's own health answer."""
        answers = self._scatter(
            "GET", f"/{API_VERSION}/healthz", {name: None for name in self.workers}
        )
        workers = {}
        for name in sorted(self.workers):
            status, body = answers[name]
            try:
                workers[name] = self._unwrap(name, status, body)
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
        answers = self._scatter(
            "GET",
            f"/{API_VERSION}/debug/slow",
            {name: None for name in self.workers},
        )
        return {
            "workers": {
                name: self._unwrap(name, status, body)
                for name, (status, body) in sorted(answers.items())
            }
        }

    def metrics_text(self) -> str:
        """The aggregate Prometheus page, router-side counters appended."""
        registry = self.stats()
        for metric in self.registry.metrics():
            if isinstance(metric, Counter):
                copy = registry.counter(metric.name, **dict(metric.labels))
                if metric.value:
                    copy.inc(metric.value)
            elif isinstance(metric, Gauge):
                registry.gauge(metric.name, **dict(metric.labels)).set(metric.value)
        return registry.render_prometheus()

    def observe_request(self, endpoint: str, status: int, seconds: float) -> None:
        self.registry.counter(
            "repro_router_requests_total", endpoint=endpoint, status=str(status)
        ).inc()
        self.registry.histogram(
            "repro_router_request_seconds", endpoint=endpoint
        ).observe(seconds)


class _RouterHTTPServer(ThreadingHTTPServer):
    daemon_threads = True
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], router: RouterService):
        super().__init__(address, _RouterHandler)
        self.router = router


class _RouterHandler(OneWriteHandler):
    """One router connection: route, proxy or scatter, answer in-envelope."""

    server: _RouterHTTPServer

    def _send(self, status: int, body: bytes, content_type: str, worker: str | None = None) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if worker is not None:
            self.send_header("X-Repro-Worker", worker)
        self.end_headers_with(body)

    def _send_envelope(self, payload: Any) -> int:
        body = json.dumps({"ok": True, "data": payload}, sort_keys=True).encode(
            "utf-8"
        )
        self._send(200, body, "application/json")
        return 200

    def _read_raw(self) -> bytes:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0 or length > MAX_BODY_BYTES:
            raise ServeError(f"request body must be 1..{MAX_BODY_BYTES} bytes")
        return self.rfile.read(length)

    def _read_body(self) -> tuple[bytes, dict[str, Any]]:
        raw = self._read_raw()
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServeError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServeError("request body must be a JSON object")
        return raw, payload

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")

    def _route(self, verb: str) -> None:
        router = self.server.router
        from urllib.parse import parse_qs, urlsplit

        split = urlsplit(self.path)
        segments = [part for part in split.path.split("/") if part]
        versioned = segments[:1] == [API_VERSION]
        if versioned:
            segments = segments[1:]
        query = parse_qs(split.query)
        endpoint = "(unknown)"
        status = 500
        started = perf_counter()
        try:
            endpoint, handler = self._dispatch(verb, segments, versioned, query)
            if versioned:
                endpoint = f"/{API_VERSION}" + endpoint
            with get_tracer().span(f"route {endpoint}", "router", verb=verb):
                status = handler()
        except Exception as exc:  # noqa: BLE001 -- every error becomes a response
            status = error_status(exc)
            body = json.dumps(error_envelope(exc), sort_keys=True).encode("utf-8")
            self._send(status, body, "application/json")
            if status == 500:
                get_logger("router").event(
                    "router-error", endpoint=endpoint, error=str(exc)
                )
        finally:
            router.observe_request(endpoint, status, perf_counter() - started)

    def _dispatch(
        self,
        verb: str,
        segments: list[str],
        versioned: bool,
        query: dict[str, list[str]],
    ) -> tuple[str, Callable[[], int]]:
        router = self.server.router
        if verb == "GET" and segments == ["healthz"]:
            return "/healthz", lambda: self._send_envelope(router.health())
        if verb == "GET" and segments == ["fleet"]:
            return "/fleet", lambda: self._send_envelope(router.fleet())
        if verb == "GET" and segments == ["runs"]:
            return "/runs", lambda: self._send_envelope(router.runs())
        if verb == "GET" and len(segments) == 2 and segments[0] == "runs":
            return "/runs/<id>", lambda: self._proxy_run(
                segments[1], "GET", f"/{API_VERSION}/runs/{segments[1]}", None
            )
        if verb == "GET" and segments == ["stats"]:
            return "/stats", lambda: self._stats(versioned, query)
        if verb == "GET" and segments == ["metrics"] and not versioned:
            return "/metrics", lambda: self._metrics()
        if verb == "GET" and segments == ["debug", "slow"]:
            return "/debug/slow", lambda: self._send_envelope(router.debug_slow())
        if verb == "POST" and segments in (["query"], ["forward"]):
            kind = segments[0]
            return f"/{kind}", lambda: self._proxy_query(kind)
        if verb == "POST" and segments == ["audit", "sar"]:
            return "/audit/sar", lambda: self._audit(router.sar)
        if verb == "POST" and segments == ["audit", "erasure"]:
            return "/audit/erasure", lambda: self._audit(router.erasure)
        raise ProvenanceError(f"no such route: {verb} {self.path}")

    # -- handler bodies --------------------------------------------------------

    def _proxy_run(
        self, run: str, verb: str, path: str, data: bytes | None
    ) -> int:
        router = self.server.router
        run_id = router._resolve(run) or run
        status, body, worker = router.forward_to_owner(run_id, verb, path, data)
        self._send(status, body, "application/json", worker=worker)
        return status

    def _proxy_query(self, kind: str) -> int:
        """Route one query/forward to its run's owner, bytes untouched."""
        raw, payload = self._read_body()
        run = payload.get("run")
        router = self.server.router
        run_id = router._resolve(str(run) if run is not None else None)
        status, body, worker = router.forward_to_owner(
            run_id or str(run or ""), "POST", f"/{API_VERSION}/{kind}", raw
        )
        self._send(status, body, "application/json", worker=worker)
        return status

    def _audit(self, method: Callable[[dict[str, Any]], dict[str, Any]]) -> int:
        _, payload = self._read_body()
        return self._send_envelope(method(payload))

    def _stats(self, versioned: bool, query: dict[str, list[str]]) -> int:
        router = self.server.router
        registry = router.stats()
        wants_text = (query.get("format") or ["json"])[0] == "prometheus"
        if wants_text and not versioned:
            body = registry.render_prometheus().encode("utf-8")
            self._send(200, body, "text/plain; version=0.0.4")
            return 200
        return self._send_envelope(registry.to_json())

    def _metrics(self) -> int:
        body = self.server.router.metrics_text().encode("utf-8")
        self._send(200, body, "text/plain; version=0.0.4")
        return 200


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
