"""The HTTP layer: stdlib ``http.server`` endpoints over a QueryService.

The API is **versioned**: the stable surface lives under ``/v1`` and every
``/v1`` endpoint -- success, 400, 404, 429, 504, 500 alike -- answers with
one uniform JSON envelope::

    {"ok": true,  "data": <payload>}
    {"ok": false, "error": {"code": <stable code>, "message": ...,
                            "retryable": bool}}

``error.code`` comes from the :class:`~repro.errors.ReproError` hierarchy's
stable ``code`` attributes (``admission_full``, ``deadline_exceeded``,
``bad_pattern``, ``not_found``, ...), so remote callers classify failures
without parsing messages, and the typed client rebuilds the matching
exception class from the code.

Endpoints (all JSON)::

    GET  /v1/healthz               liveness + basic capacity figures
    GET  /v1/runs                  the catalog (one object per stored run)
    GET  /v1/runs/<run_id>         manifest summary + recorded run metrics
    GET  /v1/stats[?run=ID]        the per-run registry `repro stats` renders
    POST /v1/query                 {"pattern", "run", "method", "analyze"}
    POST /v1/forward               {"pattern", "run", "method", "analyze"}
    GET  /v1/debug/slow            the slow-query ring (REPRO_SLOW_QUERY_MS)
    POST /v1/audit/sar             {"subjects", "template", "run", "runs",
                                    "method", "page", "page_size"}
    POST /v1/audit/erasure         {"subjects", "template", "run", "runs",
                                    "method"} -- digest-signed receipt

Outside the version namespace:

* ``GET /metrics`` -- Prometheus text exposition.  Scrape formats are
  governed by their own spec, not by this API's envelope, so the endpoint
  is deliberately unversioned (as is ``GET /stats?format=prometheus``).
* every pre-/v1 route (``/query``, ``/runs``, ...) still answers with its
  historical body shape but carries ``Deprecation: true`` plus a ``Link:
  </v1/...>; rel="successor-version"`` header pointing at its replacement.

Error statuses (legacy body ``{"error": ..., "kind": ...}``):

* 400 -- malformed request (bad JSON, unknown method, invalid pattern)
* 404 -- unknown run or route
* 429 -- admission queue full (:class:`~repro.errors.AdmissionError`)
* 504 -- per-request deadline exceeded (:class:`~repro.errors.TaskTimeoutError`)
* 500 -- anything else

Each connection runs on its own thread (``ThreadingHTTPServer``); heavy
work is bounded separately by the service's query pool, so accepting a
request never commits the server to running it.  Requests are traced
("request <endpoint>" spans in the ``serve`` category) and counted into the
service registry by endpoint *template* -- ``/v1/runs/<id>``, not the
concrete id -- to keep the metric cardinality bounded.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from time import perf_counter
from typing import Any
from urllib.parse import parse_qs, urlsplit

from repro.errors import (
    AdmissionError,
    AuditError,
    LiveRunError,
    ProvenanceError,
    ServeError,
    StreamError,
    TaskTimeoutError,
    TreePatternError,
    error_code,
)
from repro.obs.log import get_logger
from repro.obs.tracer import get_tracer
from repro.serve.service import QueryService

__all__ = ["ProvenanceServer", "API_VERSION", "error_envelope"]

#: Upper bound on accepted request bodies (a tree pattern is tiny).
MAX_BODY_BYTES = 1 << 20

#: The current (only) version namespace of the HTTP surface.
API_VERSION = "v1"


def error_status(exc: BaseException) -> int:
    """Map a service exception to its HTTP status code."""
    if isinstance(exc, AdmissionError):
        return 429
    if isinstance(exc, TaskTimeoutError):
        return 504
    if isinstance(exc, LiveRunError):
        # A batch-only operation against a still-live run (or vice versa):
        # the resource exists, its *state* conflicts with the request.
        return 409
    if isinstance(exc, (ServeError, TreePatternError, AuditError, StreamError)):
        return 400
    if isinstance(exc, ProvenanceError):
        return 404
    return 500


def error_envelope(exc: BaseException) -> dict[str, Any]:
    """The uniform ``/v1`` error body for *exc* (also used by the router)."""
    return {
        "ok": False,
        "error": {
            "code": error_code(exc),
            "message": str(exc),
            "retryable": bool(getattr(exc, "retryable", False)),
        },
    }


class _ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service for its handlers."""

    daemon_threads = True
    #: Ephemeral port 0 resolves at bind time; ``server_port`` reflects it.
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: QueryService):
        super().__init__(address, _Handler)
        self.service = service


class OneWriteHandler(BaseHTTPRequestHandler):
    """HTTP/1.1 keep-alive handler whose responses leave in one segment.

    Headers flushed on their own and a small body written after them meet
    Nagle's algorithm and the peer's delayed ACK: a client that reuses its
    connection then waits ~40 ms per request for a body the server already
    has.  So Nagle is off and :meth:`end_headers_with` replaces the
    ``end_headers()`` + ``wfile.write(body)`` pair with a single write.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def log_message(self, format: str, *args: Any) -> None:
        # The default handler writes to stderr per request; route nothing --
        # the services emit structured events instead.
        pass

    def end_headers_with(self, body: bytes) -> None:
        if self.request_version == "HTTP/0.9":  # bare "GET /path": body only
            self.wfile.write(body)
            return
        # ``_headers_buffer`` is where send_response/send_header queue their
        # lines until end_headers() flushes them (stdlib, stable since 3.2).
        head, self._headers_buffer = self._headers_buffer, []
        self.wfile.write(b"".join(head) + b"\r\n" + body)


class _Handler(OneWriteHandler):
    """Routes one connection; all responses carry Content-Length (keep-alive)."""

    server: _ServeHTTPServer

    # -- plumbing --------------------------------------------------------------

    def _send(self, status: int, body: bytes, content_type: str) -> None:
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if status == 429:
            self.send_header("Retry-After", "1")
        if getattr(self, "_deprecated", False):
            # RFC 8594-style sunset signalling for the pre-/v1 surface.
            self.send_header("Deprecation", "true")
            self.send_header(
                "Link", f"</{API_VERSION}{self._legacy_path}>; rel=\"successor-version\""
            )
        self.end_headers_with(body)

    def _send_json(self, status: int, payload: Any) -> None:
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self._send(status, body, "application/json")

    def _send_text(self, status: int, text: str) -> None:
        self._send(status, text.encode("utf-8"), "text/plain; version=0.0.4")

    def _read_body(self) -> dict[str, Any]:
        length = int(self.headers.get("Content-Length") or 0)
        if length <= 0 or length > MAX_BODY_BYTES:
            raise ServeError(f"request body must be 1..{MAX_BODY_BYTES} bytes")
        raw = self.rfile.read(length)
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServeError(f"request body is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise ServeError("request body must be a JSON object")
        return payload

    # -- routing ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")

    def _route(self, verb: str) -> None:
        service = self.server.service
        split = urlsplit(self.path)
        segments = [part for part in split.path.split("/") if part]
        query = parse_qs(split.query)
        # Version resolution happens before anything can fail so that even
        # a catalog-refresh error answers in the caller's dialect.
        self._versioned = segments[:1] == [API_VERSION]
        if self._versioned:
            segments = segments[1:]
        self._legacy_path = split.path
        self._deprecated = not self._versioned and segments != ["metrics"]
        endpoint = "(unknown)"
        status = 500
        started = perf_counter()
        handle = None
        try:
            service.check_catalog()
            endpoint, handler = self._dispatch(verb, segments, query)
            if self._versioned:
                endpoint = f"/{API_VERSION}" + endpoint
            with get_tracer().span(f"request {endpoint}", "serve", verb=verb) as handle:
                status = handler()
        except Exception as exc:  # noqa: BLE001 -- every error becomes a response
            status = error_status(exc)
            if self._versioned:
                self._send_json(status, error_envelope(exc))
            else:
                self._send_json(
                    status, {"error": str(exc), "kind": type(exc).__name__}
                )
            if status == 500:
                get_logger("serve").event(
                    "serve-error", endpoint=endpoint, error=str(exc)
                )
        finally:
            service.observe_request(
                endpoint,
                status,
                perf_counter() - started,
                span_id=getattr(handle, "span_id", None),
            )

    def _dispatch(self, verb, segments, query):
        """Resolve ``(endpoint template, thunk)``; raises for unknown routes.

        Called with the version prefix already stripped: the legacy aliases
        and the ``/v1`` surface share one route table, differing only in
        response dialect (envelope vs. historical body) and headers.
        """
        service = self.server.service
        if verb == "GET" and segments == ["healthz"]:
            return "/healthz", lambda: self._ok(service.health())
        if verb == "GET" and segments == ["runs"]:
            return "/runs", lambda: self._ok({"runs": service.runs()})
        if verb == "GET" and len(segments) == 2 and segments[0] == "runs":
            return "/runs/<id>", lambda: self._ok(service.run_detail(segments[1]))
        if verb == "GET" and segments == ["stats"]:
            return "/stats", lambda: self._stats(query)
        if verb == "GET" and segments == ["metrics"] and not self._versioned:
            return "/metrics", lambda: self._metrics()
        if verb == "GET" and segments == ["debug", "slow"]:
            return "/debug/slow", lambda: self._ok(service.debug_slow())
        if verb == "POST" and segments == ["query"]:
            return "/query", lambda: self._query()
        if verb == "POST" and segments == ["forward"]:
            return "/forward", lambda: self._forward()
        if verb == "POST" and segments == ["audit", "sar"]:
            return "/audit/sar", lambda: self._sar()
        if verb == "POST" and segments == ["audit", "erasure"] and self._versioned:
            return "/audit/erasure", lambda: self._erasure()
        raise ProvenanceError(f"no such route: {verb} {self._legacy_path}")

    # -- endpoint bodies (each returns the response status) --------------------

    def _ok(self, payload: Any) -> int:
        if self._versioned:
            payload = {"ok": True, "data": payload}
        self._send_json(200, payload)
        return 200

    def _stats(self, query: dict[str, list[str]]) -> int:
        service = self.server.service
        run = (query.get("run") or [None])[0]
        registry = service.run_stats(run)
        wants_text = (query.get("format") or ["json"])[0] == "prometheus"
        if wants_text and not self._versioned:
            self._send_text(200, registry.render_prometheus())
            return 200
        return self._ok(registry.to_json())

    def _metrics(self) -> int:
        self._send_text(200, self.server.service.render_metrics())
        return 200

    def _query(self) -> int:
        body = self._read_body()
        pattern = body.get("pattern")
        if not isinstance(pattern, str):
            raise ServeError("query needs a 'pattern' string")
        payload = self.server.service.query(
            pattern,
            run_id=body.get("run"),
            method=body.get("method", "lazy"),
            analyze=bool(body.get("analyze", False)),
        )
        return self._ok(payload)

    def _forward(self) -> int:
        body = self._read_body()
        pattern = body.get("pattern")
        if not isinstance(pattern, str):
            raise ServeError("forward query needs a 'pattern' string")
        payload = self.server.service.forward(
            pattern,
            run_id=body.get("run"),
            method=body.get("method", "lazy"),
            analyze=bool(body.get("analyze", False)),
        )
        return self._ok(payload)

    def _sar(self) -> int:
        body = self._read_body()
        subjects = body.get("subjects")
        if not isinstance(subjects, list):
            raise ServeError("sar needs a 'subjects' list")
        kwargs: dict[str, Any] = {}
        if "template" in body:
            kwargs["template"] = body["template"]
        if "runs" in body:
            kwargs["runs"] = body["runs"]
        payload = self.server.service.sar(
            subjects,
            run_id=body.get("run"),
            method=body.get("method", "lazy"),
            page=int(body.get("page", 1)),
            page_size=int(body.get("page_size", 100)),
            **kwargs,
        )
        return self._ok(payload)

    def _erasure(self) -> int:
        body = self._read_body()
        subjects = body.get("subjects")
        if not isinstance(subjects, list):
            raise ServeError("erasure needs a 'subjects' list")
        kwargs: dict[str, Any] = {}
        if "template" in body:
            kwargs["template"] = body["template"]
        if "runs" in body:
            kwargs["runs"] = body["runs"]
        payload = self.server.service.erasure(
            subjects,
            run_id=body.get("run"),
            method=body.get("method", "lazy"),
            **kwargs,
        )
        return self._ok(payload)


class ProvenanceServer:
    """The long-running server: binds, serves, and shuts down cleanly.

    ::

        with ProvenanceServer(service, port=0) as server:   # ephemeral port
            client = ServeClient(server.url)
            ...

    ``start()`` serves from a daemon thread (tests, embedding);
    ``serve_forever()`` blocks (the CLI).  Closing shuts the socket down and
    closes the service's query pool.
    """

    def __init__(self, service: QueryService, host: str | None = None, port: int | None = None):
        self.service = service
        host = host if host is not None else service.config.host
        port = port if port is not None else service.config.port
        self._httpd = _ServeHTTPServer((host, port), service)
        self._thread: threading.Thread | None = None
        self._signalled: int | None = None

    @property
    def host(self) -> str:
        return self._httpd.server_address[0]

    @property
    def port(self) -> int:
        return self._httpd.server_port

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def start(self) -> "ProvenanceServer":
        """Serve from a background daemon thread; returns immediately."""
        if self._thread is not None:
            raise ServeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            kwargs={"poll_interval": 0.05},
            name="repro-serve-accept",
            daemon=True,
        )
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until interrupted or shut down."""
        self._httpd.serve_forever(poll_interval=0.1)

    def install_signal_handlers(self) -> None:
        """Make SIGINT/SIGTERM end :meth:`serve_forever` gracefully.

        The handler may not call ``shutdown()`` directly -- it would
        deadlock: ``shutdown`` blocks until the ``serve_forever`` loop (the
        very frame the signal interrupted) acknowledges.  A short-lived
        thread issues it instead, ``serve_forever`` returns, and the CLI's
        ``finally: server.close()`` runs the ordinary drain-and-flush path.
        Only callable from the main thread (CPython delivers signals there).
        """
        import signal

        def _handle(signum: int, _frame: Any) -> None:
            if self._signalled is not None:
                return  # second signal while draining: already on our way out
            self._signalled = signum
            get_logger("serve").event("serve-signal", signal=signal.Signals(signum).name)
            threading.Thread(
                target=self._httpd.shutdown, name="repro-serve-shutdown", daemon=True
            ).start()

        signal.signal(signal.SIGINT, _handle)
        signal.signal(signal.SIGTERM, _handle)

    @property
    def signalled(self) -> int | None:
        """The signal number that triggered shutdown, if any."""
        return self._signalled

    def close(self) -> None:
        # shutdown() is safe to repeat: after a signal already stopped the
        # serve loop, the stop-event remains set and this returns at once.
        self._httpd.shutdown()
        if self._thread is not None:
            self._thread.join(timeout=5)
            self._thread = None
        self._httpd.server_close()
        self.service.close()

    def __enter__(self) -> "ProvenanceServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ProvenanceServer({self.url}, {self.service!r})"
