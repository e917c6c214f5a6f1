"""The HTTP layer: stdlib ``http.server`` endpoints over a QueryService.

The surface is **versioned** under ``/v1`` and declared once, in the route
table beside :class:`~repro.serve.service.QueryService`
(:data:`~repro.serve.service.POST_ROUTES`,
:data:`~repro.serve.service.GET_ROUTES`); :class:`OneWriteHandler` reads the
request, resolves it against that table and answers from the server's
:class:`~repro.serve.service.QueryService`.  Every ``/v1`` answer --
success, 400, 404, 429, 504, 500 -- is one uniform JSON envelope::

    {"ok": true,  "data": <payload>}
    {"ok": false, "error": {"code": <stable code>, "message": ...,
                            "retryable": bool}}

``error.code`` comes from the :class:`~repro.errors.ReproError` hierarchy's
stable ``code`` attributes (``admission_full``, ``deadline_exceeded``,
``bad_pattern``, ``not_found``, ...), so remote callers classify failures
without parsing messages, and the client rebuilds the matching exception
class from the code.

Endpoints (all JSON)::

    GET  /v1/healthz               liveness + basic capacity figures
    GET  /v1/runs                  the catalog (one object per stored run)
    GET  /v1/runs/<run_id>         manifest summary + recorded run metrics
    GET  /v1/stats[?run=ID]        the per-run registry `repro stats` renders
    GET  /v1/debug/slow            the slow-query ring (REPRO_SLOW_QUERY_MS)
    POST /v1/query                 {"pattern", "run", "analyze"}
    POST /v1/forward               {"pattern", "run", "analyze"}
    POST /v1/audit/sar             {"subjects", "template", "run", "runs",
                                    "page", "page_size"}
    POST /v1/audit/erasure         {"subjects", "template", "run", "runs"}
                                    -- digest-signed receipt

Outside the version namespace there are exactly two paths, both Prometheus
text: ``GET /metrics`` and ``GET /stats?format=prometheus[&run=ID]``.
Scrape formats are governed by their own spec, not by this API's envelope,
so they are deliberately unversioned.  Any other unversioned path is a 404
``not_found`` in the envelope.

Error statuses:

* 400 -- malformed request (bad JSON, bad field, invalid pattern)
* 404 -- unknown run or route
* 429 -- admission queue full (:class:`~repro.errors.AdmissionError`)
* 504 -- per-request deadline exceeded (:class:`~repro.errors.TaskTimeoutError`)
* 500 -- anything else

Each connection runs on its own thread (``ThreadingHTTPServer``); heavy
work is bounded separately by the service's query pool, so accepting a
request never commits the server to running it.  Requests are traced
("request <endpoint>" spans) and counted into the service registry by
endpoint *template* -- ``/v1/runs/<id>``, not the concrete id -- to keep
the metric cardinality bounded.
"""

from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Callable
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
from repro.obs.tracer import timed
from repro.serve.service import API_VERSION, GET_ROUTES, POST_ROUTES, QueryService

__all__ = ["ProvenanceServer", "API_VERSION", "OneWriteHandler", "error_envelope"]

#: Upper bound on accepted request bodies (a tree pattern is tiny).
MAX_BODY_BYTES = 1 << 20

_POST_BY_PATH = {route.path: route for route in POST_ROUTES.values()}


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
    """The uniform ``/v1`` error body for *exc*."""
    return {
        "ok": False,
        "error": {
            "code": error_code(exc),
            "message": str(exc),
            "retryable": bool(getattr(exc, "retryable", False)),
        },
    }


def json_object(raw: bytes) -> dict[str, Any]:
    """A POST body as the JSON object it must be, or :class:`ServeError`."""
    try:
        payload = json.loads(raw)
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise ServeError(f"request body is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ServeError("request body must be a JSON object")
    return payload


class OneWriteHandler(BaseHTTPRequestHandler):
    """One connection: read, route against the table, answer once.

    HTTP/1.1 keep-alive in both directions.  The request body is read
    *before* the request is resolved, so an answer that never looks at it
    (unknown route, stale catalog) cannot leave it on the socket to be
    parsed as the next request.  Headers flushed on their own and a small
    body written after them meet Nagle's algorithm and the peer's delayed
    ACK: a client that reuses its connection then waits ~40 ms per request
    for a body the server already has.  So Nagle is off and
    :meth:`end_headers_with` replaces the ``end_headers()`` +
    ``wfile.write(body)`` pair with a single write.
    """

    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True
    server: "_ServeHTTPServer"

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

    # -- plumbing --------------------------------------------------------------

    def _send(
        self, status: int, body: bytes, content_type: str = "application/json"
    ) -> int:
        """Answer with *body* (Content-Length set: keep-alive); returns *status*."""
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if status == 429:
            self.send_header("Retry-After", "1")
        self.end_headers_with(body)
        return status

    def _send_json(self, status: int, payload: Any) -> int:
        return self._send(status, json.dumps(payload, sort_keys=True).encode("utf-8"))

    def _ok(self, data: Any) -> int:
        return self._send_json(200, {"ok": True, "data": data})

    def _send_text(self, text: str) -> int:
        return self._send(200, text.encode("utf-8"), "text/plain; version=0.0.4")

    def _read_body(self) -> bytes:
        """The request body; where it cannot be read the connection closes."""
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = -1
        if not 0 <= length <= MAX_BODY_BYTES:
            self.close_connection = True
            raise ServeError(f"request body must be 0..{MAX_BODY_BYTES} bytes")
        return self.rfile.read(length)

    # -- routing ---------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 (stdlib handler naming)
        self._route("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._route("POST")

    def _route(self, verb: str) -> None:
        service = self.server.service
        split = urlsplit(self.path)
        endpoint = "(unknown)"
        status = 500
        request_span = timed("request", "serve", verb=verb)
        try:
            with request_span:
                try:
                    raw = self._read_body()
                    # Inside the try: a catalog-refresh error answers in the envelope.
                    service.check_catalog()
                    endpoint, answer = self._resolve(
                        verb, split.path.rstrip("/"), parse_qs(split.query), raw
                    )
                    request_span.name = f"request {endpoint}"
                    status = answer()
                except Exception as exc:  # noqa: BLE001 -- every error becomes a response
                    status = self._send_json(error_status(exc), error_envelope(exc))
                    if status == 500:
                        get_logger("serve").event(
                            "serve-error", endpoint=endpoint, error=str(exc)
                        )
        finally:
            service.observe_request(
                endpoint,
                status,
                request_span.duration,
                span_id=request_span.span_id,
            )

    def _resolve(
        self, verb: str, path: str, query: dict[str, list[str]], raw: bytes
    ) -> tuple[str, Callable[[], int]]:
        """``(endpoint template, thunk answering it)`` from the route table;
        raises for anything the table (or the scrape surface) does not list."""
        service = self.server.service
        run = (query.get("run") or [None])[0]
        prefix = f"/{API_VERSION}"
        if path.startswith(prefix + "/"):
            path = path[len(prefix):]
            if verb == "POST" and path in _POST_BY_PATH:
                kind = _POST_BY_PATH[path].kind
                return prefix + path, lambda: self._ok(
                    service.request(kind, json_object(raw))
                )
            get, arg = GET_ROUTES.get(path), run
            if get is None or get.takes == "id":  # the last segment is the <id>
                head, _, arg = path.rpartition("/")
                get = GET_ROUTES.get(head + "/<id>")
            if verb == "GET" and get is not None:
                return prefix + get.path, lambda: self._ok(get.answer(service, arg))
        elif verb == "GET" and path == "/metrics":
            return path, lambda: self._send_text(service.metrics_text())
        elif verb == "GET" and path == "/stats" and query.get("format") == ["prometheus"]:
            return path, lambda: self._send_text(
                service.run_stats(run).render_prometheus()
            )
        raise ProvenanceError(f"no such route: {verb} {self.path}")


class _ServeHTTPServer(ThreadingHTTPServer):
    """ThreadingHTTPServer carrying the service for its handlers."""

    daemon_threads = True
    #: Ephemeral port 0 resolves at bind time; ``server_port`` reflects it.
    allow_reuse_address = True

    def __init__(self, address: tuple[str, int], service: QueryService):
        super().__init__(address, OneWriteHandler)
        self.service = service


class ProvenanceServer:
    """The long-running server: binds, serves, and shuts down cleanly.

    ::

        with ProvenanceServer(service, port=0) as server:   # ephemeral port
            client = repro.connect(server.url)
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
