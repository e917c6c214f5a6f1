"""``repro.connect``: one client for a warehouse path or a served URL.

There is one way to ask provenance questions of stored runs::

    client = repro.connect("file:///data/warehouse")   # or a bare path
    client = repro.connect("http://127.0.0.1:9410")    # server or router

    answer = client.backtrace('root{//id_str="lp"}', run="run-0001-example")
    report = client.sar(["lp"], page=1)["report"]

:class:`ProvenanceClient` is the one client class.  Each of its methods
names a row of the served route table (:mod:`repro.serve.service`) and
builds the request that row defines -- for a POST kind, its JSON body --
then hands it to a transport.  There are two, and they differ only in how
the request reaches a :class:`~repro.serve.service.QueryService`:

* the **file** transport holds a private service over the warehouse root
  and calls it in-process (no server involved), so admission control,
  pattern-result caching and catalog-freshness checks behave exactly as
  they do behind a socket;
* the **HTTP** transport speaks ``/v1`` to a ``repro serve`` worker or a
  fleet router through :func:`exchange` -- the one function that opens a
  connection, retries the retryable failures and, with :func:`unwrap`,
  rebuilds the typed error an envelope names.  The router's fan-out to its
  workers goes through the same function.

A ``backtrace`` answer carries ``result``/``query_seconds``/``server``
whether it was computed in-process or fetched over HTTP, and audit reports
(including erasure digests) are byte-identical across transports: the
caller cannot tell which tier answered.
"""

from __future__ import annotations

import json
import time
import urllib.error
import urllib.request
from dataclasses import dataclass
from typing import Any
from urllib.parse import quote, urlsplit

from repro.errors import (
    ERROR_CODES,
    AdmissionError,
    ReproError,
    ServeError,
    TaskTimeoutError,
)
from repro.serve.service import (
    API_VERSION,
    GET_ROUTES,
    POST_ROUTES,
    QueryService,
    ServeConfig,
)

__all__ = ["connect", "ProvenanceClient", "RetryPolicy", "exchange", "scrape", "unwrap"]


@dataclass(frozen=True)
class RetryPolicy:
    """How :func:`exchange` retries a retryable failure.

    The backoff is **jitter-free** on purpose: the delay before retrying
    attempt ``n`` is exactly ``min(backoff * factor**(n-1), max_delay)``
    seconds, so tests and the determinism guarantee never depend on a
    random source.
    """

    #: Retries *after* the first attempt; 0 disables retrying.
    max_retries: int = 2
    #: Base delay in seconds before the first retry.
    backoff: float = 0.05
    #: Multiplier applied per subsequent retry.
    factor: float = 2.0
    #: Upper bound on a single delay.
    max_delay: float = 2.0

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def delay(self, attempt: int) -> float:
        """Seconds to sleep after failed *attempt* (1-based) before retrying."""
        if self.backoff <= 0:
            return 0.0
        return min(self.backoff * self.factor ** (attempt - 1), self.max_delay)


#: Client default: three retries, 50 ms base backoff -- enough to ride out a
#: momentary queue spike without hammering an overloaded server.
DEFAULT_POLICY = RetryPolicy(max_retries=3, backoff=0.05)

#: One attempt: what the router's fan-out uses (its callers do the retrying).
NO_RETRY = RetryPolicy(max_retries=0)


def _response_error(status: int, body: bytes) -> ReproError:
    """Rebuild the typed error an error response stands for.

    The ``/v1`` envelope's stable ``code`` picks the exception class (so
    the caller raises exactly what the server caught); the HTTP status is
    the fallback for bodies a proxy generated.
    """
    try:
        detail = json.loads(body)["error"]
        message, code, retryable = (
            str(detail["message"]), detail.get("code"), detail.get("retryable")
        )
    except (ValueError, TypeError, KeyError):
        message, code, retryable = body.decode("utf-8", "replace").strip(), None, None
    if isinstance(code, str) and code in ERROR_CODES:
        error = ERROR_CODES[code](message)
    elif status == 429:
        error = AdmissionError(message)
    elif status == 504:
        error = TaskTimeoutError(message)
    else:
        error = ServeError(f"HTTP {status}: {message}")
    if retryable is not None:
        error.retryable = retryable
    elif status == 503:  # shutting down / transiently unavailable
        error.retryable = True
    return error


def exchange(
    url: str,
    verb: str = "GET",
    data: bytes | None = None,
    timeout: float = 30.0,
    policy: RetryPolicy = NO_RETRY,
) -> tuple[int, bytes]:
    """One logical HTTP exchange: ``(status, body)`` of the final attempt.

    Up to ``policy.max_attempts`` attempts, with the jitter-free exponential
    backoff of :class:`RetryPolicy`, while the failure is retryable: a full
    admission queue (429), a deadline overrun (504), a 503, or an
    unreachable server.  An error *response* is returned, not raised --
    :func:`unwrap` raises it, a proxy passes it on; only a transport failure
    raises here (:class:`ServeError`, retryable, when nothing answers;
    :class:`TaskTimeoutError` when an answer does not arrive in *timeout*).
    """
    attempt = 0
    while True:
        attempt += 1
        request = urllib.request.Request(
            url, data=data, headers={"Content-Type": "application/json"}, method=verb
        )
        answered: tuple[int, bytes] | None = None
        try:
            with urllib.request.urlopen(request, timeout=timeout) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            answered = exc.code, exc.read()
            error = _response_error(*answered)
        except urllib.error.URLError as exc:
            error = ServeError(f"cannot reach {url}: {exc.reason}")
            error.retryable = True
        except TimeoutError as exc:
            error = TaskTimeoutError(f"no response from {url} in {timeout}s")
            error.__cause__ = exc
        if error.retryable and attempt < policy.max_attempts:
            time.sleep(policy.delay(attempt))
        elif answered is not None:
            return answered
        else:
            raise error


def unwrap(status: int, body: bytes) -> Any:
    """Strip the ``/v1`` envelope; an error response raises its typed error."""
    if status >= 400:
        raise _response_error(status, body)
    return json.loads(body)["data"]


def scrape(
    url: str, timeout: float = 30.0, policy: RetryPolicy = DEFAULT_POLICY
) -> str:
    """One of a served endpoint's unversioned Prometheus text pages
    (``/metrics``, ``/stats?format=prometheus``): text, no envelope."""
    status, body = exchange(url, timeout=timeout, policy=policy)
    if status >= 400:
        raise _response_error(status, body)
    return body.decode("utf-8")


class _FileTransport:
    """A private in-process query service over one warehouse root."""

    def __init__(self, root: str, **config: Any):
        self.target = root
        self._service = QueryService.open(ServeConfig(root=root, **config))

    def post(self, kind: str, body: dict[str, Any]) -> Any:
        self._service.check_catalog()
        return self._service.request(kind, body)

    def get(self, path: str, arg: str | None = None) -> Any:
        self._service.check_catalog()
        return GET_ROUTES[path].answer(self._service, arg)

    def metrics_text(self) -> str:
        return self._service.metrics_text()

    def close(self) -> None:
        self._service.close()


class _HttpTransport:
    """``/v1`` of a serve worker or fleet router, through :func:`exchange`."""

    def __init__(
        self, url: str, policy: RetryPolicy | None = None, timeout: float = 30.0
    ):
        self.target = url.rstrip("/")
        self.policy = policy if policy is not None else DEFAULT_POLICY
        #: Socket-level timeout per attempt (connect + read), in seconds.
        self.timeout = timeout

    def _exchange(
        self, path: str, verb: str = "GET", data: bytes | None = None
    ) -> tuple[int, bytes]:
        return exchange(self.target + path, verb, data, self.timeout, self.policy)

    def post(self, kind: str, body: dict[str, Any]) -> Any:
        path = f"/{API_VERSION}{POST_ROUTES[kind].path}"
        return unwrap(*self._exchange(path, "POST", json.dumps(body).encode("utf-8")))

    def get(self, path: str, arg: str | None = None) -> Any:
        if arg is not None and GET_ROUTES[path].takes == "id":
            path = path.replace("<id>", quote(arg))
        elif arg is not None:  # the optional ?run= parameter
            path += f"?run={quote(arg)}"
        return unwrap(*self._exchange(f"/{API_VERSION}{path}"))

    def metrics_text(self) -> str:
        return scrape(self.target + "/metrics", self.timeout, self.policy)

    def close(self) -> None:
        pass  # one connection per exchange; nothing is held


class ProvenanceClient:
    """What every ``repro.connect`` handle can do, transport aside."""

    def __init__(self, transport: Any):
        self._transport = transport

    def _post(self, kind: str, **fields: Any) -> dict[str, Any]:
        """One POST of *kind*: its body is the fields that were given."""
        body = {name: value for name, value in fields.items() if value is not None}
        return self._transport.post(kind, body)

    def backtrace(
        self,
        pattern: str,
        *,
        run: str | None = None,
        method: str = "lazy",
        analyze: bool = False,
    ) -> dict[str, Any]:
        """Backward provenance of *pattern* over one stored run (the newest
        when unnamed).  With *analyze* the answer carries an ``"analyze"``
        block of per-phase timings and is computed fresh, never cached."""
        return self._post(
            "query", pattern=pattern, run=run, method=method, analyze=analyze
        )

    def forward(
        self,
        pattern: str,
        *,
        run: str | None = None,
        method: str = "lazy",
        analyze: bool = False,
    ) -> dict[str, Any]:
        """Forward provenance: matched source items -> derived outputs."""
        return self._post(
            "forward", pattern=pattern, run=run, method=method, analyze=analyze
        )

    def sar(
        self,
        subjects: list[str],
        *,
        template: str | None = None,
        run: str | None = None,
        runs: list[str] | None = None,
        method: str = "lazy",
        page: int = 1,
        page_size: int = 100,
    ) -> dict[str, Any]:
        """One page of a bulk subject-access request."""
        return self._post(
            "sar",
            subjects=subjects,
            template=template,
            run=run,
            runs=runs,
            method=method,
            page=page,
            page_size=page_size,
        )

    def verify_erasure(
        self,
        subjects: list[str],
        *,
        template: str | None = None,
        run: str | None = None,
        runs: list[str] | None = None,
        method: str = "lazy",
    ) -> dict[str, Any]:
        """An erasure verification; ``["report"]["digest"]`` signs it."""
        return self._post(
            "erasure",
            subjects=subjects,
            template=template,
            run=run,
            runs=runs,
            method=method,
        )

    def stats(self, *, run: str | None = None) -> dict[str, Any]:
        """The metrics registry describing a run (``repro stats`` JSON)."""
        return self._transport.get("/stats", run)

    def runs(self) -> list[dict[str, Any]]:
        """Every catalogued run, oldest first."""
        return self._transport.get("/runs")["runs"]

    def run(self, run_id: str) -> dict[str, Any]:
        """One run's manifest summary plus its recorded execution metrics."""
        return self._transport.get("/runs/<id>", run_id)

    def health(self) -> dict[str, Any]:
        """Liveness and capacity figures of the answering service."""
        return self._transport.get("/healthz")

    def debug_slow(self) -> dict[str, Any]:
        """The answering process's slow-query ring."""
        return self._transport.get("/debug/slow")

    def metrics_text(self) -> str:
        """The service's Prometheus text page (``GET /metrics``)."""
        return self._transport.metrics_text()

    def close(self) -> None:
        """Release transport resources; safe to call twice."""
        self._transport.close()

    def __enter__(self) -> "ProvenanceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return f"ProvenanceClient({self._transport.target!r})"


def connect(url: str, **options: Any) -> ProvenanceClient:
    """Open a provenance client for a warehouse path or a served endpoint.

    Accepted forms:

    * ``file:///data/warehouse`` or a bare filesystem path -- the file
      transport, an in-process service (no server involved);
    * ``http://host:port`` / ``https://host:port`` -- the HTTP transport,
      speaking ``/v1`` to a single ``repro serve`` worker or a fleet router.

    Extra keyword arguments flow to the transport: serving knobs
    (``workers=``, ``cache_size=``, ...) for ``file:``, client knobs
    (``timeout=``, ``policy=``) for ``http(s):``.
    """
    if not isinstance(url, str) or not url.strip():
        raise ReproError("connect needs a path or URL string")
    split = urlsplit(url)
    if split.scheme in ("http", "https"):
        return ProvenanceClient(_HttpTransport(url, **options))
    if split.scheme == "file":
        path = (split.netloc or "") + split.path
        if not path:
            raise ReproError(f"file URL carries no path: {url!r}")
        return ProvenanceClient(_FileTransport(path, **options))
    if split.scheme in ("", None) or len(split.scheme) == 1:  # bare or C:\ path
        return ProvenanceClient(_FileTransport(url, **options))
    raise ReproError(
        f"unsupported connect scheme {split.scheme!r} (use file:// or http(s)://)"
    )
