"""Fleet supervision: N serve workers over one warehouse, ready to route.

A fleet is just *N* independent ``repro serve`` workers mounted on the same
warehouse root; the :mod:`repro.serve.router` in front of them owns the
run -> worker map.  This module starts and stops the workers:

* **thread mode** (default; tests, benchmarks, single-box serving) -- each
  worker is a :class:`~repro.serve.service.QueryService` +
  :class:`~repro.serve.http.ProvenanceServer` pair in this process, on its
  own ephemeral port with its own
  :class:`~repro.obs.metrics.MetricsRegistry` (so per-worker counters
  don't collide in the shared process registry);
* **process mode** -- each worker is a ``python -m repro serve`` child
  process; the supervisor reads the worker's banner line
  (``serving warehouse <root> at http://host:port``) from its stdout pipe
  to learn the bound port, and terminates the children on close (the
  workers' signal handlers run the ordinary drain-and-flush shutdown).

Workers are named ``worker-00`` .. ``worker-NN``; those names seed the
router's hash ring, so the fleet topology -- not the accidental port
numbers -- determines placement.
"""

from __future__ import annotations

import signal
import subprocess
import sys
import time
from typing import Any

from repro.errors import ServeError
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.serve.http import ProvenanceServer
from repro.serve.service import QueryService, ServeConfig

__all__ = ["Fleet", "FLEET_MODES"]

#: How a fleet hosts its workers.
FLEET_MODES = ("thread", "process")

#: The banner prefix every worker prints once its socket is bound.
_BANNER = "serving warehouse "


def _worker_name(index: int) -> str:
    return f"worker-{index:02d}"


class _ThreadWorker:
    """One in-process worker: a service + server pair on an ephemeral port."""

    def __init__(self, name: str, config: ServeConfig):
        self.name = name
        self.service = QueryService.open(config, registry=MetricsRegistry())
        self.server = ProvenanceServer(self.service, port=0)

    @property
    def url(self) -> str:
        return self.server.url

    def start(self) -> None:
        self.server.start()

    def close(self) -> None:
        self.server.close()


class _ProcessWorker:
    """One child-process worker, discovered through its startup banner."""

    def __init__(self, name: str, config: ServeConfig, startup_timeout: float):
        self.name = name
        self._config = config
        self._startup_timeout = startup_timeout
        self._process: subprocess.Popen[str] | None = None
        self.url: str | None = None

    def start(self) -> None:
        config = self._config
        command = [
            sys.executable, "-m", "repro", "serve",
            "--root", config.root,
            "--host", config.host,
            "--port", "0",
            "--workers", str(config.workers),
            "--queue-limit", str(config.queue_limit),
            "--deadline", str(config.deadline or 0),
            "--cache-size", str(config.cache_size),
        ]
        self._process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        deadline = time.monotonic() + self._startup_timeout
        assert self._process.stdout is not None
        while True:
            line = self._process.stdout.readline()
            if line.startswith(_BANNER) and " at http" in line:
                self.url = line.rsplit(" at ", 1)[1].strip()
                return
            if not line or time.monotonic() > deadline:
                self.close()
                raise ServeError(
                    f"fleet worker {self.name} did not report a listening "
                    f"address within {self._startup_timeout}s"
                )

    def close(self) -> None:
        process = self._process
        if process is None:
            return
        self._process = None
        if process.poll() is None:
            process.send_signal(signal.SIGTERM)
            try:
                process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait(timeout=10)
        if process.stdout is not None:
            process.stdout.close()


class Fleet:
    """N serve workers over one warehouse root; start, enumerate, stop.

    ::

        with Fleet(root, size=3) as fleet:
            router = RouterService(fleet.workers())
            ...

    ``workers()`` returns the ordered ``(name, url)`` pairs the router's
    ring is built from.
    """

    def __init__(
        self,
        root: str,
        size: int,
        mode: str = "thread",
        config: ServeConfig | None = None,
        startup_timeout: float = 30.0,
    ):
        if size < 1:
            raise ServeError(f"a fleet needs at least one worker, got {size}")
        if mode not in FLEET_MODES:
            raise ServeError(
                f"unknown fleet mode {mode!r}; expected one of {FLEET_MODES}"
            )
        self.root = str(root)
        self.size = size
        self.mode = mode
        base = config if config is not None else ServeConfig(root=self.root)
        self._config = ServeConfig(
            root=self.root,
            host=base.host,
            port=0,
            workers=base.workers,
            queue_limit=base.queue_limit,
            deadline=base.deadline,
            cache_size=base.cache_size,
            segment_cache_size=base.segment_cache_size,
        )
        self._startup_timeout = startup_timeout
        self._workers: list[_ThreadWorker | _ProcessWorker] = []

    def start(self) -> "Fleet":
        if self._workers:
            raise ServeError("fleet already started")
        try:
            for index in range(self.size):
                name = _worker_name(index)
                if self.mode == "thread":
                    worker: _ThreadWorker | _ProcessWorker = _ThreadWorker(
                        name, self._config
                    )
                else:
                    worker = _ProcessWorker(
                        name, self._config, self._startup_timeout
                    )
                worker.start()
                self._workers.append(worker)
        except BaseException:
            self.close()
            raise
        get_logger("serve").event(
            "fleet-started",
            mode=self.mode,
            size=len(self._workers),
            urls=[worker.url for worker in self._workers],
        )
        return self

    def workers(self) -> list[tuple[str, str]]:
        """Ordered ``(name, url)`` pairs -- the router ring's node set."""
        if not self._workers:
            raise ServeError("fleet not started")
        return [(worker.name, worker.url or "") for worker in self._workers]

    def describe(self) -> dict[str, Any]:
        return {
            "mode": self.mode,
            "size": self.size,
            "root": self.root,
            "workers": [
                {"name": name, "url": url} for name, url in self.workers()
            ],
        }

    def close(self) -> None:
        workers, self._workers = self._workers, []
        for worker in reversed(workers):
            try:
                worker.close()
            except Exception:  # noqa: BLE001 -- best-effort teardown
                pass

    def __enter__(self) -> "Fleet":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        state = "up" if self._workers else "down"
        return f"Fleet({self.root!r}, size={self.size}, mode={self.mode}, {state})"
