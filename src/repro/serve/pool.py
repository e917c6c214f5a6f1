"""The query worker pool: bounded concurrency with admission control.

A provenance backtrace is CPU-bound pure-Python work; letting every HTTP
connection run one directly would melt the process under load.  The pool
separates the two concerns:

* **connection threads** (``ThreadingHTTPServer``) accept requests and wait;
* **query workers** (a fixed ``ThreadPoolExecutor``) run the backtraces.

Admission control sits between them: at most ``workers + queue_limit``
requests may be in flight, and the next one is rejected *immediately* with
:class:`~repro.errors.AdmissionError` (HTTP 429) rather than queued without
bound -- under overload the server stays responsive and tells clients to
back off, which the retry protocol of :func:`repro.client.exchange`
understands.

Deadlines reuse the scheduler's semantics from the fault-tolerance layer: a
request that exceeds its wall-clock budget fails with
:class:`~repro.errors.TaskTimeoutError` (HTTP 504).  As with the pool
schedulers, an already-running computation cannot be preempted -- the worker
finishes and its result is discarded; only the *requester* is released.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from typing import Any, Callable

from repro.errors import AdmissionError, ServeError, TaskTimeoutError

__all__ = ["QueryPool", "PoolStats"]


class PoolStats:
    """Cumulative request accounting of one pool (updated under its lock)."""

    __slots__ = ("admitted", "completed", "rejected", "timeouts")

    def __init__(self) -> None:
        self.admitted = 0
        self.completed = 0
        self.rejected = 0
        self.timeouts = 0

    def to_json(self) -> dict[str, int]:
        return {
            "admitted": self.admitted,
            "completed": self.completed,
            "rejected": self.rejected,
            "timeouts": self.timeouts,
        }

    def __repr__(self) -> str:
        return (
            f"PoolStats(admitted={self.admitted}, completed={self.completed}, "
            f"rejected={self.rejected}, timeouts={self.timeouts})"
        )


class QueryPool:
    """A fixed worker pool that rejects excess load instead of queueing it."""

    def __init__(
        self,
        workers: int = 4,
        queue_limit: int = 16,
        deadline: float | None = 30.0,
    ):
        if workers < 1:
            raise ServeError(f"query pool needs >= 1 worker, got {workers}")
        if queue_limit < 0:
            raise ServeError(f"queue limit cannot be negative, got {queue_limit}")
        self.workers = workers
        self.queue_limit = queue_limit
        #: Default per-request wall-clock budget; ``None`` disables deadlines.
        self.deadline = deadline
        self.stats = PoolStats()
        self._lock = threading.Lock()
        self._pending = 0
        self._pool: ThreadPoolExecutor | None = ThreadPoolExecutor(
            max_workers=workers, thread_name_prefix="repro-serve-query"
        )

    # -- observables -----------------------------------------------------------

    def pending(self) -> int:
        """Requests admitted but not yet finished (running + queued)."""
        with self._lock:
            return self._pending

    def queue_depth(self) -> int:
        """Admitted requests that are waiting for a free worker."""
        with self._lock:
            return max(0, self._pending - self.workers)

    # -- the admission + deadline protocol ------------------------------------

    def run(self, fn: Callable[[], Any], deadline: float | None = None) -> Any:
        """Admit, execute on a worker, and wait -- bounded by the deadline.

        Raises :class:`AdmissionError` when ``workers + queue_limit``
        requests are already in flight, and :class:`TaskTimeoutError` when
        *fn* does not finish within the deadline (the instance default
        unless overridden per call).
        """
        pool = self._pool
        if pool is None:
            raise ServeError("query pool is closed")
        with self._lock:
            if self._pending >= self.workers + self.queue_limit:
                self.stats.rejected += 1
                raise AdmissionError(
                    f"query queue is full ({self._pending} in flight, "
                    f"{self.workers} workers + {self.queue_limit} queue slots)"
                )
            self._pending += 1
            self.stats.admitted += 1
        try:
            future = pool.submit(self._execute, fn)
        except RuntimeError as exc:  # pool shut down between check and submit
            self._finish()
            raise ServeError(f"query pool is shutting down: {exc}") from exc
        budget = self.deadline if deadline is None else deadline
        try:
            return future.result(budget)
        except FutureTimeoutError:
            if future.cancel():
                # Never started: the worker will not run _execute, so the
                # pending slot must be released here.
                self._finish()
            with self._lock:
                self.stats.timeouts += 1
            raise TaskTimeoutError(
                f"request exceeded its {budget}s deadline"
            ) from None

    def _execute(self, fn: Callable[[], Any]) -> Any:
        try:
            return fn()
        finally:
            self._finish(completed=True)

    def _finish(self, completed: bool = False) -> None:
        with self._lock:
            self._pending -= 1
            if completed:
                self.stats.completed += 1

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Finish running work and release the workers (idempotent)."""
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "QueryPool":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"QueryPool({self.workers} workers, queue<={self.queue_limit}, "
            f"pending={self.pending()})"
        )
