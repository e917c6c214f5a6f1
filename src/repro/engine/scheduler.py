"""Pluggable schedulers: how independent partition tasks are executed.

A fused stage compiles to one :class:`~repro.engine.physical.StageTask` per
input partition; the tasks are independent (each reads only its own
partition), so a scheduler may run them in any order or concurrently -- in
this process: DESIGN.md Sec. 12 records why the process pool left in 3.1.

Two backends share one **fault-tolerance layer** implemented in the
:class:`Scheduler` base class:

* retries: failures whose ``retryable`` attribute is true (the
  :class:`~repro.errors.TransientError` branch -- timeouts, injected
  faults) are retried up to ``RetryPolicy.max_retries`` times with a
  jitter-free exponential backoff, so the retry schedule is deterministic
  and unit-testable;
* timeouts: with ``RetryPolicy.task_timeout`` set, a task that exceeds its
  wall-clock budget fails with :class:`~repro.errors.TaskTimeoutError`
  (transient, hence retried).  The budget is the task's own, counted from
  the moment it starts: the thread backend stops waiting once it is spent,
  the serial one checks post-hoc, and both discard a result that came late;
* determinism: result order is always task-submission order, every pending
  task finishes its protocol before the batch resolves, and when tasks fail
  terminally the **first submission-order task's original error** (its first
  recorded failure, not the last retry's) is raised -- identical on both
  backends, so the engine's output and error surface are
  scheduler-independent.

Tasks must be **pure** for retries to be sound: a re-executed task must
recompute the identical result.  ``StageTask`` guarantees this by carrying
its full input; the equivalence property tests pin it under injected faults.

Per-run accounting (attempts, retries, timeouts) accumulates
in :class:`TaskStats`; the executor folds it into the run's metrics and the
process-wide registry (``repro stats``).
"""

from __future__ import annotations

import os
import time
from concurrent.futures import Future, ThreadPoolExecutor, wait
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Sequence

from repro.engine.config import EngineConfig
from repro.errors import ExecutionError, TaskTimeoutError

__all__ = [
    "Scheduler",
    "SerialScheduler",
    "ThreadPoolScheduler",
    "RetryPolicy",
    "TaskStats",
    "backoff_schedule",
    "make_scheduler",
]

Task = Callable[[], Any]

#: One task's outcome inside a batch: ``(value, None)`` or ``(None, error)``.
_Outcome = tuple[Any, BaseException | None]


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/timeout knobs of the fault-tolerance layer.

    The backoff is **jitter-free** on purpose: the delay before retrying
    attempt ``n`` is exactly ``min(backoff * factor**(n-1), max_delay)``
    seconds, so chaos tests and the determinism guarantee never depend on a
    random source.  (Partition counts are small; the thundering-herd case
    jitter exists for does not arise here.)
    """

    #: Retries *after* the first attempt; 0 disables retrying.
    max_retries: int = 2
    #: Base delay in seconds before the first retry.
    backoff: float = 0.05
    #: Multiplier applied per subsequent retry.
    factor: float = 2.0
    #: Upper bound on a single delay.
    max_delay: float = 2.0
    #: Per-task wall-clock budget in seconds; ``None`` disables timeouts.
    task_timeout: float | None = None

    @property
    def max_attempts(self) -> int:
        return self.max_retries + 1

    def delay(self, attempt: int) -> float:
        """Seconds to sleep after failed *attempt* (1-based) before retrying."""
        if self.backoff <= 0:
            return 0.0
        return min(self.backoff * self.factor ** (attempt - 1), self.max_delay)


def backoff_schedule(policy: RetryPolicy) -> list[float]:
    """The full deterministic delay sequence of *policy*, one per retry."""
    return [policy.delay(attempt) for attempt in range(1, policy.max_attempts)]


class TaskStats:
    """Scheduler-lifetime task accounting (summed over every ``run`` call)."""

    __slots__ = ("attempts", "retries", "timeouts")

    def __init__(self) -> None:
        self.attempts = 0
        self.retries = 0
        self.timeouts = 0

    def to_json(self) -> dict[str, int]:
        return {
            "attempts": self.attempts,
            "retries": self.retries,
            "timeouts": self.timeouts,
        }

    def __repr__(self) -> str:
        return (
            f"TaskStats(attempts={self.attempts}, retries={self.retries}, "
            f"timeouts={self.timeouts})"
        )


_NO_RESULT = object()


def _over_budget(timeout: float) -> TaskTimeoutError:
    return TaskTimeoutError(f"task exceeded {timeout}s budget")


def _set_attempt(task: Task, attempt: int) -> None:
    """Stamp the attempt number on tasks that track it (``StageTask`` does)."""
    try:
        task.attempt = attempt  # type: ignore[attr-defined]
    except AttributeError:
        pass


class Scheduler:
    """Executes batches of independent tasks; results in submission order.

    Subclasses implement :meth:`_run_batch` (one attempt over a task list);
    the shared :meth:`run` drives the retry protocol around it.
    """

    name = "abstract"

    def __init__(self, *, policy: RetryPolicy | None = None):
        self.policy = policy if policy is not None else RetryPolicy()
        self.stats = TaskStats()

    def run(self, tasks: Sequence[Task]) -> list[Any]:
        """Run *tasks* with retries; returns results in submission order.

        Raises the first submission-order task's original error once every
        task has either succeeded or exhausted its retry budget.
        """
        policy = self.policy
        count = len(tasks)
        results: list[Any] = [_NO_RESULT] * count
        errors: list[BaseException | None] = [None] * count
        pending = list(range(count))
        for attempt in range(1, policy.max_attempts + 1):
            for index in pending:
                _set_attempt(tasks[index], attempt)
            outcomes = self._run_batch([tasks[index] for index in pending])
            self.stats.attempts += len(pending)
            retrying: list[int] = []
            for index, (value, error) in zip(pending, outcomes):
                if error is None:
                    results[index] = value
                    continue
                if isinstance(error, TaskTimeoutError):
                    self.stats.timeouts += 1
                if errors[index] is None:
                    errors[index] = error  # keep the task's *original* failure
                if getattr(error, "retryable", False) and attempt < policy.max_attempts:
                    retrying.append(index)
            if not retrying:
                break
            self.stats.retries += len(retrying)
            delay = policy.delay(attempt)
            if delay:
                time.sleep(delay)
            pending = retrying
        for index in range(count):
            if results[index] is _NO_RESULT:
                error = errors[index]
                assert error is not None
                raise error
        return results

    def _run_batch(self, tasks: Sequence[Task]) -> list[_Outcome]:
        """Run one attempt of *tasks*; one outcome per task, never raises."""
        raise NotImplementedError

    def _settle(self, result: Callable[[], Any], clock: list[float]) -> _Outcome:
        """Outcome of a finished :func:`_clocked` task: its error, a timeout
        if it ran over budget (the late result is discarded), or its value."""
        timeout = self.policy.task_timeout
        try:
            value = result()
        except BaseException as exc:
            return None, exc
        if timeout is not None and clock[1] - clock[0] > timeout:
            return None, _over_budget(timeout)
        return value, None

    def close(self) -> None:
        """Release scheduler resources (idempotent)."""

    def __enter__(self) -> "Scheduler":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def _clocked(task: Task, clock: list[float]) -> Any:
    """Run *task*, stamping its own start and end on *clock*."""
    clock.append(time.perf_counter())
    try:
        return task()
    finally:
        clock.append(time.perf_counter())


class SerialScheduler(Scheduler):
    """Runs tasks one after another on the calling thread (the seed path).

    A single thread cannot preempt a running task, so an overrun is only
    detected once the task has returned.
    """

    name = "serial"

    def _run_batch(self, tasks: Sequence[Task]) -> list[_Outcome]:
        outcomes: list[_Outcome] = []
        for task in tasks:
            clock: list[float] = []
            outcomes.append(self._settle(partial(_clocked, task, clock), clock))
        return outcomes


class ThreadPoolScheduler(Scheduler):
    """Runs partition tasks concurrently on a shared thread pool.

    Threads serialise CPU-bound bytecode, so this does not beat the serial
    backend on capture's pure-Python work.  It does what one thread cannot:
    hand control back at a task's deadline, and run a stage's tasks
    concurrently -- how the equivalence suites show they are independent.
    """

    name = "threads"

    def __init__(self, max_workers: int | None = None, *, policy: RetryPolicy | None = None):
        super().__init__(policy=policy)
        self._pool: ThreadPoolExecutor | None = ThreadPoolExecutor(
            max_workers=max_workers or min(32, (os.cpu_count() or 2)),
            thread_name_prefix="repro-stage",
        )

    def _run_batch(self, tasks: Sequence[Task]) -> list[_Outcome]:
        if self._pool is None:
            raise ExecutionError("scheduler already closed")
        clocks: list[list[float]] = [[] for _ in tasks]
        futures = [
            self._pool.submit(_clocked, task, clock) for task, clock in zip(tasks, clocks)
        ]
        return [self._outcome(future, clock) for future, clock in zip(futures, clocks)]

    def _outcome(self, future: Future[Any], clock: list[float]) -> _Outcome:
        """Wait for one task until it is done or *its own* budget is spent."""
        timeout = self.policy.task_timeout
        while timeout is not None and not future.done():
            # A task still queued behind others has its whole budget left.
            left = clock[0] + timeout - time.perf_counter() if clock else timeout
            if left <= 0:
                return None, _over_budget(timeout)
            wait((future,), timeout=left)
        return self._settle(future.result, clock)

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None


def make_scheduler(config: EngineConfig) -> Scheduler:
    """Instantiate the scheduler backend (and retry policy) of *config*."""
    policy = RetryPolicy(
        max_retries=config.max_retries,
        backoff=config.retry_backoff,
        task_timeout=config.task_timeout,
    )
    if config.scheduler == "threads":
        return ThreadPoolScheduler(config.max_workers, policy=policy)
    return SerialScheduler(policy=policy)
