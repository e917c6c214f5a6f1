"""Unit tests for the scheduler backends (order, errors, retry, lifecycle)."""

import functools
import threading
import time

import pytest

from repro.engine.config import EngineConfig
from repro.engine.scheduler import (
    RetryPolicy,
    SerialScheduler,
    ThreadPoolScheduler,
    backoff_schedule,
    make_scheduler,
)
from repro.errors import ExecutionError, TaskTimeoutError, TransientError


def _return_value(value):
    return value


def _sleep_then_return(seconds, value):
    time.sleep(seconds)
    return value


@pytest.fixture(params=["serial", "threads"])
def scheduler(request):
    backend = make_scheduler(EngineConfig(scheduler=request.param))
    yield backend
    backend.close()


class TestBothBackends:
    def test_results_in_submission_order(self, scheduler):
        def task(index):
            def run():
                time.sleep(0.002 * (5 - index))  # later tasks finish first
                return index

            return run

        assert scheduler.run([task(index) for index in range(5)]) == list(range(5))

    def test_empty_batch(self, scheduler):
        assert scheduler.run([]) == []

    def test_first_error_in_submission_order_wins(self, scheduler):
        def failer(message, delay):
            def run():
                time.sleep(delay)
                raise ValueError(message)

            return run

        # The second task fails *first* in wall-clock time, but the raised
        # error must be the first failing task in submission order.
        with pytest.raises(ValueError, match="first"):
            scheduler.run([failer("first", 0.01), failer("second", 0.0)])


class TestThreadPool:
    def test_runs_concurrently(self):
        backend = ThreadPoolScheduler(max_workers=4)
        try:
            seen = set()

            def run():
                seen.add(threading.current_thread().name)
                time.sleep(0.01)

            backend.run([run for _ in range(8)])
            assert len(seen) > 1
        finally:
            backend.close()

    def test_closed_scheduler_rejects_work(self):
        backend = ThreadPoolScheduler(max_workers=1)
        backend.close()
        backend.close()  # idempotent
        with pytest.raises(ExecutionError, match="closed"):
            backend.run([lambda: 1])

    def test_context_manager_closes(self):
        with ThreadPoolScheduler(max_workers=1) as backend:
            assert backend.run([lambda: 42]) == [42]
        with pytest.raises(ExecutionError):
            backend.run([lambda: 1])


class TestBackoffSchedule:
    def test_jitter_free_exponential_sequence(self):
        policy = RetryPolicy(max_retries=4, backoff=0.05, factor=2.0, max_delay=2.0)
        assert backoff_schedule(policy) == [0.05, 0.1, 0.2, 0.4]

    def test_max_delay_caps_the_tail(self):
        policy = RetryPolicy(max_retries=6, backoff=0.5, factor=2.0, max_delay=2.0)
        assert backoff_schedule(policy) == [0.5, 1.0, 2.0, 2.0, 2.0, 2.0]

    def test_zero_backoff_means_no_sleeping(self):
        policy = RetryPolicy(max_retries=3, backoff=0.0)
        assert backoff_schedule(policy) == [0.0, 0.0, 0.0]

    def test_zero_retries_means_empty_schedule(self):
        assert backoff_schedule(RetryPolicy(max_retries=0)) == []

    def test_run_sleeps_the_exact_schedule(self, monkeypatch):
        slept = []
        monkeypatch.setattr(
            "repro.engine.scheduler.time.sleep", lambda seconds: slept.append(seconds)
        )
        policy = RetryPolicy(max_retries=3, backoff=0.05, factor=2.0)
        backend = SerialScheduler(policy=policy)

        def always_transient():
            raise TransientError("boom")

        with pytest.raises(TransientError):
            backend.run([always_transient])
        assert slept == backoff_schedule(policy)


class TestRetries:
    def _serial(self, **kwargs):
        kwargs.setdefault("backoff", 0.0)
        return SerialScheduler(policy=RetryPolicy(**kwargs))

    def test_transient_failure_heals_on_retry(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) == 1:
                raise TransientError("transient hiccup")
            return "ok"

        backend = self._serial(max_retries=2)
        assert backend.run([flaky]) == ["ok"]
        assert len(calls) == 2
        assert backend.stats.attempts == 2
        assert backend.stats.retries == 1

    def test_budget_exhaustion_raises_the_original_error(self):
        attempts = []

        def always_failing():
            attempts.append(1)
            raise TransientError(f"failure number {len(attempts)}")

        backend = self._serial(max_retries=2)
        with pytest.raises(TransientError, match="failure number 1"):
            backend.run([always_failing])
        assert len(attempts) == 3  # 1 attempt + 2 retries
        assert backend.stats.attempts == 3
        assert backend.stats.retries == 2

    def test_non_retryable_errors_fail_fast(self):
        calls = []

        def broken():
            calls.append(1)
            raise ValueError("deterministic bug")

        backend = self._serial(max_retries=5)
        with pytest.raises(ValueError, match="deterministic bug"):
            backend.run([broken])
        assert len(calls) == 1
        assert backend.stats.retries == 0

    def test_only_failed_tasks_are_retried(self):
        calls = {"good": 0, "flaky": 0}

        def good():
            calls["good"] += 1
            return "good"

        def flaky():
            calls["flaky"] += 1
            if calls["flaky"] == 1:
                raise TransientError("once")
            return "flaky"

        backend = self._serial(max_retries=2)
        assert backend.run([good, flaky]) == ["good", "flaky"]
        assert calls == {"good": 1, "flaky": 2}

    def test_attempt_numbers_are_stamped_on_tasks(self):
        class Recording:
            def __init__(self):
                self.attempt = 0
                self.seen = []

            def __call__(self):
                self.seen.append(self.attempt)
                raise TransientError("again")

        task = Recording()
        backend = self._serial(max_retries=2)
        with pytest.raises(TransientError):
            backend.run([task])
        assert task.seen == [1, 2, 3]


class TestTimeouts:
    def test_serial_detects_overrun_post_hoc(self):
        backend = SerialScheduler(
            policy=RetryPolicy(max_retries=1, backoff=0.0, task_timeout=0.005)
        )
        with pytest.raises(TaskTimeoutError, match="budget"):
            backend.run([functools.partial(_sleep_then_return, 0.03, "late")])
        # Post-hoc detection still runs the task once per attempt.
        assert backend.stats.attempts == 2
        assert backend.stats.timeouts == 2
        assert backend.stats.retries == 1

    def test_thread_pool_enforces_timeout_on_the_future(self):
        backend = ThreadPoolScheduler(
            max_workers=2,
            policy=RetryPolicy(max_retries=0, backoff=0.0, task_timeout=0.02),
        )
        try:
            with pytest.raises(TaskTimeoutError, match="budget"):
                backend.run([functools.partial(_sleep_then_return, 0.5, "late")])
            assert backend.stats.timeouts == 1
        finally:
            backend.close()

    @pytest.mark.parametrize("backend_name", ["serial", "threads"])
    def test_each_task_has_its_own_budget(self, backend_name):
        """Two tasks that both overrun: both time out, whoever hosts them."""
        config = EngineConfig(
            scheduler=backend_name, max_workers=2, max_retries=0, task_timeout=0.05
        )
        tasks = [functools.partial(_sleep_then_return, 0.08, "done") for _ in range(2)]
        with make_scheduler(config) as backend:
            outcomes = backend._run_batch(tasks)
            assert [type(error) for _, error in outcomes] == [TaskTimeoutError] * 2
            assert [value for value, _ in outcomes] == [None, None]
            with pytest.raises(TaskTimeoutError, match="budget"):
                backend.run(tasks)
            assert backend.stats.timeouts == 2

    def test_fast_tasks_are_unaffected_by_the_budget(self):
        backend = SerialScheduler(policy=RetryPolicy(task_timeout=5.0))
        assert backend.run([functools.partial(_return_value, 3)]) == [3]
        assert backend.stats.timeouts == 0


class TestFactory:
    def test_selects_backend(self):
        assert isinstance(make_scheduler(EngineConfig()), SerialScheduler)
        threaded = make_scheduler(EngineConfig(scheduler="threads"))
        try:
            assert isinstance(threaded, ThreadPoolScheduler)
        finally:
            threaded.close()
        with pytest.raises(ExecutionError, match="removed in 3.1"):
            make_scheduler(EngineConfig(scheduler="processes"))

    def test_policy_comes_from_config(self):
        backend = make_scheduler(
            EngineConfig(max_retries=7, retry_backoff=0.25, task_timeout=3.0)
        )
        assert backend.policy.max_retries == 7
        assert backend.policy.backoff == 0.25
        assert backend.policy.task_timeout == 3.0
