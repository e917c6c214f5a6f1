"""PatternResultCache: LRU, single-flight, failure, and invalidation."""

from __future__ import annotations

import threading
import time

import pytest

from repro.errors import ServeError, TaskTimeoutError
from repro.serve.cache import PatternResultCache


class TestBasics:
    def test_miss_computes_then_hit_returns_cached(self):
        cache = PatternResultCache(4)
        calls = []
        value, hit = cache.get_or_compute("k", lambda: calls.append(1) or "answer")
        assert (value, hit) == ("answer", False)
        value, hit = cache.get_or_compute("k", lambda: calls.append(1) or "other")
        assert (value, hit) == ("answer", True)
        assert len(calls) == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1

    def test_capacity_must_be_positive(self):
        with pytest.raises(ServeError):
            PatternResultCache(0)

    def test_lru_evicts_least_recently_used(self):
        cache = PatternResultCache(2)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("b", lambda: 2)
        cache.get_or_compute("a", lambda: None)  # refresh a
        cache.get_or_compute("c", lambda: 3)  # evicts b
        assert cache.stats.evictions == 1
        _, hit = cache.get_or_compute("a", lambda: None)
        assert hit
        _, hit = cache.get_or_compute("b", lambda: 2)
        assert not hit

    def test_capacity_one_never_evicts_the_incoming_key(self):
        cache = PatternResultCache(1)
        cache.get_or_compute("a", lambda: 1)
        value, hit = cache.get_or_compute("b", lambda: 2)
        assert (value, hit) == (2, False)
        value, hit = cache.get_or_compute("b", lambda: None)
        assert (value, hit) == (2, True)

    def test_invalidate_clears_and_counts(self):
        cache = PatternResultCache(4)
        cache.get_or_compute(("query", ("r1",), "a"), lambda: 1)
        cache.get_or_compute(("query", ("r1",), "b"), lambda: 2)
        assert cache.invalidate_runs({"r1"}) == 2
        assert len(cache) == 0
        assert cache.stats.invalidations == 1
        assert cache.invalidate_runs({"r1"}) == 0  # empty: not counted again
        assert cache.stats.invalidations == 1
        _, hit = cache.get_or_compute(("query", ("r1",), "a"), lambda: 1)
        assert not hit

    def test_snapshot_reports_entries_and_stats(self):
        cache = PatternResultCache(4)
        cache.get_or_compute("a", lambda: 1)
        cache.get_or_compute("a", lambda: 1)
        snap = cache.snapshot()
        assert snap["entries"] == 1
        assert snap["hits"] == 1
        assert snap["misses"] == 1


class TestFailure:
    def test_error_propagates_and_does_not_poison(self):
        cache = PatternResultCache(4)

        def boom():
            raise ValueError("transient")

        with pytest.raises(ValueError):
            cache.get_or_compute("k", boom)
        assert len(cache) == 0
        value, hit = cache.get_or_compute("k", lambda: "recovered")
        assert (value, hit) == ("recovered", False)


class TestSingleFlight:
    def test_concurrent_misses_compute_once(self):
        cache = PatternResultCache(4)
        barrier = threading.Barrier(8)
        calls = []
        call_lock = threading.Lock()
        results = []
        results_lock = threading.Lock()

        def compute():
            with call_lock:
                calls.append(1)
            return "answer"

        def request():
            barrier.wait()
            value, hit = cache.get_or_compute("k", compute, wait_timeout=10)
            with results_lock:
                results.append((value, hit))

        threads = [threading.Thread(target=request) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(calls) == 1
        assert cache.stats.misses == 1
        assert cache.stats.hits == 7
        assert all(value == "answer" for value, _ in results)
        assert sum(1 for _, hit in results if not hit) == 1

    def test_waiters_see_the_owners_error(self):
        cache = PatternResultCache(4)
        release = threading.Event()
        entered = threading.Event()

        def boom():
            entered.set()
            release.wait(5)
            raise RuntimeError("owner failed")

        owner_error = []
        waiter_error = []

        def owner():
            try:
                cache.get_or_compute("k", boom)
            except RuntimeError as exc:
                owner_error.append(exc)

        def waiter():
            entered.wait(5)
            try:
                cache.get_or_compute("k", lambda: "never", wait_timeout=5)
            except RuntimeError as exc:
                waiter_error.append(exc)

        threads = [threading.Thread(target=owner), threading.Thread(target=waiter)]
        for thread in threads:
            thread.start()
        entered.wait(5)
        release.set()
        for thread in threads:
            thread.join()
        assert owner_error and waiter_error
        assert str(waiter_error[0]) == "owner failed"

    def test_wait_timeout_raises_task_timeout(self):
        cache = PatternResultCache(4)
        release = threading.Event()
        entered = threading.Event()

        def slow():
            entered.set()
            release.wait(5)
            return "late"

        thread = threading.Thread(
            target=lambda: cache.get_or_compute("k", slow)
        )
        thread.start()
        entered.wait(5)
        try:
            with pytest.raises(TaskTimeoutError):
                cache.get_or_compute("k", lambda: "never", wait_timeout=0.05)
        finally:
            release.set()
            thread.join()


class TestInvalidateRuns:
    """Run-scoped invalidation over the serving layer's four key shapes."""

    @staticmethod
    def _populated() -> PatternResultCache:
        cache = PatternResultCache(16)
        # Every key scopes a tuple of run ids at position 1 (one id for
        # query/forward); a pattern caches under both directions independently.
        cache.get_or_compute(("query", ("run-1",), "root{/a}"), lambda: "q1")
        cache.get_or_compute(("forward", ("run-1",), "root{/a}"), lambda: "f1")
        cache.get_or_compute(("query", ("run-2",), "root{/a}"), lambda: "q2")
        cache.get_or_compute(
            ("sar", ("run-1", "run-2"), ("u1",), "tmpl", 1, 100), lambda: "s12"
        )
        cache.get_or_compute(
            ("erasure", ("run-2", "run-3"), ("u1",), "tmpl"), lambda: "e23"
        )
        return cache

    def test_single_run_drops_both_directions_and_member_tuples(self):
        cache = self._populated()
        assert cache.invalidate_runs({"run-1"}) == 3  # q1, f1, s12
        _, hit = cache.get_or_compute(("query", ("run-2",), "root{/a}"), lambda: None)
        assert hit  # other runs survive
        _, hit = cache.get_or_compute(
            ("erasure", ("run-2", "run-3"), ("u1",), "tmpl"), lambda: None
        )
        assert hit

    def test_multi_run_key_drops_on_any_member(self):
        cache = self._populated()
        assert cache.invalidate_runs({"run-3"}) == 1  # only e23 spans run-3
        _, hit = cache.get_or_compute(
            ("sar", ("run-1", "run-2"), ("u1",), "tmpl", 1, 100), lambda: None
        )
        assert hit

    def test_unknown_run_drops_nothing_and_counts_nothing(self):
        cache = self._populated()
        assert cache.invalidate_runs({"run-9"}) == 0
        assert cache.stats.invalidations == 0

    def test_one_invalidation_event_per_sweep(self):
        cache = self._populated()
        assert cache.invalidate_runs({"run-1", "run-2", "run-3"}) == 5
        assert cache.stats.invalidations == 1
        assert len(cache) == 0

    def test_unrecognised_key_shape_drops_conservatively(self):
        cache = PatternResultCache(4)
        cache.get_or_compute("bare-string-key", lambda: 1)
        cache.get_or_compute(("query", ("run-1",), "p"), lambda: 2)
        assert cache.invalidate_runs({"run-2"}) == 1  # only the bare key
        _, hit = cache.get_or_compute(("query", ("run-1",), "p"), lambda: None)
        assert hit

    def test_an_in_flight_answer_never_lands_after_invalidation(self):
        """The owner and its waiter still get the answer they computed, but
        an invalidation that ran meanwhile keeps it out of the map."""
        cache = PatternResultCache(4)
        key = ("query", ("run-1",), "p")
        entered, release = threading.Event(), threading.Event()
        answers = []

        def slow():
            entered.set()
            release.wait(5)
            return "stale"

        def ask(compute):
            answers.append(cache.get_or_compute(key, compute, wait_timeout=5))

        owner = threading.Thread(target=ask, args=(slow,))
        owner.start()
        entered.wait(5)
        waiter = threading.Thread(target=ask, args=(lambda: "never",))
        waiter.start()
        deadline = time.monotonic() + 5
        while cache.stats.hits < 1 and time.monotonic() < deadline:
            time.sleep(0.001)  # the waiter holds the entry before it drops
        assert cache.invalidate_runs({"run-1"}) == 1
        release.set()
        owner.join()
        waiter.join()
        assert sorted(answers) == [("stale", False), ("stale", True)]
        assert len(cache) == 0
        assert cache.get_or_compute(key, lambda: "fresh") == ("fresh", False)

