"""The pattern-result cache: memoised answers to repeated provenance queries.

The serving workload the paper's query evaluation (Sec. 6) implies is
*repeated*: the same auditing or data-usage question is asked against the
same immutable run again and again.  Stored runs never change after
``record``, so a query's answer is a pure function of
``(run, pattern)`` -- the perfect cache key.  The cache turns the
second and every later ask into a dictionary lookup: the warm/cold gap
the ``serve_mixed`` workload of ``benchmarks/e2e`` measures.

Two properties matter beyond a plain LRU:

* **Single-flight computation.**  Concurrent misses on the same key would
  each run the backtrace; instead the first requester computes while the
  others wait on the entry, so a key is computed exactly once no matter how
  many threads race for it.  This also makes the hit/miss counters
  deterministic under concurrency: misses == unique keys computed.
* **Failure does not poison.**  A computation that raises removes its entry
  (after propagating the error to every waiter), so a transient failure --
  e.g. a deadline overrun -- never caches as a permanent wrong answer.

Invalidation is by run (:meth:`invalidate_runs`).  The serving layer keys
every entry with its resolved run id(s) in position 1, so when one run's
stored answers change (a streaming run's segment epoch moves, or the run
leaves the catalog) only the answers over that run drop and every other
entry survives.  A newly recorded run needs no invalidation at all: a
request that now resolves to it carries a new key.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Any, Callable

from repro.errors import ServeError, TaskTimeoutError

__all__ = ["PatternResultCache", "CacheStats"]


class CacheStats:
    """Cumulative accounting of one cache instance (read under the cache lock)."""

    __slots__ = ("hits", "misses", "evictions", "invalidations")

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.invalidations = 0

    def to_json(self) -> dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "invalidations": self.invalidations,
        }

    def __repr__(self) -> str:
        return (
            f"CacheStats(hits={self.hits}, misses={self.misses}, "
            f"evictions={self.evictions}, invalidations={self.invalidations})"
        )


class _Entry:
    """One cache slot: either resolved to a value or still being computed."""

    __slots__ = ("ready", "value", "error")

    def __init__(self) -> None:
        self.ready = threading.Event()
        self.value: Any = None
        self.error: BaseException | None = None


class PatternResultCache:
    """Thread-safe LRU of query answers with single-flight computation."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ServeError(f"pattern cache needs capacity >= 1, got {capacity}")
        self.capacity = capacity
        self.stats = CacheStats()
        self._lock = threading.Lock()
        self._entries: OrderedDict[Any, _Entry] = OrderedDict()

    def get_or_compute(
        self,
        key: Any,
        compute: Callable[[], Any],
        wait_timeout: float | None = None,
    ) -> tuple[Any, bool]:
        """Return ``(value, was_hit)``; computes at most once per resident key.

        A hit may still block briefly while the owning thread finishes the
        computation; *wait_timeout* bounds that wait (the serving layer
        passes its per-request deadline) and overrunning it raises
        :class:`~repro.errors.TaskTimeoutError`, mirroring the pool's
        deadline semantics.
        """
        owner = False
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self.stats.hits += 1
                self._entries.move_to_end(key)
            else:
                owner = True
                self.stats.misses += 1
                entry = _Entry()
                self._entries[key] = entry
                if len(self._entries) > self.capacity:
                    self._evict_oldest(protect=key)
        if owner:
            try:
                entry.value = compute()
            except BaseException as exc:
                entry.error = exc
                with self._lock:
                    if self._entries.get(key) is entry:
                        del self._entries[key]
                entry.ready.set()
                raise
            entry.ready.set()
            return entry.value, False
        if not entry.ready.wait(wait_timeout):
            raise TaskTimeoutError(
                f"waited {wait_timeout}s for an in-flight computation of {key!r}"
            )
        if entry.error is not None:
            raise entry.error
        return entry.value, True

    def _evict_oldest(self, protect: Any) -> None:
        """Drop the least-recently-used entry that is not *protect*."""
        for key in self._entries:
            if key != protect:
                del self._entries[key]
                self.stats.evictions += 1
                return

    def invalidate_runs(self, run_ids: set[str]) -> int:
        """Drop entries whose answer depends on any run in *run_ids*.

        The serving layer's cache keys carry the resolved run scope -- a
        tuple of run ids, for every request kind -- at position 1.  Counts
        one invalidation event when anything dropped.

        In-flight computations are unaffected: their waiters hold direct
        entry references, and the owner's result simply never lands in the
        map (it was already removed), so the next request recomputes.
        """
        with self._lock:
            doomed = []
            for key in self._entries:
                scope = key[1] if isinstance(key, tuple) and len(key) > 1 else None
                # Unrecognised key shape: drop conservatively.
                if not isinstance(scope, tuple) or any(
                    run in run_ids for run in scope
                ):
                    doomed.append(key)
            for key in doomed:
                del self._entries[key]
            if doomed:
                self.stats.invalidations += 1
            return len(doomed)

    def snapshot(self) -> dict[str, int]:
        """Entry count plus the cumulative stats, read atomically."""
        with self._lock:
            return {"entries": len(self._entries), **self.stats.to_json()}

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:
        with self._lock:
            return f"PatternResultCache({len(self._entries)}/{self.capacity}, {self.stats!r})"
