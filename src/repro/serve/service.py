"""The query service: warehouse + resident stores + caches + admission.

This is the transport-independent core of ``repro.serve``: every HTTP
endpoint is a thin shim over one :class:`QueryService` method, so the whole
serving behaviour (admission control, deadlines, caching, invalidation,
metrics) is testable without a socket.

Serving changes the warehouse's access pattern from "load per query" to
"load once, query forever":

* one **resident execution per (run, method)** -- loaded lazily on first
  use and shared by all request threads (the
  :class:`~repro.warehouse.reader.LazyProvenanceStore` is thread safe);
  the ``lazy`` method decodes operator segments on demand, the ``eager``
  method materialises the whole run up front so queries never touch disk --
  the two sides of the paper's eager-vs-lazy query evaluation (Sec. 6),
  now selectable per request;
* one **pattern-result cache** keyed by ``(run, pattern, method)``,
  invalidated when the catalog gains a run (stored runs are immutable, but
  name resolution is "newest wins");
* one **query pool** bounding concurrent backtraces with admission control
  (429) and per-request deadlines (504).

Request accounting flows into a :class:`~repro.obs.metrics.MetricsRegistry`
(the process-wide one by default) and every query runs under a tracer span,
so a ``--trace`` serve session exports one merged timeline of requests,
backtrace phases, and segment reads.
"""

from __future__ import annotations

import json
import os
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass
from typing import Any, Callable

from repro.audit.forward import ForwardTracer, load_execution
from repro.audit.sar import (
    DEFAULT_SUBJECT_TEMPLATE,
    erasure_over_tracers,
    sar_over_tracers,
)
from repro.core.backtrace.result import ProvenanceResult
from repro.engine.executor import ExecutionResult
from repro.errors import ServeError
from repro.obs.breakdown import QueryBreakdown, activate
from repro.obs.log import get_logger
from repro.obs.metrics import Counter, MetricsRegistry, get_registry, set_build_info
from repro.obs.slowlog import get_slow_log, observe_query, slow_threshold_seconds
from repro.obs.tracer import get_tracer
from repro.pebble.query import query_provenance
from repro.serve.cache import PatternResultCache
from repro.serve.pool import QueryPool
from repro.warehouse import Warehouse
from repro.warehouse.catalog import LEGACY_SHARD, RUN_EPOCH_PREFIX
from repro.warehouse.reader import DEFAULT_CACHE_SIZE, LazyProvenanceStore
from repro.warehouse.service import METRICS_NAME

__all__ = ["ServeConfig", "QueryService", "QUERY_METHODS", "result_to_json"]

#: The two run-loading strategies a query may request.
QUERY_METHODS = ("lazy", "eager")


@dataclass(frozen=True)
class ServeConfig:
    """All serving knobs in one picklable, printable bundle."""

    root: str
    host: str = "127.0.0.1"
    port: int = 9410
    #: Query workers (concurrent backtraces).
    workers: int = 4
    #: Admitted-but-waiting requests beyond the workers; 0 rejects eagerly.
    queue_limit: int = 16
    #: Per-request wall-clock budget in seconds; ``None``/0 disables it.
    deadline: float | None = 30.0
    #: Pattern-result cache capacity (entries).
    cache_size: int = 128
    #: Per-store LRU capacity for lazily decoded operator segments.
    segment_cache_size: int = DEFAULT_CACHE_SIZE
    #: Partition count used when restoring runs (None: engine default).
    num_partitions: int | None = None
    #: Retention TTL in seconds for epoch-layout (streaming) runs;
    #: ``None``/0 disables the background sweep.
    retention_ttl: float | None = None
    #: Seconds between background retention sweeps.
    retention_sweep_interval: float = 60.0

    def effective_deadline(self) -> float | None:
        return self.deadline if self.deadline else None


def _suffix(labels: tuple[tuple[str, str], ...]) -> str:
    """A flat ``{k=v,...}`` rendering for shutdown-event counter names."""
    if not labels:
        return ""
    return "{" + ",".join(f"{key}={value}" for key, value in labels) + "}"


def result_to_json(result: ProvenanceResult) -> dict[str, Any]:
    """A deterministic JSON view of a provenance query answer.

    Everything is sorted (entry ids, paths, operator ids), so two answers to
    the same question serialise byte-identically -- the property the
    concurrent-vs-serial equivalence tests pin.
    """
    return {
        "matched_output_ids": list(result.matched_output_ids),
        "sources": [
            {
                "oid": source.oid,
                "name": source.name,
                "ids": source.ids(),
                "entries": [
                    {
                        "id": entry.item_id,
                        "contributing": entry.contributing_paths(),
                        "influencing": entry.influencing_paths(),
                        "accessed_by": entry.accessed_by(),
                        "manipulated_by": entry.manipulated_by(),
                        "tree": entry.tree.render(),
                    }
                    for entry in source
                ],
            }
            for source in result.sources
        ],
        "render": result.render(),
    }


class _ResidentRun:
    """One loaded (run, method) pair shared across request threads."""

    __slots__ = ("execution", "method", "loaded_at", "index")

    def __init__(self, execution: ExecutionResult, method: str, index: Any = None):
        self.execution = execution
        self.method = method
        self.loaded_at = time.time()
        #: The run's persisted :class:`~repro.warehouse.index.RunIndex`, or
        #: ``None`` when the run was recorded unindexed (forward traces then
        #: fall back to a full scan; answers are identical either way).
        self.index = index

    def forward_tracer(self) -> ForwardTracer:
        """A fresh tracer per request: per-trace stats stay un-shared."""
        return ForwardTracer(self.execution, self.index)

    @property
    def store(self) -> LazyProvenanceStore:
        return self.execution.store  # type: ignore[return-value]


class QueryService:
    """Long-lived provenance query engine over one warehouse root."""

    def __init__(
        self,
        warehouse: Warehouse,
        config: ServeConfig,
        registry: MetricsRegistry | None = None,
    ):
        self.warehouse = warehouse
        self.config = config
        self.registry = registry if registry is not None else get_registry()
        self.pool = QueryPool(
            workers=config.workers,
            queue_limit=config.queue_limit,
            deadline=config.effective_deadline(),
        )
        self.cache = PatternResultCache(config.cache_size)
        self._residents: dict[tuple[str, str], _ResidentRun] = {}
        self._load_lock = threading.Lock()
        self._catalog_sig = self._catalog_signature()
        self._epochs = warehouse.epoch_vector()
        self._run_shards = {
            record.run_id: (record.shard or LEGACY_SHARD)
            for record in warehouse.runs()
        }
        self._started = time.time()
        self._closed = False
        #: Test instrumentation: called on the worker thread before each
        #: query executes (lets tests hold workers busy deterministically).
        self.query_hook: Callable[[], None] | None = None
        self._sweep_stop = threading.Event()
        self._sweeper: threading.Thread | None = None
        if config.retention_ttl:
            self._sweeper = threading.Thread(
                target=self._retention_loop, name="repro-retention", daemon=True
            )
            self._sweeper.start()
        set_build_info(self.registry, component="serve")

    @classmethod
    def open(cls, config: ServeConfig, registry: MetricsRegistry | None = None) -> "QueryService":
        return cls(Warehouse.open(config.root), config, registry=registry)

    # -- catalog freshness -----------------------------------------------------

    def _catalog_signature(self) -> tuple[int, int] | None:
        try:
            stat = os.stat(self.warehouse.root / "catalog.json")
        except OSError:
            return None
        return (stat.st_mtime_ns, stat.st_size)

    def check_catalog(self) -> bool:
        """Pick up external catalog changes; ``True`` if anything invalidated.

        Called on every request; the fast path is still one ``stat`` of
        ``catalog.json``.  When the file changed, the **epoch vector**
        decides the blast radius at two grains.  Shard entries cover
        membership changes: only cache entries over runs in an epoch-bumped
        shard drop.  ``run:<id>`` entries cover streaming runs: a
        micro-batch append (or retention sweep, or seal) bumps only that
        run's segment epoch, so exactly its cached answers drop -- and its
        resident execution, whose epoch snapshot no longer matches the
        segments on disk.  Batch residents are immutable and stay, *except*
        for runs whose shard assignment moved (a rebalance relocated their
        directories).
        """
        signature = self._catalog_signature()
        if signature == self._catalog_sig:
            return False
        with self._load_lock:
            signature = self._catalog_signature()
            if signature == self._catalog_sig:
                return False
            self._catalog_sig = signature
            run_set_before = set(self._run_shards)
            self.warehouse.refresh()
            before, after = self._epochs, self.warehouse.epoch_vector()
            shards_now = {
                record.run_id: (record.shard or LEGACY_SHARD)
                for record in self.warehouse.runs()
            }
            # Compare against the *service's* snapshot, not the warehouse's
            # own refresh verdict: a sweep this very process ran has already
            # mutated the warehouse in memory, yet the cache is still stale.
            if after == before and set(shards_now) == run_set_before:
                return False
            self._epochs = after
            bumped = {
                key
                for key in set(before) | set(after)
                if before.get(key, 0) != after.get(key, 0)
            }
            bumped_runs = {
                key[len(RUN_EPOCH_PREFIX):]
                for key in bumped
                if key.startswith(RUN_EPOCH_PREFIX)
            }
            bumped_shards = bumped - {
                key for key in bumped if key.startswith(RUN_EPOCH_PREFIX)
            }
            stale = {
                run_id
                for run_id, shard in shards_now.items()
                if shard in bumped_shards
            } | bumped_runs
            moved = {
                run_id
                for run_id, shard in shards_now.items()
                if self._run_shards.get(run_id, shard) != shard
            }
            self._run_shards = shards_now
            for key in [
                key for key in self._residents if key[0] in moved | bumped_runs
            ]:
                del self._residents[key]
        if bumped:
            self.cache.invalidate_runs(stale)
            if bumped_runs:
                self.registry.counter(
                    "repro_serve_segment_invalidations_total"
                ).inc(len(bumped_runs))
        else:
            # The run set changed without an epoch trail (a foreign writer):
            # fall back to the conservative whole-cache flush.
            self.cache.invalidate()
        self.registry.counter("repro_serve_catalog_refreshes_total").inc()
        return True

    # -- retention -------------------------------------------------------------

    def sweep_retention(self, ttl_seconds: float | None = None) -> dict[str, Any]:
        """One TTL sweep over every epoch-layout run; returns the report.

        Each swept run yields a verified retention receipt and a segment
        epoch bump, so the next request's :meth:`check_catalog` drops
        exactly that run's cached answers and resident store.
        """
        ttl = ttl_seconds if ttl_seconds is not None else self.config.retention_ttl
        if not ttl:
            raise ServeError("retention sweep needs a positive TTL")
        report = self.warehouse.retain(ttl)
        self.registry.counter("repro_serve_retention_sweeps_total").inc()
        expired = sum(
            len(receipt["expired_epochs"]) for receipt in report["receipts"]
        )
        if expired:
            self.registry.counter("repro_serve_segments_expired_total").inc(expired)
            get_logger("serve").event(
                "serve-retention", swept=report["swept"], segments_expired=expired
            )
            # Propagate the staleness immediately rather than waiting for
            # the next request to stat the catalog.
            self.check_catalog()
        return report

    def _retention_loop(self) -> None:
        interval = max(self.config.retention_sweep_interval, 0.01)
        while not self._sweep_stop.wait(interval):
            try:
                self.sweep_retention()
            except Exception as exc:  # noqa: BLE001 -- the sweeper must survive
                get_logger("serve").event("serve-retention-error", error=str(exc))

    # -- read-only endpoints ---------------------------------------------------

    def health(self) -> dict[str, Any]:
        from repro import __version__

        return {
            "status": "ok",
            "version": __version__,
            "runs": len(self.warehouse),
            "resident_runs": len(self._residents),
            "uptime_seconds": time.time() - self._started,
            "workers": self.config.workers,
            "queue_limit": self.config.queue_limit,
        }

    def runs(self) -> list[dict[str, Any]]:
        return [record.to_obj() for record in self.warehouse.runs()]

    def run_detail(self, run_id: str) -> dict[str, Any]:
        """Manifest summary plus the execution metrics recorded with the run."""
        summary = self.warehouse.inspect(run_id)
        metrics_path = self.warehouse.run_dir(summary["run_id"]) / METRICS_NAME
        if metrics_path.exists():
            with open(metrics_path, "r", encoding="utf-8") as handle:
                summary["metrics"] = json.load(handle)
        return summary

    def run_stats(self, run_id: str | None = None) -> MetricsRegistry:
        """The per-run registry ``repro stats`` renders, served remotely.

        Serve-side counters (queries, forward traces, SARs, requests) are
        folded in after the warehouse figures, so ``repro stats --remote``
        shows what this server has answered, not just what is stored.
        """
        registry = self.warehouse.stats(run_id, registry=MetricsRegistry())
        for metric in self.registry.metrics():
            if isinstance(metric, Counter) and metric.name.startswith("repro_serve_"):
                copy = registry.counter(metric.name, **dict(metric.labels))
                if metric.value:
                    copy.inc(metric.value)
        return registry

    # -- the query path --------------------------------------------------------

    def query(
        self,
        pattern: str,
        run_id: str | None = None,
        method: str = "lazy",
        analyze: bool = False,
    ) -> dict[str, Any]:
        """Answer one provenance query; cached, admission-controlled, traced.

        Returns the stored payload (run/pattern/method/result/query_seconds)
        plus a per-request ``server`` block carrying the cache verdict and
        this request's wall time.  With *analyze* the request bypasses the
        pattern-result cache (a cached answer has no fresh timings to
        explain) and the payload gains an ``"analyze"`` breakdown block; the
        ``"result"`` block is byte-identical either way.
        """
        if method not in QUERY_METHODS:
            raise ServeError(
                f"unknown query method {method!r}; expected one of {QUERY_METHODS}"
            )
        if not isinstance(pattern, str) or not pattern.strip():
            raise ServeError("query needs a non-empty 'pattern' string")
        record = self.warehouse.resolve(run_id)
        # Keys are ("<kind>", <run scope>, ...): position 1 is what
        # invalidate_runs inspects when a shard epoch moves.
        key = ("query", record.run_id, pattern, method)
        started = time.perf_counter()
        deadline = self.config.effective_deadline()
        if analyze:
            payload = self.pool.run(
                lambda: self._execute_query(record.run_id, pattern, method, analyze=True),
                deadline,
            )
            was_hit = False
        else:
            payload, was_hit = self.cache.get_or_compute(
                key,
                lambda: self.pool.run(
                    lambda: self._execute_query(record.run_id, pattern, method),
                    deadline,
                ),
                wait_timeout=deadline,
            )
        elapsed = time.perf_counter() - started
        self.registry.counter("repro_serve_queries_total", method=method).inc()
        return dict(payload, server={"cached": was_hit, "seconds": elapsed})

    def _execute_query(
        self, run_id: str, pattern: str, method: str, analyze: bool = False
    ) -> dict[str, Any]:
        """The pooled worker body: resolve the resident run and backtrace."""
        threshold = slow_threshold_seconds()
        breakdown = QueryBreakdown() if (analyze or threshold is not None) else None
        if breakdown is not None:
            breakdown.start()
        if self.query_hook is not None:
            self.query_hook()
        with activate(breakdown) if breakdown is not None else nullcontext():
            with get_tracer().span(
                "serve-query", "serve", run_id=run_id, pattern=pattern, method=method
            ) as span:
                resident = self._resident(run_id, method)
                started = time.perf_counter()
                result = query_provenance(resident.execution, pattern)
                seconds = time.perf_counter() - started
                span.set(matched=len(result.matched_output_ids))
        get_logger(run_id).event(
            "serve-query",
            pattern=pattern,
            method=method,
            matched=len(result.matched_output_ids),
            seconds=seconds,
        )
        payload = {
            "run_id": run_id,
            "pattern": pattern,
            "method": method,
            "result": result_to_json(result),
            "query_seconds": seconds,
        }
        if breakdown is not None:
            breakdown.finish()
            observe_query(
                "query",
                run_id,
                pattern,
                breakdown.total_seconds,
                method=method,
                breakdown=breakdown.to_json(),
                threshold=threshold,
            )
            if analyze:
                payload["analyze"] = breakdown.to_json()
        return payload

    # -- the audit path --------------------------------------------------------

    def forward(
        self,
        pattern: str,
        run_id: str | None = None,
        method: str = "lazy",
        analyze: bool = False,
    ) -> dict[str, Any]:
        """Answer one forward provenance query (inputs -> derived outputs).

        Same machinery as :meth:`query` -- admission control, deadline,
        pattern-result cache -- with a direction-prefixed cache key so a
        forward and a backward query over the same pattern never collide.
        *analyze* bypasses the cache and attaches the breakdown, exactly as
        on the query path.
        """
        if method not in QUERY_METHODS:
            raise ServeError(
                f"unknown query method {method!r}; expected one of {QUERY_METHODS}"
            )
        if not isinstance(pattern, str) or not pattern.strip():
            raise ServeError("forward query needs a non-empty 'pattern' string")
        record = self.warehouse.resolve(run_id)
        key = ("forward", record.run_id, pattern, method)
        started = time.perf_counter()
        deadline = self.config.effective_deadline()
        if analyze:
            payload = self.pool.run(
                lambda: self._execute_forward(
                    record.run_id, pattern, method, analyze=True
                ),
                deadline,
            )
            was_hit = False
        else:
            payload, was_hit = self.cache.get_or_compute(
                key,
                lambda: self.pool.run(
                    lambda: self._execute_forward(record.run_id, pattern, method),
                    deadline,
                ),
                wait_timeout=deadline,
            )
        elapsed = time.perf_counter() - started
        self.registry.counter(
            "repro_serve_forward_queries_total", method=method
        ).inc()
        return dict(payload, server={"cached": was_hit, "seconds": elapsed})

    def _execute_forward(
        self, run_id: str, pattern: str, method: str, analyze: bool = False
    ) -> dict[str, Any]:
        threshold = slow_threshold_seconds()
        breakdown = QueryBreakdown() if (analyze or threshold is not None) else None
        if breakdown is not None:
            breakdown.start()
        if self.query_hook is not None:
            self.query_hook()
        with activate(breakdown) if breakdown is not None else nullcontext():
            with get_tracer().span(
                "serve-forward", "serve", run_id=run_id, pattern=pattern, method=method
            ) as span:
                resident = self._resident(run_id, method)
                started = time.perf_counter()
                result = resident.forward_tracer().trace(pattern)
                seconds = time.perf_counter() - started
                span.set(outputs=len(result.output_ids), **result.stats)
        get_logger(run_id).event(
            "serve-forward",
            pattern=pattern,
            method=method,
            matched_inputs=result.matched_input_count,
            outputs=len(result.output_ids),
            seconds=seconds,
            **result.stats,
        )
        payload = {
            "run_id": run_id,
            "pattern": pattern,
            "method": method,
            "result": result.to_json(),
            "query_seconds": seconds,
        }
        if breakdown is not None:
            breakdown.finish()
            observe_query(
                "forward",
                run_id,
                pattern,
                breakdown.total_seconds,
                method=method,
                breakdown=breakdown.to_json(),
                threshold=threshold,
            )
            if analyze:
                payload["analyze"] = breakdown.to_json()
        return payload

    def _scope_runs(
        self, run_id: str | None, runs: list[str] | None
    ) -> tuple[str, ...]:
        """Resolve a request's run scope to an ordered id tuple.

        *runs* (an explicit list of ids/names, catalog order preserved)
        wins over *run_id*; with neither, the scope is every catalogued
        run.  The router uses *runs* to hand each worker exactly its owned
        subset while keeping the global request shape identical.
        """
        if runs is not None:
            if not isinstance(runs, list) or not all(
                isinstance(run, str) and run for run in runs
            ):
                raise ServeError("'runs' must be a list of run ids or names")
            return tuple(self.warehouse.resolve(run).run_id for run in runs)
        if run_id is None:
            return tuple(record.run_id for record in self.warehouse.runs())
        return (self.warehouse.resolve(run_id).run_id,)

    def sar(
        self,
        subjects: list[str],
        template: str = DEFAULT_SUBJECT_TEMPLATE,
        run_id: str | None = None,
        runs: list[str] | None = None,
        method: str = "lazy",
        page: int = 1,
        page_size: int = 100,
    ) -> dict[str, Any]:
        """One bulk subject-access request over the resident warehouse.

        ``run_id=None`` spans every catalogued run; ``runs`` restricts to an
        explicit subset (the router's scatter shape).  The whole report is
        one pooled task (one admission slot, one deadline) and one cache
        entry keyed by the full request shape, so repeating a page is free
        until the catalog changes.
        """
        if method not in QUERY_METHODS:
            raise ServeError(
                f"unknown query method {method!r}; expected one of {QUERY_METHODS}"
            )
        if not isinstance(subjects, list) or not subjects or not all(
            isinstance(subject, str) and subject for subject in subjects
        ):
            raise ServeError("sar needs a non-empty 'subjects' list of strings")
        run_ids = self._scope_runs(run_id, runs)
        key = (
            "sar",
            run_ids,
            tuple(sorted(set(subjects))),
            template,
            method,
            page,
            page_size,
        )
        started = time.perf_counter()
        deadline = self.config.effective_deadline()
        payload, was_hit = self.cache.get_or_compute(
            key,
            lambda: self.pool.run(
                lambda: self._execute_sar(
                    run_ids, subjects, template, method, page, page_size
                ),
                deadline,
            ),
            wait_timeout=deadline,
        )
        elapsed = time.perf_counter() - started
        self.registry.counter("repro_serve_sar_requests_total").inc()
        return dict(payload, server={"cached": was_hit, "seconds": elapsed})

    def _execute_sar(
        self,
        run_ids: tuple[str, ...],
        subjects: list[str],
        template: str,
        method: str,
        page: int,
        page_size: int,
    ) -> dict[str, Any]:
        if self.query_hook is not None:
            self.query_hook()
        with get_tracer().span(
            "serve-sar", "serve", runs=len(run_ids), subjects=len(subjects)
        ) as span:
            tracers = [
                (run_id, self._resident(run_id, method).forward_tracer())
                for run_id in run_ids
            ]
            started = time.perf_counter()
            report = sar_over_tracers(
                tracers, subjects, template=template, page=page, page_size=page_size
            )
            seconds = time.perf_counter() - started
            span.set(page=page, total_subjects=report["total_subjects"])
        get_logger("serve").event(
            "serve-sar",
            runs=len(run_ids),
            subjects=report["total_subjects"],
            page=page,
            method=method,
            seconds=seconds,
        )
        return {"method": method, "report": report, "query_seconds": seconds}

    def erasure(
        self,
        subjects: list[str],
        template: str = DEFAULT_SUBJECT_TEMPLATE,
        run_id: str | None = None,
        runs: list[str] | None = None,
        method: str = "lazy",
    ) -> dict[str, Any]:
        """One erasure verification served from resident executions.

        The report (and its sha256 ``digest``) is byte-identical to a direct
        :func:`repro.verify_erasure` call over the same warehouse state --
        the receipt does not depend on which tier produced it.
        """
        if method not in QUERY_METHODS:
            raise ServeError(
                f"unknown query method {method!r}; expected one of {QUERY_METHODS}"
            )
        if not isinstance(subjects, list) or not subjects or not all(
            isinstance(subject, str) and subject for subject in subjects
        ):
            raise ServeError("erasure needs a non-empty 'subjects' list of strings")
        run_ids = self._scope_runs(run_id, runs)
        key = ("erasure", run_ids, tuple(sorted(set(subjects))), template, method)
        started = time.perf_counter()
        deadline = self.config.effective_deadline()
        payload, was_hit = self.cache.get_or_compute(
            key,
            lambda: self.pool.run(
                lambda: self._execute_erasure(run_ids, subjects, template, method),
                deadline,
            ),
            wait_timeout=deadline,
        )
        elapsed = time.perf_counter() - started
        self.registry.counter("repro_serve_erasure_requests_total").inc()
        return dict(payload, server={"cached": was_hit, "seconds": elapsed})

    def _execute_erasure(
        self,
        run_ids: tuple[str, ...],
        subjects: list[str],
        template: str,
        method: str,
    ) -> dict[str, Any]:
        if self.query_hook is not None:
            self.query_hook()
        with get_tracer().span(
            "serve-erasure", "serve", runs=len(run_ids), subjects=len(subjects)
        ) as span:
            tracers = [
                (run_id, self._resident(run_id, method).forward_tracer())
                for run_id in run_ids
            ]
            started = time.perf_counter()
            report = erasure_over_tracers(tracers, subjects, template=template)
            seconds = time.perf_counter() - started
            span.set(clean=report["clean"], subjects=report["subject_count"])
        get_logger("serve").event(
            "serve-erasure",
            runs=len(run_ids),
            subjects=report["subject_count"],
            clean=report["clean"],
            method=method,
            seconds=seconds,
        )
        return {"method": method, "report": report, "query_seconds": seconds}

    def _resident(self, run_id: str, method: str) -> _ResidentRun:
        """The shared execution for ``(run_id, method)``, loading on first use."""
        key = (run_id, method)
        resident = self._residents.get(key)
        if resident is not None:
            return resident
        with self._load_lock:
            resident = self._residents.get(key)
            if resident is not None:
                return resident
            with get_tracer().span(
                "serve-load", "serve", run_id=run_id, method=method
            ):
                # Eager: nothing may evict, the whole run decodes up front.
                _, execution = load_execution(
                    self.warehouse,
                    run_id,
                    method=method,
                    num_partitions=self.config.num_partitions,
                    cache_size=self.config.segment_cache_size,
                )
                index = self.warehouse.load_index(run_id)
                resident = _ResidentRun(execution, method, index)
            self._residents[key] = resident
            return resident

    def debug_slow(self) -> dict[str, Any]:
        """The slow-query ring: what ``GET /debug/slow`` returns.

        Entries are newest first; ``total`` counts every over-budget query
        this process observed, evicted entries included.
        """
        threshold = slow_threshold_seconds()
        ring = get_slow_log()
        return {
            "threshold_ms": threshold * 1000.0 if threshold is not None else None,
            "total": ring.total,
            "entries": ring.snapshot(),
        }

    # -- metrics ---------------------------------------------------------------

    def observe_request(
        self,
        endpoint: str,
        status: int,
        seconds: float,
        span_id: int | str | None = None,
    ) -> None:
        """Fold one finished HTTP request into the registry.

        *span_id* (the request span's id, when tracing is on) becomes the
        histogram's exemplar: the trace that explains the latency tail.
        """
        self.registry.counter(
            "repro_serve_requests_total", endpoint=endpoint, status=str(status)
        ).inc()
        self.registry.histogram(
            "repro_serve_request_seconds", endpoint=endpoint
        ).observe(seconds, span_id=span_id)

    def publish_gauges(self) -> None:
        """Refresh the point-in-time gauges before a ``/metrics`` scrape."""
        registry = self.registry
        registry.gauge("repro_serve_uptime_seconds").set(time.time() - self._started)
        registry.gauge("repro_serve_inflight").set(self.pool.pending())
        registry.gauge("repro_serve_queue_depth").set(self.pool.queue_depth())
        pool = self.pool.stats
        registry.gauge("repro_serve_pool_admitted").set(pool.admitted)
        registry.gauge("repro_serve_pool_completed").set(pool.completed)
        registry.gauge("repro_serve_pool_rejected").set(pool.rejected)
        registry.gauge("repro_serve_pool_timeouts").set(pool.timeouts)
        for name, value in self.cache.snapshot().items():
            registry.gauge(f"repro_serve_pattern_cache_{name}").set(value)
        for (run_id, method), resident in list(self._residents.items()):
            cache = resident.store.metrics
            for field in ("hits", "misses", "item_hits", "item_misses", "bytes_read", "evictions"):
                registry.gauge(
                    f"repro_serve_segment_cache_{field}", run_id=run_id, method=method
                ).set(getattr(cache, field))

    def render_metrics(self) -> str:
        """The Prometheus text page ``GET /metrics`` serves."""
        self.publish_gauges()
        return self.registry.render_prometheus()

    # -- lifecycle -------------------------------------------------------------

    def close(self) -> None:
        """Drain the pool and flush final counters; safe to call twice.

        Part of graceful shutdown: in-flight queries finish (the pool closes
        with ``wait=True``), then a last ``serve-shutdown`` event carrying
        the final ``/metrics`` counter values lands in the structured run
        log -- the numbers a scraper would have seen on its next pass.
        """
        with self._load_lock:
            if self._closed:
                return
            self._closed = True
        self._sweep_stop.set()
        if self._sweeper is not None:
            self._sweeper.join(timeout=5)
            self._sweeper = None
        self.pool.close()
        self.publish_gauges()
        counters = {
            metric.name + _suffix(metric.labels): metric.value
            for metric in self.registry.metrics()
            if isinstance(metric, Counter) and metric.name.startswith("repro_serve_")
        }
        get_logger("serve").event(
            "serve-shutdown",
            uptime_seconds=time.time() - self._started,
            resident_runs=len(self._residents),
            counters=counters,
        )

    def __enter__(self) -> "QueryService":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"QueryService({self.warehouse!r}, {len(self._residents)} resident, "
            f"{len(self.cache)} cached answers)"
        )
