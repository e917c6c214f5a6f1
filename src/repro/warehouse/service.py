"""The warehouse facade: record, list, load, and query stored runs.

The paper's motivation for eager capture is that provenance outlives the
pipeline run (auditing and usage queries happen days later, Sec. 7.4).
:class:`Warehouse` is the durable home those queries run against: many
captured executions under one root directory, catalogued in
``catalog.json``, each run spilled into per-operator binary segments that a
:class:`~repro.warehouse.reader.LazyProvenanceStore` decodes on demand.

Directory layout::

    <root>/
      catalog.json                   run registry (name, timestamp, sizes)
      runs/<run_id>/                 legacy flat layout (unsharded roots)
        manifest.json                footer index: oid -> segment/offsets
        rows.seg                     provenance-annotated result rows
        ops/op-<oid>.seg             one segment per operator
        ops/range-NNNN/op-<oid>.seg  sub-sharded segments (large runs)
      shards/<shard>/runs/<run_id>/  sharded layout (after ``init_shards``)

A sharded warehouse places each run onto a named shard by consistent-hashing
its run id (:mod:`repro.core.ring`), records the placement in the catalog's
shard manifest, and bumps that shard's epoch -- the per-shard generalisation
of the catalog stat signature that lets long-lived readers invalidate only
what changed.  All read paths go through the catalog record's ``shard``
field, so sharded and flat layouts can coexist in one root (e.g. a legacy
warehouse mid-``rebalance``).
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path as FsPath
from typing import Any, Iterator

from repro.core.backtrace.result import ProvenanceResult
from repro.core.ring import DEFAULT_REPLICAS, HashRing
from repro.core.treepattern.pattern import TreePattern
from repro.engine.config import resolve_partitions
from repro.engine.executor import ExecutionResult
from repro.engine.metrics import ExecutionMetrics, SegmentCacheMetrics
from repro.engine.partition import partition_rows
from repro.errors import LiveRunError, ProvenanceError
from repro.nested.schema import Schema, infer_schema
from repro.nested.types import StructType
from repro.obs.breakdown import QueryBreakdown, get_breakdown
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.slowlog import explained
from repro.obs.tracer import get_tracer
from repro.warehouse.catalog import LEGACY_SHARD, Catalog, RunRecord, ShardManifest
from repro.warehouse.format import materialise_rows
from repro.warehouse.index import RunIndex, ensure_index
from repro.warehouse.live import (
    append_epoch,
    check_not_epoch_layout,
    compact_live_run,
    create_live_manifest,
    is_epoch_layout,
    retain_epochs,
    seal_live_manifest,
)
from repro.warehouse.reader import (
    DEFAULT_CACHE_SIZE,
    LazyProvenanceStore,
    RestoredPlanNode,
    load_manifest,
    match_encoded_rows,
    run_parts,
)
from repro.warehouse.writer import DEFAULT_SUB_SHARD_SPAN, encode_part, write_run

__all__ = ["Warehouse"]

RUNS_DIR = "runs"
SHARDS_DIR = "shards"

#: Execution accounting recorded next to a run's manifest (``repro stats``).
METRICS_NAME = "metrics.json"


class Warehouse:
    """A persistent, indexed store of many captured executions."""

    def __init__(self, root: FsPath, catalog: Catalog):
        self.root = FsPath(root)
        self._catalog = catalog

    @classmethod
    def open(cls, root: FsPath | str) -> "Warehouse":
        """Open (creating if needed) the warehouse rooted at *root*."""
        root = FsPath(root)
        if root.exists() and not root.is_dir():
            raise ProvenanceError(f"warehouse root {root} is not a directory")
        root.mkdir(parents=True, exist_ok=True)
        return cls(root, Catalog.load(root))

    # -- shard placement -------------------------------------------------------

    @property
    def sharded(self) -> bool:
        return self._catalog.manifest is not None

    def _placement_ring(self) -> HashRing:
        manifest = self._catalog.manifest
        if manifest is None:
            raise ProvenanceError(
                f"warehouse at {self.root} is unsharded (run init_shards first)"
            )
        return HashRing(manifest.shards, replicas=manifest.replicas)

    def shard_for(self, run_id: str) -> str | None:
        """The shard a run with *run_id* belongs on (``None``: flat layout)."""
        if self._catalog.manifest is None:
            return None
        return self._placement_ring().assign(run_id)

    def _dir_at(self, shard: str | None, run_id: str) -> FsPath:
        """A run's directory under *shard* (or the legacy flat layout)."""
        if shard:
            return self.root / SHARDS_DIR / shard / RUNS_DIR / run_id
        return self.root / RUNS_DIR / run_id

    def _dir_for(self, record: RunRecord) -> FsPath:
        return self._dir_at(record.shard, record.run_id)

    def init_shards(
        self, count: int, replicas: int = DEFAULT_REPLICAS, prefix: str = "shard"
    ) -> list[str]:
        """Declare *count* named shards for this warehouse.

        Creates the shard manifest (names ``shard-00 .. shard-NN``) so
        subsequent :meth:`record` calls hash their run ids onto shards.
        Existing runs stay where they are until :meth:`rebalance` moves
        them.  Idempotent for the same count; shrinking is refused (that
        would orphan directories) -- grow and :meth:`rebalance` instead.
        """
        if count < 1:
            raise ProvenanceError(f"shard count must be >= 1, got {count}")
        names = [f"{prefix}-{index:02d}" for index in range(count)]
        manifest = self._catalog.manifest
        if manifest is not None:
            if names == manifest.shards:
                return names
            missing = set(manifest.shards) - set(names)
            if missing:
                raise ProvenanceError(
                    f"cannot drop shards {sorted(missing)}; rebalance to a "
                    "superset instead"
                )
            for name in names:
                if name not in manifest.shards:
                    manifest.shards.append(name)
                    manifest.epochs.setdefault(name, 0)
        else:
            self._catalog.manifest = ShardManifest(
                names, replicas, {name: 0 for name in names}
            )
        for name in names:
            (self.root / SHARDS_DIR / name / RUNS_DIR).mkdir(parents=True, exist_ok=True)
        self._catalog.save()
        get_logger("warehouse").event("shards-initialised", shards=names, replicas=replicas)
        return names

    def rebalance(self, count: int | None = None) -> dict[str, Any]:
        """Move every run to the shard its id hashes to; returns a report.

        With *count*, grows the shard set first (``init_shards``).  Each
        moved run bumps both the source and destination shard epochs, so
        serve workers drop exactly the residents and cache entries whose
        storage moved under them.  Runs already in place are untouched --
        consistent hashing keeps that the common case.
        """
        if count is not None:
            self.init_shards(count)
        ring = self._placement_ring()
        moved: list[dict[str, str | None]] = []
        with get_tracer().span("warehouse-rebalance", "warehouse"):
            for record in self._catalog.runs():
                target = ring.assign(record.run_id)
                if target == record.shard:
                    continue
                source_dir = self._dir_for(record)
                target_dir = self.root / SHARDS_DIR / target / RUNS_DIR / record.run_id
                target_dir.parent.mkdir(parents=True, exist_ok=True)
                source_dir.replace(target_dir)
                moved.append(
                    {"run_id": record.run_id, "from": record.shard, "to": target}
                )
                self._catalog.bump_epoch(record.shard)
                self._catalog.bump_epoch(target)
                record.shard = target
        if moved:
            self._catalog.save()
        report = {
            "shards": list(self._catalog.manifest.shards),  # type: ignore[union-attr]
            "moved": moved,
            "unmoved": len(self._catalog) - len(moved),
        }
        get_logger("warehouse").event("shards-rebalanced", moved=len(moved), unmoved=report["unmoved"])
        return report

    def epoch_vector(self) -> dict[str, int]:
        """``shard -> epoch`` snapshot (see :meth:`Catalog.epoch_vector`)."""
        return self._catalog.epoch_vector()

    def shard_summary(self) -> list[dict[str, Any]]:
        """Per-shard run/row/byte totals for ``repro shard ls``."""
        vector = self._catalog.epoch_vector()
        shards: dict[str, dict[str, Any]] = {
            name: {"shard": name or LEGACY_SHARD, "epoch": epoch, "runs": 0,
                   "rows": 0, "bytes": 0, "run_ids": []}
            for name, epoch in vector.items()
        }
        for record in self._catalog.runs():
            name = record.shard or LEGACY_SHARD
            entry = shards.setdefault(
                name, {"shard": name, "epoch": 0, "runs": 0, "rows": 0,
                       "bytes": 0, "run_ids": []}
            )
            entry["runs"] += 1
            entry["rows"] += record.row_count
            entry["bytes"] += record.total_bytes
            entry["run_ids"].append(record.run_id)
        # The legacy pseudo-shard only shows when it still holds runs.
        if LEGACY_SHARD in shards and not shards[LEGACY_SHARD]["runs"] and self.sharded:
            del shards[LEGACY_SHARD]
        return [shards[name] for name in sorted(shards)]

    # -- recording -------------------------------------------------------------

    def _new_run(self, name: str) -> tuple[str, str | None, FsPath]:
        """Mint a run id; returns ``(run id, shard, run directory)``.

        The catalog references no run under a fresh id, so a directory
        already there is what a recording that died before the catalog
        rename left behind (``next_seq`` is persisted by that rename, and a
        reopened catalog mints the same id again); it is cleared.
        """
        run_id = self._catalog.new_run_id(name)
        shard = self.shard_for(run_id)
        run_dir = self._dir_at(shard, run_id)
        if run_dir.exists():
            shutil.rmtree(run_dir)
        return run_id, shard, run_dir

    def record(
        self,
        execution: ExecutionResult,
        name: str = "run",
        index: bool = True,
        sub_shard_span: int = DEFAULT_SUB_SHARD_SPAN,
    ) -> RunRecord:
        """Persist one capture-enabled execution; returns its catalog record.

        By default the run's query-side index (``index.seg``) is built in
        the same step; pass ``index=False`` to skip it (``repro index
        build`` backfills later, producing identical bytes).  In a sharded
        warehouse the run lands on the shard its id hashes to and that
        shard's epoch advances; *sub_shard_span* bounds operators per
        segment directory (see :func:`write_run`).
        """
        if execution.store is None:
            raise ProvenanceError("only capture-enabled executions can be recorded")
        created = time.time()
        run_id, shard, run_dir = self._new_run(name)
        with get_tracer().span(
            "warehouse-record", "warehouse", run_id=run_id, shard=shard or LEGACY_SHARD
        ):
            manifest = write_run(
                run_dir, encode_part(execution), execution.root.oid, run_id, name, created,
                sub_shard_span=sub_shard_span,
                index=RunIndex.accumulator() if index else None,
            )
            # Keep the execution's accounting next to the segments so
            # ``repro stats`` can rebuild a registry for the stored run.
            with open(run_dir / METRICS_NAME, "w", encoding="utf-8") as handle:
                json.dump(execution.metrics.to_json(), handle, indent=2)
        record = RunRecord(
            run_id,
            name,
            created,
            manifest["sink_oid"],
            len(manifest["operators"]),
            manifest["rows"]["count"],
            manifest["total_bytes"],
            indexed=index,
            shard=shard,
        )
        self._catalog.add(record)
        self._catalog.bump_epoch(shard)
        self._catalog.save()
        get_logger(run_id).event(
            "run-recorded",
            name=name,
            operators=record.operator_count,
            rows=record.row_count,
            bytes=record.total_bytes,
            indexed=index,
            shard=shard or LEGACY_SHARD,
        )
        return record

    # -- streaming capture -----------------------------------------------------

    def create_live_run(self, name: str = "stream", sink_oid: int = 0) -> RunRecord:
        """Start a live (streaming) run; returns its catalog record.

        The run begins empty at segment epoch 0 and grows one epoch per
        :meth:`append_live_epoch` until :meth:`seal_live_run`.  Its catalog
        record carries ``live=True`` plus a segment epoch, so the epoch
        vector gains a per-run entry serve workers can invalidate on.
        """
        created = time.time()
        run_id, shard, run_dir = self._new_run(name)
        create_live_manifest(run_dir, run_id, name, created, sink_oid)
        record = RunRecord(
            run_id,
            name,
            created,
            sink_oid,
            0,
            0,
            0,
            indexed=False,
            shard=shard,
            live=True,
            segment_epoch=0,
        )
        self._catalog.add(record)
        self._catalog.bump_epoch(shard)
        self._catalog.save()
        get_logger(run_id).event("live-run-created", name=name, shard=shard or LEGACY_SHARD)
        return record

    def append_live_epoch(
        self,
        run_id: str,
        execution: ExecutionResult,
        *,
        next_pid: int,
        watermark: float | None = None,
        index: bool = True,
    ) -> dict[str, Any]:
        """Append one micro-batch to a live run; returns the epoch entry.

        Only the run's own segment epoch advances -- the shard epoch stays
        put, so serve-side invalidation is segment-granular: cached answers
        over *this* run go stale, everything else on the shard survives.
        """
        record = self._catalog.find(run_id)
        if not record.live:
            raise LiveRunError(f"run {record.run_id!r} is sealed; cannot append")
        run_dir = self._dir_for(record)
        manifest = load_manifest(run_dir)
        with get_tracer().span(
            "warehouse-append-epoch", "warehouse", run_id=record.run_id
        ):
            entry = append_epoch(
                run_dir,
                manifest,
                execution,
                next_pid=next_pid,
                watermark=watermark,
                index=index,
            )
        record.segment_epoch = manifest["segment_epoch"]
        record.row_count = manifest["rows"]["count"]
        record.total_bytes = manifest["total_bytes"]
        record.operator_count = manifest["operator_count"]
        record.indexed = bool(index)
        # Persist per batch: the catalog's per-run epoch entry is what serve
        # workers stat-compare, so the bump must be durable immediately.
        self._catalog.save()
        get_logger(record.run_id).event(
            "epoch-appended",
            epoch=entry["epoch"],
            rows=entry["rows"],
            watermark=watermark,
        )
        return entry

    def seal_live_run(
        self,
        run_id: str,
        compact: bool = True,
        sub_shard_span: int = DEFAULT_SUB_SHARD_SPAN,
    ) -> RunRecord:
        """Finish a live run: no more appends; optionally compact.

        With ``compact=True`` the epoch layout is rewritten into the
        canonical batch layout (ids remapped to the one-shot batch
        sequence, segments byte-identical to a batch capture) and the
        batch index is built.  With ``compact=False`` the run stays in
        epoch layout -- still fully queryable, and retention still applies.
        """
        record = self._catalog.find(run_id)
        run_dir = self._dir_for(record)
        manifest = load_manifest(run_dir)
        if manifest.get("live"):
            manifest = seal_live_manifest(run_dir, manifest)
        # The seal bumped the manifest's counter; mirror it before compaction
        # replaces the manifest with the (counter-less) batch layout.  The
        # record's epoch stays set forever: dropping it would erase the run's
        # vector entry and mask this very invalidation.
        sealed_epoch = manifest.get("segment_epoch", (record.segment_epoch or 0) + 1)
        if compact:
            with get_tracer().span(
                "warehouse-compact", "warehouse", run_id=record.run_id
            ):
                manifest = compact_live_run(
                    run_dir, manifest, sub_shard_span=sub_shard_span
                )
            record.indexed = True
            record.operator_count = len(manifest["operators"])
            record.row_count = manifest["rows"]["count"]
            record.total_bytes = manifest["total_bytes"]
        record.live = False
        record.segment_epoch = sealed_epoch
        self._catalog.save()
        get_logger(record.run_id).event(
            "live-run-sealed", compacted=compact, rows=record.row_count
        )
        return record

    def retain(
        self,
        ttl_seconds: float,
        run_id: str | None = None,
        now: float | None = None,
    ) -> dict[str, Any]:
        """TTL sweep: expire epochs older than *ttl_seconds*; returns a report.

        Applies to every epoch-layout run (or just *run_id*); compacted
        batch runs are untouched (they have no epochs to age out).  Each
        swept run yields a verified retention receipt (see
        :func:`repro.warehouse.live.retain_epochs`).
        """
        records = (
            [self._catalog.find(run_id)] if run_id is not None else self._catalog.runs()
        )
        receipts: list[dict[str, Any]] = []
        for record in records:
            if record.segment_epoch is None:
                continue  # plain batch run: nothing ages out
            run_dir = self._dir_for(record)
            manifest = load_manifest(run_dir)
            receipt = retain_epochs(run_dir, manifest, ttl_seconds, now=now)
            if receipt is None:
                continue
            record.segment_epoch = manifest["segment_epoch"]
            record.row_count = manifest["rows"]["count"]
            record.total_bytes = manifest["total_bytes"]
            receipts.append(receipt)
            get_logger(record.run_id).event(
                "retention-swept",
                expired=len(receipt["expired_epochs"]),
                digest=receipt["digest"][:12],
            )
        if receipts:
            self._catalog.save()
        return {
            "ttl_seconds": ttl_seconds,
            "swept": len(receipts),
            "receipts": receipts,
        }

    def build_index(self, run_id: str | None = None, force: bool = False) -> dict[str, Any]:
        """Backfill (or rebuild with ``force``) one run's persisted index.

        Returns the manifest's ``"index"`` entry.  The catalog record's
        ``indexed`` flag is updated and saved, so listings reflect it.
        Live and sealed-uncompacted runs refuse with :class:`LiveRunError`:
        their indexes grow incrementally, one delta per epoch (the
        ``append_live_epoch(..., index=True)`` path), and are queried
        merged -- there is no full rebuild to run.
        """
        record = self.resolve(run_id)
        run_dir = self._dir_for(record)
        manifest = load_manifest(run_dir)
        check_not_epoch_layout(manifest, "build a batch index")
        entry = manifest.get("index")
        if entry is None or force or not (run_dir / entry["segment"]).exists():
            entry = ensure_index(run_dir, manifest)
        if not record.indexed:
            record.indexed = True
            self._catalog.save()
        get_logger(record.run_id).event("index-built", **{
            key: entry[key] for key in ("inputs", "terms", "items", "paths")
        })
        return entry

    def load_index(self, run_id: str | None = None) -> RunIndex | None:
        """The persisted index of a run, or ``None`` (callers fall back to scan).

        Epoch-layout runs load the union of their per-epoch delta indexes.
        """
        run_dir = self._dir_for(self.resolve(run_id))
        return RunIndex.load(run_dir, load_manifest(run_dir))

    def forward(
        self,
        run_id: str | None,
        pattern: TreePattern | str,
        method: str = "lazy",
        use_index: bool = True,
        cache_size: int = DEFAULT_CACHE_SIZE,
        breakdown: QueryBreakdown | None = None,
    ) -> "ForwardResult":
        """Trace forward: which outputs of a stored run derive from the
        input items matching *pattern*?  The association-level dual of
        :meth:`backtrace` (see :mod:`repro.audit.forward`)."""
        from repro.audit.forward import trace_forward

        return trace_forward(
            self,
            pattern,
            run_id=run_id,
            method=method,
            use_index=use_index,
            cache_size=cache_size,
            breakdown=breakdown,
        )

    def refresh(self) -> bool:
        """Reload the catalog from disk; ``True`` if membership changed.

        A long-lived reader (the ``repro.serve`` query service) opens the
        warehouse once but other processes may keep recording runs into the
        same root; refreshing picks those up without reopening.  Stored runs
        are immutable, so a refresh only ever *adds* visibility -- but name
        resolution ("newest run named X") and cached pattern results must be
        re-derived when the set changes.  The epoch vector is part of the
        comparison: a rebalance moves run directories without changing the
        run-id set, and open stores must still be dropped.
        """
        before = {record.run_id for record in self._catalog.runs()}
        epochs_before = self._catalog.epoch_vector()
        self._catalog = Catalog.load(self.root)
        return (
            {record.run_id for record in self._catalog.runs()} != before
            or self._catalog.epoch_vector() != epochs_before
        )

    # -- listing / inspection --------------------------------------------------

    def runs(self) -> list[RunRecord]:
        """All catalogued runs, oldest first (reads only the catalog)."""
        return self._catalog.runs()

    def resolve(self, run_id: str | None = None) -> RunRecord:
        """Resolve a run id or name to its record (``None``: the newest run)."""
        return self._catalog.find(run_id) if run_id else self._catalog.latest()

    def run_dir(self, run_id: str) -> FsPath:
        return self._dir_for(self._catalog.find(run_id))

    @staticmethod
    def _operator_summaries(run_dir: FsPath, manifest: dict[str, Any]) -> list[dict[str, Any]]:
        """Per-operator footer figures, summed over the run's visible parts."""
        summaries: dict[int, dict[str, Any]] = {}
        for part in run_parts(run_dir, manifest):
            for oid_text, entry in part.operators.items():
                summary = summaries.setdefault(
                    int(oid_text),
                    {
                        "oid": int(oid_text),
                        "op_type": entry["op_type"],
                        "label": entry["label"],
                        "kind": entry["kind"],
                        "records": 0,
                        "segment_bytes": 0,
                        "source_name": entry.get("source_name"),
                    },
                )
                summary["records"] += entry["records"]
                summary["segment_bytes"] += entry["segment_bytes"]
        return [summaries[oid] for oid in sorted(summaries)]

    def inspect(self, run_id: str) -> dict[str, Any]:
        """Per-operator summary of one run, served from its footer index (plus
        liveness, watermark and per-epoch sizes on epoch-layout runs)."""
        record = self._catalog.find(run_id)
        run_dir = self._dir_for(record)
        manifest = load_manifest(run_dir)
        summary = {
            "run_id": record.run_id,
            "name": record.name,
            "created": record.created_iso(),
            "sink_oid": manifest["sink_oid"],
            "rows": manifest["rows"]["count"],
            "total_bytes": manifest["total_bytes"],
            "operators": self._operator_summaries(run_dir, manifest),
        }
        if is_epoch_layout(manifest):
            summary.update(
                live=bool(manifest.get("live")),
                segment_epoch=manifest["segment_epoch"],
                watermark=manifest.get("watermark"),
                epochs=[
                    {
                        "epoch": entry["epoch"],
                        "rows": entry["rows"],
                        "total_bytes": entry["total_bytes"],
                        "watermark": entry.get("watermark"),
                        "expired": bool(entry.get("expired")),
                    }
                    for entry in manifest["epochs"]
                ],
            )
        return summary

    # -- lazy loading / querying -----------------------------------------------

    def _open_run(
        self,
        run_id: str | None,
        cache_size: int,
        metrics: SegmentCacheMetrics | None = None,
        max_epoch: int | None = None,
    ) -> tuple[LazyProvenanceStore, Iterator[tuple[int | None, bytes]]]:
        """A stored run's lazy store plus its result rows, still encoded.

        Reads the manifest and the rows segment(s); parses neither rows nor
        provenance.  With no *run_id*, the newest run opens.
        """
        record = self._catalog.find(run_id) if run_id else self._catalog.latest()
        run_dir = self._dir_for(record)
        with get_tracer().span("warehouse-load", "warehouse", run_id=record.run_id):
            store = LazyProvenanceStore(
                run_dir,
                load_manifest(run_dir),
                cache_size=cache_size,
                metrics=metrics,
                max_epoch=max_epoch,
            )
            return store, store.encoded_rows()

    def load(
        self,
        run_id: str | None = None,
        num_partitions: int | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        metrics: SegmentCacheMetrics | None = None,
        max_epoch: int | None = None,
    ) -> ExecutionResult:
        """Restore a run as a queryable execution with a lazy store.

        Every result row is materialised (the execution is a resident,
        re-queryable object; :meth:`backtrace` is the one-shot path that
        parses only what its question touches), but the provenance store
        behind the execution is a :class:`LazyProvenanceStore`: operators
        decode only when a backtrace touches them.  With no *run_id*, the
        newest run loads.

        Epoch-layout runs (live or sealed-uncompacted) load the epochs
        visible *now* -- a consistent snapshot, since epoch directories are
        complete before the manifest references them.  *max_epoch* restricts
        the view to epochs admitted at or before it (how a query that was
        admitted mid-ingest stays pinned to what it saw); batch runs ignore it.
        """
        num_partitions = resolve_partitions(num_partitions)
        store, encoded = self._open_run(run_id, cache_size, metrics, max_epoch)
        rows = materialise_rows(encoded)
        store.metrics.add(rows_decoded=len(rows))
        from repro.engine.executor import SCHEMA_SAMPLE

        schema = (
            infer_schema(item for _, item in rows[:SCHEMA_SAMPLE])
            if rows
            else Schema(StructType())
        )
        return ExecutionResult(
            RestoredPlanNode(store.sink_oid),
            partition_rows(rows, num_partitions),
            schema,
            store,
            ExecutionMetrics(),
        )

    def backtrace(
        self,
        run_id: str | None,
        pattern: TreePattern | str,
        cache_size: int = DEFAULT_CACHE_SIZE,
        breakdown: QueryBreakdown | None = None,
    ) -> tuple[ProvenanceResult, SegmentCacheMetrics]:
        """Answer a structural provenance question against a stored run.

        The cold path parses only what the question touches: result rows
        stay encoded until the pattern's required string constants have
        ruled out every row they can (:func:`match_encoded_rows`), no
        schema is inferred and nothing is partitioned, and source blocks
        yield only the items the answer lists.  The answer is the one
        ``query_provenance(self.load(run_id), pattern)`` gives.

        Returns the provenance result plus the segment-cache metrics of the
        query, whose miss counter equals the number of operator segments the
        backtrace actually decoded.  Pass a started-or-not
        :class:`QueryBreakdown` to collect per-phase explain-analyze timings;
        when the ``REPRO_SLOW_QUERY_MS`` budget is set, one is built anyway
        so over-budget queries land in the slow log with their breakdown.
        """
        from repro.pebble.query import as_pattern, trace_matches

        tree_pattern = as_pattern(pattern)
        with explained("backtrace", str(pattern), breakdown=breakdown) as query:
            with get_tracer().span("warehouse-query", "warehouse") as span:
                with get_breakdown().phase("load"):
                    store, encoded = self._open_run(run_id, cache_size)
                query.run_id = store.run_id
                matches, rows_decoded = match_encoded_rows(tree_pattern, encoded)
                metrics = store.metrics
                metrics.add(rows_decoded=rows_decoded)
                result = trace_matches(store, store.sink_oid, matches)
                span.set(
                    run_id=store.run_id,
                    segments_decoded=metrics.misses,
                    bytes_read=metrics.bytes_read,
                )
            query.count(
                rows_visited=store.manifest["rows"]["count"],
                matched=len(matches),
                rows_decoded=metrics.rows_decoded,
                items_decoded=metrics.items_decoded,
                segments_decoded=metrics.misses,
                cache_hits=metrics.hits,
                cache_misses=metrics.misses,
                bytes_read=metrics.bytes_read,
            )
        metrics.publish()
        get_logger(store.run_id).event(
            "warehouse-query",
            pattern=str(pattern),
            matched=len(result.matched_output_ids),
            segments_decoded=metrics.misses,
            bytes_read=metrics.bytes_read,
            hit_rate=metrics.hit_rate,
        )
        return result, metrics

    def stats(
        self,
        run_id: str | None = None,
        pattern: TreePattern | str | None = None,
        registry: MetricsRegistry | None = None,
    ) -> MetricsRegistry:
        """Build a metrics registry describing one stored run.

        Folds the run's footer index (operator/record/byte counts) and the
        execution accounting recorded at ``record`` time into *registry*
        (a fresh one by default).  With *pattern*, additionally runs the
        backtrace and folds its segment-cache behaviour in, so the returned
        registry answers "what would this query touch?" as numbers.
        """
        registry = registry if registry is not None else MetricsRegistry()
        record = self._catalog.find(run_id) if run_id else self._catalog.latest()
        run_dir = self._dir_for(record)
        manifest = load_manifest(run_dir)
        operators = self._operator_summaries(run_dir, manifest)
        if is_epoch_layout(manifest):
            registry.gauge("repro_run_segment_epoch", run_id=record.run_id).set(
                manifest["segment_epoch"]
            )
            registry.gauge("repro_run_live", run_id=record.run_id).set(
                1 if manifest.get("live") else 0
            )
        # Sharded runs carry their shard as an extra label; unsharded runs
        # keep the historical label set so existing dashboards stay intact.
        size_labels: dict[str, str] = {"run_id": record.run_id}
        if record.shard:
            size_labels["shard"] = record.shard
        registry.gauge("repro_run_operators", **size_labels).set(len(operators))
        registry.gauge("repro_run_rows", **size_labels).set(
            manifest["rows"]["count"]
        )
        registry.gauge("repro_run_bytes", **size_labels).set(
            manifest["total_bytes"]
        )
        for entry in operators:
            registry.counter(
                "repro_run_operator_records_total", op_type=entry["op_type"]
            ).inc(entry["records"])
        metrics_path = run_dir / METRICS_NAME
        if metrics_path.exists():
            with open(metrics_path, "r", encoding="utf-8") as handle:
                stored = json.load(handle)
            registry.gauge("repro_run_total_seconds", run_id=record.run_id).set(
                stored.get("total_seconds", 0.0)
            )
            for op in stored.get("operators", ()):
                registry.counter(
                    "repro_run_capture_seconds_total", run_id=record.run_id
                ).inc(op.get("capture_seconds", 0.0))
        if pattern is not None:
            _, cache_metrics = self.backtrace(record.run_id, pattern)
            cache_metrics.publish(registry)
        return registry

    def __len__(self) -> int:
        return len(self._catalog)

    def __repr__(self) -> str:
        return f"Warehouse({self.root}, {len(self._catalog)} runs)"
