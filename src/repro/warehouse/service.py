"""The warehouse facade: record, list, load, and query stored runs.

The paper's motivation for eager capture is that provenance outlives the
pipeline run (auditing and usage queries happen days later, Sec. 7.4).
:class:`Warehouse` is the durable home those queries run against: many
captured executions under one root directory, catalogued in
``catalog.json``, each run spilled into binary segments -- one per operator,
the result rows, the index -- that a
:class:`~repro.warehouse.reader.LazyProvenanceStore` decodes on demand.

Directory layout::

    <root>/
      catalog.json                   run registry (name, timestamp, sizes)
      runs/<run_id>/                 one directory per run
        part.seg                     operator segments, then the rows
                                     segment, then the index segment
        manifest.json                footer: oid -> offsets in part.seg
        metrics.json                 the execution's accounting
      shards/<shard>/runs/<run_id>/  a run recorded into a pre-3.6 sharded root

A live run holds one such ``part.seg`` per micro-batch instead
(:mod:`repro.warehouse.live`); runs written in layout 2 (a file per
segment) still read (:func:`~repro.warehouse.reader.run_parts`).

Every new run goes under ``runs/``.  Reads resolve a run's directory
through its catalog record, whose read-only ``shard`` field keeps the runs
of a root written with storage shards (before 3.6) where they are.
"""

from __future__ import annotations

import json
import shutil
import time
from pathlib import Path as FsPath
from typing import Any

from repro.core.backtrace.result import ProvenanceResult
from repro.core.treepattern.pattern import TreePattern
from repro.engine.executor import ExecutionResult
from repro.engine.metrics import SegmentCacheMetrics
from repro.errors import LiveRunError, ProvenanceError
from repro.obs.breakdown import QueryBreakdown
from repro.obs.log import get_logger
from repro.obs.metrics import MetricsRegistry
from repro.obs.slowlog import explained
from repro.obs.tracer import count, span
from repro.pebble.query import as_pattern
from repro.warehouse.catalog import Catalog, RunRecord
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
    LazyProvenanceStore,
    RunPart,
    StoredRun,
    load_manifest,
    run_parts,
)
from repro.warehouse.writer import encode_part, write_run

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

    def _dir_for(self, record: RunRecord) -> FsPath:
        if record.shard:
            return self.root / SHARDS_DIR / record.shard / RUNS_DIR / record.run_id
        return self.root / RUNS_DIR / record.run_id

    # -- recording -------------------------------------------------------------

    def _new_run(self, name: str) -> tuple[str, FsPath]:
        """Mint a run id; returns ``(run id, run directory)``.

        The catalog references no run under a fresh id, so a directory
        already there is what a recording that died before the catalog
        rename left behind (``next_seq`` is persisted by that rename, and a
        reopened catalog mints the same id again); it is cleared.
        """
        run_id = self._catalog.new_run_id(name)
        run_dir = self.root / RUNS_DIR / run_id
        if run_dir.exists():
            shutil.rmtree(run_dir)
        return run_id, run_dir

    def record(
        self, execution: ExecutionResult, name: str = "run", index: bool = True
    ) -> RunRecord:
        """Persist one capture-enabled execution; returns its catalog record.

        The run is one ``part.seg`` (:func:`write_run`); by default its
        query-side index is built in the same pass and written as the
        file's last segment.  Pass ``index=False`` to skip it (``repro index
        build`` backfills ``index.seg`` later, with identical bytes).
        ``total_bytes`` is the size of ``part.seg``.
        """
        if execution.store is None:
            raise ProvenanceError("only capture-enabled executions can be recorded")
        created = time.time()
        run_id, run_dir = self._new_run(name)
        with span("warehouse-record", "warehouse", run_id=run_id):
            manifest = write_run(
                run_dir, encode_part(execution), execution.root.oid, run_id, name, created,
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
        )
        self._catalog.add(record)
        self._catalog.save()
        get_logger(run_id).event(
            "run-recorded",
            name=name,
            operators=record.operator_count,
            rows=record.row_count,
            bytes=record.total_bytes,
            indexed=index,
        )
        return record

    # -- streaming capture -----------------------------------------------------

    def create_live_run(self, name: str = "stream", sink_oid: int = 0) -> RunRecord:
        """Start a live (streaming) run; returns its catalog record.

        The run begins empty at segment epoch 0 and grows one epoch per
        :meth:`append_live_epoch` until :meth:`seal_live_run`.  Its catalog
        record carries ``live=True`` plus the segment epoch serve workers
        invalidate the run's cached answers by.
        """
        created = time.time()
        run_id, run_dir = self._new_run(name)
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
            live=True,
            segment_epoch=0,
        )
        self._catalog.add(record)
        self._catalog.save()
        get_logger(run_id).event("live-run-created", name=name)
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

        Only the run's own segment epoch advances, so serve workers drop the
        cached answers over *this* run and keep every other.
        """
        record = self._catalog.find(run_id)
        if not record.live:
            raise LiveRunError(f"run {record.run_id!r} is sealed; cannot append")
        run_dir = self._dir_for(record)
        manifest = load_manifest(run_dir)
        with span(
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
        # Persist per batch: the catalog's per-run segment epoch is what
        # serve workers compare, so the bump must be durable immediately.
        self._catalog.save()
        get_logger(record.run_id).event(
            "epoch-appended",
            epoch=entry["epoch"],
            rows=entry["rows"],
            watermark=watermark,
        )
        return entry

    def seal_live_run(self, run_id: str, compact: bool = True) -> RunRecord:
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
        # record's epoch stays set forever: dropping it would read as "no
        # epoch" and mask this very invalidation.
        sealed_epoch = manifest.get("segment_epoch", (record.segment_epoch or 0) + 1)
        if compact:
            with span(
                "warehouse-compact", "warehouse", run_id=record.run_id
            ):
                manifest = compact_live_run(run_dir, manifest)
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
        use_index: bool = True,
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
            use_index=use_index,
            breakdown=breakdown,
        )

    def refresh(self) -> None:
        """Reload the catalog from disk.

        A long-lived reader (the ``repro.serve`` query service) opens the
        warehouse once but other processes may keep recording runs into the
        same root; refreshing picks those up without reopening.
        """
        self._catalog = Catalog.load(self.root)

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
    def _operator_summaries(parts: list[RunPart]) -> list[dict[str, Any]]:
        """Per-operator footer figures, summed over the run's visible parts."""
        summaries: dict[int, dict[str, Any]] = {}
        for part in parts:
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

    @staticmethod
    def _byte_ledger(parts: list[RunPart]) -> dict[str, int]:
        """What the visible parts' bytes hold, summed from their footer
        entries with no segment read: source-item blocks, the rest of the
        operator segments (preambles and operator records), result rows and
        the index.  A layout-2 rows entry runs to its file's end, so its
        size is the file's."""
        ledger = dict.fromkeys(("items", "records", "rows", "index"), 0)
        for part in parts:
            for entry in part.operators.values():
                items = entry.get("items_length", 0)
                ledger["items"] += items
                ledger["records"] += entry["segment_bytes"] - items
            rows = part.rows["segment_bytes"]
            if rows < 0:
                rows = (part.directory / part.rows["segment"]).stat().st_size
            ledger["rows"] += rows
            if part.index:
                ledger["index"] += part.index["segment_bytes"]
        return ledger

    def inspect(self, run_id: str) -> dict[str, Any]:
        """Per-operator summary of one run, served from its footer index (plus
        liveness, watermark and per-epoch sizes on epoch-layout runs), and
        the ``bytes`` ledger of what its stored bytes hold."""
        record = self._catalog.find(run_id)
        run_dir = self._dir_for(record)
        manifest = load_manifest(run_dir)
        parts = run_parts(run_dir, manifest)
        summary = {
            "run_id": record.run_id,
            "name": record.name,
            "created": record.created_iso(),
            "sink_oid": manifest["sink_oid"],
            "rows": manifest["rows"]["count"],
            "total_bytes": manifest["total_bytes"],
            "bytes": self._byte_ledger(parts),
            "operators": self._operator_summaries(parts),
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

    # -- querying ---------------------------------------------------------------

    def load(self, run_id: str | None = None) -> StoredRun:
        """Open a stored run for querying (with no *run_id*, the newest).

        Reads the manifest and the rows segment(s); parses neither rows nor
        provenance.  Epoch-layout runs (live or sealed-uncompacted) open the
        epochs visible *now* -- a consistent snapshot, since epoch
        directories are complete before the manifest references them.
        """
        record = self.resolve(run_id)
        run_dir = self._dir_for(record)
        with span("warehouse-load", "warehouse", run_id=record.run_id):
            return StoredRun(LazyProvenanceStore(run_dir, load_manifest(run_dir)))

    def backtrace(
        self,
        run_id: str | None,
        pattern: TreePattern | str,
        breakdown: QueryBreakdown | None = None,
    ) -> tuple[ProvenanceResult, SegmentCacheMetrics]:
        """Answer a structural provenance question against a stored run.

        A fresh :meth:`load` answers it (:meth:`StoredRun.backtrace`), so
        only what the question touches is parsed: rows the pattern's
        required string constants rule out stay encoded, and source blocks
        yield only the items the answer lists.

        Returns the provenance result plus the segment-cache metrics of the
        query, whose miss counter equals the number of operator segments the
        backtrace actually decoded.  Pass a
        :class:`QueryBreakdown` to collect per-phase explain-analyze timings;
        when the ``REPRO_SLOW_QUERY_MS`` budget is set, one is built anyway
        so over-budget queries land in the slow log with their breakdown.
        """
        tree_pattern = as_pattern(pattern)
        with explained("backtrace", str(pattern), breakdown=breakdown) as query:
            with span("warehouse-query", "warehouse") as handle:
                with span("open-run", "load"):
                    run = self.load(run_id)
                query.run_id = run.run_id
                result = run.backtrace(tree_pattern)
                metrics = run.store.metrics
                handle.set(
                    run_id=run.run_id,
                    segments_decoded=metrics.misses,
                    bytes_read=metrics.bytes_read,
                )
            count(
                items_decoded=metrics.items_decoded,
                segments_decoded=metrics.misses,
                cache_hits=metrics.hits,
                cache_misses=metrics.misses,
                bytes_read=metrics.bytes_read,
            )
        metrics.publish()
        get_logger(run.run_id).event(
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
        record = self.resolve(run_id)
        run_dir = self._dir_for(record)
        manifest = load_manifest(run_dir)
        operators = self._operator_summaries(run_parts(run_dir, manifest))
        if is_epoch_layout(manifest):
            registry.gauge("repro_run_segment_epoch", run_id=record.run_id).set(
                manifest["segment_epoch"]
            )
            registry.gauge("repro_run_live", run_id=record.run_id).set(
                1 if manifest.get("live") else 0
            )
        registry.gauge("repro_run_operators", run_id=record.run_id).set(len(operators))
        registry.gauge("repro_run_rows", run_id=record.run_id).set(
            manifest["rows"]["count"]
        )
        registry.gauge("repro_run_bytes", run_id=record.run_id).set(
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
