"""Live runs: epoch-append storage for micro-batch streaming captures.

A batch run is written once and sealed (:mod:`repro.warehouse.writer`).  A
**live run** grows: every micro-batch appends one immutable *epoch*
directory and rewrites the manifest (write-then-rename), so a reader that
snapshots the manifest at admission sees a frozen, consistent set of
segments no matter how many batches land afterwards.

Directory layout::

    runs/<run_id>/
      manifest.json                 live manifest (rewritten per batch)
      batches/epoch-0001/           one immutable directory per micro-batch
        ops/op-<oid>.seg            delta segments (same codec as batch runs)
        rows.seg                    sink rows this batch emitted
        index.seg                   per-epoch RunIndex (incremental indexing)
      retention/receipt-*.json      erasure-style retention receipts

The live manifest carries ``live`` (still growing?), ``segment_epoch`` (a
monotonic counter bumped per append *and* per retention sweep -- the serve
cache invalidation granule), ``next_pid`` (the executor id counter, so ids
stay globally unique across batches), the ``watermark``, and one entry per
epoch mirroring the batch footer index.

Run lifecycle::

    live --(finish(compact=False))--> sealed, epoch layout   (retention applies)
         --(finish(compact=True))---> compacted, batch layout (byte-identical
                                      to a one-shot batch run of the same rows)

Compaction is a pure association-level rewrite: operators are walked in
chain (topological) order, per-epoch association entries concatenate in
epoch order, and fresh sequential ids are assigned in entry order -- exactly
the order a batch executor would have assigned them for a linear plan -- so
the compacted segments are byte-identical to a batch capture.

Retention expires whole epochs past a TTL and proves it: the sweep records
the expired sink-row and source-item ids, verifies they no longer answer
from the surviving segments, and writes a sha256-digested receipt (the
erasure-verification idiom of :mod:`repro.audit.erasure` applied to
time-based deletion).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import shutil
import time
from pathlib import Path as FsPath
from typing import Any, Iterator

from repro.core.operator_provenance import (
    AggregationAssociations,
    Associations,
    BinaryAssociations,
    FlattenAssociations,
    InputRef,
    OperatorProvenance,
    ReadAssociations,
    UnaryAssociations,
)
from repro.core.store import ProvenanceSizeReport, ProvenanceStore
from repro.engine.metrics import SegmentCacheMetrics
from repro.errors import BacktraceError, LiveRunError, ProvenanceError, StreamError
from repro.nested.schema import Schema
from repro.nested.types import unify
from repro.nested.values import DataItem
from repro.obs.breakdown import get_breakdown
import repro.warehouse.format as wf
from repro.warehouse.index import RunIndex
from repro.warehouse.reader import count_items_decoded
from repro.warehouse.writer import (
    DEFAULT_SUB_SHARD_SPAN,
    MANIFEST_NAME,
    OPS_DIR,
    ROWS_SEGMENT,
    _operator_segment,
    write_run,
)

__all__ = [
    "BATCHES_DIR",
    "RETENTION_DIR",
    "LiveProvenanceStore",
    "MergedRunIndex",
    "append_epoch",
    "check_not_epoch_layout",
    "compact_live_run",
    "create_live_manifest",
    "is_epoch_layout",
    "read_epoch_encoded_rows",
    "read_epoch_rows",
    "retain_epochs",
    "seal_live_manifest",
    "write_live_manifest",
]

BATCHES_DIR = "batches"
RETENTION_DIR = "retention"


def is_epoch_layout(manifest: dict[str, Any]) -> bool:
    """``True`` for live or sealed-uncompacted (epoch-append) manifests."""
    return "epochs" in manifest


def check_not_epoch_layout(manifest: dict[str, Any], operation: str) -> None:
    """Reject batch-only *operation* on an epoch-layout run, with guidance."""
    if is_epoch_layout(manifest):
        state = "live" if manifest.get("live") else "sealed but uncompacted"
        raise LiveRunError(
            f"cannot {operation}: run {manifest.get('run_id')!r} is {state} "
            "(epoch-append layout). Per-epoch index segments are maintained "
            "incrementally on append; seal the stream with compact=True to "
            "get the batch layout."
        )


def write_live_manifest(run_dir: FsPath, manifest: dict[str, Any]) -> None:
    """Persist the live manifest atomically (write-then-rename).

    Epoch directories are written *before* the manifest referencing them,
    so a reader holding a previously loaded manifest keeps resolving every
    segment it can see -- the admission-time snapshot costs nothing.
    """
    run_dir = FsPath(run_dir)
    tmp = run_dir / (MANIFEST_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
    tmp.replace(run_dir / MANIFEST_NAME)


def create_live_manifest(
    run_dir: FsPath, run_id: str, name: str, created: float, sink_oid: int
) -> dict[str, Any]:
    """Create the run directory and the epoch-0 live manifest."""
    run_dir = FsPath(run_dir)
    (run_dir / BATCHES_DIR).mkdir(parents=True, exist_ok=False)
    manifest: dict[str, Any] = {
        "format": wf.FORMAT_VERSION,
        "run_id": run_id,
        "name": name,
        "created": created,
        "live": True,
        "segment_epoch": 0,
        "next_pid": 1,
        "watermark": None,
        "sink_oid": sink_oid,
        "rows": {"count": 0},
        "total_bytes": 0,
        "epochs": [],
    }
    write_live_manifest(run_dir, manifest)
    return manifest


def append_epoch(
    run_dir: FsPath,
    manifest: dict[str, Any],
    execution: Any,
    *,
    next_pid: int,
    watermark: float | None = None,
    created: float | None = None,
    index: bool = True,
) -> dict[str, Any]:
    """Append one micro-batch as a sealed epoch; returns the epoch entry.

    *execution* is the batch's capture-enabled execution result (its store
    holds only this batch's delta records).  The epoch directory is written
    completely before the manifest is rewritten to reference it.
    """
    if not manifest.get("live"):
        raise LiveRunError(
            f"run {manifest.get('run_id')!r} is sealed; cannot append epochs"
        )
    store = execution.store
    if store is None:
        raise ProvenanceError("only capture-enabled executions can be appended")
    run_dir = FsPath(run_dir)
    epoch = manifest["segment_epoch"] + 1
    epoch_dir = run_dir / BATCHES_DIR / f"epoch-{epoch:04d}"
    ops_dir = epoch_dir / OPS_DIR
    ops_dir.mkdir(parents=True, exist_ok=False)

    total_bytes = 0
    operators: dict[str, Any] = {}
    for provenance in store.operators():
        segment, entry = _operator_segment(store, provenance)
        (ops_dir / entry["segment"]).write_bytes(segment)
        entry["segment_bytes"] = len(segment)
        total_bytes += len(segment)
        operators[str(provenance.oid)] = entry

    rows = execution.rows()
    row_count = len(rows)
    rows_segment = wf.encode_segment(wf.SEGMENT_ROWS, wf.encode_rows(rows))
    (epoch_dir / ROWS_SEGMENT).write_bytes(rows_segment)
    total_bytes += len(rows_segment)

    entry = {
        "epoch": epoch,
        "dir": f"{BATCHES_DIR}/epoch-{epoch:04d}",
        "created": created if created is not None else time.time(),
        "rows": row_count,
        "rows_bytes": len(rows_segment),
        "total_bytes": total_bytes,
        "watermark": watermark,
        "operators": operators,
    }
    if index:
        # The per-epoch delta index: derived from the epoch's own segments,
        # exactly like the batch path, so no full-run rebuild ever happens.
        entry["index"] = RunIndex.build(epoch_dir, entry).write(epoch_dir)
        entry["total_bytes"] += entry["index"]["segment_bytes"]

    manifest["segment_epoch"] = epoch
    manifest["next_pid"] = next_pid
    if watermark is not None:
        manifest["watermark"] = watermark
    manifest["rows"]["count"] += row_count
    manifest["total_bytes"] += entry["total_bytes"]
    manifest["epochs"].append(entry)
    write_live_manifest(run_dir, manifest)
    return entry


def seal_live_manifest(run_dir: FsPath, manifest: dict[str, Any]) -> dict[str, Any]:
    """Mark the run finished (no more appends); keeps the epoch layout.

    Sealing bumps ``segment_epoch`` -- what queries see changes (the final
    window flush landed, or compaction is about to remap ids), so cached
    mid-ingest answers must go stale.  The manifest's counter is the ground
    truth the catalog record mirrors; keeping them in lockstep means a later
    retention sweep's bump is never masked by a colliding value.
    """
    manifest["live"] = False
    manifest["segment_epoch"] += 1
    write_live_manifest(run_dir, manifest)
    return manifest


def read_epoch_encoded_rows(
    run_dir: FsPath, manifest: dict[str, Any], max_epoch: int | None = None
) -> Iterator[tuple[int | None, bytes]]:
    """The sink rows of every visible (unexpired) epoch as ``(pid, raw JSON)``.

    The segments are read before this returns; only the row hop is lazy.
    """
    cursors = [
        wf.open_segment(
            (FsPath(run_dir) / entry["dir"] / ROWS_SEGMENT).read_bytes(), wf.SEGMENT_ROWS
        )
        for entry in _visible_epochs(manifest, max_epoch)
    ]
    return itertools.chain.from_iterable(map(wf.iter_encoded_rows, cursors))


def read_epoch_rows(
    run_dir: FsPath, manifest: dict[str, Any], max_epoch: int | None = None
) -> list[tuple[int | None, DataItem]]:
    """Concatenate the sink rows of every visible (unexpired) epoch."""
    return wf.materialise_rows(read_epoch_encoded_rows(run_dir, manifest, max_epoch))


def _visible_epochs(
    manifest: dict[str, Any], max_epoch: int | None = None
) -> list[dict[str, Any]]:
    return [
        entry
        for entry in manifest["epochs"]
        if not entry.get("expired")
        and (max_epoch is None or entry["epoch"] <= max_epoch)
    ]


def _merge_associations(parts: list[Associations]) -> Associations:
    """Concatenate association bags of one operator across epochs, in order."""
    first = parts[0]
    if isinstance(first, ReadAssociations):
        ids: list[int] = []
        for part in parts:
            ids.extend(part.ids)  # type: ignore[attr-defined]
        return ReadAssociations(ids)
    records: list[Any] = []
    for part in parts:
        records.extend(part.records)  # type: ignore[attr-defined]
    return type(first)(records)  # type: ignore[call-arg]


def _merge_inputs(parts: list[OperatorProvenance]) -> list[InputRef]:
    """Merge the ``I`` entries of one operator across epochs.

    Predecessors and accessed paths are static plan metadata (identical in
    every epoch); the input *schema* snapshot is not -- it is sampled from
    the rows each micro-batch actually carried, so an epoch that saw no (or
    structurally narrower) rows records a narrower struct.  Unifying the
    snapshots yields the schema a one-shot batch over the concatenated
    input would have sampled, which is what schema-dependent backtracing
    (map marks the whole schema manipulated, join prunes the other side)
    and byte-identical compaction both need.
    """
    merged: list[InputRef] = []
    for index, entry in enumerate(parts[0].inputs):
        schemas = [
            part.inputs[index].schema
            for part in parts
            if part.inputs[index].schema is not None
        ]
        schema = schemas[0] if schemas else None
        for other in schemas[1:]:
            schema = Schema(unify(schema.struct, other.struct))
        merged.append(InputRef(entry.predecessor, entry.accessed, schema))
    return merged


class LiveProvenanceStore:
    """Merged on-demand view over the epoch delta segments of a live run.

    Satisfies the :class:`~repro.core.store.ProvenanceStoreProtocol` (plus
    the lazy store's convenience surface: ``sink_oid``, ``run_id``,
    ``footer_topology``, ``manifest``), so backtracing and forward tracing
    run over a still-growing run unchanged.  An operator's record is the
    concatenation of its per-epoch association entries in epoch order;
    ``M`` comes from the first visible epoch (static plan metadata), while
    the per-input schema snapshots of ``I`` are unified across epochs --
    schema sampling is batch-local, so single epochs can record narrower
    structs than the stream as a whole.

    The constructor snapshots the manifest's epoch list: batches appended
    afterwards are invisible, which is exactly the query-admission contract.
    ``max_epoch`` restricts the view further (used to compare a mid-ingest
    answer against the sealed run).  Expired epochs are skipped.
    """

    def __init__(
        self,
        run_dir: FsPath,
        manifest: dict[str, Any] | None = None,
        max_epoch: int | None = None,
    ):
        self._run_dir = FsPath(run_dir)
        if manifest is None:
            from repro.warehouse.reader import load_manifest

            manifest = load_manifest(run_dir)
        if not is_epoch_layout(manifest):
            raise ProvenanceError(
                f"run {manifest.get('run_id')!r} is not in epoch layout"
            )
        self._manifest = manifest
        self._epochs = _visible_epochs(manifest, max_epoch)
        self.max_epoch = max_epoch
        #: oid -> [(epoch entry, operator entry)] in epoch order.
        self._by_oid: dict[int, list[tuple[dict[str, Any], dict[str, Any]]]] = {}
        for epoch_entry in self._epochs:
            for oid_text, op_entry in epoch_entry["operators"].items():
                self._by_oid.setdefault(int(oid_text), []).append(
                    (epoch_entry, op_entry)
                )
        self._operators: dict[int, OperatorProvenance] = {}
        #: oid -> the read operator's item block of every visible epoch.
        self._source_items: dict[int, list[wf.SourceItemBlock]] = {}
        #: Same accounting surface as the lazy store: a "miss" is one merged
        #: operator decode (however many epoch segments it touched).
        self.metrics = SegmentCacheMetrics()

    # -- identity --------------------------------------------------------------

    @property
    def run_dir_path(self) -> FsPath:
        return self._run_dir

    @property
    def manifest(self) -> dict[str, Any]:
        return self._manifest

    @property
    def run_id(self) -> str:
        return self._manifest["run_id"]

    @property
    def sink_oid(self) -> int:
        return self._manifest["sink_oid"]

    @property
    def live(self) -> bool:
        return bool(self._manifest.get("live"))

    def visible_epochs(self) -> tuple[int, ...]:
        return tuple(entry["epoch"] for entry in self._epochs)

    # -- index-only lookups ----------------------------------------------------

    def has(self, oid: int) -> bool:
        return oid in self._by_oid

    def is_empty(self) -> bool:
        """True when no visible epoch carries provenance.

        A run whose every epoch expired (or which never ingested a batch)
        has no operator segments at all -- not even the sink -- so queries
        must answer empty instead of attempting a topology walk.
        """
        return not self._by_oid

    def _entries(self, oid: int) -> list[tuple[dict[str, Any], dict[str, Any]]]:
        entries = self._by_oid.get(oid)
        if not entries:
            raise BacktraceError(f"no captured provenance for operator {oid}")
        return entries

    def is_source(self, oid: int) -> bool:
        return self._entries(oid)[0][1]["kind"] == "read"

    def source_name(self, oid: int) -> str:
        entries = self._by_oid.get(oid)
        if not entries or "source_name" not in entries[0][1]:
            return f"source-{oid}"
        return entries[0][1]["source_name"]

    def footer_topology(self) -> dict[int, tuple[int, ...]]:
        return {
            oid: tuple(entries[0][1].get("predecessors", ()))
            for oid, entries in self._by_oid.items()
        }

    def size_report(self) -> ProvenanceSizeReport:
        lineage = 0
        structural = 0
        records = 0
        per_operator: dict[int, tuple[str, int, int]] = {}
        for oid, entries in self._by_oid.items():
            op_lineage = sum(entry["lineage_bytes"] for _, entry in entries)
            op_structural = sum(entry["structural_bytes"] for _, entry in entries)
            records += sum(entry["records"] for _, entry in entries)
            lineage += op_lineage
            structural += op_structural
            per_operator[oid] = (entries[0][1]["op_type"], op_lineage, op_structural)
        return ProvenanceSizeReport(lineage, structural, records, per_operator)

    # -- merged decoding -------------------------------------------------------

    def _read_range(
        self, epoch_entry: dict[str, Any], op_entry: dict[str, Any],
        offset_key: str, length_key: str,
    ) -> bytes:
        path = self._run_dir / epoch_entry["dir"] / OPS_DIR / op_entry["segment"]
        with open(path, "rb") as handle:
            handle.seek(op_entry[offset_key])
            raw = handle.read(op_entry[length_key])
        self.metrics.add(bytes_read=len(raw))
        return raw

    def get(self, oid: int) -> OperatorProvenance:
        cached = self._operators.get(oid)
        if cached is not None:
            self.metrics.add(hits=1)
            return cached
        self.metrics.add(misses=1)
        with get_breakdown().phase("segment_decode"):
            parts = [
                wf.decode_operator(
                    wf.Cursor(self._read_range(epoch, entry, "offset", "record_length"))
                )
                for epoch, entry in self._entries(oid)
            ]
            first = parts[0]
            merged = OperatorProvenance(
                first.oid,
                first.op_type,
                _merge_inputs(parts),
                first.manipulations,
                _merge_associations([part.associations for part in parts]),
                label=first.label,
            )
        self._operators[oid] = merged
        return merged

    def _source_blocks(self, oid: int) -> list[wf.SourceItemBlock]:
        """Read operator *oid*'s item block of every visible epoch.

        A miss reads and header-hops the blocks; no item JSON is parsed.
        """
        cached = self._source_items.get(oid)
        if cached is not None:
            self.metrics.add(item_hits=1)
            return cached
        entries = self._entries(oid)
        if any("items_offset" not in op_entry for _, op_entry in entries):
            raise BacktraceError(f"operator {oid} is not a read operator")
        self.metrics.add(item_misses=1)
        with get_breakdown().phase("segment_decode"):
            blocks = [
                wf.open_source_items(
                    self._read_range(epoch_entry, op_entry, "items_offset", "items_length")
                )
                for epoch_entry, op_entry in entries
            ]
        self._source_items[oid] = blocks
        return blocks

    def source_items(self, oid: int) -> dict[int, DataItem]:
        merged: dict[int, DataItem] = {}
        for block in self._source_blocks(oid):
            with count_items_decoded(self.metrics, block):
                merged.update(block.all())
        return merged

    def decayed_source_id(self, oid: int, item_id: int) -> bool:
        """True when *item_id* was erased out from under a later reference.

        Pids are append-only, so an id a downstream association still
        carries but no visible epoch of read *oid* holds can only have
        lived in an expired (or admission-invisible) epoch.  Window
        aggregates emitted after a TTL sweep decay this way: the window
        closed after its oldest members' epoch was retained away.
        Answered from the blocks' id tables; no item is parsed.
        """
        return not any(item_id in block for block in self._source_blocks(oid))

    def source_item(self, oid: int, item_id: int) -> DataItem:
        for block in self._source_blocks(oid):
            if item_id in block:
                with count_items_decoded(self.metrics, block):
                    return block.get(item_id)
        raise BacktraceError(f"source {oid} has no item with id {item_id}")

    def operators(self) -> Iterator[OperatorProvenance]:
        for oid in sorted(self._by_oid):
            yield self.get(oid)

    def __len__(self) -> int:
        return len(self._by_oid)

    def __repr__(self) -> str:
        state = "live" if self.live else "sealed"
        return (
            f"LiveProvenanceStore({self.run_id!r}, {state}, "
            f"{len(self._epochs)} epochs, {len(self._by_oid)} operators)"
        )


class MergedRunIndex:
    """The incremental index: per-epoch :class:`RunIndex` parts, probed merged.

    Exposes the same probe surface (``consumers`` / ``candidates`` /
    ``item_range`` / ``operators_touching`` / ``source_item``); each append
    only builds the new epoch's part, so indexing cost per batch is
    proportional to the batch, never to the run.
    """

    def __init__(self, run_dir: FsPath, manifest: dict[str, Any],
                 max_epoch: int | None = None):
        self._parts: list[tuple[dict[str, Any], RunIndex]] = []
        run_dir = FsPath(run_dir)
        for entry in _visible_epochs(manifest, max_epoch):
            part = RunIndex.load(run_dir / entry["dir"], entry)
            if part is not None:
                self._parts.append((entry, part))
        self._run_dir = run_dir

    def __len__(self) -> int:
        return len(self._parts)

    def consumers(self, item_id: int) -> tuple[int, ...]:
        oids: set[int] = set()
        for _, part in self._parts:
            oids.update(part.consumers(item_id))
        return tuple(sorted(oids))

    def candidates(self, term: str) -> tuple[tuple[int, int], ...]:
        postings: set[tuple[int, int]] = set()
        for _, part in self._parts:
            postings.update(part.candidates(term))
        return tuple(sorted(postings))

    def item_range(self, oid: int, item_id: int) -> tuple[int, int] | None:
        for _, part in self._parts:
            found = part.item_range(oid, item_id)
            if found is not None:
                return found
        return None

    def operators_touching(self, path: str) -> dict[str, tuple[int, ...]]:
        accessed: set[int] = set()
        manipulated: set[int] = set()
        for _, part in self._parts:
            touching = part.operators_touching(path)
            accessed.update(touching["accessed"])
            manipulated.update(touching["manipulated"])
        return {
            "accessed": tuple(sorted(accessed)),
            "manipulated": tuple(sorted(manipulated)),
        }

    def source_item(self, oid: int, item_id: int) -> DataItem | None:
        for entry, part in self._parts:
            found = part.source_item(
                self._run_dir / entry["dir"], entry, oid, item_id
            )
            if found is not None:
                return found
        return None

    def summary(self) -> dict[str, Any]:
        return {
            "epochs": len(self._parts),
            "inputs": sum(len(part.inputs) for _, part in self._parts),
            "terms": sum(len(part.terms) for _, part in self._parts),
            "items": sum(
                sum(len(r) for r in part.items.values()) for _, part in self._parts
            ),
        }

    def __repr__(self) -> str:
        return f"MergedRunIndex({len(self._parts)} epoch parts)"


# ---------------------------------------------------------------------------
# Compaction: epoch layout -> canonical batch layout
# ---------------------------------------------------------------------------


class _SealedExecution:
    """Adapter feeding a compacted store and rows to :func:`write_run`."""

    def __init__(self, sink_oid: int, rows: list[tuple[int | None, DataItem]],
                 store: ProvenanceStore):
        from repro.warehouse.reader import RestoredPlanNode

        self.root = RestoredPlanNode(sink_oid)
        self.store = store
        self._rows = rows

    def rows(self) -> list[tuple[int | None, DataItem]]:
        return self._rows


def _chain_order(topology: dict[int, tuple[int, ...]]) -> list[int]:
    """Children-first topological order (Kahn, ascending-oid tie-break)."""
    successors: dict[int, list[int]] = {oid: [] for oid in topology}
    in_degree: dict[int, int] = {oid: 0 for oid in topology}
    for oid, preds in topology.items():
        for pred in preds:
            successors[pred].append(oid)
            in_degree[oid] += 1
    ready = sorted(oid for oid, degree in in_degree.items() if degree == 0)
    order: list[int] = []
    while ready:
        oid = ready.pop(0)
        order.append(oid)
        for succ in sorted(successors[oid]):
            in_degree[succ] -= 1
            if in_degree[succ] == 0:
                ready.append(succ)
        ready.sort()
    if len(order) != len(topology):
        raise ProvenanceError("live run operator graph contains a cycle")
    return order


def compact_live_run(
    run_dir: FsPath,
    manifest: dict[str, Any] | None = None,
    sub_shard_span: int = DEFAULT_SUB_SHARD_SPAN,
) -> dict[str, Any]:
    """Rewrite a sealed epoch-layout run into the canonical batch layout.

    Ids are remapped to the sequence a one-shot batch execution would have
    assigned (operator-major in chain order, entry order within each
    operator), which makes the resulting segments byte-identical to a batch
    capture of the same data.  The ``batches/`` tree is removed afterwards.
    Only linear (streaming-legal) plans compact; retention must not have
    expired any epoch (the removed rows cannot be re-derived).
    """
    run_dir = FsPath(run_dir)
    if manifest is None:
        from repro.warehouse.reader import load_manifest

        manifest = load_manifest(run_dir)
    if manifest.get("live"):
        raise LiveRunError(
            f"run {manifest.get('run_id')!r} is still live; seal before compacting"
        )
    if not is_epoch_layout(manifest):
        return manifest  # already compacted
    if any(entry.get("expired") for entry in manifest["epochs"]):
        raise LiveRunError(
            f"run {manifest['run_id']!r} has expired epochs; a retained run "
            "stays in epoch layout"
        )
    source = LiveProvenanceStore(run_dir, manifest)
    id_map: dict[int, int] = {}
    next_id = 1
    compacted = ProvenanceStore()
    for oid in _chain_order(source.footer_topology()):
        provenance = source.get(oid)
        associations = provenance.associations
        if isinstance(associations, ReadAssociations):
            fresh = []
            for old in associations.ids:
                id_map[old] = next_id
                fresh.append(next_id)
                next_id += 1
            remapped: Associations = ReadAssociations(fresh)
            items = source.source_items(oid)
            compacted.register_source_items(
                oid,
                source.source_name(oid),
                {id_map[old]: item for old, item in items.items()},
            )
        elif isinstance(associations, UnaryAssociations):
            records = []
            for id_in, id_out in associations.records:
                id_map[id_out] = next_id
                records.append((id_map[id_in], next_id))
                next_id += 1
            remapped = UnaryAssociations(records)
        elif isinstance(associations, FlattenAssociations):
            records = []
            for id_in, pos, id_out in associations.records:
                id_map[id_out] = next_id
                records.append((id_map[id_in], pos, next_id))
                next_id += 1
            remapped = FlattenAssociations(records)
        elif isinstance(associations, AggregationAssociations):
            records = []
            for ids_in, id_out in associations.records:
                id_map[id_out] = next_id
                records.append((tuple(id_map[i] for i in ids_in), next_id))
                next_id += 1
            remapped = AggregationAssociations(records)
        elif isinstance(associations, BinaryAssociations):
            # Binary operators are rejected at stream-open time; a run that
            # somehow holds one cannot be canonically ordered.
            raise StreamError(
                f"cannot compact binary operator {oid}; streaming plans are linear"
            )
        else:  # pragma: no cover -- new association kinds must be handled
            raise ProvenanceError(
                f"cannot compact associations {type(associations).__name__}"
            )
        compacted.register(
            OperatorProvenance(
                provenance.oid,
                provenance.op_type,
                provenance.inputs,
                provenance.manipulations,
                remapped,
                label=provenance.label,
            )
        )
    rows = [
        (id_map[pid] if pid is not None else None, item)
        for pid, item in read_epoch_rows(run_dir, manifest)
    ]
    execution = _SealedExecution(manifest["sink_oid"], rows, compacted)
    sealed = write_run(
        run_dir,
        execution,  # type: ignore[arg-type]
        manifest["run_id"],
        manifest["name"],
        manifest["created"],
        sub_shard_span=sub_shard_span,
    )
    shutil.rmtree(run_dir / BATCHES_DIR)
    return sealed


# ---------------------------------------------------------------------------
# Retention: TTL-based epoch expiry with verified receipts
# ---------------------------------------------------------------------------


def retain_epochs(
    run_dir: FsPath,
    manifest: dict[str, Any],
    ttl_seconds: float,
    now: float | None = None,
) -> dict[str, Any] | None:
    """Expire epochs older than *ttl_seconds*; returns the receipt or ``None``.

    For each expired epoch the sweep records the sink-row ids and source
    item ids it held, deletes the epoch directory, marks the manifest entry
    expired, bumps ``segment_epoch`` (cached answers over the run are now
    stale), and then *verifies* against the surviving segments that none of
    the recorded ids still answers -- the same proof shape as an erasure
    verification, applied to time-based deletion.  The receipt (with a
    sha256 digest over its canonical JSON) persists under ``retention/``.
    """
    if ttl_seconds <= 0:
        raise ProvenanceError(f"retention TTL must be positive, got {ttl_seconds}")
    if not is_epoch_layout(manifest):
        return None
    run_dir = FsPath(run_dir)
    now = time.time() if now is None else now
    horizon = now - ttl_seconds
    due = [
        entry
        for entry in manifest["epochs"]
        if not entry.get("expired") and entry["created"] <= horizon
    ]
    if not due:
        return None

    expired_records: list[dict[str, Any]] = []
    for entry in due:
        epoch_dir = run_dir / entry["dir"]
        sink_ids = sorted(
            pid
            for pid, _ in read_epoch_rows(
                run_dir, {"epochs": [entry]}, max_epoch=None
            )
            if pid is not None
        )
        source_ids: dict[str, list[int]] = {}
        for oid_text, op_entry in entry["operators"].items():
            if "items_offset" not in op_entry:
                continue
            path = epoch_dir / OPS_DIR / op_entry["segment"]
            with open(path, "rb") as handle:
                handle.seek(op_entry["items_offset"])
                raw = handle.read(op_entry["items_length"])
            source_ids[oid_text] = wf.open_source_items(raw).ids()
        expired_records.append(
            {
                "epoch": entry["epoch"],
                "rows": entry["rows"],
                "sink_ids": sink_ids,
                "source_ids": source_ids,
            }
        )
        shutil.rmtree(epoch_dir)
        entry["expired"] = True
        entry["expired_at"] = now
        entry["operators"] = {}
        manifest["rows"]["count"] -= entry["rows"]
        manifest["total_bytes"] -= entry["total_bytes"]

    manifest["segment_epoch"] += 1
    write_live_manifest(run_dir, manifest)

    # Verify the expiry actually removed answerability: surviving sink rows
    # must not carry an expired id, and expired source ids must not resolve.
    survivor = LiveProvenanceStore(run_dir, manifest)
    surviving_ids = {
        pid for pid, _ in read_epoch_rows(run_dir, manifest) if pid is not None
    }
    sink_absent = all(
        not surviving_ids.intersection(record["sink_ids"])
        for record in expired_records
    )
    sources_absent = True
    for record in expired_records:
        for oid_text, ids in record["source_ids"].items():
            oid = int(oid_text)
            for item_id in ids:
                try:
                    if not survivor.has(oid):
                        continue
                    survivor.source_item(oid, item_id)
                except BacktraceError:
                    continue
                sources_absent = False
    payload = {
        "run_id": manifest["run_id"],
        "swept_at": now,
        "ttl_seconds": ttl_seconds,
        "segment_epoch": manifest["segment_epoch"],
        "expired_epochs": expired_records,
        "verified": {
            "sink_ids_absent": sink_absent,
            "source_ids_absent": sources_absent,
        },
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    receipt = dict(payload, digest=hashlib.sha256(canonical.encode()).hexdigest())
    retention_dir = run_dir / RETENTION_DIR
    retention_dir.mkdir(exist_ok=True)
    last = max(record["epoch"] for record in expired_records)
    with open(
        retention_dir / f"receipt-{last:04d}.json", "w", encoding="utf-8"
    ) as handle:
        json.dump(receipt, handle, indent=2)
    if not (sink_absent and sources_absent):
        raise ProvenanceError(
            f"retention verification failed for run {manifest['run_id']!r}: "
            f"receipt {receipt['digest'][:12]} records surviving expired ids"
        )
    return receipt
