"""Segment writer: spill one captured execution into warehouse segments.

Each operator's provenance becomes one segment file under the run's ``ops/``
directory; for read operators the segment additionally carries the
``id -> input item`` block *after* the operator record, at an offset noted
in the footer index, so a lazy reader can decode the operator (needed for
topological backtracing) without touching the usually much larger item
block.  The provenance-annotated result rows go into ``rows.seg``.

The part's query-side index (``index.seg``, :mod:`repro.warehouse.index`) is
fed in the same pass, from what this module holds while it encodes -- each
operator's provenance object, each source item object and the offset of its
record in the block being assembled -- so nothing written is read back.

The footer index maps every operator id to its segment, byte offsets, record
counts, and the Fig. 8 size split -- everything ``size_report()`` and
``is_source()`` need is answerable from the index alone, with zero segment
decodes.  A batch run keeps it in ``manifest.json``; an epoch of a live run
keeps its own in ``part.json`` beside its segments (:func:`write_part_footer`),
so appending a micro-batch never rewrites an earlier epoch's footer.

Large runs additionally **sub-shard** their segments: when a run has more
operators than ``sub_shard_span``, segments land in ``ops/range-NNNN/``
directories grouping ``span`` consecutive operator ids each.  The manifest's
``segment`` entries are run-dir-relative paths either way, so readers and
the index backfill need no layout knowledge -- the split exists so directory
listings stay bounded and a range of a very large run can be copied or
rebalanced as a unit.
"""

from __future__ import annotations

import json
from pathlib import Path as FsPath
from typing import TYPE_CHECKING, Any, NamedTuple

from repro.core.operator_provenance import OperatorProvenance, ReadAssociations
from repro.engine.executor import ExecutionResult
from repro.errors import ProvenanceError
from repro.nested.values import DataItem
import repro.warehouse.format as wf

if TYPE_CHECKING:  # the index module sits above this one and imports it
    from repro.warehouse.index import _Accumulator

__all__ = [
    "MANIFEST_NAME",
    "PART_NAME",
    "OPS_DIR",
    "ROWS_SEGMENT",
    "DEFAULT_SUB_SHARD_SPAN",
    "EncodedPart",
    "encode_part",
    "write_manifest",
    "write_part",
    "write_part_footer",
    "write_run",
]

MANIFEST_NAME = "manifest.json"
#: Footer of one epoch part (operator index entries + its ``index.seg`` entry).
PART_NAME = "part.json"
OPS_DIR = "ops"
ROWS_SEGMENT = "rows.seg"

#: Operators per ``ops/range-NNNN/`` directory; runs at or below the span
#: keep the flat layout.
DEFAULT_SUB_SHARD_SPAN = 256

#: Bytes of the segment preamble (magic + version + kind).
_PREAMBLE = len(wf.MAGIC) + 2 + 1


#: A read operator's items as the writer holds them: ``(source name, sorted
#: (item id, stored JSON bytes) payloads, the items in payload order)`` -- the
#: model objects or, where only those exist (compaction), the stored bytes.
Source = tuple[str, list[tuple[int, bytes]], list[DataItem] | list[bytes]]


class EncodedPart(NamedTuple):
    """One part's content with every data item already in its stored bytes."""

    #: ``(provenance, source)`` per operator; *source* is ``None`` for all
    #: but read operators.
    operators: list[tuple[OperatorProvenance, Source | None]]
    row_count: int
    #: The rows payload (:func:`repro.warehouse.format.encode_rows`).
    rows: bytes


def encode_part(execution: ExecutionResult) -> EncodedPart:
    """The ``DataItem`` front end of :func:`write_part`: JSON-encode the
    source items and result rows of one captured execution.  An item object
    that several read operators hold (a self-join) is encoded once."""
    store = execution.store
    if store is None:
        raise ProvenanceError("only capture-enabled executions can be recorded")
    encoded: dict[int, bytes] = {}  # id(item) -> bytes; ``operators`` keeps the items alive
    operators: list[tuple[OperatorProvenance, Source | None]] = []
    for provenance in store.operators():
        source = None
        if isinstance(provenance.associations, ReadAssociations):
            items = sorted(store.source_items(provenance.oid).items())
            payloads = []
            for item_id, item in items:
                raw = encoded.get(id(item))
                if raw is None:
                    raw = encoded[id(item)] = wf._item_json(item)
                payloads.append((item_id, raw))
            source = (
                store.source_name(provenance.oid), payloads, [item for _, item in items]
            )
        operators.append((provenance, source))
    rows = execution.rows()
    return EncodedPart(operators, len(rows), wf.encode_rows(rows))


def _operator_segment(
    provenance: OperatorProvenance, source: Source | None, index: "_Accumulator | None"
) -> tuple[list[bytes], dict[str, Any]]:
    """Encode one operator segment, feeding *index* the operator and the
    offset of each item record as its block is laid out; returns ``(the
    segment's bytes as the pieces to write in order, index entry)``."""
    record = wf.encode_operator(provenance)
    pieces = [wf.encode_segment(wf.SEGMENT_OPERATOR, record)]
    entry: dict[str, Any] = {
        "segment": f"op-{provenance.oid:06d}.seg",
        "offset": _PREAMBLE,
        "record_length": len(record),
        "op_type": provenance.op_type,
        "label": provenance.label,
        "kind": wf.kind_name(provenance.associations),
        "records": len(provenance.associations),
        "lineage_bytes": provenance.lineage_bytes(),
        "structural_bytes": provenance.structural_extra_bytes(),
        "predecessors": [
            input_ref.predecessor
            for input_ref in provenance.inputs
            if input_ref.predecessor is not None
        ],
    }
    if index is not None:
        index.add_operator(provenance)
    if source is not None:
        name, payloads, items = source
        parts = wf._payload_parts(name, payloads)  # header, then head + bytes per item
        pieces += parts
        entry["source_name"], entry["item_count"] = name, len(payloads)
        entry["items_offset"] = offset = _PREAMBLE + len(record)
        entry["items_length"] = sum(map(len, parts))
        if index is not None:
            offset += len(parts[0])
            for (item_id, raw), head, item in zip(payloads, parts[1::2], items):
                length = len(head) + len(raw)
                index.add_item(provenance.oid, item_id, offset, length, item)
                offset += length
    return pieces, entry


def write_manifest(run_dir: FsPath, manifest: dict[str, Any]) -> None:
    """Persist ``manifest.json`` atomically (write-then-rename).

    Segments are always written *before* the manifest referencing them, so
    a reader holding a previously loaded manifest keeps resolving every
    segment it can see -- the admission-time snapshot costs nothing.  The
    JSON is compact: ``json.dumps`` without ``indent`` runs the C encoder
    (``json.dump`` and ``indent`` both fall back to the Python one).
    """
    run_dir = FsPath(run_dir)
    tmp = run_dir / (MANIFEST_NAME + ".tmp")
    tmp.write_text(json.dumps(manifest), encoding="utf-8")
    tmp.replace(run_dir / MANIFEST_NAME)


def write_part_footer(
    part_dir: FsPath, operators: dict[str, Any], index: dict[str, Any] | None
) -> None:
    """Persist an epoch part's own footer, ``part.json``: the operator index
    entries plus the ``index.seg`` entry.  Written once, before the manifest
    line that makes the epoch visible, and never rewritten."""
    footer = {"operators": operators, "index": index}
    (FsPath(part_dir) / PART_NAME).write_text(json.dumps(footer), encoding="utf-8")


def write_part(
    part_dir: FsPath,
    part: EncodedPart,
    sub_shard_span: int,
    index: "_Accumulator | None" = None,
) -> tuple[dict[str, Any], dict[str, Any] | None, int, int]:
    """Write one part -- operator segments, ``rows.seg`` and, given an
    *index* accumulator (``RunIndex.accumulator()``), ``index.seg`` -- into
    *part_dir*.

    A batch run is one part (its run directory), a live run one per
    micro-batch.  Returns ``(operator index entries, index entry or None,
    rows segment bytes, total bytes of operator and rows segments)``.  The
    index is fed as each segment is encoded, from what this function holds:
    nothing written is read back.  More than *sub_shard_span* operators
    split across ``ops/range-NNNN/`` directories (span operators per range).
    """
    if sub_shard_span < 1:
        raise ProvenanceError(f"sub_shard_span must be >= 1, got {sub_shard_span}")
    part_dir = FsPath(part_dir)
    ops_dir = part_dir / OPS_DIR
    ops_dir.mkdir(parents=True, exist_ok=False)

    sub_sharded = len(part.operators) > sub_shard_span

    total_bytes = 0
    operators: dict[str, Any] = {}
    for provenance, source in part.operators:
        pieces, entry = _operator_segment(provenance, source, index)
        if sub_sharded:
            # The index entry's "segment" stays an ops-dir-relative path, so
            # every reader join (part_dir / OPS_DIR / segment) still works.
            rng = f"range-{provenance.oid // sub_shard_span:04d}"
            (ops_dir / rng).mkdir(exist_ok=True)
            entry["segment"] = f"{rng}/{entry['segment']}"
        with open(ops_dir / entry["segment"], "wb") as handle:
            handle.writelines(pieces)
        entry["segment_bytes"] = sum(map(len, pieces))
        total_bytes += entry["segment_bytes"]
        operators[str(provenance.oid)] = entry

    rows_segment = wf.encode_segment(wf.SEGMENT_ROWS, part.rows)
    (part_dir / ROWS_SEGMENT).write_bytes(rows_segment)
    index_entry = None if index is None else index.finish().write(part_dir)
    return operators, index_entry, len(rows_segment), total_bytes + len(rows_segment)


def write_run(
    run_dir: FsPath,
    part: EncodedPart,
    sink_oid: int,
    run_id: str,
    name: str,
    created: float,
    sub_shard_span: int = DEFAULT_SUB_SHARD_SPAN,
    index: "_Accumulator | None" = None,
) -> dict[str, Any]:
    """Write one part as a whole batch run under *run_dir*; returns the
    manifest -- with the ``"index"`` entry when *index* is given -- persisted
    once, after every segment, as ``run_dir/manifest.json``."""
    operators, index_entry, rows_bytes, total_bytes = write_part(
        run_dir, part, sub_shard_span, index
    )
    manifest = {
        "format": wf.FORMAT_VERSION,
        "run_id": run_id,
        "name": name,
        "created": created,
        "sink_oid": sink_oid,
        "rows": {
            "segment": ROWS_SEGMENT,
            "count": part.row_count,
            "segment_bytes": rows_bytes,
        },
        "operators": operators,
        "total_bytes": total_bytes,
    }
    if len(operators) > sub_shard_span:
        ranges = sorted({entry["segment"].split("/", 1)[0] for entry in operators.values()})
        manifest["sub_shards"] = {"span": sub_shard_span, "ranges": ranges}
    if index_entry is not None:
        manifest["index"] = index_entry
    write_manifest(run_dir, manifest)
    return manifest
