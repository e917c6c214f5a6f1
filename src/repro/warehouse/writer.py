"""Segment writer: spill one captured execution into warehouse segments.

Each operator's provenance becomes one segment file under the run's ``ops/``
directory; for read operators the segment additionally carries the
``id -> input item`` block *after* the operator record, at an offset noted
in the footer index, so a lazy reader can decode the operator (needed for
topological backtracing) without touching the usually much larger item
block.  The provenance-annotated result rows go into ``rows.seg``.

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
the index builder need no layout knowledge -- the split exists so directory
listings stay bounded and a range of a very large run can be copied or
rebalanced as a unit.
"""

from __future__ import annotations

import json
from pathlib import Path as FsPath
from typing import Any, NamedTuple

from repro.core.operator_provenance import OperatorProvenance, ReadAssociations
from repro.engine.executor import ExecutionResult
from repro.errors import ProvenanceError
import repro.warehouse.format as wf

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


class EncodedPart(NamedTuple):
    """One part's content with every data item already in its stored bytes."""

    #: ``(provenance, source)`` per operator; *source* is a read operator's
    #: ``(name, item count, items block)``, else ``None``.
    operators: list[tuple[OperatorProvenance, tuple[str, int, bytes] | None]]
    row_count: int
    #: The rows payload (:func:`repro.warehouse.format.encode_rows`).
    rows: bytes


def encode_part(execution: ExecutionResult) -> EncodedPart:
    """The ``DataItem`` front end of :func:`write_part`: JSON-encode the
    source items and result rows of one captured execution."""
    store = execution.store
    if store is None:
        raise ProvenanceError("only capture-enabled executions can be recorded")
    operators: list[tuple[OperatorProvenance, tuple[str, int, bytes] | None]] = []
    for provenance in store.operators():
        source = None
        if isinstance(provenance.associations, ReadAssociations):
            name = store.source_name(provenance.oid)
            items = store.source_items(provenance.oid)
            source = (name, len(items), wf.encode_source_items(name, items))
        operators.append((provenance, source))
    rows = execution.rows()
    return EncodedPart(operators, len(rows), wf.encode_rows(rows))


def _operator_segment(
    provenance: OperatorProvenance, source: tuple[str, int, bytes] | None
) -> tuple[bytes, dict[str, Any]]:
    """Encode one operator segment; returns ``(bytes, index entry)``."""
    record = wf.encode_operator(provenance)
    payload = record
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
    if source is not None:
        entry["source_name"], entry["item_count"], items_block = source
        entry["items_offset"] = _PREAMBLE + len(record)
        entry["items_length"] = len(items_block)
        payload = record + items_block
    return wf.encode_segment(wf.SEGMENT_OPERATOR, payload), entry


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
    part_dir: FsPath, part: EncodedPart, sub_shard_span: int
) -> tuple[dict[str, Any], int, int]:
    """Write one part -- operator segments plus ``rows.seg`` -- into *part_dir*.

    A batch run is one part (its run directory), a live run one per
    micro-batch.  Returns ``(operator index entries, rows segment bytes,
    total bytes)``.  More than *sub_shard_span* operators split across
    ``ops/range-NNNN/`` directories (span operators per range).
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
        segment, entry = _operator_segment(provenance, source)
        if sub_sharded:
            # The index entry's "segment" stays an ops-dir-relative path, so
            # every reader join (part_dir / OPS_DIR / segment) still works.
            rng = f"range-{provenance.oid // sub_shard_span:04d}"
            (ops_dir / rng).mkdir(exist_ok=True)
            entry["segment"] = f"{rng}/{entry['segment']}"
        (ops_dir / entry["segment"]).write_bytes(segment)
        entry["segment_bytes"] = len(segment)
        total_bytes += len(segment)
        operators[str(provenance.oid)] = entry

    rows_segment = wf.encode_segment(wf.SEGMENT_ROWS, part.rows)
    (part_dir / ROWS_SEGMENT).write_bytes(rows_segment)
    return operators, len(rows_segment), total_bytes + len(rows_segment)


def write_run(
    run_dir: FsPath,
    part: EncodedPart,
    sink_oid: int,
    run_id: str,
    name: str,
    created: float,
    sub_shard_span: int = DEFAULT_SUB_SHARD_SPAN,
) -> dict[str, Any]:
    """Write one part as a whole batch run under *run_dir*; returns the
    manifest, also persisted as ``run_dir/manifest.json``."""
    operators, rows_bytes, total_bytes = write_part(run_dir, part, sub_shard_span)
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
    write_manifest(run_dir, manifest)
    return manifest
