"""Segment writer: spill one captured execution into warehouse segments.

Each operator's provenance becomes one segment file under the run's ``ops/``
directory; for read operators the segment additionally carries the
``id -> input item`` block *after* the operator record, at an offset noted
in the footer index, so a lazy reader can decode the operator (needed for
topological backtracing) without touching the usually much larger item
block.  The provenance-annotated result rows go into ``rows.seg``.

The footer index (``manifest.json``) maps every operator id to its segment,
byte offsets, record counts, and the Fig. 8 size split -- everything
``size_report()`` and ``is_source()`` need is answerable from the index
alone, with zero segment decodes.

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
from typing import Any

from repro.core.operator_provenance import ReadAssociations
from repro.core.store import ProvenanceStore
from repro.engine.executor import ExecutionResult
from repro.errors import ProvenanceError
import repro.warehouse.format as wf

__all__ = [
    "MANIFEST_NAME",
    "OPS_DIR",
    "ROWS_SEGMENT",
    "DEFAULT_SUB_SHARD_SPAN",
    "write_manifest",
    "write_part",
    "write_run",
]

MANIFEST_NAME = "manifest.json"
OPS_DIR = "ops"
ROWS_SEGMENT = "rows.seg"

#: Operators per ``ops/range-NNNN/`` directory; runs at or below the span
#: keep the flat layout.
DEFAULT_SUB_SHARD_SPAN = 256

#: Bytes of the segment preamble (magic + version + kind).
_PREAMBLE = len(wf.MAGIC) + 2 + 1


def _operator_segment(
    store: ProvenanceStore, provenance: Any
) -> tuple[bytes, dict[str, Any]]:
    """Encode one operator segment; returns ``(bytes, index entry)``."""
    record = wf.encode_operator(provenance)
    is_source = isinstance(provenance.associations, ReadAssociations)
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
    if is_source:
        items_block = wf.encode_source_items(
            store.source_name(provenance.oid), store.source_items(provenance.oid)
        )
        entry["source_name"] = store.source_name(provenance.oid)
        entry["items_offset"] = _PREAMBLE + len(record)
        entry["items_length"] = len(items_block)
        entry["item_count"] = len(store.source_items(provenance.oid))
        payload = record + items_block
    return wf.encode_segment(wf.SEGMENT_OPERATOR, payload), entry


def write_manifest(run_dir: FsPath, manifest: dict[str, Any]) -> None:
    """Persist ``manifest.json`` atomically (write-then-rename).

    Segments are always written *before* the manifest referencing them, so
    a reader holding a previously loaded manifest keeps resolving every
    segment it can see -- the admission-time snapshot costs nothing.
    """
    run_dir = FsPath(run_dir)
    tmp = run_dir / (MANIFEST_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle, indent=2)
    tmp.replace(run_dir / MANIFEST_NAME)


def write_part(
    part_dir: FsPath, execution: ExecutionResult, sub_shard_span: int
) -> tuple[dict[str, Any], int, int, int]:
    """Write one part -- operator segments plus ``rows.seg`` -- into *part_dir*.

    A batch run is one part (its run directory), a live run one per
    micro-batch.  Returns ``(operator index entries, row count, rows segment
    bytes, total bytes)``.  More than *sub_shard_span* operators split
    across ``ops/range-NNNN/`` directories (span operators per range).
    """
    store = execution.store
    if store is None:
        raise ProvenanceError("only capture-enabled executions can be recorded")
    if sub_shard_span < 1:
        raise ProvenanceError(f"sub_shard_span must be >= 1, got {sub_shard_span}")
    part_dir = FsPath(part_dir)
    ops_dir = part_dir / OPS_DIR
    ops_dir.mkdir(parents=True, exist_ok=False)

    provenances = list(store.operators())
    sub_sharded = len(provenances) > sub_shard_span

    total_bytes = 0
    operators: dict[str, Any] = {}
    for provenance in provenances:
        segment, entry = _operator_segment(store, provenance)
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

    rows = execution.rows()
    rows_segment = wf.encode_segment(wf.SEGMENT_ROWS, wf.encode_rows(rows))
    (part_dir / ROWS_SEGMENT).write_bytes(rows_segment)
    return operators, len(rows), len(rows_segment), total_bytes + len(rows_segment)


def write_run(
    run_dir: FsPath,
    execution: ExecutionResult,
    run_id: str,
    name: str,
    created: float,
    sub_shard_span: int = DEFAULT_SUB_SHARD_SPAN,
) -> dict[str, Any]:
    """Write one captured execution under *run_dir*; returns the manifest.

    The manifest is also persisted as ``run_dir/manifest.json``.  Raises
    :class:`ProvenanceError` for capture-disabled executions.
    """
    operators, row_count, rows_bytes, total_bytes = write_part(
        run_dir, execution, sub_shard_span
    )
    manifest = {
        "format": wf.FORMAT_VERSION,
        "run_id": run_id,
        "name": name,
        "created": created,
        "sink_oid": execution.root.oid,
        "rows": {
            "segment": ROWS_SEGMENT,
            "count": row_count,
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
