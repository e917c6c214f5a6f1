"""Segment writer: spill one captured execution into one part file.

A part -- a whole batch run, or one micro-batch of a live run -- is one
file, ``part.seg``, written front to back in one pass: each operator's
segment, then the rows segment, then (given an index accumulator) the index
segment.  A read operator's segment carries its ``id -> input item`` block
*after* the operator record, at an offset noted in the footer, so a lazy
reader can decode the operator (needed for topological backtracing) without
touching the usually much larger item block.  The block keeps its id column
raw and its items in zlib frames of ``FRAME_ITEMS``
(:func:`~repro.warehouse.format.frame_source_items`, ``LAYOUT_VERSION`` 4);
a frame two read operators share (a self-join) is compressed once per part.

The part's query-side index (:mod:`repro.warehouse.index`) is fed in the
same pass, from what this module holds while it encodes -- each operator's
provenance object and each source item's string leaves (collected by the
encoder pass that produced its stored bytes, :func:`encode_part`) -- so
nothing written is read back.

The footer maps every operator id to its byte ranges in ``part.seg``,
record counts, and the Fig. 8 size split -- everything ``size_report()``
and ``is_source()`` need is answerable from the footer alone, with zero
segment decodes -- and locates the rows and index segments.  A batch run
keeps it in ``manifest.json``; an epoch of a live run keeps its own in
``part.json`` beside its ``part.seg`` (:func:`write_part_footer`), so
appending a micro-batch never rewrites an earlier epoch's footer.
"""

from __future__ import annotations

import json
from pathlib import Path as FsPath
from typing import TYPE_CHECKING, Any, Iterable, NamedTuple

from repro.core.operator_provenance import OperatorProvenance, ReadAssociations
from repro.engine.executor import ExecutionResult
from repro.errors import ProvenanceError
import repro.warehouse.format as wf

if TYPE_CHECKING:  # the index module sits above this one and imports it
    from repro.warehouse.index import _Accumulator

__all__ = [
    "MANIFEST_NAME",
    "PART_NAME",
    "PART_SEGMENT",
    "EncodedPart",
    "encode_part",
    "write_manifest",
    "write_part",
    "write_part_footer",
    "write_run",
]

MANIFEST_NAME = "manifest.json"
#: Footer of one epoch part (operator entries, rows and index locations).
PART_NAME = "part.json"
#: The one file a part's segments live in.
PART_SEGMENT = "part.seg"

#: A read operator's items as the writer holds them: ``(source name, sorted
#: (item id, stored JSON bytes) payloads, each payload's string leaves)``.
Source = tuple[str, list[tuple[int, bytes]], Iterable[Iterable[str]]]


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
    that several read operators hold (a self-join) is encoded once, and the
    pass that encodes it also collects its string leaves for the index."""
    store = execution.store
    if store is None:
        raise ProvenanceError("only capture-enabled executions can be recorded")
    # id(item) -> (bytes, leaves); ``store`` keeps the items alive.
    encoded: dict[int, tuple[bytes, list[str]]] = {}
    operators: list[tuple[OperatorProvenance, Source | None]] = []
    for provenance in store.operators():
        source = None
        if isinstance(provenance.associations, ReadAssociations):
            payloads, leaves = [], []
            for item_id, item in sorted(store.source_items(provenance.oid).items()):
                pair = encoded.get(id(item))
                if pair is None:
                    pair = encoded[id(item)] = wf._item_json_and_leaves(item)
                payloads.append((item_id, pair[0]))
                leaves.append(pair[1])
            source = (store.source_name(provenance.oid), payloads, leaves)
        operators.append((provenance, source))
    rows = execution.rows()
    return EncodedPart(operators, len(rows), wf.encode_rows(rows))


def _operator_segment(
    provenance: OperatorProvenance,
    source: Source | None,
    index: "_Accumulator | None",
    start: int,
    frames: dict[tuple[int, ...], bytes],
) -> tuple[list[bytes], dict[str, Any]]:
    """Encode one operator segment that starts *start* bytes into the part
    file, feeding *index* the operator and each source item as its block is
    framed; returns ``(the segment's bytes as the pieces to write in order,
    footer entry)``.  Footer offsets are absolute in the part file;
    *frames* is the part's memo of compressed item frames.
    """
    record = wf.encode_operator(provenance)
    pieces = [wf.encode_segment(wf.SEGMENT_OPERATOR, record)]
    entry: dict[str, Any] = {
        "segment": PART_SEGMENT,
        "offset": start + wf.PREAMBLE,
        "record_length": len(record),
        "op_type": provenance.op_type,
        "label": provenance.label,
        "kind": provenance.associations.kind,
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
        name, payloads, leaves = source
        block = wf.frame_source_items(name, payloads, frames)
        pieces += block
        entry["source_name"], entry["item_count"] = name, len(payloads)
        entry["items_offset"] = start + wf.PREAMBLE + len(record)
        entry["items_length"] = sum(map(len, block))
        if index is not None:
            for (item_id, _), item_leaves in zip(payloads, leaves):
                index.add_item(provenance.oid, item_id, item_leaves)
    entry["segment_bytes"] = sum(map(len, pieces))
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


def write_part_footer(part_dir: FsPath, footer: dict[str, Any]) -> None:
    """Persist an epoch part's own footer, ``part.json`` (what
    :func:`write_part` returns, stamped with the layout).  Written once,
    before the manifest line that makes the epoch visible, and never
    rewritten."""
    footer = dict(footer, format=wf.LAYOUT_VERSION)
    (FsPath(part_dir) / PART_NAME).write_text(json.dumps(footer), encoding="utf-8")


def write_part(
    part_dir: FsPath, part: EncodedPart, index: "_Accumulator | None" = None
) -> tuple[dict[str, Any], int]:
    """Write one part as *part_dir*/``part.seg``: the operator segments, the
    rows segment and, given an *index* accumulator
    (``RunIndex.accumulator()``), the index segment, each as it is encoded.

    A batch run is one part (its run directory), a live run one per
    micro-batch.  Returns ``(footer, size of part.seg)``; the footer holds
    the ``operators`` entries and the ``rows`` and ``index`` (``None``
    when unindexed) locations.  The index is fed as each segment is
    encoded, from what this function holds: nothing written is read back.
    """
    part_dir = FsPath(part_dir)
    part_dir.mkdir(parents=True, exist_ok=True)
    operators: dict[str, Any] = {}
    frames: dict[tuple[int, ...], bytes] = {}
    position = 0
    with open(part_dir / PART_SEGMENT, "wb") as handle:
        for provenance, source in part.operators:
            pieces, entry = _operator_segment(provenance, source, index, position, frames)
            handle.writelines(pieces)
            position += entry["segment_bytes"]
            operators[str(provenance.oid)] = entry
        rows_segment = wf.encode_segment(wf.SEGMENT_ROWS, part.rows)
        handle.write(rows_segment)
        rows = {"segment": PART_SEGMENT, "offset": position, "segment_bytes": len(rows_segment)}
        position += len(rows_segment)
        index_entry = None
        if index is not None:
            built = index.finish()
            encoded = built.encode()
            handle.write(encoded)
            index_entry = built.entry(PART_SEGMENT, position, len(encoded))
            position += len(encoded)
    return {"operators": operators, "rows": rows, "index": index_entry}, position


def write_run(
    run_dir: FsPath,
    part: EncodedPart,
    sink_oid: int,
    run_id: str,
    name: str,
    created: float,
    index: "_Accumulator | None" = None,
) -> dict[str, Any]:
    """Write one part as a whole batch run under *run_dir*; returns the
    manifest -- with the ``"index"`` entry when *index* is given -- persisted
    once, after ``part.seg``, as ``run_dir/manifest.json``."""
    footer, total_bytes = write_part(run_dir, part, index)
    manifest = {
        "format": wf.LAYOUT_VERSION,
        "run_id": run_id,
        "name": name,
        "created": created,
        "sink_oid": sink_oid,
        "rows": dict(footer["rows"], count=part.row_count),
        "operators": footer["operators"],
        "total_bytes": total_bytes,
    }
    if footer["index"] is not None:
        manifest["index"] = footer["index"]
    write_manifest(run_dir, manifest)
    return manifest
