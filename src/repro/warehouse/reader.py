"""Lazy reader: serve backtrace queries from segments without a full load.

A stored run is a list of **parts** (:func:`run_parts`): a batch run is one
part, an epoch-layout run (live or sealed-uncompacted) one part per visible
micro-batch.  Everything that reads works over parts, and every segment
read is one :func:`read_range` -- open the file a footer entry names, seek,
read::

    runs/<run_id>/                  a batch run: one part
      part.seg                      operator segments | rows | index
      manifest.json                 its footer (+ run fields)
      metrics.json
    runs/<run_id>/batches/epoch-NNNN/   one part per micro-batch
      part.seg
      part.json                     its footer

Runs written in layout 2 (a file per segment: ``ops/op-<oid>.seg``,
``ops/range-NNNN/`` sub-shards, ``rows.seg``, ``index.seg``) still read:
:func:`run_parts` hands their footers out in one-file form.  Each part
carries its layout, which says how its source-item blocks are encoded:
framed from layout 4, raw JSON in layouts 2 and 3.

:class:`LazyProvenanceStore` satisfies the
:class:`~repro.core.store.ProvenanceStoreProtocol`, so the backtracing
algorithm runs over it unchanged -- but operators decode on demand from
their segment files, an LRU cache bounds resident provenance, and the
footer index answers ``is_source``/``source_name``/``size_report`` with
zero decodes.  Source-item blocks are read separately from operator
records: backtracing walks every reachable operator's record (it needs the
predecessor references and associations), while item blocks are only read
for sources that actually end up with provenance entries -- and of such a
block only the frames holding the items an answer lists are ever inflated,
and only those items parsed
(:class:`~repro.warehouse.format.SourceItemBlock`).

:class:`StoredRun` -- what ``Warehouse.load`` returns -- is the one object
every query over a stored run goes through: the store plus the run's result
rows, kept encoded until a question needs them.

Cache hits and misses feed a
:class:`~repro.engine.metrics.SegmentCacheMetrics`, making "how much of the
run did this query touch?" an observable rather than a hope (a miss is one
operator decode, however many parts its record is spread over).

The store is **thread safe**: one re-entrant lock guards the LRU maps and
the decode path, so concurrent backtraces (the ``repro.serve`` query service
shares one resident store per run across request threads) see a consistent
cache and deterministic hit/miss accounting -- each segment decodes exactly
once, never twice under a racing double-miss.  Segment file handles are
opened per read (open/seek/read/close), so no file-position state is shared
between threads.
"""

from __future__ import annotations

import itertools
import json
import threading
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path as FsPath
from typing import Any, Iterable, Iterator, NamedTuple

from repro.core.backtrace.result import ProvenanceResult
from repro.core.operator_provenance import (
    Associations,
    InputRef,
    OperatorProvenance,
    ReadAssociations,
)
from repro.core.store import ProvenanceSizeReport
from repro.core.treepattern.matcher import (
    PatternMatch,
    match_rows,
    prefilter_encoded_rows,
)
from repro.core.treepattern.pattern import TreePattern
from repro.engine.metrics import SegmentCacheMetrics
from repro.errors import BacktraceError, ProvenanceError
from repro.nested.json_io import item_from_json
from repro.nested.schema import Schema
from repro.nested.types import unify
from repro.nested.values import DataItem
from repro.obs.tracer import count, span
from repro.pebble.query import as_pattern, trace_matches
import repro.warehouse.format as wf
from repro.warehouse.writer import MANIFEST_NAME, PART_NAME

__all__ = [
    "LazyProvenanceStore",
    "RunPart",
    "StoredRun",
    "load_manifest",
    "read_range",
    "run_parts",
]

#: Default number of decoded operator segments kept resident.
DEFAULT_CACHE_SIZE = 64


def load_manifest(run_dir: FsPath) -> dict[str, Any]:
    """Read and validate a run's footer index."""
    path = FsPath(run_dir) / MANIFEST_NAME
    if not path.exists():
        raise ProvenanceError(f"no run manifest at {path}")
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("format") not in (2, 3, wf.LAYOUT_VERSION):
        raise ProvenanceError(
            f"unsupported run manifest format: {manifest.get('format')!r}"
        )
    return manifest


class RunPart(NamedTuple):
    """One independently written slice of a stored run."""

    #: Where the part's files live.
    directory: FsPath
    #: Footer entries of the part: oid text -> segment/offsets/counts/sizes.
    operators: dict[str, Any]
    #: Location of the part's rows segment.
    rows: dict[str, Any]
    #: Location of the part's index segment, or ``None`` (unindexed).
    index: dict[str, Any] | None
    #: The run layout that wrote the part (how its item blocks are encoded).
    layout: int


def _part(directory: FsPath, footer: dict[str, Any]) -> RunPart:
    """A part from its own footer.  A layout-2 footer (no ``"format"`` on
    an epoch's, 2 on a batch manifest) is read in one-file form, copied:
    each segment was its own file, so an operator's lives at
    ``ops/<segment>`` (``range-NNNN/`` sub-shards included), the rows at
    offset 0 of ``rows.seg`` to its end, the index at offset 0 of
    ``index.seg``."""
    layout = footer.get("format", 2)
    if layout >= 3:
        return RunPart(
            directory, footer["operators"], footer["rows"], footer.get("index"), layout
        )
    index = footer.get("index")
    return RunPart(
        directory,
        {
            oid: dict(entry, segment=f"ops/{entry['segment']}")
            for oid, entry in footer["operators"].items()
        },
        {"segment": "rows.seg", "offset": 0, "segment_bytes": -1},
        dict(index, offset=0) if index else None,
        layout,
    )


def run_parts(
    run_dir: FsPath, manifest: dict[str, Any], max_epoch: int | None = None
) -> list[RunPart]:
    """Locate a stored run's segments: the one place both manifest shapes
    and both layouts meet.

    A batch manifest is one part (the run directory itself); an epoch
    manifest yields one part per visible epoch -- unexpired and, with
    *max_epoch*, admitted at or before it -- in epoch order.  An epoch's
    footer is its own immutable ``part.json``; an entry that carries
    ``operators`` inline (written by <= 2.3) is taken as it is.  Each
    part's layout comes from its own footer, so a layout-2 live head that
    keeps growing mixes both.  The list is a snapshot: epochs appended
    afterwards stay invisible to its holder.
    """
    run_dir = FsPath(run_dir)
    epochs = manifest.get("epochs")
    if epochs is None:
        return [_part(run_dir, manifest)]
    parts = []
    for entry in epochs:
        if entry.get("expired") or (max_epoch is not None and entry["epoch"] > max_epoch):
            continue
        directory = run_dir / entry["dir"]
        footer = entry
        if "operators" not in entry:
            footer = json.loads((directory / PART_NAME).read_bytes())
        parts.append(_part(directory, footer))
    return parts


def read_range(
    directory: FsPath,
    entry: dict[str, Any],
    offset_key: str = "offset",
    length_key: str = "segment_bytes",
) -> bytes:
    """The one segment read: open the file *entry* names under *directory*,
    seek to ``entry[offset_key]``, read ``entry[length_key]`` bytes (-1: to
    the end)."""
    with open(directory / entry["segment"], "rb") as handle:
        handle.seek(entry[offset_key])
        return handle.read(entry[length_key])


@contextmanager
def count_items_decoded(
    metrics: SegmentCacheMetrics, block: wf.SourceItemBlock
) -> Iterator[None]:
    """Book the item parses of the body under ``segment_decode`` and add
    them to ``metrics.items_decoded``."""
    before = block.decoded
    with span("item-decode", "segment_decode"):
        yield
    if block.decoded != before:
        metrics.add(items_decoded=block.decoded - before)


def _merge_associations(parts: list[Associations]) -> Associations:
    """Concatenate association bags of one operator across parts, in order."""
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
    """Merge the ``I`` entries of one operator across parts.

    Predecessors and accessed paths are static plan metadata (identical in
    every part); the input *schema* snapshot is not -- it is sampled from
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
            # Equal snapshots decode to one object (the schema memo); most are.
            if other is not schema and other.struct != schema.struct:
                schema = Schema(unify(schema.struct, other.struct))
        merged.append(InputRef(entry.predecessor, entry.accessed, schema))
    return merged


class LazyProvenanceStore:
    """A stored run's provenance, decoding operator segments on demand.

    An operator spread over several parts (:func:`run_parts`) decodes as
    the concatenation of its per-part associations in part order; ``M``
    comes from the first part (static plan metadata), the input schema
    snapshots of ``I`` are unified (:func:`_merge_inputs`).  *max_epoch*
    pins the view to the epochs a mid-ingest query was admitted with.
    """

    def __init__(
        self,
        run_dir: FsPath,
        manifest: dict[str, Any] | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        metrics: SegmentCacheMetrics | None = None,
        max_epoch: int | None = None,
    ):
        if cache_size < 1:
            raise ProvenanceError(f"segment cache needs capacity >= 1, got {cache_size}")
        self._manifest = manifest if manifest is not None else load_manifest(run_dir)
        self._parts = run_parts(run_dir, self._manifest, max_epoch)
        #: oid -> [(part, footer index entry)] in part order.
        self._index: dict[int, list[tuple[RunPart, dict[str, Any]]]] = {}
        for part in self._parts:
            for oid, entry in part.operators.items():
                self._index.setdefault(int(oid), []).append((part, entry))
        #: Only retention takes ids away from under a later reference.
        self._decays = any(
            entry.get("expired") for entry in self._manifest.get("epochs", ())
        )
        self._cache_size = cache_size
        self._operators: OrderedDict[int, OperatorProvenance] = OrderedDict()
        self._source_items: OrderedDict[int, list[wf.SourceItemBlock]] = OrderedDict()
        self.metrics = metrics if metrics is not None else SegmentCacheMetrics()
        #: Guards the two LRU maps and the decode path.
        self._lock = threading.RLock()

    # -- index-only lookups (zero decodes) -----------------------------------

    def has(self, oid: int) -> bool:
        return oid in self._index

    def is_source(self, oid: int) -> bool:
        """Answer from the footer index; no segment decode."""
        return self._entries(oid)[0][1]["kind"] == "read"

    def source_name(self, oid: int) -> str:
        entries = self._index.get(oid)
        if entries is None or "source_name" not in entries[0][1]:
            return f"source-{oid}"
        return entries[0][1]["source_name"]

    def size_report(self) -> ProvenanceSizeReport:
        """Fig. 8 accounting straight from the footer index."""
        lineage = 0
        structural = 0
        records = 0
        per_operator: dict[int, tuple[str, int, int]] = {}
        for oid, entries in self._index.items():
            op_lineage = sum(entry["lineage_bytes"] for _, entry in entries)
            op_structural = sum(entry["structural_bytes"] for _, entry in entries)
            records += sum(entry["records"] for _, entry in entries)
            lineage += op_lineage
            structural += op_structural
            per_operator[oid] = (entries[0][1]["op_type"], op_lineage, op_structural)
        return ProvenanceSizeReport(lineage, structural, records, per_operator)

    @property
    def sink_oid(self) -> int:
        return self._manifest["sink_oid"]

    @property
    def run_id(self) -> str:
        return self._manifest["run_id"]

    @property
    def manifest(self) -> dict[str, Any]:
        """The footer index (shared, not copied -- treat as read-only)."""
        return self._manifest

    def footer_topology(self) -> dict[int, tuple[int, ...]]:
        """``oid -> predecessor oids`` for every operator, with zero decodes.

        The forward tracer orders its walk from this map alone; only the
        operators its frontier actually reaches ever decode.
        """
        return {
            oid: tuple(entries[0][1].get("predecessors", ()))
            for oid, entries in self._index.items()
        }

    def _entries(self, oid: int) -> list[tuple[RunPart, dict[str, Any]]]:
        entries = self._index.get(oid)
        if entries is None:
            raise BacktraceError(f"no captured provenance for operator {oid}")
        return entries

    # -- lazy decoding --------------------------------------------------------

    def encoded_rows(self) -> Iterator[tuple[int | None, bytes]]:
        """The run's result rows, part after part, as ``(pid, raw JSON)``.

        The segments are read before this returns; only the row hop is lazy.
        """
        with span("segment-read rows", "warehouse") as handle:
            buffers = [read_range(part.directory, part.rows) for part in self._parts]
            read = sum(map(len, buffers))
            self.metrics.add(bytes_read=read)
            handle.set(bytes=read)
        cursors = [wf.open_segment(buffer, wf.SEGMENT_ROWS) for buffer in buffers]
        return itertools.chain.from_iterable(map(wf.iter_encoded_rows, cursors))

    def _read_range(
        self, directory: FsPath, entry: dict[str, Any], offset_key: str, length_key: str
    ) -> bytes:
        raw = read_range(directory, entry, offset_key, length_key)
        self.metrics.add(bytes_read=len(raw))
        return raw

    def get(self, oid: int) -> OperatorProvenance:
        """Return operator *oid*, decoding its segment(s) on a cache miss.

        Decoding happens under the store lock: concurrent readers of a cold
        operator serialise on the decode instead of duplicating it, which
        keeps the miss counter equal to the number of unique operators read.
        """
        with self._lock:
            cached = self._operators.get(oid)
            if cached is not None:
                self.metrics.add(hits=1)
                self._operators.move_to_end(oid)
                return cached
            entries = self._entries(oid)
            first = entries[0][1]
            self.metrics.add(misses=1)
            with span(
                f"segment-read op-{oid}",
                "segment_decode",
                segment=first["segment"],
                op_type=first["op_type"],
                bytes=sum(entry["record_length"] for _, entry in entries),
            ):
                decoded = [
                    wf.decode_operator(
                        wf.Cursor(
                            self._read_range(part.directory, entry, "offset", "record_length")
                        )
                    )
                    for part, entry in entries
                ]
                provenance = decoded[0]
                if len(decoded) > 1:
                    provenance = OperatorProvenance(
                        provenance.oid,
                        provenance.op_type,
                        _merge_inputs(decoded),
                        provenance.manipulations,
                        _merge_associations([part.associations for part in decoded]),
                        label=provenance.label,
                    )
            self._operators[oid] = provenance
            if len(self._operators) > self._cache_size:
                self._operators.popitem(last=False)
                self.metrics.add(evictions=1)
            return provenance

    def _source_blocks(self, oid: int) -> list[wf.SourceItemBlock]:
        """Operator *oid*'s item block of every part, read and opened on a
        miss (its id column read; no frame inflated, no item JSON parsed).
        Call with the store lock held.
        """
        cached = self._source_items.get(oid)
        if cached is not None:
            self.metrics.add(item_hits=1)
            self._source_items.move_to_end(oid)
            return cached
        entries = self._entries(oid)
        if "items_offset" not in entries[0][1]:
            raise BacktraceError(f"operator {oid} is not a read operator")
        self.metrics.add(item_misses=1)
        with span(
            f"segment-read items op-{oid}",
            "segment_decode",
            segment=entries[0][1]["segment"],
            bytes=sum(entry["items_length"] for _, entry in entries),
        ):
            blocks = [
                wf.open_source_items(
                    self._read_range(part.directory, entry, "items_offset", "items_length"),
                    part.layout,
                )
                for part, entry in entries
            ]
        self._source_items[oid] = blocks
        if len(self._source_items) > self._cache_size:
            self._source_items.popitem(last=False)
            self.metrics.add(evictions=1)
        return blocks

    def source_items(self, oid: int) -> dict[int, DataItem]:
        """Return a read operator's whole ``id -> item`` mapping."""
        items: dict[int, DataItem] = {}
        with self._lock:
            for block in self._source_blocks(oid):
                with count_items_decoded(self.metrics, block):
                    items.update(block.all())
        return items

    def encoded_source_items(self, oid: int) -> list[tuple[int, bytes]]:
        """A read operator's ``(item id, raw JSON bytes)``, part after part;
        every frame is inflated, no item is parsed (compaction moves them as
        they are)."""
        with self._lock:
            return [pair for block in self._source_blocks(oid) for pair in block.encoded()]

    def source_ids(self, oid: int) -> list[int]:
        """A read operator's item ids, part after part, from the blocks' id
        columns; nothing is inflated or parsed."""
        with self._lock:
            return [item_id for block in self._source_blocks(oid) for item_id in block.ids()]

    def _block_of(self, oid: int, item_id: int) -> wf.SourceItemBlock:
        for block in self._source_blocks(oid):
            if item_id in block:
                return block
        raise BacktraceError(f"source {oid} has no item with id {item_id}")

    def source_item(self, oid: int, item_id: int) -> DataItem:
        """One input item; of its block, only this item's JSON is parsed."""
        with self._lock:
            block = self._block_of(oid, item_id)
            with count_items_decoded(self.metrics, block):
                return block.get(item_id)

    def peek_source_item(self, oid: int, item_id: int) -> DataItem:
        """:meth:`source_item` for callers that test the item and drop it
        (forward-trace candidates): a fresh parse is not kept on the block,
        so a resident store grows with its answers, not with every probe.
        (The item's frame is inflated and kept, like any other read.)"""
        with self._lock, span("item-decode", "segment_decode"):
            return self._block_of(oid, item_id).peek(item_id)

    def decayed_source_id(self, oid: int, item_id: int) -> bool:
        """True when *item_id* was erased out from under a later reference.

        Pids are append-only, so an id a downstream association still
        carries but no visible part of read *oid* holds can only have lived
        in an expired epoch (a window that closed after its oldest members'
        epoch was retained away).  A run with no expired epoch never decays:
        a missing id there stays a hard failure.  Answered from the blocks'
        id columns; no frame is inflated.
        """
        if not self._decays:
            return False
        with self._lock:
            return not any(item_id in block for block in self._source_blocks(oid))

    def operators(self) -> Iterator[OperatorProvenance]:
        """Iterate over every operator (decodes the whole run; avoid on hot
        paths -- exists for protocol parity and offline tooling)."""
        for oid in sorted(self._index):
            yield self.get(oid)

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return (
            f"LazyProvenanceStore({self._manifest['run_id']!r}, "
            f"{len(self._parts)} parts, {len(self._index)} operators, "
            f"{len(self._operators)} resident)"
        )


class StoredRun:
    """One stored run as every query over it sees it.

    Holds the run's :class:`LazyProvenanceStore` and its result rows, read
    once and kept encoded.  A row is parsed on its first touch and then
    kept -- the rule :meth:`~repro.warehouse.format.SourceItemBlock.get`
    applies to items and to the frames holding them -- under the store's
    lock, so concurrent queries parse a row once and ``rows_decoded``
    counts it once.  A one-shot query
    parses only the rows the pattern's string constants cannot rule out; a
    resident run answers every later question from the rows already parsed.
    """

    def __init__(self, store: LazyProvenanceStore):
        self.store = store
        self.run_id = store.run_id
        self._rows = list(store.encoded_rows())
        #: Row position -> parsed item, filled on first touch.
        self._parsed: dict[int, DataItem] = {}

    def _parse(self, positions: Iterable[int]) -> list[tuple[int | None, DataItem]]:
        """The rows at *positions*, parsing those not parsed yet."""
        rows, parsed = self._rows, self._parsed
        with span("row-decode", "segment_decode") as handle:
            positions = list(positions)
            fresh = [position for position in positions if position not in parsed]
            if fresh:
                with self.store._lock:
                    fresh = [position for position in fresh if position not in parsed]
                    for position in fresh:
                        parsed[position] = item_from_json(rows[position][1])
                    self.store.metrics.add(rows_decoded=len(fresh))
            handle.set(rows_decoded=len(fresh))
        count(rows_decoded=len(fresh))
        return [(rows[position][0], parsed[position]) for position in positions]

    def match(self, pattern: TreePattern | str) -> list[PatternMatch]:
        """Tree-pattern match over the run's rows, in row order.

        Rows whose bytes lack one of the pattern's required string constants
        cannot match and are never parsed; the survivors are matched exactly
        like in-memory rows.
        """
        pattern = as_pattern(pattern)
        with span("pattern-match", "pattern_match", pattern=pattern.render()) as handle:
            survivors = prefilter_encoded_rows(
                pattern, ((position, raw) for position, (_, raw) in enumerate(self._rows))
            )
            matches = match_rows(pattern, self._parse(position for position, _ in survivors))
            handle.set(matched=len(matches))
        count(rows_visited=len(self._rows), matched=len(matches))
        return matches

    def backtrace(self, pattern: TreePattern | str) -> ProvenanceResult:
        """Match *pattern* and backtrace the matches to the input datasets."""
        return trace_matches(self.store, self.store.sink_oid, self.match(pattern))

    def rows(self) -> list[tuple[int | None, DataItem]]:
        """Every result row as ``(pid, item)``, each parsed once."""
        return self._parse(range(len(self._rows)))
