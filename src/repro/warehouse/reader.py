"""Lazy reader: serve backtrace queries from segments without a full load.

:class:`LazyProvenanceStore` satisfies the
:class:`~repro.core.store.ProvenanceStoreProtocol`, so the backtracing
algorithm runs over it unchanged -- but operators decode on demand from
their segment files, an LRU cache bounds resident provenance, and the
footer index answers ``is_source``/``source_name``/``size_report`` with
zero decodes.  Source-item blocks are read separately from operator
records: backtracing walks every reachable operator's record (it needs the
predecessor references and associations), while item blocks are only read
for sources that actually end up with provenance entries -- and of such a
block only the items an answer lists are ever parsed
(:class:`~repro.warehouse.format.SourceItemBlock`).

Cache hits and misses feed a
:class:`~repro.engine.metrics.SegmentCacheMetrics`, making "how much of the
run did this query touch?" an observable rather than a hope.

The store is **thread safe**: one re-entrant lock guards the LRU maps and
the decode path, so concurrent backtraces (the ``repro.serve`` query service
shares one resident store per run across request threads) see a consistent
cache and deterministic hit/miss accounting -- each segment decodes exactly
once, never twice under a racing double-miss.  Segment file handles are
opened per read (open/seek/read/close), so no file-position state is shared
between threads.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from contextlib import contextmanager
from pathlib import Path as FsPath
from typing import Any, Iterable, Iterator

from repro.core.operator_provenance import OperatorProvenance
from repro.core.store import ProvenanceSizeReport
from repro.core.treepattern.matcher import (
    PatternMatch,
    match_rows,
    prefilter_encoded_rows,
)
from repro.core.treepattern.pattern import TreePattern
from repro.engine.metrics import SegmentCacheMetrics
from repro.engine.plan import PlanNode
from repro.errors import BacktraceError, ProvenanceError
from repro.nested.values import DataItem
from repro.obs.breakdown import get_breakdown
from repro.obs.tracer import get_tracer
import repro.warehouse.format as wf
from repro.warehouse.writer import MANIFEST_NAME, OPS_DIR

__all__ = [
    "LazyProvenanceStore",
    "RestoredPlanNode",
    "load_manifest",
    "match_encoded_rows",
    "read_encoded_rows",
]

#: Default number of decoded operator segments kept resident.
DEFAULT_CACHE_SIZE = 64


class RestoredPlanNode(PlanNode):
    """Placeholder plan root carrying only the sink's operator id.

    A restored execution supports querying, not re-running; the original
    program is the source of truth for the plan itself.
    """

    op_type = "restored"

    def __init__(self, oid: int):
        super().__init__(oid, ())


def load_manifest(run_dir: FsPath) -> dict[str, Any]:
    """Read and validate a run's footer index."""
    path = FsPath(run_dir) / MANIFEST_NAME
    if not path.exists():
        raise ProvenanceError(f"no run manifest at {path}")
    with open(path, "r", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if manifest.get("format") != wf.FORMAT_VERSION:
        raise ProvenanceError(
            f"unsupported run manifest format: {manifest.get('format')!r}"
        )
    return manifest


def read_encoded_rows(
    run_dir: FsPath,
    manifest: dict[str, Any],
    metrics: SegmentCacheMetrics | None = None,
) -> Iterator[tuple[int | None, bytes]]:
    """Read the result rows segment of a run; yields ``(pid, raw JSON)``."""
    with get_tracer().span("segment-read rows", "warehouse") as span:
        buffer = (FsPath(run_dir) / manifest["rows"]["segment"]).read_bytes()
        if metrics is not None:
            metrics.add(bytes_read=len(buffer))
        span.set(bytes=len(buffer))
    return wf.iter_encoded_rows(wf.open_segment(buffer, wf.SEGMENT_ROWS))


def match_encoded_rows(
    pattern: TreePattern, rows: Iterable[tuple[int | None, bytes]]
) -> tuple[list[PatternMatch], int]:
    """Tree-pattern match over a stored run's ``(pid, raw JSON)`` rows.

    Rows whose bytes lack one of the pattern's required string constants
    cannot match and are never parsed; the survivors are materialised and
    matched exactly like in-memory rows.  Returns the matches (in row order)
    and how many rows were parsed.
    """
    breakdown = get_breakdown()
    with get_tracer().span("pattern-match", "query", pattern=pattern.render()) as span:
        with breakdown.phase("segment_decode"):
            survivors = wf.materialise_rows(prefilter_encoded_rows(pattern, rows))
        with breakdown.phase("pattern_match"):
            matches = match_rows(pattern, survivors)
        span.set(matched=len(matches), rows_decoded=len(survivors))
    return matches, len(survivors)


@contextmanager
def count_items_decoded(
    metrics: SegmentCacheMetrics, block: wf.SourceItemBlock
) -> Iterator[None]:
    """Book the item parses of the body under ``segment_decode`` and add
    them to ``metrics.items_decoded``."""
    before = block.decoded
    with get_breakdown().phase("segment_decode"):
        yield
    if block.decoded != before:
        metrics.add(items_decoded=block.decoded - before)


class LazyProvenanceStore:
    """An on-disk provenance store decoding operator segments on demand."""

    def __init__(
        self,
        run_dir: FsPath,
        manifest: dict[str, Any] | None = None,
        cache_size: int = DEFAULT_CACHE_SIZE,
        metrics: SegmentCacheMetrics | None = None,
    ):
        if cache_size < 1:
            raise ProvenanceError(f"segment cache needs capacity >= 1, got {cache_size}")
        self._run_dir = FsPath(run_dir)
        self._manifest = manifest if manifest is not None else load_manifest(run_dir)
        #: oid -> footer index entry (segment, offsets, counts, sizes).
        self._index: dict[int, dict[str, Any]] = {
            int(oid): entry for oid, entry in self._manifest["operators"].items()
        }
        self._cache_size = cache_size
        self._operators: OrderedDict[int, OperatorProvenance] = OrderedDict()
        self._source_items: OrderedDict[int, wf.SourceItemBlock] = OrderedDict()
        self.metrics = metrics if metrics is not None else SegmentCacheMetrics()
        #: Guards the two LRU maps and the decode path.
        self._lock = threading.RLock()

    # -- index-only lookups (zero decodes) -----------------------------------

    def has(self, oid: int) -> bool:
        return oid in self._index

    def is_source(self, oid: int) -> bool:
        """Answer from the footer index; no segment decode."""
        return self._entry(oid)["kind"] == "read"

    def source_name(self, oid: int) -> str:
        entry = self._index.get(oid)
        if entry is None or "source_name" not in entry:
            return f"source-{oid}"
        return entry["source_name"]

    def size_report(self) -> ProvenanceSizeReport:
        """Fig. 8 accounting straight from the footer index."""
        lineage = 0
        structural = 0
        records = 0
        per_operator: dict[int, tuple[str, int, int]] = {}
        for oid, entry in self._index.items():
            lineage += entry["lineage_bytes"]
            structural += entry["structural_bytes"]
            records += entry["records"]
            per_operator[oid] = (
                entry["op_type"],
                entry["lineage_bytes"],
                entry["structural_bytes"],
            )
        return ProvenanceSizeReport(lineage, structural, records, per_operator)

    @property
    def sink_oid(self) -> int:
        return self._manifest["sink_oid"]

    @property
    def run_id(self) -> str:
        return self._manifest["run_id"]

    @property
    def run_dir_path(self) -> FsPath:
        return self._run_dir

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
            oid: tuple(entry.get("predecessors", ()))
            for oid, entry in self._index.items()
        }

    def _entry(self, oid: int) -> dict[str, Any]:
        entry = self._index.get(oid)
        if entry is None:
            raise BacktraceError(f"no captured provenance for operator {oid}")
        return entry

    # -- lazy decoding --------------------------------------------------------

    def _read_range(self, entry: dict[str, Any], offset_key: str, length_key: str) -> bytes:
        path = self._run_dir / OPS_DIR / entry["segment"]
        with open(path, "rb") as handle:
            handle.seek(entry[offset_key])
            raw = handle.read(entry[length_key])
        self.metrics.add(bytes_read=len(raw))
        return raw

    def get(self, oid: int) -> OperatorProvenance:
        """Return operator *oid*, decoding its segment on a cache miss.

        Decoding happens under the store lock: concurrent readers of a cold
        operator serialise on the decode instead of duplicating it, which
        keeps the miss counter equal to the number of unique segments read.
        """
        with self._lock:
            cached = self._operators.get(oid)
            if cached is not None:
                self.metrics.add(hits=1)
                self._operators.move_to_end(oid)
                return cached
            entry = self._entry(oid)
            self.metrics.add(misses=1)
            with get_tracer().span(
                f"segment-read op-{oid}",
                "warehouse",
                segment=entry["segment"],
                op_type=entry["op_type"],
                bytes=entry["record_length"],
            ), get_breakdown().phase("segment_decode"):
                raw = self._read_range(entry, "offset", "record_length")
                provenance = wf.decode_operator(wf.Cursor(raw))
            self._operators[oid] = provenance
            if len(self._operators) > self._cache_size:
                self._operators.popitem(last=False)
                self.metrics.add(evictions=1)
            return provenance

    def _source_block(self, oid: int) -> wf.SourceItemBlock:
        """Read operator *oid*'s item block, read and header-hopped on a miss.

        Call with the store lock held.
        """
        cached = self._source_items.get(oid)
        if cached is not None:
            self.metrics.add(item_hits=1)
            self._source_items.move_to_end(oid)
            return cached
        entry = self._entry(oid)
        if "items_offset" not in entry:
            raise BacktraceError(f"operator {oid} is not a read operator")
        self.metrics.add(item_misses=1)
        with get_tracer().span(
            f"segment-read items op-{oid}",
            "warehouse",
            segment=entry["segment"],
            bytes=entry["items_length"],
        ), get_breakdown().phase("segment_decode"):
            raw = self._read_range(entry, "items_offset", "items_length")
            block = wf.open_source_items(raw)
        self._source_items[oid] = block
        if len(self._source_items) > self._cache_size:
            self._source_items.popitem(last=False)
            self.metrics.add(evictions=1)
        return block

    def source_items(self, oid: int) -> dict[int, DataItem]:
        """Return a read operator's whole ``id -> item`` block."""
        with self._lock:
            block = self._source_block(oid)
            with count_items_decoded(self.metrics, block):
                return block.all()

    def source_item(self, oid: int, item_id: int) -> DataItem:
        """One input item; of its block, only this item's JSON is parsed."""
        with self._lock:
            block = self._source_block(oid)
            if item_id not in block:
                raise BacktraceError(f"source {oid} has no item with id {item_id}")
            with count_items_decoded(self.metrics, block):
                return block.get(item_id)

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
            f"{len(self._index)} operators, {len(self._operators)} resident)"
        )
