"""Persisted warehouse indexes: the query-side acceleration structures.

Backtracing reads a run from the sink downwards, so the footer index
(``manifest.json``) is enough to make it sublinear: only reachable
operators decode.  The *forward* direction ("which outputs derive from
these input items?", the GDPR audit question) starts at the sources, and
without extra structure every operator segment and every source-item block
must be scanned.  This module persists, per part, one extra segment (kind
:data:`~repro.warehouse.format.SEGMENT_INDEX`) holding four sections:

``INPUTS``
    The inverted ``input id -> consuming operator oids`` map.  Identifiers
    are unique across a whole run (one executor counter), so the forward
    closure can jump from a frontier id straight to the operators that
    consume it and skip (never decode) everything else.

``TERMS``
    ``string leaf value -> sorted (source oid, item id) postings`` over the
    source items.  Every string leaf of length <= :data:`MAX_TERM_LEN` is
    indexed, which makes the index **complete** for such terms: a probe for
    an indexable term that has no postings proves zero candidates.  Probing
    a longer term must fall back to a scan.

``ITEMS``
    The number of source items indexed (one ``u64``).  Up to
    ``INDEX_VERSION`` 1 the section held each item record's byte range in
    its raw block; it had no reader, and framed blocks have no such ranges.
    A version-1 index still decodes: its ranges are counted and dropped.
    Candidates are parsed one at a time out of the store's block
    (``store.peek_source_item``).

``PATHS``
    The A/M records inverted: ``path -> accessing oids`` and ``path ->
    manipulating oids`` (the usage-analysis questions, answered with zero
    operator decodes).

The index is *derived* data with one accumulate / sort / encode path and
two feeders.  Recording feeds it in the pass that encodes the part, from
what the writer holds -- provenance objects and the string leaves the item
encoder collected (:func:`repro.warehouse.writer.write_part`) -- and writes
it as the last
segment of ``part.seg``, reading nothing back; ``repro index build``
backfill feeds it from a written part's segments (:meth:`RunIndex.build`)
and writes it beside the part as ``index.seg``, since derived data is
rebuilt without rewriting the part.  That both write identical bytes is a
tested property, not a shared code path.  The footer carries an ``"index"``
entry locating the segment; a run without that entry (or whose file is
missing) loads as ``None`` and every reader falls back to the full scan.
An epoch-layout run carries one index per part, fed on append;
:meth:`RunIndex.load` unions them, so every run is probed through one index
type::

    runs/<run_id>/
      part.seg          operator segments | rows | index   (record, compaction)
      index.seg         the index alone                    (backfill)
    runs/<run_id>/batches/epoch-NNNN/part.seg   ... | index   (append)
"""

from __future__ import annotations

import json
from collections import defaultdict
from operator import itemgetter
from pathlib import Path as FsPath
from typing import Any, Iterable, Iterator

from repro.core.operator_provenance import OperatorProvenance
from repro.errors import ProvenanceError
from repro.nested.values import Bag, DataItem, NestedSet
import repro.warehouse.format as wf
from repro.warehouse.reader import RunPart, load_manifest, read_range, run_parts
from repro.warehouse.writer import write_manifest

__all__ = [
    "INDEX_SEGMENT",
    "INDEX_VERSION",
    "MAX_TERM_LEN",
    "RunIndex",
    "ensure_index",
    "walk_string_leaves",
]

INDEX_SEGMENT = "index.seg"
INDEX_VERSION = 2

#: Longest string leaf the TERMS section indexes.  Tweet texts and names
#: fit; probing anything longer falls back to the scan path (the index is
#: complete only for terms within the cap).
MAX_TERM_LEN = 120


_VALUE_OF_PAIR = itemgetter(1)


def walk_string_leaves(value: Any) -> Iterator[str]:
    """Yield every string leaf of a model value or of a JSON-shaped one
    (dicts/lists/scalars), in no particular order (one flat loop: every
    append indexes its items)."""
    stack = [value]
    while stack:
        value = stack.pop()
        if isinstance(value, str):
            yield value
        elif isinstance(value, DataItem):
            stack.extend(map(_VALUE_OF_PAIR, value.pairs()))
        elif isinstance(value, dict):
            stack.extend(value.values())
        elif isinstance(value, (list, tuple, Bag, NestedSet)):
            stack.extend(value)


def _union_postings(sections: Iterable[dict[Any, tuple[Any, ...]]]) -> dict[Any, Any]:
    """Union ``key -> sorted postings`` maps, keeping postings sorted."""
    merged: dict[Any, set[Any]] = {}
    for section in sections:
        for key, values in section.items():
            merged.setdefault(key, set()).update(values)
    return {key: tuple(sorted(values)) for key, values in merged.items()}


class _Accumulator:
    """What every ``index.seg`` is accumulated in, whoever feeds it."""

    def __init__(self) -> None:
        self.inputs, self.terms, self.accessed, self.manipulated = (
            defaultdict(set) for _ in range(4)
        )
        self.item_count = 0

    def add_operator(self, provenance: OperatorProvenance) -> None:
        """INPUTS and PATHS of one operator."""
        oid = provenance.oid
        for item_id in provenance.associations.input_ids():
            self.inputs[item_id].add(oid)
        for input_ref in provenance.inputs:
            for acc in input_ref.accessed_or_empty():
                self.accessed[str(acc)].add(oid)
        for path_in, _path_out in provenance.manipulations_or_empty():
            self.manipulated[str(path_in)].add(oid)

    def add_item(self, oid: int, item_id: int, leaves: Iterable[str]) -> None:
        """ITEMS and TERMS of one item of source *oid*, given the item's
        string leaves (every one; those over :data:`MAX_TERM_LEN` are left
        out here)."""
        self.item_count += 1
        posting = (oid, item_id)
        for leaf in leaves:
            if len(leaf) <= MAX_TERM_LEN:
                self.terms[leaf].add(posting)

    def finish(self) -> "RunIndex":
        inputs, terms, accessed, manipulated = (
            {key: tuple(sorted(postings)) for key, postings in section.items()}
            for section in (self.inputs, self.terms, self.accessed, self.manipulated)
        )
        return RunIndex(inputs, terms, self.item_count, accessed, manipulated)


class RunIndex:
    """The decoded persisted index of one stored run."""

    __slots__ = ("inputs", "terms", "item_count", "accessed", "manipulated")

    def __init__(
        self,
        inputs: dict[int, tuple[int, ...]],
        terms: dict[str, tuple[tuple[int, int], ...]],
        item_count: int,
        accessed: dict[str, tuple[int, ...]],
        manipulated: dict[str, tuple[int, ...]],
    ):
        #: input id -> sorted oids of the operators consuming it.
        self.inputs = inputs
        #: string leaf -> sorted (source oid, item id) postings.
        self.terms = terms
        #: How many source items were indexed.
        self.item_count = item_count
        #: path text -> sorted oids with the path in an A record.
        self.accessed = accessed
        #: input path text -> sorted oids with the path in an M record.
        self.manipulated = manipulated

    # -- lookups ---------------------------------------------------------------

    def consumers(self, item_id: int) -> tuple[int, ...]:
        return self.inputs.get(item_id, ())

    def candidates(self, term: str) -> tuple[tuple[int, int], ...]:
        """Postings for an indexable term; raises beyond :data:`MAX_TERM_LEN`.

        The TERMS section is complete for terms within the cap, so an empty
        result is a proof of absence -- callers must not silently probe
        over-cap terms (that would turn "not indexed" into "no candidates").
        """
        if len(term) > MAX_TERM_LEN:
            raise ProvenanceError(
                f"term of length {len(term)} exceeds the index cap {MAX_TERM_LEN}"
            )
        return self.terms.get(term, ())

    def operators_touching(self, path: str) -> dict[str, tuple[int, ...]]:
        """A/M operators of one path (the PATHS section, both directions)."""
        return {
            "accessed": self.accessed.get(path, ()),
            "manipulated": self.manipulated.get(path, ()),
        }

    def summary(self) -> dict[str, Any]:
        return {
            "version": INDEX_VERSION,
            "inputs": len(self.inputs),
            "terms": len(self.terms),
            "items": self.item_count,
            "paths": len(self.accessed) + len(self.manipulated),
        }

    # -- building --------------------------------------------------------------

    @staticmethod
    def accumulator() -> "_Accumulator":
        """An empty accumulator; whoever holds a part's content feeds it."""
        return _Accumulator()

    @classmethod
    def build(cls, part: RunPart) -> "RunIndex":
        """The disk feeder: derive the index of a written part from its
        segments (backfill, and any part recorded without one), parsing
        each stored item for its string leaves."""
        accumulator = cls.accumulator()
        for oid_text, entry in part.operators.items():
            oid = int(oid_text)
            record = read_range(part.directory, entry, "offset", "record_length")
            accumulator.add_operator(wf.decode_operator(wf.Cursor(record)))
            if "items_offset" not in entry:
                continue
            block = wf.open_source_items(
                read_range(part.directory, entry, "items_offset", "items_length"), part.layout
            )
            for item_id, payload in block.encoded():
                accumulator.add_item(oid, item_id, walk_string_leaves(json.loads(payload)))
        return accumulator.finish()

    # -- codec -----------------------------------------------------------------

    def encode(self) -> bytes:
        parts = [wf._u8(INDEX_VERSION)]
        parts.append(wf._u64(len(self.inputs)))
        for item_id in sorted(self.inputs):
            oids = self.inputs[item_id]
            parts.append(wf._u64(item_id) + wf._u32(len(oids)))
            parts.extend(wf._u32(oid) for oid in oids)
        parts.append(wf._u64(len(self.terms)))
        for term in sorted(self.terms):
            postings = self.terms[term]
            parts.append(wf._string(term) + wf._u32(len(postings)))
            for oid, item_id in postings:
                parts.append(wf._u32(oid) + wf._u64(item_id))
        parts.append(wf._u64(self.item_count))
        for section in (self.accessed, self.manipulated):
            parts.append(wf._u64(len(section)))
            for text in sorted(section):
                oids = section[text]
                parts.append(wf._string(text) + wf._u32(len(oids)))
                parts.extend(wf._u32(oid) for oid in oids)
        return wf.encode_segment(wf.SEGMENT_INDEX, b"".join(parts))

    @classmethod
    def decode(cls, buffer: bytes) -> "RunIndex":
        cursor = wf.open_segment(buffer, wf.SEGMENT_INDEX)
        version = cursor.u8()
        if version not in (1, INDEX_VERSION):
            raise ProvenanceError(f"unsupported run index version {version}")
        inputs = {}
        for _ in range(cursor.u64()):
            item_id = cursor.u64()
            inputs[item_id] = tuple(cursor.u32() for _ in range(cursor.u32()))
        terms = {}
        for _ in range(cursor.u64()):
            term = cursor.string()
            terms[term] = tuple(
                (cursor.u32(), cursor.u64()) for _ in range(cursor.u32())
            )
        if version == 1:  # per source: oid | count | (id u64 | offset u64 | length u32)*
            item_count = 0
            for _ in range(cursor.u32()):
                cursor.u32()
                ranges = cursor.u64()
                cursor.skip(ranges * 20)
                item_count += ranges
        else:
            item_count = cursor.u64()
        sections = []
        for _ in range(2):
            section = {}
            for _ in range(cursor.u64()):
                text = cursor.string()
                section[text] = tuple(cursor.u32() for _ in range(cursor.u32()))
            sections.append(section)
        return cls(inputs, terms, item_count, sections[0], sections[1])

    # -- persistence -----------------------------------------------------------

    def entry(self, segment: str, offset: int, length: int) -> dict[str, Any]:
        """The footer entry of this index, encoded at *offset* of *segment*."""
        return dict(self.summary(), segment=segment, offset=offset, segment_bytes=length)

    def write(self, run_dir: FsPath) -> dict[str, Any]:
        """Write ``index.seg`` under *run_dir*; returns the manifest entry."""
        encoded = self.encode()
        (FsPath(run_dir) / INDEX_SEGMENT).write_bytes(encoded)
        return self.entry(INDEX_SEGMENT, 0, len(encoded))

    @classmethod
    def load(cls, run_dir: FsPath, manifest: dict[str, Any]) -> "RunIndex | None":
        """The run's persisted index, or ``None`` when absent (scan fallback).

        One part loads as decoded; several parts' indexes are unioned.  A
        run with any unindexed part loads as ``None``: only a complete index
        makes an empty posting a proof of absence.
        """
        decoded = []
        for part in run_parts(run_dir, manifest):
            if not part.index:
                return None
            if not (part.directory / part.index["segment"]).exists():
                return None
            decoded.append(cls.decode(read_range(part.directory, part.index)))
        return decoded[0] if len(decoded) == 1 else cls._union(decoded)

    @classmethod
    def _union(cls, parts: "list[RunIndex]") -> "RunIndex":
        """One index over several parts' indexes: ids are unique across a
        run and every section maps ``key -> sorted postings``, so the union
        of complete parts is complete.
        """
        return cls(
            _union_postings(part.inputs for part in parts),
            _union_postings(part.terms for part in parts),
            sum(part.item_count for part in parts),
            _union_postings(part.accessed for part in parts),
            _union_postings(part.manipulated for part in parts),
        )

    def __repr__(self) -> str:
        return (
            f"RunIndex({len(self.inputs)} input ids, {len(self.terms)} terms, "
            f"{self.item_count} items)"
        )


def ensure_index(
    run_dir: FsPath, manifest: dict[str, Any] | None = None
) -> dict[str, Any]:
    """Backfill: build the index of a written batch run from its segments
    and persist it as ``index.seg``; returns its manifest entry.

    Rewrites ``manifest.json`` (write-then-rename) with the ``"index"``
    entry, which leaves the run answering as a ``record(index=True)`` would
    have.  Idempotent: an already-indexed run is re-derived to the same
    index bytes.
    """
    run_dir = FsPath(run_dir)
    if manifest is None:
        manifest = load_manifest(run_dir)
    (part,) = run_parts(run_dir, manifest)
    entry = RunIndex.build(part).write(run_dir)
    manifest["index"] = entry
    write_manifest(run_dir, manifest)
    return entry
