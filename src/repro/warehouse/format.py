"""Binary segment format of the provenance warehouse.

Segments hold the captured provenance of one run in a length-prefixed,
versioned binary encoding that can be decoded piecemeal: one operator's
provenance (and, for read operators, its source items) lives in one
contiguous byte range, so a lazy reader can seek to exactly the operators a
backtrace touches instead of loading the whole capture.

Layout of one segment::

    MAGIC (4B) | version (u16) | kind (u8) | payload

Payloads are built from four primitives -- ``u32``/``u64`` little-endian
integers, length-prefixed UTF-8 strings, and sentinel-encoded optional
identifiers -- so every record is self-delimiting (unlike the historic
``ProvenanceStore.serialize()`` blob, whose aggregation records had no
length prefix and whose binary records could not distinguish a legitimate
id ``0`` from "no match").

Identifier widths match the space accounting of
:mod:`repro.core.operator_provenance` (8 bytes per id, 4 per position), so
segment sizes stay comparable with ``size_report()`` figures.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import chain
from typing import Any, Iterable, Iterator, Sequence

from repro.core.operator_provenance import (
    AggregationAssociations,
    Associations,
    BinaryAssociations,
    FlattenAssociations,
    InputRef,
    OperatorProvenance,
    ReadAssociations,
    UNDEFINED,
    UnaryAssociations,
)
from repro.core.paths import parse_path
from repro.errors import ProvenanceError
from repro.nested.json_io import item_from_json, json_default
from repro.nested.schema import Schema
from repro.nested.types import type_from_obj, type_to_obj
from repro.nested.values import DataItem

__all__ = [
    "MAGIC",
    "FORMAT_VERSION",
    "LAYOUT_VERSION",
    "PREAMBLE",
    "SEGMENT_OPERATOR",
    "SEGMENT_ROWS",
    "SEGMENT_INDEX",
    "NONE_ID",
    "Cursor",
    "kind_name",
    "encode_operator",
    "decode_operator",
    "encode_payloads",
    "encode_source_items",
    "SourceItemBlock",
    "open_source_items",
    "encode_rows",
    "iter_encoded_rows",
    "materialise_rows",
    "encode_segment",
    "open_segment",
    "encode_store_blob",
]

MAGIC = b"PBWH"  # "PeBble WareHouse"
#: The segment codec (every preamble carries it); version 1 was the
#: whole-document JSON format.
FORMAT_VERSION = 2
#: How a run lays its segments out (a manifest's ``"format"``): 3 writes a
#: part as one ``part.seg``; 2, a file per segment, is still read.
LAYOUT_VERSION = 3
#: Bytes of the segment preamble (magic + version + kind).
PREAMBLE = len(MAGIC) + 2 + 1

SEGMENT_OPERATOR = 1
SEGMENT_ROWS = 2
SEGMENT_INDEX = 3

#: Sentinel for an absent optional identifier (union/outer-join sides).  A
#: real id of 0 is legitimate, so absence needs its own code point.
NONE_ID = 2**64 - 1
#: Sentinel for an absent predecessor reference (read operators).
_NONE_PRED = 2**32 - 1

_KIND_READ = 1
_KIND_UNARY = 2
_KIND_FLATTEN = 3
_KIND_BINARY = 4
_KIND_AGGREGATION = 5

_ASSOCIATION_KINDS = {
    ReadAssociations: _KIND_READ,
    UnaryAssociations: _KIND_UNARY,
    FlattenAssociations: _KIND_FLATTEN,
    BinaryAssociations: _KIND_BINARY,
    AggregationAssociations: _KIND_AGGREGATION,
}

#: Association kind names used by the footer index (no decode needed to
#: answer ``is_source`` or render a run summary).
KIND_NAMES = {
    _KIND_READ: "read",
    _KIND_UNARY: "unary",
    _KIND_FLATTEN: "flatten",
    _KIND_BINARY: "binary",
    _KIND_AGGREGATION: "aggregation",
}


def kind_name(associations: "Associations") -> str:
    """The footer-index name of an association bag's kind."""
    kind = _ASSOCIATION_KINDS.get(type(associations))
    if kind is None:
        raise ProvenanceError(
            f"cannot encode associations {type(associations).__name__}"
        )
    return KIND_NAMES[kind]


# -- primitives ---------------------------------------------------------------


def _u8(value: int) -> bytes:
    return value.to_bytes(1, "little")


def _u16(value: int) -> bytes:
    return value.to_bytes(2, "little")


def _u32(value: int) -> bytes:
    return value.to_bytes(4, "little")


def _u64(value: int) -> bytes:
    return value.to_bytes(8, "little")


def _string(text: str) -> bytes:
    raw = text.encode("utf-8")
    return _u32(len(raw)) + raw


def _opt_id(value: int | None) -> bytes:
    if value is None:
        return _u64(NONE_ID)
    if value >= NONE_ID:
        raise ProvenanceError(f"identifier {value} collides with the NONE_ID sentinel")
    return _u64(value)


class Cursor:
    """Sequential decoder over one byte buffer."""

    __slots__ = ("buffer", "offset")

    def __init__(self, buffer: bytes, offset: int = 0):
        self.buffer = buffer
        self.offset = offset

    def _take(self, count: int) -> bytes:
        end = self.offset + count
        if end > len(self.buffer):
            raise ProvenanceError(
                f"truncated segment: needed {count} bytes at offset {self.offset}, "
                f"have {len(self.buffer) - self.offset}"
            )
        raw = self.buffer[self.offset : end]
        self.offset = end
        return raw

    def u8(self) -> int:
        return self._take(1)[0]

    def u16(self) -> int:
        return int.from_bytes(self._take(2), "little")

    def u32(self) -> int:
        return int.from_bytes(self._take(4), "little")

    def u64(self) -> int:
        return int.from_bytes(self._take(8), "little")

    def raw(self) -> bytes:
        """One length-prefixed byte string, undecoded."""
        return self._take(self.u32())

    def string(self) -> str:
        return self.raw().decode("utf-8")

    def opt_id(self) -> int | None:
        value = self.u64()
        return None if value == NONE_ID else value

    def expect_magic(self) -> tuple[int, int]:
        """Check the segment preamble; returns ``(version, segment kind)``."""
        magic = self._take(4)
        if magic != MAGIC:
            raise ProvenanceError(f"not a warehouse segment (magic {magic!r})")
        version = self.u16()
        if version != FORMAT_VERSION:
            raise ProvenanceError(f"unsupported segment format version {version}")
        return version, self.u8()


# -- associations -------------------------------------------------------------


def _encode_associations(associations: Associations) -> bytes:
    kind = _ASSOCIATION_KINDS.get(type(associations))
    if kind is None:
        raise ProvenanceError(
            f"cannot encode associations {type(associations).__name__}"
        )
    parts = [_u8(kind)]
    if isinstance(associations, ReadAssociations):
        parts.append(_u64(len(associations.ids)))
        parts.extend(_u64(id_out) for id_out in associations.ids)
    elif isinstance(associations, UnaryAssociations):
        parts.append(_u64(len(associations.records)))
        for id_in, id_out in associations.records:
            parts.append(_u64(id_in) + _u64(id_out))
    elif isinstance(associations, FlattenAssociations):
        parts.append(_u64(len(associations.records)))
        for id_in, pos, id_out in associations.records:
            parts.append(_u64(id_in) + _u32(pos) + _u64(id_out))
    elif isinstance(associations, BinaryAssociations):
        parts.append(_u64(len(associations.records)))
        for id_in1, id_in2, id_out in associations.records:
            parts.append(_opt_id(id_in1) + _opt_id(id_in2) + _u64(id_out))
    else:
        assert isinstance(associations, AggregationAssociations)
        parts.append(_u64(len(associations.records)))
        for ids_in, id_out in associations.records:
            parts.append(_u32(len(ids_in)))
            parts.extend(_u64(id_in) for id_in in ids_in)
            parts.append(_u64(id_out))
    return b"".join(parts)


def _decode_associations(cursor: Cursor) -> Associations:
    kind = cursor.u8()
    count = cursor.u64()
    if kind == _KIND_READ:
        return ReadAssociations([cursor.u64() for _ in range(count)])
    if kind == _KIND_UNARY:
        return UnaryAssociations([(cursor.u64(), cursor.u64()) for _ in range(count)])
    if kind == _KIND_FLATTEN:
        return FlattenAssociations(
            [(cursor.u64(), cursor.u32(), cursor.u64()) for _ in range(count)]
        )
    if kind == _KIND_BINARY:
        return BinaryAssociations(
            [(cursor.opt_id(), cursor.opt_id(), cursor.u64()) for _ in range(count)]
        )
    if kind == _KIND_AGGREGATION:
        records = []
        for _ in range(count):
            width = cursor.u32()
            ids_in = tuple(cursor.u64() for _ in range(width))
            records.append((ids_in, cursor.u64()))
        return AggregationAssociations(records)
    raise ProvenanceError(f"unknown association kind code {kind}")


# -- operator records ---------------------------------------------------------

_FLAG_UNDEFINED = 0
_FLAG_PRESENT = 1


def encode_operator(provenance: OperatorProvenance) -> bytes:
    """Encode one operator's provenance 5-tuple as a self-delimiting record."""
    parts = [_u32(provenance.oid), _string(provenance.op_type), _string(provenance.label)]
    parts.append(_u32(len(provenance.inputs)))
    for input_ref in provenance.inputs:
        pred = input_ref.predecessor
        parts.append(_u32(_NONE_PRED if pred is None else pred))
        if input_ref.accessed is UNDEFINED:
            parts.append(_u8(_FLAG_UNDEFINED))
        else:
            parts.append(_u8(_FLAG_PRESENT))
            accessed = sorted(input_ref.accessed, key=str)
            parts.append(_u32(len(accessed)))
            parts.extend(_string(str(path)) for path in accessed)
        if input_ref.schema is None:
            parts.append(_u8(_FLAG_UNDEFINED))
        else:
            parts.append(_u8(_FLAG_PRESENT))
            parts.append(_string(json.dumps(type_to_obj(input_ref.schema.struct))))
    if provenance.manipulations_undefined():
        parts.append(_u8(_FLAG_UNDEFINED))
    else:
        pairs = provenance.manipulations_or_empty()
        parts.append(_u8(_FLAG_PRESENT))
        parts.append(_u32(len(pairs)))
        for path_in, path_out in pairs:
            parts.append(_string(str(path_in)) + _string(str(path_out)))
    parts.append(_encode_associations(provenance.associations))
    return b"".join(parts)


@lru_cache(maxsize=256)
def _decode_schema(text: str) -> Schema:
    """One parse per distinct encoded schema: every epoch of a stream (and
    most operators of a plan) repeat the same few, and schemas are immutable."""
    return Schema(type_from_obj(json.loads(text)))


def decode_operator(cursor: Cursor) -> OperatorProvenance:
    """Decode one operator record at the cursor position."""
    oid = cursor.u32()
    op_type = cursor.string()
    label = cursor.string()
    inputs = []
    for _ in range(cursor.u32()):
        pred_raw = cursor.u32()
        predecessor = None if pred_raw == _NONE_PRED else pred_raw
        if cursor.u8() == _FLAG_UNDEFINED:
            accessed: Any = UNDEFINED
        else:
            accessed = [parse_path(cursor.string()) for _ in range(cursor.u32())]
        schema = None
        if cursor.u8() == _FLAG_PRESENT:
            schema = _decode_schema(cursor.string())
        inputs.append(InputRef(predecessor, accessed, schema=schema))
    if cursor.u8() == _FLAG_UNDEFINED:
        manipulations: Any = UNDEFINED
    else:
        manipulations = [
            (parse_path(cursor.string()), parse_path(cursor.string()))
            for _ in range(cursor.u32())
        ]
    associations = _decode_associations(cursor)
    return OperatorProvenance(oid, op_type, inputs, manipulations, associations, label)


# -- source items and result rows ---------------------------------------------


def encode_payloads(
    name: str | None, payloads: Sequence[tuple[int | None, bytes]]
) -> bytes:
    """The one item encoder: ``[name] | count | (id | length | JSON bytes)*``.

    A read operator's block leads with its source *name* and lists real ids
    in ascending order; the rows payload has no name and ``None`` for a row
    without a provenance id.  Payloads are the items' stored JSON bytes, so
    compaction moves items between segments without parsing one.
    """
    return b"".join(_payload_parts(name, payloads))


def _payload_parts(
    name: str | None, payloads: Sequence[tuple[int | None, bytes]]
) -> list[bytes]:
    """:func:`encode_payloads` before the join: the header, then per payload
    its ``id | length`` head and its bytes, uncopied -- whoever writes them
    out knows each record's offset."""
    parts = [_u64(len(payloads)) if name is None else _string(name) + _u64(len(payloads))]
    for ident, raw in payloads:
        parts.append(_opt_id(ident) + _u32(len(raw)))
        parts.append(raw)
    return parts


#: One encoder for every stored item: the C encoder walks the item and calls
#: back only for the model's containers (immutable, so never circular).
_ITEM_ENCODER = json.JSONEncoder(default=json_default, check_circular=False)


def _item_json(item: DataItem) -> bytes:
    return _ITEM_ENCODER.encode(item).encode("utf-8")


def _item_json_and_leaves(item: DataItem) -> tuple[bytes, list[str]]:
    """:func:`_item_json` plus every string leaf of *item*, from the same C
    encoder pass: the hook that expands each model container also keeps the
    expansion, whose direct ``str`` children are the leaves."""
    expanded: list[Any] = []

    def default(value: Any) -> Any:
        container = json_default(value)
        expanded.append(container)
        return container

    raw = json.JSONEncoder(default=default, check_circular=False).encode(item)
    children = chain.from_iterable(
        container.values() if isinstance(container, dict) else container
        for container in expanded
    )
    # ``str.__instancecheck__`` is ``isinstance(child, str)`` as a C callable.
    return raw.encode("utf-8"), list(filter(str.__instancecheck__, children))


def encode_source_items(name: str, items: dict[int, DataItem]) -> bytes:
    """Encode a read operator's ``id -> input item`` mapping."""
    return encode_payloads(
        name, [(item_id, _item_json(item)) for item_id, item in sorted(items.items())]
    )


class SourceItemBlock:
    """One encoded ``id -> input item`` block, parsed an item at a time.

    Opening hops the ``u64 id | u32 len`` headers and sets each item's JSON
    bytes aside unparsed, so membership and the id set cost no
    ``json.loads``; an item is parsed the first time :meth:`get` asks for it
    and kept.
    """

    __slots__ = ("name", "_encoded", "_items")

    def __init__(self, raw: bytes):
        cursor = Cursor(raw)
        self.name = cursor.string()
        self._encoded: dict[int, bytes] = {
            cursor.u64(): cursor.raw() for _ in range(cursor.u64())
        }
        self._items: dict[int, DataItem] = {}

    def __contains__(self, item_id: object) -> bool:
        return item_id in self._encoded

    def ids(self) -> list[int]:
        """The item ids in stored (ascending) order."""
        return list(self._encoded)

    def encoded(self) -> Iterable[tuple[int, bytes]]:
        """``(item id, raw JSON bytes)`` in stored order; parses nothing."""
        return self._encoded.items()

    @property
    def decoded(self) -> int:
        """How many of the block's items have been parsed so far."""
        return len(self._items)

    def peek(self, item_id: int) -> DataItem:
        """Item *item_id*, not kept when this call had to parse it."""
        item = self._items.get(item_id)
        return item if item is not None else item_from_json(self._encoded[item_id])

    def get(self, item_id: int) -> DataItem:
        """Item *item_id*; raises ``KeyError`` when the block lacks it."""
        item = self._items[item_id] = self.peek(item_id)
        return item

    def all(self) -> dict[int, DataItem]:
        """The whole ``id -> item`` mapping (parses whatever is still raw)."""
        return {item_id: self.get(item_id) for item_id in self._encoded}


def open_source_items(raw: bytes) -> SourceItemBlock:
    """Open an :func:`encode_source_items` block for per-item access."""
    return SourceItemBlock(raw)


def encode_rows(rows: Sequence[tuple[int | None, DataItem]]) -> bytes:
    """Encode the provenance-annotated result rows of one run."""
    return encode_payloads(None, [(pid, _item_json(item)) for pid, item in rows])


def iter_encoded_rows(cursor: Cursor) -> Iterator[tuple[int | None, bytes]]:
    """Hop a rows payload, yielding ``(pid, raw JSON bytes)`` per row."""
    for _ in range(cursor.u64()):
        yield cursor.opt_id(), cursor.raw()


def materialise_rows(
    encoded: Iterable[tuple[int | None, bytes]],
) -> list[tuple[int | None, DataItem]]:
    """Parse ``(pid, raw JSON bytes)`` rows into ``(pid, item)`` rows."""
    return [(pid, item_from_json(raw)) for pid, raw in encoded]


def encode_segment(kind: int, payload: bytes) -> bytes:
    """Wrap *payload* with the segment preamble."""
    return MAGIC + _u16(FORMAT_VERSION) + _u8(kind) + payload


def open_segment(buffer: bytes, expected_kind: int) -> Cursor:
    """Validate a segment preamble and return a cursor over its payload."""
    cursor = Cursor(buffer)
    _, kind = cursor.expect_magic()
    if kind != expected_kind:
        raise ProvenanceError(
            f"wrong segment kind: expected {expected_kind}, found {kind}"
        )
    return cursor


# -- whole-store blob (ProvenanceStore.serialize) -----------------------------


def encode_store_blob(operators: Sequence[OperatorProvenance]) -> bytes:
    """Encode an operator sequence as one blob: a preamble, then one
    :func:`encode_operator` record per operator.

    This backs :meth:`repro.core.store.ProvenanceStore.serialize`, which
    the capture benchmarks time; source items are not included (they live
    in their own warehouse segments).
    """
    parts = [MAGIC, _u16(FORMAT_VERSION), _u32(len(operators))]
    parts.extend(encode_operator(provenance) for provenance in operators)
    return b"".join(parts)
