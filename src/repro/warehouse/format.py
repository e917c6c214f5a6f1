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
import struct
import zlib
from functools import lru_cache
from itertools import accumulate, chain
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
    "encode_operator",
    "decode_operator",
    "FRAME_ITEMS",
    "FRAME_LEVEL",
    "encode_payloads",
    "frame_source_items",
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
#: How a run lays its segments out (a manifest's ``"format"``): 4 writes a
#: part as one ``part.seg`` whose source items sit in compressed frames;
#: 3 (raw item JSON) and 2 (a file per segment) are still read.
LAYOUT_VERSION = 4
#: Items per compressed frame of a source-item block, and the zlib level
#: each frame is compressed at.
FRAME_ITEMS = 16
FRAME_LEVEL = 1
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


def _opt_id(value: int | None) -> int:
    """*value* as stored in an optional id field."""
    if value is None:
        return NONE_ID
    if value >= NONE_ID:
        raise ProvenanceError(f"identifier {value} collides with the NONE_ID sentinel")
    return value


#: The fixed-width layouts, one per record kind.  The encoder packs and the
#: decoder unpacks with these same objects, so each layout has one definition.
_ID = struct.Struct("<Q")  # a read operator's output id, or a count
_UNARY = struct.Struct("<QQ")  # id_in | id_out
_FLATTEN = struct.Struct("<QIQ")  # id_in | pos | id_out
_BINARY = struct.Struct("<QQQ")  # id_in1 | id_in2 | id_out (NONE_ID for absent)
_WIDTH = struct.Struct("<I")  # an aggregation record's id count; an item's length
_ENTRY = struct.Struct("<QI")  # id | length, ahead of a row's (or raw item's) bytes
#: The association kinds whose records all have one width.
_FIXED_LAYOUTS = {_KIND_UNARY: _UNARY, _KIND_FLATTEN: _FLATTEN, _KIND_BINARY: _BINARY}


def _truncated(needed: int, offset: int, have: int) -> ProvenanceError:
    return ProvenanceError(
        f"truncated segment: needed {needed} bytes at offset {offset}, have {have}"
    )


class Cursor:
    """Sequential decoder over one byte buffer."""

    __slots__ = ("buffer", "offset")

    def __init__(self, buffer: bytes, offset: int = 0):
        self.buffer = buffer
        self.offset = offset

    def _take(self, count: int) -> bytes:
        end = self.offset + count
        if end > len(self.buffer):
            raise _truncated(count, self.offset, len(self.buffer) - self.offset)
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

    def skip(self, count: int) -> None:
        """Step over *count* bytes."""
        self._take(count)

    def array(self, code: str, count: int) -> tuple[int, ...]:
        """*count* little-endian integers of ``struct`` code *code*."""
        return struct.unpack(f"<{count}{code}", self._take(count * struct.calcsize("<" + code)))

    def records(self, layout: struct.Struct, count: int) -> Iterator[tuple[int, ...]]:
        """*count* fixed-width records of *layout*, from one bounds-checked slice."""
        return layout.iter_unpack(self._take(count * layout.size))

    def entries(self, head: struct.Struct, count: int) -> Iterator[tuple[Any, ...]]:
        """Hop *count* ``head | bytes`` entries whose *head* ends with the
        byte count; yields the head's other fields and the bytes, and the
        cursor follows the last entry yielded."""
        buffer = self.buffer
        end = len(buffer)
        for _ in range(count):
            offset = self.offset
            start = offset + head.size
            if start > end:
                raise _truncated(head.size, offset, end - offset)
            *fields, length = head.unpack_from(buffer, offset)
            stop = start + length
            if stop > end:
                raise _truncated(length, start, end - start)
            self.offset = stop
            yield (*fields, buffer[start:stop])

    def raw(self) -> bytes:
        """One length-prefixed byte string, undecoded."""
        return self._take(self.u32())

    def string(self) -> str:
        return self.raw().decode("utf-8")

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
        parts.append(_ID.pack(len(associations.ids)))
        parts.extend(map(_ID.pack, associations.ids))
    elif isinstance(associations, AggregationAssociations):
        parts.append(_ID.pack(len(associations.records)))
        for ids_in, id_out in associations.records:
            parts.append(_WIDTH.pack(len(ids_in)))
            parts.extend(map(_ID.pack, ids_in))
            parts.append(_ID.pack(id_out))
    else:
        records = associations.records
        parts.append(_ID.pack(len(records)))
        if isinstance(associations, BinaryAssociations):
            records = (
                (_opt_id(id_in1), _opt_id(id_in2), id_out)
                for id_in1, id_in2, id_out in records
            )
        layout = _FIXED_LAYOUTS[kind]
        parts.extend(layout.pack(*record) for record in records)
    return b"".join(parts)


def _decode_associations(cursor: Cursor) -> Associations:
    kind = cursor.u8()
    count = cursor.u64()
    if kind == _KIND_READ:
        return ReadAssociations(cursor.array("Q", count))
    if kind == _KIND_UNARY:
        return UnaryAssociations(cursor.records(_UNARY, count))
    if kind == _KIND_FLATTEN:
        return FlattenAssociations(cursor.records(_FLATTEN, count))
    if kind == _KIND_BINARY:
        return BinaryAssociations(
            [
                (
                    None if id_in1 == NONE_ID else id_in1,
                    None if id_in2 == NONE_ID else id_in2,
                    id_out,
                )
                for id_in1, id_in2, id_out in cursor.records(_BINARY, count)
            ]
        )
    if kind == _KIND_AGGREGATION:
        return AggregationAssociations(_decode_aggregation(cursor, count))
    raise ProvenanceError(f"unknown association kind code {kind}")


def _decode_aggregation(cursor: Cursor, count: int) -> list[tuple[tuple[int, ...], int]]:
    """*count* ``u32 width | width x u64 | u64`` records, each unpacked in
    one call once its width is known to fit the buffer."""
    buffer, offset = cursor.buffer, cursor.offset
    end = len(buffer)
    smallest = _WIDTH.size + _ID.size
    if count * smallest > end - offset:
        raise _truncated(count * smallest, offset, end - offset)
    records = []
    for _ in range(count):
        if offset + _WIDTH.size > end:
            raise _truncated(_WIDTH.size, offset, end - offset)
        (width,) = _WIDTH.unpack_from(buffer, offset)
        offset += _WIDTH.size
        size = (width + 1) * _ID.size
        if offset + size > end:
            raise _truncated(size, offset, end - offset)
        ids = struct.unpack_from(f"<{width + 1}Q", buffer, offset)
        records.append((ids[:-1], ids[-1]))
        offset += size
    cursor.offset = offset
    return records


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


def encode_payloads(payloads: Sequence[tuple[int | None, bytes]]) -> bytes:
    """The rows payload: ``count | (id | length | JSON bytes)*``, ``None``
    for a row without a provenance id.  Payloads are the rows' stored JSON
    bytes, so compaction moves rows between segments without parsing one.
    """
    parts = [_ID.pack(len(payloads))]
    for ident, raw in payloads:
        parts.append(_ENTRY.pack(_opt_id(ident), len(raw)))
        parts.append(raw)
    return b"".join(parts)


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


def frame_source_items(
    name: str,
    payloads: Sequence[tuple[int, bytes]],
    compressed: dict[tuple[int, ...], bytes],
) -> list[bytes]:
    """A read operator's items as a framed block, in the pieces to write:
    first ``name | count | ids (u64 each) | frame lengths (u32 each)``, then
    one zlib frame per :data:`FRAME_ITEMS` items, each inflating to
    ``(u32 len | JSON bytes)`` per item.

    *payloads* are ``(item id, stored JSON bytes)`` in ascending id order.
    *compressed* memoises frames by the identity of their payload objects
    (one dict per part): a self-join's reads hold the very same bytes
    objects, so their frames are compressed once.  The caller keeps the
    payloads alive as long as the memo, so no id is reused meanwhile.
    """
    frames = []
    for start in range(0, len(payloads), FRAME_ITEMS):
        chunk = [raw for _, raw in payloads[start : start + FRAME_ITEMS]]
        key = tuple(map(id, chunk))
        frame = compressed.get(key)
        if frame is None:
            plain = b"".join([_WIDTH.pack(len(raw)) + raw for raw in chunk])
            frame = compressed[key] = zlib.compress(plain, FRAME_LEVEL)
        frames.append(frame)
    head = b"".join(
        (
            _string(name),
            _u64(len(payloads)),
            struct.pack(f"<{len(payloads)}Q", *(item_id for item_id, _ in payloads)),
            struct.pack(f"<{len(frames)}I", *map(len, frames)),
        )
    )
    return [head, *frames]


def encode_source_items(name: str, items: dict[int, DataItem]) -> bytes:
    """Encode a read operator's ``id -> input item`` mapping (framed)."""
    payloads = [(item_id, _item_json(item)) for item_id, item in sorted(items.items())]
    return b"".join(frame_source_items(name, payloads, {}))


class SourceItemBlock:
    """One encoded ``id -> input item`` block, read a frame and an item at
    a time.

    Opening reads the name and the id column (and, when framed, the frame
    table), so membership, :meth:`ids` and the stored order inflate and
    parse nothing.  The first item asked for inflates its frame, which is
    then kept; an item is parsed the first time :meth:`get` asks for it and
    kept.  A raw block (layouts 2 and 3: ``name | count | (id | len |
    JSON)*``) is cut into frames that opening already holds.
    """

    __slots__ = ("name", "_ids", "_slots", "_raw", "_spans", "_frames", "_items", "inflated")

    def __init__(self, raw: bytes, framed: bool = True):
        cursor = Cursor(raw)
        self.name = cursor.string()
        count = cursor.u64()
        self._raw = raw if framed else b""
        if framed:
            self._ids = cursor.array("Q", count)
            lengths = cursor.array("I", -(-count // FRAME_ITEMS))
            self._spans = list(accumulate(lengths, initial=cursor.offset))
            if self._spans[-1] != len(raw):
                raise ProvenanceError(
                    f"item block {self.name!r}: frame table covers {self._spans[-1]} "
                    f"bytes, the block holds {len(raw)}"
                )
            self._frames: list[list[bytes] | None] = [None] * len(lengths)
        else:
            heads = list(cursor.entries(_ENTRY, count))
            self._ids = tuple(item_id for item_id, _ in heads)
            self._spans = []
            payloads = [payload for _, payload in heads]
            self._frames = [
                payloads[start : start + FRAME_ITEMS] for start in range(0, count, FRAME_ITEMS)
            ]
        self._slots = {item_id: slot for slot, item_id in enumerate(self._ids)}
        self._items: dict[int, DataItem] = {}
        #: How many of the block's frames have been inflated so far.
        self.inflated = 0

    def _frame(self, index: int) -> list[bytes]:
        """Frame *index*'s payloads, inflated on first use and kept."""
        payloads = self._frames[index]
        if payloads is None:
            start, end = self._spans[index], self._spans[index + 1]
            try:
                plain = zlib.decompress(memoryview(self._raw)[start:end])
            except zlib.error as error:
                raise ProvenanceError(
                    f"item block {self.name!r}: frame {index} does not inflate ({error})"
                ) from None
            cursor = Cursor(plain)
            expected = min(FRAME_ITEMS, len(self._ids) - index * FRAME_ITEMS)
            payloads = [payload for payload, in cursor.entries(_WIDTH, expected)]
            if cursor.offset != len(plain):
                raise ProvenanceError(
                    f"item block {self.name!r}: frame {index} holds "
                    f"{len(plain) - cursor.offset} bytes past its {expected} items"
                )
            self._frames[index] = payloads
            self.inflated += 1
        return payloads

    def _payload(self, item_id: int) -> bytes:
        slot = self._slots[item_id]
        return self._frame(slot // FRAME_ITEMS)[slot % FRAME_ITEMS]

    def __contains__(self, item_id: object) -> bool:
        return item_id in self._slots

    def ids(self) -> list[int]:
        """The item ids in stored (ascending) order."""
        return list(self._ids)

    def encoded(self) -> list[tuple[int, bytes]]:
        """``(item id, raw JSON bytes)`` in stored order; inflates every
        frame, parses nothing."""
        payloads = chain.from_iterable(map(self._frame, range(len(self._frames))))
        return list(zip(self._ids, payloads))

    @property
    def decoded(self) -> int:
        """How many of the block's items have been parsed so far."""
        return len(self._items)

    def peek(self, item_id: int) -> DataItem:
        """Item *item_id*, not kept when this call had to parse it."""
        item = self._items.get(item_id)
        return item if item is not None else item_from_json(self._payload(item_id))

    def get(self, item_id: int) -> DataItem:
        """Item *item_id*; raises ``KeyError`` when the block lacks it."""
        item = self._items[item_id] = self.peek(item_id)
        return item

    def all(self) -> dict[int, DataItem]:
        """The whole ``id -> item`` mapping (parses whatever is still raw)."""
        return {item_id: self.get(item_id) for item_id in self._ids}


def open_source_items(raw: bytes, layout: int = LAYOUT_VERSION) -> SourceItemBlock:
    """Open a read operator's item block, as run layout *layout* wrote it,
    for per-item access: framed from layout 4, raw JSON before."""
    return SourceItemBlock(raw, framed=layout >= 4)


def encode_rows(rows: Sequence[tuple[int | None, DataItem]]) -> bytes:
    """Encode the provenance-annotated result rows of one run."""
    return encode_payloads([(pid, _item_json(item)) for pid, item in rows])


def iter_encoded_rows(cursor: Cursor) -> Iterator[tuple[int | None, bytes]]:
    """Hop a rows payload, yielding ``(pid, raw JSON bytes)`` per row."""
    for pid, raw in cursor.entries(_ENTRY, cursor.u64()):
        yield (None if pid == NONE_ID else pid), raw


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
