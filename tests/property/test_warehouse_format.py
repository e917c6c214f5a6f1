"""Property-based round-trips of the warehouse binary segment format.

Random association bags, operator records, source items, and result rows
must survive encode/decode byte cursors unchanged -- including the cases
the historic ``ProvenanceStore.serialize()`` blob got wrong: aggregation
records of varying width (no length prefix), a legitimate id ``0`` on one
side of a binary association, and unmatched outer-join sides (``None``).
"""

import json
import struct
import threading
import tracemalloc
import zlib
from itertools import accumulate

from hypothesis import example, given, settings, strategies as st

from repro.core.operator_provenance import (
    AggregationAssociations,
    BinaryAssociations,
    FlattenAssociations,
    InputRef,
    OperatorProvenance,
    ReadAssociations,
    UNDEFINED,
    UnaryAssociations,
)
from repro.core.paths import parse_path
from repro.core.treepattern.matcher import match_rows, required_constants
from repro.core.treepattern.parser import parse_pattern
from repro.core.treepattern.pattern import NO_EQUALS, Edge, PatternNode, TreePattern
from repro.engine.metrics import SegmentCacheMetrics
from repro.errors import ProvenanceError
from repro.nested.json_io import item_to_json
from repro.nested.schema import infer_schema
from repro.nested.types import type_to_obj
from repro.nested.values import DataItem, to_python
import repro.warehouse.format as wf
from repro.warehouse.reader import StoredRun

import pytest

_ids = st.integers(min_value=0, max_value=wf.NONE_ID - 1)
_pos = st.integers(min_value=1, max_value=2**32 - 1)

_read = st.lists(_ids, unique=True, max_size=8).map(ReadAssociations)
_unary = st.lists(st.tuples(_ids, _ids), max_size=8).map(UnaryAssociations)
_flatten = st.lists(st.tuples(_ids, _pos, _ids), max_size=8).map(FlattenAssociations)
_binary = st.lists(
    st.tuples(st.none() | _ids, st.none() | _ids, _ids), max_size=8
).map(BinaryAssociations)
_aggregation = st.lists(
    st.tuples(st.lists(_ids, max_size=5).map(tuple), _ids), max_size=8
).map(AggregationAssociations)

_associations = st.one_of(_read, _unary, _flatten, _binary, _aggregation)


def _lists_of(size, element, **kwargs):
    return st.lists(element, min_size=size, max_size=size, **kwargs)


#: Every association kind at 0, 1 and many records.
_sized_associations = st.sampled_from([0, 1, 40]).flatmap(
    lambda size: st.one_of(
        _lists_of(size, _ids, unique=True).map(ReadAssociations),
        _lists_of(size, st.tuples(_ids, _ids)).map(UnaryAssociations),
        _lists_of(size, st.tuples(_ids, _pos, _ids)).map(FlattenAssociations),
        _lists_of(size, st.tuples(st.none() | _ids, st.none() | _ids, _ids)).map(
            BinaryAssociations
        ),
        _lists_of(size, st.tuples(st.lists(_ids, max_size=5).map(tuple), _ids)).map(
            AggregationAssociations
        ),
    )
)

_paths = st.sampled_from(["a", "b.c", "tags[pos]", "user.name", "m[3].x"]).map(parse_path)
_accessed = st.just(UNDEFINED) | st.lists(_paths, max_size=3)
_schemas = st.none() | st.just(
    infer_schema([DataItem({"a": 1, "b": {"c": "x"}, "tags": ["t"]})])
)
_input_refs = st.builds(
    InputRef,
    st.none() | st.integers(min_value=0, max_value=2**32 - 2),
    _accessed,
    schema=_schemas,
)
_manipulations = st.just(UNDEFINED) | st.lists(st.tuples(_paths, _paths), max_size=3)



def _operators_with(associations):
    return st.builds(
        OperatorProvenance,
        st.integers(min_value=0, max_value=2**32 - 1),
        st.sampled_from(["read", "filter", "select", "flatten", "union", "join", "aggregate"]),
        st.lists(_input_refs, max_size=3),
        _manipulations,
        associations,
        st.sampled_from([None, "a label", "groupBy(user)"]),
    )


_operators = _operators_with(_associations)

_items = st.fixed_dictionaries(
    {
        "text": st.text(max_size=12),
        "count": st.integers(min_value=-5, max_value=5),
        "tags": st.lists(st.sampled_from(("a", "b")), max_size=3),
    }
).map(DataItem)


def _assert_associations_equal(left, right) -> None:
    assert type(left) is type(right)
    if isinstance(left, ReadAssociations):
        assert list(right.ids) == list(left.ids)
    else:
        assert list(right.records) == list(left.records)


def _assert_operators_equal(left: OperatorProvenance, right: OperatorProvenance) -> None:
    assert right.oid == left.oid
    assert right.op_type == left.op_type
    assert right.label == left.label
    assert len(right.inputs) == len(left.inputs)
    for ref_left, ref_right in zip(left.inputs, right.inputs):
        assert ref_right.predecessor == ref_left.predecessor
        if ref_left.accessed is UNDEFINED:
            assert ref_right.accessed is UNDEFINED
        else:
            assert {str(p) for p in ref_right.accessed} == {
                str(p) for p in ref_left.accessed
            }
        if ref_left.schema is None:
            assert ref_right.schema is None
        else:
            assert ref_right.schema is not None
            assert type_to_obj(ref_right.schema.struct) == type_to_obj(ref_left.schema.struct)
    if left.manipulations_undefined():
        assert right.manipulations_undefined()
    else:
        assert [
            (str(a), str(b)) for a, b in right.manipulations_or_empty()
        ] == [(str(a), str(b)) for a, b in left.manipulations_or_empty()]
    _assert_associations_equal(left.associations, right.associations)


# -- the per-field codec, kept here as the oracle -----------------------------


def _reference_encode_operator(provenance: OperatorProvenance) -> bytes:
    """An operator record written one field at a time."""
    parts = [wf._u32(provenance.oid), wf._string(provenance.op_type), wf._string(provenance.label)]
    parts.append(wf._u32(len(provenance.inputs)))
    for ref in provenance.inputs:
        parts.append(wf._u32(2**32 - 1 if ref.predecessor is None else ref.predecessor))
        if ref.accessed is UNDEFINED:
            parts.append(wf._u8(0))
        else:
            accessed = sorted(ref.accessed, key=str)
            parts.append(wf._u8(1) + wf._u32(len(accessed)))
            parts.extend(wf._string(str(path)) for path in accessed)
        if ref.schema is None:
            parts.append(wf._u8(0))
        else:
            parts.append(wf._u8(1) + wf._string(json.dumps(type_to_obj(ref.schema.struct))))
    if provenance.manipulations_undefined():
        parts.append(wf._u8(0))
    else:
        pairs = provenance.manipulations_or_empty()
        parts.append(wf._u8(1) + wf._u32(len(pairs)))
        for path_in, path_out in pairs:
            parts.append(wf._string(str(path_in)) + wf._string(str(path_out)))
    bag = provenance.associations

    def opt(value):
        return wf._u64(wf.NONE_ID if value is None else value)

    if isinstance(bag, ReadAssociations):
        parts.append(wf._u8(1) + wf._u64(len(bag.ids)))
        parts.extend(wf._u64(id_out) for id_out in bag.ids)
    elif isinstance(bag, UnaryAssociations):
        parts.append(wf._u8(2) + wf._u64(len(bag.records)))
        parts.extend(wf._u64(id_in) + wf._u64(id_out) for id_in, id_out in bag.records)
    elif isinstance(bag, FlattenAssociations):
        parts.append(wf._u8(3) + wf._u64(len(bag.records)))
        parts.extend(
            wf._u64(id_in) + wf._u32(pos) + wf._u64(id_out) for id_in, pos, id_out in bag.records
        )
    elif isinstance(bag, BinaryAssociations):
        parts.append(wf._u8(4) + wf._u64(len(bag.records)))
        parts.extend(opt(one) + opt(two) + wf._u64(id_out) for one, two, id_out in bag.records)
    else:
        parts.append(wf._u8(5) + wf._u64(len(bag.records)))
        for ids_in, id_out in bag.records:
            parts.append(wf._u32(len(ids_in)))
            parts.extend(wf._u64(id_in) for id_in in ids_in)
            parts.append(wf._u64(id_out))
    return b"".join(parts)


def _reference_decode_associations(cursor: wf.Cursor):
    """An association bag read one field at a time."""

    def opt(value):
        return None if value == wf.NONE_ID else value

    kind, count = cursor.u8(), cursor.u64()
    if kind == 1:
        return ReadAssociations([cursor.u64() for _ in range(count)])
    if kind == 2:
        return UnaryAssociations([(cursor.u64(), cursor.u64()) for _ in range(count)])
    if kind == 3:
        return FlattenAssociations(
            [(cursor.u64(), cursor.u32(), cursor.u64()) for _ in range(count)]
        )
    if kind == 4:
        return BinaryAssociations(
            [(opt(cursor.u64()), opt(cursor.u64()), cursor.u64()) for _ in range(count)]
        )
    assert kind == 5
    records = []
    for _ in range(count):
        ids_in = tuple(cursor.u64() for _ in range(cursor.u32()))
        records.append((ids_in, cursor.u64()))
    return AggregationAssociations(records)


def _reference_iter_encoded_rows(cursor: wf.Cursor):
    """A rows payload hopped one field at a time."""
    for _ in range(cursor.u64()):
        pid = cursor.u64()
        yield (None if pid == wf.NONE_ID else pid), cursor.raw()


@given(_operators_with(_sized_associations))
@settings(max_examples=120, deadline=None)
def test_encode_writes_the_reference_bytes(provenance):
    assert wf.encode_operator(provenance) == _reference_encode_operator(provenance)


@given(_operators_with(_sized_associations))
@settings(max_examples=120, deadline=None)
def test_decode_equals_the_reference_decode(provenance):
    raw = wf.encode_operator(provenance)
    cursor = wf.Cursor(raw)
    decoded = wf.decode_operator(cursor)
    assert cursor.offset == len(raw)
    bag = wf._encode_associations(provenance.associations)
    reference = wf.Cursor(raw, len(raw) - len(bag))
    expected = _reference_decode_associations(reference)
    assert reference.offset == len(raw)
    assert type(decoded.associations) is type(expected)
    if isinstance(expected, ReadAssociations):
        assert decoded.associations.ids == expected.ids
    else:
        assert decoded.associations.records == expected.records


@given(st.lists(st.tuples(st.none() | _ids, _items), max_size=20))
@settings(max_examples=80, deadline=None)
def test_row_hop_equals_the_reference_hop(rows):
    raw = wf.encode_rows(rows)
    cursor, reference = wf.Cursor(raw), wf.Cursor(raw)
    assert list(wf.iter_encoded_rows(cursor)) == list(_reference_iter_encoded_rows(reference))
    assert cursor.offset == reference.offset == len(raw)


@given(_operators)
@settings(max_examples=120, deadline=None)
def test_operator_record_round_trip(provenance):
    raw = wf.encode_operator(provenance)
    cursor = wf.Cursor(raw)
    decoded = wf.decode_operator(cursor)
    assert cursor.offset == len(raw), "record must be fully self-delimiting"
    _assert_operators_equal(provenance, decoded)


def _decode_all(raw: bytes) -> dict[int, DataItem]:
    """The sequential whole-block decoder of a framed block, kept here as
    the oracle: ids, frame lengths, then each frame inflated in turn."""
    cursor = wf.Cursor(raw)
    cursor.string()
    count = cursor.u64()
    ids = [cursor.u64() for _ in range(count)]
    payloads = []
    for length in [cursor.u32() for _ in range(-(-count // wf.FRAME_ITEMS))]:
        frame = wf.Cursor(zlib.decompress(raw[cursor.offset : cursor.offset + length]))
        cursor.offset += length
        while frame.offset < len(frame.buffer):
            payloads.append(frame.string())
    assert cursor.offset == len(raw) and len(payloads) == count
    return {item_id: DataItem(json.loads(text)) for item_id, text in zip(ids, payloads)}


def _raw_block(name: str, items: dict[int, DataItem]) -> bytes:
    """A source-item block as layouts 2 and 3 wrote it: ``name | count |
    (id | len | JSON)*``, items in ascending id order."""
    parts = [wf._string(name), wf._u64(len(items))]
    for item_id, item in sorted(items.items()):
        parts.append(wf._u64(item_id) + wf._string(item_to_json(item)))
    return b"".join(parts)


_nasty_text = st.text(max_size=8) | st.sampled_from(
    ['"', "\\", '\\"', "\n\t\x00\x1f", "\u00e9\u4e2d\U0001f600", "\ud800", ""]
)
_nested_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 3) | st.floats(allow_nan=False, allow_infinity=False) | _nasty_text,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(_nasty_text.filter(bool), inner, max_size=3),
    max_leaves=10,
)
_nested_items = st.dictionaries(_nasty_text.filter(bool), _nested_values, max_size=4).map(
    DataItem
)
#: Blocks that fill no frame, one, and spill into the next.
_item_maps = st.integers(min_value=0, max_value=2 * wf.FRAME_ITEMS + 3).flatmap(
    lambda size: st.dictionaries(_ids, _nested_items, min_size=size, max_size=size)
)


@given(st.text(max_size=8), _item_maps, st.data())
@settings(max_examples=120, deadline=None)
def test_source_item_block_reads_items_one_at_a_time(name, items, data):
    raw = wf.encode_source_items(name, items)
    reference = _decode_all(raw)
    assert {k: to_python(v) for k, v in reference.items()} == {
        k: to_python(v) for k, v in items.items()
    }
    block = wf.open_source_items(raw)
    assert block.name == name
    assert block.ids() == sorted(items)
    assert block.decoded == block.inflated == 0, "opening a block inflates and parses nothing"
    probes = data.draw(st.lists(st.sampled_from(sorted(items)), max_size=4)) if items else []
    for item_id in probes:
        assert item_id in block
        assert block.get(item_id) == reference[item_id]
    assert block.decoded == len(set(probes))
    slots = {item_id: slot for slot, item_id in enumerate(sorted(items))}
    assert block.inflated == len({slots[item_id] // wf.FRAME_ITEMS for item_id in probes})
    assert (wf.NONE_ID - 1 in block) == (wf.NONE_ID - 1 in items)
    assert block.all() == reference
    assert block.decoded == len(items)
    assert block.inflated == -(-len(items) // wf.FRAME_ITEMS)


@pytest.mark.parametrize("size", [0, 1, 15, 16, 17, 50])
def test_framed_blocks_round_trip_at_every_frame_boundary(size):
    items = {
        3 * n + 1: DataItem({"n": n, "text": f"item {n}", "tags": ["a"] * (n % 3)})
        for n in range(size)
    }
    raw = wf.encode_source_items("src", items)
    encoded = {item_id: wf._item_json(item) for item_id, item in items.items()}
    for layout, block_raw in ((wf.LAYOUT_VERSION, raw), (3, _raw_block("src", items))):
        block = wf.open_source_items(block_raw, layout)
        assert block.name == "src" and block.ids() == sorted(items)
        assert all(item_id in block for item_id in items) and 0 not in block
        for item_id, item in items.items():
            assert block.peek(item_id) == item
        assert block.decoded == 0, "peek keeps no parsed item"
        assert dict(block.encoded()) == encoded and [i for i, _ in block.encoded()] == sorted(items)
        for item_id, item in items.items():
            assert block.get(item_id) == item
        assert block.decoded == size
        assert block.all() == items
    assert block.inflated == 0, "a raw block has no frame to inflate"
    assert len(raw) < len(_raw_block("src", items)) or size < 4


@given(st.text(max_size=8), _item_maps.filter(bool), st.data())
@settings(max_examples=80, deadline=None)
def test_truncated_source_item_block_raises(name, items, data):
    """Whatever the cut, and whichever layout wrote the block."""
    blocks = ((wf.encode_source_items(name, items), wf.LAYOUT_VERSION), (_raw_block(name, items), 3))
    for raw, layout in blocks:
        cut = data.draw(st.integers(min_value=1, max_value=len(raw)))
        with pytest.raises(ProvenanceError):
            wf.open_source_items(raw[: len(raw) - cut], layout)


@given(_item_maps.filter(bool), st.data())
@settings(max_examples=80, deadline=None)
def test_a_flipped_bit_inside_a_frame_raises_provenance_error(items, data):
    """A damaged frame fails as the warehouse's own error, never as
    ``zlib.error`` or an ``IndexError``, when one of its items is asked
    for.  The one flip that cannot fail is one in the padding bits of a
    frame's last deflate byte: zlib ignores them, and the items read back
    unchanged."""
    intact = wf.encode_source_items("src", items)
    raw = bytearray(intact)
    cursor = wf.Cursor(intact)
    cursor.string()
    cursor.array("Q", cursor.u64())
    lengths = cursor.array("I", -(-len(items) // wf.FRAME_ITEMS))
    ends = list(accumulate(lengths, initial=cursor.offset))[1:]
    position = data.draw(st.integers(min_value=cursor.offset, max_value=len(raw) - 1))
    raw[position] ^= 1 << data.draw(st.integers(min_value=0, max_value=7))
    damaged = wf.open_source_items(bytes(raw))  # the id column and frame table are intact
    assert damaged.ids() == sorted(items)
    frame = next(index for index, end in enumerate(ends) if end > position)
    victim = sorted(items)[frame * wf.FRAME_ITEMS]
    try:
        item = damaged.get(victim)
    except ProvenanceError:
        with pytest.raises(ProvenanceError):
            wf.open_source_items(bytes(raw)).encoded()
    else:
        assert position == ends[frame] - 5, "only the padding of the last deflate byte"
        assert item == items[victim]
        assert damaged.encoded() == wf.open_source_items(intact).encoded()


def test_a_frame_table_that_runs_past_the_block_raises_provenance_error():
    items = {n: DataItem({"n": n}) for n in range(20)}
    raw = wf.encode_source_items("src", items)
    table = len(wf._string("src")) + 8 + 8 * len(items)
    for length in (0, 2**32 - 1):
        damaged = raw[:table] + wf._u32(length) + raw[table + 4 :]
        with pytest.raises(ProvenanceError):
            wf.open_source_items(damaged)
    huge = raw[: len(wf._string("src"))] + wf._u64(2**61) + raw[len(wf._string("src")) + 8 :]
    with pytest.raises(ProvenanceError):
        wf.open_source_items(huge)


@given(st.lists(st.tuples(st.none() | _ids, _items), max_size=6))
@settings(max_examples=80, deadline=None)
def test_rows_round_trip(rows):
    decoded = wf.materialise_rows(_encoded(rows))
    assert len(decoded) == len(rows)
    for (pid, item), (decoded_pid, decoded_item) in zip(rows, decoded):
        assert decoded_pid == pid
        assert to_python(decoded_item) == to_python(item)


@given(_binary)
@example(BinaryAssociations([(0, None, 5), (None, 0, 6), (0, 0, 7)]))
@settings(max_examples=80, deadline=None)
def test_binary_id_zero_never_conflated_with_none(bag):
    """id 0 and "no match" survive as distinct values (the historic bug)."""
    operator = OperatorProvenance(1, "union", [InputRef(None, UNDEFINED)], UNDEFINED, bag)
    decoded = wf.decode_operator(wf.Cursor(wf.encode_operator(operator)))
    assert list(decoded.associations.records) == list(bag.records)


def test_aggregation_varying_widths_round_trip():
    """Multi-input aggregation records with different widths stay aligned."""
    bag = AggregationAssociations([((), 1), ((7,), 2), ((3, 0, 9), 4)])
    operator = OperatorProvenance(2, "aggregate", [InputRef(1, UNDEFINED)], UNDEFINED, bag)
    decoded = wf.decode_operator(wf.Cursor(wf.encode_operator(operator)))
    assert list(decoded.associations.records) == [((), 1), ((7,), 2), ((3, 0, 9), 4)]


@given(_operators_with(_sized_associations))
@settings(max_examples=60, deadline=None)
def test_truncated_record_raises_not_garbage(provenance):
    """Every cut, from one byte to the whole record."""
    raw = wf.encode_operator(provenance)
    for cut in range(1, len(raw) + 1):
        with pytest.raises(ProvenanceError):
            wf.decode_operator(wf.Cursor(raw[: len(raw) - cut]))


@given(st.lists(st.tuples(st.none() | _ids, _items), max_size=6))
@settings(max_examples=60, deadline=None)
def test_truncated_rows_payload_raises(rows):
    """Every cut of a rows payload fails while it is hopped, never yields
    a partial row."""
    raw = wf.encode_rows(rows)
    for cut in range(1, len(raw) + 1):
        with pytest.raises(ProvenanceError):
            wf.materialise_rows(wf.iter_encoded_rows(wf.Cursor(raw[: len(raw) - cut])))


def _reframed(items: dict[int, DataItem], plain: bytes) -> bytes:
    """A one-frame block over *items* whose frame inflates to *plain*."""
    frame = zlib.compress(plain)
    ids = sorted(items)
    return b"".join(
        (
            wf._string("src"),
            wf._u64(len(ids)),
            struct.pack(f"<{len(ids)}Q", *ids),
            wf._u32(len(frame)),
            frame,
        )
    )


@given(st.dictionaries(_ids, _items, min_size=1, max_size=wf.FRAME_ITEMS))
@settings(max_examples=40, deadline=None)
def test_a_frame_whose_item_lengths_overrun_it_raises(items):
    """Cut the inflated frame anywhere, or leave bytes past its items: the
    block opens (its id column is intact), and asking for an item raises."""
    plain = b"".join(wf._string(wf._item_json(items[item_id]).decode()) for item_id in sorted(items))
    assert wf.open_source_items(_reframed(items, plain)).all() == items
    first = min(items)
    for damaged in [plain[: len(plain) - cut] for cut in range(1, len(plain) + 1)] + [plain + b"\0"]:
        block = wf.open_source_items(_reframed(items, damaged))
        with pytest.raises(ProvenanceError):
            block.get(first)


_HUGE = 2**63


@pytest.mark.parametrize("kind", range(1, 6))
def test_a_count_of_two_to_the_63_raises_and_allocates_nothing(kind):
    """An association count no buffer could hold fails at once."""
    operator = OperatorProvenance(1, "op", [], UNDEFINED, ReadAssociations([]))
    prefix = wf.encode_operator(operator)[:-9]  # all but kind and count
    raw = prefix + wf._u8(kind) + wf._u64(_HUGE) + bytes(64)
    tracemalloc.start()
    try:
        with pytest.raises(ProvenanceError):
            wf.decode_operator(wf.Cursor(raw))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_a_rows_or_raw_block_count_of_two_to_the_63_raises_and_allocates_nothing():
    rows = wf._u64(_HUGE) + wf._u64(1) + wf._u32(2) + b"{}"
    block = wf._string("src") + rows
    tracemalloc.start()
    try:
        with pytest.raises(ProvenanceError):
            wf.materialise_rows(wf.iter_encoded_rows(wf.Cursor(rows)))
        with pytest.raises(ProvenanceError):
            wf.open_source_items(block, 3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_oversized_id_rejected_at_encode_time():
    bag = BinaryAssociations([(wf.NONE_ID, None, 1)])
    operator = OperatorProvenance(1, "union", [InputRef(None, UNDEFINED)], UNDEFINED, bag)
    with pytest.raises(ProvenanceError):
        wf.encode_operator(operator)


# -- the raw-byte row prefilter ------------------------------------------------

#: A small vocabulary so constants collide with values, keys and each other.
_WORDS = ["a", "b", "a b", 'q"uote', "back\\slash", "é中", "\n\x01", "", "1", "true", "null"]
_ATTRS = ["a", "b", "labels", "items", "x"]
_row_constants = (
    st.sampled_from(_WORDS) | st.sampled_from([0, 1, 2, 1.0, 2.5, True, False, None])
)
_row_structs = st.dictionaries(st.sampled_from(_ATTRS), _row_constants, max_size=3)
_row_values = (
    _row_constants
    | st.lists(_row_constants, max_size=3)  # collection of constants (may be empty)
    | st.lists(_row_structs, max_size=3)  # collection of structs
    | st.dictionaries(
        st.sampled_from(_ATTRS), _row_constants | st.lists(_row_structs, max_size=2), max_size=3
    )
)
_rows = st.lists(
    st.tuples(
        st.none() | st.integers(min_value=0, max_value=50),
        st.dictionaries(st.sampled_from(_ATTRS), _row_values, min_size=1, max_size=4).map(DataItem),
    ),
    max_size=6,
)


def _is_text(value) -> bool:
    return isinstance(value, str)


_pattern_nodes = st.recursive(
    st.builds(
        PatternNode,
        st.sampled_from(_ATTRS + ["*"]),
        edge=st.sampled_from([Edge.CHILD, Edge.DESCENDANT]),
        equals=st.just(NO_EQUALS) | _row_constants,
        predicate=st.none() | st.just(_is_text),
        count=st.sampled_from([None, None, (0, 0), (0, 1), (0, 2), (1, None), (1, 1), (2, 2)]),
    ),
    lambda inner: st.builds(
        PatternNode,
        st.sampled_from(_ATTRS + ["*"]),
        edge=st.sampled_from([Edge.CHILD, Edge.DESCENDANT]),
        count=st.sampled_from([None, None, (0, 0), (0, 2), (1, None), (2, 2)]),
        children=st.lists(inner, min_size=1, max_size=2),
    ),
    max_leaves=4,
)
_patterns = st.lists(_pattern_nodes, min_size=1, max_size=2).map(TreePattern)


def _encoded(rows):
    return list(wf.iter_encoded_rows(wf.Cursor(wf.encode_rows(rows))))


class _RowsOnly:
    """What :class:`StoredRun` reads of its store to match rows."""

    run_id = "rows"

    def __init__(self, encoded):
        self._encoded = encoded
        self._lock = threading.RLock()
        self.metrics = SegmentCacheMetrics()

    def encoded_rows(self):
        return iter(self._encoded)


def match_encoded_rows(pattern, encoded):
    """A stored run's matches over *encoded* rows, and how many it parsed."""
    run = StoredRun(_RowsOnly(encoded))
    return run.match(pattern), run.store.metrics.rows_decoded


@given(_rows, _patterns)
@settings(max_examples=400, deadline=None)
def test_prefilter_never_changes_the_matches(rows, pattern):
    """Matching over encoded rows == ``match_rows`` over materialised rows:
    same ids, same paths, same order, whatever the pattern's shape."""
    encoded = _encoded(rows)
    expected = match_rows(pattern, wf.materialise_rows(encoded))
    matches, decoded = match_encoded_rows(pattern, encoded)
    assert [(m.item_id, m.paths) for m in matches] == [
        (m.item_id, m.paths) for m in expected
    ]
    assert len(matches) <= decoded <= len(rows)


def test_prefilter_needles_come_from_required_string_constants_only():
    pattern = parse_pattern(
        'root{/a="x", //b{/c="y"[2,2], /d="gone"[0,0]}, /e[0,3]{/f="maybe"}, /g=1, /h=true, /i=null}'
    )
    assert sorted(required_constants(pattern)) == ["x", "y"]
    # Predicates and wildcards add nothing; a wildcard's own constant counts.
    pattern = TreePattern(
        [PatternNode("*", equals="k"), PatternNode("p", predicate=_is_text), PatternNode("n", equals=1.0)]
    )
    assert required_constants(pattern) == ["k"]


def test_prefilter_skips_rows_without_the_constant():
    rows = [(i, DataItem({"user": f"u{i}", "labels": ["a", 'q"uote'], "n": i})) for i in range(20)]
    matches, decoded = match_encoded_rows(parse_pattern('root{/user="u7"}'), _encoded(rows))
    assert [m.item_id for m in matches] == [7] and decoded == 1
    matches, decoded = match_encoded_rows(parse_pattern('root{/labels="q\\"uote", /n=3}'), _encoded(rows))
    assert [m.item_id for m in matches] == [3] and decoded == 20
    # Negation is not a requirement: rows lacking the constant are the matches.
    matches, decoded = match_encoded_rows(parse_pattern('root{/user="u7"[0,0]}'), _encoded(rows))
    assert len(matches) == 19 and decoded == 20
