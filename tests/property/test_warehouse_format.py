"""Property-based round-trips of the warehouse binary segment format.

Random association bags, operator records, source items, and result rows
must survive encode/decode byte cursors unchanged -- including the cases
the historic ``ProvenanceStore.serialize()`` blob got wrong: aggregation
records of varying width (no length prefix), a legitimate id ``0`` on one
side of a binary association, and unmatched outer-join sides (``None``).
"""

import json

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
from repro.errors import ProvenanceError
from repro.nested.json_io import _jsonable
from repro.nested.schema import infer_schema
from repro.nested.types import type_to_obj
from repro.nested.values import DataItem
import repro.warehouse.format as wf
from repro.warehouse.reader import match_encoded_rows

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

_operators = st.builds(
    OperatorProvenance,
    st.integers(min_value=0, max_value=2**32 - 1),
    st.sampled_from(["read", "filter", "select", "flatten", "union", "join", "aggregate"]),
    st.lists(_input_refs, max_size=3),
    _manipulations,
    _associations,
    st.sampled_from([None, "a label", "groupBy(user)"]),
)

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


@given(_operators)
@settings(max_examples=120, deadline=None)
def test_operator_record_round_trip(provenance):
    raw = wf.encode_operator(provenance)
    cursor = wf.Cursor(raw)
    decoded = wf.decode_operator(cursor)
    assert cursor.offset == len(raw), "record must be fully self-delimiting"
    _assert_operators_equal(provenance, decoded)


def _decode_all(raw: bytes) -> dict[int, DataItem]:
    """The sequential whole-block decoder, kept here as the oracle."""
    cursor = wf.Cursor(raw)
    cursor.string()
    return {
        cursor.u64(): DataItem(json.loads(cursor.string()))
        for _ in range(cursor.u64())
    }


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


@given(st.text(max_size=8), st.dictionaries(_ids, _nested_items, max_size=6), st.data())
@settings(max_examples=120, deadline=None)
def test_source_item_block_reads_items_one_at_a_time(name, items, data):
    raw = wf.encode_source_items(name, items)
    reference = _decode_all(raw)
    assert {k: _jsonable(v) for k, v in reference.items()} == {
        k: _jsonable(v) for k, v in items.items()
    }
    block = wf.open_source_items(raw)
    assert block.name == name
    assert block.ids() == sorted(items)
    assert block.decoded == 0, "opening a block parses no item"
    probes = data.draw(st.lists(st.sampled_from(sorted(items)), max_size=4)) if items else []
    for item_id in probes:
        assert item_id in block
        assert block.get(item_id) == reference[item_id]
    assert block.decoded == len(set(probes))
    assert (wf.NONE_ID - 1 in block) == (wf.NONE_ID - 1 in items)
    assert block.all() == reference
    assert block.decoded == len(items)


@given(
    st.text(max_size=8),
    st.dictionaries(_ids, _nested_items, min_size=1, max_size=4),
    st.integers(min_value=1, max_value=40),
)
@settings(max_examples=80, deadline=None)
def test_truncated_source_item_block_raises(name, items, cut):
    raw = wf.encode_source_items(name, items)
    with pytest.raises(ProvenanceError):
        wf.open_source_items(raw[: max(0, len(raw) - cut)])


@given(st.lists(st.tuples(st.none() | _ids, _items), max_size=6))
@settings(max_examples=80, deadline=None)
def test_rows_round_trip(rows):
    decoded = wf.materialise_rows(_encoded(rows))
    assert len(decoded) == len(rows)
    for (pid, item), (decoded_pid, decoded_item) in zip(rows, decoded):
        assert decoded_pid == pid
        assert _jsonable(decoded_item) == _jsonable(item)


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


@given(_operators, st.integers(min_value=1, max_value=16))
@settings(max_examples=60, deadline=None)
def test_truncated_record_raises_not_garbage(provenance, cut):
    raw = wf.encode_operator(provenance)
    if cut >= len(raw):
        cut = len(raw)
    with pytest.raises(ProvenanceError):
        wf.decode_operator(wf.Cursor(raw[: len(raw) - cut]))


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
