"""Schema inference against "type every value, then unify", by definition.

``infer_type`` / ``infer_schema`` / ``check_same_type`` intern their types,
keep each value's type on the value and memoize ``unify``;
:mod:`tests.oracle.naive_types` types every value on its own, every time,
over plain ``type_to_obj``-shaped data.  The two must agree through
``type_to_obj`` -- field order included, since the schema is serialised into
every operator segment -- and the same inputs must raise
:class:`TypeInferenceError`.  The memo gets its own properties: children
shared by several items, values typed alone before a wider fold meets them,
and the same objects folded in several orders.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import TypeInferenceError
from repro.nested.schema import infer_schema
from repro.nested.types import (
    DOUBLE,
    INT,
    NULL,
    STRING,
    BagType,
    SetType,
    StructType,
    check_same_type,
    infer_type,
    type_to_obj,
)
from repro.nested.values import Bag, DataItem, NestedSet, coerce_value

from tests.oracle.naive_types import infer_struct_naive, infer_type_naive, unify_all_naive

# -- strategies ---------------------------------------------------------------
# A sample is drawn from one random *shape*, so most samples type: fields go
# missing, turn up late and in another order, are null, hold an empty bag, or
# mix ints with doubles.  Now and then a value ignores its shape, which is
# what makes some samples untypable.

_names = ["a", "b", "c", "d", "e"]
_floats = st.floats(allow_nan=False, allow_infinity=False, width=32)
_misfits = st.one_of(st.sampled_from(["x", True]), st.lists(st.integers(0, 2), max_size=2))


def _shapes(depth: int):
    leaves = st.sampled_from(["number", "string", "boolean", "set"])
    if depth == 0:
        return leaves
    inner = _shapes(depth - 1)
    return st.one_of(
        leaves,
        st.tuples(st.just("bag"), inner),
        st.dictionaries(st.sampled_from(_names), inner, max_size=4),
    )


def _conforming(shape):
    if shape == "number":
        fitting = st.one_of(st.integers(-5, 5), st.integers(-5, 5), _floats)
    elif shape == "string":
        fitting = st.sampled_from(["x", "y"])
    elif shape == "boolean":
        fitting = st.booleans()
    elif shape == "set":
        fitting = st.frozensets(st.one_of(st.integers(0, 3), _floats), max_size=3)
    elif isinstance(shape, tuple):
        fitting = st.lists(_conforming(shape[1]), max_size=3)
    else:
        fitting = _structs(shape)
    return st.one_of(*[fitting] * 12, *[st.none()] * 3, _misfits)


def _structs(shape: dict):
    """Dicts over a subset of the shape's fields, in any key order."""
    fields = st.fixed_dictionaries(
        {}, optional={name: _conforming(inner) for name, inner in shape.items()}
    )
    return fields.flatmap(lambda raw: st.permutations(list(raw.items())).map(dict))


_samples = (
    st.dictionaries(st.sampled_from(_names), _shapes(2), max_size=5)
    .flatmap(lambda shape: st.lists(_structs(shape), max_size=6))
    .map(lambda sample: [DataItem(raw) for raw in sample])
)
_values = _shapes(2).flatmap(_conforming).map(coerce_value)


def _outcome(compute):
    try:
        return compute()
    except TypeInferenceError:
        return TypeInferenceError


def _tau(value):
    return _outcome(lambda: type_to_obj(infer_type(value)))


def _schema(sample):
    return _outcome(lambda: type_to_obj(infer_schema(sample).struct))


# -- properties ---------------------------------------------------------------


@given(_samples)
@settings(max_examples=400, deadline=None)
def test_fold_over_a_sample_equals_unify_all_of_naive_types(sample):
    assert _schema(sample) == _outcome(lambda: infer_struct_naive(sample))


@given(_values)
@settings(max_examples=300, deadline=None)
def test_infer_type_equals_the_naive_tau(value):
    assert _tau(value) == _outcome(lambda: infer_type_naive(value))
    assert _tau(value) == _outcome(lambda: infer_type_naive(value))  # from the memo


@given(_shapes(1).flatmap(lambda shape: st.lists(_conforming(shape), max_size=5)))
@settings(max_examples=200, deadline=None)
def test_check_same_type_equals_unify_all(values):
    values = [coerce_value(value) for value in values]
    expected = _outcome(lambda: unify_all_naive(infer_type_naive(value) for value in values))
    assert _outcome(lambda: type_to_obj(check_same_type(values))) == expected


# -- the memo -----------------------------------------------------------------
# Items share child objects drawn from one pool; some of those children are
# typed alone first; the sample is then folded in several orders, so later
# folds start from memoized types and a memoized ``unify``.


@st.composite
def _shared_samples(draw):
    pool = [coerce_value(raw) for raw in draw(st.lists(_shapes(2).flatmap(_conforming), min_size=1, max_size=4))]
    shape = draw(st.dictionaries(st.sampled_from(_names), _shapes(1), max_size=3))
    items = []
    for raw in draw(st.lists(_structs(shape), max_size=6)):
        pairs = list(raw.items())
        pick = draw(st.none() | st.integers(0, len(pool) - 1))
        if pick is not None:
            pairs.insert(draw(st.integers(0, len(pairs))), ("shared", pool[pick]))
        items.append(DataItem(pairs))
    typed_first = draw(st.lists(st.integers(0, len(pool) - 1), max_size=3))
    return pool, items, typed_first


@given(_shared_samples(), st.randoms(use_true_random=False))
@settings(max_examples=300, deadline=None)
def test_shared_and_pretyped_children_in_any_order_equal_the_naive_types(drawn, rng):
    pool, items, typed_first = drawn
    for position in typed_first:
        assert _tau(pool[position]) == _outcome(lambda: infer_type_naive(pool[position]))
    for order in (items, items[::-1], rng.sample(items, len(items)), items):
        assert _schema(order) == _outcome(lambda: infer_struct_naive(order))
    for item in items:
        assert _tau(item) == _outcome(lambda: infer_type_naive(item))


def test_widening_nulls_missing_fields_and_empty_bags_over_typed_children():
    narrow = DataItem({"k": 1, "m": []})
    wide = DataItem({"m": [DataItem({"z": None})], "k": 2.5, "extra": "x"})
    sparse = DataItem({"k": None})
    for child in (narrow, wide, sparse):
        infer_type(child)  # typed alone, before any fold meets it
    sample = [
        DataItem({"c": narrow, "bag": Bag([narrow, sparse])}),
        DataItem({"c": wide, "bag": Bag([])}),
        DataItem({"c": None, "n": 1}),
        DataItem({"bag": Bag([wide, None, narrow]), "n": 2.0}),
        DataItem({}),
        DataItem({"c": narrow}),
    ]
    for order in (sample, sample[::-1], sample[2:] + sample[:2]):
        assert _schema(order) == infer_struct_naive(order)
    # Field order is first appearance in fold order: ``wide`` leads the bag.
    assert _schema(sample[::-1]) == {
        "struct": [
            ["c", {"struct": [["k", "Double"], ["m", {"bag": {"struct": [["z", "Null"]]}}], ["extra", "String"]]}],
            ["bag", {"bag": {"struct": [["m", {"bag": {"struct": [["z", "Null"]]}}], ["k", "Double"], ["extra", "String"]]}}],
            ["n", "Double"],
        ]
    }
    # Folding a wider accumulator left the narrow child's own type alone.
    assert type_to_obj(infer_type(narrow)) == {"struct": [["k", "Int"], ["m", {"bag": "Null"}]]}


# -- the shapes named in the issue ---------------------------------------------


def _struct(sample):
    return infer_schema([DataItem(raw) for raw in sample]).struct


def test_optional_field_that_first_appears_late_goes_last():
    struct = _struct([{"a": 1}, {"a": 2}, {"b": "x", "a": 3}])
    assert struct.fields == (("a", INT), ("b", STRING))


def test_empty_bag_then_elements_then_empty_again():
    struct = _struct([{"m": []}, {"m": [{"k": 1}]}, {"m": []}, {"m": [{"k": 2.5, "j": None}]}])
    assert struct.fields == (("m", BagType(StructType((("k", DOUBLE), ("j", NULL))))),)


def test_nested_set_and_null_widen_like_a_bag():
    first = DataItem({"s": NestedSet([1, 2])})
    second = DataItem({"s": None})
    third = DataItem({"s": NestedSet([2.5])})
    assert infer_schema([first, second, third]).struct.fields == (("s", SetType(DOUBLE)),)


def test_a_bag_is_not_a_set():
    with pytest.raises(TypeInferenceError, match="cannot unify types"):
        infer_schema([DataItem({"s": NestedSet([1])}), DataItem({"s": Bag([1])})])


@pytest.mark.parametrize(
    "sample",
    [
        [{"a": 1}, {"a": "x"}],
        [{"a": [1, "x"]}],
        [{"a": {"b": 1}}, {"a": [1]}],
        [{"a": True}, {"a": 1}],
        [{"a": [{"b": 1}]}, {"a": [{"b": {"c": 1}}]}],
    ],
)
def test_single_fault_samples_raise_the_same_message(sample):
    items = [DataItem(raw) for raw in sample]
    with pytest.raises(TypeInferenceError) as naive:
        infer_struct_naive(items)
    with pytest.raises(TypeInferenceError) as folded:
        infer_schema(items)
    assert str(folded.value) == str(naive.value)


def test_non_items_are_refused_as_before():
    with pytest.raises(TypeInferenceError, match="dataset items must be data items, got Null"):
        infer_schema([None])
    with pytest.raises(TypeInferenceError, match="cannot type value of 'object'"):
        infer_type(object())
