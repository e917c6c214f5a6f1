"""Unit tests for the type system (paper Sec. 4.1, Tab. 4)."""

import copy
import gc
import itertools
import pickle
import sys
import threading
import weakref

import pytest

from repro.errors import TypeInferenceError
from repro.nested.types import (
    BagType,
    PrimitiveType,
    BOOLEAN,
    DOUBLE,
    INT,
    NULL,
    SetType,
    STRING,
    StructType,
    check_same_type,
    infer_type,
    type_from_obj,
    type_to_obj,
    unify,
    unify_all,
)
from repro.nested.values import Bag, DataItem, NestedSet


class TestInference:
    @pytest.mark.parametrize(
        "value, expected",
        [
            (None, NULL),
            (True, BOOLEAN),
            (3, INT),
            (2.5, DOUBLE),
            ("x", STRING),
        ],
    )
    def test_constants(self, value, expected):
        assert infer_type(value) == expected

    def test_bool_is_not_int(self):
        # Python bools are ints; the model types them as Boolean.
        assert infer_type(True) == BOOLEAN

    def test_struct(self):
        item = DataItem(a=1, b="x")
        assert infer_type(item) == StructType([("a", INT), ("b", STRING)])

    def test_bag(self):
        assert infer_type(Bag([1, 2])) == BagType(INT)

    def test_set(self):
        assert infer_type(NestedSet(["a"])) == SetType(STRING)

    def test_empty_bag_is_null_element(self):
        assert infer_type(Bag([])) == BagType(NULL)

    def test_nested(self):
        item = DataItem(user=DataItem(id_str="lp"), tags=Bag(["a"]))
        expected = StructType(
            [("user", StructType([("id_str", STRING)])), ("tags", BagType(STRING))]
        )
        assert infer_type(item) == expected

    def test_heterogeneous_bag_rejected(self):
        with pytest.raises(TypeInferenceError):
            infer_type(Bag([1, "x"]))

    def test_unsupported_value_rejected(self):
        with pytest.raises(TypeInferenceError):
            infer_type(object())


class TestUnify:
    def test_identical(self):
        assert unify(INT, INT) == INT

    def test_null_unifies_with_anything(self):
        assert unify(NULL, STRING) == STRING
        assert unify(BagType(INT), NULL) == BagType(INT)

    def test_int_widens_to_double(self):
        assert unify(INT, DOUBLE) == DOUBLE
        assert unify(DOUBLE, INT) == DOUBLE

    def test_int_string_rejected(self):
        with pytest.raises(TypeInferenceError, match="cannot unify"):
            unify(INT, STRING)

    def test_struct_fieldwise(self):
        left = StructType([("a", INT)])
        right = StructType([("a", DOUBLE)])
        assert unify(left, right) == StructType([("a", DOUBLE)])

    def test_struct_missing_fields_become_nullable(self):
        left = StructType([("a", INT)])
        right = StructType([("b", STRING)])
        unified = unify(left, right)
        assert unified.field_type("a") == INT
        assert unified.field_type("b") == STRING

    def test_struct_field_order_left_first(self):
        left = StructType([("a", INT), ("c", INT)])
        right = StructType([("b", INT)])
        assert unify(left, right).field_names() == ("a", "c", "b")

    def test_collections_elementwise(self):
        assert unify(BagType(INT), BagType(DOUBLE)) == BagType(DOUBLE)
        assert unify(SetType(NULL), SetType(STRING)) == SetType(STRING)

    def test_bag_set_mismatch_rejected(self):
        with pytest.raises(TypeInferenceError):
            unify(BagType(INT), SetType(INT))

    def test_unify_all_empty_is_null(self):
        assert unify_all([]) == NULL

    def test_check_same_type(self):
        assert check_same_type([1, 2, None]) == INT

    def test_accepts(self):
        assert DOUBLE.accepts(INT)
        assert not INT.accepts(STRING)

    def test_struct_field_type_missing(self):
        with pytest.raises(TypeInferenceError, match="no field"):
            StructType([]).field_type("a")


class TestTypeRendering:
    def test_struct_str(self):
        assert str(StructType([("a", INT)])) == "<a: Int>"

    def test_bag_str(self):
        assert str(BagType(INT)) == "{{Int}}"

    def test_set_str(self):
        assert str(SetType(INT)) == "{Int}"

    def test_hashable(self):
        assert {StructType([("a", INT)]), StructType([("a", INT)])} == {
            StructType([("a", INT)])
        }


_fresh = itertools.count()


def _fresh_name() -> str:
    return f"only_here_{next(_fresh)}"


class TestInterning:
    """Equal types are one object, for as long as something holds it."""

    def test_equal_structure_is_one_object(self):
        fields = [("a", INT), ("tags", BagType(StructType([("id", STRING)])))]
        assert StructType(fields) is StructType(tuple(fields))
        assert StructType(fields) is StructType(list(map(list, fields)))
        assert BagType(INT) is BagType(INT) and SetType(INT) is not BagType(INT)
        assert PrimitiveType("Int") is INT

    def test_pickle_copy_and_obj_round_trips_return_the_type_itself(self):
        nested = StructType([("user", StructType([("id", INT)])), ("tags", SetType(NULL))])
        for typ in (nested, BagType(nested), STRING, StructType()):
            for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
                assert pickle.loads(pickle.dumps(typ, protocol)) is typ
            assert copy.copy(typ) is typ and copy.deepcopy(typ) is typ
            assert type_from_obj(type_to_obj(typ)) is typ

    def test_unpickling_leaves_the_shared_empty_struct_alone(self):
        empty = StructType()
        pickle.loads(pickle.dumps(StructType([("a", INT)])))
        copy.deepcopy(StructType([("b", STRING)]))
        assert empty.fields == () and StructType() is empty and str(empty) == "<>"

    def test_threads_building_the_same_fresh_shape_get_one_object(self):
        names = [_fresh_name() for _ in range(200)]
        built: list[list[StructType]] = [[] for _ in range(8)]
        barrier = threading.Barrier(8, timeout=30)

        def build(out: list[StructType]) -> None:
            barrier.wait()
            for name in names:
                out.append(StructType([(name, BagType(StructType([(name, INT)])))]))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build, args=(out,)) for out in built]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(len(out) == len(names) for out in built)
        for position in range(len(names)):
            assert len({id(out[position]) for out in built}) == 1

    def test_a_type_nothing_holds_leaves_the_table(self):
        name = _fresh_name()
        typ = StructType([(name, BagType(INT))])
        key = typ.fields
        # Its unify memo now holds the type itself: only the collector frees it.
        assert unify(typ, StructType([(name, BagType(NULL))])) is typ
        probe = weakref.ref(typ)
        assert key in StructType._table
        del typ
        gc.collect()
        assert probe() is None and key not in StructType._table

    def test_a_value_keeps_its_type(self):
        item = DataItem(user=DataItem(id_str="lp"), tags=Bag(["a"]))
        typ = infer_type(item)
        assert infer_type(item) is typ and infer_type(item["user"]) is typ.field_type("user")
        assert infer_type(DataItem(user={"id_str": "x"}, tags=["b"])) is typ
