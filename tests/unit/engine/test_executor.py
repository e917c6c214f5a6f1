"""Unit tests for the executor: plain semantics and capture per operator."""

import pytest

from repro.core.operator_provenance import (
    AggregationAssociations,
    BinaryAssociations,
    FlattenAssociations,
    ReadAssociations,
    UnaryAssociations,
)
from repro.engine.executor import Executor
from repro.engine.expressions import col, collect_list, collect_set, count, struct_, sum_
from repro.engine.session import Session
from repro.errors import ExecutionError, PlanError, SchemaMismatchError
from repro.nested.values import Bag, DataItem, NestedSet


@pytest.fixture
def session():
    return Session()


def _items(dataset):
    return dataset.collect()


class TestRead:
    def test_items_and_order(self, session):
        data = [{"a": index} for index in range(7)]
        assert _items(session.create_dataset(data, "in")) == [DataItem(a=index) for index in range(7)]

    def test_capture_assigns_sequential_ids(self, session):
        ds = session.create_dataset([{"a": 1}, {"a": 2}], "in")
        execution = ds.execute(capture=True)
        assert [pid for pid, _ in execution.rows()] == [1, 2]
        provenance = execution.store.get(ds.plan.oid)
        assert isinstance(provenance.associations, ReadAssociations)
        assert execution.store.source_items(ds.plan.oid)[2] == DataItem(a=2)


class TestFilter:
    def test_semantics(self, session):
        ds = session.create_dataset([{"a": 1}, {"a": 2}, {"a": 3}], "in")
        kept = _items(ds.filter(col("a") >= 2))
        assert [item["a"] for item in kept] == [2, 3]

    def test_capture_associations(self, session):
        ds = session.create_dataset([{"a": 1}, {"a": 2}], "in").filter(col("a") == 2)
        execution = ds.execute(capture=True)
        provenance = execution.store.get(ds.plan.oid)
        assert isinstance(provenance.associations, UnaryAssociations)
        assert provenance.associations.records == [(2, 3)]
        assert {str(p) for p in provenance.input(0).accessed} == {"a"}
        assert provenance.manipulations_or_empty() == ()


class TestSelect:
    def test_projection_and_rename(self, session):
        ds = session.create_dataset([{"user": {"id_str": "lp"}, "x": 1}], "in")
        out = _items(ds.select(col("user.id_str").alias("uid"), col("x")))
        assert out == [DataItem(uid="lp", x=1)]

    def test_struct_output(self, session):
        ds = session.create_dataset([{"a": 1, "b": 2}], "in")
        out = _items(ds.select(struct_(a=col("a")).alias("s"), col("b")))
        assert out == [DataItem(s=DataItem(a=1), b=2)]

    def test_missing_attribute_yields_null(self, session):
        ds = session.create_dataset([{"a": 1}], "in")
        assert _items(ds.select(col("missing")))[0]["missing"] is None

    def test_capture_manipulations(self, session):
        ds = session.create_dataset([{"user": {"id_str": "lp"}}], "in").select(col("user.id_str"))
        execution = ds.execute(capture=True)
        provenance = execution.store.get(ds.plan.oid)
        rendered = [(str(a), str(b)) for a, b in provenance.manipulations_or_empty()]
        assert rendered == [("user.id_str", "id_str")]


class TestMap:
    def test_semantics_and_coercion(self, session):
        ds = session.create_dataset([{"a": 2}], "in").map(lambda item: {"b": item["a"] * 2})
        assert _items(ds) == [DataItem(b=4)]

    def test_non_item_result_rejected(self, session):
        ds = session.create_dataset([{"a": 2}], "in").map(lambda item: 42)
        with pytest.raises(ExecutionError, match="must return a data item"):
            ds.collect()

    def test_udf_error_wrapped(self, session):
        def boom(item):
            raise ValueError("boom")

        ds = session.create_dataset([{"a": 1}], "in").map(boom, "boom")
        with pytest.raises(ExecutionError, match="boom"):
            ds.collect()

    def test_capture_marks_undefined(self, session):
        ds = session.create_dataset([{"a": 1}], "in").map(lambda item: item)
        execution = ds.execute(capture=True)
        provenance = execution.store.get(ds.plan.oid)
        assert provenance.manipulations_undefined()
        assert provenance.input(0).schema is not None


class TestFlatten:
    def test_semantics_keep_original_attribute(self, session):
        ds = session.create_dataset([{"a": 1, "tags": ["x", "y"]}], "in").flatten("tags", "tag")
        out = _items(ds)
        assert [item["tag"] for item in out] == ["x", "y"]
        assert all(isinstance(item["tags"], Bag) for item in out)

    def test_empty_collection_dropped_by_default(self, session):
        ds = session.create_dataset([{"a": 1, "tags": []}], "in").flatten("tags", "tag")
        assert _items(ds) == []

    def test_outer_keeps_with_null(self, session):
        ds = session.create_dataset([{"a": 1, "tags": []}], "in").flatten("tags", "tag", outer=True)
        out = _items(ds)
        assert out[0]["tag"] is None

    def test_null_collection_treated_as_empty(self, session):
        ds = session.create_dataset([{"a": 1, "tags": None}], "in").flatten("tags", "tag")
        assert _items(ds) == []

    def test_non_collection_rejected(self, session):
        ds = session.create_dataset([{"tags": 5}], "in").flatten("tags", "tag")
        with pytest.raises(ExecutionError, match="not a collection"):
            ds.collect()

    def test_name_clash_rejected(self, session):
        ds = session.create_dataset([{"a": 1, "tags": ["x"]}], "in").flatten("tags", "a")
        with pytest.raises(PlanError, match="already exists"):
            ds.collect()

    def test_capture_positions(self, session):
        ds = session.create_dataset([{"tags": ["x", "y"]}], "in").flatten("tags", "tag")
        execution = ds.execute(capture=True)
        provenance = execution.store.get(ds.plan.oid)
        assert isinstance(provenance.associations, FlattenAssociations)
        assert [(id_in, pos) for id_in, pos, _ in provenance.associations.records] == [
            (1, 1),
            (1, 2),
        ]

    def test_flatten_set_attribute(self, session):
        ds = session.create_dataset([{"tags": {"b", "a"}}], "in").flatten("tags", "tag")
        assert sorted(item["tag"] for item in _items(ds)) == ["a", "b"]


class TestUnion:
    def test_semantics_order(self, session):
        left = session.create_dataset([{"a": 1}], "left")
        right = session.create_dataset([{"a": 2}], "right")
        assert [item["a"] for item in _items(left.union(right))] == [1, 2]

    def test_schema_mismatch_rejected(self, session):
        left = session.create_dataset([{"a": 1}], "left")
        right = session.create_dataset([{"a": "x"}], "right")
        with pytest.raises(SchemaMismatchError):
            left.union(right).collect()

    def test_capture_one_side_undefined(self, session):
        left = session.create_dataset([{"a": 1}], "left")
        right = session.create_dataset([{"a": 2}], "right")
        union = left.union(right)
        execution = union.execute(capture=True)
        provenance = execution.store.get(union.plan.oid)
        assert isinstance(provenance.associations, BinaryAssociations)
        sides = [(id1 is None, id2 is None) for id1, id2, _ in provenance.associations.records]
        assert sides == [(False, True), (True, False)]


class TestJoin:
    def test_equi_join(self, session):
        left = session.create_dataset([{"k": 1, "l": "a"}, {"k": 2, "l": "b"}], "left")
        right = session.create_dataset([{"fk": 2, "r": "x"}], "right")
        out = _items(left.join(right, col("k") == col("fk")))
        assert out == [DataItem(k=2, l="b", fk=2, r="x")]

    def test_theta_join_fallback(self, session):
        left = session.create_dataset([{"k": 1}, {"k": 5}], "left")
        right = session.create_dataset([{"t": 3}], "right")
        out = _items(left.join(right, col("k") > col("t")))
        assert out == [DataItem(k=5, t=3)]

    def test_name_clash_rejected(self, session):
        left = session.create_dataset([{"k": 1}], "left")
        right = session.create_dataset([{"k": 1}], "right")
        with pytest.raises(PlanError, match="share attribute names"):
            left.join(right, col("k") == col("k")).collect()

    def test_conjunctive_equi_join(self, session):
        left = session.create_dataset([{"k1": 1, "k2": "a"}, {"k1": 1, "k2": "b"}], "left")
        right = session.create_dataset([{"f1": 1, "f2": "b"}], "right")
        out = _items(
            left.join(right, (col("k1") == col("f1")) & (col("k2") == col("f2")))
        )
        assert [item["k2"] for item in out] == ["b"]

    def test_capture_condition_paths_per_side(self, session):
        left = session.create_dataset([{"k": 1}], "left")
        right = session.create_dataset([{"fk": 1}], "right")
        join = left.join(right, col("k") == col("fk"))
        execution = join.execute(capture=True)
        provenance = execution.store.get(join.plan.oid)
        assert {str(p) for p in provenance.input(0).accessed} == {"k"}
        assert {str(p) for p in provenance.input(1).accessed} == {"fk"}

    def test_join_duplicates_left_rows(self, session):
        left = session.create_dataset([{"k": 1, "l": "a"}], "left")
        right = session.create_dataset([{"fk": 1, "r": 1}, {"fk": 1, "r": 2}], "right")
        out = _items(left.join(right, col("k") == col("fk")))
        assert len(out) == 2


class TestAggregate:
    def test_group_and_collect(self, session):
        data = [
            {"grp": "a", "v": 1},
            {"grp": "b", "v": 2},
            {"grp": "a", "v": 3},
        ]
        ds = (
            session.create_dataset(data, "in")
            .group_by(col("grp"))
            .agg(collect_list(col("v")).alias("vs"), sum_(col("v")).alias("total"), count())
        )
        out = {item["grp"]: item for item in _items(ds)}
        assert out["a"]["vs"] == Bag([1, 3])
        assert out["a"]["total"] == 4
        assert out["a"]["count"] == 2
        assert out["b"]["total"] == 2

    def test_collect_preserves_input_order(self, session):
        data = [{"grp": 1, "v": index} for index in range(10)]
        ds = session.create_dataset(data, "in").group_by(col("grp")).agg(
            collect_list(col("v")).alias("vs")
        )
        assert _items(ds)[0]["vs"] == Bag(list(range(10)))

    def test_collect_set(self, session):
        data = [{"grp": 1, "v": "x"}, {"grp": 1, "v": "x"}, {"grp": 1, "v": "y"}]
        ds = session.create_dataset(data, "in").group_by(col("grp")).agg(
            collect_set(col("v")).alias("vs")
        )
        assert _items(ds)[0]["vs"] == NestedSet(["x", "y"])

    def test_struct_group_key(self, session):
        data = [
            {"user": {"id": "a"}, "v": 1},
            {"user": {"id": "a"}, "v": 2},
            {"user": {"id": "b"}, "v": 3},
        ]
        ds = session.create_dataset(data, "in").group_by(col("user")).agg(count())
        out = {item["user"]["id"]: item["count"] for item in _items(ds)}
        assert out == {"a": 2, "b": 1}

    def test_capture_group_member_ids_in_order(self, session):
        data = [{"grp": 1, "v": "x"}, {"grp": 1, "v": "y"}]
        ds = session.create_dataset(data, "in").group_by(col("grp")).agg(
            collect_list(col("v")).alias("vs")
        )
        execution = ds.execute(capture=True)
        provenance = execution.store.get(ds.plan.oid)
        assert isinstance(provenance.associations, AggregationAssociations)
        [(ids_in, _)] = provenance.associations.records
        assert ids_in == (1, 2)  # i-th id <-> i-th collected element


class TestExecutorInfrastructure:
    def test_shared_subplan_executes_once(self, session):
        base = session.create_dataset([{"a": 1}], "in")
        union = base.union(base)
        execution = union.execute(capture=True)
        # One read operator only: the same source id feeds both union sides.
        read_provenance = execution.store.get(base.plan.oid)
        assert len(read_provenance.associations) == 1
        assert len(execution) == 2

    def test_metrics_populated(self, session):
        ds = session.create_dataset([{"a": 1}], "in").filter(col("a") == 1)
        execution = ds.execute()
        labels = {metric.op_type for metric in execution.metrics.operators()}
        assert labels == {"read", "filter"}
        assert execution.metrics.total_seconds >= 0

    def test_lineage_only_mode_drops_structure(self, session):
        ds = session.create_dataset([{"a": 1, "tags": ["x"]}], "in").flatten("tags", "t")
        execution = Executor(capture=True, lineage_only=True).execute(ds.plan)
        provenance = execution.store.get(ds.plan.oid)
        assert provenance.manipulations_or_empty() == ()
        assert provenance.input(0).accessed_or_empty() == frozenset()

    def test_single_partition(self):
        session = Session()
        ds = session.create_dataset([{"a": index} for index in range(5)], "in")
        assert len(ds.filter(col("a") > 2).collect()) == 2

    def test_first_error_in_submission_order_wins(self):
        """Items 1 and 2 both fail; the run raises item 1's error and stops."""
        calls = []

        def fail_in_middle(item):
            calls.append(item["p"])
            if item["p"] in (1, 2):
                raise ValueError(f"item {item['p']} failed")
            return item

        session = Session()
        ds = session.create_dataset([{"p": part} for part in range(4)], "in")
        with pytest.raises(ExecutionError, match="item 1 failed"):
            ds.map(fail_in_middle).collect()
        assert calls == [0, 1]
