"""Unit tests for the extended operators: distinct, sort, limit, with_column.

Each operator is tested for plain semantics, capture content, and
backtracing behaviour, plus cross-validation against the full model.
"""

import pytest

from repro.core.backtrace.algorithms import Backtracer
from tests.oracle.reference import FullModelInterpreter
from repro.core.paths import parse_path
from repro.core.treepattern.matcher import match_rows, seed_structure
from repro.core.treepattern.parser import parse_pattern
from repro.engine.expressions import col
from repro.errors import PlanError
from repro.nested.values import DataItem


def _trace(execution, pattern_text):
    matches = match_rows(parse_pattern(pattern_text), execution.rows())
    seeds = seed_structure(matches)
    return Backtracer(execution.store).backtrace(execution.root.oid, seeds)


class TestDistinct:
    DATA = [{"a": 1, "b": "x"}, {"a": 1, "b": "x"}, {"a": 2, "b": "y"}]

    def test_semantics(self, session):
        out = session.create_dataset(self.DATA, "in").distinct().collect()
        assert out == [DataItem(a=1, b="x"), DataItem(a=2, b="y")]

    def test_all_duplicates_in_provenance(self, session):
        ds = session.create_dataset(self.DATA, "in").distinct()
        execution = ds.execute(capture=True)
        [source] = _trace(execution, "root{/a=1}")
        assert source.ids() == [1, 2]

    def test_attributes_accessed(self, session):
        ds = session.create_dataset(self.DATA, "in").distinct()
        execution = ds.execute(capture=True)
        [source] = _trace(execution, "root{/a=2}")
        tree = source.structure.tree(3)
        b_node = tree.find(parse_path("b"))
        assert b_node is not None and b_node.access == {ds.plan.oid}

    def test_full_model_agrees(self, session):
        ds = session.create_dataset(self.DATA, "in").distinct()
        full = FullModelInterpreter().run(ds.plan)
        assert sorted(map(repr, full[ds.plan.oid].items())) == sorted(
            map(repr, ds.collect())
        )
        # Two members back the deduplicated (a=1) item.
        entry = next(
            e for e in full[ds.plan.oid].entries if e.item["a"] == 1
        )
        assert len(entry.inputs) == 2


class TestSort:
    DATA = [{"a": 3}, {"a": 1}, {"a": None}, {"a": 2}]

    def test_ascending_nulls_first(self, session):
        out = session.create_dataset(self.DATA, "in").sort(col("a")).collect()
        assert [item["a"] for item in out] == [None, 1, 2, 3]

    def test_descending(self, session):
        out = session.create_dataset(self.DATA, "in").sort(col("a"), descending=True).collect()
        assert [item["a"] for item in out] == [3, 2, 1, None]

    def test_string_key_accepted(self, session):
        out = session.create_dataset(self.DATA, "in").sort("a").collect()
        assert [item["a"] for item in out] == [None, 1, 2, 3]

    def test_keys_marked_accessed(self, session):
        data = [{"a": 2, "b": "x"}, {"a": 1, "b": "y"}]
        ds = session.create_dataset(data, "in").sort(col("a"))
        execution = ds.execute(capture=True)
        [source] = _trace(execution, 'root{/b="x"}')
        tree = source.structure.tree(1)
        a_node = tree.find(parse_path("a"))
        assert a_node is not None
        assert not a_node.contributing
        assert a_node.access == {ds.plan.oid}

    def test_requires_keys(self, session):
        with pytest.raises(PlanError):
            session.create_dataset(self.DATA, "in").sort()

    def test_sort_is_stable(self, session):
        data = [{"k": 1, "tag": index} for index in range(6)]
        out = session.create_dataset(data, "in").sort(col("k")).collect()
        assert [item["tag"] for item in out] == list(range(6))


class TestLimit:
    def test_semantics(self, session):
        data = [{"a": index} for index in range(10)]
        out = session.create_dataset(data, "in").limit(3).collect()
        assert [item["a"] for item in out] == [0, 1, 2]

    def test_limit_zero(self, session):
        assert session.create_dataset([{"a": 1}], "in").limit(0).collect() == []

    def test_limit_beyond_size(self, session):
        assert len(session.create_dataset([{"a": 1}], "in").limit(99).collect()) == 1

    def test_negative_rejected(self, session):
        with pytest.raises(PlanError):
            session.create_dataset([{"a": 1}], "in").limit(-1)

    def test_backtrace(self, session):
        data = [{"a": index} for index in range(10)]
        ds = session.create_dataset(data, "in").sort(col("a"), descending=True).limit(2)
        execution = ds.execute(capture=True)
        [source] = _trace(execution, "root{/a}")
        assert source.ids() == [9, 10]  # the two largest values


class TestWithColumn:
    def test_adds_attribute(self, session):
        ds = session.create_dataset([{"a": 2, "b": 3}], "in").with_column(
            "total", col("a") + col("b")
        )
        assert ds.collect() == [DataItem(a=2, b=3, total=5)]

    def test_replaces_attribute(self, session):
        ds = session.create_dataset([{"a": 2}], "in").with_column("a", col("a") * 10)
        assert ds.collect() == [DataItem(a=20)]

    def test_backtrace_maps_to_inputs(self, session):
        ds = session.create_dataset([{"a": 2, "b": 3, "c": 9}], "in").with_column(
            "total", col("a") + col("b")
        )
        execution = ds.execute(capture=True)
        [source] = _trace(execution, "root{/total=5}")
        tree = source.structure.tree(1)
        assert tree.find(parse_path("a")) is not None
        assert tree.find(parse_path("b")) is not None
        assert tree.find(parse_path("total")) is None

    def test_untouched_attributes_pass_through(self, session):
        ds = session.create_dataset([{"a": 1, "keep": "k"}], "in").with_column(
            "extra", col("a")
        )
        execution = ds.execute(capture=True)
        [source] = _trace(execution, 'root{/keep="k"}')
        tree = source.structure.tree(1)
        keep = tree.find(parse_path("keep"))
        assert keep is not None and keep.contributing

    def test_empty_name_rejected(self, session):
        with pytest.raises(PlanError):
            session.create_dataset([{"a": 1}], "in").with_column("", col("a"))

    def test_full_model_agrees(self, session):
        ds = session.create_dataset([{"a": 2}], "in").with_column("d", col("a") + 1)
        full = FullModelInterpreter().run(ds.plan)
        assert full[ds.plan.oid].items() == ds.collect()


class TestComposition:
    def test_pipeline_mixing_all_new_operators(self, session):
        data = [{"grp": index % 3, "v": index} for index in range(12)]
        data.extend(dict(entry) for entry in data[:4])  # duplicates
        ds = (
            session.create_dataset(data, "in")
            .distinct()
            .with_column("doubled", col("v") * 2)
            .sort(col("doubled"), descending=True)
            .limit(4)
        )
        execution = ds.execute(capture=True)
        out = execution.items()
        assert [item["doubled"] for item in out] == [22, 20, 18, 16]
        [source] = _trace(execution, "root{/doubled=22}")
        assert source.ids() == [12]  # v=11 is the 12th input item
