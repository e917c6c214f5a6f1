"""Unit tests for the Dataset API, session, storage, and metrics."""

import pytest

from repro.engine.dataset import Dataset, GroupedDataset
from repro.engine.expressions import col, count
from repro.engine.metrics import ExecutionMetrics
from repro.engine.session import Session
from repro.engine.storage import InMemorySource, JsonlSource
from repro.errors import DataModelError, ExecutionError, PlanError
from repro.nested.json_io import write_jsonl
from repro.nested.values import DataItem


class TestDatasetApi:
    def test_lazy_transformations(self, session):
        ds = session.create_dataset([{"a": 1}], "in")
        derived = ds.filter(col("a") == 1).select(col("a"))
        assert isinstance(derived, Dataset)
        assert derived.plan.oid != ds.plan.oid

    def test_where_alias(self, session):
        ds = session.create_dataset([{"a": 1}, {"a": 2}], "in")
        assert ds.where(col("a") == 1).count() == 1

    def test_count_and_take(self, session):
        ds = session.create_dataset([{"a": index} for index in range(10)], "in")
        assert ds.count() == 10
        assert ds.take(3) == [DataItem(a=0), DataItem(a=1), DataItem(a=2)]

    def test_select_accepts_strings(self, session):
        ds = session.create_dataset([{"user": {"id_str": "lp"}}], "in")
        assert ds.select("user.id_str").collect() == [DataItem(id_str="lp")]

    def test_show_returns_text(self, session, capsys):
        ds = session.create_dataset([{"a": 1}], "in")
        text = ds.show()
        assert "<a: 1>" in text
        assert "<a: 1>" in capsys.readouterr().out

    def test_explain_lists_operators(self, session):
        ds = session.create_dataset([{"a": 1}], "in").filter(col("a") == 1)
        explained = ds.explain()
        assert "read in" in explained
        assert "filter" in explained

    def test_cross_session_combination_rejected(self):
        first = Session(2).create_dataset([{"a": 1}], "x")
        second = Session(2).create_dataset([{"a": 1}], "y")
        with pytest.raises(PlanError, match="different sessions"):
            first.union(second)

    def test_group_by_requires_aggregates(self, session):
        grouped = session.create_dataset([{"a": 1}], "in").group_by(col("a"))
        assert isinstance(grouped, GroupedDataset)
        with pytest.raises(PlanError, match="aggregate expressions"):
            grouped.agg(col("a"))  # type: ignore[arg-type]

    def test_group_by_string_keys(self, session):
        ds = session.create_dataset([{"a": 1, "b": 2}], "in")
        out = ds.group_by("a").agg(count()).collect()
        assert out[0]["a"] == 1


class TestSession:
    def test_oids_unique_and_increasing(self):
        session = Session(2)
        oids = [session.next_oid() for _ in range(5)]
        assert oids == sorted(set(oids))

    def test_invalid_partitions(self):
        with pytest.raises(ExecutionError):
            Session(0)

    def test_create_dataset_rejects_non_items(self):
        with pytest.raises(DataModelError, match="must be data items"):
            Session(2).create_dataset([1, 2, 3], "nums")


class TestStorage:
    def test_in_memory_source_snapshot(self):
        source = InMemorySource("x", [{"a": 1}])
        assert len(source) == 1
        first = source.load()
        second = source.load()
        assert first == second
        assert first is not second  # fresh list per load

    def test_jsonl_source_rereads_file(self, tmp_path):
        path = tmp_path / "data.jsonl"
        write_jsonl(path, [DataItem(a=1)])
        source = JsonlSource(path)
        assert source.name == "data.jsonl"
        assert source.load() == [DataItem(a=1)]
        write_jsonl(path, [DataItem(a=1), DataItem(a=2)])
        assert len(source.load()) == 2

    def test_session_read_jsonl(self, tmp_path):
        path = tmp_path / "tweets.jsonl"
        write_jsonl(path, [DataItem(text="hi")])
        ds = Session(2).read_jsonl(path, name="tweets")
        assert ds.collect() == [DataItem(text="hi")]


class TestMetrics:
    def test_operator_slot_reused(self):
        metrics = ExecutionMetrics()
        slot = metrics.operator(1, "filter", "filter x")
        assert metrics.operator(1, "filter", "filter x") is slot
