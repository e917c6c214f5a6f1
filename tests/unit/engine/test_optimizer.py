"""Unit tests for the rewrite rules: filter pushdown and projection pruning."""

import pytest

from repro.engine.config import EngineConfig
from repro.engine.expressions import col, struct_
from repro.engine.optimizer import (
    OptimizationReport,
    plan_physical,
    prune_attribute_sets,
    pushdown_filters,
)
from repro.engine.plan import FilterNode, FlattenNode, SelectNode
from repro.engine.session import Session


@pytest.fixture
def session():
    return Session()


def _rows():
    return [
        {"a": index, "b": index * 10, "c": -index, "tags": ["x", "y"]}
        for index in range(10)
    ]


def _pushdown(plan):
    report = OptimizationReport()
    return pushdown_filters(plan, report), report


class TestFilterPushdown:
    def test_filter_moves_below_select(self, session):
        ds = (
            session.create_dataset(_rows(), "in")
            .select(col("a"), col("b"))
            .filter(col("a") >= 5)
        )
        rewritten, report = _pushdown(ds.plan)
        assert isinstance(rewritten, SelectNode)
        assert isinstance(rewritten.children[0], FilterNode)
        assert "pushdown" in report.rules_fired()
        # Every logical operator keeps its oid; only the edges are rewired.
        assert {node.oid for node in rewritten.walk()} == {
            node.oid for node in ds.plan.walk()
        }
        assert _execute(ds, optimize=True) == _execute(ds, optimize=False)

    def test_predicate_rewritten_through_alias(self, session):
        ds = (
            session.create_dataset(_rows(), "in")
            .select(col("a").alias("renamed"), col("b"))
            .filter(col("renamed") >= 5)
        )
        rewritten, report = _pushdown(ds.plan)
        assert "pushdown" in report.rules_fired()
        pushed = rewritten.children[0]
        assert isinstance(pushed, FilterNode)
        assert "renamed" not in repr(pushed.predicate)  # rewritten to col(a)
        assert _execute(ds, optimize=True) == _execute(ds, optimize=False)

    def test_filter_moves_below_flatten_when_independent(self, session):
        ds = (
            session.create_dataset(_rows(), "in")
            .flatten("tags", "tag")
            .filter(col("a") >= 5)
        )
        rewritten, _ = _pushdown(ds.plan)
        assert isinstance(rewritten, FlattenNode)
        assert isinstance(rewritten.children[0], FilterNode)

    def test_filter_on_flattened_attr_stays_put(self, session):
        ds = (
            session.create_dataset(_rows(), "in")
            .flatten("tags", "tag")
            .filter(col("tag") == "x")
        )
        rewritten, report = _pushdown(ds.plan)
        assert isinstance(rewritten, FilterNode)
        assert "pushdown" not in report.rules_fired()

    def test_filter_on_computed_struct_stays_put(self, session):
        ds = (
            session.create_dataset(_rows(), "in")
            .select(struct_(a=col("a")).alias("s"), col("b"))
            .filter(col("s") == {"a": 1})
        )
        rewritten, report = _pushdown(ds.plan)
        assert isinstance(rewritten, FilterNode)
        assert "pushdown" not in report.rules_fired()

    def test_pushdown_disabled_under_capture(self, session):
        ds = (
            session.create_dataset(_rows(), "in")
            .select(col("a"), col("b"))
            .filter(col("a") >= 5)
        )
        captured = plan_physical(ds.plan, EngineConfig(), capture=True)
        assert "pushdown" not in captured.report.rules_fired()
        assert captured.executed_root is ds.plan
        plain = plan_physical(ds.plan, EngineConfig())
        assert "pushdown" in plain.report.rules_fired()


class TestProjectionPruning:
    def test_select_requirements_reach_the_source(self, session):
        ds = (
            session.create_dataset(_rows(), "in")
            .filter(col("a") >= 2)
            .select(col("b"))
        )
        sets = prune_attribute_sets(ds.plan)
        read_oid = ds.plan.children[0].children[0].oid
        assert sets[read_oid] == frozenset({"a", "b"})

    def test_flatten_new_name_is_protected(self, session):
        ds = (
            session.create_dataset(_rows(), "in")
            .flatten("tags", "tag")
            .select(col("tag"))
        )
        sets = prune_attribute_sets(ds.plan)
        read_oid = ds.plan.children[0].children[0].oid
        assert "tags" in sets[read_oid]
        assert "tag" in sets[read_oid]  # globally protected alias

    def test_map_blocks_pruning(self, session):
        ds = (
            session.create_dataset(_rows(), "in")
            .map(lambda item: item, "noop")
            .select(col("a"))
        )
        sets = prune_attribute_sets(ds.plan)
        read_oid = ds.plan.children[0].children[0].oid
        assert read_oid not in sets  # UDF may read anything

    def test_pruned_execution_matches_unpruned(self, session):
        ds = (
            session.create_dataset(_rows(), "in")
            .filter(col("a") >= 2)
            .select(col("b"))
        )
        assert _execute(ds, optimize=True) == _execute(ds, optimize=False)


class TestReport:
    def test_describe_lists_rules_in_order(self, session):
        report = OptimizationReport()
        assert report.describe() == "(no rewrites applied)"
        report.add("prune", "prune input of oid 2")
        report.add("fuse", "fuse chain starting at oid 2")
        report.add("prune", "prune input of oid 5")
        assert report.rules_fired() == ("prune", "fuse")
        assert "[prune] prune input of oid 2" in report.describe()


def _execute(ds, optimize: bool):
    from repro.engine.executor import Executor

    return Executor(config=EngineConfig(optimize=optimize)).execute(ds.plan).items()
