"""Unit tests for logical->physical compilation (stages, fusion, schemas)."""

import pytest

from repro.engine.config import EngineConfig
from repro.engine.executor import Executor
from repro.engine.expressions import col, count
from repro.engine.optimizer import plan_physical
from repro.engine.physical import (
    FusedStage,
    PruneOp,
    ReadStage,
    SelectOp,
    WideStage,
)
from repro.engine.session import Session


@pytest.fixture
def session():
    return Session()


def _rows():
    return [{"a": index, "b": -index, "tags": ["x", "y"]} for index in range(8)]


def _compile(dataset, config=None, capture=False):
    return plan_physical(dataset.plan, config or EngineConfig(), capture)


class TestStageShapes:
    def test_read_only_plan_is_one_stage(self, session):
        physical = _compile(session.create_dataset(_rows(), "in"))
        assert [type(stage) for stage in physical.stages] == [ReadStage]

    def test_narrow_chain_fuses_into_one_stage(self, session):
        ds = (
            session.create_dataset(_rows(), "in")
            .filter(col("a") >= 2)
            .select(col("a"), col("tags"))
            .flatten("tags", "tag")
        )
        physical = _compile(ds)
        kinds = [stage.kind for stage in physical.stages]
        assert kinds == ["read", "fused"]
        fused = physical.stages[1]
        assert isinstance(fused, FusedStage)
        assert fused.logical_oids() == (2, 3, 4)

    def test_fusion_off_yields_one_stage_per_operator(self, session):
        ds = session.create_dataset(_rows(), "in").filter(col("a") >= 2).select(col("a"))
        physical = _compile(ds, EngineConfig(optimize=False))
        assert [stage.kind for stage in physical.stages] == ["read", "fused", "fused"]
        assert all(
            len(stage.ops) == 1
            for stage in physical.stages
            if isinstance(stage, FusedStage)
        )

    def test_wide_operators_break_the_pipeline(self, session):
        ds = (
            session.create_dataset(_rows(), "in")
            .filter(col("a") >= 1)
            .group_by(col("a"))
            .agg(count().alias("n"))
            .filter(col("n") >= 1)
        )
        physical = _compile(ds)
        kinds = [stage.kind for stage in physical.stages]
        assert kinds == ["read", "fused", "aggregate", "fused"]
        aggregate = physical.stages[2]
        assert isinstance(aggregate, WideStage)

    def test_stage_wiring_is_consistent(self, session):
        left = session.create_dataset(_rows(), "left").filter(col("a") >= 1)
        right = session.create_dataset(_rows(), "right").select(col("a"))
        physical = _compile(left.union(right))
        produced = set()
        for stage in physical.stages:
            assert all(oid in produced for oid in stage.input_oids())
            produced.add(stage.output_oid)
        assert physical.root_oid in produced


class TestSchemas:
    def test_pure_chain_propagates_attrs_statically(self, session):
        ds = session.create_dataset(_rows(), "in").select(col("a"), col("b")).filter(col("a") >= 0)
        physical = _compile(ds)
        final = physical.stages[-1]
        assert final.static_attrs == ("a", "b")

    def test_udf_poisons_static_schema_until_projection(self, session):
        ds = session.create_dataset(_rows(), "in").map(lambda item: item, "noop")
        mapped = _compile(ds)
        assert mapped.stages[-1].static_attrs is None
        rebuilt = _compile(ds.select(col("a")))
        assert rebuilt.stages[-1].static_attrs == ("a",)

    def test_describe_mentions_every_stage(self, session):
        ds = session.create_dataset(_rows(), "in").filter(col("a") >= 2)
        text = _compile(ds).describe()
        assert "stage 0 [read]" in text
        assert "schema:" in text


class TestPruneInsertion:
    def test_prune_inserted_for_narrow_consumers(self, session):
        ds = session.create_dataset(_rows(), "in").filter(col("a") >= 2).select(col("a"))
        physical = _compile(ds)
        fused = physical.stages[1]
        assert isinstance(fused.ops[0], PruneOp)
        assert fused.ops[0].keep == frozenset({"a"})

    def test_prune_skipped_when_chain_starts_with_select(self, session):
        ds = session.create_dataset(_rows(), "in").select(col("a"))
        physical = _compile(ds)
        fused = physical.stages[1]
        assert isinstance(fused.ops[0], SelectOp)
        assert not any(isinstance(op, PruneOp) for op in fused.ops)


class TestLimitPrefix:
    """On one row list a prefix before a global limit saves nothing: the
    chain stays as written and the limit is one wide stage after it."""

    def test_limit_is_one_wide_stage_after_the_chain(self, session):
        ds = session.create_dataset(_rows(), "in").filter(col("a") >= 0).limit(3)
        for capture in (False, True):
            physical = _compile(ds, capture=capture)
            fused, limit = physical.stages[1:]
            assert isinstance(fused, FusedStage)
            assert [op.describe() for op in fused.ops] == [ds.plan.children[0].label()]
            assert isinstance(limit, WideStage) and limit.kind == "limit"
        assert ds.execute().items() == ds.execute(capture=True).items()

    def test_compile_via_executor(self, session):
        ds = session.create_dataset(_rows(), "in").filter(col("a") >= 2)
        physical = Executor(config=session.config).compile(ds.plan)
        assert physical.logical_root is ds.plan
