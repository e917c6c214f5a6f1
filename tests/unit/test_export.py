"""Unit tests for the DOT and JSON exports of plans, provenance and runs."""

import json

import pytest

from repro.core.operator_provenance import (
    AggregationAssociations,
    BinaryAssociations,
    FlattenAssociations,
    ReadAssociations,
    UnaryAssociations,
)
from repro.errors import ProvenanceError
from repro.nested.json_io import _jsonable
from repro.pebble.api import CapturedExecution
from repro.pebble.export import export_execution_json, plan_to_dot, provenance_to_dot
from repro.pebble.query import query_provenance
from repro.workloads.scenarios import (
    RUNNING_EXAMPLE_PATTERN,
    build_running_example,
    load_workload,
    scenario,
)


class TestPlanToDot:
    def test_all_operators_present(self, session, example_tweets):
        pipeline = build_running_example(session, example_tweets)
        dot = plan_to_dot(pipeline.plan)
        assert dot.startswith("digraph pipeline {")
        assert dot.rstrip().endswith("}")
        for oid in range(1, 10):
            assert f"op{oid} " in dot
        # Union has two incoming edges.
        assert "op3 -> op7;" in dot
        assert "op6 -> op7;" in dot

    def test_labels_escaped(self, session):
        from repro.engine.expressions import col

        ds = session.create_dataset([{"a": 'x"y'}], "in").filter(col("a") == 'x"y')
        dot = plan_to_dot(ds.plan)
        assert '\\"' in dot


class TestProvenanceToDot:
    def test_contributing_and_influencing_styles(self, captured_example):
        provenance = query_provenance(captured_example, RUNNING_EXAMPLE_PATTERN)
        dot = provenance_to_dot(provenance)
        assert "subgraph cluster_0" in dot
        assert '"tweets.json (operator 1)"' in dot
        # Contributing nodes solid, influencing nodes dashed.
        assert 'style=filled, fillcolor="#c8e6c9"' in dot
        assert 'style="filled,dashed"' in dot
        # Access/manipulation marks are carried into labels.
        assert "A=2" in dot  # retweet_count accessed by the filter

    def test_empty_sources_render(self, captured_example):
        provenance = query_provenance(captured_example, 'root{//id_str="nobody"}')
        dot = provenance_to_dot(provenance)
        assert dot.count("subgraph") == 2  # both reads, both empty


KINDS = {
    ReadAssociations: "read",
    UnaryAssociations: "unary",
    FlattenAssociations: "flatten",
    BinaryAssociations: "binary",
    AggregationAssociations: "aggregation",
}


class TestExecutionJson:
    """The write-only JSON interchange document (``"format": 1``)."""

    @staticmethod
    def _execution(name, session, example_tweets):
        if name == "example":
            return build_running_example(session, example_tweets).execute(capture=True)
        spec = scenario(name)
        return spec.build(session, load_workload(spec.kind, 0.1)).execute(capture=True)

    @pytest.mark.parametrize("name", ["example", "T1"])
    def test_document_mirrors_the_execution(self, name, session, example_tweets, tmp_path):
        execution = self._execution(name, session, example_tweets)
        store = execution.store
        path = tmp_path / "capture.json"
        CapturedExecution(execution).export_json(path)
        document = json.loads(path.read_text())

        assert document["format"] == 1
        assert document["sink"] == execution.root.oid
        operators = {entry["oid"]: entry for entry in document["operators"]}
        assert sorted(operators) == sorted(op.oid for op in store.operators())
        for provenance in store.operators():
            associations = operators[provenance.oid]["associations"]
            assert operators[provenance.oid]["type"] == provenance.op_type
            assert associations["kind"] == KINDS[type(provenance.associations)]
            records = associations["ids" if associations["kind"] == "read" else "records"]
            assert len(records) == len(provenance.associations)
        sources = {entry["oid"]: entry for entry in document["sources"]}
        assert sources and sorted(sources) == sorted(
            op.oid for op in store.operators() if store.is_source(op.oid)
        )
        for oid, entry in sources.items():
            assert entry["name"] == store.source_name(oid)
            assert entry["items"] == [
                [item_id, _jsonable(item)]
                for item_id, item in sorted(store.source_items(oid).items())
            ]
        assert document["rows"] == [[pid, _jsonable(item)] for pid, item in execution.rows()]
        if name == "example":
            kinds = {entry["associations"]["kind"] for entry in document["operators"]}
            assert {"read", "flatten", "binary", "aggregation"} <= kinds

    def test_plain_execution_rejected(self, session, example_tweets, tmp_path):
        execution = build_running_example(session, example_tweets).execute(capture=False)
        with pytest.raises(ProvenanceError, match="capture-enabled"):
            export_execution_json(execution, tmp_path / "capture.json")
        assert not (tmp_path / "capture.json").exists()
