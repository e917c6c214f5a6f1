"""The shared-tree backtracer against the copy-per-item oracle.

The production backtracer keeps trees immutable and interned and edits each
distinct tree once per operator; :mod:`tests.oracle.per_item_backtrace` is
the algorithm it replaced, deep-copying and editing one tree per item.  On
every scenario, on the running example (in memory and through
``Warehouse.backtrace``) and on every plan the capture property suite
generates (with its own pattern and a positional one), the two must render
the same answer and give the same canonical JSON: matched ids and, per
source entry, the contributing and influencing paths (what the benchmark's
``backtrace_digest`` hashes) plus the access and manipulation marks.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.treepattern.matcher import match_rows
from repro.core.treepattern.pattern import TreePattern, child
from repro.engine.session import Session
from repro.pebble.query import as_pattern, query_provenance
from repro.warehouse import Warehouse
from repro.workloads.scenarios import (
    RUNNING_EXAMPLE_PATTERN,
    RUNNING_EXAMPLE_TWEETS,
    SCENARIOS,
    build_running_example,
    load_workload,
)

from tests.oracle.per_item_backtrace import trace
from tests.property.test_capture_properties import _SHAPES, _build, _pattern, _rows

SCALE = 0.2


def canonical(result) -> str:
    """The answer as sorted JSON: ``backtrace_digest``'s fields plus marks."""
    return json.dumps(
        {
            "matched": sorted(result.matched_output_ids),
            "sources": sorted(
                [
                    source.oid,
                    source.name,
                    [
                        [
                            entry.item_id,
                            entry.contributing_paths(),
                            entry.influencing_paths(),
                            entry.accessed_by(),
                            entry.manipulated_by(),
                        ]
                        for entry in source
                    ],
                ]
                for source in result.sources
            ),
        },
        sort_keys=True,
    )


def assert_same(result, oracle) -> None:
    assert result.render() == oracle.render()
    assert canonical(result) == canonical(oracle)


def _example():
    return build_running_example(Session(), [dict(tweet) for tweet in RUNNING_EXAMPLE_TWEETS])


@pytest.fixture(scope="module")
def executions():
    """One captured execution per scenario, plus the running example."""
    captured = {"example": _example().execute(capture=True)}
    for name, spec in SCENARIOS.items():
        captured[name] = spec.build(Session(), load_workload(spec.kind, SCALE)).execute(capture=True)
    return captured


def _pattern_of(name: str) -> str:
    return RUNNING_EXAMPLE_PATTERN if name == "example" else SCENARIOS[name].pattern


_NAMES = ["example", *sorted(SCENARIOS)]


@pytest.mark.parametrize("name", _NAMES)
def test_in_memory_answers_match_the_oracle(executions, name):
    execution = executions[name]
    pattern = as_pattern(_pattern_of(name))
    result = query_provenance(execution, pattern)
    assert any(len(source) for source in result.sources), "an empty answer checks nothing"
    oracle = trace(execution.store, execution.root.oid, match_rows(pattern, execution.rows()))
    assert_same(result, oracle)


@pytest.mark.parametrize("name", _NAMES)
def test_warehouse_answers_match_the_oracle(executions, name, tmp_path):
    run_id = Warehouse.open(tmp_path / "wh").record(executions[name], name=name).run_id
    pattern = _pattern_of(name)
    result, _ = Warehouse.open(tmp_path / "wh").backtrace(run_id, pattern)
    run = Warehouse.open(tmp_path / "wh").load(run_id)
    oracle = trace(run.store, run.store.sink_oid, run.match(pattern))
    assert_same(result, oracle)


#: Beyond the property suite's own pattern: one that names collected
#: elements by position, so aggregation edits are keyed per position.
_POSITIONAL = TreePattern.root(child("labels", equals="a"))


@given(_rows, st.sampled_from(_SHAPES))
@settings(max_examples=60, deadline=None)
def test_generated_plans_match_the_oracle(rows, shape):
    execution = _build(Session(), rows, shape).execute(capture=True)
    for pattern in (_pattern(shape), _POSITIONAL):
        result = query_provenance(execution, pattern)
        oracle = trace(execution.store, execution.root.oid, match_rows(pattern, execution.rows()))
        assert_same(result, oracle)
