"""Sec. 7.3.1 (per-operator discussion, no graph in the paper).

Single-operator micro-pipelines isolate the capture cost per operator type.
Expected shape: constant per-item annotation cost for filter / select /
union / join / flatten; aggregations relatively more expensive because they
store one identifier per group member.
"""

import pytest

from conftest import run_once
from repro.bench.harness import measure_operator_overhead
from repro.bench.reporting import render_operator_overhead
from repro.engine.expressions import col, collect_list
from repro.engine.session import Session
from repro.workloads.scenarios import load_workload

SCALE = 1.0
REPEATS = 5


def test_operator_overhead_table(benchmark, save_result):
    measurements = run_once(
        benchmark, lambda: measure_operator_overhead(scale=SCALE, repeats=REPEATS)
    )
    save_result("sec731_operator_overhead", render_operator_overhead(measurements))
    assert {m.operator for m in measurements} == {
        "filter",
        "select",
        "flatten",
        "union",
        "join",
        "aggregate",
    }


@pytest.mark.parametrize("operator", ["filter", "flatten", "aggregate"])
def test_single_operator_capture(benchmark, operator):
    """pytest-benchmark timing of one capture-enabled micro-pipeline."""
    tweets = load_workload("twitter", SCALE)

    def run():
        session = Session()
        base = session.create_dataset(tweets, "tweets.json")
        if operator == "filter":
            ds = base.filter(col("retweet_count") == 0)
        elif operator == "flatten":
            ds = base.flatten("user_mentions", "m_user")
        else:
            ds = base.group_by(col("user.id_str")).agg(
                collect_list(col("text")).alias("texts")
            )
        return len(ds.execute(capture=True))

    assert benchmark(run) > 0
