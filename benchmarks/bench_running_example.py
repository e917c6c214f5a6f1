"""E1: the running example (Tabs. 1-2, Figs. 1-4) as a benchmark.

Times the full Pebble cycle -- capture-enabled execution of the Fig. 1
pipeline plus the Fig. 4 provenance question -- and writes the resulting
Fig. 2 trees, together with the annotation-count comparison against
value-level (Lipstick-style) annotation (35 vs. 5, Sec. 2).
"""

from conftest import run_once
from paperbench.annotations import count_annotations
from repro.engine.session import Session
from repro.nested.values import DataItem
from repro.pebble.query import query_provenance
from repro.workloads.scenarios import (
    RUNNING_EXAMPLE_PATTERN,
    RUNNING_EXAMPLE_TWEETS,
    build_running_example,
)


def test_running_example_cycle(benchmark):
    """Capture + query of the running example, timed end to end."""

    def cycle():
        pipeline = build_running_example(Session(), list(RUNNING_EXAMPLE_TWEETS))
        execution = pipeline.execute(capture=True)
        return query_provenance(execution, RUNNING_EXAMPLE_PATTERN)

    provenance = benchmark(cycle)
    assert provenance.all_ids()["tweets.json"] == [2, 3]


def test_running_example_artefacts(benchmark, save_result):
    def produce():
        pipeline = build_running_example(Session(), list(RUNNING_EXAMPLE_TWEETS))
        execution = pipeline.execute(capture=True)
        provenance = query_provenance(execution, RUNNING_EXAMPLE_PATTERN)
        annotations = count_annotations(
            DataItem(tweet) for tweet in RUNNING_EXAMPLE_TWEETS
        )
        return provenance, annotations

    provenance, annotations = run_once(benchmark, produce)
    text = (
        "E1 -- running example (Sec. 2)\n"
        f"value-level annotations needed (Lipstick): {annotations}\n"
        f"top-level identifiers needed (Pebble):     {len(RUNNING_EXAMPLE_TWEETS)}\n\n"
        "Backtraced provenance trees (Fig. 2):\n" + provenance.render()
    )
    save_result("e1_running_example", text)
    assert annotations == 35
