"""Fig. 9: provenance query runtime, eager (holistic) vs. lazy (PROVision).

Expected shape (Sec. 7.3.3): eager querying is always faster, with the
largest factors on deep, multi-input pipelines (T3, T5, D3) -- the lazy
approach re-runs the pipeline once per input dataset.

A third mode measures cold backtracing from the provenance warehouse on
disk: the run is recorded once, then each query loads a fresh
LazyProvenanceStore and decodes only the segments the backtrace touches;
the table reports that latency plus the segment-cache hit rate.
"""

import pytest

from conftest import run_once
from repro.bench.harness import measure_query_times
from repro.bench.reporting import render_query_times
from repro.engine.session import Session
from repro.pebble.query import query_provenance
from repro.workloads.scenarios import (
    DBLP_SCENARIOS,
    TWITTER_SCENARIOS,
    load_workload,
    scenario,
)

SCALE = 1.0
REPEATS = 3


@pytest.mark.parametrize("name", TWITTER_SCENARIOS + DBLP_SCENARIOS)
def test_eager_query(benchmark, name):
    """pytest-benchmark timing of the eager query (capture already paid)."""
    spec = scenario(name)
    data = load_workload(spec.kind, SCALE)
    captured = spec.build(Session(), data).execute(capture=True)

    def query():
        return query_provenance(captured, spec.pattern)

    provenance = benchmark(query)
    assert provenance.matched_output_ids


def test_fig9_tables(benchmark, save_result):
    def sweep():
        twitter = measure_query_times(TWITTER_SCENARIOS, scale=SCALE, repeats=REPEATS)
        dblp = measure_query_times(DBLP_SCENARIOS, scale=SCALE, repeats=REPEATS)
        return twitter, dblp

    twitter, dblp = run_once(benchmark, sweep)
    save_result(
        "fig9_query_eager_vs_lazy",
        render_query_times(twitter, "Fig. 9(a) -- query runtime, Twitter")
        + "\n\n"
        + render_query_times(dblp, "Fig. 9(b) -- query runtime, DBLP"),
    )
    for measurement in twitter + dblp:
        assert measurement.lazy_seconds > measurement.eager_seconds, (
            f"{measurement.scenario}: lazy should be slower than eager"
        )
        # The warehouse mode ran and its cache behaved sanely.
        assert measurement.warehouse_seconds is not None
        assert measurement.warehouse_seconds > 0
        assert measurement.segments_decoded is not None
        assert measurement.segments_decoded > 0
        assert 0.0 <= (measurement.cache_hit_rate or 0.0) <= 1.0
    # Multi-input pipelines pay the lazy penalty per input.
    by_name = {m.scenario: m for m in twitter + dblp}
    assert by_name["T3"].source_count == 2
    assert by_name["T3"].speedup > by_name["T1"].speedup
