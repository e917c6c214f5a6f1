"""Fig. 6: capture runtime overhead on the Twitter scenarios T1-T5.

The paper reports Spark-vs-Pebble runtimes for T1-T5 at 100-500 GB with
roughly scale-independent relative overhead and T3 (which reads and
therefore annotates the input twice) among the highest.  We sweep scale
factors 0.5x-2x of the synthetic corpus and regenerate the same rows.
"""

import pytest

from conftest import run_once
from repro.bench.harness import measure_capture_overhead
from repro.bench.reporting import render_capture_overhead
from repro.engine.session import Session
from repro.workloads.scenarios import TWITTER_SCENARIOS, load_workload, scenario

SCALES = (0.5, 1.0, 2.0)
REPEATS = 3


@pytest.mark.parametrize("name", TWITTER_SCENARIOS)
def test_capture_run(benchmark, name):
    """pytest-benchmark timing of one capture-enabled run per scenario."""
    spec = scenario(name)
    data = load_workload(spec.kind, 1.0)

    def run():
        execution = spec.build(Session(), data).execute(capture=True)
        execution.store.serialize()
        return len(execution)

    rows = benchmark(run)
    assert rows > 0


def test_fig6_table(benchmark, save_result):
    """Regenerate the Fig. 6 series (per scenario x scale, overhead %)."""

    def sweep():
        return measure_capture_overhead(TWITTER_SCENARIOS, scales=SCALES, repeats=REPEATS)

    measurements = run_once(benchmark, sweep)
    save_result(
        "fig6_twitter_capture_overhead",
        render_capture_overhead(measurements, "Fig. 6 -- runtime overhead, Twitter scenarios"),
    )
    # Shape checks: runtime grows with scale for every scenario.
    for name in TWITTER_SCENARIOS:
        series = [m for m in measurements if m.scenario == name]
        series.sort(key=lambda m: m.scale)
        assert series[-1].plain_seconds > series[0].plain_seconds
