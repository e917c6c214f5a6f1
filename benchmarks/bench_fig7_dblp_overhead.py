"""Fig. 7: capture runtime overhead on the DBLP scenarios D1-D5.

The paper reports lower relative overheads than on Twitter (5-30 %), with
D3 lowest (~8 %) because materialising its large result dominates.  The
same ordering should emerge on the synthetic corpus.
"""

import pytest

from conftest import run_once
from paperbench.harness import measure_capture_overhead
from paperbench.reporting import render_capture_overhead
from repro.engine.session import Session
from repro.workloads.scenarios import DBLP_SCENARIOS, load_workload, scenario

SCALES = (0.5, 1.0, 2.0)
REPEATS = 5


@pytest.mark.parametrize("name", DBLP_SCENARIOS)
def test_capture_run(benchmark, name):
    spec = scenario(name)
    data = load_workload(spec.kind, 1.0)

    def run():
        execution = spec.build(Session(), data).execute(capture=True)
        execution.store.serialize()
        return len(execution)

    rows = benchmark(run)
    assert rows > 0


def test_fig7_table(benchmark, save_result):
    def sweep():
        return measure_capture_overhead(DBLP_SCENARIOS, scales=SCALES, repeats=REPEATS)

    measurements = run_once(benchmark, sweep)
    save_result(
        "fig7_dblp_capture_overhead",
        render_capture_overhead(measurements, "Fig. 7 -- runtime overhead, DBLP scenarios"),
    )
    for name in DBLP_SCENARIOS:
        series = sorted(
            (m for m in measurements if m.scenario == name), key=lambda m: m.scale
        )
        assert series[-1].plain_seconds > series[0].plain_seconds
