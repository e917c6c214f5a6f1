"""Sec. 7.3.4: comparison with Titian on a flat workload.

The paper's test program reads DBLP article/inproceedings records as flat
strings, filters lines containing ``2015``, and unions the branches; Titian
measured +5.89 % capture overhead, Pebble +6.98 %.  The shape to reproduce:
both overheads are small, and the structural capture costs at most a few
points more than the lineage-only capture.
"""

from conftest import run_once
from paperbench.harness import measure_titian_comparison
from paperbench.reporting import render_titian_comparison

SCALE = 2.0
REPEATS = 15


def test_titian_comparison(benchmark, save_result):
    measurement = run_once(
        benchmark, lambda: measure_titian_comparison(scale=SCALE, repeats=REPEATS)
    )
    save_result("sec734_titian_comparison", render_titian_comparison(measurement))
    # Both captures add overhead, and neither explodes on flat data.
    assert measurement.titian_seconds > 0
    assert measurement.pebble_seconds > 0
    assert measurement.pebble_overhead_pct < 60.0
    # Structural capture may cost a little more than lineage-only, but the
    # gap on flat data stays within a few points (paper: ~1.1 points).
    gap = measurement.pebble_overhead_pct - measurement.titian_overhead_pct
    assert gap < 25.0
