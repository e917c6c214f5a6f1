"""Fig. 8: size of the collected structural provenance.

Expected shapes from the paper (Sec. 7.3.2):

* DBLP provenance is orders of magnitude larger than Twitter provenance for
  the same input scale -- DBLP has far more (narrow) top-level items, and
  Pebble annotates top-level items only.
* The structural share on top of lineage is small in most scenarios.
* T3's provenance is several times T1's (double input annotation, more
  operators, no early filter).
* D3 has the largest DBLP provenance (early flatten followed by a join).
"""

from conftest import run_once
from paperbench.harness import measure_provenance_size
from paperbench.reporting import render_provenance_sizes
from repro.workloads.scenarios import DBLP_SCENARIOS, TWITTER_SCENARIOS

SCALE = 1.0


def test_fig8_tables(benchmark, save_result):
    def measure():
        twitter = measure_provenance_size(TWITTER_SCENARIOS, scale=SCALE)
        dblp = measure_provenance_size(DBLP_SCENARIOS, scale=SCALE)
        return twitter, dblp

    twitter, dblp = run_once(benchmark, measure)
    save_result(
        "fig8_provenance_size",
        render_provenance_sizes(twitter, "Fig. 8(a) -- provenance size, Twitter")
        + "\n\n"
        + render_provenance_sizes(dblp, "Fig. 8(b) -- provenance size, DBLP"),
    )

    by_name = {m.scenario: m for m in twitter + dblp}
    # T3 collects several times T1's provenance (double read, deeper plan).
    assert by_name["T3"].total_bytes > 2 * by_name["T1"].total_bytes
    # Per processed byte, DBLP produces far more provenance than Twitter:
    # items are narrow, so there are many more top-level ids per unit input.
    twitter_total = sum(m.total_bytes for m in twitter)
    dblp_total = sum(m.total_bytes for m in dblp)
    assert dblp_total > twitter_total
    # D3 is the largest DBLP scenario (early flatten + join).
    assert by_name["D3"].total_bytes == max(m.total_bytes for m in dblp)
    # The structural extra stays below the lineage share for every scenario.
    for measurement in twitter + dblp:
        assert measurement.structural_bytes < measurement.lineage_bytes
