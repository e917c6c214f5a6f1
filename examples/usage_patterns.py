"""Data-usage patterns for physical design (paper Sec. 7.3.5, Fig. 10).

Runs the five DBLP evaluation scenarios with provenance capture, answers
each scenario's structural provenance question, merges the provenance into
a usage analysis, and prints

* the Fig. 10-style heatmap (items x top-level attributes),
* hot/cold items and attributes,
* influencing-only attributes (accessed but never copied -- the paper's
  ``year`` observation), and
* vertical-partitioning and co-location advice.

Run with::

    python examples/usage_patterns.py
"""

from repro import PebbleSession, query_provenance
from repro.core.usecases.usage import UsageAnalysis
from repro.workloads.scenarios import DBLP_SCENARIOS, load_workload, scenario

SCALE = 0.5
SOURCE = "inproceedings.json"
ATTRIBUTES = ["key", "title", "authors", "year", "crossref", "pages"]


def main() -> None:
    usage = UsageAnalysis()

    for name in DBLP_SCENARIOS:
        spec = scenario(name)
        data = load_workload(spec.kind, SCALE)
        pebble = PebbleSession()
        execution = spec.build(pebble.session, data).execute(capture=True)
        provenance = query_provenance(execution, spec.pattern)
        usage.add(provenance)
        touched = sum(len(source) for source in provenance.sources)
        print(f"{name}: {spec.description} -> provenance of {touched} input items")

    print("\nUsage heatmap over the first 25 inproceedings (Fig. 10):")
    print(usage.render_heatmap(SOURCE, range(1, 26), ATTRIBUTES))

    print("\nHot items (top 5):", usage.hot_items(SOURCE)[:5])
    print("Cold items among ids 1-25:", usage.cold_items(SOURCE, range(1, 26)))
    print("Hot attributes:", usage.hot_attributes(SOURCE))
    print("Influencing-only attributes:", usage.influencing_only_attributes(SOURCE))
    print("Cold attributes:", usage.cold_attributes(SOURCE, ATTRIBUTES))

    print("\n" + usage.partitioning_advice(SOURCE, ATTRIBUTES))


if __name__ == "__main__":
    main()
