"""End-to-end integration of all ten evaluation scenarios (Tab. 7)."""

import pytest

from repro.baselines.lazy import LazyProvenanceQuerier
from repro.baselines.lineage import LineageQuerier
from repro.engine.session import Session
from repro.pebble.query import query_provenance
from repro.workloads.scenarios import SCENARIOS, load_workload, scenario

SCALE = 0.2


@pytest.fixture(scope="module")
def captured():
    """One captured execution per scenario (module-scoped: they are costly)."""
    executions = {}
    for name, spec in SCENARIOS.items():
        data = load_workload(spec.kind, SCALE)
        executions[name] = spec.build(Session(), data).execute(capture=True)
    return executions


@pytest.mark.parametrize("name", sorted(SCENARIOS))
class TestStructuralQueries:
    def test_query_yields_provenance(self, captured, name):
        spec = scenario(name)
        provenance = query_provenance(captured[name], spec.pattern)
        total = sum(len(source) for source in provenance.sources)
        assert total > 0, f"{name}: empty provenance"

    def test_provenance_items_resolve_to_inputs(self, captured, name):
        spec = scenario(name)
        provenance = query_provenance(captured[name], spec.pattern)
        data = load_workload(spec.kind, SCALE)
        if spec.kind == "twitter":
            universe = {repr(item) for item in data}
        else:
            universe = {repr(item) for records in data.values() for item in records}
        for source in provenance.sources:
            for entry in source:
                assert repr(entry.item) in universe

    def test_structural_ids_subset_of_lineage(self, captured, name):
        """Structural provenance never returns more top-level items than
        lineage -- it refines lineage (Sec. 2)."""
        spec = scenario(name)
        provenance = query_provenance(captured[name], spec.pattern)
        querier = LineageQuerier(captured[name].store)
        lineage = querier.backtrace_ids(
            captured[name].root.oid, set(provenance.matched_output_ids)
        )
        lineage_ids = set().union(*(source.ids for source in lineage)) if lineage else set()
        assert provenance.lineage_ids() <= lineage_ids

    def test_contributing_paths_exist_in_input_items(self, captured, name):
        """Every contributing path of a backtraced tree must address real
        data in the input item (no dangling provenance)."""
        from repro.core.paths import parse_path

        spec = scenario(name)
        provenance = query_provenance(captured[name], spec.pattern)
        for source in provenance.sources:
            for entry in source:
                for text in entry.contributing_paths():
                    path = parse_path(text.replace("[pos]", "[1]"))
                    assert path.resolves_in(entry.item), (
                        f"{name}: path {text} does not resolve in input {entry.item_id}"
                    )


@pytest.mark.parametrize("name", ["T3", "T5", "D1", "D3"])
class TestEagerLazyEquivalence:
    def test_same_provenance_ids(self, captured, name):
        spec = scenario(name)
        eager = query_provenance(captured[name], spec.pattern)
        data = load_workload(spec.kind, SCALE)
        lazy = LazyProvenanceQuerier(spec.build(Session(), data)).query(spec.pattern)
        assert lazy.all_ids() == eager.all_ids()
