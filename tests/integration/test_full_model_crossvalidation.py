"""Cross-validation: lightweight capture vs. the full model (Sec. 4.3 vs 5.1).

The lightweight operator provenance is an *optimisation* of the full model:
identifiers instead of items, schema-level paths instead of value-level
paths.  These tests execute the same plans under both and check that no
information the paper relies on is lost:

* the source-to-result item relation (lineage) agrees,
* the value-level accesses of the full model collapse exactly to the
  lightweight ``A``, and
* the value-level mappings collapse exactly to the lightweight ``M``.
"""

import pytest

from paperbench.lineage import LineageQuerier
from tests.oracle.reference import FullModelInterpreter, OperatorResult
from repro.core.operator_provenance import UNDEFINED
from repro.engine.plan import PlanNode, ReadNode
from repro.engine.session import Session
from repro.nested.values import Bag, DataItem, NestedSet
from repro.workloads.scenarios import (
    RUNNING_EXAMPLE_TWEETS,
    build_running_example,
    load_workload,
    scenario,
)


def _canonical(value) -> str:
    """Repr with nested bag/set contents sorted.

    Collection *order* is engine-defined (shuffle arrival vs. nested-loop
    order); the cross-validation compares contents.
    """
    if isinstance(value, DataItem):
        inner = ", ".join(f"{name}: {_canonical(val)}" for name, val in value.pairs())
        return f"<{inner}>"
    if isinstance(value, (Bag, NestedSet)):
        return "{" + ", ".join(sorted(_canonical(element) for element in value)) + "}"
    return repr(value)


def _full_source_lineage(
    results: dict[int, OperatorResult], root: PlanNode
) -> list[tuple[str, frozenset[tuple[str, str]]]]:
    """Per final item: (item repr, set of (source name, input item repr)).

    Traces the full model's per-operator I entries transitively down to the
    read operators; items are linked by object identity, which the
    interpreter preserves along the plan.
    """
    nodes = {node.oid: node for node in root.walk()}
    provenance_by_object: dict[int, dict[int, object]] = {}
    for oid, result in results.items():
        provenance_by_object[oid] = {id(entry.item): entry for entry in result.entries}

    def trace(oid: int, item: object) -> frozenset[tuple[str, str]]:
        node = nodes[oid]
        if isinstance(node, ReadNode):
            return frozenset({(node.name, repr(item))})
        entry = provenance_by_object[oid][id(item)]
        sources: set[tuple[str, str]] = set()
        for input_provenance in entry.inputs:
            child_oid = node.children[input_provenance.input_index].oid
            sources |= trace(child_oid, input_provenance.item)
        return frozenset(sources)

    final = results[root.oid]
    return sorted(
        (_canonical(entry.item), trace(root.oid, entry.item)) for entry in final.entries
    )


def _lightweight_source_lineage(execution) -> list[tuple[str, frozenset[tuple[str, str]]]]:
    """The same relation derived from the lightweight capture."""
    querier = LineageQuerier(execution.store)
    rows = execution.rows()
    traced = []
    for pid, item in rows:
        sources = querier.backtrace_ids(execution.root.oid, {pid})
        source_items: set[tuple[str, str]] = set()
        for source in sources:
            for item_id in source.ids:
                source_items.add(
                    (source.name, repr(execution.store.source_item(source.oid, item_id)))
                )
        traced.append((_canonical(item), frozenset(source_items)))
    return sorted(traced)


def _plans():
    session = Session()
    yield "running-example", build_running_example(
        session, list(RUNNING_EXAMPLE_TWEETS)
    )
    for name in ("T1", "T5", "D1", "D4", "D5"):
        spec = scenario(name)
        data = load_workload(spec.kind, 0.1)
        yield name, spec.build(Session(), data)


@pytest.mark.parametrize("name,dataset", list(_plans()), ids=lambda value: value if isinstance(value, str) else "")
class TestCrossValidation:
    def test_results_agree(self, name, dataset):
        full = FullModelInterpreter().run(dataset.plan)
        execution = dataset.execute(capture=True)
        assert sorted(map(_canonical, full[dataset.plan.oid].items())) == sorted(
            map(_canonical, execution.items())
        )

    def test_source_lineage_agrees(self, name, dataset):
        full = FullModelInterpreter().run(dataset.plan)
        execution = dataset.execute(capture=True)
        assert _full_source_lineage(full, dataset.plan) == _lightweight_source_lineage(
            execution
        )

    def test_accesses_collapse_to_lightweight_A(self, name, dataset):
        full = FullModelInterpreter().run(dataset.plan)
        execution = dataset.execute(capture=True)
        for node in dataset.plan.walk():
            lightweight = execution.store.get(node.oid)
            for input_index, input_ref in enumerate(lightweight.inputs):
                if input_ref.accessed is UNDEFINED:
                    continue
                full_accessed = full[node.oid].schema_level_accesses(input_index)
                # The full model records accesses per item; items never
                # reached (e.g. filtered out) contribute nothing, so the
                # collapse is a subset of (and usually equal to) the
                # schema-level A.
                assert full_accessed <= set(input_ref.accessed), (
                    f"{name}: operator {node.oid} input {input_index}"
                )
                if full[node.oid].entries:
                    assert full_accessed == set(input_ref.accessed)

    def test_mappings_collapse_to_lightweight_M(self, name, dataset):
        full = FullModelInterpreter().run(dataset.plan)
        execution = dataset.execute(capture=True)
        for node in dataset.plan.walk():
            lightweight = execution.store.get(node.oid)
            if lightweight.manipulations_undefined():
                # Map: both sides must agree that M is unknown.
                assert all(
                    entry.mappings is UNDEFINED for entry in full[node.oid].entries
                )
                continue
            if not full[node.oid].entries:
                continue
            full_mappings = full[node.oid].schema_level_mappings()
            lightweight_mappings = {
                (path_in.with_placeholders(), path_out.with_placeholders())
                for path_in, path_out in lightweight.manipulations_or_empty()
            }
            assert full_mappings == lightweight_mappings, f"{name}: operator {node.oid}"
