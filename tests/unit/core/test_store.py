"""Unit tests for the provenance store."""

import pytest

from repro.core.operator_provenance import (
    FlattenAssociations,
    InputRef,
    OperatorProvenance,
    ReadAssociations,
    UnaryAssociations,
)
from repro.core.store import ProvenanceStore, topological_order
from repro.errors import BacktraceError, ProvenanceError
from repro.nested.values import DataItem


def _read_op(oid=1):
    return OperatorProvenance(oid, "read", (), (), ReadAssociations([1, 2]))


def _filter_op(oid=2, pred=1):
    return OperatorProvenance(
        oid, "filter", (InputRef(pred, []),), (), UnaryAssociations([(1, 3)])
    )


class TestRegistration:
    def test_register_and_get(self):
        store = ProvenanceStore()
        store.register(_read_op())
        assert store.get(1).op_type == "read"

    def test_double_registration_rejected(self):
        store = ProvenanceStore()
        store.register(_read_op())
        with pytest.raises(ProvenanceError, match="twice"):
            store.register(_read_op())

    def test_get_missing_raises(self):
        with pytest.raises(BacktraceError, match="no captured provenance"):
            ProvenanceStore().get(9)

    def test_has(self):
        store = ProvenanceStore()
        store.register(_read_op())
        assert store.has(1)
        assert not store.has(2)

    def test_is_source(self):
        store = ProvenanceStore()
        store.register(_read_op(1))
        store.register(_filter_op(2))
        assert store.is_source(1)
        assert not store.is_source(2)

    def test_clear(self):
        store = ProvenanceStore()
        store.register(_read_op())
        store.clear()
        assert len(store) == 0


class TestSourceItems:
    def test_resolution(self):
        store = ProvenanceStore()
        store.register(_read_op())
        item = DataItem(a=1)
        store.register_source_items(1, "tweets.json", {1: item})
        assert store.source_name(1) == "tweets.json"
        assert store.source_item(1, 1) is item
        assert store.source_items(1) == {1: item}

    def test_missing_item_raises(self):
        store = ProvenanceStore()
        store.register(_read_op())
        store.register_source_items(1, "x", {})
        with pytest.raises(BacktraceError, match="no item"):
            store.source_item(1, 99)

    def test_unknown_source_name_fallback(self):
        assert ProvenanceStore().source_name(7) == "source-7"


class TestSizeReport:
    def test_split_and_totals(self):
        store = ProvenanceStore()
        store.register(_read_op(1))
        flatten = OperatorProvenance(
            2,
            "flatten",
            (InputRef(1, []),),
            (),
            FlattenAssociations([(1, 1, 3), (1, 2, 4)]),
        )
        store.register(flatten)
        report = store.size_report()
        assert report.lineage_bytes == 2 * 8 + 2 * 2 * 8
        assert report.structural_bytes == 2 * 4
        assert report.total_bytes == report.lineage_bytes + report.structural_bytes
        assert report.association_count == 4
        assert set(report.per_operator) == {1, 2}

    def test_serialize_is_deterministic_and_sized(self):
        store = ProvenanceStore()
        store.register(_read_op(1))
        store.register(_filter_op(2))
        blob = store.serialize()
        assert blob == store.serialize()
        assert len(blob) > 0


class TestTopologicalOrder:
    def test_smallest_ready_first(self):
        # 1 -> 3, 2 -> 3, 4 alone: ready {1, 2, 4} leave smallest first.
        assert topological_order({3: (1, 2), 1: (), 4: (), 2: ()}) == [1, 2, 3, 4]

    def test_predecessors_first_on_a_chain(self):
        assert topological_order({1: (), 5: (3,), 3: (1,)}) == [1, 3, 5]

    def test_duplicate_edge_counts_twice(self):
        # A self-join lists its one predecessor twice.
        assert topological_order({1: (), 2: (1, 1), 3: (2,)}) == [1, 2, 3]
        # Reversed, the duplicate edge must also be released twice.
        assert topological_order({1: (2, 2), 2: (3,), 3: ()}) == [3, 2, 1]

    def test_deps_outside_the_mapping_are_ignored(self):
        assert topological_order({2: (1,), 3: (2, 99)}) == [2, 3]

    def test_empty(self):
        assert topological_order({}) == []

    def test_cycle_raises(self):
        with pytest.raises(ProvenanceError, match="cycle"):
            topological_order({1: (2,), 2: (1,), 3: ()})


class TestTopology:
    def test_predecessors_per_operator(self):
        store = ProvenanceStore()
        store.register(_read_op(1))
        store.register(_filter_op(2, 1))
        assert store.topology() == {1: (), 2: (1,)}
